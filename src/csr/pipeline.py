"""End-to-end retrieval: iterative narrowing, then join-candidate ranking.

Each iteration runs the contextual retriever, then the structural one, both
restricted to the previous iteration's table scope, and combines their
table sets. Parameters shrink across iterations, so the scope chain is
non-increasing; ``narrow`` runs this loop. ``run_pipeline`` then ranks the
key columns of the final scope and emits the top h table.column join
candidates. ``answer`` turns one ``QueryRequest`` into its response payload;
``csr query`` and ``POST /v1/retrieve`` both go through it.

Everything runs on the calling thread: the stages are pure Python, so a
thread pool would only contend for the interpreter lock. Outputs are
deterministic for fixed inputs; only the recorded wall-clock timings vary
between runs, and they are excluded from the canonical payload.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Literal

from .catalog import (
    SchemaCatalog,
    TableId,
    check_types,
    from_document,
    lookup_tables,
    read_json,
)
from .contextual import ChunkIndex, retrieve_contextual
from .relational import RankingConfig, SemanticEntity, rank_key_columns
from .similarity import SimilarityConfig
from .structural import KnowledgeGraph, retrieve_structural


class ScopeCollapsedError(RuntimeError):
    """The combined table scope became empty at some iteration.

    Carries the 1-based step number and the stage traces recorded up to and
    including the collapsing iteration.
    """

    def __init__(self, step: int, per_stage: list["StageTrace"] | None = None):
        super().__init__(f"scope collapsed at iteration {step}")
        self.step = step
        self.per_stage = per_stage or []


@dataclass(frozen=True)
class IterationSchedule:
    steps: tuple[tuple[int, int, int], ...]  # (k, l, h) per iteration
    scope_combine: Literal["union", "intersection"] = "union"

    def __post_init__(self) -> None:
        check_types(self)
        # A document's lists become tuples, so equal schedules compare equal.
        object.__setattr__(self, "steps", tuple(map(tuple, self.steps)))
        if not self.steps:
            raise ValueError("schedule needs at least one step")
        if min(map(min, self.steps)) < 1:
            raise ValueError("schedule parameters must be >= 1")
        for i, name in enumerate("kl"):
            values = [step[i] for step in self.steps]
            if any(later > earlier for later, earlier in zip(values[1:], values)):
                raise ValueError(f"{name} values must be non-increasing across steps")

    @staticmethod
    def from_dict(doc) -> "IterationSchedule":
        return from_document(IterationSchedule, doc, "schedule")

    def to_dict(self) -> dict:
        return {
            "steps": [list(s) for s in self.steps],
            "scope_combine": self.scope_combine,
        }


@dataclass
class PipelineConfig:
    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)
    ranking: RankingConfig = field(default_factory=RankingConfig)
    schedule: IterationSchedule | None = None
    contextual_scope_mode: Literal["intersect", "filter_chunks"] = "intersect"
    unavailable_tables: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_types(self)
        self.unavailable_tables = tuple(self.unavailable_tables)

    @staticmethod
    def from_dict(doc) -> "PipelineConfig":
        return from_document(
            PipelineConfig,
            doc,
            "pipeline config",
            similarity=lambda d: from_document(SimilarityConfig, d, "similarity config"),
            ranking=_ranking_from_dict,
            schedule=IterationSchedule.from_dict,
        )

    def to_dict(self) -> dict:
        doc = {
            # asdict walks the same dataclass fields that from_document accepts.
            # Ranking's one field, h, is set per schedule step: no section.
            "similarity": asdict(self.similarity),
            "contextual_scope_mode": self.contextual_scope_mode,
            "unavailable_tables": list(self.unavailable_tables),
        }
        if self.schedule is not None:
            doc["schedule"] = self.schedule.to_dict()
        return doc


def _ranking_from_dict(doc) -> RankingConfig:
    # run_pipeline ranks with the last schedule step's h, so a config's own
    # h would have no effect.
    if isinstance(doc, dict) and "h" in doc:
        raise ValueError("invalid ranking config: h is set per schedule step")
    return from_document(RankingConfig, doc, "ranking config")


@dataclass(frozen=True)
class QueryRequest:
    """One query: the body of ``POST /v1/retrieve`` or ``csr query``'s
    arguments."""

    question: str
    schedule_override: IterationSchedule | None = None
    max_entities: int | None = None
    include_timings: bool = False

    def __post_init__(self) -> None:
        check_types(self)
        if not self.question.strip():
            raise ValueError("question must be a nonempty string")
        if self.max_entities is not None and self.max_entities < 1:
            raise ValueError("max_entities must be >= 1")

    @staticmethod
    def from_dict(doc) -> "QueryRequest":
        return from_document(
            QueryRequest, doc, "request", schedule_override=IterationSchedule.from_dict
        )


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    return PipelineConfig.from_dict(read_json(path))


@dataclass
class StageTrace:
    iteration: int  # 1-based
    contextual_tables: set[TableId]
    structural_tables: set[TableId]
    scope: set[TableId]
    # Wall-clock microseconds: traces compare equal on their tables alone.
    contextual_us: int = field(compare=False)
    structural_us: int = field(compare=False)


@dataclass
class RetrievalOutput:
    entities: list[SemanticEntity]
    tables: set[TableId]
    per_stage: list[StageTrace]
    timings: dict[str, int]  # stage -> microseconds


def narrow(
    question: str,
    chunk_index: ChunkIndex,
    graph: KnowledgeGraph,
    schedule: IterationSchedule,
    scope_mode: Literal["intersect", "filter_chunks"],
) -> list[StageTrace]:
    """The schedule's narrowing iterations: one trace per step, the last
    holding the final table scope; each corpus scores the question once, in
    the first step. Raises ``ScopeCollapsedError`` with the traces so far
    when a step's combined scope is empty."""
    per_stage: list[StageTrace] = []
    scope: set[TableId] | None = None
    ctx_scores = stru_scores = None
    for step_no, (k, l, _h) in enumerate(schedule.steps, start=1):
        t0 = time.perf_counter_ns()
        result = retrieve_contextual(
            chunk_index, question, k, scope, scope_mode, ctx_scores
        )
        ctx, ctx_scores = result.tables, result.scores
        t1 = time.perf_counter_ns()
        result = retrieve_structural(graph, question, l, scope, stru_scores)
        stru, stru_scores = result.tables, result.scores
        t2 = time.perf_counter_ns()
        scope = ctx & stru if schedule.scope_combine == "intersection" else ctx | stru
        per_stage.append(
            StageTrace(step_no, ctx, stru, scope, (t1 - t0) // 1000, (t2 - t1) // 1000)
        )
        if not scope:
            raise ScopeCollapsedError(step_no, per_stage)
    return per_stage


def run_pipeline(
    question: str,
    chunk_index: ChunkIndex,
    graph: KnowledgeGraph,
    catalog: SchemaCatalog,
    schedule: IterationSchedule,
    config: PipelineConfig,
) -> RetrievalOutput:
    """Narrow the scope for one question, then rank its join candidates."""
    unavailable = lookup_tables(catalog, config.unavailable_tables)
    start_total = time.perf_counter_ns()
    per_stage = narrow(
        question, chunk_index, graph, schedule, config.contextual_scope_mode
    )
    t0 = time.perf_counter_ns()
    scope, h = per_stage[-1].scope, schedule.steps[-1][2]
    entities = rank_key_columns(scope, question, h, config.similarity, catalog, unavailable)
    t1 = time.perf_counter_ns()
    timings = {
        "contextual": sum(t.contextual_us for t in per_stage),
        "structural": sum(t.structural_us for t in per_stage),
        "relational": (t1 - t0) // 1000,
        "total": (t1 - start_total) // 1000,
    }
    return RetrievalOutput(
        entities=entities,
        tables={e.table for e in entities},
        per_stage=per_stage,
        timings=timings,
    )


def default_schedule(catalog_size: int) -> IterationSchedule:
    """Three narrowing steps scaled to the catalog size.

    The final h is 16, twice the expected relevant-set size bound of 8,
    leaving the downstream SQL generator room for every plausible join
    column.
    """
    if catalog_size < 1:
        raise ValueError("catalog_size must be >= 1")
    h = 16
    steps = (
        (max(2, catalog_size // 5), max(2, catalog_size), h),
        (max(2, catalog_size // 12), max(1, catalog_size // 4), h),
        (max(1, catalog_size // 25), max(1, catalog_size // 10), h),
    )
    return IterationSchedule(steps=steps, scope_combine="union")


def build_query_response(
    output: RetrievalOutput,
    catalog: SchemaCatalog,
    schema_version: str,
    include_timings: bool = False,
) -> dict:
    """QueryResponse payload; timing fields are opt-in because they are the
    only non-deterministic part of the output."""
    payload = {
        "entities": [{"entity": e.surface, "score": e.score} for e in output.entities],
        "tables": sorted(catalog.table(t).name for t in output.tables),
        "schema_version": schema_version,
    }
    if include_timings:
        payload["stage_timings_ms"] = {
            stage: us / 1000.0 for stage, us in output.timings.items()
        }
    return payload


def answer(
    request: QueryRequest,
    chunk_index: ChunkIndex,
    graph: KnowledgeGraph,
    catalog: SchemaCatalog,
    config: PipelineConfig,
    schema_version: str,
) -> dict:
    """Answer one query with its response payload: the request's schedule
    (else the config's, else the default), then the top ``max_entities``."""
    schedule = request.schedule_override or config.schedule
    schedule = schedule or default_schedule(len(catalog.tables))
    output = run_pipeline(request.question, chunk_index, graph, catalog, schedule, config)
    if request.max_entities is not None:
        output.entities = output.entities[: request.max_entities]
        output.tables = {e.table for e in output.entities}
    return build_query_response(output, catalog, schema_version, request.include_timings)

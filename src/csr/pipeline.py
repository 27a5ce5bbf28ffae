"""End-to-end retrieval: iterative narrowing, then join-candidate ranking.

Each iteration runs the contextual retriever, then the structural one, both
restricted to the previous iteration's table scope, and combines their
table sets. Parameters shrink across iterations, so the scope chain is
non-increasing. After the last iteration the relational ranker builds a
hypergraph over the final scope and emits the top table.column join
candidates. ``answer`` turns one ``QueryRequest`` into its response payload;
``csr query`` and ``POST /v1/retrieve`` both go through it.

Everything runs on the calling thread: the stages are pure Python, so a
thread pool would only contend for the interpreter lock. Outputs are
deterministic for fixed inputs; only the recorded wall-clock timings vary
between runs, and they are excluded from the canonical payload.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .catalog import SchemaCatalog, TableId, from_document, is_int, lookup_table
from .contextual import ChunkIndex, retrieve_contextual
from .relational import RankingConfig, SemanticEntity, build_hypergraph, hypergraph_rank
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
    scope_combine: str = "union"  # union | intersection

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("schedule needs at least one step")
        if self.scope_combine not in ("union", "intersection"):
            raise ValueError(f"unknown scope_combine '{self.scope_combine}'")
        for step in self.steps:
            if len(step) != 3 or not all(is_int(v) for v in step):
                raise ValueError(f"schedule step {list(step)} must be three integers k,l,h")
        for k, l, h in self.steps:
            if k < 1 or l < 1 or h < 1:
                raise ValueError("schedule parameters must be >= 1")
        ks = [s[0] for s in self.steps]
        ls = [s[1] for s in self.steps]
        if any(later > earlier for later, earlier in zip(ks[1:], ks)):
            raise ValueError("k values must be non-increasing across steps")
        if any(later > earlier for later, earlier in zip(ls[1:], ls)):
            raise ValueError("l values must be non-increasing across steps")

    @staticmethod
    def from_dict(doc) -> "IterationSchedule":
        return from_document(
            IterationSchedule, doc, "schedule", steps=lambda s: tuple(map(tuple, s))
        )

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
    contextual_scope_mode: str = "intersect"  # intersect | filter_chunks
    unavailable_tables: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        mode, names = self.contextual_scope_mode, self.unavailable_tables
        if mode not in ("intersect", "filter_chunks"):
            raise ValueError(f"unknown contextual_scope_mode '{mode}'")
        if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
            raise ValueError("unavailable_tables must be a list of table names")
        self.unavailable_tables = tuple(names)

    @staticmethod
    def from_dict(doc) -> "PipelineConfig":
        return from_document(
            PipelineConfig,
            doc,
            "pipeline config",
            similarity=lambda d: from_document(SimilarityConfig, d, "similarity config"),
            ranking=lambda d: from_document(RankingConfig, d, "ranking config"),
            schedule=IterationSchedule.from_dict,
        )

    def to_dict(self) -> dict:
        doc = {
            # asdict walks the same dataclass fields that from_document accepts.
            "similarity": asdict(self.similarity),
            "ranking": asdict(self.ranking),
            "contextual_scope_mode": self.contextual_scope_mode,
            "unavailable_tables": list(self.unavailable_tables),
        }
        if self.schedule is not None:
            doc["schedule"] = self.schedule.to_dict()
        return doc


@dataclass(frozen=True)
class QueryRequest:
    """One query: the body of ``POST /v1/retrieve`` or ``csr query``'s
    arguments."""

    question: str
    schedule_override: IterationSchedule | None = None
    max_entities: int | None = None
    include_timings: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.question, str) or not self.question.strip():
            raise ValueError("question must be a nonempty string")
        limit = self.max_entities
        if limit is not None and not (is_int(limit) and limit >= 1):
            raise ValueError("max_entities must be a positive integer")

    @staticmethod
    def from_dict(doc) -> "QueryRequest":
        return from_document(
            QueryRequest, doc, "request", schedule_override=IterationSchedule.from_dict
        )


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    with open(path, encoding="utf-8") as fh:
        return PipelineConfig.from_dict(json.load(fh))


@dataclass
class StageTrace:
    iteration: int  # 1-based
    contextual_tables: set[TableId]
    structural_tables: set[TableId]
    scope: set[TableId]


@dataclass
class RetrievalOutput:
    entities: list[SemanticEntity]
    tables: set[TableId]
    per_stage: list[StageTrace]
    timings: dict[str, int]  # stage -> microseconds


def run_pipeline(
    question: str,
    chunk_index: ChunkIndex,
    graph: KnowledgeGraph,
    catalog: SchemaCatalog,
    schedule: IterationSchedule,
    config: PipelineConfig,
) -> RetrievalOutput:
    """Run the full iterative retrieval for one question."""
    unavailable = _resolve_unavailable(config.unavailable_tables, catalog)
    timings = {"contextual": 0, "structural": 0, "relational": 0}
    per_stage: list[StageTrace] = []
    scope: set[TableId] | None = None
    start_total = time.perf_counter_ns()

    for step_no, (k, l, _h) in enumerate(schedule.steps, start=1):
        t0 = time.perf_counter_ns()
        ctx_tables = retrieve_contextual(
            chunk_index, question, k, scope, config.contextual_scope_mode
        ).tables
        t1 = time.perf_counter_ns()
        str_tables = retrieve_structural(graph, question, l, scope).tables
        t2 = time.perf_counter_ns()
        timings["contextual"] += (t1 - t0) // 1000
        timings["structural"] += (t2 - t1) // 1000

        if schedule.scope_combine == "intersection":
            combined = ctx_tables & str_tables
        else:
            combined = ctx_tables | str_tables
        per_stage.append(
            StageTrace(
                iteration=step_no,
                contextual_tables=ctx_tables,
                structural_tables=str_tables,
                scope=combined,
            )
        )
        if not combined:
            raise ScopeCollapsedError(step_no, per_stage)
        scope = combined

    assert scope is not None
    final_h = schedule.steps[-1][2]
    t0 = time.perf_counter_ns()
    hypergraph = build_hypergraph(scope, catalog, config.ranking, unavailable)
    entities = hypergraph_rank(
        hypergraph,
        question,
        replace(config.ranking, h=final_h),
        config.similarity,
        catalog,
    )
    timings["relational"] += (time.perf_counter_ns() - t0) // 1000
    timings["total"] = (time.perf_counter_ns() - start_total) // 1000

    return RetrievalOutput(
        entities=entities,
        tables={e.table for e in entities},
        per_stage=per_stage,
        timings=timings,
    )


def _resolve_unavailable(
    names: tuple[str, ...], catalog: SchemaCatalog
) -> frozenset[TableId]:
    ids = set()
    for name in names:
        tid = lookup_table(catalog, name)
        if tid is not None:
            ids.add(tid)
    return frozenset(ids)


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
        "entities": [
            {
                "entity": f"{catalog.table(e.table).name}.{catalog.column(e.column).name}",
                "score": e.score,
            }
            for e in output.entities
        ],
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

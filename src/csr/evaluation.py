"""Sweep evaluation and latency benchmarking over a catalog and trace.

The sweep holds out part of the trace, indexes the rest, and scores every
schedule's per-iteration table scope against each held-out question's true
table set. Holding out whole chunks (rather than masking at query time)
guarantees no question is ever evaluated against an index containing its
own chunk. The latency bench replays questions one at a time against warmed
indexes and summarizes wall-clock timings with nearest-rank percentiles.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

from .catalog import SchemaCatalog
from .contextual import ChunkIndex, build_chunk_index
from .metrics import LatencyReport, latency_report, precision_recall
from .pipeline import (
    IterationSchedule,
    PipelineConfig,
    RetrievalOutput,
    ScopeCollapsedError,
    narrow,
    run_pipeline,
)
from .sqlrefs import extract_relevant_set
from .structural import KnowledgeGraph, build_knowledge_graph


# Questions run once before the latency bench starts its clock.
WARMUP_QUERIES = 3


@dataclass(frozen=True)
class SweepRow:
    schedule_id: int
    iteration: int
    k: int
    l: int
    h: int
    precision: float
    recall: float
    question_count: int


def default_sweep_schedules(catalog_size: int) -> list[IterationSchedule]:
    """Three narrowing schedules from mild to aggressive, scaled to size."""
    cs = catalog_size
    h = 16
    return [
        IterationSchedule(
            steps=(
                (max(2, cs // 6), max(4, cs), h),
                (max(2, cs // 12), max(2, cs // 2), h),
                (max(1, cs // 25), max(1, cs // 6), h),
            )
        ),
        IterationSchedule(
            steps=(
                (max(2, cs // 12), max(4, cs // 2), h),
                (max(2, cs // 25), max(2, cs // 4), h),
                (max(1, cs // 50), max(1, cs // 8), h),
            )
        ),
        IterationSchedule(
            steps=(
                (max(1, cs // 25), max(1, cs // 4), h),
                (max(1, cs // 50), max(1, cs // 8), h),
                (1, max(1, cs // 25), h),
            )
        ),
    ]


def split_trace(
    trace: list[dict], hold_out_every: int = 4
) -> tuple[list[dict], list[dict]]:
    """Deterministic round-robin split into (index portion, held-out portion).

    Every ``hold_out_every``-th entry is held out. With a grouped trace this
    reserves one variant per group while its siblings stay indexable.
    """
    if hold_out_every < 2:
        raise ValueError("hold_out_every must be >= 2")
    held = [e for i, e in enumerate(trace) if i % hold_out_every == hold_out_every - 1]
    build = [e for i, e in enumerate(trace) if i % hold_out_every != hold_out_every - 1]
    if not build or not held:
        raise ValueError(
            f"trace of {len(trace)} entries cannot be split with "
            f"hold_out_every={hold_out_every}"
        )
    return build, held


def run_sweep(
    catalog: SchemaCatalog,
    trace: list[dict],
    schedules: list[IterationSchedule],
    config: PipelineConfig,
    hold_out_every: int = 4,
) -> list[SweepRow]:
    """Per-iteration precision/recall for every schedule, averaged over the
    held-out questions. Only the narrowing runs: the scores read the scopes,
    never the ranked join candidates. A collapsed scope counts as an empty
    prediction for the remaining iterations instead of aborting the sweep.
    """
    build, held = split_trace(trace, hold_out_every)
    chunk_index = build_chunk_index(build, catalog, config.similarity)
    graph = build_knowledge_graph(catalog, config.similarity)

    truths = [
        extract_relevant_set(entry["sql"], catalog).tables for entry in held
    ]

    mode = config.contextual_scope_mode
    rows: list[SweepRow] = []
    for schedule_id, schedule in enumerate(schedules):
        n_steps = len(schedule.steps)
        sums = [[0.0, 0.0] for _ in range(n_steps)]
        for entry, truth in zip(held, truths):
            try:
                traces = narrow(entry["question"], chunk_index, graph, schedule, mode)
            except ScopeCollapsedError as exc:
                traces = exc.per_stage
            scopes = [t.scope for t in traces]
            scopes += [set()] * (n_steps - len(scopes))
            for it, scope in enumerate(scopes):
                m = precision_recall(scope, truth)
                sums[it][0] += m.precision
                sums[it][1] += m.recall
        for it, (k, l, h) in enumerate(schedule.steps):
            rows.append(
                SweepRow(
                    schedule_id=schedule_id,
                    iteration=it + 1,
                    k=k,
                    l=l,
                    h=h,
                    precision=sums[it][0] / len(held),
                    recall=sums[it][1] / len(held),
                    question_count=len(held),
                )
            )
    return rows


def write_sweep_csv(
    rows: list[SweepRow], path: str | Path, group: str = "default"
) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["group", "schedule_id", "iteration", "k", "l", "h", "precision", "recall"]
        )
        for row in rows:
            writer.writerow(
                [
                    group,
                    row.schedule_id,
                    row.iteration,
                    row.k,
                    row.l,
                    row.h,
                    f"{row.precision:.6f}",
                    f"{row.recall:.6f}",
                ]
            )


def latency_bench(
    chunk_index: ChunkIndex,
    graph: KnowledgeGraph,
    catalog: SchemaCatalog,
    schedule: IterationSchedule,
    config: PipelineConfig,
    questions: list[str],
    repetitions: int = 200,
) -> LatencyReport:
    """End-to-end per-query timings, one query at a time.

    Questions are replayed cyclically until ``repetitions`` samples are
    collected. Per-stage means come from the pipeline's own stage clocks.
    """
    if repetitions < 30:
        raise ValueError("repetitions must be >= 30")
    if not questions:
        raise ValueError("latency bench needs at least one question")

    for q in questions[:WARMUP_QUERIES]:
        _safe_run(q, chunk_index, graph, catalog, schedule, config)

    samples_ms: list[float] = []
    stage_totals_us: dict[str, int] = {}
    for rep in range(repetitions):
        question = questions[rep % len(questions)]
        t0 = time.perf_counter_ns()
        output = _safe_run(question, chunk_index, graph, catalog, schedule, config)
        samples_ms.append((time.perf_counter_ns() - t0) / 1e6)
        if output is not None:
            for stage, us in output.timings.items():
                if stage != "total":
                    stage_totals_us[stage] = stage_totals_us.get(stage, 0) + us
    return latency_report(samples_ms, stage_totals_us)


def _safe_run(
    question: str,
    chunk_index: ChunkIndex,
    graph: KnowledgeGraph,
    catalog: SchemaCatalog,
    schedule: IterationSchedule,
    config: PipelineConfig,
) -> RetrievalOutput | None:
    try:
        return run_pipeline(question, chunk_index, graph, catalog, schedule, config)
    except ScopeCollapsedError:
        return None

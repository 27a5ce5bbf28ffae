import csv
import dataclasses

import pytest

from csr.contextual import build_chunk_index
from csr.evaluation import (
    SweepRow,
    default_sweep_schedules,
    latency_bench,
    run_sweep,
    split_trace,
    write_sweep_csv,
)
from csr.metrics import precision_recall
from csr.pipeline import (
    IterationSchedule,
    PipelineConfig,
    RetrievalOutput,
    ScopeCollapsedError,
    run_pipeline,
)
from csr.sqlrefs import extract_relevant_set
from csr.structural import build_knowledge_graph
from csr.synthetic import GeneratorProfile, generate_synthetic


@pytest.fixture(scope="module")
def small_world():
    catalog, trace = generate_synthetic(
        GeneratorProfile(table_count=20, query_count=60, seed=12)
    )
    config = PipelineConfig(
        similarity=dataclasses.replace(PipelineConfig().similarity, dimension=256)
    )
    return catalog, trace, config


def _reference_sweep(catalog, trace, schedules, config):
    """The sweep's rows from ``run_pipeline``'s stage traces, a collapsed
    scope scoring as an empty prediction from its iteration on, and the
    number of iterations a collapse left unrun."""
    build, held = split_trace(trace)
    index = build_chunk_index(build, catalog, config.similarity)
    graph = build_knowledge_graph(catalog, config.similarity)
    rows, unrun = [], 0
    for schedule_id, schedule in enumerate(schedules):
        sums = [[0.0, 0.0] for _ in schedule.steps]
        for entry in held:
            try:
                traces = run_pipeline(
                    entry["question"], index, graph, catalog, schedule, config
                ).per_stage
            except ScopeCollapsedError as exc:
                traces = exc.per_stage
            unrun += len(schedule.steps) - len(traces)
            scopes = [t.scope for t in traces]
            scopes += [set()] * (len(schedule.steps) - len(scopes))
            truth = extract_relevant_set(entry["sql"], catalog).tables
            for it, scope in enumerate(scopes):
                m = precision_recall(scope, truth)
                sums[it][0] += m.precision
                sums[it][1] += m.recall
        for it, (k, l, h) in enumerate(schedule.steps):
            rows.append(
                SweepRow(
                    schedule_id, it + 1, k, l, h,
                    sums[it][0] / len(held), sums[it][1] / len(held), len(held),
                )
            )
    return rows, unrun


# Intersecting single-item scopes from the second step on collapses three
# held-out questions at step 2, leaving step 3 to score empty predictions.
_SWEEP_CASES = {
    "cosine": ("cosine", default_sweep_schedules(20)),
    "bm25": ("bm25", default_sweep_schedules(20)),
    "collapse": (
        "bm25",
        [
            IterationSchedule(
                steps=((4, 20, 16), (1, 1, 16), (1, 1, 16)),
                scope_combine="intersection",
            )
        ],
    ),
}


def _sweep_case(small_world, case):
    catalog, trace, config = small_world
    metric, schedules = _SWEEP_CASES[case]
    config = dataclasses.replace(
        config, similarity=dataclasses.replace(config.similarity, metric=metric)
    )
    return catalog, trace, schedules, config


class TestSplit:
    def test_round_robin_split(self):
        trace = [{"question": str(i), "sql": "SELECT 1"} for i in range(12)]
        build, held = split_trace(trace, hold_out_every=4)
        assert len(held) == 3
        assert len(build) == 9
        assert [e["question"] for e in held] == ["3", "7", "11"]

    def test_no_overlap(self):
        trace = [{"question": str(i), "sql": "SELECT 1"} for i in range(20)]
        build, held = split_trace(trace)
        build_qs = {e["question"] for e in build}
        held_qs = {e["question"] for e in held}
        assert not build_qs & held_qs

    def test_degenerate_traces_rejected(self):
        with pytest.raises(ValueError):
            split_trace([{"question": "a", "sql": "SELECT 1"}])


class TestSweep:
    def test_one_row_per_iteration(self, small_world):
        catalog, trace, config = small_world
        schedule = IterationSchedule(steps=((4, 20, 16), (2, 10, 16)))
        rows = run_sweep(catalog, trace, [schedule], config)
        assert [(r.schedule_id, r.iteration) for r in rows] == [(0, 1), (0, 2)]
        assert rows[0].question_count == 15

    def test_retrieve_everything_row_has_recall_one(self, small_world):
        catalog, trace, config = small_world
        build, _ = split_trace(trace)
        n_chunks = len(build)
        n_triplets = catalog.column_count
        schedule = IterationSchedule(steps=((n_chunks, n_triplets, 32),))
        rows = run_sweep(catalog, trace, [schedule], config)
        assert rows[0].recall == 1.0

    def test_multiple_schedules_emit_blocks(self, small_world):
        catalog, trace, config = small_world
        schedules = [
            IterationSchedule(steps=((4, 12, 16),)),
            IterationSchedule(steps=((6, 24, 16), (3, 12, 16))),
        ]
        rows = run_sweep(catalog, trace, schedules, config)
        assert [(r.schedule_id, r.iteration) for r in rows] == [
            (0, 1),
            (1, 1),
            (1, 2),
        ]
        for row in rows:
            assert 0.0 <= row.precision <= 1.0
            assert 0.0 <= row.recall <= 1.0

    def test_held_out_questions_are_not_indexed(self, small_world):
        catalog, trace, config = small_world
        build, held = split_trace(trace)
        index = build_chunk_index(build, catalog, config.similarity)
        indexed_questions = {c.question for c in index.chunks}
        # Group variants share tables but every held-out chunk itself (its
        # question/sql pair) stays out of the index.
        for entry in held:
            assert (entry["question"], entry["sql"]) not in {
                (c.question, c.sql) for c in index.chunks
            }

    @pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
    def test_rows_equal_run_pipeline_stage_traces(self, small_world, case):
        catalog, trace, schedules, config = _sweep_case(small_world, case)
        expected, unrun = _reference_sweep(catalog, trace, schedules, config)
        assert run_sweep(catalog, trace, schedules, config) == expected
        if case == "collapse":
            assert unrun > 0

    @pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
    def test_rows_need_no_ranking(self, small_world, case, monkeypatch):
        catalog, trace, schedules, config = _sweep_case(small_world, case)
        expected = run_sweep(catalog, trace, schedules, config)

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep ranked join candidates")

        import csr.pipeline as pipeline_module

        monkeypatch.setattr(pipeline_module, "build_hypergraph", refuse)
        monkeypatch.setattr(pipeline_module, "hypergraph_rank", refuse)
        assert run_sweep(catalog, trace, schedules, config) == expected

    def test_default_sweep_schedules_are_valid(self):
        for size in (1, 12, 50, 100, 246):
            schedules = default_sweep_schedules(size)
            assert len(schedules) == 3
            for schedule in schedules:
                assert len(schedule.steps) == 3


class TestCsv:
    def test_header_and_rows(self, small_world, tmp_path):
        catalog, trace, config = small_world
        schedule = IterationSchedule(steps=((4, 20, 16), (2, 10, 16)))
        rows = run_sweep(catalog, trace, [schedule], config)
        out = tmp_path / "results.csv"
        write_sweep_csv(rows, out, group="g20")
        with open(out, newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == [
            "group",
            "schedule_id",
            "iteration",
            "k",
            "l",
            "h",
            "precision",
            "recall",
        ]
        assert len(records) == 1 + len(rows)
        assert records[1][0] == "g20"


class TestLatencyBench:
    def test_constant_time_stub_collapses_percentiles(self, small_world, monkeypatch):
        catalog, trace, config = small_world
        stub_output = RetrievalOutput(
            entities=[],
            tables=set(),
            per_stage=[],
            timings={"contextual": 100, "structural": 100, "relational": 50},
        )
        import csr.evaluation as evaluation_module

        monkeypatch.setattr(
            evaluation_module, "run_pipeline", lambda *a, **kw: stub_output
        )
        report = latency_bench(
            None, None, catalog, IterationSchedule(steps=((1, 1, 1),)), config,
            ["q1", "q2"], repetitions=50,
        )
        assert report.sample_count == 50
        # A constant-work stub leaves only timer jitter between percentiles.
        assert report.p99 - report.p50 < 5.0
        assert report.per_stage_means["contextual"] == pytest.approx(0.1)

    def test_real_bench_produces_ordered_report(self, small_world):
        catalog, trace, config = small_world
        build, held = split_trace(trace)
        index = build_chunk_index(build, catalog, config.similarity)
        graph = build_knowledge_graph(catalog, config.similarity)
        schedule = IterationSchedule(steps=((4, 20, 16), (2, 10, 16)))
        report = latency_bench(
            index, graph, catalog, schedule, config,
            [e["question"] for e in held], repetitions=30,
        )
        assert report.p50 <= report.p90 <= report.p99
        assert report.mean > 0
        assert set(report.per_stage_means) == {
            "contextual",
            "structural",
            "relational",
        }

    def test_repetition_floor(self, small_world):
        catalog, trace, config = small_world
        with pytest.raises(ValueError):
            latency_bench(
                None, None, catalog, IterationSchedule(steps=((1, 1, 1),)), config,
                ["q"], repetitions=10,
            )

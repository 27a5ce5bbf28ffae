"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion. Every tolerance is pinned here; nothing is deferred to
runtime calibration.
"""

import json
import math
import random
import statistics
import time

import pytest

from csr.catalog import catalog_stats
from csr.contextual import build_chunk_index, retrieve_contextual
from csr.evaluation import (
    default_sweep_schedules,
    latency_bench,
    run_sweep,
    split_trace,
)
from csr.metrics import nearest_rank_percentile, precision_recall
from csr.pipeline import (
    IterationSchedule,
    PipelineConfig,
    build_query_response,
    run_pipeline,
)
from csr.relational import Hyperedge, Hypergraph, RankingConfig, build_hypergraph, hypergraph_rank
from csr.similarity import SimilarityConfig
from csr.sqlrefs import extract_relevant_set
from csr.structural import build_knowledge_graph, retrieve_structural
from csr.synthetic import GeneratorProfile, build_group_catalog, generate_synthetic

from test_contextual import contextual_oracle
from test_relational import ranking_transcription
from test_structural import structural_oracle

QUESTION_VOCAB = (
    "amount status code owner total count customer order detail price "
    "region quantity balance category carrier shipment id key"
).split()


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {status}: {name}{suffix}")
    assert passed, f"criterion {number} failed: {name} {suffix}"


def _random_worlds(count: int, base_seed: int):
    """Small catalogs (<= 20 tables) with chunk stores (<= 32 chunks)."""
    worlds = []
    config = SimilarityConfig(dimension=128)
    for i in range(count):
        rng = random.Random(base_seed + i)
        profile = GeneratorProfile(
            table_count=rng.randint(4, 20),
            query_count=rng.randint(8, 32),
            variants_per_group=rng.choice([2, 4]),
            seed=base_seed + 100 + i,
        )
        catalog, trace = generate_synthetic(profile)
        index = build_chunk_index(trace, catalog, config)
        graph = build_knowledge_graph(catalog, config)
        worlds.append((catalog, trace, index, graph, rng))
    return worlds


def _random_question(rng: random.Random, trace) -> str:
    if rng.random() < 0.4:
        return rng.choice(trace)["question"]
    return " ".join(rng.choices(QUESTION_VOCAB, k=rng.randint(1, 6)))


def test_criterion_1_oracle_equivalence():
    """Retrieval and ranking match exhaustive brute-force oracles exactly."""
    started = time.perf_counter()
    sim = SimilarityConfig(dimension=128)
    cases = {"contextual": 0, "structural": 0, "rank": 0}
    worlds = _random_worlds(12, base_seed=500)
    for catalog, trace, index, graph, rng in worlds:
        table_ids = sorted(catalog.all_table_ids())
        for _ in range(45):
            question = _random_question(rng, trace)
            scope = (
                None
                if rng.random() < 0.5
                else set(rng.sample(table_ids, rng.randint(1, len(table_ids))))
            )

            k = rng.randint(1, len(index) + 2)
            got = retrieve_contextual(index, question, k)
            want_ranked, want_tables = contextual_oracle(index, question, k)
            assert got.ranked_chunks == want_ranked
            assert got.tables == want_tables
            cases["contextual"] += 1

            l = rng.randint(1, len(graph) + 2)
            got_s = retrieve_structural(graph, question, l, scope)
            want_ranked_s, want_tables_s = structural_oracle(graph, question, l, scope)
            assert got_s.ranked_triplets == want_ranked_s
            assert got_s.tables == want_tables_s
            cases["structural"] += 1

            rank_scope = scope or set(table_ids)
            config = RankingConfig(h=rng.randint(1, 24))
            hypergraph = build_hypergraph(rank_scope, catalog, config)
            entities = hypergraph_rank(hypergraph, question, config, sim, catalog)
            expected = ranking_transcription(hypergraph, question, config, sim, catalog)
            assert [
                (e.table, e.column, e.surface, e.score) for e in entities
            ] == expected
            cases["rank"] += 1
    elapsed = time.perf_counter() - started
    ok = all(v >= 500 for v in cases.values()) and elapsed < 60.0
    _report(
        1,
        "oracle equivalence",
        ok,
        f"{cases} cases in {elapsed:.1f}s",
    )


def test_criterion_2_ranking_fidelity():
    """Ranking equals the line-by-line transcription on 1000 hypergraphs."""
    sim = SimilarityConfig(dimension=128)
    catalog, trace = generate_synthetic(
        GeneratorProfile(table_count=12, query_count=16, seed=77)
    )
    rng = random.Random(7001)
    checked = 0
    zero_weight_seen = 0
    unavailable_seen = 0
    for _ in range(1000):
        scope = set(rng.sample(range(12), rng.randint(1, 12)))
        weights = {t: rng.choice([0.0, 0.5, 1.0, 2.0, 4.0]) for t in scope}
        availability = {t: rng.random() > 0.3 for t in scope}
        edges = []
        for tid in sorted(scope):
            cols = catalog.table(tid).columns
            chosen = rng.sample(cols, rng.randint(1, min(4, len(cols))))
            edges.append(
                Hyperedge(
                    key=chosen[0].name.lower(),
                    members=tuple(sorted((tid, c.id) for c in chosen)),
                )
            )
        hypergraph = Hypergraph(
            nodes=scope, hyperedges=edges, weights=weights, availability=availability
        )
        config = RankingConfig(
            h=rng.randint(1, 16),
            operator=rng.choice(["concat_names", "concat_with_descriptions"]),
        )
        question = _random_question(rng, trace)
        entities = hypergraph_rank(hypergraph, question, config, sim, catalog)
        expected = ranking_transcription(hypergraph, question, config, sim, catalog)
        assert [(e.table, e.column, e.surface, e.score) for e in entities] == expected
        for e in entities:
            if weights[e.table] == 0.0:
                assert e.score == 0.0
                zero_weight_seen += 1
            assert availability[e.table]
        unavailable_seen += sum(1 for t in scope if not availability[t])
        checked += 1
    ok = checked == 1000 and zero_weight_seen > 0 and unavailable_seen > 0
    _report(2, "ranking transcription fidelity", ok, f"{checked} hypergraphs")


def test_criterion_3_structural_counts():
    """Triplet counts equal column counts on the four reference sizes."""
    sizes = [(50, 701), (100, 1486), (200, 2567), (246, 3021)]
    sim = SimilarityConfig(dimension=128)
    results = []
    for tables, columns in sizes:
        catalog = build_group_catalog(tables, columns)
        graph = build_knowledge_graph(catalog, sim)
        results.append(len(graph) == columns == catalog.column_count)
    _report(3, "knowledge-graph triplet counts", all(results), f"sizes={sizes}")


def test_criterion_4_pipeline_monotonicity():
    """Scope chains shrink and retrieve-everything recall is 1.0."""
    config = PipelineConfig(similarity=SimilarityConfig(dimension=128))
    worlds = _random_worlds(4, base_seed=900)
    questions_checked = 0
    for catalog, trace, index, graph, rng in worlds:
        n_chunks, n_triplets = len(index), len(graph)
        everything = IterationSchedule(steps=((n_chunks, n_triplets, 64),))
        for _ in range(55):
            question = _random_question(rng, trace)
            k1 = rng.randint(2, max(2, n_chunks))
            l1 = rng.randint(2, max(2, n_triplets))
            steps = [(k1, l1, 8)]
            for _ in range(rng.randint(1, 2)):
                prev_k, prev_l, _ = steps[-1]
                steps.append(
                    (rng.randint(1, prev_k), rng.randint(1, prev_l), 8)
                )
            schedule = IterationSchedule(steps=tuple(steps))
            output = run_pipeline(question, index, graph, catalog, schedule, config)
            scopes = [s.scope for s in output.per_stage]
            for earlier, later in zip(scopes, scopes[1:]):
                assert later <= earlier
            questions_checked += 1
        for entry in trace[:10]:
            truth = extract_relevant_set(entry["sql"], catalog).tables
            output = run_pipeline(
                entry["question"], index, graph, catalog, everything, config
            )
            m = precision_recall(output.per_stage[-1].scope, truth)
            assert m.recall == 1.0
    _report(4, "pipeline scope monotonicity", questions_checked >= 200,
            f"{questions_checked} random questions")


def test_criterion_5_generator_calibration():
    """Frozen-seed workload matches the quoted enterprise statistics."""
    started = time.perf_counter()
    profile = GeneratorProfile()  # 500 queries, frozen default seed
    catalog, trace = generate_synthetic(profile)
    sizes = [len(extract_relevant_set(e["sql"], catalog).tables) for e in trace]
    elapsed = time.perf_counter() - started
    p_ge7 = sum(1 for s in sizes if s >= 7) / len(sizes)
    stddev = statistics.pstdev(sizes)
    fk_median = catalog_stats(catalog).median_fk_per_table
    ok = (
        abs(p_ge7 - 0.25) <= 0.05
        and abs(stddev - 3.3) <= 0.4
        and fk_median >= 7
        and elapsed < 30.0
        and len(trace) == 500
    )
    _report(
        5,
        "synthetic generator calibration",
        ok,
        f"P(>=7)={p_ge7:.3f}, stddev={stddev:.2f}, fk_median={fk_median}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_quality_envelope():
    """One swept schedule reaches recall >= 0.75 with precision >= 0.35 and
    improves precision across iterations on the frozen benchmark."""
    catalog, trace = generate_synthetic(GeneratorProfile())  # 100-table scale
    config = PipelineConfig()
    schedules = default_sweep_schedules(len(catalog.tables))
    rows = run_sweep(catalog, trace, schedules, config)
    winners = []
    improved_count = 0
    for sid in range(len(schedules)):
        sched_rows = [r for r in rows if r.schedule_id == sid]
        first, final = sched_rows[0], sched_rows[-1]
        if final.precision > first.precision:
            improved_count += 1
        if (
            final.recall >= 0.75
            and final.precision >= 0.35
            and final.precision > first.precision
        ):
            winners.append((sid, round(final.precision, 3), round(final.recall, 3)))
    ok = bool(winners) and improved_count >= 2
    _report(
        6,
        "quality envelope on frozen benchmark",
        ok,
        f"winners={winners}, precision improved on {improved_count}/3 schedules",
    )


def test_criterion_7_latency():
    """Group-4-scale end-to-end latency: p50 <= 50ms, p99 <= 150ms."""
    catalog, trace = generate_synthetic(GeneratorProfile(table_count=246))
    config = PipelineConfig()
    build, held = split_trace(trace)
    index = build_chunk_index(build, catalog, config.similarity)
    graph = build_knowledge_graph(catalog, config.similarity)
    from csr.pipeline import default_schedule

    schedule = default_schedule(len(catalog.tables))
    report = latency_bench(
        index,
        graph,
        catalog,
        schedule,
        config,
        [e["question"] for e in held],
        repetitions=200,
    )
    detail = (
        f"p50={report.p50:.1f}ms p99={report.p99:.1f}ms mean={report.mean:.1f}ms, "
        f"stages(ms)={ {k: round(v, 1) for k, v in report.per_stage_means.items()} }"
    )
    ok = (
        report.p50 <= 50.0
        and report.p99 <= 150.0
        and report.sample_count >= 200
        and catalog.column_count >= 2600
    )
    _report(7, "retrieval latency at 246-table scale", ok, detail)


def test_criterion_8_metric_exactness():
    """Hand-computable metric cases and percentile full-sort oracle."""
    checks = [
        precision_recall({1, 2}, {1, 2}) == precision_recall({1, 2}, {1, 2}),
        precision_recall({1, 2, 3, 4}, {1, 2}).precision == 0.5,
        precision_recall({1, 2, 3, 4}, {1, 2}).recall == 1.0,
        precision_recall(set(), {1}).precision == 0.0,
        precision_recall(set(), {1}).recall == 0.0,
        precision_recall(set(), set()).precision == 1.0,
        precision_recall(set(), set()).recall == 1.0,
        precision_recall({1}, set()).precision == 0.0,
        precision_recall({1}, set()).recall == 0.0,
        precision_recall({2, 3}, {3, 4}).precision == 0.5,
        precision_recall({2, 3}, {3, 4}).recall == 0.5,
    ]
    rng = random.Random(4242)
    percentile_ok = True
    for n in (1, 3, 17, 100, 333):
        samples = [rng.uniform(0, 1000) for _ in range(n)]
        ordered = sorted(samples)
        for p in (50, 90, 99, 1, 100, 62.3):
            rank = max(1, math.ceil(p / 100 * n))
            if nearest_rank_percentile(samples, p) != ordered[rank - 1]:
                percentile_ok = False
    _report(8, "metric exactness", all(checks) and percentile_ok)


def test_criterion_9_determinism_and_parallel_equivalence():
    """Canonical outputs byte-identical across three runs per question."""
    catalog, trace = generate_synthetic(
        GeneratorProfile(table_count=25, query_count=60, seed=33)
    )
    config = PipelineConfig(similarity=SimilarityConfig(dimension=256))
    index = build_chunk_index(trace, catalog, config.similarity)
    graph = build_knowledge_graph(catalog, config.similarity)
    schedule = IterationSchedule(steps=((6, 30, 16), (3, 12, 16)))
    rng = random.Random(9119)
    checked = 0
    for _ in range(100):
        question = _random_question(rng, trace)
        payloads = set()
        for _run in range(3):
            output = run_pipeline(question, index, graph, catalog, schedule, config)
            payloads.add(
                json.dumps(build_query_response(output, catalog, "v"), sort_keys=True)
            )
        assert len(payloads) == 1, f"divergent outputs for {question!r}"
        checked += 1
    _report(9, "determinism", checked == 100,
            f"{checked} questions x3 runs")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))

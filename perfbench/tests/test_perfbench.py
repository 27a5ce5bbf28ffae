"""Tests of the benchmark's own code, on small generated catalogs.

Run from the repository root: ``python -m pytest -q perfbench/tests``.
"""

import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pytest  # noqa: E402

from csr import contextual, relational, similarity, structural  # noqa: E402
from csr.metrics import nearest_rank_percentile  # noqa: E402
from csr.pipeline import run_pipeline  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.Workload("small-cosine", 30, 48, "cosine")
SMALL_BM25 = workloads.Workload("small-bm25", 30, 48, "bm25")
SMALL_SERVE = workloads.Workload("small-serve", 30, 48, "cosine", serve=True)


def index_for(workload, seed, tmp_path):
    catalog, build, held = workloads.make_inputs(workload, seed)
    config = workloads.PipelineConfig(
        similarity=workloads.SimilarityConfig(metric=workload.metric)
    )
    tracer = tracing.Tracer()
    workloads.build_and_save(catalog, build, config, tmp_path, tracer)
    ix = workloads.load(tmp_path, tracer)
    return ix, held, workloads.make_requests(workload, catalog, held)


def test_percentile_agrees_with_nearest_rank_percentile():
    rng = random.Random(7)
    for n in (1, 2, 3, 10, 99, 100, 101, 1000):
        samples = [rng.random() * 100 for _ in range(n)]
        for p in (0.1, 1, 25, 50, 90, 99, 99.9, 100):
            assert workloads.percentile(samples, p) == nearest_rank_percentile(samples, p)
    with pytest.raises(ValueError):
        workloads.percentile([], 50)


def test_same_seed_gives_same_digest(tmp_path):
    digests = []
    for run in range(2):
        ix, _, requests = index_for(SMALL, 11, tmp_path / f"run{run}")
        answers = workloads.Answers(ix, requests)
        parts = [workloads.canonical(answers.body(pos)) for pos in range(len(requests))]
        assert answers.failures.count == 0, answers.failures.reasons
        digests.append(workloads.digest(parts))
    assert digests[0] == digests[1]
    ix, _, requests = index_for(SMALL, 12, tmp_path / "other")
    answers = workloads.Answers(ix, requests)
    other = workloads.digest(
        [workloads.canonical(answers.body(pos)) for pos in range(len(requests))]
    )
    assert other != digests[0]


def test_canonical_ignores_last_bit_score_changes_only():
    doc = {
        "entities": [{"entity": "t.a", "score": 0.7321}, {"entity": "t.b", "score": 0.5}],
        "tables": ["t"],
        "schema_version": "v",
    }
    body = json.dumps(doc).encode()
    doc["entities"][0]["score"] = math.nextafter(0.7321, 1.0)
    assert json.dumps(doc).encode() != body
    assert workloads.canonical(json.dumps(doc).encode()) == workloads.canonical(body)
    doc["entities"][0]["score"] = 0.7322
    assert workloads.canonical(json.dumps(doc).encode()) != workloads.canonical(body)
    doc["entities"][0]["score"] = 0.7321
    doc["entities"].reverse()
    assert workloads.canonical(json.dumps(doc).encode()) != workloads.canonical(body)


@pytest.mark.parametrize("workload", [SMALL, SMALL_BM25, SMALL_SERVE])
def test_replay_equals_run_pipeline(workload, tmp_path):
    ix, _, requests = index_for(workload, 5, tmp_path)
    valid = [r for r in requests if not r.invalid]
    schedules = [workloads.schedule_for(ix, r) for r in valid]
    expected = [
        run_pipeline(r.question, ix.chunk_index, ix.graph, ix.catalog, s, ix.config)
        for r, s in zip(valid, schedules)
    ]
    tracer = tracing.Tracer()
    originals = (similarity.tokenize, contextual.embed, relational.embed_batch)
    with tracing.instrumented(tracer):
        assert similarity.tokenize is not originals[0]
        for query, (request, schedule, want) in enumerate(zip(valid, schedules, expected)):
            tracer.query = query
            replayed = tracing.replay(
                request.question, ix.chunk_index, ix.graph, ix.catalog, schedule,
                ix.config, tracer,
            )
            assert replayed.entities == want.entities
            assert replayed.tables == want.tables
    assert (similarity.tokenize, contextual.embed, relational.embed_batch) == originals
    assert structural.top_k_exact is tracing.structural.top_k_exact

    steps = len(ix.schedule.steps)
    counts = tracer.per_query_count("topk.calls", [0])
    assert counts == [2 * steps]
    embeds = tracer.per_query_count("similarity.question_embeds", [0])
    assert embeds == ([0] if workload.metric == "bm25" else [2 * steps + 1])
    assert all(s.end_ns >= s.start_ns for s in tracer.spans)


def test_traced_replay_checks_against_run_pipeline(tmp_path):
    ix, _, requests = index_for(SMALL_SERVE, 5, tmp_path)
    answers = workloads.Answers(ix, requests)
    tracer, traced, untraced, positions, attempted = workloads.traced_replay(answers, 0.5)
    assert attempted >= 2 and traced and untraced and answers.failures.count == 0
    assert len(positions) == len(traced)
    metrics = workloads.layer_metrics(tracer, positions, answers)
    assert metrics["topk.calls"] == 2 * len(ix.schedule.steps)
    assert metrics["contextual.chunks_scored"] > 0


def test_serve_mix_has_every_request_kind():
    catalog, _, held = workloads.make_inputs(workloads.WORKLOADS["serve-246"], 3)
    requests = workloads.make_requests(workloads.WORKLOADS["serve-246"], catalog, held)
    kinds = {r.kind for r in requests}
    assert kinds == {"plain", "schedule_override", "max_entities", "invalid"}
    assert [r.question_pos for r in requests if not r.invalid] == list(range(len(held)))

import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from csr import contextual, relational, structural
from csr.catalog import load_catalog

from csr.contextual import build_chunk_index, retrieve_contextual
from csr.pipeline import (
    IterationSchedule,
    PipelineConfig,
    ScopeCollapsedError,
    build_query_response,
    default_schedule,
    narrow,
    run_pipeline,
)
from csr.relational import build_hypergraph, hypergraph_rank
from csr.similarity import Corpus, SimilarityConfig
from csr.structural import build_knowledge_graph, retrieve_structural
from csr.synthetic import GeneratorProfile, generate_synthetic

from conftest import SHOP_DOCUMENT, SHOP_TRACE, counted


@pytest.fixture(scope="module")
def shop_pipeline(shop_catalog):
    config = PipelineConfig(
        similarity=dataclasses.replace(PipelineConfig().similarity, dimension=128)
    )
    index = build_chunk_index(SHOP_TRACE, shop_catalog, config.similarity)
    graph = build_knowledge_graph(shop_catalog, config.similarity)
    return index, graph, config


class TestSchedule:
    def test_requires_steps(self):
        with pytest.raises(ValueError):
            IterationSchedule(steps=())

    def test_k_and_l_must_not_increase(self):
        with pytest.raises(ValueError, match="k values"):
            IterationSchedule(steps=((2, 8, 4), (4, 8, 4)))
        with pytest.raises(ValueError, match="l values"):
            IterationSchedule(steps=((4, 4, 4), (4, 8, 4)))

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            IterationSchedule(steps=((0, 1, 1),))

    @pytest.mark.parametrize(
        "step",
        [(True, 2, 2), (2, False, 2), (2.0, 2, 2), (2, 2, "2"), (2, 2), (2, 2, 2, 2)],
    )
    def test_steps_must_be_three_integers(self, step):
        with pytest.raises(ValueError, match="three integers"):
            IterationSchedule(steps=(step,))
        with pytest.raises(ValueError, match="three integers"):
            IterationSchedule.from_dict({"steps": [list(step)]})

    def test_combine_enum(self):
        with pytest.raises(ValueError):
            IterationSchedule(steps=((1, 1, 1),), scope_combine="xor")

    def test_round_trips_dict(self):
        schedule = IterationSchedule(
            steps=((4, 8, 6), (2, 4, 4)), scope_combine="intersection"
        )
        assert IterationSchedule.from_dict(schedule.to_dict()) == schedule


class TestRunPipeline:
    def test_single_step_equals_manual_composition(self, shop_catalog, shop_pipeline):
        index, graph, config = shop_pipeline
        question = "which customers placed open orders"
        k, l, h = 3, 10, 6
        schedule = IterationSchedule(steps=((k, l, h),))
        output = run_pipeline(question, index, graph, shop_catalog, schedule, config)

        ctx = retrieve_contextual(index, question, k, None, "intersect")
        stru = retrieve_structural(graph, question, l, None)
        scope = ctx.tables | stru.tables
        hg = build_hypergraph(scope, shop_catalog, config.ranking)
        entities = hypergraph_rank(
            hg,
            question,
            dataclasses.replace(config.ranking, h=h),
            config.similarity,
            shop_catalog,
        )
        assert [(e.table, e.column, e.score) for e in output.entities] == [
            (e.table, e.column, e.score) for e in entities
        ]
        assert output.per_stage[0].contextual_tables == ctx.tables
        assert output.per_stage[0].structural_tables == stru.tables
        assert output.per_stage[0].scope == scope
        assert output.tables == {e.table for e in entities}

    def test_two_step_scope_chain(self, shop_catalog, shop_pipeline):
        index, graph, config = shop_pipeline
        schedule = IterationSchedule(steps=((4, 12, 6), (2, 6, 4)))
        output = run_pipeline(
            "orders shipped to west region customers",
            index,
            graph,
            shop_catalog,
            schedule,
            config,
        )
        assert output.per_stage[1].scope <= output.per_stage[0].scope
        assert len(output.entities) <= 4

    def test_retrieve_everything_has_full_recall(self, shop_catalog, shop_pipeline):
        index, graph, config = shop_pipeline
        schedule = IterationSchedule(steps=((len(index), len(graph), 100),))
        output = run_pipeline(
            "anything", index, graph, shop_catalog, schedule, config
        )
        assert output.per_stage[-1].scope == shop_catalog.all_table_ids()

    def test_scope_collapse_reports_step(self, shop_catalog, shop_pipeline):
        index, graph, config = shop_pipeline
        # Intersection of contextual tables (driven by chunk SQL) with a
        # structural candidate from an unrelated table empties the scope.
        schedule = IterationSchedule(
            steps=((1, 1, 4),), scope_combine="intersection"
        )
        # "category" appears in no chunk text, so contextual falls back to
        # the lowest-id chunk (customers/orders) while structural pinpoints
        # products.category; the intersection is empty.
        with pytest.raises(ScopeCollapsedError) as err:
            run_pipeline(
                "category",
                index,
                graph,
                shop_catalog,
                schedule,
                config,
            )
        assert err.value.step == 1
        assert len(err.value.per_stage) == 1
        assert err.value.per_stage[0].scope == set()

    def test_timings_recorded(self, shop_catalog, shop_pipeline):
        index, graph, config = shop_pipeline
        output = run_pipeline(
            "orders",
            index,
            graph,
            shop_catalog,
            IterationSchedule(steps=((2, 4, 4),)),
            config,
        )
        assert set(output.timings) == {"contextual", "structural", "relational", "total"}
        assert all(v >= 0 for v in output.timings.values())

    def test_unavailable_tables_excluded_from_entities(
        self, shop_catalog, shop_pipeline
    ):
        index, graph, _ = shop_pipeline
        config = PipelineConfig(
            similarity=index.corpus.config, unavailable_tables=("orders",)
        )
        schedule = IterationSchedule(steps=((5, 24, 50),))
        output = run_pipeline(
            "customer orders", index, graph, shop_catalog, schedule, config
        )
        from csr.catalog import lookup_table

        orders = lookup_table(shop_catalog, "orders")
        assert all(e.table != orders for e in output.entities)


class TestNarrow:
    @pytest.mark.parametrize("scope_mode", ["intersect", "filter_chunks"])
    def test_traces_equal_run_pipeline_stage_traces(
        self, shop_catalog, shop_pipeline, scope_mode
    ):
        index, graph, config = shop_pipeline
        config = dataclasses.replace(config, contextual_scope_mode=scope_mode)
        schedule = IterationSchedule(steps=((4, 12, 6), (2, 6, 4), (1, 3, 4)))
        for question in [entry["question"] for entry in SHOP_TRACE] + ["category"]:
            traces = narrow(question, index, graph, schedule, scope_mode)
            output = run_pipeline(question, index, graph, shop_catalog, schedule, config)
            assert traces == output.per_stage
            assert [t.iteration for t in traces] == [1, 2, 3]

    def test_collapse_raises_like_run_pipeline(self, shop_catalog, shop_pipeline):
        index, graph, config = shop_pipeline
        schedule = IterationSchedule(
            steps=((4, 12, 4), (1, 1, 4)), scope_combine="intersection"
        )
        with pytest.raises(ScopeCollapsedError) as narrowed:
            narrow("category", index, graph, schedule, "intersect")
        with pytest.raises(ScopeCollapsedError) as ran:
            run_pipeline("category", index, graph, shop_catalog, schedule, config)
        assert narrowed.value.step == ran.value.step
        assert narrowed.value.per_stage == ran.value.per_stage
        assert narrowed.value.per_stage[-1].scope == set()

    def test_stage_timings_sum_the_iteration_clocks(self, shop_catalog, shop_pipeline):
        index, graph, config = shop_pipeline
        schedule = IterationSchedule(steps=((4, 12, 6), (2, 6, 4)))
        output = run_pipeline("orders", index, graph, shop_catalog, schedule, config)
        for stage in ("contextual", "structural"):
            clocks = [getattr(t, f"{stage}_us") for t in output.per_stage]
            assert output.timings[stage] == sum(clocks)
            assert all(us >= 0 for us in clocks)


@pytest.fixture(scope="module")
def generated_inputs():
    return generate_synthetic(GeneratorProfile(table_count=60, query_count=80, seed=21))


class TestScoreReuse:
    """Each narrowing corpus scores the question once per query; the later
    iterations select from that score array."""

    @pytest.mark.parametrize("metric", ["cosine", "bm25"])
    def test_one_embedding_and_one_score_per_corpus(
        self, generated_inputs, monkeypatch, metric
    ):
        catalog, trace = generated_inputs
        config = PipelineConfig(similarity=SimilarityConfig(metric=metric))
        index = build_chunk_index(trace, catalog, config.similarity)
        graph = build_knowledge_graph(catalog, config.similarity)
        embedded, scored = [], []
        for module in (contextual, structural, relational):
            monkeypatch.setattr(module, "embed", counted(module.embed, embedded))
        monkeypatch.setattr(Corpus, "score", counted(Corpus.score, scored))
        schedule = default_schedule(len(catalog.tables))
        assert len(schedule.steps) == 3
        run_pipeline(trace[3]["question"], index, graph, catalog, schedule, config)
        # One question embedding each for the chunks, triplets and entities.
        assert len(embedded) == (3 if metric == "cosine" else 0)
        assert scored.count(index.corpus) == 1
        assert scored.count(graph.corpus) == 1

    @pytest.mark.parametrize("metric", ["cosine", "bm25"])
    @pytest.mark.parametrize("scope_mode", ["intersect", "filter_chunks"])
    @pytest.mark.parametrize("combine", ["union", "intersection"])
    def test_narrow_equals_fresh_retrieval_each_iteration(
        self, generated_inputs, metric, scope_mode, combine
    ):
        catalog, trace = generated_inputs
        sim = SimilarityConfig(metric=metric)
        index = build_chunk_index(trace, catalog, sim)
        graph = build_knowledge_graph(catalog, sim)
        schedule = IterationSchedule(
            steps=((12, 60, 8), (6, 20, 8), (3, 8, 8)), scope_combine=combine
        )
        completed = 0
        for entry in trace[3::8]:
            question = entry["question"]
            try:
                traces = narrow(question, index, graph, schedule, scope_mode)
                completed += 1
            except ScopeCollapsedError as exc:
                traces = exc.per_stage
            fresh, scope = [], None
            for k, l, _h in schedule.steps[: len(traces)]:
                ctx = retrieve_contextual(index, question, k, scope, scope_mode)
                stru = retrieve_structural(graph, question, l, scope)
                if scope is None:
                    ctx_scores, stru_scores = ctx.scores, stru.scores
                # The first call's scores, passed back, give the fresh result.
                assert ctx == retrieve_contextual(
                    index, question, k, scope, scope_mode, ctx_scores
                )
                assert stru == retrieve_structural(
                    graph, question, l, scope, stru_scores
                )
                if combine == "intersection":
                    scope = ctx.tables & stru.tables
                else:
                    scope = ctx.tables | stru.tables
                fresh.append((ctx.tables, stru.tables, scope))
            assert [
                (t.contextual_tables, t.structural_tables, t.scope) for t in traces
            ] == fresh
        assert completed > 0


class TestPipelineConfig:
    def test_full_round_trip(self):
        config = PipelineConfig(
            similarity=SimilarityConfig(
                embedder="external",
                dimension=128,
                external_endpoint="http://127.0.0.1:9/embed",
                external_timeout=5.0,
            ),
            schedule=IterationSchedule(steps=((4, 8, 6), (2, 4, 4))),
            contextual_scope_mode="filter_chunks",
            unavailable_tables=("orders", "shipments"),
        )
        restored = PipelineConfig.from_dict(config.to_dict())
        assert restored.schedule == config.schedule
        assert restored.contextual_scope_mode == "filter_chunks"
        assert restored.unavailable_tables == ("orders", "shipments")
        assert restored.similarity == config.similarity

    def test_loads_from_file(self, tmp_path):
        import json

        from csr.pipeline import load_pipeline_config

        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "similarity": {"dimension": 256, "metric": "bm25"},
                    "schedule": {"steps": [[8, 16, 8]]},
                }
            )
        )
        config = load_pipeline_config(path)
        assert config.similarity.metric == "bm25"
        assert config.schedule.steps == ((8, 16, 8),)


    def test_ranking_h_is_rejected_and_not_written(self):
        # Ranking takes h from the last schedule step, so a config's h is
        # refused rather than silently ignored, and no ranking section is
        # written.
        with pytest.raises(ValueError, match="h is set per schedule step"):
            PipelineConfig.from_dict({"ranking": {"h": 2}})
        config = PipelineConfig.from_dict({"ranking": {}})
        doc = config.to_dict()
        assert "ranking" not in doc
        assert PipelineConfig.from_dict(doc).ranking == config.ranking


class TestDefaultSchedule:
    def test_three_non_increasing_steps(self):
        schedule = default_schedule(50)
        assert len(schedule.steps) == 3
        ks = [s[0] for s in schedule.steps]
        assert ks == sorted(ks, reverse=True)

    def test_tiny_catalog_clamps(self):
        schedule = default_schedule(1)
        for k, l, h in schedule.steps:
            assert k >= 1 and l >= 1 and h >= 1

    def test_monotone_in_catalog_size(self):
        small = default_schedule(50)
        large = default_schedule(246)
        assert large.steps[0][0] >= small.steps[0][0]
        assert large.steps[0][1] >= small.steps[0][1]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            default_schedule(0)


class TestQueryResponse:
    def test_payload_shape_and_determinism(self, shop_catalog, shop_pipeline):
        index, graph, config = shop_pipeline
        schedule = IterationSchedule(steps=((3, 8, 5),))
        out1 = run_pipeline(
            "customer order totals", index, graph, shop_catalog, schedule, config
        )
        out2 = run_pipeline(
            "customer order totals", index, graph, shop_catalog, schedule, config
        )
        p1 = build_query_response(out1, shop_catalog, "v1")
        p2 = build_query_response(out2, shop_catalog, "v1")
        assert p1 == p2
        assert "stage_timings_ms" not in p1
        assert p1["schema_version"] == "v1"
        for entry in p1["entities"]:
            table_name, col_name = entry["entity"].split(".")
            assert table_name in p1["tables"] or table_name  # resolvable names
        timed = build_query_response(out1, shop_catalog, "v1", include_timings=True)
        assert set(timed["stage_timings_ms"]) == {
            "contextual",
            "structural",
            "relational",
            "total",
        }


@pytest.mark.parametrize("metric", ["cosine", "bm25"])
def test_concurrent_queries_on_a_fresh_catalog_match_sequential(metric):
    """Request threads share the corpora and fill the catalog's entity cache
    together; every answer must still equal the one-thread answer."""
    config = PipelineConfig(similarity=SimilarityConfig(metric=metric, dimension=128))
    schedule = IterationSchedule(steps=((4, 12, 8), (2, 6, 8)))
    questions = [e["question"] for e in SHOP_TRACE] * 6

    def world():
        catalog = load_catalog(SHOP_DOCUMENT)  # empty entity cache
        index = build_chunk_index(SHOP_TRACE, catalog, config.similarity)
        graph = build_knowledge_graph(catalog, config.similarity)
        return lambda q: json.dumps(
            build_query_response(
                run_pipeline(q, index, graph, catalog, schedule, config), catalog, "v"
            )
        )

    answer = world()
    expected = [answer(q) for q in questions]
    answer = world()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(answer, q) for q in questions]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected

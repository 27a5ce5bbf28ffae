import random

import numpy as np
import pytest

from csr.similarity import (
    SimilarityConfig,
    bm25_score,
    cosine_sim,
    embed,
    embed_batch,
)
from csr.structural import (
    build_knowledge_graph,
    retrieve_structural,
    triplet_surface,
)
from csr.synthetic import GeneratorProfile, build_group_catalog, generate_synthetic


def structural_oracle(graph, question, l, scope=None):
    candidates = [
        i for i, t in enumerate(graph.triplets) if scope is None or t.table in scope
    ]
    corpus = graph.corpus
    if corpus.config.metric == "bm25":
        scored = [
            (
                bm25_score(
                    question, graph.triplets[i].surface, corpus.stats, corpus.config
                ),
                i,
            )
            for i in candidates
        ]
    else:
        surfaces = [t.surface for t in graph.triplets]
        vectors = embed_batch(surfaces, corpus.config, corpus.stats)
        qv = embed(question, corpus.config, corpus.stats)
        scored = [(cosine_sim(qv, vectors[i]), i) for i in candidates]
    ordered = sorted(scored, key=lambda t: (-t[0], t[1]))[:l]
    ranked = [(i, s) for s, i in ordered]
    tables = {graph.triplets[i].table for i, _ in ranked}
    return ranked, tables


class TestBuild:
    def test_one_triplet_per_column(self, shop_catalog, small_config):
        graph = build_knowledge_graph(shop_catalog, small_config)
        assert len(graph) == shop_catalog.column_count
        seen = {(t.table, t.field) for t in graph.triplets}
        assert len(seen) == len(graph.triplets)

    def test_single_column_surface(self, small_config):
        from csr.catalog import load_catalog

        catalog = load_catalog(
            {"tables": [{"name": "solo", "columns": [{"name": "only_col"}]}]}
        )
        graph = build_knowledge_graph(catalog, small_config)
        assert len(graph) == 1
        assert "is a column of" in graph.triplets[0].surface
        assert graph.triplets[0].surface.startswith("only_col is a column of solo.")

    def test_surface_carries_descriptions(self):
        surface = triplet_surface("email", "customers", "Contact email", "People")
        assert surface == "email is a column of customers. Contact email People"
        bare = triplet_surface("email", "customers")
        assert bare == "email is a column of customers."

    def test_rebuild_identical(self, shop_catalog, small_config):
        a = build_knowledge_graph(shop_catalog, small_config)
        b = build_knowledge_graph(shop_catalog, small_config)
        assert [t.surface for t in a.triplets] == [t.surface for t in b.triplets]
        question = "customer email address"
        qvec = embed(question, small_config, a.corpus.stats)
        scores = a.corpus.score(question, qvec)
        assert len(scores) == len(a) and scores.any()
        assert np.array_equal(scores, b.corpus.score(question, qvec))

    @pytest.mark.parametrize(
        "tables,columns", [(50, 701), (100, 1486), (200, 2567), (246, 3021)]
    )
    def test_triplet_count_equals_column_count(self, tables, columns, small_config):
        catalog = build_group_catalog(tables, columns)
        graph = build_knowledge_graph(catalog, small_config)
        assert len(graph) == columns
        assert len(graph) == sum(len(t.columns) for t in catalog.tables)


class TestRetrieve:
    def test_l_at_count_returns_every_table(self, shop_catalog, small_config):
        graph = build_knowledge_graph(shop_catalog, small_config)
        result = retrieve_structural(graph, "anything", l=len(graph))
        assert len(result.ranked_triplets) == len(graph)
        assert result.tables == shop_catalog.all_table_ids()

    def test_rare_column_name_ranks_first(self, shop_catalog, small_config):
        graph = build_knowledge_graph(shop_catalog, small_config)
        result = retrieve_structural(graph, "shipped_at value please", l=3)
        top = graph.triplets[result.ranked_triplets[0][0]]
        assert shop_catalog.column(top.field).name == "shipped_at"
        ranked, tables = structural_oracle(graph, "shipped_at value please", 3)
        assert result.ranked_triplets == ranked
        assert result.tables == tables

    def test_scope_restricts_candidates(self, shop_catalog, small_config):
        graph = build_knowledge_graph(shop_catalog, small_config)
        scope = {0}
        result = retrieve_structural(graph, "name", l=50, scope=scope)
        assert result.tables == {0}
        for idx, _ in result.ranked_triplets:
            assert graph.triplets[idx].table == 0

    def test_l_must_be_positive(self, shop_catalog, small_config):
        graph = build_knowledge_graph(shop_catalog, small_config)
        with pytest.raises(ValueError):
            retrieve_structural(graph, "x", l=0)

    def test_monotone_in_l(self, shop_catalog, small_config):
        graph = build_knowledge_graph(shop_catalog, small_config)
        prev: set = set()
        for l in range(1, len(graph) + 1, 3):
            tables = retrieve_structural(graph, "order totals", l=l).tables
            assert prev <= tables
            prev = tables

    @pytest.mark.parametrize("metric", ["cosine", "bm25"])
    def test_oracle_equivalence_random(self, metric):
        config = SimilarityConfig(dimension=128, metric=metric)
        catalog, _ = generate_synthetic(
            GeneratorProfile(table_count=15, query_count=4, seed=2)
        )
        graph = build_knowledge_graph(catalog, config)
        assert len(graph) <= 1000
        rng = random.Random(3)
        vocab = "amount status region id code price detail master".split()
        for _ in range(25):
            question = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
            l = rng.randint(1, len(graph))
            scope = (
                None
                if rng.random() < 0.5
                else set(rng.sample(range(len(catalog.tables)), 5))
            )
            result = retrieve_structural(graph, question, l=l, scope=scope)
            ranked, tables = structural_oracle(graph, question, l, scope)
            assert result.ranked_triplets == ranked
            assert result.tables == tables

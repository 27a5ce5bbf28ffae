import random
import time

import numpy as np
import pytest

from csr.contextual import (
    build_chunk_index,
    contextualize,
    retrieve_contextual,
)
from csr.similarity import (
    SimilarityConfig,
    bm25_score,
    cosine_sim,
    embed,
    embed_batch,
)
from csr.synthetic import GeneratorProfile, generate_synthetic

from conftest import SHOP_TRACE


def contextual_oracle(index, question, k, scope=None):
    """Score every chunk, full-sort by (score desc, id asc), slice k."""
    corpus = index.corpus
    if corpus.config.metric == "bm25":
        scored = [
            (
                bm25_score(question, c.contextualized, corpus.stats, corpus.config),
                c.id,
            )
            for c in index.chunks
        ]
    else:
        texts = [c.contextualized for c in index.chunks]
        vectors = embed_batch(texts, corpus.config, corpus.stats)
        qv = embed(question, corpus.config, corpus.stats)
        scored = [(cosine_sim(qv, vectors[c.id]), c.id) for c in index.chunks]
    ordered = sorted(scored, key=lambda t: (-t[0], t[1]))[:k]
    ranked = [(cid, score) for score, cid in ordered]
    tables = set()
    for cid, _ in ranked:
        tables |= index.chunks[cid].relevant.tables
    if scope is not None:
        tables &= scope
    return ranked, tables


class TestContextualize:
    def test_single_table_no_columns(self, shop_catalog):
        text = contextualize(
            "count orders", "SELECT COUNT(*) FROM orders", shop_catalog
        )
        assert text == "count orders | orders: Customer orders"
        assert text.startswith("count orders")

    def test_empty_relevant_set_is_bare_separator(self, shop_catalog):
        text = contextualize("anything", "SELECT 1", shop_catalog)
        assert text == "anything | "

    def test_tables_in_catalog_order_regardless_of_sql_order(self, shop_catalog):
        # orders appears before customers in the SQL but after it in the
        # catalog; the rendering follows catalog order.
        text = contextualize(
            "totals per customer",
            "SELECT o.total, c.name FROM orders o "
            "JOIN customers c ON o.customer_id = c.customer_id",
            shop_catalog,
        )
        assert text == (
            "totals per customer | "
            "customers: Registered customers; customer_id, name | "
            "orders: Customer orders; customer_id(Ordering customer), total"
        )


class TestBuildIndex:
    def test_three_pair_trace(self, shop_catalog, small_config):
        index = build_chunk_index(SHOP_TRACE[:3], shop_catalog, small_config)
        assert len(index) == 3
        texts = [c.contextualized for c in index.chunks]
        vectors = embed_batch(texts, index.corpus.config, index.corpus.stats)
        for chunk in index.chunks:
            norm = np.linalg.norm(vectors[chunk.id])
            assert abs(norm - 1.0) < 1e-6 or norm == 0.0
            assert chunk.contextualized.startswith(chunk.question)

    def test_bit_identical_rebuild(self, shop_catalog, small_config):
        a = build_chunk_index(SHOP_TRACE, shop_catalog, small_config)
        b = build_chunk_index(SHOP_TRACE, shop_catalog, small_config)
        question = "customer order totals"
        qvec = embed(question, small_config, a.corpus.stats)
        scores = a.corpus.score(question, qvec)
        assert len(scores) == len(a) and scores.any()
        assert np.array_equal(scores, b.corpus.score(question, qvec))
        assert a.corpus.stats.doc_freq == b.corpus.stats.doc_freq
        assert [c.contextualized for c in a.chunks] == [
            c.contextualized for c in b.chunks
        ]

    def test_empty_trace_rejected(self, shop_catalog, small_config):
        with pytest.raises(ValueError, match="empty trace"):
            build_chunk_index([], shop_catalog, small_config)

    def test_manual_table_override(self, shop_catalog, small_config):
        trace = [
            {
                "question": "orders only",
                "sql": "SELECT o.total FROM orders o "
                "JOIN customers c ON o.customer_id = c.customer_id",
                "tables": ["orders"],
            }
        ]
        index = build_chunk_index(trace, shop_catalog, small_config)
        rel = index.chunks[0].relevant
        assert rel.table_names(shop_catalog) == {"orders"}
        assert all(tid in rel.tables for tid, _ in rel.columns)

    def test_misspelled_override_table_is_rejected(self, shop_catalog, small_config):
        trace = [
            {
                "question": "open orders",
                "sql": "SELECT total FROM orders",
                "tables": ["orders", "ordrs"],
            }
        ]
        with pytest.raises(ValueError, match="no table named 'ordrs'"):
            build_chunk_index(trace, shop_catalog, small_config)

    def test_group2_scale_build_under_frozen_threshold(self):
        catalog, trace = generate_synthetic(GeneratorProfile())
        t0 = time.perf_counter()
        index = build_chunk_index(trace, catalog, SimilarityConfig())
        elapsed = time.perf_counter() - t0
        assert len(index) == 500
        assert elapsed < 5.0


class TestRetrieve:
    def test_exact_question_ranks_first(self, shop_catalog, small_config):
        index = build_chunk_index(SHOP_TRACE, shop_catalog, small_config)
        for chunk in index.chunks:
            result = retrieve_contextual(index, chunk.question, k=1)
            assert result.ranked_chunks[0][0] == chunk.id

    def test_k_equals_n_returns_union_of_all(self, shop_catalog, small_config):
        index = build_chunk_index(SHOP_TRACE, shop_catalog, small_config)
        result = retrieve_contextual(index, "anything at all", k=len(index))
        expected = set()
        for chunk in index.chunks:
            expected |= chunk.relevant.tables
        assert result.tables == expected
        assert len(result.ranked_chunks) == len(index)

    def test_k_beyond_n_clamps(self, shop_catalog, small_config):
        index = build_chunk_index(SHOP_TRACE, shop_catalog, small_config)
        result = retrieve_contextual(index, "orders", k=99)
        assert len(result.ranked_chunks) == len(index)

    def test_k_must_be_positive(self, shop_catalog, small_config):
        index = build_chunk_index(SHOP_TRACE, shop_catalog, small_config)
        with pytest.raises(ValueError):
            retrieve_contextual(index, "x", k=0)

    def test_scores_non_increasing_with_id_tiebreak(self, shop_catalog, small_config):
        index = build_chunk_index(SHOP_TRACE, shop_catalog, small_config)
        result = retrieve_contextual(index, "list the customer orders", k=5)
        scores = [s for _, s in result.ranked_chunks]
        assert scores == sorted(scores, reverse=True)
        for (id_a, s_a), (id_b, s_b) in zip(
            result.ranked_chunks, result.ranked_chunks[1:]
        ):
            if s_a == s_b:
                assert id_a < id_b

    @pytest.mark.parametrize("metric", ["cosine", "bm25"])
    def test_matches_oracle_on_fixture(self, shop_catalog, metric):
        config = SimilarityConfig(dimension=128, metric=metric)
        index = build_chunk_index(SHOP_TRACE, shop_catalog, config)
        for k in (1, 2, 3, 5):
            result = retrieve_contextual(index, "which orders shipped", k=k)
            ranked, tables = contextual_oracle(index, "which orders shipped", k)
            assert result.ranked_chunks == ranked
            assert result.tables == tables

    def test_monotone_in_k(self, shop_catalog, small_config):
        index = build_chunk_index(SHOP_TRACE, shop_catalog, small_config)
        prev: set = set()
        for k in range(1, len(index) + 1):
            tables = retrieve_contextual(index, "customer orders", k=k).tables
            assert prev <= tables
            prev = tables

    def test_scope_narrows_output(self, shop_catalog, small_config):
        index = build_chunk_index(SHOP_TRACE, shop_catalog, small_config)
        full = retrieve_contextual(index, "orders and shipments", k=4)
        scope = set(list(full.tables)[:2])
        scoped = retrieve_contextual(index, "orders and shipments", k=4, scope=scope)
        assert scoped.tables <= scope
        # Intersect mode keeps the global ranking untouched.
        assert scoped.ranked_chunks == full.ranked_chunks

    def test_filter_chunks_mode(self, shop_catalog, small_config):
        index = build_chunk_index(SHOP_TRACE, shop_catalog, small_config)
        scope = index.chunks[0].relevant.tables
        result = retrieve_contextual(
            index, "anything", k=len(index), scope=scope, scope_mode="filter_chunks"
        )
        for cid, _ in result.ranked_chunks:
            assert index.chunks[cid].relevant.tables & scope
        assert result.tables <= scope

    def test_repeated_calls_identical(self, shop_catalog, small_config):
        index = build_chunk_index(SHOP_TRACE, shop_catalog, small_config)
        a = retrieve_contextual(index, "open orders", k=3)
        b = retrieve_contextual(index, "open orders", k=3)
        assert a.ranked_chunks == b.ranked_chunks
        assert a.tables == b.tables

    def test_random_small_indexes_match_oracle(self, small_config):
        rng = random.Random(11)
        catalog, trace = generate_synthetic(
            GeneratorProfile(table_count=12, query_count=32, seed=9)
        )
        index = build_chunk_index(trace, catalog, small_config)
        vocab = "amount status region customer order detail total count".split()
        for _ in range(20):
            question = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
            k = rng.randint(1, len(index))
            result = retrieve_contextual(index, question, k=k)
            ranked, tables = contextual_oracle(index, question, k)
            assert result.ranked_chunks == ranked
            assert result.tables == tables

import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csr.similarity import (
    CorpusStats,
    SimilarityConfig,
    bm25_score,
    build_corpus_stats,
    cosine_sim,
    embed,
    tokenize,
)

CFG = SimilarityConfig(dimension=128)


def reference_embedding(text: str, dimension: int, docs: list[str]) -> np.ndarray:
    """Independent transcription of the documented embedding procedure:
    FNV-1a bucket per token, tf * smoothed-idf weight, L2 normalization.
    """

    def fnv(token: str) -> int:
        h = 0xCBF29CE484222325
        for byte in token.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) % 2**64
        return h

    token_lists = [tokenize(d) for d in docs]
    df: Counter = Counter()
    for toks in token_lists:
        df.update(set(toks))
    n_docs = len(docs)

    vec = np.zeros(dimension)
    for term, tf in Counter(tokenize(text)).items():
        idf = 1.0 + math.log((1 + n_docs) / (1 + df[term])) if n_docs else 1.0
        vec[fnv(term) % dimension] += tf * idf
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


class TestEmbed:
    def test_deterministic(self):
        a = embed("list open orders", CFG)
        b = embed("list open orders", CFG)
        assert np.array_equal(a, b)

    def test_empty_text_is_zero_vector(self):
        assert np.all(embed("", CFG) == 0.0)
        assert np.all(embed("  --  ", CFG) == 0.0)

    def test_unit_norm(self):
        vec = embed("count shipments by carrier", CFG)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-6

    def test_matches_reference_procedure_with_corpus(self):
        docs = [
            "list open orders",
            "show open orders",
            "warehouse temperature",
            "orders shipped by carrier",
        ]
        stats = build_corpus_stats(docs)
        for text in docs:
            expected = reference_embedding(text, CFG.dimension, docs)
            actual = embed(text, CFG, stats)
            assert np.allclose(actual, expected, atol=1e-12)

    def test_similar_texts_score_higher_than_unrelated(self):
        docs = ["list open orders", "show open orders", "warehouse temperature"]
        stats = build_corpus_stats(docs)
        base = embed("list open orders", CFG, stats)
        close = embed("show open orders", CFG, stats)
        far = embed("warehouse temperature", CFG, stats)
        assert cosine_sim(base, close) > cosine_sim(base, far)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SimilarityConfig(dimension=32)
        with pytest.raises(ValueError):
            SimilarityConfig(bm25_k1=0)
        with pytest.raises(ValueError):
            SimilarityConfig(bm25_b=1.5)
        with pytest.raises(ValueError):
            SimilarityConfig(metric="dot")
        for timeout in ("x", None, True, 0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="external_timeout"):
                SimilarityConfig(external_timeout=timeout)

    def test_bm25_takes_no_external_embedder(self):
        # BM25 reads no vectors, so the provider would be called for nothing.
        with pytest.raises(ValueError, match="embedder must be hashed_tfidf"):
            SimilarityConfig(metric="bm25", embedder="external")
        assert SimilarityConfig(metric="bm25").embedder == "hashed_tfidf"


class TestCosine:
    def test_self_similarity_is_one(self):
        x = embed("orders by region", CFG)
        assert cosine_sim(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_one_hots(self):
        u = np.zeros(64)
        v = np.zeros(64)
        u[3] = 1.0
        v[9] = 1.0
        assert cosine_sim(u, v) == 0.0

    def test_hand_computed_value(self):
        u = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        v = np.array([1.0, 0.0, 0.0])
        assert cosine_sim(u, v) == pytest.approx(0.7071, abs=1e-4)

    def test_zero_vector_scores_zero(self):
        z = np.zeros(8)
        v = np.ones(8)
        assert cosine_sim(z, v) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine_sim(np.ones(4), np.ones(5))

    @pytest.mark.parametrize("peak", [4.9e-157, 0.03125 * 4.9e-157, 5e-324, 1e200])
    def test_extreme_magnitude_keeps_its_cosine(self, peak):
        # Squared, these underflow into subnormals or overflow to infinity.
        u = np.array([0.0, peak, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0, 0.0])
        assert cosine_sim(u, v) == 1.0
        assert cosine_sim(u, u) == 1.0

    @given(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=4,
            max_size=4,
        ),
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=4,
            max_size=4,
        ),
        st.floats(min_value=0.01, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_scale_invariant(self, xs, ys, scale):
        u = np.array(xs)
        v = np.array(ys)
        assert cosine_sim(u, v) == pytest.approx(cosine_sim(v, u), abs=1e-12)
        assert cosine_sim(scale * u, v) == pytest.approx(
            cosine_sim(u, v), abs=1e-9
        )

    @given(
        st.sets(st.sampled_from("alpha beta gamma delta epsilon zeta".split()), min_size=1),
        st.sets(
            st.sampled_from("omega sigma theta lambda kappa iota".split()), min_size=1
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_disjoint_token_sets_give_zero(self, left, right):
        # The two vocabularies share no tokens; skip the rare hash-bucket
        # collision at this dimension, which the property conditions away.
        from csr.similarity import fnv1a64

        left_buckets = {fnv1a64(t) % CFG.dimension for t in left}
        right_buckets = {fnv1a64(t) % CFG.dimension for t in right}
        if left_buckets & right_buckets:
            return
        u = embed(" ".join(sorted(left)), CFG)
        v = embed(" ".join(sorted(right)), CFG)
        assert cosine_sim(u, v) == 0.0


class TestBm25:
    def test_absent_term_scores_zero(self):
        stats = build_corpus_stats(["apple pie", "banana split"])
        assert bm25_score("cherry", "apple pie", stats, CFG) == 0.0

    def test_hand_computed_single_doc(self):
        # Single doc "apple": idf = ln(1 + 0.5/1.5), tf factor = 1.
        stats = build_corpus_stats(["apple"])
        score = bm25_score("apple", "apple", stats, CFG)
        assert score == pytest.approx(0.2877, abs=1e-3)

    def test_duplicate_query_terms_double_score(self):
        stats = build_corpus_stats(["apple pie crust", "banana bread loaf"])
        single = bm25_score("apple", "apple pie crust", stats, CFG)
        double = bm25_score("apple apple", "apple pie crust", stats, CFG)
        assert double == 2 * single

    def test_scores_nonnegative_over_random_corpus(self):
        rng = random.Random(1)
        vocab = "red green blue gold gray pink teal onyx".split()
        docs = [
            " ".join(rng.choices(vocab, k=rng.randint(1, 8))) for _ in range(30)
        ]
        stats = build_corpus_stats(docs)
        for doc in docs:
            assert bm25_score("red gold missing", doc, stats, CFG) >= 0.0


class TestCorpusStats:
    def test_empty(self):
        stats = build_corpus_stats([])
        assert stats.doc_count == 0
        assert stats.avg_doc_len == 0.0

    def test_tiny_example(self):
        stats = build_corpus_stats(["a b", "a"])
        assert stats.doc_freq == {"a": 2, "b": 1}
        assert stats.avg_doc_len == 1.5
        assert stats.doc_count == 2

    def test_matches_naive_recount_oracle(self):
        rng = random.Random(7)
        vocab = [f"w{i}" for i in range(40)]
        docs = [
            " ".join(rng.choices(vocab, k=rng.randint(0, 12))) for _ in range(100)
        ]
        stats = build_corpus_stats(docs)
        # Naive recount: per-term presence flags summed doc by doc.
        expected: dict[str, int] = {}
        total = 0
        for doc in docs:
            toks = tokenize(doc)
            total += len(toks)
            for t in sorted(set(toks)):
                expected[t] = expected.get(t, 0) + 1
        assert stats.doc_freq == expected
        assert stats.avg_doc_len == pytest.approx(total / 100)
        assert all(v <= stats.doc_count for v in stats.doc_freq.values())

    def test_tokenization_rule(self):
        assert tokenize("Orders-By_Region  42!") == ["orders", "by", "region", "42"]

    @given(st.text(alphabet=st.sampled_from("aZ9 _-.é|İ\n"), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_tokenize_matches_split_on_non_alphanumerics(self, text):
        # The documented rule: lowercase, split on non-alphanumeric runs,
        # drop empties.
        expected = [t for t in re.split(r"[^0-9a-z]+", text.lower()) if t]
        assert tokenize(text) == expected

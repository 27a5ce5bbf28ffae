"""Corpus.score against the per-document oracles, bit for bit.

The corpus scores through posting lists; ``bm25_score`` and ``cosine_sim``
score one document at a time. Equality here is exact float equality.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csr.similarity import (
    Corpus,
    SimilarityConfig,
    bm25_score,
    build_corpus_stats,
    corpus_stats,
    cosine_sim,
    embed,
    embed_batch,
    token_counts,
)

# A small vocabulary at the smallest dimension, so hash buckets collide.
VOCAB = "order orders customer id region ship date total item sku a b 42".split()
ABSENT = ["zebra", "qq", "unseen"]

words = st.lists(st.sampled_from(VOCAB), max_size=12).map(" ".join)
texts_st = st.lists(words, min_size=1, max_size=12)
question_st = st.lists(st.sampled_from(VOCAB + ABSENT), max_size=8).map(" ".join)
configs = st.builds(
    SimilarityConfig,
    dimension=st.sampled_from([64, 128]),
    bm25_k1=st.sampled_from([0.5, 1.2, 2.0]),
    bm25_b=st.sampled_from([0.0, 0.75, 1.0]),
)

def candidate_ids(data, n):
    """Empty, single, unsorted and repeated id lists over ``n`` documents."""
    return data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))


def corpus_of(texts, config, vectors=None):
    return Corpus([token_counts(t) for t in texts], config, vectors)


@given(texts_st, question_st, configs, st.data())
@settings(max_examples=300, deadline=None)
def test_bm25_equals_bm25_score(texts, question, config, data):
    config = SimilarityConfig(
        metric="bm25", dimension=config.dimension,
        bm25_k1=config.bm25_k1, bm25_b=config.bm25_b,
    )
    corpus = corpus_of(texts, config)
    ids = candidate_ids(data, len(texts))
    stats = build_corpus_stats(texts)
    assert corpus.stats == stats
    want = [bm25_score(question, texts[i], stats, config) for i in ids]
    assert corpus.score(question, None)[ids].tolist() == want


@given(texts_st, question_st, configs, st.data())
@settings(max_examples=300, deadline=None)
def test_hashed_cosine_equals_cosine_sim(texts, question, config, data):
    stats = build_corpus_stats(texts)
    vectors = embed_batch(texts, config, stats)
    qvec = embed(question, config, stats)
    ids = candidate_ids(data, len(texts))
    want = [cosine_sim(qvec, vectors[i]) for i in ids]
    # Postings from the built-in embedder's sparse rows (as in relational
    # ranking) and from a dense matrix (as in a loaded index) agree.
    assert corpus_of(texts, config).score(question, qvec)[ids].tolist() == want
    dense = corpus_of(texts, config, vectors)
    assert dense.score(question, qvec)[ids].tolist() == want


@given(
    st.integers(1, 10),
    st.sampled_from([64, 96]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_dense_external_vectors_equal_cosine_sim(rows, dimension, seed, data):
    config = SimilarityConfig(embedder="external", dimension=dimension)
    rng = np.random.default_rng(seed)
    vectors = rng.uniform(-2.0, 2.0, (rows, dimension))
    vectors[rng.random(vectors.shape) < 0.3] = 0.0
    vectors[rng.integers(rows)] = 0.0  # one zero row
    qvec = rng.uniform(-2.0, 2.0, dimension)
    qvec[rng.random(dimension) < 0.3] = 0.0
    texts = [f"text {i}" for i in range(rows)]
    corpus = corpus_of(texts, config, vectors)
    ids = candidate_ids(data, rows)
    want = [cosine_sim(qvec, vectors[i]) for i in ids]
    assert corpus.score("unused", qvec)[ids].tolist() == want


@pytest.mark.parametrize("metric", ["cosine", "bm25"])
def test_zero_question_and_empty_documents_score_zero(metric):
    config = SimilarityConfig(metric=metric, dimension=64)

    def scores(texts, question):
        corpus = corpus_of(texts, config)
        stats = build_corpus_stats(texts)
        qvec = embed(question, config, stats) if metric == "cosine" else None
        return corpus.score(question, qvec).tolist()

    texts = ["", "order total", "--"]
    assert scores(texts, "?!") == [0.0] * 3
    got = scores(texts, "order")
    assert got[0] == got[2] == 0.0 and got[1] > 0.0
    # Every document empty: no term has a posting and the average length is 0.
    assert scores(["", "--", " "], "order total") == [0.0] * 3
    assert scores([], "order") == []


def test_tiny_and_huge_vectors_score_alike_in_both():
    # Squared, 1e-200 underflows and 1e200 overflows; both are rescaled.
    config = SimilarityConfig(embedder="external", dimension=64)
    tiny = np.zeros(64)
    tiny[3] = 1e-200
    vectors = np.stack([tiny, np.ones(64), 1e200 * np.ones(64)])
    corpus = corpus_of(["a", "b", "c"], config, vectors)
    assert cosine_sim(tiny, tiny) == 1.0
    for qvec in (tiny, np.ones(64)):
        assert corpus.score("unused", qvec).tolist() == [
            cosine_sim(qvec, row) for row in vectors
        ]


def test_duplicate_question_terms_count_twice():
    config = SimilarityConfig(metric="bm25", dimension=64)
    texts = ["order total", "customer id", "order order item"]
    corpus = corpus_of(texts, config)
    once = corpus.score("order", None)
    twice = corpus.score("order order", None)
    assert twice.tolist() == [2 * s for s in once.tolist()]


def test_external_corpus_needs_vectors():
    config = SimilarityConfig(embedder="external", dimension=64)
    with pytest.raises(ValueError, match="vectors"):
        corpus_of(["order"], config)


def test_corpus_stats_match_build_corpus_stats():
    texts = ["a b a", "", "b c", "c c c d"]
    counts = [token_counts(t) for t in texts]
    assert corpus_stats(counts) == build_corpus_stats(texts)

"""Text similarity primitives shared by all three retrieval stages.

One tokenizer feeds everything: lowercase, split on non-alphanumeric
characters, drop empties. On top of it sit a deterministic feature-hashed
TF-IDF embedder (the default), a BM25 scorer, and a pluggable external
embedding provider reached over HTTP. ``Corpus`` is the one scoring core all
three retrieval stages share. The built-in embedder needs no model assets,
produces identical vectors for identical inputs, and is fast enough for
exhaustive scans over corpora of a few thousand items.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import requests

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class EmbeddingProviderError(RuntimeError):
    """External embedder failure; ``kind`` separates transport problems
    (unreachable, timeout) from provider rejections (bad status, bad payload).
    """

    def __init__(self, message: str, kind: str):
        super().__init__(message)
        self.kind = kind  # "transport" | "rejection"


@dataclass(frozen=True)
class SimilarityConfig:
    metric: str = "cosine"  # cosine | bm25
    embedder: str = "hashed_tfidf"  # hashed_tfidf | external
    dimension: int = 1024
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    external_endpoint: str | None = None
    external_timeout: float = 0.5  # seconds

    def __post_init__(self) -> None:
        if self.metric not in ("cosine", "bm25"):
            raise ValueError(f"unknown metric '{self.metric}'")
        if self.embedder not in ("hashed_tfidf", "external"):
            raise ValueError(f"unknown embedder '{self.embedder}'")
        if self.dimension < 64:
            raise ValueError("dimension must be >= 64")
        if self.bm25_k1 <= 0:
            raise ValueError("bm25_k1 must be > 0")
        if not 0.0 <= self.bm25_b <= 1.0:
            raise ValueError("bm25_b must be in [0, 1]")


@dataclass
class CorpusStats:
    doc_count: int = 0
    avg_doc_len: float = 0.0
    doc_freq: dict[str, int] = field(default_factory=dict)


def tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


@lru_cache(maxsize=65536)
def fnv1a64(token: str) -> int:
    h = _FNV_OFFSET
    for b in token.encode("utf-8"):
        h ^= b
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def build_corpus_stats(docs: list[str]) -> CorpusStats:
    """Document count, average token length, and per-term document frequency."""
    doc_freq: dict[str, int] = {}
    total_len = 0
    for doc in docs:
        toks = tokenize(doc)
        total_len += len(toks)
        for term in set(toks):
            doc_freq[term] = doc_freq.get(term, 0) + 1
    count = len(docs)
    return CorpusStats(
        doc_count=count,
        avg_doc_len=(total_len / count) if count else 0.0,
        doc_freq=doc_freq,
    )


def _tfidf_idf(term: str, stats: CorpusStats | None) -> float:
    # Smoothed idf; with no corpus statistics every term weighs the same.
    if stats is None or stats.doc_count == 0:
        return 1.0
    df = stats.doc_freq.get(term, 0)
    return 1.0 + math.log((1 + stats.doc_count) / (1 + df))

def embed(
    text: str,
    config: SimilarityConfig,
    stats: CorpusStats | None = None,
) -> np.ndarray:
    """Embed one text into a unit-norm vector (zero vector for empty text)."""
    if config.embedder == "external":
        return embed_batch([text], config, stats)[0]
    return _embed_hashed_tfidf(text, config, stats)


def embed_batch(
    texts: list[str],
    config: SimilarityConfig,
    stats: CorpusStats | None = None,
) -> np.ndarray:
    """Embed many texts; one HTTP round trip when the provider is external."""
    if config.embedder == "external":
        vectors = _external_embed(texts, config)
    else:
        vectors = np.stack([_embed_hashed_tfidf(t, config, stats) for t in texts])
    return vectors


def _embed_hashed_tfidf(
    text: str, config: SimilarityConfig, stats: CorpusStats | None
) -> np.ndarray:
    vec = np.zeros(config.dimension, dtype=np.float64)
    counts = Counter(tokenize(text))
    for term, tf in counts.items():
        bucket = fnv1a64(term) % config.dimension
        vec[bucket] += tf * _tfidf_idf(term, stats)
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def _external_embed(texts: list[str], config: SimilarityConfig) -> np.ndarray:
    if not config.external_endpoint:
        raise EmbeddingProviderError(
            "external embedder selected but no endpoint configured", kind="rejection"
        )
    try:
        resp = requests.post(
            config.external_endpoint,
            json={"texts": texts},
            timeout=config.external_timeout,
        )
    except requests.RequestException as exc:
        raise EmbeddingProviderError(
            f"embedding provider unreachable: {exc}", kind="transport"
        ) from exc
    if resp.status_code != 200:
        raise EmbeddingProviderError(
            f"embedding provider rejected request: HTTP {resp.status_code}",
            kind="rejection",
        )
    try:
        # numpy raises ValueError for ragged or non-numeric rows.
        arr = np.asarray(resp.json()["vectors"], dtype=np.float64)
        count = len(arr)
    except (ValueError, KeyError, TypeError) as exc:
        raise EmbeddingProviderError(
            f"embedding provider returned malformed payload: {exc}", kind="rejection"
        ) from exc
    if count != len(texts):
        raise EmbeddingProviderError(
            f"embedding provider returned {count} vectors for "
            f"{len(texts)} texts",
            kind="rejection",
        )
    if arr.ndim != 2 or arr.shape[1] != config.dimension:
        found = arr.shape[1] if arr.ndim == 2 else f"shape {arr.shape}"
        raise EmbeddingProviderError(
            f"embedding dimension mismatch: expected {config.dimension}, "
            f"provider returned {found}",
            kind="rejection",
        )
    if not np.isfinite(arr).all():
        raise EmbeddingProviderError(
            "embedding provider returned non-finite vector components",
            kind="rejection",
        )
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    np.divide(arr, norms, out=arr, where=norms > 0)
    return arr


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; zero when either vector is zero."""
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def bm25_score(
    query: str,
    doc: str,
    stats: CorpusStats,
    config: SimilarityConfig,
) -> float:
    """Standard BM25, additive over query terms (duplicates count twice).

    idf(term) = ln(1 + (N - n + 0.5) / (n + 0.5)) over the corpus behind
    ``stats``; terms absent from the document contribute nothing.
    """
    doc_terms = Counter(tokenize(doc))
    doc_len = sum(doc_terms.values())
    score = 0.0
    for term in tokenize(query):
        tf = doc_terms.get(term, 0)
        if tf == 0:
            continue
        n = stats.doc_freq.get(term, 0)
        idf = math.log(1 + (stats.doc_count - n + 0.5) / (n + 0.5))
        len_ratio = (doc_len / stats.avg_doc_len) if stats.avg_doc_len > 0 else 0.0
        denom = tf + config.bm25_k1 * (1 - config.bm25_b + config.bm25_b * len_ratio)
        score += idf * (tf * (config.bm25_k1 + 1)) / denom
    return score


@dataclass
class Corpus:
    """One scored document set: texts, their statistics and, when the texts
    are embedded, one vector per text in text order.

    Every stage scores through :meth:`score`, so the cosine and BM25
    arithmetic lives in exactly one place.
    """

    texts: list[str]
    config: SimilarityConfig
    stats: CorpusStats
    vectors: np.ndarray | None = None  # (len(texts), dimension)

    def __post_init__(self) -> None:
        # Pre-materialized rows and norms; scalar indexing into the matrix is
        # too slow for the per-query exhaustive scan.
        self._rows = [] if self.vectors is None else list(self.vectors)
        self._norms = [float(np.linalg.norm(r)) for r in self._rows]

    def score(
        self, question: str, qvec: np.ndarray | None, ids: Sequence[int]
    ) -> np.ndarray:
        """Similarity of the question to each listed document, in ``ids``
        order. Cosine needs the question's vector ``qvec``; BM25 ignores it.
        """
        if self.config.metric == "bm25":
            texts, stats, config = self.texts, self.stats, self.config
            return np.array(
                [bm25_score(question, texts[i], stats, config) for i in ids],
                dtype=np.float64,
            )
        qnorm = float(np.linalg.norm(qvec))
        scores = np.empty(len(ids), dtype=np.float64)
        rows, norms, dot = self._rows, self._norms, np.dot
        for pos, i in enumerate(ids):
            denom = qnorm * norms[i]
            scores[pos] = dot(qvec, rows[i]) / denom if denom else 0.0
        return scores

"""Text similarity primitives shared by all three retrieval stages.

One tokenizer feeds everything: lowercase, split on non-alphanumeric
characters, drop empties. On top of it sit a deterministic feature-hashed
TF-IDF embedder (the default), a BM25 scorer, and a pluggable external
embedding provider reached over HTTP. ``Corpus`` is the one scoring core all
three retrieval stages share: it keeps posting lists (an inverted index over
terms for BM25, over hash buckets for cosine), so a query touches only the
documents that share a term or a bucket with it. The built-in embedder needs
no model assets and produces identical vectors for identical inputs.
``cosine_sim`` and ``bm25_score`` are the per-document definitions the
corpus reproduces bit for bit; the tests use them as oracles.
"""

from __future__ import annotations

import http.client
import json
import math
import re
import urllib.error
import urllib.request
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Literal

import numpy as np

from .catalog import check_types, parse_json

_TOKEN = re.compile(r"[0-9a-z]+")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Vectors whose largest magnitude lies outside this range are rescaled before
# their norms are taken: their squares would underflow or overflow.
_SAFE_PEAK = (2.0**-200, 2.0**200)


class EmbeddingProviderError(RuntimeError):
    """External embedder failure; ``kind`` separates transport problems
    (unreachable, timeout) from provider rejections (bad status, bad payload).
    """

    def __init__(self, message: str, kind: str):
        super().__init__(message)
        self.kind = kind  # "transport" | "rejection"


@dataclass(frozen=True)
class SimilarityConfig:
    metric: Literal["cosine", "bm25"] = "cosine"
    embedder: Literal["hashed_tfidf", "external"] = "hashed_tfidf"
    dimension: int = 1024
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    external_endpoint: str | None = None
    external_timeout: float = 0.5  # seconds

    def __post_init__(self) -> None:
        check_types(self)
        # BM25 reads no vectors: the provider would be sent every text for nothing.
        if self.metric == "bm25" and self.embedder == "external":
            raise ValueError("embedder must be hashed_tfidf with metric bm25")
        if self.dimension < 64:
            raise ValueError("dimension must be >= 64")
        if self.bm25_k1 <= 0:
            raise ValueError("bm25_k1 must be > 0")
        if not 0.0 <= self.bm25_b <= 1.0:
            raise ValueError("bm25_b must be in [0, 1]")
        if self.external_timeout <= 0:
            raise ValueError("external_timeout must be > 0 seconds")


@dataclass
class CorpusStats:
    doc_count: int = 0
    avg_doc_len: float = 0.0
    doc_freq: dict[str, int] = field(default_factory=dict)


def tokenize(text: str) -> list[str]:
    """The maximal runs of ASCII letters and digits in the lowercased text."""
    return _TOKEN.findall(text.lower())


@lru_cache(maxsize=65536)
def fnv1a64(token: str) -> int:
    h = _FNV_OFFSET
    for b in token.encode("utf-8"):
        h ^= b
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def token_counts(text: str) -> Counter[str]:
    """Term frequencies of one text, in order of first occurrence."""
    return Counter(tokenize(text))


def corpus_stats(counts: Sequence[Counter[str]]) -> CorpusStats:
    """Document count, average token length, and per-term document frequency
    of documents given by their term counts."""
    count = len(counts)
    total_len = sum(sum(doc.values()) for doc in counts)
    return CorpusStats(
        doc_count=count,
        avg_doc_len=(total_len / count) if count else 0.0,
        doc_freq=dict(Counter(chain.from_iterable(counts))),
    )


def build_corpus_stats(docs: list[str]) -> CorpusStats:
    """Document count, average token length, and per-term document frequency."""
    return corpus_stats([token_counts(doc) for doc in docs])


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
    return embed_batch([text], config, stats)[0]


def embed_batch(
    texts: list[str],
    config: SimilarityConfig,
    stats: CorpusStats | None = None,
) -> np.ndarray:
    """Embed many texts. The external provider takes one HTTP round trip and
    ignores ``stats``."""
    if config.embedder == "external":
        return _external_embed(texts, config)
    counts = [token_counts(t) for t in texts]
    docs, buckets, weights, _ = _hashed_rows(counts, config, stats)
    vectors = np.zeros((len(texts), config.dimension), dtype=np.float64)
    vectors[docs, buckets] = weights
    return vectors


def _hashed_rows(
    counts: Sequence[Counter[str]], config: SimilarityConfig, stats: CorpusStats | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The built-in embedder's vectors in sparse form: the document, bucket
    and weight of every non-zero entry, in document order, and each vector's
    norm.

    Every term adds ``tf * idf`` to its FNV-1a bucket, in order of first
    occurrence, and the vector is divided by its norm. Norms are
    ``sqrt(x.dot(x))`` of a dense scratch copy ``x`` of the row, which is
    what 1-D ``np.linalg.norm`` computes, so they sum exactly as for a dense
    vector.
    """
    dimension = config.dimension
    terms: dict[str, tuple[int, float]] = {}  # term -> (bucket, idf)
    flat_buckets: list[int] = []
    flat_weights: list[float] = []
    sizes: list[int] = []
    for doc in counts:
        raw: dict[int, float] = {}
        for term, tf in doc.items():
            hit = terms.get(term)
            if hit is None:
                hit = terms[term] = (fnv1a64(term) % dimension, _tfidf_idf(term, stats))
            raw[hit[0]] = raw.get(hit[0], 0.0) + tf * hit[1]
        flat_buckets.extend(raw)
        flat_weights.extend(raw.values())
        sizes.append(len(raw))
    buckets = np.array(flat_buckets, dtype=np.intp)
    weights = np.array(flat_weights, dtype=np.float64)
    norms = np.zeros(len(counts), dtype=np.float64)
    scratch = np.zeros(dimension, dtype=np.float64)
    lo = 0
    for doc, hi in enumerate(np.cumsum(sizes).tolist()):
        row, values = buckets[lo:hi], weights[lo:hi]
        scratch[row] = values
        norm = math.sqrt(scratch.dot(scratch))
        if norm > 0.0:
            values /= norm
            scratch[row] = values
            norms[doc] = math.sqrt(scratch.dot(scratch))
        scratch[row] = 0.0
        lo = hi
    docs = np.repeat(np.arange(len(counts)), sizes)
    return docs, buckets, weights, norms


class _RefuseRedirects(urllib.request.HTTPRedirectHandler):
    """Answers a 3xx with an ``HTTPError`` instead of following it: urllib
    would re-send the POST as a GET without the texts, to any scheme."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


_OPENER = urllib.request.build_opener(_RefuseRedirects)


def _external_embed(texts: list[str], config: SimilarityConfig) -> np.ndarray:
    if not config.external_endpoint:
        raise EmbeddingProviderError(
            "external embedder selected but no endpoint configured", kind="rejection"
        )
    endpoint = str(config.external_endpoint)
    try:
        # urllib would also open file:// and ftp:// URLs.
        if not endpoint.lower().startswith(("http://", "https://")):
            raise ValueError(f"endpoint '{endpoint}' is not an http(s) URL")
        # Built inside the try: a malformed URL fails here with ValueError.
        request = urllib.request.Request(
            endpoint,
            data=json.dumps({"texts": texts}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with _OPENER.open(request, timeout=config.external_timeout) as resp:
            status, body = resp.status, resp.read()
    except urllib.error.HTTPError as exc:  # urllib raises it for 3xx, 4xx and 5xx
        exc.close()
        status, body = exc.code, b""
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise EmbeddingProviderError(
            f"embedding provider unreachable: {exc}", kind="transport"
        ) from exc
    if status != 200:
        raise EmbeddingProviderError(
            f"embedding provider rejected request: HTTP {status}",
            kind="rejection",
        )
    try:
        # numpy raises ValueError for ragged or non-numeric rows.
        arr = np.asarray(parse_json(body)["vectors"], dtype=np.float64)
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
    arr = _rescaled(arr)
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    np.divide(arr, norms, out=arr, where=norms > 0)
    return arr


def _rescaled(rows: np.ndarray) -> np.ndarray:
    """``rows`` (one vector, or one per row), with every vector whose largest
    magnitude is outside ``_SAFE_PEAK`` multiplied by the power of two that
    brings that magnitude into [0.5, 1). A power of two changes only the
    exponents (a huge vector's components that are smaller than its largest by
    over 2**1000 may round to subnormals), so directions and cosines keep
    their values; vectors in range are returned as they are, bit for bit.
    """
    peak = np.abs(rows).max(axis=-1, keepdims=True, initial=0.0)
    low, high = _SAFE_PEAK
    outside = (peak > 0.0) & ((peak < low) | (peak > high))
    if not outside.any():
        return rows
    _, exponent = np.frexp(peak)
    return np.ldexp(rows, np.where(outside, -exponent, 0))


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; zero when the product of the norms is.

    The dot product adds the non-zero products ``u[i] * v[i]`` one at a time
    in ascending ``i``, starting from zero: the order in which
    ``Corpus.score`` adds posting-list products, so the two agree bit for bit.
    The norms are 1-D ``np.linalg.norm``. A vector of extreme magnitude is
    first rescaled by a power of two (``_rescaled``), so that its squares
    neither underflow nor overflow.
    """
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    u, v = _rescaled(u), _rescaled(v)
    denom = float(np.linalg.norm(u)) * float(np.linalg.norm(v))
    if denom == 0.0:
        return 0.0
    products = u * v
    dot = 0.0
    for product in products[products != 0.0].tolist():
        dot += product
    return dot / denom


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


@dataclass(frozen=True)
class _Postings:
    """Documents grouped by key (a term id or a hash bucket): key ``k`` holds
    ``docs[indptr[k]:indptr[k + 1]]``, ascending, with one value each."""

    indptr: list[int]
    docs: np.ndarray
    values: np.ndarray

    @staticmethod
    def group(keys, docs, values, key_count: int) -> "_Postings":
        keys = np.asarray(keys, dtype=np.int64)
        # Stable, so each key's documents keep their ascending order.
        order = np.argsort(keys, kind="stable")
        ends = np.cumsum(np.bincount(keys, minlength=key_count)).tolist()
        return _Postings(
            indptr=[0, *ends],
            docs=np.asarray(docs, dtype=np.int64)[order],
            values=np.asarray(values, dtype=np.float64)[order],
        )


class Corpus:
    """One scored document set, indexed once into posting lists.

    Documents come as term counts (``token_counts``); the corpus computes
    their statistics (``stats``) itself. Both metrics keep one posting list
    per key. BM25's keys are terms, and each posting holds the term's
    finished ``bm25_score`` contribution to its document. Cosine's keys are
    hash buckets, and each posting holds the document's weight, taken from
    ``vectors`` when given (the external embedder's, one row per document)
    and otherwise computed from the counts by the built-in embedder; cosine
    also keeps each row's 1-D norm.

    :meth:`score` adds the postings of one question term or bucket at a time,
    in ``bm25_score``'s or ``cosine_sim``'s order, so its scores equal theirs
    bit for bit. It scores every document: callers select their candidates
    from the array. A corpus is read-only after construction.
    """

    def __init__(
        self,
        counts: Sequence[Counter[str]],
        config: SimilarityConfig,
        vectors: np.ndarray | None = None,
    ) -> None:
        self.config = config
        self.stats = corpus_stats(counts)
        self.vectors = vectors  # (documents, dimension) when given
        self._size = len(counts)
        if config.metric == "bm25":
            self._postings = self._term_postings(counts)
        else:
            self._postings = self._bucket_postings(counts)

    def _term_postings(self, counts: Sequence[Counter[str]]) -> _Postings:
        flat = list(chain.from_iterable(counts))
        self._term_ids = {term: key for key, term in enumerate(dict.fromkeys(flat))}
        keys = np.fromiter(map(self._term_ids.__getitem__, flat), np.int64, len(flat))
        docs = np.repeat(np.arange(len(counts)), [len(terms) for terms in counts])
        tf = np.array([n for terms in counts for n in terms.values()], dtype=np.float64)
        lengths = np.array([sum(terms.values()) for terms in counts], dtype=np.float64)
        k1, b = self.config.bm25_k1, self.config.bm25_b
        n_docs, df = self.stats.doc_count, self.stats.doc_freq
        idf = np.array(
            [math.log(1 + (n_docs - df[t] + 0.5) / (df[t] + 0.5)) for t in self._term_ids]
        )
        # A posting's document has tokens, so with any posting the average is > 0.
        len_ratio = lengths[docs] / self.stats.avg_doc_len
        # bm25_score's term, in its operation order.
        values = idf[keys] * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * len_ratio))
        return _Postings.group(keys, docs, values, len(self._term_ids))

    def _bucket_postings(self, counts: Sequence[Counter[str]]) -> _Postings:
        if self.vectors is not None:
            rows = _rescaled(self.vectors)  # as cosine_sim rescales them
            # Same entries as flatnonzero(rows); a boolean mask is faster.
            flat = np.flatnonzero(rows != 0.0)
            docs, buckets = np.divmod(flat, rows.shape[1])
            weights = rows.ravel()[flat]
            norms = [np.linalg.norm(row) for row in rows]
        elif self.config.embedder == "external":
            raise ValueError("a corpus for the external embedder needs its vectors")
        else:
            docs, buckets, weights, norms = _hashed_rows(counts, self.config, self.stats)
        self._norms = np.array(norms, dtype=np.float64)
        return _Postings.group(buckets, docs, weights, self.config.dimension)

    def score(self, question: str, qvec: np.ndarray | None) -> np.ndarray:
        """Similarity of the question to every document, in id order.
        Cosine needs the question's vector ``qvec``; BM25 ignores it.
        """
        acc = np.zeros(self._size, dtype=np.float64)
        bm25 = self.config.metric == "bm25"
        if bm25:
            # Question order, duplicates kept: bm25_score counts them twice.
            keys = [self._term_ids[t] for t in tokenize(question) if t in self._term_ids]
        else:
            qvec = _rescaled(qvec)
            qnorm = float(np.linalg.norm(qvec))
            if qnorm == 0.0:
                return acc
            keys = np.flatnonzero(qvec).tolist()
        postings = self._postings
        indptr, docs, values = postings.indptr, postings.docs, postings.values
        for key in keys:
            lo, hi = indptr[key], indptr[key + 1]
            if lo < hi:
                acc[docs[lo:hi]] += values[lo:hi] if bm25 else qvec[key] * values[lo:hi]
        if bm25:
            return acc
        denom = qnorm * self._norms
        return np.divide(acc, denom, out=np.zeros_like(acc), where=denom != 0.0)

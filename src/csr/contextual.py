"""Contextual retrieval over ground-truth (question, SQL) chunks.

Each chunk pairs a past natural-language question with the SQL that answered
it. At index-build time the question is contextualized: schema text (table
and column names plus their descriptions) for everything the SQL touches is
appended, and the combined text is embedded. Retrieval ranks chunks by
similarity to the incoming question and returns the union of the top-k
chunks' table sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import SchemaCatalog, TableId, lookup_table
from .similarity import (
    Corpus,
    SimilarityConfig,
    corpus_stats,
    embed,
    embed_batch,
    token_counts,
)
from .sqlrefs import RelevantSet, extract_relevant_set
from .topk import top_k_exact

ChunkId = int

CONTEXT_SEPARATOR = " | "


@dataclass
class Chunk:
    id: ChunkId
    question: str
    sql: str
    relevant: RelevantSet
    contextualized: str


@dataclass
class ChunkIndex:
    chunks: list[Chunk]
    corpus: Corpus  # over the contextualized texts, indexed by chunk id

    def __len__(self) -> int:
        return len(self.chunks)


@dataclass
class ContextualResult:
    ranked_chunks: list[tuple[ChunkId, float]]
    tables: set[TableId]


def contextualize(chunk_question: str, chunk_sql: str, catalog: SchemaCatalog) -> str:
    """Append schema text for the SQL's referenced tables to the question.

    Output is ``question | table: desc; col(desc), col2 | table2 ...`` with
    tables in catalog order, referenced columns in catalog order, and empty
    descriptions elided. SQL touching no catalog tables yields the question
    plus a bare separator.
    """
    relevant = extract_relevant_set(chunk_sql, catalog)
    return _with_context(chunk_question, relevant, catalog)


def _with_context(question: str, relevant: RelevantSet, catalog: SchemaCatalog) -> str:
    return question + CONTEXT_SEPARATOR + describe_relevant(relevant, catalog)


def describe_relevant(relevant: RelevantSet, catalog: SchemaCatalog) -> str:
    segments = []
    for tid in sorted(relevant.tables):
        table = catalog.table(tid)
        seg = table.name
        if table.description:
            seg += ": " + table.description
        col_entries = []
        for _, cid in sorted((t, c) for t, c in relevant.columns if t == tid):
            col = catalog.column(cid)
            entry = col.name
            if col.description:
                entry += f"({col.description})"
            col_entries.append(entry)
        if col_entries:
            seg += "; " + ", ".join(col_entries)
        segments.append(seg)
    return CONTEXT_SEPARATOR.join(segments)


def build_chunk_index(
    trace: list[dict],
    catalog: SchemaCatalog,
    config: SimilarityConfig,
) -> ChunkIndex:
    """Label, contextualize, and embed every trace pair into an index.

    Trace entries are dicts with ``question``, ``sql``, and an optional
    ``tables`` list that overrides the extracted table set (columns are then
    restricted to the listed tables).
    """
    labelled: list[tuple[str, str, RelevantSet]] = []
    for entry in trace:
        relevant = extract_relevant_set(entry["sql"], catalog)
        if entry.get("tables") is not None:
            relevant = _apply_table_override(relevant, entry["tables"], catalog)
        labelled.append((entry["question"], entry["sql"], relevant))
    return index_labelled_chunks(labelled, catalog, config)


def index_labelled_chunks(
    labelled: list[tuple[str, str, RelevantSet]],
    catalog: SchemaCatalog,
    config: SimilarityConfig,
    vectors: np.ndarray | None = None,
) -> ChunkIndex:
    """Contextualize and embed already-labelled ``(question, sql, relevant)``
    triples; chunk ids follow list order.

    Only the external embedder stores vectors: ``vectors`` are its previously
    computed embeddings of the contextualized texts in chunk order (a saved
    index), and when given nothing is embedded. The built-in embedder's
    vectors are computed from the term counts inside the corpus.
    """
    if not labelled:
        raise ValueError("empty trace: chunk index needs at least one pair")
    chunks = [
        Chunk(
            id=i,
            question=question,
            sql=sql,
            relevant=relevant,
            contextualized=_with_context(question, relevant, catalog),
        )
        for i, (question, sql, relevant) in enumerate(labelled)
    ]
    texts = [c.contextualized for c in chunks]
    counts = [token_counts(text) for text in texts]
    stats = corpus_stats(counts)
    if vectors is None and config.embedder == "external":
        vectors = embed_batch(texts, config, stats)
    return ChunkIndex(chunks=chunks, corpus=Corpus(counts, config, stats, vectors))


def _apply_table_override(
    relevant: RelevantSet, table_names: list[str], catalog: SchemaCatalog
) -> RelevantSet:
    tables: set[TableId] = set()
    for name in table_names:
        tid = lookup_table(catalog, name)
        if tid is not None:
            tables.add(tid)
    columns = {(t, c) for (t, c) in relevant.columns if t in tables}
    return RelevantSet(tables=tables, columns=columns)


def retrieve_contextual(
    index: ChunkIndex,
    question: str,
    k: int,
    scope: set[TableId] | None = None,
    scope_mode: str = "intersect",
) -> ContextualResult:
    """Top-k most similar chunks and the union of their table sets.

    Ties break by ascending chunk id; ``k`` beyond the index size returns
    everything. With a scope, ``intersect`` mode keeps the global chunk
    ranking and intersects the output tables, while ``filter_chunks`` mode
    drops chunks with no in-scope table before ranking.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if scope_mode not in ("intersect", "filter_chunks"):
        raise ValueError(f"unknown scope_mode '{scope_mode}'")

    if scope is not None and scope_mode == "filter_chunks":
        candidate_ids = [
            c.id for c in index.chunks if c.relevant.tables & scope
        ]
    else:
        candidate_ids = list(range(len(index.chunks)))

    corpus = index.corpus
    qvec = None
    if corpus.config.metric == "cosine":
        qvec = embed(question, corpus.config, corpus.stats)
    scores = corpus.score(question, qvec, candidate_ids)
    ranked = top_k_exact(scores, candidate_ids, k)

    tables: set[TableId] = set()
    for chunk_id, _ in ranked:
        tables |= index.chunks[chunk_id].relevant.tables
    if scope is not None:
        tables &= scope
    return ContextualResult(ranked_chunks=ranked, tables=tables)

"""Structural retrieval over a deterministic schema knowledge graph.

The graph holds one triplet per column: (column, "is a column of", table),
rendered as a short sentence that carries the available descriptions. No
language model is involved in construction, so rebuilding from the same
catalog always yields the same graph. Retrieval scores the triplet surfaces
through the corpus's posting lists; triplets are stored contiguously per
table, so a table scope selects candidate ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import ColumnId, SchemaCatalog, TableId
from .similarity import (
    Corpus,
    SimilarityConfig,
    embed,
    embed_batch,
    token_counts,
)
from .topk import top_k_exact

RELATION_PHRASE = "is a column of"


@dataclass(frozen=True)
class Triplet:
    field: ColumnId
    table: TableId
    surface: str


@dataclass
class KnowledgeGraph:
    triplets: list[Triplet]  # in (table, column) order: contiguous per table
    corpus: Corpus  # over the triplet surfaces, in triplet order
    table_spans: dict[TableId, tuple[int, int]]  # table -> [first, end) triplet

    def __len__(self) -> int:
        return len(self.triplets)


@dataclass
class StructuralResult:
    ranked_triplets: list[tuple[int, float]]  # (triplet index, score)
    tables: set[TableId]
    scores: np.ndarray = field(repr=False, compare=False)  # every triplet's, in order


def triplet_surface(
    column_name: str,
    table_name: str,
    column_description: str = "",
    table_description: str = "",
) -> str:
    parts = [f"{column_name} {RELATION_PHRASE} {table_name}."]
    if column_description:
        parts.append(column_description)
    if table_description:
        parts.append(table_description)
    return " ".join(parts)


def build_knowledge_graph(
    catalog: SchemaCatalog,
    config: SimilarityConfig,
    vectors: np.ndarray | None = None,
) -> KnowledgeGraph:
    """One triplet per catalog column, in (table, column) order, embedded.

    Only the external embedder stores vectors: ``vectors`` are its previously
    computed surface embeddings in triplet order (a saved index), and when
    given nothing is embedded. The built-in embedder's vectors are computed
    from the term counts inside the corpus.
    """
    triplets: list[Triplet] = []
    table_spans: dict[TableId, tuple[int, int]] = {}
    for table in catalog.tables:
        first = len(triplets)
        for col in table.columns:
            surface = triplet_surface(
                col.name, table.name, col.description, table.description
            )
            triplets.append(Triplet(field=col.id, table=table.id, surface=surface))
        table_spans[table.id] = (first, len(triplets))

    surfaces = [t.surface for t in triplets]
    if vectors is None and config.embedder == "external":
        vectors = embed_batch(surfaces, config)
    counts = [token_counts(surface) for surface in surfaces]
    return KnowledgeGraph(
        triplets=triplets,
        corpus=Corpus(counts, config, vectors),
        table_spans=table_spans,
    )


def retrieve_structural(
    graph: KnowledgeGraph,
    question: str,
    l: int,
    scope: set[TableId] | None = None,
    scores: np.ndarray | None = None,
) -> StructuralResult:
    """Top-l triplets by similarity between the question and each surface.

    A scope restricts the candidate triplets to in-scope tables before
    ranking; ties break by ascending (table, column), which is the triplet
    construction order. ``l`` at or beyond the candidate count returns all.
    Given ``scores``, an earlier result's array for this question, nothing
    is scored again.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if scope is None:
        candidate_ids = np.arange(len(graph.triplets))
    else:
        spans = [graph.table_spans[t] for t in sorted(scope) if t in graph.table_spans]
        candidate_ids = np.concatenate(
            [np.arange(first, end) for first, end in spans] or [np.arange(0)]
        )

    if scores is None:
        corpus = graph.corpus
        cosine = corpus.config.metric == "cosine"
        qvec = embed(question, corpus.config, corpus.stats) if cosine else None
        scores = corpus.score(question, qvec)
    ranked = top_k_exact(scores[candidate_ids], candidate_ids, l)
    tables = {graph.triplets[i].table for i, _ in ranked}
    return StructuralResult(ranked_triplets=ranked, tables=tables, scores=scores)

"""Join-candidate ranking over a hypergraph of the narrowed table scope.

Tables are nodes; each hyperedge is a group of key columns likely to be
joined on in one SQL query. Groups are found by union-find over declared
foreign-key endpoint pairs and over identically named primary/foreign key
columns across the scope, so undeclared enterprise join conventions (shared
key names without FK constraints) are still recovered, deterministically.

Ranking scores every (node, hyperedge) incidence: the table.column rendering
is compared to the question, the similarity is divided by the node weight
(zero-weight nodes score zero), unavailable nodes are skipped entirely, and
the top h entities come back in descending score order with ties broken by
ascending (table, column).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .catalog import Column, ColumnId, SchemaCatalog, Table, TableId, check_types
from .similarity import (
    Corpus,
    SimilarityConfig,
    embed,
    embed_batch,
    token_counts,
)


@dataclass(frozen=True)
class RankingConfig:
    h: int = 16

    def __post_init__(self) -> None:
        check_types(self)
        if self.h < 1:
            raise ValueError("h must be >= 1")


@dataclass(frozen=True)
class Hyperedge:
    key: str  # normalized join-key name
    members: tuple[tuple[TableId, ColumnId], ...]  # sorted


@dataclass
class Hypergraph:
    nodes: set[TableId]
    hyperedges: list[Hyperedge]
    weights: dict[TableId, float]
    availability: dict[TableId, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class SemanticEntity:
    table: TableId
    column: ColumnId
    surface: str
    score: float


def render_entity(table: Table, column: Column) -> str:
    """The surface that ranking scores: ``table.column``."""
    return f"{table.name}.{column.name}"


def build_hypergraph(
    scope: set[TableId],
    catalog: SchemaCatalog,
    config: RankingConfig,
    unavailable: set[TableId] | frozenset[TableId] = frozenset(),
) -> Hypergraph:
    """Group the scope's key columns into hyperedges; every node weighs 1.

    Key columns are primary keys plus foreign-key endpoints owned by scope
    tables. Columns merge into one group when a foreign key links them (both
    endpoints in scope) or when their lowercase names match. Every group
    becomes a hyperedge keyed by its smallest member name. ``config`` is not
    read; perfbench's tracer still passes it positionally.
    """
    if not scope:
        raise ValueError("empty scope: hypergraph needs at least one table")
    known = catalog.all_table_ids()
    stray = scope - known
    if stray:
        raise ValueError(f"scope references unknown table ids: {sorted(stray)}")

    key_columns: dict[ColumnId, TableId] = {}
    for tid in scope:
        table = catalog.table(tid)
        for col in table.columns:
            if col.is_primary_key:
                key_columns[col.id] = tid
        for fk in table.foreign_keys:
            key_columns[fk.from_column] = tid
            if fk.to_table in scope:
                key_columns.setdefault(fk.to_column, fk.to_table)

    parent: dict[ColumnId, ColumnId] = {cid: cid for cid in key_columns}

    def find(x: ColumnId) -> ColumnId:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: ColumnId, b: ColumnId) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            # Smaller root wins, keeping grouping independent of union order.
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    # (a) declared foreign keys with both endpoints in scope.
    for tid in scope:
        for fk in catalog.table(tid).foreign_keys:
            if fk.to_table in scope and fk.from_column in parent and fk.to_column in parent:
                union(fk.from_column, fk.to_column)
    # (b) identically named key columns across scope tables.
    by_name: dict[str, ColumnId] = {}
    for cid in sorted(key_columns):
        name = catalog.column(cid).name.lower()
        if name in by_name:
            union(by_name[name], cid)
        else:
            by_name[name] = cid

    groups: dict[ColumnId, list[ColumnId]] = {}
    for cid in sorted(key_columns):
        groups.setdefault(find(cid), []).append(cid)

    hyperedges = []
    for members in groups.values():
        key = min(catalog.column(cid).name.lower() for cid in members)
        member_pairs = tuple(sorted((key_columns[cid], cid) for cid in members))
        hyperedges.append(Hyperedge(key=key, members=member_pairs))
    hyperedges.sort(key=lambda e: (e.key, e.members))

    return Hypergraph(
        nodes=set(scope),
        hyperedges=hyperedges,
        weights={tid: 1.0 for tid in scope},
        availability={tid: tid not in unavailable for tid in scope},
    )


def hypergraph_rank(
    hypergraph: Hypergraph,
    question: str,
    config: RankingConfig,
    sim: SimilarityConfig,
    catalog: SchemaCatalog,
) -> list[SemanticEntity]:
    """Score every available (node, hyperedge) incidence and keep the top h.

    Incidences of unavailable nodes are skipped before any scoring. The
    similarity of question and rendered entity is divided by the node weight;
    nodes with non-positive weight score exactly zero. For the cosine metric
    the idf statistics come from the candidate surfaces themselves, so the
    ranking depends only on the hypergraph, catalog, and question.
    """
    incidences: list[tuple[TableId, ColumnId, str]] = []
    counts = []
    for edge in hypergraph.hyperedges:
        for tid, cid in edge.members:
            if not hypergraph.availability.get(tid, True):
                continue
            surface, terms = _entity_terms(catalog, tid, cid)
            incidences.append((tid, cid, surface))
            counts.append(terms)

    if not incidences:
        return []

    tables, columns, surfaces = zip(*incidences)
    vectors = None
    if sim.embedder == "external":
        vectors = embed_batch(list(surfaces), sim)
    corpus = Corpus(counts, sim, vectors)
    qvec = embed(question, sim, corpus.stats) if sim.metric == "cosine" else None
    similarity = corpus.score(question, qvec)

    weights = np.array([hypergraph.weights.get(tid, 0.0) for tid in tables])
    scores = np.divide(
        similarity, weights, out=np.zeros_like(similarity), where=weights > 0
    )
    # Descending score, ties by ascending (table, column).
    top = np.lexsort((columns, tables, -scores))[: config.h].tolist()
    return [
        SemanticEntity(tables[i], columns[i], surfaces[i], float(scores[i]))
        for i in top
    ]


def _entity_terms(
    catalog: SchemaCatalog, tid: TableId, cid: ColumnId
) -> tuple[str, Counter[str]]:
    """The rendered entity and its term counts, tokenized once per catalog."""
    key = ("entity", tid, cid)
    cached = catalog.derived.get(key)
    if cached is None:
        surface = render_entity(catalog.table(tid), catalog.column(cid))
        cached = catalog.derived[key] = (surface, token_counts(surface))
    return cached

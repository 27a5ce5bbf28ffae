"""Join-candidate ranking over the narrowed table scope.

A query ranks the scope's key columns directly (``rank_key_columns``): the
primary keys and foreign-key columns of its tables, and each foreign key's
target when that table is in scope. Unavailable tables are dropped before any
scoring; each ``table.column`` rendering is compared to the question, and the
top h come back by descending score, ties by ascending (table, column).

``build_hypergraph`` groups the same key columns to explain that ranking.
Tables are nodes; each hyperedge is a group of lowercased key-column names,
found by union-find over the names: key columns that share a name are one
group, which recovers undeclared enterprise join conventions (shared key names
without FK constraints), and a declared foreign key merges its two endpoints'
groups. The result does not depend on iteration order. ``hypergraph_rank``
divides each incidence's similarity by its node's weight (zero-weight nodes
score zero); every node built here weighs 1, so it ranks as the query does.
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
    tables. Columns with the same lowercase name share a group, and a foreign
    key with both endpoints in scope merges its endpoints' groups. Every
    group becomes a hyperedge keyed by its smallest name, and the hyperedges
    come in key order. ``config`` is not read; perfbench's tracer still
    passes it positionally.
    """
    if not scope:
        raise ValueError("empty scope: hypergraph needs at least one table")
    known = catalog.all_table_ids()
    stray = scope - known
    if stray:
        raise ValueError(f"scope references unknown table ids: {sorted(stray)}")

    owners, links = _key_columns(scope, catalog)
    names = {cid: catalog.column(cid).name.lower() for cid in owners}
    parent = {name: name for name in names.values()}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    for a, b in links:
        # The smaller name wins, so every root is its group's smallest name.
        root, child = sorted((find(names[a]), find(names[b])))
        parent[child] = root

    groups: dict[str, list[tuple[TableId, ColumnId]]] = {}
    for cid, tid in owners.items():
        groups.setdefault(find(names[cid]), []).append((tid, cid))
    hyperedges = [
        Hyperedge(key=key, members=tuple(sorted(members)))
        for key, members in sorted(groups.items())
    ]

    return Hypergraph(
        nodes=set(scope),
        hyperedges=hyperedges,
        weights={tid: 1.0 for tid in scope},
        availability={tid: tid not in unavailable for tid in scope},
    )


def rank_key_columns(
    scope: set[TableId],
    question: str,
    h: int,
    sim: SimilarityConfig,
    catalog: SchemaCatalog,
    unavailable: set[TableId] | frozenset[TableId] = frozenset(),
) -> list[SemanticEntity]:
    """The top h key columns of the scope's available tables: what
    ``hypergraph_rank`` returns for ``build_hypergraph``'s hypergraph."""
    owners, _links = _key_columns(scope, catalog)
    incidences = [(tid, cid, 1.0) for cid, tid in owners.items() if tid not in unavailable]
    return _rank(incidences, question, h, sim, catalog)


def hypergraph_rank(
    hypergraph: Hypergraph,
    question: str,
    config: RankingConfig,
    sim: SimilarityConfig,
    catalog: SchemaCatalog,
) -> list[SemanticEntity]:
    """Rank every (node, hyperedge) incidence of an available node, each
    weighted by its node's weight, and keep the top ``config.h``."""
    incidences = [
        (tid, cid, hypergraph.weights.get(tid, 0.0))
        for edge in hypergraph.hyperedges
        for tid, cid in edge.members
        if hypergraph.availability.get(tid, True)
    ]
    return _rank(incidences, question, config.h, sim, catalog)


def _key_columns(scope: set[TableId], catalog: SchemaCatalog):
    """Every key column of the scope with its owner, and the foreign keys
    with both endpoints in scope as (from_column, to_column) links."""
    owners: dict[ColumnId, TableId] = {}
    links: list[tuple[ColumnId, ColumnId]] = []
    for tid in scope:
        table = catalog.table(tid)
        for col in table.columns:
            if col.is_primary_key:
                owners[col.id] = tid
        for fk in table.foreign_keys:
            owners[fk.from_column] = tid
            if fk.to_table in scope:
                owners[fk.to_column] = fk.to_table
                links.append((fk.from_column, fk.to_column))
    return owners, links


def _rank(
    incidences: list[tuple[TableId, ColumnId, float]],
    question: str,
    h: int,
    sim: SimilarityConfig,
    catalog: SchemaCatalog,
) -> list[SemanticEntity]:
    """Score each (table, column, weight) incidence, similarity over weight,
    and keep the top h. Cosine idf comes from the candidate surfaces alone,
    so the ranking depends only on the incidences, catalog and question."""
    if not incidences:
        return []
    tables, columns, weights = zip(*incidences)
    surfaces, counts = zip(*(_entity_terms(catalog, t, c) for t, c, _ in incidences))
    vectors = embed_batch(list(surfaces), sim) if sim.embedder == "external" else None
    corpus = Corpus(list(counts), sim, vectors)
    qvec = embed(question, sim, corpus.stats) if sim.metric == "cosine" else None
    similarity = corpus.score(question, qvec)

    weights = np.array(weights)
    scores = np.divide(
        similarity, weights, out=np.zeros_like(similarity), where=weights > 0
    )
    # Descending score, ties by ascending (table, column).
    top = np.lexsort((columns, tables, -scores))[:h].tolist()
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

"""Join-candidate ranking over a hypergraph of the narrowed table scope.

Tables are nodes; each hyperedge is a group of key columns likely to be
joined on in one SQL query. A group is a set of lowercased key-column names,
found by union-find over the names: key columns that share a name are always
in one group, which recovers undeclared enterprise join conventions (shared
key names without FK constraints), and a declared foreign key merges its two
endpoints' groups. The result does not depend on iteration order.

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

    # Every key column's owner, and the declared links between them.
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

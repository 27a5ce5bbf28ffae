import random

import pytest

from csr.catalog import load_catalog, lookup_table
from csr.relational import (
    Hyperedge,
    Hypergraph,
    RankingConfig,
    build_hypergraph,
    hypergraph_rank,
    render_entity,
)
from csr.similarity import (
    SimilarityConfig,
    bm25_score,
    build_corpus_stats,
    cosine_sim,
    embed,
)
from csr.synthetic import GeneratorProfile, generate_synthetic

SIM = SimilarityConfig(dimension=128)


def ranking_transcription(hypergraph, question, config, sim, catalog):
    """Line-by-line independent transcription of the ranking procedure:
    walk every (node, hyperedge) incidence, skip unavailable nodes, render
    the entity, score similarity over weight (zero for non-positive weight),
    sort descending with (table, column) tie-break, return the first h.
    """
    eligible = []
    for edge in hypergraph.hyperedges:
        for node, column in edge.members:
            if hypergraph.availability.get(node, True) is False:
                continue
            surface = render_entity(catalog.table(node), catalog.column(column))
            eligible.append((node, column, surface))
    if not eligible:
        return []
    stats = build_corpus_stats([s for _, _, s in eligible])
    scored = []
    if sim.metric == "bm25":
        sims = [bm25_score(question, s, stats, sim) for _, _, s in eligible]
    else:
        qv = embed(question, sim, stats)
        sims = [cosine_sim(qv, embed(s, sim, stats)) for _, _, s in eligible]
    for (node, column, surface), similarity in zip(eligible, sims):
        weight = hypergraph.weights.get(node, 0.0)
        score = similarity / weight if weight > 0 else 0.0
        scored.append((node, column, surface, score))
    scored.sort(key=lambda t: (-t[3], t[0], t[1]))
    return scored[: config.h]


def grouping_oracle(scope, catalog):
    """Brute-force join grouping: key columns are nodes, FK pairs and
    same-name pairs are edges, hyperedges are connected components.
    """
    key_cols = {}
    for tid in scope:
        table = catalog.table(tid)
        for col in table.columns:
            if col.is_primary_key:
                key_cols[col.id] = tid
        for fk in table.foreign_keys:
            key_cols[fk.from_column] = tid
            if fk.to_table in scope:
                key_cols.setdefault(fk.to_column, fk.to_table)
    edges = []
    for tid in scope:
        for fk in catalog.table(tid).foreign_keys:
            if fk.to_table in scope and fk.from_column in key_cols and fk.to_column in key_cols:
                edges.append((fk.from_column, fk.to_column))
    cols = sorted(key_cols)
    for i, a in enumerate(cols):
        for b in cols[i + 1 :]:
            if catalog.column(a).name.lower() == catalog.column(b).name.lower():
                edges.append((a, b))
    adj: dict[int, set[int]] = {c: set() for c in key_cols}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen: set[int] = set()
    components = []
    for c in cols:
        if c in seen:
            continue
        comp = set()
        stack = [c]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        components.append(frozenset((key_cols[x], x) for x in comp))
    return components


def oracle_hyperedges(scope, catalog):
    """``grouping_oracle``'s components as (key, members) pairs in hyperedge
    order: key is the smallest lowercased member name, members are sorted."""
    return sorted(
        (
            min(catalog.column(c).name.lower() for _, c in component),
            tuple(sorted(component)),
        )
        for component in grouping_oracle(scope, catalog)
    )


def mixed_case_document(rng):
    """A random schema document whose key names repeat across tables in mixed
    case, with foreign keys between differently named columns and
    self-references."""
    pool = ["id", "code", "owner_ref", "parent_id", "sku", "region_key", "batch_no"]
    tables = []
    for t in range(rng.randint(2, 8)):
        bases = rng.sample(pool, rng.randint(1, 4)) + ["label"]
        columns = [
            {
                "name": "".join(c.upper() if rng.random() < 0.5 else c for c in base),
                "primary_key": i == 0 or rng.random() < 0.2,
            }
            for i, base in enumerate(bases)
        ]
        tables.append({"name": f"t{t}", "columns": columns, "foreign_keys": []})
    for table in tables:
        for _ in range(rng.randint(0, 3)):
            target = rng.choice(tables)
            column = rng.choice(table["columns"])["name"]
            # Any column of the target but the foreign key's own.
            choices = [
                c["name"]
                for c in target["columns"]
                if target is not table or c["name"] != column
            ]
            table["foreign_keys"].append(
                {
                    "column": column,
                    "ref_table": target["name"],
                    "ref_column": rng.choice(choices),
                }
            )
    return {"tables": tables}


class TestRenderEntity:
    def test_concat_names(self, shop_catalog):
        orders = shop_catalog.table(lookup_table(shop_catalog, "orders"))
        pk = orders.column_by_name("order_id")
        assert render_entity(orders, pk) == "orders.order_id"


class TestBuildHypergraph:
    def test_fk_pair_forms_join_edge(self, shop_catalog):
        orders = lookup_table(shop_catalog, "orders")
        items = lookup_table(shop_catalog, "order_items")
        hg = build_hypergraph({orders, items}, shop_catalog, RankingConfig())
        keyed = {e.key: e for e in hg.hyperedges}
        edge = keyed["order_id"]
        member_names = {
            (shop_catalog.table(t).name, shop_catalog.column(c).name)
            for t, c in edge.members
        }
        assert member_names == {
            ("orders", "order_id"),
            ("order_items", "order_id"),
        }

    def test_isolated_table_gets_pk_singletons(self, shop_catalog):
        products = lookup_table(shop_catalog, "products")
        hg = build_hypergraph({products}, shop_catalog, RankingConfig())
        assert len(hg.hyperedges) == 1
        (edge,) = hg.hyperedges
        assert edge.key == "product_id"
        assert len(edge.members) == 1

    def test_star_schema_matches_grouping_oracle(self):
        doc = {"tables": []}
        for i in range(5):
            doc["tables"].append(
                {
                    "name": f"dim{i}",
                    "columns": [
                        {"name": f"dim{i}_key", "primary_key": True},
                        {"name": "label"},
                    ],
                }
            )
        doc["tables"].append(
            {
                "name": "fact",
                "columns": [{"name": "fact_id", "primary_key": True}]
                + [{"name": f"dim{i}_key"} for i in range(5)],
                "foreign_keys": [
                    {
                        "column": f"dim{i}_key",
                        "ref_table": f"dim{i}",
                        "ref_column": f"dim{i}_key",
                    }
                    for i in range(5)
                ],
            }
        )
        catalog = load_catalog(doc)
        scope = catalog.all_table_ids()
        hg = build_hypergraph(scope, catalog, RankingConfig())
        expected = {frozenset(e.members) for e in hg.hyperedges}
        assert expected == set(grouping_oracle(scope, catalog))
        counts = sorted(len(e.members) for e in hg.hyperedges)
        assert counts == [1, 2, 2, 2, 2, 2]  # fact_id alone, five shared keys

    def test_random_scopes_match_grouping_oracle(self, shop_catalog):
        rng = random.Random(5)
        all_ids = sorted(shop_catalog.all_table_ids())
        for _ in range(30):
            scope = set(rng.sample(all_ids, rng.randint(1, len(all_ids))))
            hg = build_hypergraph(scope, shop_catalog, RankingConfig())
            assert {frozenset(e.members) for e in hg.hyperedges} == set(
                grouping_oracle(scope, shop_catalog)
            )
            assert all(
                t in scope for e in hg.hyperedges for t, _ in e.members
            )

    def test_mixed_case_catalogs_match_grouping_oracle(self):
        rng = random.Random(25)
        for _ in range(40):
            catalog = load_catalog(mixed_case_document(rng))
            all_ids = sorted(catalog.all_table_ids())
            for _ in range(8):
                scope = set(rng.sample(all_ids, rng.randint(1, len(all_ids))))
                hg = build_hypergraph(scope, catalog, RankingConfig())
                assert [(e.key, e.members) for e in hg.hyperedges] == (
                    oracle_hyperedges(scope, catalog)
                )

    def test_empty_scope_rejected(self, shop_catalog):
        with pytest.raises(ValueError, match="empty scope"):
            build_hypergraph(set(), shop_catalog, RankingConfig())

    def test_unknown_table_rejected(self, shop_catalog):
        with pytest.raises(ValueError, match="unknown table"):
            build_hypergraph({999}, shop_catalog, RankingConfig())

    def test_uniform_weights_default(self, shop_catalog):
        hg = build_hypergraph(
            shop_catalog.all_table_ids(), shop_catalog, RankingConfig()
        )
        assert set(hg.weights.values()) == {1.0}
        assert all(hg.availability.values())


class TestRank:
    def test_zero_weight_scores_zero(self, shop_catalog):
        hg = build_hypergraph(
            shop_catalog.all_table_ids(), shop_catalog, RankingConfig()
        )
        hg.weights = {tid: 0.0 for tid in hg.nodes}
        entities = hypergraph_rank(
            hg, "orders order_id", RankingConfig(h=50), SIM, shop_catalog
        )
        assert entities
        assert all(e.score == 0.0 for e in entities)

    def test_unavailable_node_skipped_even_on_perfect_match(self, shop_catalog):
        orders = lookup_table(shop_catalog, "orders")
        scope = shop_catalog.all_table_ids()
        hg = build_hypergraph(
            scope, shop_catalog, RankingConfig(), unavailable={orders}
        )
        entities = hypergraph_rank(
            hg, "orders.order_id", RankingConfig(h=100), SIM, shop_catalog
        )
        assert entities
        assert all(e.table != orders for e in entities)

    def test_matches_transcription_on_fixture(self, shop_catalog):
        # Three nodes, four hyperedges, uniform weights.
        customers = lookup_table(shop_catalog, "customers")
        orders = lookup_table(shop_catalog, "orders")
        shipments = lookup_table(shop_catalog, "shipments")
        hg = build_hypergraph(
            {customers, orders, shipments}, shop_catalog, RankingConfig()
        )
        assert len(hg.hyperedges) == 4  # customer_id, order_id, region_id, shipment_id
        config = RankingConfig(h=6)
        entities = hypergraph_rank(
            hg, "which customer placed the order", config, SIM, shop_catalog
        )
        expected = ranking_transcription(
            hg, "which customer placed the order", config, SIM, shop_catalog
        )
        assert [(e.table, e.column, e.surface, e.score) for e in entities] == expected

    def test_doubling_weights_halves_scores(self, shop_catalog):
        scope = shop_catalog.all_table_ids()
        hg = build_hypergraph(scope, shop_catalog, RankingConfig())
        base = hypergraph_rank(
            hg, "orders by customer", RankingConfig(h=100), SIM, shop_catalog
        )
        hg2 = Hypergraph(
            nodes=hg.nodes,
            hyperedges=hg.hyperedges,
            weights={t: 2.0 for t in hg.nodes},
            availability=dict(hg.availability),
        )
        doubled = hypergraph_rank(
            hg2, "orders by customer", RankingConfig(h=100), SIM, shop_catalog
        )
        assert [(e.table, e.column) for e in base] == [
            (e.table, e.column) for e in doubled
        ]
        for a, b in zip(base, doubled):
            assert b.score == a.score / 2

    def test_uniform_weight_value_does_not_change_order(self, shop_catalog):
        scope = shop_catalog.all_table_ids()
        hg = build_hypergraph(scope, shop_catalog, RankingConfig())
        order_1 = [
            (e.table, e.column)
            for e in hypergraph_rank(
                hg, "shipment carrier", RankingConfig(h=100), SIM, shop_catalog
            )
        ]
        hg.weights = {t: 7.5 for t in hg.nodes}
        order_2 = [
            (e.table, e.column)
            for e in hypergraph_rank(
                hg, "shipment carrier", RankingConfig(h=100), SIM, shop_catalog
            )
        ]
        assert order_1 == order_2

    def test_output_length_and_surface_contract(self, shop_catalog):
        scope = shop_catalog.all_table_ids()
        hg = build_hypergraph(scope, shop_catalog, RankingConfig())
        incidences = sum(len(e.members) for e in hg.hyperedges)
        for h in (1, 3, incidences, incidences + 10):
            entities = hypergraph_rank(
                hg, "orders", RankingConfig(h=h), SIM, shop_catalog
            )
            assert len(entities) == min(h, incidences)
            for e in entities:
                table = shop_catalog.table(e.table)
                col = shop_catalog.column(e.column)
                assert f"{table.name}.{col.name}" in e.surface
                assert e.table in scope

    @pytest.mark.parametrize("metric", ["cosine", "bm25"])
    def test_random_hypergraphs_match_transcription(self, metric):
        catalog, _ = generate_synthetic(
            GeneratorProfile(table_count=10, query_count=4, seed=6)
        )
        sim = SimilarityConfig(dimension=128, metric=metric)
        rng = random.Random(17)
        vocab = "amount status code owner id key detail master price".split()
        for _ in range(40):
            scope = set(rng.sample(range(10), rng.randint(1, 10)))
            weights = {
                t: rng.choice([0.0, 0.5, 1.0, 2.0, 3.7]) for t in scope
            }
            availability = {t: rng.random() > 0.25 for t in scope}
            edges = []
            for tid in sorted(scope):
                cols = catalog.table(tid).columns
                chosen = rng.sample(cols, rng.randint(1, min(3, len(cols))))
                edges.append(
                    Hyperedge(
                        key=chosen[0].name.lower(),
                        members=tuple(sorted((tid, c.id) for c in chosen)),
                    )
                )
            hg = Hypergraph(
                nodes=scope, hyperedges=edges, weights=weights, availability=availability
            )
            config = RankingConfig(h=rng.randint(1, 12))
            question = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
            entities = hypergraph_rank(hg, question, config, sim, catalog)
            expected = ranking_transcription(hg, question, config, sim, catalog)
            assert [
                (e.table, e.column, e.surface, e.score) for e in entities
            ] == expected

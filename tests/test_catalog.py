import copy
import random

import pytest

from csr.catalog import (
    CatalogError,
    catalog_stats,
    load_catalog,
    lookup_table,
    to_document,
)
from csr.synthetic import build_group_catalog

from conftest import SHOP_DOCUMENT


def test_load_assigns_dense_ids_in_document_order(shop_catalog):
    assert [t.id for t in shop_catalog.tables] == list(range(6))
    all_columns = [c.id for t in shop_catalog.tables for c in t.columns]
    assert all_columns == list(range(24))


def test_load_group1_scale_document():
    catalog = build_group_catalog(50, 701)
    stats = catalog_stats(catalog)
    assert stats.table_count == 50
    assert stats.column_count == 701


def test_empty_catalog_rejected():
    with pytest.raises(CatalogError, match="empty catalog"):
        load_catalog({"tables": []})


def test_dangling_foreign_key_names_the_fk():
    doc = copy.deepcopy(SHOP_DOCUMENT)
    doc["tables"][1]["foreign_keys"][0]["ref_table"] = "ghosts"
    with pytest.raises(CatalogError, match="customers.region_id.*ghosts"):
        load_catalog(doc)


def test_fk_to_missing_column_rejected():
    doc = copy.deepcopy(SHOP_DOCUMENT)
    doc["tables"][1]["foreign_keys"][0]["ref_column"] = "nope"
    with pytest.raises(CatalogError, match="regions.nope"):
        load_catalog(doc)


def test_duplicate_table_name_rejected():
    doc = copy.deepcopy(SHOP_DOCUMENT)
    doc["tables"].append({"name": "Orders", "columns": [{"name": "x"}]})
    with pytest.raises(CatalogError, match="duplicate table name"):
        load_catalog(doc)


def test_duplicate_column_name_rejected():
    doc = copy.deepcopy(SHOP_DOCUMENT)
    doc["tables"][0]["columns"].append({"name": "NAME"})
    with pytest.raises(CatalogError, match="duplicate column name"):
        load_catalog(doc)


def test_table_without_columns_rejected():
    with pytest.raises(CatalogError, match="no columns"):
        load_catalog({"tables": [{"name": "empty", "columns": []}]})


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, []])
def test_primary_key_must_be_a_boolean(flag):
    doc = {"tables": [{"name": "t", "columns": [{"name": "a", "primary_key": flag}]}]}
    with pytest.raises(CatalogError, match=r"tables\[0\]\.columns\[0\]: primary_key"):
        load_catalog(doc)


def _rename(entry: dict, old: str, new: str) -> None:
    entry[new] = entry.pop(old)


# Each case edits a copy of the shop document (tables[1] is customers, whose
# one foreign key is tables[1].foreign_keys[0]) and names the error it gives.
@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda d: _rename(d["tables"][1], "foreign_keys", "foreign_key"),
            r"tables\[1\]: unknown key 'foreign_key'",
        ),
        (
            lambda d: _rename(d["tables"][0], "description", "descripton"),
            r"tables\[0\]: unknown key 'descripton'",
        ),
        (
            lambda d: d["tables"][0]["columns"][0].update(primary=True),
            r"tables\[0\]\.columns\[0\]: unknown key 'primary'",
        ),
        (
            lambda d: _rename(d["tables"][1]["foreign_keys"][0], "ref_column", "ref_col"),
            r"tables\[1\]\.foreign_keys\[0\]: unknown key 'ref_col'",
        ),
        (lambda d: d.update(version=1), r"schema document: unknown key 'version'"),
        (lambda d: d.update(tables={}), r"schema document: tables must be a list"),
        (
            lambda d: d["tables"][0].update(name=5),
            r"tables\[0\]: name must be a string",
        ),
        (
            lambda d: d["tables"][0].update(description=["x"]),
            r"tables\[0\]: description must be a string",
        ),
        (
            lambda d: d["tables"][0].update(description=None),
            r"tables\[0\]: description must be a string",
        ),
        (
            lambda d: d["tables"][0]["columns"][1].update(name=5),
            r"tables\[0\]\.columns\[1\]: name must be a string",
        ),
        (
            lambda d: d["tables"][0]["columns"][1].update(description=7),
            r"tables\[0\]\.columns\[1\]: description must be a string",
        ),
        (
            lambda d: d["tables"][0].update(columns={"name": "a"}),
            r"tables\[0\]: columns must be a list",
        ),
        (
            lambda d: d["tables"][0].update(columns=["region_id"]),
            r"tables\[0\]\.columns\[0\]: must be a JSON object",
        ),
        (
            lambda d: d["tables"][0].update(foreign_keys=0),
            r"tables\[0\]: foreign_keys must be a list",
        ),
        (
            lambda d: d["tables"][1]["foreign_keys"][0].update(ref_table=5),
            r"tables\[1\]\.foreign_keys\[0\]: ref_table must be a string",
        ),
        (
            lambda d: d["tables"][1].update(foreign_keys=["region_id"]),
            r"tables\[1\]\.foreign_keys\[0\]: must be a JSON object",
        ),
    ],
    ids=[
        "foreign_key", "descripton", "column-key", "foreign-key-key", "document-key",
        "tables-object",
        "table-name-5", "description-list", "description-null", "column-name-5",
        "column-description-7", "columns-object", "column-string", "foreign_keys-0",
        "ref_table-5", "foreign-key-string",
    ],
)
def test_malformed_entry_is_rejected_naming_its_place_and_key(edit, message):
    doc = copy.deepcopy(SHOP_DOCUMENT)
    edit(doc)
    with pytest.raises(CatalogError, match=f"^{message}$"):
        load_catalog(doc)


def test_self_loop_fk_rejected():
    doc = {
        "tables": [
            {
                "name": "t",
                "columns": [{"name": "a", "primary_key": True}],
                "foreign_keys": [
                    {"column": "a", "ref_table": "t", "ref_column": "a"}
                ],
            }
        ]
    }
    with pytest.raises(CatalogError, match="loops onto itself"):
        load_catalog(doc)


def test_self_referencing_fk_on_distinct_columns_allowed():
    doc = {
        "tables": [
            {
                "name": "employees",
                "columns": [
                    {"name": "employee_id", "primary_key": True},
                    {"name": "manager_id"},
                ],
                "foreign_keys": [
                    {
                        "column": "manager_id",
                        "ref_table": "employees",
                        "ref_column": "employee_id",
                    }
                ],
            }
        ]
    }
    catalog = load_catalog(doc)
    assert len(catalog.tables[0].foreign_keys) == 1


def test_lookup_table_case_insensitive(shop_catalog):
    tid = lookup_table(shop_catalog, "orders")
    assert tid is not None
    assert lookup_table(shop_catalog, "ORDERS") == tid
    assert lookup_table(shop_catalog, "Orders") == tid
    assert lookup_table(shop_catalog, "missing") is None


def test_round_trip_document(shop_catalog):
    doc = to_document(shop_catalog)
    reloaded = load_catalog(doc)
    assert to_document(reloaded) == doc
    assert [t.name for t in reloaded.tables] == [t.name for t in shop_catalog.tables]
    assert reloaded.column_count == shop_catalog.column_count


def test_load_deterministic(shop_catalog):
    again = load_catalog(SHOP_DOCUMENT)
    assert to_document(again) == to_document(shop_catalog)
    assert [t.id for t in again.tables] == [t.id for t in shop_catalog.tables]


def test_stats_single_table_no_fk():
    catalog = load_catalog(
        {"tables": [{"name": "solo", "columns": [{"name": "a"}, {"name": "b"}]}]}
    )
    stats = catalog_stats(catalog)
    assert stats.median_fk_per_table == 0
    assert stats.column_count == 2
    assert stats.stddev_columns_per_table == 0.0


def test_median_matches_sort_and_pick_oracle():
    # Random 10-table catalogs; oracle is: sort the per-table FK counts and
    # take the element at floor((n-1)/2).
    rng = random.Random(42)
    for _ in range(25):
        n = 10
        doc = {"tables": []}
        for i in range(n):
            doc["tables"].append(
                {"name": f"t{i}", "columns": [{"name": "pk", "primary_key": True}]}
            )
        for i in range(n):
            fk_count = rng.randrange(0, 4)
            cols = doc["tables"][i]["columns"]
            fks = []
            for j in range(fk_count):
                target = rng.randrange(0, n)
                if target == i:
                    continue
                cols.append({"name": f"ref{j}"})
                fks.append(
                    {"column": f"ref{j}", "ref_table": f"t{target}", "ref_column": "pk"}
                )
            if fks:
                doc["tables"][i]["foreign_keys"] = fks
        catalog = load_catalog(doc)
        stats = catalog_stats(catalog)
        oracle = sorted(stats.fk_per_table)[(n - 1) // 2]
        assert stats.median_fk_per_table == oracle


def test_column_count_equals_sum_of_table_columns(shop_catalog):
    stats = catalog_stats(shop_catalog)
    assert stats.column_count == sum(len(t.columns) for t in shop_catalog.tables)
    assert stats.table_count == len(stats.columns_per_table)
    assert stats.table_count == len(stats.fk_per_table)

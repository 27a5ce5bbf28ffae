import json
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csr.sqlrefs import (
    SqlExtractError,
    SqlTokenError,
    extract_relevant_set,
    tokenize_sql,
)

import legacy_sql_lexer

FIXTURE_PATH = Path(__file__).parent / "data" / "sql_fixture.jsonl"


def _load_fixture():
    cases = []
    with open(FIXTURE_PATH, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                cases.append(json.loads(line))
    return cases


class TestTokenizer:
    def test_keyword_and_identifier(self):
        tokens = tokenize_sql("SELECT x")
        assert [(t.kind, t.value) for t in tokens] == [
            ("keyword", "SELECT"),
            ("identifier", "x"),
        ]

    def test_comment_stripped(self):
        tokens = tokenize_sql("-- c\nSELECT 1")
        assert len(tokens) == 2
        assert tokens[0].value == "SELECT"
        assert tokens[1].kind == "number"

    def test_block_comment_stripped(self):
        tokens = tokenize_sql("SELECT /* a\nb */ x")
        assert [t.value for t in tokens] == ["SELECT", "x"]

    def test_string_escape_doubles(self):
        tokens = tokenize_sql("'a''b'")
        assert len(tokens) == 1
        assert tokens[0].kind == "string"
        assert tokens[0].value == "a'b"

    def test_offsets_are_byte_positions(self):
        tokens = tokenize_sql("SELECT  x")
        assert tokens[0].offset == 0
        assert tokens[1].offset == 8

    def test_offsets_count_utf8_bytes_before_the_token(self):
        tokens = tokenize_sql("é /* ü */ 数据 'x'")
        assert [(t.value, t.offset) for t in tokens] == [
            ("é", 0), ("数据", 12), ("x", 19)
        ]

    @pytest.mark.parametrize("sql", ["'\ud800'", "x \ud800", "\ud800 x"])
    def test_a_lone_surrogate_has_no_byte_offset(self, sql):
        with pytest.raises(UnicodeEncodeError):
            tokenize_sql(sql)

    def test_unterminated_string_reports_offset(self):
        with pytest.raises(SqlTokenError) as err:
            tokenize_sql("SELECT 'oops")
        assert err.value.offset == 7

    def test_unterminated_block_comment(self):
        with pytest.raises(SqlTokenError):
            tokenize_sql("SELECT /* nope")

    def test_quoted_identifiers(self):
        tokens = tokenize_sql('SELECT "My Col", `tick`, [brack]')
        idents = [t.value for t in tokens if t.kind == "identifier"]
        assert idents == ["My Col", "tick", "brack"]

    def test_unknown_characters_become_punct(self):
        tokens = tokenize_sql("SELECT x ~ y")
        kinds = [t.kind for t in tokens]
        assert kinds == ["keyword", "identifier", "punct", "identifier"]


class TestExtractor:
    def test_trivial_join(self, shop_catalog):
        rel = extract_relevant_set(
            "SELECT total FROM orders JOIN customers "
            "ON orders.customer_id = customers.customer_id",
            shop_catalog,
        )
        assert rel.table_names(shop_catalog) == {"orders", "customers"}
        assert {
            "orders.total",
            "orders.customer_id",
            "customers.customer_id",
        } == rel.column_names(shop_catalog)

    def test_select_constant_is_empty(self, shop_catalog):
        rel = extract_relevant_set("SELECT 1", shop_catalog)
        assert rel.tables == set()
        assert rel.columns == set()

    def test_empty_input_errors(self, shop_catalog):
        with pytest.raises(SqlExtractError):
            extract_relevant_set("", shop_catalog)
        with pytest.raises(SqlExtractError):
            extract_relevant_set("   \n", shop_catalog)

    @pytest.mark.parametrize("case", _load_fixture(), ids=lambda c: c["sql"][:40])
    def test_fixture_corpus(self, case, shop_catalog):
        rel = extract_relevant_set(case["sql"], shop_catalog)
        assert rel.table_names(shop_catalog) == set(case["expected_tables"])
        assert rel.column_names(shop_catalog) == set(case["expected_columns"])

    def test_result_always_subset_of_catalog(self, shop_catalog):
        rel = extract_relevant_set(
            "SELECT ghost.x, o.total FROM orders o JOIN ghost ON 1 = 1",
            shop_catalog,
        )
        catalog_ids = shop_catalog.all_table_ids()
        assert rel.tables <= catalog_ids
        for tid, cid in rel.columns:
            assert tid in rel.tables
            assert shop_catalog.column_owner(cid) == tid

    def test_whitespace_and_comments_do_not_change_result(self, shop_catalog):
        plain = "SELECT c.name FROM customers c WHERE c.email = 'x'"
        noisy = (
            "SELECT  /* pick name */  c.name\n"
            "FROM customers c -- the main table\n"
            "WHERE c.email = 'x'"
        )
        a = extract_relevant_set(plain, shop_catalog)
        b = extract_relevant_set(noisy, shop_catalog)
        assert a.tables == b.tables
        assert a.columns == b.columns

    def test_alias_and_direct_qualification_agree(self, shop_catalog):
        via_alias = extract_relevant_set(
            "SELECT a.total FROM orders AS a", shop_catalog
        )
        direct = extract_relevant_set(
            "SELECT orders.total FROM orders", shop_catalog
        )
        assert via_alias.tables == direct.tables
        assert via_alias.columns == direct.columns

    def test_cte_names_not_treated_as_tables(self, shop_catalog):
        rel = extract_relevant_set(
            "WITH totals AS (SELECT customer_id FROM orders), "
            "named AS (SELECT name FROM customers) "
            "SELECT t.customer_id FROM totals t",
            shop_catalog,
        )
        assert rel.table_names(shop_catalog) == {"orders", "customers"}

    def test_ambiguous_unqualified_column_dropped(self, shop_catalog):
        # price exists in both products and order_items.
        rel = extract_relevant_set(
            "SELECT price FROM products p JOIN order_items oi "
            "ON oi.product_id = p.product_id",
            shop_catalog,
        )
        names = rel.column_names(shop_catalog)
        assert "products.price" not in names
        assert "order_items.price" not in names

    def test_qualified_ref_to_unlisted_table_ignored(self, shop_catalog):
        # regions never appears in a FROM/JOIN clause here, so regions.name
        # must not leak into the result.
        rel = extract_relevant_set(
            "SELECT regions.name FROM customers", shop_catalog
        )
        assert rel.table_names(shop_catalog) == {"customers"}
        assert rel.column_names(shop_catalog) == set()


# Pieces of SQL (keywords, shop names, quotes, comment and bracket marks,
# multi-byte text) glued with and without spaces, so random texts reach the
# tokenizer's literal and comment branches and the extractor's clauses.
_SQL_PIECES = st.sampled_from(
    [
        "SELECT", "FROM", "JOIN", "ON", "WHERE", "WITH", "AS", "GROUP BY",
        "customers", "orders", "c", "o", "name", "customer_id", "c.name",
        "(", ")", ",", ".", "*", "=", ";", "'", "''", "'x'", '"', "`", "[",
        "]", "--", "/*", "*/", "\n", "1.5", "é", "数据", " ",
    ]
)
_SQL_TEXTS = st.text() | st.lists(_SQL_PIECES | st.text(max_size=3), max_size=24).map(
    "".join
) | st.lists(_SQL_PIECES, max_size=24).map(" ".join)


@settings(max_examples=500, deadline=None)
@given(sql=_SQL_TEXTS)
def test_token_offsets_increase_within_the_utf8_text(sql):
    try:
        tokens = tokenize_sql(sql)
    except SqlTokenError:
        return
    offsets = [t.offset for t in tokens]
    assert all(a < b for a, b in zip(offsets, offsets[1:]))
    assert all(0 <= o < len(sql.encode("utf-8")) for o in offsets)


@settings(max_examples=500, deadline=None)
@given(sql=_SQL_TEXTS)
def test_extraction_raises_only_sql_errors(shop_catalog, sql):
    try:
        extract_relevant_set(sql, shop_catalog)
    except (SqlTokenError, SqlExtractError):
        pass


# Characters ``str.isnumeric`` accepts that are neither decimal digits nor
# letters (``²``, ``½``, ``Ⅷ``). ``re`` cannot tell them from the digits and
# letters ``str.isdigit``/``str.isalpha`` name, so the compiled lexer reads
# them as identifier characters where the character scanner did not.
_NUMERIC_NOT_DECIMAL = frozenset(
    c
    for c in map(chr, range(sys.maxunicode + 1))
    if c.isnumeric() and not c.isdecimal() and not c.isalpha()
)


def _lexed(tokenize, sql):
    """The (kind, value, offset) triples, or the error's message and offset."""
    try:
        return [tuple(t) for t in tokenize(sql)]
    except SqlTokenError as exc:
        return str(exc), exc.offset


@pytest.mark.parametrize("sql", [c["sql"] for c in _load_fixture()], ids=lambda s: s[:40])
def test_lexer_matches_the_character_scanner_on_the_fixture_corpus(sql):
    assert _lexed(tokenize_sql, sql) == _lexed(legacy_sql_lexer.tokenize_sql, sql)


@settings(max_examples=2000, deadline=None)
@given(sql=_SQL_TEXTS)
def test_lexer_matches_the_character_scanner(sql):
    assume(_NUMERIC_NOT_DECIMAL.isdisjoint(sql))
    assert _lexed(tokenize_sql, sql) == _lexed(legacy_sql_lexer.tokenize_sql, sql)


@pytest.mark.parametrize(
    "sql, tokens",
    [
        ("²", [("identifier", "²", 0)]),
        ("½", [("identifier", "½", 0)]),
        ("Ⅷ", [("identifier", "Ⅷ", 0)]),
        ("1²", [("number", "1", 0), ("identifier", "²", 1)]),
        ("x²", [("identifier", "x²", 0)]),
        ("'²'", [("string", "²", 0)]),
    ],
)
def test_numeric_characters_that_are_not_digits_read_as_identifier_text(sql, tokens):
    assert _lexed(tokenize_sql, sql) == tokens

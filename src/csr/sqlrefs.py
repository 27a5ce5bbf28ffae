"""Extract referenced tables and columns from SQL text.

This is a clause-level scanner, not a full SQL grammar: it tokenizes the
statement, tracks CTE and derived-table aliases, binds table references
found after FROM / JOIN / UPDATE / INSERT INTO, and then resolves qualified
and unqualified column references against the catalog. Identifiers that
cannot be resolved are ignored rather than rejected, because enterprise SQL
carries dialect quirks a strict parser would choke on.

Attribution rules for unqualified columns are deliberately conservative:
a name is attributed only when exactly one in-scope table owns a column of
that name; ambiguous names are dropped from the column set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .catalog import ColumnId, SchemaCatalog, TableId, lookup_table


class SqlTokenError(ValueError):
    """Tokenizer failure (unterminated literal or comment); carries offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte offset {offset}")
        self.offset = offset


class SqlExtractError(ValueError):
    pass


# Reserved words that shape clause structure. Anything here is never treated
# as a table alias or a column reference.
KEYWORDS = frozenset(
    """
    select from where group by having order limit offset join inner left
    right full outer cross natural on using as and or not in exists between
    like ilike is null case when then else end union all except intersect
    with recursive insert into values update set delete distinct asc desc
    cast over partition window fetch first next rows only returning lateral
    """.split()
)

_TABLE_INTRO = {"FROM", "JOIN", "UPDATE", "INTO"}
_NOT_A_COLUMN_AFTER = _TABLE_INTRO | {"AS"}


class SqlToken(NamedTuple):
    kind: str  # keyword | identifier | number | string | punct
    value: str
    offset: int  # byte offset of the token start


@dataclass
class RelevantSet:
    """Tables and (table, column) pairs referenced by one SQL statement."""

    tables: set[TableId] = field(default_factory=set)
    columns: set[tuple[TableId, ColumnId]] = field(default_factory=set)

    def table_names(self, catalog: SchemaCatalog) -> set[str]:
        return {catalog.table(t).name for t in self.tables}

    def column_names(self, catalog: SchemaCatalog) -> set[str]:
        return {
            f"{catalog.table(t).name}.{catalog.column(c).name}"
            for t, c in self.columns
        }


# One alternative per token kind, tried in order at each position, so ``--``,
# ``/*`` and ``.5`` are read before the one-character punctuation they start
# with. Block comments, strings and quoted identifiers share the ``closed``
# group: each body stops only at its own closer or at the end of the text, so
# the group is None exactly when the construct is unterminated. A word starts
# with a letter, ``_`` or a numeric character that is not a decimal digit
# (``²``, ``½``, ``Ⅷ``); ``\d`` is a decimal digit. Any other character is
# punctuation, so the extractor never rejects one.
_TOKEN = re.compile(
    r"""
      (?P<word> [^\W\d][\w$\#]* )
    | (?P<skip> \s+ | --[^\n]* )
    | (?P<quoted>
          (?: /\*(?:[^*]|\*(?!/))*
            | '(?:[^']|'')*
            | "(?:[^"]|"")*
            | `(?:[^`]|``)*
            | \[[^\]]*
          )
          (?P<closed> \*/ | ['"`\]] )?
      )
    | (?P<number> \.?\d (?:[\d.]|[eE][+-]?)* )
    | (?P<punct> <= | >= | <> | != | \|\| | :: | . )
    """,
    re.VERBOSE | re.DOTALL,
)

# What an opening character starts: the token kind (None for a block
# comment) and the error raised when the text ends before its closer.
_OPENERS = {
    "/": (None, "unterminated block comment"),
    "'": ("string", "unterminated string literal"),
    '"': ("identifier", "unterminated quoted identifier"),
    "`": ("identifier", "unterminated quoted identifier"),
    "[": ("identifier", "unterminated quoted identifier"),
}


def tokenize_sql(sql: str) -> list[SqlToken]:
    """Tokenize SQL into typed tokens with byte offsets; comments stripped.

    String literals use single quotes with ``''`` escaping; identifiers may
    be double-quoted, backtick-quoted, or bracket-quoted. Raises
    SqlTokenError for unterminated literals or block comments.
    """
    tokens: list[SqlToken] = []
    # Byte and character offsets agree only in ASCII text. Encoding also
    # raises UnicodeEncodeError for a lone surrogate, which has no bytes.
    ascii_text = len(sql.encode("utf-8")) == len(sql)
    start = offset = 0  # character and byte position of the last token
    for m in _TOKEN.finditer(sql):
        kind, value = m.lastgroup, m.group()
        if kind == "skip":
            continue
        if ascii_text:
            offset = m.start()
        else:
            offset += len(sql[start : m.start()].encode("utf-8"))
            start = m.start()
        if kind == "quoted":
            kind, unterminated = _OPENERS[value[0]]
            if m["closed"] is None:
                raise SqlTokenError(unterminated, offset)
            if kind is None:
                continue
            # A doubled closer stands for one; ``[...]`` holds no ``]`` at all.
            closer = value[-1]
            value = value[1:-1].replace(closer * 2, closer)
        elif kind == "word":
            if value.lower() in KEYWORDS:
                kind, value = "keyword", value.upper()
            else:
                kind = "identifier"
        tokens.append(SqlToken(kind, value, offset))
    return tokens


def extract_relevant_set(sql: str, catalog: SchemaCatalog) -> RelevantSet:
    """Resolve the tables and columns one SQL statement references.

    Tables come from FROM/JOIN/UPDATE/INSERT clauses with aliases resolved
    and CTE names excluded; columns come from qualified ``alias.column`` /
    ``table.column`` references plus unambiguous unqualified names.
    """
    tokens = tokenize_sql(sql)
    if not tokens:  # blank, or comments only
        raise SqlExtractError("empty SQL input")

    cte_names = _collect_cte_names(tokens)
    derived_aliases = _collect_post_paren_aliases(tokens)

    result = RelevantSet()
    # alias or bare name (lowercase) -> TableId, or None for a known
    # non-catalog source (CTE, derived table, unknown table).
    alias_map: dict[str, TableId | None] = {}

    # A table-reference list holds no FROM/JOIN/UPDATE/INTO, so binding one
    # after each of them never skips another.
    for idx, tok in enumerate(tokens):
        if tok.kind == "keyword" and tok.value in _TABLE_INTRO:
            _bind_table_refs(
                tokens, idx + 1, tok.value, catalog, cte_names, alias_map, result
            )

    _collect_columns(tokens, catalog, alias_map, derived_aliases, cte_names, result)
    return result


def _collect_cte_names(tokens: list[SqlToken]) -> set[str]:
    """Names bound by WITH clauses: ``WITH a AS (...), b AS (...)``."""
    names: set[str] = set()
    i = 0
    while i < len(tokens):
        if tokens[i].kind == "keyword" and tokens[i].value == "WITH":
            j = i + 1
            if j < len(tokens) and tokens[j].kind == "keyword" and tokens[j].value == "RECURSIVE":
                j += 1
            while j < len(tokens) and tokens[j].kind == "identifier":
                names.add(tokens[j].value.lower())
                j += 1
                # Optional explicit column list before AS.
                if j < len(tokens) and tokens[j].value == "(":
                    j = _skip_parens(tokens, j)
                if j < len(tokens) and tokens[j].kind == "keyword" and tokens[j].value == "AS":
                    j += 1
                if j < len(tokens) and tokens[j].value == "(":
                    j = _skip_parens(tokens, j)
                if j < len(tokens) and tokens[j].value == ",":
                    j += 1
                    continue
                break
            i = j
            continue
        i += 1
    return names


def _skip_parens(tokens: list[SqlToken], open_idx: int) -> int:
    """Index just past the parenthesis group opening at ``open_idx``."""
    depth = 0
    i = open_idx
    while i < len(tokens):
        if tokens[i].value == "(" and tokens[i].kind == "punct":
            depth += 1
        elif tokens[i].value == ")" and tokens[i].kind == "punct":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


def _collect_post_paren_aliases(tokens: list[SqlToken]) -> set[str]:
    """Identifiers aliasing a parenthesized group: ``) [AS] name``.

    Covers derived tables and select-list expression aliases; both must be
    kept out of the column attribution pass.
    """
    aliases: set[str] = set()
    for i, tok in enumerate(tokens):
        if tok.kind != "punct" or tok.value != ")":
            continue
        j = i + 1
        if j < len(tokens) and tokens[j].kind == "keyword" and tokens[j].value == "AS":
            j += 1
        if j < len(tokens) and tokens[j].kind == "identifier":
            # Not an alias if the identifier starts a dotted chain's qualifier
            # position (cannot happen after ')') or opens a call.
            if j + 1 < len(tokens) and tokens[j + 1].value == "(":
                continue
            aliases.add(tokens[j].value.lower())
    return aliases


def _bind_table_refs(
    tokens: list[SqlToken],
    start: int,
    intro: str,
    catalog: SchemaCatalog,
    cte_names: set[str],
    alias_map: dict[str, TableId | None],
    result: RelevantSet,
) -> None:
    """Bind one table-reference list beginning after FROM/JOIN/UPDATE/INTO.

    A derived table ``(`` ends the list: the main pass scans the subquery's
    own FROM clause, and its trailing alias lands in the excluded set via
    _collect_post_paren_aliases. A comma continuing the outer FROM list
    after the group is not chased.
    """
    i = start
    while i < len(tokens) and tokens[i].kind == "identifier":
        chain, i = _dotted_name(tokens, i)
        name = chain[-1]
        bound: TableId | None = None
        if name.lower() not in cte_names:
            bound = lookup_table(catalog, name)
            if bound is not None:
                result.tables.add(bound)
        alias_map.setdefault(name.lower(), bound)
        if i < len(tokens) and tokens[i].kind == "keyword" and tokens[i].value == "AS":
            i += 1
        if i < len(tokens) and tokens[i].kind == "identifier":
            alias_map[tokens[i].value.lower()] = bound
            i += 1
        # FROM lists may continue with commas; JOIN/UPDATE/INTO do not.
        if intro != "FROM" or i >= len(tokens) or tokens[i].value != ",":
            return
        i += 1


def _dotted_name(tokens: list[SqlToken], i: int) -> tuple[list[str], int]:
    """The names of the dotted chain ``a.b.c`` whose first identifier is
    ``tokens[i]``, and the index just past the chain."""
    chain = [tokens[i].value]
    i += 1
    while (
        i + 1 < len(tokens)
        and tokens[i].kind == "punct"
        and tokens[i].value == "."
        and tokens[i + 1].kind == "identifier"
    ):
        chain.append(tokens[i + 1].value)
        i += 2
    return chain, i


def _collect_columns(
    tokens: list[SqlToken],
    catalog: SchemaCatalog,
    alias_map: dict[str, TableId | None],
    derived_aliases: set[str],
    cte_names: set[str],
    result: RelevantSet,
) -> None:
    n = len(tokens)
    i = 0
    while i < n:
        tok = tokens[i]
        if tok.kind != "identifier":
            i += 1
            continue
        chain, j = _dotted_name(tokens, i)
        follows_call = j < n and tokens[j].kind == "punct" and tokens[j].value == "("
        names_a_table_or_alias = (
            i > 0
            and tokens[i - 1].kind == "keyword"
            and tokens[i - 1].value in _NOT_A_COLUMN_AFTER
        )
        if follows_call or names_a_table_or_alias:
            i = j
            continue

        if len(chain) >= 2:
            qualifier, column = chain[-2].lower(), chain[-1]
            tid = alias_map.get(qualifier)
            if tid is None and qualifier not in alias_map:
                # Direct table-name qualification without an alias binding;
                # only accept tables already in the statement's table set.
                candidate = lookup_table(catalog, qualifier)
                if candidate is not None and candidate in result.tables:
                    tid = candidate
            if tid is not None:
                col = catalog.table(tid).column_by_name(column)
                if col is not None:
                    result.columns.add((tid, col.id))
        else:
            name = chain[0]
            lowered = name.lower()
            if (
                lowered not in alias_map
                and lowered not in derived_aliases
                and lowered not in cte_names
            ):
                owned = [
                    (tid, col.id)
                    for tid in sorted(result.tables)
                    if (col := catalog.table(tid).column_by_name(name)) is not None
                ]
                if len(owned) == 1:
                    result.columns.add(owned[0])
        i = j

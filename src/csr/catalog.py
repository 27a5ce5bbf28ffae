"""Database schema catalog: tables, columns, foreign keys, descriptions.

The catalog is loaded once from a JSON schema document, validated, and then
treated as immutable. Every other component (SQL reference extraction, the
retrievers, the ranker) resolves names through it, so ids are assigned
densely in document order to keep downstream indexing and tie-breaking
deterministic.

Schema document format::

    {"tables": [{"name": ..., "description": ...,
                 "columns": [{"name": ..., "description": ..., "primary_key": ...}],
                 "foreign_keys": [{"column": ..., "ref_table": ..., "ref_column": ...}]}]}

``description`` and ``primary_key`` are optional; missing descriptions are
stored as empty strings so text assembly never special-cases them. An entry
holding another key, or a value of another JSON type, is rejected.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

TableId = int
ColumnId = int


class CatalogError(ValueError):
    """Raised for malformed schema documents; message carries the location."""


def from_document(cls, doc, name: str, **parsers):
    """Build the dataclass ``cls`` from the JSON object ``doc``; ``parsers``
    turn a nested field's non-null raw value into its object. A non-object,
    a key ``cls`` has no field for, a wrongly typed value or a failed check
    is a ``ValueError`` that starts ``invalid {name}``."""
    try:
        if not isinstance(doc, dict):
            raise ValueError("must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        nested = {k: v for k, v in doc.items() if k in parsers and v is not None}
        return cls(**{**doc, **{k: parsers[k](v) for k, v in nested.items()}})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid {name}: {exc}") from exc


def parse_json(text: str | bytes):
    """``json.loads``, except that a document nested too deeply for the
    parser is a ``ValueError`` like any other invalid JSON."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def read_json(path: str | Path):
    """The JSON document in the file at ``path``. Bytes that are not UTF-8
    JSON text are a ``ValueError`` that starts with the path."""
    raw = Path(path).read_bytes()
    try:
        return parse_json(raw.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def is_int(value) -> bool:
    """An integer that is not a boolean (JSON true/false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


# How a message names the JSON values of each scalar annotation: one, many.
_JSON_NAMES = {
    bool: ("a boolean", "booleans"),
    int: ("an integer", "integers"),
    float: ("a finite number", "finite numbers"),
    str: ("a string", "strings"),
    list: ("a list", "lists"),
}
_COUNTS = {2: "two", 3: "three", 4: "four"}
_type_hints = cache(get_type_hints)  # a class's annotations, resolved once


def check_types(obj, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming the first field of the dataclass ``obj`` whose
    value is not a JSON value of the field's annotation: ``bool`` takes only
    true and false, ``int`` an integer but not a boolean, ``float`` a finite
    int or float, ``str`` a string; ``X | None`` also takes null,
    ``tuple[X, ...]`` and ``list[X]`` a list or tuple of X, ``tuple[X, X, X]``
    exactly three X, and a dataclass type an instance of it."""
    hints = _type_hints(type(obj))
    for f in fields(obj):
        if not _accepts(hints[f.name])(getattr(obj, f.name)):
            raise error(f"{f.name} must be {_describe(hints[f.name])}")


@cache
def _accepts(annotation) -> Callable[[object], bool]:
    """Whether a value is a JSON value of ``annotation``, as a predicate
    built once per annotation."""
    if annotation is int:
        return is_int
    if annotation is float:  # an int too, if a float can hold it
        return lambda v: (
            (is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max
        )
    args = get_args(annotation)
    if get_origin(annotation) is Literal:
        return lambda v: isinstance(v, str) and v in args
    if not args:  # bool, str or a dataclass
        return lambda v: isinstance(v, annotation)
    item = _accepts(args[0])
    if type(None) in args:  # X | None
        return lambda v: v is None or item(v)
    fixed = get_origin(annotation) is tuple and args[-1] is not Ellipsis
    size = len(args) if fixed else None  # tuple[X, X] holds two X
    return lambda v: (
        isinstance(v, (list, tuple))
        and (size is None or len(v) == size)
        and all(map(item, v))
    )


def _describe(annotation, many: bool = False) -> str:
    """The values ``annotation`` accepts, in words (plural when ``many``);
    a fixed-length tuple is named by its length and first item type."""
    args = get_args(annotation)
    if get_origin(annotation) is Literal:
        return "one of " + ", ".join(map(repr, args))
    if not args:  # bool, int, float, str, list or a dataclass
        return _JSON_NAMES.get(annotation, ("a JSON object", "JSON objects"))[many]
    if type(None) in args:
        return f"{_describe(args[0], many)} or null"
    fixed = args[-1] is not Ellipsis and get_origin(annotation) is tuple
    count = f"{_COUNTS.get(len(args), len(args))} " if fixed else ""
    return f"{'lists' if many else 'a list'} of {count}{_describe(args[0], True)}"


@dataclass(frozen=True)
class Column:
    id: ColumnId  # globally unique, dense within a catalog
    name: str
    description: str = ""
    is_primary_key: bool = False


@dataclass(frozen=True)
class ForeignKey:
    from_table: TableId
    from_column: ColumnId
    to_table: TableId
    to_column: ColumnId


@dataclass(frozen=True)
class Table:
    id: TableId
    name: str
    description: str = ""
    columns: tuple[Column, ...] = ()
    foreign_keys: tuple[ForeignKey, ...] = ()

    def column_by_name(self, name: str) -> Column | None:
        return _find_column(self.columns, name)


@dataclass(frozen=True)
class CatalogStats:
    table_count: int
    column_count: int
    fk_per_table: tuple[int, ...]
    columns_per_table: tuple[int, ...]
    median_fk_per_table: float
    stddev_columns_per_table: float


@dataclass
class SchemaCatalog:
    """Validated, immutable-by-convention schema catalog."""

    tables: list[Table]
    name_index: dict[str, TableId] = field(default_factory=dict)
    _columns: list[tuple[TableId, Column]] = field(default_factory=list, repr=False)
    # Text derived from the catalog by later layers (rendered entities and
    # their term counts), filled on first use and never changed.
    derived: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name_index:
            self.name_index = {t.name.lower(): t.id for t in self.tables}
        if not self._columns:
            for t in self.tables:
                for c in t.columns:
                    self._columns.append((t.id, c))
            self._columns.sort(key=lambda pair: pair[1].id)

    @property
    def column_count(self) -> int:
        return len(self._columns)

    def table(self, table_id: TableId) -> Table:
        return self.tables[table_id]

    def column(self, column_id: ColumnId) -> Column:
        return self._columns[column_id][1]

    def column_owner(self, column_id: ColumnId) -> TableId:
        return self._columns[column_id][0]

    def all_table_ids(self) -> set[TableId]:
        return {t.id for t in self.tables}


def load_catalog(source: str | Path | dict) -> SchemaCatalog:
    """Load and validate a schema document into a catalog.

    ``source`` is a path to a JSON document or an already-parsed dict.
    Ids are dense integers assigned in document order, so identical
    documents always produce identical catalogs.
    """
    if isinstance(source, (str, Path)):
        try:
            doc = read_json(source)
        except ValueError as exc:
            raise CatalogError(str(exc)) from exc
    else:
        doc = source

    _check_entry(doc, "schema document", {"tables": list})
    table_docs = doc.get("tables")
    if not table_docs:
        raise CatalogError("empty catalog: schema document has zero tables")

    tables: list[Table] = []
    name_to_id: dict[str, TableId] = {}
    next_column_id = 0

    # First pass: tables and columns, so foreign keys can resolve forward refs.
    parsed_columns: list[list[Column]] = []
    for ti, tdoc in enumerate(table_docs):
        loc = f"tables[{ti}]"
        _check_entry(tdoc, loc, _TABLE_KEYS)
        name = tdoc.get("name")
        if not name:
            raise CatalogError(f"{loc}: table entry must have a 'name'")
        if name.lower() in name_to_id:
            raise CatalogError(f"{loc}: duplicate table name '{name}'")
        name_to_id[name.lower()] = ti

        col_docs = tdoc.get("columns", [])
        if not col_docs:
            raise CatalogError(f"{loc} ('{name}'): table has no columns")
        columns: list[Column] = []
        seen_cols: set[str] = set()
        for ci, cdoc in enumerate(col_docs):
            cloc = f"{loc}.columns[{ci}]"
            _check_entry(cdoc, cloc, _COLUMN_KEYS)
            cname = cdoc.get("name")
            if not cname:
                raise CatalogError(f"{cloc}: column entry must have a 'name'")
            if cname.lower() in seen_cols:
                raise CatalogError(
                    f"{cloc}: duplicate column name '{cname}' in table '{name}'"
                )
            seen_cols.add(cname.lower())
            columns.append(
                Column(
                    id=next_column_id,
                    name=cname,
                    description=cdoc.get("description", ""),
                    is_primary_key=cdoc.get("primary_key", False),
                )
            )
            next_column_id += 1
        parsed_columns.append(columns)

    # Second pass: foreign keys, now that every table and column is known.
    for ti, tdoc in enumerate(table_docs):
        name = tdoc["name"]
        fks: list[ForeignKey] = []
        for fi, fdoc in enumerate(tdoc.get("foreign_keys", [])):
            floc = f"tables[{ti}].foreign_keys[{fi}]"
            _check_entry(fdoc, floc, _FOREIGN_KEY_KEYS)
            col_name = fdoc.get("column", "")
            ref_table = fdoc.get("ref_table", "")
            ref_column = fdoc.get("ref_column", "")
            from_col = _find_column(parsed_columns[ti], col_name)
            if from_col is None:
                raise CatalogError(
                    f"{floc}: column '{col_name}' not found in table '{name}'"
                )
            ref_tid = name_to_id.get(ref_table.lower())
            if ref_tid is None:
                raise CatalogError(
                    f"{floc}: foreign key '{name}.{col_name}' references "
                    f"nonexistent table '{ref_table}'"
                )
            to_col = _find_column(parsed_columns[ref_tid], ref_column)
            if to_col is None:
                raise CatalogError(
                    f"{floc}: foreign key '{name}.{col_name}' references "
                    f"nonexistent column '{ref_table}.{ref_column}'"
                )
            if ti == ref_tid and from_col.id == to_col.id:
                raise CatalogError(
                    f"{floc}: foreign key '{name}.{col_name}' loops onto itself"
                )
            fks.append(
                ForeignKey(
                    from_table=ti,
                    from_column=from_col.id,
                    to_table=ref_tid,
                    to_column=to_col.id,
                )
            )
        tables.append(
            Table(
                id=ti,
                name=name,
                description=tdoc.get("description", ""),
                columns=tuple(parsed_columns[ti]),
                foreign_keys=tuple(fks),
            )
        )

    return SchemaCatalog(tables=tables)


# The keys each kind of schema entry may hold, and the type of each value.
_TABLE_KEYS = {"name": str, "description": str, "columns": list, "foreign_keys": list}
_COLUMN_KEYS = {"name": str, "description": str, "primary_key": bool}
_FOREIGN_KEY_KEYS = {"column": str, "ref_table": str, "ref_column": str}


def _check_entry(doc, loc: str, keys: dict[str, type]) -> None:
    """Raise a CatalogError at ``loc`` unless ``doc`` is an object whose keys
    are all in ``keys``, each holding a JSON value of its type."""
    if not isinstance(doc, dict):
        raise CatalogError(f"{loc}: must be a JSON object")
    for key, value in doc.items():
        if key not in keys:
            raise CatalogError(f"{loc}: unknown key '{key}'")
        if not isinstance(value, keys[key]):
            raise CatalogError(f"{loc}: {key} must be {_JSON_NAMES[keys[key]][0]}")


def _find_column(columns: Sequence[Column], name: str) -> Column | None:
    """The column named ``name``, compared case-insensitively; None when absent."""
    lowered = name.lower()
    for col in columns:
        if col.name.lower() == lowered:
            return col
    return None


def to_document(catalog: SchemaCatalog) -> dict:
    """Serialize a catalog back to the schema document form (round-trips)."""
    tables = []
    for t in catalog.tables:
        tdoc: dict = {"name": t.name}
        if t.description:
            tdoc["description"] = t.description
        cols = []
        for c in t.columns:
            cdoc: dict = {"name": c.name}
            if c.description:
                cdoc["description"] = c.description
            if c.is_primary_key:
                cdoc["primary_key"] = True
            cols.append(cdoc)
        tdoc["columns"] = cols
        fks = []
        for fk in t.foreign_keys:
            ref_table = catalog.table(fk.to_table)
            fks.append(
                {
                    "column": catalog.column(fk.from_column).name,
                    "ref_table": ref_table.name,
                    "ref_column": catalog.column(fk.to_column).name,
                }
            )
        if fks:
            tdoc["foreign_keys"] = fks
        tables.append(tdoc)
    return {"tables": tables}


def lookup_table(catalog: SchemaCatalog, name: str) -> TableId | None:
    """Case-insensitive exact-name table lookup; None when absent."""
    return catalog.name_index.get(name.lower())


def lookup_tables(catalog: SchemaCatalog, names) -> set[TableId]:
    """The ids of the named tables; a name not in the catalog is a ValueError."""
    ids = {name: lookup_table(catalog, name) for name in names}
    unknown = [name for name, tid in ids.items() if tid is None]
    if unknown:
        raise ValueError(f"no table named {', '.join(map(repr, unknown))}")
    return set(ids.values())


def catalog_stats(catalog: SchemaCatalog) -> CatalogStats:
    """Distributional summaries of the catalog shape.

    The foreign-key median uses the lower-median convention (sorted values,
    element at index floor((n-1)/2)); the columns-per-table spread is the
    population standard deviation.
    """
    fk_counts = tuple(len(t.foreign_keys) for t in catalog.tables)
    col_counts = tuple(len(t.columns) for t in catalog.tables)
    return CatalogStats(
        table_count=len(catalog.tables),
        column_count=sum(col_counts),
        fk_per_table=fk_counts,
        columns_per_table=col_counts,
        median_fk_per_table=float(lower_median(fk_counts)),
        stddev_columns_per_table=_population_stddev(col_counts),
    )


def lower_median(values: tuple[int, ...] | list[int]) -> int:
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def _population_stddev(values: tuple[int, ...]) -> float:
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))

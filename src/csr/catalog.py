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
stored as empty strings so text assembly never special-cases them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

TableId = int
ColumnId = int


class CatalogError(ValueError):
    """Raised for malformed schema documents; message carries the location."""


def from_document(cls, doc, name: str, **parsers):
    """Build the dataclass ``cls`` from the JSON object ``doc``; ``parsers``
    turn a nested field's raw value into its object. A non-object, a key
    ``cls`` has no field for, a wrongly typed value or a failed check is a
    ``ValueError`` that starts ``invalid {name}``."""
    try:
        if not isinstance(doc, dict):
            raise ValueError("must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        return cls(**{k: parsers[k](v) if k in parsers else v for k, v in doc.items()})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid {name}: {exc}") from exc


def is_int(value) -> bool:
    """An integer that is not a boolean (JSON true/false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        lowered = name.lower()
        for col in self.columns:
            if col.name.lower() == lowered:
                return col
        return None


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
    # their term counts), filled on first use. Entries are never changed, so
    # concurrent readers at most compute one twice.
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
        path = Path(source)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CatalogError(f"cannot read schema document {path}: {exc}") from exc
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CatalogError(f"{path}: not valid JSON: {exc}") from exc
    else:
        doc = source

    if not isinstance(doc, dict) or not isinstance(doc.get("tables"), list):
        raise CatalogError("schema document must be an object with a 'tables' list")
    table_docs = doc["tables"]
    if not table_docs:
        raise CatalogError("empty catalog: schema document has zero tables")

    tables: list[Table] = []
    name_to_id: dict[str, TableId] = {}
    next_column_id = 0

    # First pass: tables and columns, so foreign keys can resolve forward refs.
    parsed_columns: list[list[Column]] = []
    for ti, tdoc in enumerate(table_docs):
        loc = f"tables[{ti}]"
        if not isinstance(tdoc, dict) or not tdoc.get("name"):
            raise CatalogError(f"{loc}: table entry must have a 'name'")
        name = str(tdoc["name"])
        if name.lower() in name_to_id:
            raise CatalogError(f"{loc}: duplicate table name '{name}'")
        name_to_id[name.lower()] = ti

        col_docs = tdoc.get("columns") or []
        if not col_docs:
            raise CatalogError(f"{loc} ('{name}'): table has no columns")
        columns: list[Column] = []
        seen_cols: set[str] = set()
        for ci, cdoc in enumerate(col_docs):
            cloc = f"{loc}.columns[{ci}]"
            if not isinstance(cdoc, dict) or not cdoc.get("name"):
                raise CatalogError(f"{cloc}: column entry must have a 'name'")
            cname = str(cdoc["name"])
            if cname.lower() in seen_cols:
                raise CatalogError(
                    f"{cloc}: duplicate column name '{cname}' in table '{name}'"
                )
            seen_cols.add(cname.lower())
            columns.append(
                Column(
                    id=next_column_id,
                    name=cname,
                    description=str(cdoc.get("description") or ""),
                    is_primary_key=bool(cdoc.get("primary_key", False)),
                )
            )
            next_column_id += 1
        parsed_columns.append(columns)

    # Second pass: foreign keys, now that every table and column is known.
    for ti, tdoc in enumerate(table_docs):
        name = str(tdoc["name"])
        fks: list[ForeignKey] = []
        for fi, fdoc in enumerate(tdoc.get("foreign_keys") or []):
            floc = f"tables[{ti}].foreign_keys[{fi}]"
            if not isinstance(fdoc, dict):
                raise CatalogError(f"{floc}: foreign key entry must be an object")
            col_name = str(fdoc.get("column") or "")
            ref_table = str(fdoc.get("ref_table") or "")
            ref_column = str(fdoc.get("ref_column") or "")
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
                description=str(tdoc.get("description") or ""),
                columns=tuple(parsed_columns[ti]),
                foreign_keys=tuple(fks),
            )
        )

    return SchemaCatalog(tables=tables)


def _find_column(columns: list[Column], name: str) -> Column | None:
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

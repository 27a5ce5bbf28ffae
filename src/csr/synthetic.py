"""Seeded generator for enterprise-profile catalogs and question traces.

Public text-to-SQL benchmarks skew small: few joins per query, few foreign
keys per table. This generator plants the opposite shape. Foreign keys are
wired by preferential attachment so hub tables emerge, per-query relevant
sets are drawn from a two-part distribution (geometric body, heavy tail)
solved numerically to hit a target tail probability and standard deviation,
and questions are template text built from the planted tables' names and
columns. Everything derives from one seed: the same profile always yields
byte-identical catalogs and traces.

Queries come in groups of variants: each group plants one relevant set and
phrases several differently-worded questions over it, which is what lets a
held-out variant be answered from its siblings in the index.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .catalog import SchemaCatalog, check_types, from_document, load_catalog

DEFAULT_SEED = 94010


class ProfileError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorProfile:
    table_count: int = 100
    fk_median_target: float = 8.0
    tables_per_query_p_ge7: float = 0.25
    tables_per_query_stddev: float = 3.3
    columns_per_table_mean: float = 12.3
    seed: int = DEFAULT_SEED
    query_count: int = 500
    variants_per_group: int = 4

    def __post_init__(self) -> None:
        check_types(self, ProfileError)
        if min(self.table_count, self.query_count, self.variants_per_group) < 1:
            raise ProfileError("counts must be >= 1")
        if self.table_count > NAME_POOL_SIZE:
            raise ProfileError(f"table_count exceeds name pool ({NAME_POOL_SIZE})")
        if not 0.0 <= self.tables_per_query_p_ge7 <= 1.0:
            raise ProfileError("tables_per_query_p_ge7 must be in [0, 1]")
        if self.fk_median_target < 0 or self.tables_per_query_stddev <= 0:
            raise ProfileError("distribution targets must be positive")

    @staticmethod
    def from_dict(doc) -> "GeneratorProfile":
        return from_document(GeneratorProfile, doc, "generator profile")


PRIMARY_WORDS = [
    "customer", "order", "invoice", "shipment", "warehouse", "product",
    "supplier", "payment", "employee", "region", "contract", "asset",
    "ledger", "account", "ticket", "vendor", "campaign", "refund",
    "inventory", "audit", "freight", "billing", "territory", "quota",
    "discount", "delivery", "branch", "partner", "claim", "policy",
    "subscription", "license", "machine", "sensor", "batch", "route",
    "tariff", "voucher", "depot", "carrier",
]

SECONDARY_WORDS = [
    "header", "detail", "line", "history", "summary", "log", "map",
    "stage", "archive", "snapshot", "bridge", "link", "master", "profile",
    "event", "queue", "entry", "item", "note", "record", "metric",
    "trail", "board", "chain",
]
NAME_POOL_SIZE = len(PRIMARY_WORDS) * len(SECONDARY_WORDS)

ATTRIBUTE_WORDS = [
    "amount", "quantity", "status", "created_at", "updated_at", "code",
    "type", "priority", "score", "balance", "note", "flag", "total",
    "category", "owner", "cost", "price", "weight", "volume", "currency",
    "tax", "net", "gross", "margin", "rating", "grade", "level", "cycle",
    "phase", "source", "channel", "method", "mode", "duration", "distance",
    "capacity", "frequency", "version", "label", "comment", "reason",
    "origin", "city", "country", "zone", "segment", "bucket", "tier",
]

_MAX_QUERY_TABLES = 14

QUESTION_TEMPLATES = [
    "how many {col} per {first}{across}",
    "list {col} for each {first}{joined}",
    "show total {col} by {col2} combining {all}",
    "which {first} records have the highest {col}{among}",
    "count {first} entries linked to {rest}",
    "report {col} and {col2} from {all} together",
    "find top {first} by {col}{including}",
    "average {col} for {first} grouped across {rest}",
]


def generate_synthetic(
    profile: GeneratorProfile,
) -> tuple[SchemaCatalog, list[dict]]:
    """Generate a catalog and a grouped question/SQL trace from one seed."""
    attr_mean = profile.columns_per_table_mean - 1 - profile.fk_median_target
    if attr_mean < 0:
        raise ProfileError(
            "infeasible profile: fk_median_target "
            f"{profile.fk_median_target} leaves no column budget under "
            f"columns_per_table_mean {profile.columns_per_table_mean}"
        )
    rng = random.Random(profile.seed)

    fk_counts = [
        min(max(0, round(rng.gauss(profile.fk_median_target, 2.5))),
            profile.table_count - 1)
        for _ in range(profile.table_count)
    ]
    attr_counts = [
        max(0, round(rng.gauss(attr_mean, 2.0))) for _ in range(profile.table_count)
    ]
    doc = _catalog_document(profile.table_count, fk_counts, attr_counts, rng)
    catalog = load_catalog(doc)

    trace = _generate_trace(catalog, profile, rng)
    return catalog, trace


def build_group_catalog(
    table_count: int, column_count: int, seed: int = 0
) -> SchemaCatalog:
    """Catalog with an exact total column count, for fixed-size fixtures."""
    if table_count > NAME_POOL_SIZE:
        raise ProfileError(f"table_count exceeds name pool ({NAME_POOL_SIZE})")
    if column_count < table_count:
        raise ProfileError("need at least one column per table")
    rng = random.Random(seed)
    base, rem = divmod(column_count, table_count)
    col_totals = [base + (1 if i < rem else 0) for i in range(table_count)]
    fk_counts = [
        min(2 + (i % 3), col_totals[i] - 1, table_count - 1)
        for i in range(table_count)
    ]
    attr_counts = [
        col_totals[i] - 1 - fk_counts[i] for i in range(table_count)
    ]
    doc = _catalog_document(table_count, fk_counts, attr_counts, rng)
    return load_catalog(doc)


def _catalog_document(
    table_count: int,
    fk_counts: list[int],
    attr_counts: list[int],
    rng: random.Random,
) -> dict:
    picks = rng.sample(range(NAME_POOL_SIZE), table_count)
    names = [
        f"{PRIMARY_WORDS[p // len(SECONDARY_WORDS)]}_{SECONDARY_WORDS[p % len(SECONDARY_WORDS)]}"
        for p in picks
    ]

    # Preferential attachment: tables already referenced attract more keys.
    indegree = [0] * table_count
    fk_targets: list[list[int]] = []
    for i in range(table_count):
        chosen: list[int] = []
        for _ in range(fk_counts[i]):
            candidates = [
                t for t in range(table_count) if t != i and t not in chosen
            ]
            if not candidates:
                break
            weights = [1 + indegree[t] for t in candidates]
            picked = rng.choices(candidates, weights)[0]
            chosen.append(picked)
            indegree[picked] += 1
        fk_targets.append(chosen)

    tables = []
    for i, tname in enumerate(names):
        words = tname.replace("_", " ")
        columns = [
            {
                "name": f"{tname}_id",
                "description": f"Primary identifier for {words}.",
                "primary_key": True,
            }
        ]
        fks = []
        for target in fk_targets[i]:
            target_name = names[target]
            columns.append(
                {
                    "name": f"{target_name}_id",
                    "description": f"Reference to {target_name.replace('_', ' ')}.",
                }
            )
            fks.append(
                {
                    "column": f"{target_name}_id",
                    "ref_table": target_name,
                    "ref_column": f"{target_name}_id",
                }
            )
        n_attrs = attr_counts[i]
        attr_names = rng.sample(ATTRIBUTE_WORDS, min(n_attrs, len(ATTRIBUTE_WORDS)))
        for extra in range(len(ATTRIBUTE_WORDS), n_attrs):
            attr_names.append(f"field_{extra}")
        for attr in attr_names:
            columns.append(
                {
                    "name": attr,
                    "description": f"{attr.replace('_', ' ').capitalize()} recorded for each {words}.",
                }
            )
        tables.append(
            {
                "name": tname,
                "description": f"Operational records for {words} tracking.",
                "columns": columns,
                "foreign_keys": fks,
            }
        )
    return {"tables": tables}


def solve_size_distribution(
    p_tail: float, std_target: float
) -> list[tuple[int, float]]:
    """Probability mass over relevant-set sizes 1..14.

    Mass ``p_tail`` sits on sizes >= 7. Both the geometric decay of the body
    (1..6) and of the tail (7..14) are grid-searched so the distribution's
    standard deviation lands as close as possible to the target.
    """
    grid = [0.30 + 0.01 * i for i in range(71)]  # 0.30 .. 1.00
    best: tuple[float, list[tuple[int, float]]] | None = None
    for r in grid:
        body_w = [r ** (i - 1) for i in range(1, 7)]
        body_total = sum(body_w)
        for q in grid:
            tail_w = [q ** (j - 7) for j in range(7, _MAX_QUERY_TABLES + 1)]
            tail_total = sum(tail_w)
            pmf = [
                (i, (1 - p_tail) * w / body_total)
                for i, w in zip(range(1, 7), body_w)
            ] + [
                (j, p_tail * w / tail_total)
                for j, w in zip(range(7, _MAX_QUERY_TABLES + 1), tail_w)
            ]
            mean = sum(s * p for s, p in pmf)
            var = sum(s * s * p for s, p in pmf) - mean * mean
            err = abs(math.sqrt(max(var, 0.0)) - std_target)
            if best is None or err < best[0]:
                best = (err, pmf)
    assert best is not None
    return best[1]


def _sample_pmf(pmf: list[tuple[int, float]], rng: random.Random) -> int:
    r = rng.random()
    acc = 0.0
    for size, p in pmf:
        acc += p
        if r < acc:
            return size
    return pmf[-1][0]


def _generate_trace(
    catalog: SchemaCatalog, profile: GeneratorProfile, rng: random.Random
) -> list[dict]:
    adjacency: dict[int, set[int]] = {t.id: set() for t in catalog.tables}
    for table in catalog.tables:
        for fk in table.foreign_keys:
            adjacency[fk.from_table].add(fk.to_table)
            adjacency[fk.to_table].add(fk.from_table)

    pmf = solve_size_distribution(
        profile.tables_per_query_p_ge7, profile.tables_per_query_stddev
    )
    trace: list[dict] = []
    group_count = math.ceil(profile.query_count / profile.variants_per_group)
    template_offset = 0
    for _group in range(group_count):
        size = min(_sample_pmf(pmf, rng), profile.table_count)
        members = _connected_walk(size, catalog, adjacency, rng)
        for variant in range(profile.variants_per_group):
            if len(trace) >= profile.query_count:
                break
            template_idx = (template_offset + variant) % len(QUESTION_TEMPLATES)
            question, sql = _render_query(members, catalog, template_idx, rng)
            trace.append({"question": question, "sql": sql})
        template_offset += 1
    return trace


def _connected_walk(
    size: int,
    catalog: SchemaCatalog,
    adjacency: dict[int, set[int]],
    rng: random.Random,
) -> list[int]:
    start = rng.randrange(len(catalog.tables))
    selected = [start]
    selected_set = {start}
    while len(selected) < size:
        frontier = sorted(
            {n for t in selected for n in adjacency[t]} - selected_set
        )
        if frontier:
            nxt = rng.choice(frontier)
        else:
            remaining = sorted(set(adjacency) - selected_set)
            if not remaining:
                break
            nxt = rng.choice(remaining)
        selected.append(nxt)
        selected_set.add(nxt)
    return selected


def _attribute_columns(catalog: SchemaCatalog, tid: int) -> list:
    table = catalog.table(tid)
    return [
        c for c in table.columns if not c.is_primary_key and not c.name.endswith("_id")
    ]


def _render_query(
    members: list[int],
    catalog: SchemaCatalog,
    template_idx: int,
    rng: random.Random,
) -> tuple[str, str]:
    aliases = {tid: f"a{pos}" for pos, tid in enumerate(members)}

    # Pick one or two attribute columns to project; fall back to COUNT(*).
    attr_pool = [
        (tid, col) for tid in members for col in _attribute_columns(catalog, tid)
    ]
    projected: list[tuple[int, str]] = []
    if attr_pool:
        for tid, col in rng.sample(attr_pool, min(2, len(attr_pool))):
            projected.append((tid, col.name))
    select_parts = [f"{aliases[t]}.{c}" for t, c in projected] or ["COUNT(*)"]

    from_table = catalog.table(members[0])
    sql_parts = [
        f"SELECT {', '.join(select_parts)} FROM {from_table.name} {aliases[members[0]]}"
    ]
    for pos in range(1, len(members)):
        tid = members[pos]
        join_clause = _join_condition(members[:pos], tid, catalog, aliases)
        sql_parts.append(f"JOIN {catalog.table(tid).name} {aliases[tid]} {join_clause}")
    if rng.random() < 0.4 and projected:
        tid, col = projected[0]
        sql_parts.append(f"WHERE {aliases[tid]}.{col} IS NOT NULL")
    sql = " ".join(sql_parts)

    question = _render_question(members, projected, catalog, template_idx)
    return question, sql


def _join_condition(
    earlier: list[int], tid: int, catalog: SchemaCatalog, aliases: dict[int, str]
) -> str:
    for prev in earlier:
        for fk in catalog.table(tid).foreign_keys:
            if fk.to_table == prev:
                return (
                    f"ON {aliases[tid]}.{catalog.column(fk.from_column).name}"
                    f" = {aliases[prev]}.{catalog.column(fk.to_column).name}"
                )
        for fk in catalog.table(prev).foreign_keys:
            if fk.to_table == tid:
                return (
                    f"ON {aliases[prev]}.{catalog.column(fk.from_column).name}"
                    f" = {aliases[tid]}.{catalog.column(fk.to_column).name}"
                )
    return "ON 1 = 1"


def _render_question(
    members: list[int],
    projected: list[tuple[int, str]],
    catalog: SchemaCatalog,
    template_idx: int,
) -> str:
    names = [catalog.table(t).name.replace("_", " ") for t in members]
    first = names[0]
    rest = ", ".join(names[1:])
    all_names = ", ".join(names)
    col = projected[0][1].replace("_", " ") if projected else "records"
    col2 = projected[1][1].replace("_", " ") if len(projected) > 1 else "entries"
    template = QUESTION_TEMPLATES[template_idx]
    return template.format(
        col=col,
        col2=col2,
        first=first,
        rest=rest or first,
        all=all_names,
        across=f" across {rest}" if rest else "",
        joined=f" joined with {rest}" if rest else "",
        among=f" among {rest}" if rest else "",
        including=f" including {rest} details" if rest else "",
    )

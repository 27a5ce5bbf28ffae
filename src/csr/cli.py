"""Command-line surface: index, query, eval, bench, serve.

Errors print one machine-parseable JSON line to stderr; ``main`` maps every
error type to its exit code in one place. Exit codes: 0 on success, 2 for
validation, I/O, artifact or embedding-provider failures, 3 when the
retrieval scope collapses.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
from pathlib import Path

from .artifacts import ArtifactError, load_index, save_index
from .catalog import (
    CatalogError,
    check_types,
    from_document,
    load_catalog,
    parse_json,
    read_json,
)
from .contextual import build_chunk_index
from .evaluation import (
    default_sweep_schedules,
    latency_bench,
    run_sweep,
    split_trace,
    write_sweep_csv,
)
from .pipeline import (
    IterationSchedule,
    PipelineConfig,
    QueryRequest,
    ScopeCollapsedError,
    answer,
    default_schedule,
    load_pipeline_config,
)
from .service import RetrievalService, serve_forever
from .similarity import EmbeddingProviderError
from .structural import build_knowledge_graph
from .synthetic import GeneratorProfile, ProfileError, generate_synthetic

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_SCOPE_COLLAPSED = 3

EMBEDDER_ENDPOINT_ENV = "CSR_EMBEDDER_ENDPOINT"


def _fail(code: int, **fields) -> int:
    print(json.dumps(fields, sort_keys=True), file=sys.stderr)
    return code


@dataclasses.dataclass(frozen=True)
class TraceEntry:
    """One line of a question/SQL trace; ``tables``, when given, overrides
    the table set extracted from the SQL."""

    question: str
    sql: str
    tables: list[str] | None = None

    def __post_init__(self) -> None:
        check_types(self)
        for name in ("question", "sql"):
            if not getattr(self, name).strip():
                raise ValueError(f"{name} must be a nonempty string")


def _load_trace(path: str | Path) -> list[dict]:
    """The trace's entries as the dicts ``build_chunk_index`` takes; a line
    that is not a valid ``TraceEntry`` is an error naming ``path:line``."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                entry = from_document(TraceEntry, parse_json(line), "trace entry")
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
            entries.append(dataclasses.asdict(entry))
    if not entries:
        raise ValueError(f"{path}: empty trace")
    return entries


def _load_config(path: str | None) -> PipelineConfig:
    config = load_pipeline_config(path) if path else PipelineConfig()
    endpoint = os.environ.get(EMBEDDER_ENDPOINT_ENV)
    if endpoint:
        config.similarity = dataclasses.replace(
            config.similarity, external_endpoint=endpoint
        )
    return config


def _prepare_inputs(args) -> tuple:
    """Resolve (catalog, trace) from the --schema and --trace files, or
    generate them from --profile and --seed."""
    if args.schema is None and args.trace is None:
        profile = GeneratorProfile()
        if args.profile:
            profile = GeneratorProfile.from_dict(read_json(args.profile))
        if args.seed is not None:
            profile = dataclasses.replace(profile, seed=args.seed)
        return generate_synthetic(profile)
    if None in (args.schema, args.trace) or (args.profile, args.seed) != (None, None):
        raise ValueError(
            "--schema and --trace must be given together, and without "
            "--profile or --seed"
        )
    return load_catalog(args.schema), _load_trace(args.trace)


def cmd_index(args) -> int:
    config = _load_config(args.config)
    catalog = load_catalog(args.schema)
    trace = _load_trace(args.trace)
    chunk_index = build_chunk_index(trace, catalog, config.similarity)
    graph = build_knowledge_graph(catalog, config.similarity)
    manifest = save_index(args.out, catalog, chunk_index, graph, config)
    print(
        json.dumps(
            {
                "out": str(args.out),
                "files": sorted(manifest["files"]),
                "schema_version": manifest["schema_version"],
            }
        )
    )
    return EXIT_OK


def _parse_schedule_flag(text: str) -> IterationSchedule:
    """Parse ``k,l,h;k,l,h;...`` into a schedule; an error names the flag."""
    try:
        steps = [[int(x) for x in part.split(",")] for part in text.split(";")]
        return IterationSchedule(steps)
    except ValueError as exc:
        raise ValueError(f"--schedule {text!r}: {exc}") from exc


def cmd_query(args) -> int:
    catalog, chunk_index, graph, config, manifest = load_index(args.index)
    schedule = None if args.schedule is None else _parse_schedule_flag(args.schedule)
    request = QueryRequest(args.question, schedule, args.max_entities, args.timings)
    payload = answer(
        request, chunk_index, graph, catalog, config, manifest["schema_version"]
    )
    if args.tables_only:
        for name in payload["tables"]:
            print(name)
    else:
        print(json.dumps(payload))
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    catalog, trace = _prepare_inputs(args)
    if args.schedules:
        docs = read_json(args.schedules)
        if not isinstance(docs, list):
            raise ValueError("--schedules must be a JSON list of schedules")
        schedules = [IterationSchedule.from_dict(d) for d in docs]
    else:
        schedules = default_sweep_schedules(len(catalog.tables))
    rows = run_sweep(catalog, trace, schedules, config, args.hold_out_every)
    write_sweep_csv(rows, args.out, group=args.group)
    print(json.dumps({"out": str(args.out), "rows": len(rows)}))
    return EXIT_OK


def cmd_bench(args) -> int:
    config = _load_config(args.config)
    catalog, trace = _prepare_inputs(args)
    build, held = split_trace(trace)
    chunk_index = build_chunk_index(build, catalog, config.similarity)
    graph = build_knowledge_graph(catalog, config.similarity)
    schedule = config.schedule or default_schedule(len(catalog.tables))
    report = latency_bench(
        chunk_index,
        graph,
        catalog,
        schedule,
        config,
        [e["question"] for e in held],
        repetitions=args.repetitions,
    )
    doc = report.to_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2), encoding="utf-8")
    print(json.dumps(doc))
    return EXIT_OK


def cmd_serve(args) -> int:
    host, _, port_text = args.bind.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not 0 <= port <= 65535:
        return _fail(EXIT_ERROR, error=f"invalid bind address '{args.bind}'")
    catalog, chunk_index, graph, config, manifest = load_index(args.index)
    service = RetrievalService(
        catalog=catalog,
        chunk_index=chunk_index,
        graph=graph,
        config=config,
        schema_version=manifest["schema_version"],
    )
    # Process managers stop a service with SIGTERM: drain it like Ctrl-C.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    serve_forever(service, host or "127.0.0.1", port)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csr",
        description="Schema retrieval for text-to-SQL: index, query, evaluate, "
        "benchmark, serve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build and persist index artifacts")
    p.add_argument("--schema", required=True, help="schema document (JSON)")
    p.add_argument("--trace", required=True, help="question/SQL trace (JSONL)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="pipeline config (JSON)")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="retrieve tables and join columns")
    p.add_argument("--index", required=True, help="index directory")
    p.add_argument("question")
    p.add_argument("--tables-only", action="store_true")
    p.add_argument("--timings", action="store_true", help="include stage timings")
    p.add_argument("--schedule", help="override schedule: k,l,h;k,l,h;...")
    p.add_argument("--max-entities", type=int)
    p.set_defaults(func=cmd_query)

    # The input flags of eval and bench.
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--schema")
    inputs.add_argument("--trace")
    inputs.add_argument("--profile", help="generator profile JSON (synthetic inputs)")
    inputs.add_argument("--seed", type=int, help="override generator seed")
    inputs.add_argument("--config", help="pipeline config (JSON)")

    p = sub.add_parser(
        "eval", parents=[inputs], help="sweep schedules and write a results CSV"
    )
    p.add_argument("--schedules", help="JSON list of schedules to sweep")
    p.add_argument("--hold-out-every", type=int, default=4)
    p.add_argument("--group", default="default", help="group label for the CSV")
    p.add_argument("--out", required=True, help="results CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "bench", parents=[inputs], help="measure end-to-end retrieval latency"
    )
    p.add_argument("--repetitions", type=int, default=200)
    p.add_argument("--out", help="latency report JSON path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("serve", help="run the retrieval HTTP service")
    p.add_argument("--index", required=True, help="index directory")
    p.add_argument("--bind", default="127.0.0.1:8080")
    p.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScopeCollapsedError as exc:
        return _fail(EXIT_SCOPE_COLLAPSED, error=str(exc), iteration=exc.step)
    except FileNotFoundError as exc:
        return _fail(EXIT_ERROR, error="file not found", path=str(exc.filename))
    except EmbeddingProviderError as exc:
        return _fail(EXIT_ERROR, error=str(exc), kind=exc.kind)
    except (ArtifactError, CatalogError, ProfileError, ValueError, OSError) as exc:
        return _fail(EXIT_ERROR, error=str(exc))


if __name__ == "__main__":
    sys.exit(main())

"""Layered retrieval benchmark: one workload per run, one JSON line out.

Usage, from the repository root:

    python3 perfbench/run.py --workload cat246-cosine --seed 94010 \
        --seconds 20 --trace 0

The program under test is imported from ``src/`` of the same checkout. The
last line of standard output is the result object; the line before it
describes the run (working-set shape, request mix, passes, digest). With
``--trace 1`` the run reports per-layer metrics and writes its spans to
``.perfbench_out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "csr" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'csr'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import csr
    import workloads

    if Path(csr.__file__).resolve().parent != (SRC / "csr").resolve():
        print(f"error: imported csr from {csr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    # Let a terminated run unwind, so its finally blocks stop the server
    # children and remove the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        result, info = workloads.run(
            args.workload,
            seed,
            args.seconds,
            bool(args.trace),
            work,
            ROOT / ".perfbench_out",
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["metrics"] = with_units(result["metrics"], bool(args.trace))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def with_units(values: dict, trace: bool) -> dict:
    """The metrics ``BENCHMARK.json`` declares for this mode, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(
            f"measured metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


if __name__ == "__main__":
    sys.exit(main())

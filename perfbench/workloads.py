"""The four benchmark workloads and the metrics they report.

Every workload generates its catalog and trace with ``generate_synthetic``
from the run's seed, indexes the build part of ``split_trace`` and replays
the held-out questions in their fixed order, cyclically, for the measured
phase. The program sees only those generated inputs. Timings come from the
benchmark's own clocks, never from ``RetrievalOutput.timings``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import re
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

from csr import artifacts, contextual, structural
from csr.catalog import SchemaCatalog
from csr.contextual import ChunkIndex
from csr.evaluation import default_sweep_schedules, split_trace
from csr.pipeline import (
    IterationSchedule,
    PipelineConfig,
    build_query_response,
    default_schedule,
    run_pipeline,
)
from csr.similarity import SimilarityConfig
from csr.structural import KnowledgeGraph
from csr.synthetic import DEFAULT_SEED, GeneratorProfile, generate_synthetic

from tracing import LAYER_SPANS, NullTracer, Tracer, instrumented, replay

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

SETUP_REPS = 3  # set-ups per run; setup_s is their median
WARMUP_QUERIES = 3  # untimed queries before the measured phase
SERVE_CLIENTS = 2
HEALTH_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0

# Every table the generated SQL names follows FROM or JOIN with an alias.
_SQL_TABLE = re.compile(r"\b(?:FROM|JOIN) (\w+) a\d+")


@dataclass(frozen=True)
class Workload:
    name: str
    table_count: int
    query_count: int
    metric: str
    serve: bool = False
    # Held-out questions, from the first, whose responses are scored (table
    # recall/precision) and digested. Questions the measured phase did not
    # reach are answered after it, so the set stays fixed at any speed. The
    # default is every question at 246 tables and the first quarter at 960;
    # BM25 scores half, which a slow run's measured phase still covers.
    scored: int = 125


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cat246-cosine", 246, 500, "cosine"),
        Workload("cat246-bm25", 246, 500, "bm25", scored=64),
        Workload("cat960-cosine", 960, 2000, "cosine"),
        Workload("serve-246", 246, 500, "cosine", serve=True),
    )
}


@dataclass(frozen=True)
class Request:
    """One entry of a workload's replay list."""

    question: str
    question_pos: int  # held-out question it carries or follows
    schedule: dict | None = None
    max_entities: int | None = None
    invalid: bool = False

    def document(self, include_timings: bool = False) -> dict:
        doc: dict = {"question": self.question}
        if self.schedule is not None:
            doc["schedule_override"] = self.schedule
        if self.max_entities is not None:
            doc["max_entities"] = self.max_entities
        if include_timings:
            doc["include_timings"] = True
        return doc

    @property
    def kind(self) -> str:
        if self.invalid:
            return "invalid"
        if self.schedule is not None:
            return "schedule_override"
        if self.max_entities is not None:
            return "max_entities"
        return "plain"


@dataclass
class Index:
    catalog: SchemaCatalog
    chunk_index: ChunkIndex
    graph: KnowledgeGraph
    config: PipelineConfig
    schema_version: str

    @property
    def schedule(self) -> IterationSchedule:
        return self.config.schedule or default_schedule(len(self.catalog.tables))


class Failures:
    """Failed operations, with the first few reasons kept for stderr."""

    def __init__(self) -> None:
        self.count = 0
        self.reasons: list[str] = []

    def add(self, reason: str) -> None:
        self.count += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile: the sample at rank ceil(p/100 * n)."""
    if not samples:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def summary(samples: list[float], p: float) -> float:
    """``percentile``, or 0.0 when nothing completed; such a run has failures."""
    return percentile(samples, p) if samples else 0.0


def canonical(body: bytes) -> bytes:
    """A response as the digest sees it: scores rounded to 9 significant digits.

    Entity names, their order and the tables stay exact. A change that only
    moves a score in its last bits, such as a vectorised dot product or a
    reordered sum, keeps the digest; byte equality is kept for comparisons
    within one build (repeats, replay, HTTP).
    """
    doc = json.loads(body)
    for entity in doc["entities"]:
        entity["score"] = float(f"{entity['score']:.9g}")
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\n")
    return h.hexdigest()


def recorded_digest(workload: str) -> str | None:
    return json.loads(DIGESTS_PATH.read_text("utf-8")).get(workload)


def truth_tables(sql: str) -> set[str]:
    tables = set(_SQL_TABLE.findall(sql))
    if not tables:
        raise ValueError(f"no table found in generated SQL: {sql}")
    return tables


def table_quality(held: list[dict], bodies: dict[int, bytes]) -> tuple[float, float]:
    """Mean (recall, precision) of response tables against each question's SQL.

    ``bodies`` maps a held-out question position to its response, or to
    None where the request failed, which then scores no tables.
    """
    recalls, precisions = [], []
    for pos, body in sorted(bodies.items()):
        truth = truth_tables(held[pos]["sql"])
        got = set(json.loads(body)["tables"]) if body is not None else set()
        hits = len(truth & got)
        recalls.append(hits / len(truth))
        precisions.append(hits / len(got) if got else 0.0)
    return statistics.fmean(recalls), statistics.fmean(precisions)


def check_payload(body: bytes, schema_version: str, limit: int) -> str | None:
    """Shape checks any canonical response must pass; the reason if it fails."""
    doc = json.loads(body)
    if set(doc) != {"entities", "tables", "schema_version"}:
        return f"unexpected response keys {sorted(doc)}"
    if doc["schema_version"] != schema_version:
        return "schema_version differs from the index manifest"
    entities = doc["entities"]
    if not 1 <= len(entities) <= limit:
        return f"{len(entities)} entities, expected 1..{limit}"
    scores = [e["score"] for e in entities]
    if any(not math.isfinite(s) for s in scores) or scores != sorted(scores, reverse=True):
        return "entity scores not finite and descending"
    tables = sorted({e["entity"].split(".", 1)[0] for e in entities})
    if doc["tables"] != tables:
        return "tables differ from the tables of the entities"
    return None


def make_inputs(workload: Workload, seed: int):
    profile = GeneratorProfile(
        table_count=workload.table_count, query_count=workload.query_count, seed=seed
    )
    catalog, trace = generate_synthetic(profile)
    build, held = split_trace(trace)
    return catalog, build, held


def make_requests(workload: Workload, catalog, held: list[dict]) -> list[Request]:
    """The replay list: one request per held-out question, in order.

    For ``serve-246`` a fixed share of questions carries the aggressive sweep
    schedule or ``max_entities``, and after every 16th question comes an
    invalid request, alternating an empty question and ``max_entities: 0``.
    """
    if not workload.serve:
        return [Request(e["question"], pos) for pos, e in enumerate(held)]
    aggressive = default_sweep_schedules(len(catalog.tables))[-1].to_dict()
    requests: list[Request] = []
    for pos, entry in enumerate(held):
        question = entry["question"]
        if pos % 10 in (2, 7):
            requests.append(Request(question, pos, schedule=aggressive))
        elif pos % 10 == 5:
            requests.append(Request(question, pos, max_entities=4))
        else:
            requests.append(Request(question, pos))
        if pos % 16 == 15:
            if (pos // 16) % 2 == 0:
                requests.append(Request("", pos, invalid=True))
            else:
                requests.append(Request(question, pos, max_entities=0, invalid=True))
    return requests


def schedule_for(ix: Index, request: Request) -> IterationSchedule:
    if request.schedule is not None:
        return IterationSchedule.from_dict(request.schedule)
    return ix.schedule


def respond(ix: Index, request: Request, output) -> dict:
    """The response payload, after the service's ``max_entities`` cut."""
    if request.max_entities is not None:
        output.entities = output.entities[: request.max_entities]
        output.tables = {e.table for e in output.entities}
    return build_query_response(output, ix.catalog, ix.schema_version)


def encode(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


# --------------------------------------------------------------------------
# Set-up


def build_and_save(catalog, build, config, directory: Path, tracer: Tracer) -> None:
    with tracer.span("contextual.build"):
        chunk_index = contextual.build_chunk_index(build, catalog, config.similarity)
    with tracer.span("structural.build"):
        graph = structural.build_knowledge_graph(catalog, config.similarity)
    with tracer.span("artifacts.save"):
        artifacts.save_index(directory, catalog, chunk_index, graph, config)


def load(directory: Path, tracer: Tracer) -> Index:
    with tracer.span("artifacts.load"):
        catalog, chunk_index, graph, config, manifest = artifacts.load_index(directory)
    return Index(catalog, chunk_index, graph, config, manifest["schema_version"])


def setup_layer_seconds(tracer: Tracer) -> dict[str, float]:
    """Median seconds per set-up layer over the run's set-ups."""
    names = ("contextual.build", "structural.build", "artifacts.save", "artifacts.load")
    out = {}
    for name in names:
        durations = [
            (s.end_ns - s.start_ns) / 1e9 for s in tracer.spans if s.name == name
        ]
        out[name + "_s"] = statistics.median(durations)
    return out


class ServerProcess:
    """``csr serve`` as a child process on a loopback port."""

    def __init__(self, index_dir: Path, log_path: Path) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        env = dict(os.environ)
        src = str(HERE.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "csr.cli",
                "serve",
                "--index",
                str(index_dir),
                "--bind",
                f"127.0.0.1:{self.port}",
            ],
            stdin=subprocess.DEVNULL,
            stdout=self.log,
            stderr=self.log,
            env=env,
        )

    def wait_healthy(self) -> None:
        deadline = time.perf_counter() + HEALTH_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                self.log.flush()
                tail = Path(self.log.name).read_text("utf-8", "replace")[-2000:]
                raise RuntimeError(
                    f"csr serve exited with code {self.proc.returncode}:\n{tail}"
                )
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                try:
                    conn.request("GET", "/v1/health")
                    if conn.getresponse().status == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                time.sleep(0.005)
        raise RuntimeError("csr serve did not answer /v1/health in time")

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a shell starts background jobs with SIGINT
        # ignored, and the child would inherit that.
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.log.close()


def set_up(workload, catalog, build, work: Path, tracer: Tracer, servers: list):
    """Run the set-up ``SETUP_REPS`` times; return the last index and the times.

    In-process set-up ends when ``load_index`` returns. For ``serve-246`` it
    ends when the freshly started server answers ``/v1/health``; servers of
    earlier repetitions are stopped before the next one starts.
    """
    config = PipelineConfig(similarity=SimilarityConfig(metric=workload.metric))
    totals = []
    ix = None
    for rep in range(SETUP_REPS):
        directory = work / f"index{rep}"
        ix = None
        t0 = time.perf_counter()
        build_and_save(catalog, build, config, directory, tracer)
        if workload.serve:
            server = ServerProcess(directory, work / f"server{rep}.log")
            servers.append(server)
            server.wait_healthy()
        else:
            ix = load(directory, tracer)
        totals.append(time.perf_counter() - t0)
        if workload.serve:
            for old in servers[:-1]:
                old.stop()
        if rep + 1 < SETUP_REPS:
            shutil.rmtree(directory)
    if workload.serve:
        # The reference index for the byte-equality check; loaded outside
        # set-up, it also times load_index, which the server does unseen.
        ix = load(directory, tracer)
    return ix, directory, statistics.median(totals)


# --------------------------------------------------------------------------
# Measured phases


class Answers:
    """In-process answers through ``run_pipeline``, checked as they arrive.

    The first response to each request position becomes the reference that
    every later response to it (a later pass, the traced replay, the HTTP
    reply) must equal byte for byte.
    """

    def __init__(self, ix: Index, requests: list[Request]) -> None:
        self.ix = ix
        self.requests = requests
        self.bodies: dict[int, bytes] = {}
        self.latency_ms: list[float] = []
        self.pipeline_ms: dict[int, list[float]] = {}
        self.failures = Failures()

    def answer(self, pos: int) -> float | None:
        """Answer one request; its latency in ms, or None if it failed."""
        request = self.requests[pos]
        try:
            schedule = schedule_for(self.ix, request)
            t0 = time.perf_counter_ns()
            output = run_pipeline(
                request.question,
                self.ix.chunk_index,
                self.ix.graph,
                self.ix.catalog,
                schedule,
                self.ix.config,
            )
            t1 = time.perf_counter_ns()
            payload = respond(self.ix, request, output)
            t2 = time.perf_counter_ns()
        except Exception as exc:  # a failed query is counted, the run goes on
            self.failures.add(f"request {pos}: {type(exc).__name__}: {exc}")
            return None
        if not self.accept(pos, encode(payload), "run_pipeline"):
            return None
        latency = (t2 - t0) / 1e6
        self.latency_ms.append(latency)
        self.pipeline_ms.setdefault(pos, []).append((t1 - t0) / 1e6)
        return latency

    def accept(self, pos: int, body: bytes, source: str) -> bool:
        seen = self.bodies.get(pos)
        if seen is None:
            request = self.requests[pos]
            limit = request.max_entities or schedule_for(self.ix, request).steps[-1][2]
            problem = check_payload(body, self.ix.schema_version, limit)
            if problem:
                self.failures.add(f"{source} request {pos}: {problem}")
                return False
            self.bodies[pos] = body
        elif seen != body:
            self.failures.add(f"{source} request {pos}: response differs from earlier one")
            return False
        return True

    def body(self, pos: int) -> bytes | None:
        if pos not in self.bodies:
            self.answer(pos)
        return self.bodies.get(pos)

    def measure(self, seconds: float) -> tuple[list[float], int, float]:
        """Closed loop, one client: (latencies, attempted, elapsed seconds)."""
        n = len(self.requests)
        samples = []
        attempted = 0
        t_start = time.perf_counter()
        deadline = t_start + seconds
        while time.perf_counter() < deadline:
            latency = self.answer(attempted % n)
            attempted += 1
            if latency is not None:
                samples.append(latency)
        return samples, attempted, time.perf_counter() - t_start


def http_post(port: int, doc: dict) -> tuple[int, str, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request(
            "POST",
            "/v1/retrieve",
            body=json.dumps(doc).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        return resp.status, resp.getheader("Content-Type", ""), resp.read()
    finally:
        conn.close()


def measure_serve(port: int, requests: list[Request], seconds: float, include_timings: bool):
    """Closed loop: ``SERVE_CLIENTS`` client threads share one cursor.

    Returns the replies as (position, status, content type, body, round trip
    ms), the transport errors as (position, reason), and the elapsed seconds.
    """
    n = len(requests)
    lock = threading.Lock()
    cursor = [0]
    replies: list[tuple[int, int, str, bytes, float]] = []
    errors: list[tuple[int, str]] = []
    deadline = time.perf_counter() + seconds

    def client() -> None:
        while time.perf_counter() < deadline:
            with lock:
                pos = cursor[0] % n
                cursor[0] += 1
            doc = requests[pos].document(include_timings)
            t0 = time.perf_counter_ns()
            try:
                status, ctype, body = http_post(port, doc)
            except (OSError, http.client.HTTPException) as exc:
                with lock:
                    errors.append((pos, f"{type(exc).__name__}: {exc}"))
                continue
            rtt_ms = (time.perf_counter_ns() - t0) / 1e6
            with lock:
                replies.append((pos, status, ctype, body, rtt_ms))

    t_start = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return replies, errors, time.perf_counter() - t_start


def check_reply(answers: Answers, pos: int, status: int, ctype: str, body: bytes):
    """(ok, server ``stage_timings_ms.total`` or None) for one HTTP reply.

    An invalid request must get a JSON 400. A valid one must get a 200 whose
    body, without the opt-in timings, is byte-equal to the in-process one.
    """
    if answers.requests[pos].invalid:
        try:
            ok = status == 400 and ctype.startswith("application/json")
            ok = ok and "error" in json.loads(body)
        except ValueError:
            ok = False
        if not ok:
            answers.failures.add(f"request {pos}: invalid request got HTTP {status}")
        return ok, None
    if status != 200:
        answers.failures.add(f"request {pos}: HTTP {status}")
        return False, None
    total = None
    doc = json.loads(body)
    if "stage_timings_ms" in doc:
        total = doc.pop("stage_timings_ms")["total"]
        body = encode(doc)
    reference = answers.body(pos)
    if reference is None:
        return False, None
    if body != reference:
        answers.failures.add(f"request {pos}: reply differs from in-process response")
        return False, None
    return True, total


# --------------------------------------------------------------------------
# Traced phase


def timed_replay(answers: Answers, pos: int, tracer) -> float | None:
    """Replay one request through the stage functions; its latency in ms.

    With a ``Tracer`` the spans and counting wrappers are on; with a
    ``NullTracer`` neither is. The response is checked against the
    ``run_pipeline`` one for the same request.
    """
    ix, request = answers.ix, answers.requests[pos]
    traced = isinstance(tracer, Tracer)
    source = "traced" if traced else "untraced replay"
    try:
        schedule = schedule_for(ix, request)
        with instrumented(tracer) if traced else nullcontext():
            t0 = time.perf_counter_ns()
            with tracer.span("pipeline.query"):
                output = replay(
                    request.question,
                    ix.chunk_index,
                    ix.graph,
                    ix.catalog,
                    schedule,
                    ix.config,
                    tracer,
                )
                payload = respond(ix, request, output)
            t1 = time.perf_counter_ns()
    except Exception as exc:  # a failed query is counted, the run goes on
        answers.failures.add(f"{source} request {pos}: {type(exc).__name__}: {exc}")
        return None
    if not answers.accept(pos, encode(payload), source):
        return None
    return (t1 - t0) / 1e6


def traced_replay(answers: Answers, seconds: float):
    """Replay each valid request twice: once traced, once under a ``NullTracer``.

    The two replays of a request run back to back, in alternating order, so
    the difference of their p50s is the cost of tracing alone. Returns the
    tracer, the traced and untraced latencies (ms), each traced query's
    request position and the number of replays attempted.
    """
    requests = answers.requests
    tracer, null = Tracer(), NullTracer()
    traced: list[float] = []
    untraced: list[float] = []
    positions: dict[int, int] = {}
    valid = [pos for pos, r in enumerate(requests) if not r.invalid]
    deadline = time.perf_counter() + seconds
    query = 0
    while time.perf_counter() < deadline:
        pos = valid[query % len(valid)]
        tracer.query = query
        for t in (tracer, null) if query % 2 else (null, tracer):
            latency = timed_replay(answers, pos, t)
            if latency is None:
                continue
            if t is tracer:
                traced.append(latency)
                positions[query] = pos
            else:
                untraced.append(latency)
        query += 1
    tracer.query = None
    # A timed run_pipeline answer for every traced request: it checks the
    # replay and gives run_pipeline's wall time for pipeline.overhead_ms.
    for pos in sorted(set(positions.values()) - set(answers.pipeline_ms)):
        answers.answer(pos)
    return tracer, traced, untraced, positions, 2 * query


def layer_metrics(tracer: Tracer, positions: dict[int, int], answers: Answers) -> dict:
    """Per-query p50 of every per-layer time and count of the traced phase."""
    queries = sorted(positions)
    out: dict[str, float] = {}
    for metric, span in (
        ("contextual.retrieve_ms", "contextual.retrieve"),
        ("structural.retrieve_ms", "structural.retrieve"),
        ("topk.select_ms", "topk.select"),
        ("relational.hypergraph_ms", "relational.hypergraph"),
        ("relational.rank_ms", "relational.rank"),
    ):
        per_query = tracer.per_query_ms((span,))
        out[metric] = summary([per_query.get(q, 0.0) for q in queries], 50)
    for name in (
        "similarity.question_embeds",
        "similarity.texts_embedded",
        "similarity.texts_tokenized",
        "contextual.chunks_scored",
        "structural.triplets_scored",
        "topk.calls",
        "relational.incidences",
        "pipeline.scope_tables_final",
    ):
        out[name] = summary(tracer.per_query_count(name, queries), 50)
    # run_pipeline's own wall time minus the replayed layers, same request.
    layers = tracer.per_query_ms(LAYER_SPANS)
    # A request whose run_pipeline answer failed its check has no wall time.
    out["pipeline.overhead_ms"] = summary(
        [
            statistics.median(answers.pipeline_ms[positions[q]]) - layers[q]
            for q in queries
            if positions[q] in answers.pipeline_ms
        ],
        50,
    )
    return out


def write_trace(path: Path, tracer: Tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    counts = [
        {"query": q, "name": name, "count": n} for (q, name), n in tracer.counts.items()
    ]
    doc = {"spans": [asdict(s) for s in tracer.spans], "counts": counts}
    path.write_text(json.dumps(doc), encoding="utf-8")


# --------------------------------------------------------------------------
# One run


def shape(catalog, build, held, requests, triplets: int) -> dict:
    kinds: dict[str, int] = {}
    for r in requests:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
    return {
        "tables": len(catalog.tables),
        "columns": catalog.column_count,
        "chunks": len(build),
        "triplets": triplets,
        "held_out_questions": len(held),
        "request_mix": {k: v / len(requests) for k, v in sorted(kinds.items())},
    }


def scored_positions(workload: Workload, requests: list[Request]) -> list[int]:
    """Request positions whose responses are scored and digested."""
    return [p for p, r in enumerate(requests) if r.question_pos < workload.scored]


def serve_phase(answers: Answers, server: ServerProcess, seconds: float, trace: bool):
    """Drive the server, stop it, then check every reply."""
    requests = answers.requests
    for pos in range(min(WARMUP_QUERIES, len(requests))):
        http_post(server.port, requests[pos].document())
    replies, errors, elapsed = measure_serve(server.port, requests, seconds, trace)
    server.stop()
    samples, overheads, statuses = [], [], {}
    for pos, reason in errors:
        answers.failures.add(f"request {pos}: {reason}")
    for pos, status, ctype, body, rtt_ms in replies:
        statuses.setdefault(pos, status)
        ok, total = check_reply(answers, pos, status, ctype, body)
        # Invalid requests count as attempted and are checked, but their
        # cheap 400s stay out of the latency and throughput samples.
        if ok and not requests[pos].invalid:
            samples.append(rtt_ms)
            if total is not None:
                overheads.append(rtt_ms - total)
    return samples, len(replies) + len(errors), elapsed, overheads, statuses


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, out_dir: Path):
    """Run one workload: (result for the last output line, run details)."""
    workload = WORKLOADS[name]
    catalog, build, held = make_inputs(workload, seed)
    requests = make_requests(workload, catalog, held)
    setup_tracer = Tracer()
    servers: list[ServerProcess] = []
    phase = seconds / 2 if trace else seconds
    overheads: list[float] = []
    statuses: dict[int, int] = {}
    try:
        ix, index_dir, setup_s = set_up(workload, catalog, build, work, setup_tracer, servers)
        answers = Answers(ix, requests)
        if workload.serve:
            samples, attempted, elapsed, overheads, statuses = serve_phase(
                answers, servers[-1], phase, trace
            )
        else:
            for pos in range(min(WARMUP_QUERIES, len(requests))):
                answers.answer(pos)
            samples, attempted, elapsed = answers.measure(phase)
    finally:
        for server in servers:
            server.stop()
    info = {
        "workload": name,
        "seed": seed,
        "shape": shape(catalog, build, held, requests, len(ix.graph)),
        "passes": attempted / len(requests),
        "samples": len(samples),
    }

    if trace:
        tracer, traced, untraced, positions, replays = traced_replay(answers, phase)
        attempted += replays
        metrics = layer_metrics(tracer, positions, answers)
        metrics.update(setup_layer_seconds(setup_tracer))
        metrics["service.overhead_ms"] = summary(overheads, 50)  # 0 in-process
        metrics["trace.overhead_ms"] = summary(traced, 50) - summary(untraced, 50)
        info["spans"] = len(tracer.spans) + len(setup_tracer.spans)
        write_trace(out_dir / f"{name}-seed{seed}-spans.json", tracer)
    else:
        scored = {
            requests[p].question_pos: answers.body(p)
            for p in scored_positions(workload, requests)
            if not requests[p].invalid
        }
        recall, precision = table_quality(held, scored)
        rss_kb = resource.getrusage(
            resource.RUSAGE_CHILDREN if workload.serve else resource.RUSAGE_SELF
        ).ru_maxrss
        metrics = {
            "latency_p50_ms": summary(samples, 50),
            "latency_p90_ms": summary(samples, 90),
            "throughput_qps": len(samples) / elapsed,
            "setup_s": setup_s,
            "index_bytes": directory_bytes(index_dir),
            "peak_rss_mb": rss_kb / 1024.0,
            "table_recall": recall,
            "table_precision": precision,
        }

    if seed == DEFAULT_SEED:
        parts = []
        missing = [p for p in scored_positions(workload, requests) if p not in statuses]
        if workload.serve and missing:
            answers.failures.add(f"{len(missing)} scored requests never sent: run too short")
        for pos in scored_positions(workload, requests):
            body = None if requests[pos].invalid else answers.body(pos)
            part = b"" if body is None else canonical(body)
            if workload.serve:
                part = str(statuses.get(pos)).encode() + b" " + part
            parts.append(part)
        info["digest"] = digest(parts)
        expected = recorded_digest(name)
        if info["digest"] != expected:
            answers.failures.add(f"response digest {info['digest']} is not the recorded {expected}")

    # A digest mismatch is a failure of no single query, so cap the count.
    failed = min(answers.failures.count, attempted)
    info["failed_ratio"] = failed / attempted
    if not trace:
        metrics["success_ratio"] = 1.0 - info["failed_ratio"]
    for reason in answers.failures.reasons:
        print(f"failure: {reason}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, info

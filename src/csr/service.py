"""HTTP retrieval service for downstream SQL generators.

Endpoints:
  POST /v1/retrieve  {question, schedule_override?, max_entities?, include_timings?}
  GET  /v1/health    liveness plus the loaded schema version
  GET  /v1/stats     catalog shape and index sizes

All indexes are loaded once and never mutated, so any number of requests may
be served concurrently; a semaphore caps how many retrievals run at once, and
at most ``MAX_QUEUED`` more wait for a slot. ``pipeline.answer`` answers the
body's ``QueryRequest``, as it answers ``csr query``. Responses are
deterministic for identical requests; stage timings are only attached when a
request explicitly asks for them. Errors are JSON: 400 for an invalid
request (not an object, an unknown key, a wrongly typed value), 422 when
the scope collapses, 502 with the provider's ``kind`` when the external
embedder fails, 503 at once when the queue is full, and 500, without the
traceback, for any other fault during retrieval. A request body is bounded:
a ``Content-Length`` that is not a non-negative integer is a 400 and one
above ``MAX_BODY_BYTES`` a 413, both sent without reading the body, and a
connection that stays silent for ``SOCKET_TIMEOUT_S`` (a body shorter than
its header, say) is closed. Shutdown stops accepting connections and drains
in-flight handlers. At most one handler thread more than the running plus
queued retrievals runs at once, so a full queue still answers 503; further
connections wait in the listen backlog, and a client that hangs up before
its reply costs one debug log line, not a traceback.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .catalog import SchemaCatalog, catalog_stats, is_int
from .contextual import ChunkIndex
from .pipeline import PipelineConfig, QueryRequest, ScopeCollapsedError, answer
from .similarity import EmbeddingProviderError
from .structural import KnowledgeGraph

logger = logging.getLogger(__name__)

MAX_BODY_BYTES = 1 << 20  # largest accepted request body
SOCKET_TIMEOUT_S = 10.0  # longest wait for any read or write on a connection
MAX_QUEUED = 32  # most requests that may wait for a free retrieval slot


@dataclass
class RetrievalService:
    catalog: SchemaCatalog
    chunk_index: ChunkIndex
    graph: KnowledgeGraph
    config: PipelineConfig
    schema_version: str
    max_concurrent: int = 8
    _gate: threading.Semaphore = field(init=False, repr=False)
    _admitted: threading.Semaphore = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not is_int(self.max_concurrent) or self.max_concurrent < 1:
            raise ValueError("max_concurrent must be an integer >= 1")
        self._gate = threading.Semaphore(self.max_concurrent)
        # Running plus waiting requests; any beyond are shed with a 503.
        self._admitted = threading.Semaphore(self.max_concurrent + MAX_QUEUED)

    def retrieve(self, request_doc) -> tuple[int, dict]:
        try:
            request = QueryRequest.from_dict(request_doc)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        if not self._admitted.acquire(blocking=False):
            return 503, {"error": f"busy: {MAX_QUEUED} requests already waiting"}
        try:
            with self._gate:
                payload = answer(
                    request,
                    self.chunk_index,
                    self.graph,
                    self.catalog,
                    self.config,
                    self.schema_version,
                )
        except ScopeCollapsedError as exc:
            return 422, {"error": str(exc), "step": exc.step}
        except EmbeddingProviderError as exc:
            return 502, {"error": str(exc), "kind": exc.kind}
        except Exception:
            # Any other fault: the traceback goes to the server log only.
            logger.exception("retrieval failed")
            return 500, {"error": "internal error during retrieval"}
        finally:
            self._admitted.release()
        return 200, payload

    def health(self) -> tuple[int, dict]:
        return 200, {"status": "ok", "schema_version": self.schema_version}

    def stats(self) -> tuple[int, dict]:
        stats = catalog_stats(self.catalog)
        return 200, {
            "schema_version": self.schema_version,
            "table_count": stats.table_count,
            "column_count": stats.column_count,
            "median_fk_per_table": stats.median_fk_per_table,
            "stddev_columns_per_table": stats.stddev_columns_per_table,
            "chunk_count": len(self.chunk_index),
            "triplet_count": len(self.graph),
        }


class _BoundedServer(ThreadingHTTPServer):
    """A threading HTTP server that runs at most ``threads`` handler threads
    and joins them on close."""

    daemon_threads = False

    def __init__(self, address, handler, threads: int) -> None:
        super().__init__(address, handler)
        self._slots = threading.BoundedSemaphore(threads)

    def process_request(self, request, client_address) -> None:
        # The accept loop waits here for a free thread.
        self._slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    def handle_error(self, request, client_address) -> None:
        exc = sys.exc_info()[1]
        if isinstance(exc, ConnectionError):
            logger.debug("client %s hung up: %s", client_address, exc)
        else:
            logger.exception("error handling request from %s", client_address)


def make_server(service: RetrievalService, host: str, port: int) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server bound to host:port."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # A socket operation that times out ends the request and closes the
        # connection (BaseHTTPRequestHandler.handle_one_request).
        timeout = SOCKET_TIMEOUT_S

        def log_message(self, fmt, *args):  # route through logging, not stderr
            logger.debug("%s %s", self.address_string(), fmt % args)

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            # One request per connection: idle keep-alive sockets would pin
            # handler threads and stall the drain on shutdown.
            self.send_header("Connection", "close")
            self.close_connection = True
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:
            if self.path == "/v1/health":
                self._send(*service.health())
            elif self.path == "/v1/stats":
                self._send(*service.stats())
            else:
                self._send(404, {"error": f"unknown path {self.path}"})

        def do_POST(self) -> None:
            if self.path != "/v1/retrieve":
                self._send(404, {"error": f"unknown path {self.path}"})
                return
            declared = self.headers.get("Content-Length", "0")
            if not (declared.isascii() and declared.isdigit()):
                self._send(400, {"error": "Content-Length must be an integer >= 0"})
                return
            length = int(declared)
            if length > MAX_BODY_BYTES:
                self._send(
                    413, {"error": f"request body over {MAX_BODY_BYTES} bytes"}
                )
                return
            try:
                raw = self.rfile.read(length)
                doc = json.loads(raw) if raw else {}
            except (ValueError, json.JSONDecodeError) as exc:
                self._send(400, {"error": f"malformed request body: {exc}"})
                return
            self._send(*service.retrieve(doc))

    # Every admitted retrieval may hold a thread; the spare one answers 503.
    threads = service.max_concurrent + MAX_QUEUED + 1
    return _BoundedServer((host, port), Handler, threads)


def serve_forever(service: RetrievalService, host: str, port: int) -> None:
    server = make_server(service, host, port)
    logger.info("serving on %s:%d", *server.server_address[:2])
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()

"""HTTP retrieval service for downstream SQL generators.

Endpoints:
  POST /v1/retrieve  {question, schedule_override?, max_entities?, include_timings?}
  GET  /v1/health    liveness plus the loaded schema version
  GET  /v1/stats     catalog shape and index sizes

All indexes are loaded once and never mutated. Every stage is CPU-bound
Python under one interpreter lock, so retrievals run one at a time (on the
serve-246 benchmark this beat eight at once on latency and throughput), and
at most ``MAX_QUEUED`` more requests wait. ``pipeline.answer`` answers the
body's ``QueryRequest``, as it answers ``csr query``. Responses are
deterministic for identical requests; stage timings are only attached when a
request explicitly asks for them. Errors are JSON: 400 for an invalid
request (not an object, an unknown key, a wrongly typed value, JSON nested
too deeply to parse), 422 when the scope collapses, 502 with the provider's
``kind`` when the external embedder fails, 503 at once when the queue is
full, 500, without the traceback, for any other fault during retrieval, and
the standard library's own errors too (a 501 for PUT). A request body is
bounded: a ``Content-Length`` that is not a non-negative integer is a 400 and
one above ``MAX_BODY_BYTES`` a 413, both sent without reading the body, and a
connection that stays silent for ``SOCKET_TIMEOUT_S`` (a body shorter than
its header, say) is closed. Shutdown stops accepting connections and drains
in-flight handlers. At most ``MAX_QUEUED + 2`` handler threads run, one more
than the running and waiting requests, so a full queue still answers 503;
further connections wait in the listen backlog, and a client that hangs up
before its reply costs one debug log line, not a traceback.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .catalog import SchemaCatalog, catalog_stats, parse_json
from .contextual import ChunkIndex
from .pipeline import PipelineConfig, QueryRequest, ScopeCollapsedError, answer
from .similarity import EmbeddingProviderError
from .structural import KnowledgeGraph

logger = logging.getLogger(__name__)

MAX_BODY_BYTES = 1 << 20  # largest accepted request body
SOCKET_TIMEOUT_S = 10.0  # longest wait for any read or write on a connection
MAX_QUEUED = 32  # most requests that may wait while one retrieval runs


@dataclass
class RetrievalService:
    catalog: SchemaCatalog
    chunk_index: ChunkIndex
    graph: KnowledgeGraph
    config: PipelineConfig
    schema_version: str
    _running: threading.Lock = field(default_factory=threading.Lock, init=False)
    # The running request plus the waiting ones; any beyond are shed with a 503.
    _admitted: threading.Semaphore = field(
        default_factory=lambda: threading.Semaphore(1 + MAX_QUEUED), init=False
    )

    def retrieve(self, request_doc) -> tuple[int, dict]:
        try:
            request = QueryRequest.from_dict(request_doc)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        if not self._admitted.acquire(blocking=False):
            return 503, {"error": f"busy: {MAX_QUEUED} requests already waiting"}
        try:
            with self._running:
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
    # socketserver's default backlog of 5 reset some of 66 simultaneous connections.
    request_queue_size = 128

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

        def send_error(self, code, message=None, explain=None) -> None:
            # The standard library's own errors (an unsupported method, a
            # malformed request line) as JSON too. Like its HTML page, they
            # carry no body for HEAD or a status that allows none.
            if self.command == "HEAD" or code < 200 or code in (204, 304):
                self.send_response(code, message)
                self.send_header("Connection", "close")
                self.close_connection = True
                self.end_headers()
            else:
                self._send(code, {"error": message or self.responses[code][0]})

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
                doc = parse_json(raw) if raw else {}
            except ValueError as exc:
                self._send(400, {"error": f"malformed request body: {exc}"})
                return
            self._send(*service.retrieve(doc))

    # Every admitted request may hold a thread; the spare one answers 503.
    return _BoundedServer((host, port), Handler, MAX_QUEUED + 2)


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

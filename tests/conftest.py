import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from csr.catalog import load_catalog
from csr.similarity import SimilarityConfig

# Hand-written retail schema used across the suite. Primary keys follow the
# <table-singular>_id convention; "name" and "price" deliberately appear in
# several tables to exercise ambiguous-column handling.
SHOP_DOCUMENT = {
    "tables": [
        {
            "name": "regions",
            "description": "Sales regions",
            "columns": [
                {"name": "region_id", "primary_key": True},
                {"name": "name", "description": "Region display name"},
            ],
        },
        {
            "name": "customers",
            "description": "Registered customers",
            "columns": [
                {"name": "customer_id", "primary_key": True},
                {"name": "name"},
                {"name": "email", "description": "Contact email"},
                {"name": "region_id", "description": "Home region"},
            ],
            "foreign_keys": [
                {"column": "region_id", "ref_table": "regions", "ref_column": "region_id"}
            ],
        },
        {
            "name": "products",
            "description": "Catalog of sellable products",
            "columns": [
                {"name": "product_id", "primary_key": True},
                {"name": "name"},
                {"name": "category"},
                {"name": "price", "description": "Unit list price"},
            ],
        },
        {
            "name": "orders",
            "description": "Customer orders",
            "columns": [
                {"name": "order_id", "primary_key": True},
                {"name": "customer_id", "description": "Ordering customer"},
                {"name": "total"},
                {"name": "placed_at"},
                {"name": "status"},
            ],
            "foreign_keys": [
                {
                    "column": "customer_id",
                    "ref_table": "customers",
                    "ref_column": "customer_id",
                }
            ],
        },
        {
            "name": "order_items",
            "columns": [
                {"name": "item_id", "primary_key": True},
                {"name": "order_id"},
                {"name": "product_id"},
                {"name": "quantity"},
                {"name": "price"},
            ],
            "foreign_keys": [
                {"column": "order_id", "ref_table": "orders", "ref_column": "order_id"},
                {
                    "column": "product_id",
                    "ref_table": "products",
                    "ref_column": "product_id",
                },
            ],
        },
        {
            "name": "shipments",
            "description": "Outbound shipments",
            "columns": [
                {"name": "shipment_id", "primary_key": True},
                {"name": "order_id"},
                {"name": "carrier"},
                {"name": "shipped_at"},
            ],
            "foreign_keys": [
                {"column": "order_id", "ref_table": "orders", "ref_column": "order_id"}
            ],
        },
    ]
}

SHOP_TRACE = [
    {
        "question": "list customer names with their order totals",
        "sql": "SELECT c.name, o.total FROM customers c "
        "JOIN orders o ON c.customer_id = o.customer_id",
    },
    {
        "question": "how many orders are still open",
        "sql": "SELECT COUNT(*) FROM orders WHERE status = 'open'",
    },
    {
        "question": "which products were ordered in quantity",
        "sql": "SELECT p.name, oi.quantity FROM order_items oi "
        "JOIN products p ON p.product_id = oi.product_id",
    },
    {
        "question": "shipment carriers for recent orders",
        "sql": "SELECT s.carrier FROM shipments s "
        "JOIN orders o ON s.order_id = o.order_id WHERE o.placed_at > '2024-01-01'",
    },
    {
        "question": "customer emails in the west region",
        "sql": "SELECT c.email FROM customers c "
        "JOIN regions r ON c.region_id = r.region_id WHERE r.name = 'West'",
    },
]


@pytest.fixture(scope="session")
def shop_catalog():
    return load_catalog(SHOP_DOCUMENT)


@pytest.fixture(scope="session")
def small_config():
    # 128 dimensions keeps randomized suites fast; quality tests that care
    # about collision rates pick their own dimension.
    return SimilarityConfig(dimension=128)


# External embedder served in-process; 128 dimensions like small_config.
DIMENSION = 128
SLOW_PROVIDER_S = 0.5  # how long the stub's "slow" mode waits to answer
# Valid JSON of 200 KB, under every size bound, but nested too deeply for
# json.loads, which raises RecursionError on it.
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


def stub_vector(text: str, dimension: int) -> list[float]:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return [((digest[i % 32] + i) % 97) / 97.0 + 0.01 for i in range(dimension)]


@pytest.fixture(scope="session")
def stub_provider():
    """A local embedding provider answering with ``stub_vector``s; set
    ``state["mode"]`` to make it misbehave, and back to "ok" after. Modes:
    "reject" (HTTP 500), "created" (HTTP 201), "slow" (answers after
    ``SLOW_PROVIDER_S``), "not_json", "wrong_dim", "nan", "ragged", and
    "short" (one vector too few), "nested" (a body of ``DEEP_JSON``),
    "huge" and "tiny" (every vector times 2**700 or 2**-600), and "redirect"
    (a 302 to a GET that answers the posted texts' vectors).
    ``state["posts"]`` and ``state["gets"]`` count the requests."""
    state = {"mode": "ok", "posts": 0, "gets": 0, "texts": []}
    scale = {"huge": 2.0**700, "tiny": 2.0**-600}

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def _reply(self, status, body=b"", headers=()):
            self.send_response(status)
            for header in headers:
                self.send_header(*header)
            if body:
                self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Connection", "close")  # also sets close_connection
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            state["gets"] += 1
            vectors = [stub_vector(t, DIMENSION) for t in state["texts"]]
            self._reply(200, json.dumps({"vectors": vectors}).encode())

        def do_POST(self):
            state["posts"] += 1
            length = int(self.headers.get("Content-Length", "0"))
            texts = state["texts"] = json.loads(self.rfile.read(length))["texts"]
            mode = state["mode"]
            if mode == "reject":
                self._reply(500)
                return
            if mode == "redirect":
                self._reply(302, headers=[("Location", "/vectors")])
                return
            if mode == "slow":
                time.sleep(SLOW_PROVIDER_S)
            dim = 16 if mode == "wrong_dim" else DIMENSION
            vectors = [stub_vector(t, dim) for t in texts]
            if mode == "nan":
                vectors[-1][3] = float("nan")
            if mode == "ragged":
                vectors[-1].pop()
            if mode == "short":
                vectors.pop()
            if mode in scale:
                vectors = [[x * scale[mode] for x in row] for row in vectors]
            body = json.dumps({"vectors": vectors}).encode()
            if mode == "not_json":
                body = body[:-1]
            if mode == "nested":
                body = DEEP_JSON
            self._reply(201 if mode == "created" else 200, body)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    endpoint = f"http://127.0.0.1:{server.server_address[1]}/embed"
    yield endpoint, state
    server.shutdown()
    server.server_close()


def external_config(endpoint: str) -> SimilarityConfig:
    return SimilarityConfig(
        embedder="external",
        dimension=DIMENSION,
        external_endpoint=endpoint,
        external_timeout=5.0,
    )


def counted(original, calls: list):
    """``original``, recording each call's first argument in ``calls``."""

    def wrapper(*args):
        calls.append(args[0])
        return original(*args)

    return wrapper


def write_sealed_manifest(path, doc: dict) -> None:
    """Write ``doc`` as an index manifest whose ``manifest_sha256`` matches
    it: the SHA-256 of its canonical JSON without that field. Tests use it to
    reach the checks behind the manifest's own hash."""
    unsealed = {k: v for k, v in doc.items() if k != "manifest_sha256"}
    canonical = json.dumps(unsealed, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(dict(unsealed, manifest_sha256=digest)))

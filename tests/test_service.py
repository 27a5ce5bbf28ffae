import json
import logging
import socket
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import contextmanager

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from csr.artifacts import save_index, schema_version_of
from csr.cli import main
from csr.contextual import build_chunk_index
from csr.pipeline import PipelineConfig
from csr import pipeline as pipeline_module
from csr import service as service_module
from csr.service import (
    MAX_BODY_BYTES,
    SOCKET_TIMEOUT_S,
    RetrievalService,
    make_server,
)
from csr.structural import build_knowledge_graph

from conftest import DEEP_JSON, SHOP_TRACE


@pytest.fixture(scope="module")
def running_service(shop_catalog, small_config):
    config = PipelineConfig(similarity=small_config)
    index = build_chunk_index(SHOP_TRACE, shop_catalog, small_config)
    graph = build_knowledge_graph(shop_catalog, small_config)
    service = RetrievalService(
        catalog=shop_catalog,
        chunk_index=index,
        graph=graph,
        config=config,
        schema_version=schema_version_of(shop_catalog),
    )
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base, service
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestEndpoints:
    def test_health(self, running_service, shop_catalog):
        base, _ = running_service
        resp = requests.get(base + "/v1/health", timeout=5)
        assert resp.status_code == 200
        assert resp.json()["schema_version"] == schema_version_of(shop_catalog)

    def test_stats(self, running_service, shop_catalog):
        base, _ = running_service
        doc = requests.get(base + "/v1/stats", timeout=5).json()
        assert doc["table_count"] == 6
        assert doc["column_count"] == shop_catalog.column_count
        assert doc["chunk_count"] == len(SHOP_TRACE)
        assert doc["triplet_count"] == shop_catalog.column_count

    def test_retrieve_returns_entities(self, running_service):
        base, _ = running_service
        resp = requests.post(
            base + "/v1/retrieve",
            json={"question": "list customer names with their order totals"},
            timeout=10,
        )
        assert resp.status_code == 200
        payload = resp.json()
        assert payload["entities"]
        assert "stage_timings_ms" not in payload

    def test_empty_question_is_400(self, running_service):
        base, _ = running_service
        resp = requests.post(
            base + "/v1/retrieve", json={"question": "  "}, timeout=5
        )
        assert resp.status_code == 400
        assert "question" in resp.json()["error"]

    def test_malformed_body_is_400(self, running_service):
        base, _ = running_service
        resp = requests.post(base + "/v1/retrieve", data=b"{oops", timeout=5)
        assert resp.status_code == 400

    def test_too_deeply_nested_body_is_400(self, running_service):
        base, _ = running_service
        resp = requests.post(base + "/v1/retrieve", data=DEEP_JSON, timeout=5)
        assert resp.status_code == 400
        assert resp.headers["Content-Type"] == "application/json"
        assert "nested too deeply" in resp.json()["error"]

    @pytest.mark.parametrize("method", ["PUT", "DELETE"])
    def test_unsupported_method_is_json_501(self, running_service, method):
        base, _ = running_service
        resp = requests.request(method, base + "/v1/retrieve", json={}, timeout=5)
        assert resp.status_code == 501
        assert resp.headers["Content-Type"] == "application/json"
        assert method in resp.json()["error"]

    def test_unsupported_head_has_no_body(self, running_service):
        request = b"HEAD /v1/health HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
        response = _raw_exchange(_port(running_service[0]), request)
        head, end, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 ")
        assert (end, body) == (b"\r\n\r\n", b"")

    @pytest.mark.parametrize(
        "line,status",
        [
            (b"GARBAGE", 400),
            (b"GET / HTTP/9.0", 505),
            (b"POST /v1/retrieve", 400),
        ],
        ids=["garbage", "unsupported-version", "no-version"],
    )
    def test_unparsable_request_line_gets_a_status_line(
        self, running_service, line, status
    ):
        response = _raw_exchange(_port(running_service[0]), line + b"\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 %d " % status)
        assert _status_and_json(response)[0] == status

    def test_unknown_path_is_404(self, running_service):
        base, _ = running_service
        assert requests.get(base + "/v1/nope", timeout=5).status_code == 404
        assert requests.post(base + "/v1/nope", json={}, timeout=5).status_code == 404

    def test_scope_collapse_is_422(self, running_service):
        base, _ = running_service
        resp = requests.post(
            base + "/v1/retrieve",
            json={
                "question": "category",
                "schedule_override": {
                    "steps": [[1, 1, 4]],
                    "scope_combine": "intersection",
                },
            },
            timeout=10,
        )
        assert resp.status_code == 422
        assert resp.json()["step"] == 1

    def test_bad_schedule_override_is_400(self, running_service):
        base, _ = running_service
        resp = requests.post(
            base + "/v1/retrieve",
            json={"question": "x", "schedule_override": {"steps": []}},
            timeout=5,
        )
        assert resp.status_code == 400

    def test_non_integer_schedule_step_is_400(self, running_service):
        base, _ = running_service
        for steps in ([[True, 2, 2]], [[2, 2, 2.5]], [[2, 2]], ["abc"]):
            resp = requests.post(
                base + "/v1/retrieve",
                json={"question": "x", "schedule_override": {"steps": steps}},
                timeout=5,
            )
            assert resp.status_code == 400, steps
            assert resp.headers["Content-Type"] == "application/json"
            assert "error" in resp.json()

    def test_bad_max_entities_is_400(self, running_service):
        base, _ = running_service
        for bad in (0, -1, 1.5, "2", True, False):
            resp = requests.post(
                base + "/v1/retrieve",
                json={"question": "customer orders", "max_entities": bad},
                timeout=5,
            )
            assert resp.status_code == 400, bad
            assert "max_entities" in resp.json()["error"]

    def test_misspelled_schedule_key_is_400(self, running_service):
        base, _ = running_service
        resp = requests.post(
            base + "/v1/retrieve",
            json={
                "question": "customer orders",
                "schedule_override": {
                    "steps": [[4, 8, 6]],
                    "scope_combin": "intersection",
                },
            },
            timeout=5,
        )
        assert resp.status_code == 400
        assert "scope_combin" in resp.json()["error"]

    def test_unknown_request_key_is_400(self, running_service):
        base, _ = running_service
        resp = requests.post(
            base + "/v1/retrieve",
            json={"question": "customer orders", "max_entitie": 2},
            timeout=5,
        )
        assert resp.status_code == 400
        assert "max_entitie" in resp.json()["error"]

    def test_max_entities_truncates(self, running_service):
        base, _ = running_service
        resp = requests.post(
            base + "/v1/retrieve",
            json={"question": "customer orders", "max_entities": 2},
            timeout=10,
        )
        assert resp.status_code == 200
        assert len(resp.json()["entities"]) <= 2

    def test_null_optional_fields_answer_as_if_omitted(self, running_service):
        base, _ = running_service
        bare = {"question": "customer orders"}
        nulls = {**bare, "schedule_override": None, "max_entities": None}
        answers = [
            requests.post(base + "/v1/retrieve", json=doc, timeout=10)
            for doc in (bare, nulls)
        ]
        assert [r.status_code for r in answers] == [200, 200]
        assert answers[1].json() == answers[0].json()

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_non_boolean_include_timings_is_400(self, running_service, value):
        base, _ = running_service
        resp = requests.post(
            base + "/v1/retrieve",
            json={"question": "customer orders", "include_timings": value},
            timeout=5,
        )
        assert resp.status_code == 400
        assert "include_timings must be a boolean" in resp.json()["error"]

    def test_timings_opt_in(self, running_service):
        base, _ = running_service
        resp = requests.post(
            base + "/v1/retrieve",
            json={"question": "customer orders", "include_timings": True},
            timeout=10,
        )
        assert "stage_timings_ms" in resp.json()


def _port(base: str) -> int:
    return int(base.rsplit(":", 1)[1])


def _raw_exchange(port: int, request: bytes) -> bytes:
    """Send ``request`` over one raw connection, then read until the server
    closes it."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _raw_post(port: int, content_length: str, body: bytes = b"") -> bytes:
    """POST /v1/retrieve with the given ``Content-Length`` header."""
    head = (
        "POST /v1/retrieve HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {content_length}\r\n\r\n"
    )
    return _raw_exchange(port, head.encode("ascii") + body)


def _status_and_json(response: bytes) -> tuple[int, dict]:
    header, _, body = response.partition(b"\r\n\r\n")
    assert b"Content-Type: application/json" in header
    return int(header.split()[1]), json.loads(body)


class TestRequestBounds:
    """Each request is one raw-socket client: the body is never read past
    the declared cap, and no client can pin a handler thread."""

    @pytest.mark.parametrize("declared", ["-1", "abc", "1.5", "1_0"])
    def test_bad_content_length_is_400(self, running_service, declared):
        base, _ = running_service
        status, doc = _status_and_json(_raw_post(_port(base), declared))
        assert status == 400
        assert "Content-Length" in doc["error"]

    def test_oversized_body_is_413_without_reading_it(self, running_service):
        # No body follows the header: reading it would wait for the client.
        base, _ = running_service
        response = _raw_post(_port(base), str(MAX_BODY_BYTES + 1))
        status, doc = _status_and_json(response)
        assert status == 413
        assert str(MAX_BODY_BYTES) in doc["error"]

    def test_body_at_the_cap_is_read(self, running_service):
        base, _ = running_service
        body = json.dumps({"question": "customer orders"}).encode()
        body += b" " * (MAX_BODY_BYTES - len(body))
        status, doc = _status_and_json(_raw_post(_port(base), str(len(body)), body))
        assert status == 200
        assert doc["entities"]

    def test_short_body_closes_the_connection(self, running_service, monkeypatch):
        _, service = running_service
        monkeypatch.setattr(service_module, "SOCKET_TIMEOUT_S", 0.5)
        server = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            started = time.monotonic()
            # 11 of the 100 declared bytes, and the client stays connected.
            response = _raw_post(server.server_address[1], "100", b'{"question"')
            waited = time.monotonic() - started
        finally:
            server.shutdown()
            server.server_close()  # joins the handler thread
            thread.join(timeout=10)
        assert response == b""
        assert 0.4 < waited < 5
        assert not thread.is_alive()


def _broken_stage(*args, **kwargs):
    raise KeyError("missing table id")


class TestUnexpectedFault:
    def test_stage_fault_is_json_500_without_traceback(
        self, running_service, monkeypatch
    ):
        base, _ = running_service
        monkeypatch.setattr("csr.pipeline.retrieve_structural", _broken_stage)
        resp = requests.post(
            base + "/v1/retrieve", json={"question": "customer orders"}, timeout=5
        )
        assert resp.status_code == 500
        assert resp.headers["Content-Type"] == "application/json"
        assert set(resp.json()) == {"error"}
        assert "Traceback" not in resp.text and "missing table id" not in resp.text

    def test_service_keeps_serving_after_a_fault(self, running_service, monkeypatch):
        base, service = running_service
        monkeypatch.setattr("csr.pipeline.retrieve_contextual", _broken_stage)
        assert service.retrieve({"question": "customer orders"})[0] == 500
        monkeypatch.undo()
        resp = requests.post(
            base + "/v1/retrieve", json={"question": "customer orders"}, timeout=5
        )
        assert resp.status_code == 200


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)
_STEPS = st.lists(
    st.lists(st.integers(min_value=-1, max_value=40) | _JSON_VALUES, max_size=4),
    max_size=4,
)
_SCHEDULES = st.fixed_dictionaries(
    {},
    optional={
        "steps": _STEPS | _JSON_VALUES,
        "scope_combine": st.sampled_from(["union", "intersection"]) | _JSON_VALUES,
    },
)
_REQUESTS = st.fixed_dictionaries(
    {},
    optional={
        "question": st.sampled_from(["customer orders", "open shipments", " "])
        | _JSON_VALUES,
        "schedule_override": _SCHEDULES | _JSON_VALUES,
        "max_entities": st.integers(min_value=-1, max_value=40) | _JSON_VALUES,
        "include_timings": _JSON_VALUES,
        "max_entitie": _JSON_VALUES,
    },
)


@settings(max_examples=300, deadline=None)
@given(doc=_REQUESTS | _JSON_VALUES)
def test_any_request_document_gets_a_json_answer_and_never_500(running_service, doc):
    _, service = running_service
    status, payload = service.retrieve(doc)
    assert status in (200, 400, 422), (status, payload)
    assert isinstance(payload, dict)
    json.dumps(payload)


class TestConcurrency:
    def test_fifty_concurrent_identical_requests(self, running_service):
        base, _ = running_service
        body = {"question": "which orders shipped to the west region"}

        def hit(_):
            return requests.post(base + "/v1/retrieve", json=body, timeout=30).text

        with ThreadPoolExecutor(max_workers=16) as pool:
            payloads = list(pool.map(hit, range(50)))
        assert len(set(payloads)) == 1

    def test_retrievals_run_one_at_a_time(
        self, shop_catalog, small_config, monkeypatch
    ):
        lock = threading.Lock()
        running = most = 0
        run_pipeline = pipeline_module.run_pipeline

        def recording_run_pipeline(*args):
            nonlocal running, most
            with lock:
                running += 1
                most = max(most, running)
            try:
                time.sleep(0.1)  # long enough for the other clients to arrive
                return run_pipeline(*args)
            finally:
                with lock:
                    running -= 1

        monkeypatch.setattr(pipeline_module, "run_pipeline", recording_run_pipeline)
        with _serving(_service(shop_catalog, small_config)) as server:
            url = f"http://127.0.0.1:{server.server_address[1]}/v1/retrieve"

            def post(_):
                return requests.post(
                    url, json={"question": "customer orders"}, timeout=30
                ).status_code

            with ThreadPoolExecutor(max_workers=4) as pool:
                statuses = list(pool.map(post, range(4)))
        assert statuses == [200] * 4
        assert most == 1


class TestCliParity:
    def test_cli_and_service_payloads_match(
        self, running_service, tmp_path, capsys, shop_catalog, small_config
    ):
        base, service = running_service
        config = PipelineConfig(similarity=small_config)
        index = build_chunk_index(SHOP_TRACE, shop_catalog, small_config)
        graph = build_knowledge_graph(shop_catalog, small_config)
        save_index(tmp_path, shop_catalog, index, graph, config)

        question = "how many orders are still open"
        assert main(["query", "--index", str(tmp_path), question]) == 0
        cli_payload = capsys.readouterr().out.strip()
        service_payload = requests.post(
            base + "/v1/retrieve", json={"question": question}, timeout=10
        ).text
        assert json.loads(cli_payload) == json.loads(service_payload)
        assert cli_payload == service_payload


def _service(shop_catalog, small_config) -> RetrievalService:
    return RetrievalService(
        catalog=shop_catalog,
        chunk_index=build_chunk_index(SHOP_TRACE, shop_catalog, small_config),
        graph=build_knowledge_graph(shop_catalog, small_config),
        config=PipelineConfig(similarity=small_config),
        schema_version=schema_version_of(shop_catalog),
    )


@contextmanager
def _serving(service):
    """Serve ``service`` on a free loopback port; yield the server, then shut
    it down and check that its thread ended."""
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture()
def release(monkeypatch):
    """Every retrieval waits in the pipeline until this event is set."""
    event = threading.Event()
    run_pipeline = pipeline_module.run_pipeline

    def blocking_run_pipeline(*args):
        event.wait(timeout=30)
        return run_pipeline(*args)

    monkeypatch.setattr(pipeline_module, "run_pipeline", blocking_run_pipeline)
    yield event
    event.set()


class TestLoadShedding:
    def test_requests_beyond_the_queue_get_json_503(
        self, shop_catalog, small_config, monkeypatch, release
    ):
        # Two queue places: of four concurrent clients, three are admitted
        # (one runs and blocks in the pipeline, two wait for it), and the
        # fourth is turned away at once.
        monkeypatch.setattr(service_module, "MAX_QUEUED", 2)
        service = _service(shop_catalog, small_config)
        with _serving(service) as server:
            url = f"http://127.0.0.1:{server.server_address[1]}/v1/retrieve"

            def post(_):
                return requests.post(
                    url, json={"question": "customer orders"}, timeout=30
                )

            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(post, i) for i in range(4)]
                done, _ = wait(futures, timeout=20, return_when=FIRST_COMPLETED)
                assert len(done) == 1
                shed = next(iter(done)).result()
                assert shed.status_code == 503
                assert shed.headers["Content-Type"] == "application/json"
                assert "waiting" in shed.json()["error"]
                release.set()
                statuses = sorted(f.result().status_code for f in futures)
            assert statuses == [200, 200, 200, 503]
            assert post(None).status_code == 200

    @pytest.mark.parametrize("queued", [1, 63])
    def test_a_full_queue_leaves_a_thread_for_the_503(
        self, shop_catalog, small_config, monkeypatch, release, queued
    ):
        # Every admitted request holds a handler thread while it runs or
        # waits; one more client must still get its 503 at once. A fixed cap
        # of 64 threads left none from 64 admitted requests on.
        monkeypatch.setattr(service_module, "MAX_QUEUED", queued)
        admitted = 1 + queued
        service = _service(shop_catalog, small_config)
        with _serving(service) as server:
            url = f"http://127.0.0.1:{server.server_address[1]}/v1/retrieve"

            def post(_):
                return requests.post(url, json={"question": "orders"}, timeout=30)

            with ThreadPoolExecutor(max_workers=admitted + 1) as pool:
                futures = [pool.submit(post, i) for i in range(admitted + 1)]
                done, _ = wait(futures, timeout=20, return_when=FIRST_COMPLETED)
                release.set()
                assert [f.result().status_code for f in done] == [503]
                statuses = sorted(f.result().status_code for f in futures)
            assert statuses == [200] * admitted + [503]


class TestConnectionBound:
    def test_handler_threads_are_bounded(self, shop_catalog, small_config, monkeypatch):
        # No queue: at most two handler threads.
        monkeypatch.setattr(service_module, "MAX_QUEUED", 0)
        service = _service(shop_catalog, small_config)
        before = set(threading.enumerate())

        def handlers():
            return [
                t
                for t in threading.enumerate()
                if t not in before and "process_request_thread" in t.name
            ]

        with _serving(service) as server:
            port = server.server_address[1]
            idle = [socket.create_connection(("127.0.0.1", port)) for _ in range(4)]
            try:
                deadline = time.monotonic() + 5
                while len(handlers()) < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.3)  # room for the accept loop to start more threads
                assert len(handlers()) == 2
                for sock in idle:
                    sock.close()
                resp = requests.get(f"http://127.0.0.1:{port}/v1/health", timeout=5)
                assert resp.status_code == 200
            finally:
                for sock in idle:
                    sock.close()
                started = time.monotonic()
        assert time.monotonic() - started < SOCKET_TIMEOUT_S
        assert not handlers()

    @pytest.mark.parametrize(
        "error,level",
        [
            (BrokenPipeError(32, "Broken pipe"), logging.DEBUG),
            (KeyError("missing table id"), logging.ERROR),
        ],
        ids=["hang-up", "fault"],
    )
    def test_handler_errors_go_to_the_log_not_stderr(
        self, running_service, capsys, caplog, error, level
    ):
        _, service = running_service
        server = make_server(service, "127.0.0.1", 0)
        try:
            with caplog.at_level(logging.DEBUG, logger="csr.service"):
                try:
                    raise error
                except type(error):
                    server.handle_error(None, ("127.0.0.1", 50000))
        finally:
            server.server_close()
        assert capsys.readouterr().err == ""
        [record] = caplog.records
        assert record.levelno == level
        # Only a fault logs its traceback.
        assert (record.exc_info is not None) == (level == logging.ERROR)

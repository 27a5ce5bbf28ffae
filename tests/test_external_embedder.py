import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import requests

from csr import contextual, relational, structural
from csr.artifacts import load_index, save_index
from csr.cli import main
from csr.contextual import build_chunk_index, retrieve_contextual
from csr.pipeline import PipelineConfig, default_schedule, run_pipeline
from csr.service import RetrievalService, make_server
from csr.similarity import (
    EmbeddingProviderError,
    SimilarityConfig,
    embed,
    embed_batch,
)
from csr.structural import build_knowledge_graph

from conftest import DIMENSION, SHOP_DOCUMENT, SHOP_TRACE, counted, external_config

CLOSED_ENDPOINT = "http://127.0.0.1:9/embed"  # nothing listens there


class TestExternalProvider:
    def test_deterministic_unit_vectors(self, stub_provider):
        endpoint, state = stub_provider
        state["mode"] = "ok"
        config = external_config(endpoint)
        a = embed("count open orders", config)
        b = embed("count open orders", config)
        assert np.array_equal(a, b)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-6

    def test_batch_preserves_order(self, stub_provider):
        endpoint, state = stub_provider
        state["mode"] = "ok"
        config = external_config(endpoint)
        texts = ["alpha", "beta", "gamma"]
        batch = embed_batch(texts, config)
        for text, row in zip(texts, batch):
            assert np.array_equal(embed(text, config), row)

    def test_transport_failure_kind(self):
        config = external_config(CLOSED_ENDPOINT)
        with pytest.raises(EmbeddingProviderError) as err:
            embed("x", config)
        assert err.value.kind == "transport"

    def test_rejection_kind(self, stub_provider):
        endpoint, state = stub_provider
        state["mode"] = "reject"
        with pytest.raises(EmbeddingProviderError) as err:
            embed("x", external_config(endpoint))
        assert err.value.kind == "rejection"
        state["mode"] = "ok"

    def test_dimension_mismatch_rejected(self, stub_provider):
        endpoint, state = stub_provider
        state["mode"] = "wrong_dim"
        with pytest.raises(EmbeddingProviderError, match="dimension mismatch"):
            embed("x", external_config(endpoint))
        state["mode"] = "ok"

    def test_non_finite_vector_rejected(self, stub_provider):
        endpoint, state = stub_provider
        state["mode"] = "nan"
        with pytest.raises(EmbeddingProviderError, match="non-finite") as err:
            embed_batch(["alpha", "beta"], external_config(endpoint))
        assert err.value.kind == "rejection"
        state["mode"] = "ok"

    def test_ragged_vectors_rejected(self, stub_provider):
        endpoint, state = stub_provider
        state["mode"] = "ragged"
        with pytest.raises(EmbeddingProviderError, match="malformed") as err:
            embed_batch(["alpha", "beta"], external_config(endpoint))
        assert err.value.kind == "rejection"
        state["mode"] = "ok"

    def test_missing_endpoint_rejected(self):
        config = SimilarityConfig(embedder="external", dimension=DIMENSION)
        with pytest.raises(EmbeddingProviderError) as err:
            embed("x", config)
        assert err.value.kind == "rejection"

    @pytest.mark.parametrize(
        "mode,endpoint,kind",
        [
            ("slow", None, "transport"),
            ("created", None, "rejection"),
            ("not_json", None, "rejection"),
            ("short", None, "rejection"),
            ("nested", None, "rejection"),
            ("ok", "127.0.0.1:9/embed", "transport"),
            ("ok", "http://[::1", "transport"),
            ("ok", "ftp://x/y", "transport"),
            ("ok", "file:///etc/hostname", "transport"),
        ],
        ids=[
            "timeout",
            "status-201",
            "not-json",
            "one-vector-short",
            "nested-too-deeply",
            "no-scheme",
            "malformed-url",
            "ftp-scheme",
            "file-scheme",
        ],
    )
    def test_failure_kind(self, stub_provider, mode, endpoint, kind):
        stub_endpoint, state = stub_provider
        config = external_config(endpoint or stub_endpoint)
        if mode == "slow":
            # The stub answers after SLOW_PROVIDER_S, well past this.
            config = dataclasses.replace(config, external_timeout=0.1)
        state["mode"] = mode
        try:
            with pytest.raises(EmbeddingProviderError) as err:
                embed_batch(["alpha", "beta"], config)
        finally:
            state["mode"] = "ok"
        assert err.value.kind == kind

    def test_index_build_and_retrieval_via_external(
        self, stub_provider, shop_catalog
    ):
        endpoint, state = stub_provider
        state["mode"] = "ok"
        config = external_config(endpoint)
        index = build_chunk_index(SHOP_TRACE, shop_catalog, config)
        assert len(index) == len(SHOP_TRACE)
        result = retrieve_contextual(index, "open orders", k=2)
        assert len(result.ranked_chunks) == 2

    def test_one_query_posts_once_per_embedding(
        self, stub_provider, shop_catalog, monkeypatch
    ):
        endpoint, state = stub_provider
        state["mode"] = "ok"
        config = PipelineConfig(similarity=external_config(endpoint))
        index = build_chunk_index(SHOP_TRACE, shop_catalog, config.similarity)
        graph = build_knowledge_graph(shop_catalog, config.similarity)
        calls = {module: [] for module in (contextual, structural, relational)}
        for module, made in calls.items():
            for name in ("embed", "embed_batch"):
                monkeypatch.setattr(module, name, counted(getattr(module, name), made))
        schedule = default_schedule(len(shop_catalog.tables))
        assert len(schedule.steps) == 3
        before = state["posts"]
        run_pipeline("open orders", index, graph, shop_catalog, schedule, config)
        assert state["posts"] - before == 4
        # The question once per narrowing corpus; the entity surfaces and
        # the question for the relational ranking.
        assert [len(made) for made in calls.values()] == [1, 1, 2]


class TestUnreachableProvider:
    """Provider failures during indexing or retrieval follow the error
    contract: one JSON line and exit 2 on the CLI, a JSON 502 over HTTP."""

    @pytest.fixture()
    def unreachable_index(self, stub_provider, shop_catalog, tmp_path):
        # Vectors built while a provider answered; the saved config now
        # points at one that is down.
        endpoint, state = stub_provider
        state["mode"] = "ok"
        answering = external_config(endpoint)
        index = build_chunk_index(SHOP_TRACE, shop_catalog, answering)
        graph = build_knowledge_graph(shop_catalog, answering)
        config = PipelineConfig(similarity=external_config(CLOSED_ENDPOINT))
        save_index(tmp_path / "idx", shop_catalog, index, graph, config)
        return tmp_path / "idx"

    @pytest.fixture()
    def closed_port_inputs(self, tmp_path):
        """--schema/--trace/--config flags for a config that embeds through
        the closed port."""
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(SHOP_DOCUMENT))
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(json.dumps(e) for e in SHOP_TRACE))
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "similarity": {
                        "embedder": "external",
                        "dimension": DIMENSION,
                        "external_endpoint": CLOSED_ENDPOINT,
                    }
                }
            )
        )
        return ["--schema", str(schema), "--trace", str(trace), "--config", str(config)]

    @staticmethod
    def _assert_exit_2_with_kind(code, capsys):
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1
        assert json.loads(err[0])["kind"] == "transport"

    def test_cli_index_exits_2_with_kind(self, closed_port_inputs, tmp_path, capsys):
        code = main(["index", *closed_port_inputs, "--out", str(tmp_path / "idx")])
        self._assert_exit_2_with_kind(code, capsys)

    def test_cli_eval_exits_2_with_kind(self, closed_port_inputs, tmp_path, capsys):
        code = main(["eval", *closed_port_inputs, "--out", str(tmp_path / "r.csv")])
        self._assert_exit_2_with_kind(code, capsys)

    def test_cli_bench_exits_2_with_kind(self, closed_port_inputs, capsys):
        code = main(["bench", *closed_port_inputs, "--repetitions", "1"])
        self._assert_exit_2_with_kind(code, capsys)

    def test_cli_query_exits_2_with_kind(self, unreachable_index, capsys):
        code = main(["query", "--index", str(unreachable_index), "open orders"])
        self._assert_exit_2_with_kind(code, capsys)

    def test_service_answers_502_with_kind(self, unreachable_index):
        catalog, index, graph, config, manifest = load_index(unreachable_index)
        service = RetrievalService(
            catalog=catalog,
            chunk_index=index,
            graph=graph,
            config=config,
            schema_version=manifest["schema_version"],
        )
        server = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            resp = requests.post(
                f"http://127.0.0.1:{server.server_address[1]}/v1/retrieve",
                json={"question": "open orders"},
                timeout=10,
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert resp.status_code == 502
        assert resp.json()["kind"] == "transport"


def test_cli_import_loads_no_third_party_http_client():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import csr.cli, sys; "
        "print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

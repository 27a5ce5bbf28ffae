import copy
import hashlib
import json
import os
import signal
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import requests

from csr import cli as cli_module
from csr.cli import main

from conftest import DEEP_JSON, SHOP_DOCUMENT, SHOP_TRACE


@pytest.fixture()
def inputs(tmp_path):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(SHOP_DOCUMENT))
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(json.dumps(e) for e in SHOP_TRACE))
    return schema, trace, tmp_path


# `csr serve`, but each retrieval says so on stdout and then takes a second,
# so that a test can stop the server while one is in flight.
_SLOW_SERVE = """
import logging, sys, time
from csr import cli, pipeline

run_pipeline = pipeline.run_pipeline

def slow_run_pipeline(*args):
    print("retrieving", flush=True)
    time.sleep(1)
    return run_pipeline(*args)

pipeline.run_pipeline = slow_run_pipeline
logging.basicConfig(level=logging.INFO, stream=sys.stdout, format="%(message)s")
sys.exit(cli.main(sys.argv[1:]))
"""


def _index(inputs, capsys):
    schema, trace, tmp_path = inputs
    out = tmp_path / "idx"
    code = main(
        ["index", "--schema", str(schema), "--trace", str(trace), "--out", str(out)]
    )
    captured = capsys.readouterr()
    return code, out, captured


class TestIndex:
    def test_valid_inputs_write_three_artifacts(self, inputs, capsys):
        code, out, captured = _index(inputs, capsys)
        assert code == 0
        summary = json.loads(captured.out)
        assert summary["files"] == ["catalog.json", "chunks.json"]
        assert sorted(p.name for p in out.iterdir()) == [
            "catalog.json",
            "chunks.json",
            "manifest.json",
        ]

    def test_string_primary_key_exits_2_naming_the_column(self, inputs, capsys):
        schema = inputs[0]
        doc = copy.deepcopy(SHOP_DOCUMENT)
        doc["tables"][1]["columns"][2]["primary_key"] = "false"
        schema.write_text(json.dumps(doc))
        code, out, captured = _index(inputs, capsys)
        assert code == 2
        error = json.loads(captured.err)["error"]
        assert "tables[1].columns[2]: primary_key" in error
        assert not out.exists()

    def test_misspelled_override_table_exits_2_naming_it(self, inputs, capsys):
        trace = inputs[1]
        line = {"question": "open orders", "sql": "SELECT total FROM orders"}
        trace.write_text(json.dumps(dict(line, tables=["ordrs"])) + "\n")
        code, out, captured = _index(inputs, capsys)
        assert code == 2
        assert "'ordrs'" in json.loads(captured.err)["error"]
        assert not out.exists()

    def test_missing_schema_exits_2_with_path(self, inputs, capsys):
        _, trace, tmp_path = inputs
        code = main(
            [
                "index",
                "--schema",
                str(tmp_path / "absent.json"),
                "--trace",
                str(trace),
                "--out",
                str(tmp_path / "idx2"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        err = json.loads(captured.err)
        assert "absent.json" in json.dumps(err)

    def test_rerun_produces_identical_hashes(self, inputs, capsys):
        schema, trace, tmp_path = inputs
        for out_name in ("run1", "run2"):
            code = main(
                [
                    "index",
                    "--schema",
                    str(schema),
                    "--trace",
                    str(trace),
                    "--out",
                    str(tmp_path / out_name),
                ]
            )
            assert code == 0
        capsys.readouterr()
        m1 = json.loads((tmp_path / "run1" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "run2" / "manifest.json").read_text())
        assert m1["files"] == m2["files"]


    def test_unknown_config_key_exits_2_naming_it(self, inputs, capsys):
        schema, trace, tmp_path = inputs
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ranking": {"unavailable_policy": "skip"}}))
        code = main(
            [
                "index",
                "--schema",
                str(schema),
                "--trace",
                str(trace),
                "--out",
                str(tmp_path / "idx"),
                "--config",
                str(config),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "unavailable_policy" in json.loads(captured.err)["error"]

    def test_wrongly_typed_config_value_exits_2_naming_section(self, inputs, capsys):
        schema, trace, tmp_path = inputs
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"similarity": {"dimension": "x"}}))
        code = main(
            [
                "index",
                "--schema",
                str(schema),
                "--trace",
                str(trace),
                "--out",
                str(tmp_path / "idx"),
                "--config",
                str(config),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "similarity" in json.loads(captured.err)["error"]

    def test_boolean_schedule_step_exits_2(self, inputs, capsys):
        schema, trace, tmp_path = inputs
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schedule": {"steps": [[True, 2, 2]]}}))
        code = main(
            [
                "index",
                "--schema",
                str(schema),
                "--trace",
                str(trace),
                "--out",
                str(tmp_path / "idx"),
                "--config",
                str(config),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "three integers" in json.loads(captured.err)["error"]


    @pytest.mark.parametrize(
        "config_doc,named",
        [
            ({"schedul": {"steps": [[4, 8, 6]]}}, "schedul"),
            ({"contextual_scope_mode": "bogus"}, "contextual_scope_mode"),
            ({"unavailable_tables": "audit_map"}, "unavailable_tables"),
            ({"unavailable_tables": [1]}, "unavailable_tables"),
            ({"unavailable_tables": ["orders", "ordrs"]}, "'ordrs'"),
            (
                {"schedule": {"steps": [[4, 8, 6]], "scope_combin": "intersection"}},
                "scope_combin",
            ),
            ({"similarity": {"dimension": 100.5}}, "dimension"),
            ({"ranking": {"h": 2.5}}, "ranking"),
            ({"ranking": {"h": 2}}, "h is set per schedule step"),
            ([], "pipeline config"),
            ({"similarity": {"bm25_k1": float("nan")}}, "bm25_k1"),
            ({"similarity": {"bm25_k1": float("inf")}}, "bm25_k1"),
            ({"similarity": {"bm25_b": True}}, "bm25_b"),
            ({"similarity": {"external_endpoint": 5}}, "external_endpoint"),
            (
                {"similarity": {"metric": "bm25", "embedder": "external"}},
                "embedder must be hashed_tfidf",
            ),
        ],
        ids=[
            "top-level-typo",
            "scope-mode",
            "unavailable-string",
            "unavailable-number",
            "unavailable-misspelled",
            "schedule-typo",
            "float-dimension",
            "float-h",
            "ranking-h",
            "not-an-object",
            "nan-k1",
            "infinite-k1",
            "boolean-b",
            "numeric-endpoint",
            "bm25-external",
        ],
    )
    def test_invalid_config_exits_2_naming_it(self, inputs, capsys, config_doc, named):
        schema, trace, tmp_path = inputs
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_doc))
        out = tmp_path / "idx"
        code = main(
            [
                "index",
                "--schema",
                str(schema),
                "--trace",
                str(trace),
                "--out",
                str(out),
                "--config",
                str(config),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert len(captured.err.splitlines()) == 1
        assert named in json.loads(captured.err)["error"]
        assert not out.exists()


    @pytest.mark.parametrize(
        "line,named",
        [
            ('"question sql"', "must be a JSON object"),
            ('{"question": 7, "sql": "SELECT 1 FROM orders"}', "question"),
            ('{"question": "open orders", "sql": ""}', "sql"),
            ('{"question": "open orders", "sql": "SELECT 1 FROM orders", "tables": "x"}', "tables"),
            ('{"question": "open orders"}', "sql"),
            (DEEP_JSON.decode(), "nested too deeply"),
        ],
        ids=[
            "json-string",
            "numeric-question",
            "empty-sql",
            "string-tables",
            "no-sql",
            "nested-too-deeply",
        ],
    )
    def test_invalid_trace_line_exits_2_naming_it(self, inputs, capsys, line, named):
        schema, trace, tmp_path = inputs
        trace.write_text(json.dumps(SHOP_TRACE[0]) + "\n" + line + "\n")
        out = tmp_path / "idx"
        code = main(
            ["index", "--schema", str(schema), "--trace", str(trace), "--out", str(out)]
        )
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1
        message = json.loads(err[0])["error"]
        assert message.startswith(f"{trace}:2: ")
        assert named in message
        assert not out.exists()


class TestQuery:
    def test_json_output_with_entities(self, inputs, capsys):
        _, out, _ = _index(inputs, capsys)
        code = main(
            ["query", "--index", str(out), "list customer names with their order totals"]
        )
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert len(payload["entities"]) >= 1
        assert "stage_timings_ms" not in payload
        assert payload["tables"]

    def test_tables_only_prints_plain_list(self, inputs, capsys):
        _, out, _ = _index(inputs, capsys)
        code = main(
            [
                "query",
                "--index",
                str(out),
                "list customer names with their order totals",
                "--tables-only",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert lines == sorted(lines)
        for line in lines:
            assert not line.startswith("{")

    def test_identical_invocations_byte_identical(self, inputs, capsys):
        _, out, _ = _index(inputs, capsys)
        main(["query", "--index", str(out), "open orders"])
        first = capsys.readouterr().out
        main(["query", "--index", str(out), "open orders"])
        second = capsys.readouterr().out
        assert first == second

    def test_timings_flag_adds_stage_map(self, inputs, capsys):
        _, out, _ = _index(inputs, capsys)
        code = main(["query", "--index", str(out), "open orders", "--timings"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert "stage_timings_ms" in payload

    def test_scope_collapse_exits_3(self, inputs, capsys):
        schema, trace, tmp_path = inputs
        out = tmp_path / "idx_strict"
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "similarity": {"dimension": 128},
                    "schedule": {
                        "steps": [[1, 1, 4]],
                        "scope_combine": "intersection",
                    },
                }
            )
        )
        main(
            [
                "index",
                "--schema",
                str(schema),
                "--trace",
                str(trace),
                "--out",
                str(out),
                "--config",
                str(config),
            ]
        )
        capsys.readouterr()
        code = main(["query", "--index", str(out), "category"])
        captured = capsys.readouterr()
        assert code == 3
        err = json.loads(captured.err)
        assert err["iteration"] == 1

    def test_format_1_index_exits_2_with_version_mismatch(self, inputs, capsys):
        _, out, _ = _index(inputs, capsys)
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = "1"
        manifest_path.write_text(json.dumps(manifest))
        code = main(["query", "--index", str(out), "open orders"])
        captured = capsys.readouterr()
        assert code == 2
        assert "version mismatch" in json.loads(captured.err)["error"]

    def test_too_deeply_nested_manifest_exits_2(self, inputs, capsys):
        _, out, _ = _index(inputs, capsys)
        (out / "manifest.json").write_bytes(DEEP_JSON)
        code = main(["query", "--index", str(out), "open orders"])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1
        assert "nested too deeply" in json.loads(err[0])["error"]

    def test_missing_index_dir_exits_2(self, tmp_path, capsys):
        code = main(["query", "--index", str(tmp_path / "nope"), "q"])
        captured = capsys.readouterr()
        assert code == 2
        assert "manifest" in json.loads(captured.err)["error"]

    def test_schedule_override_flag(self, inputs, capsys):
        _, out, _ = _index(inputs, capsys)
        code = main(
            [
                "query",
                "--index",
                str(out),
                "shipment carriers",
                "--schedule",
                "3,8,4;2,4,4",
                "--max-entities",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert len(payload["entities"]) <= 2

    @pytest.mark.parametrize("schedule", ["", "4,8,x", "4,8", "4,8,6;"])
    def test_invalid_schedule_flag_exits_2_naming_it(self, inputs, capsys, schedule):
        _, out, _ = _index(inputs, capsys)
        code = main(["query", "--index", str(out), "open orders", "--schedule", schedule])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"].startswith("--schedule")

    @pytest.mark.parametrize("bad", ["0", "-1"])
    def test_non_positive_max_entities_exits_2(self, inputs, capsys, bad):
        _, out, _ = _index(inputs, capsys)
        code = main(["query", "--index", str(out), "open orders", "--max-entities", bad])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "max_entities" in json.loads(captured.err)["error"]


class TestEvalAndBench:
    @pytest.mark.parametrize(
        "config_doc, sha256",
        [
            ({}, "c4211a3eadd5d31ee9c6443e57575d2966764e82b057a6939bf6d6ce40c84fc7"),
            (
                {"similarity": {"metric": "bm25"}},
                "83bce2f58d024e9958c28fcbcc355250f096cee8af43cfcbd83d68363ceda18f",
            ),
        ],
        ids=["cosine", "bm25"],
    )
    def test_default_sweep_csv_bytes_are_pinned(
        self, tmp_path, capsys, config_doc, sha256
    ):
        # The default 100-table profile, labelled by SQL extraction end to
        # end: a change to lexing, labels or scoring moves these digests.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_doc))
        out = tmp_path / "results.csv"
        code = main(["eval", "--config", str(config), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_eval_writes_csv(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(
            json.dumps({"table_count": 15, "query_count": 40, "seed": 3})
        )
        out = tmp_path / "results.csv"
        code = main(
            ["eval", "--profile", str(profile), "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        header = out.read_text().splitlines()[0]
        assert header == "group,schedule_id,iteration,k,l,h,precision,recall"
        assert json.loads(captured.out)["rows"] == 9

    def test_bench_reports_percentiles(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(
            json.dumps({"table_count": 12, "query_count": 32, "seed": 3})
        )
        report_path = tmp_path / "latency.json"
        code = main(
            [
                "bench",
                "--profile",
                str(profile),
                "--repetitions",
                "30",
                "--out",
                str(report_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        report = json.loads(report_path.read_text())
        assert report["p50_ms"] <= report["p90_ms"] <= report["p99_ms"]
        assert report["sample_count"] == 30

    def test_blank_question_exits_2(self, inputs, capsys):
        _, out, _ = _index(inputs, capsys)
        code = main(["query", "--index", str(out), "   "])
        captured = capsys.readouterr()
        assert code == 2
        assert "question" in json.loads(captured.err)["error"]

    def test_serve_rejects_bad_bind(self, inputs, capsys):
        _, out, _ = _index(inputs, capsys)
        for bind in ["localhost:notaport", "127.0.0.1:99999", "127.0.0.1:65536", ":-5"]:
            code = main(["serve", "--index", str(out), "--bind", bind])
            captured = capsys.readouterr()
            assert code == 2, bind
            assert captured.err.count("\n") == 1, captured.err
            assert "bind" in json.loads(captured.err)["error"]

    def test_serve_missing_index_exits_2(self, tmp_path, capsys):
        code = main(["serve", "--index", str(tmp_path / "void")])
        captured = capsys.readouterr()
        assert code == 2

    def test_sigterm_drains_the_request_in_flight(self, inputs, capsys):
        _, out, _ = _index(inputs, capsys)
        src = Path(cli_module.__file__).resolve().parents[1]
        argv = ["serve", "--index", str(out), "--bind", "127.0.0.1:0"]
        proc = subprocess.Popen(
            [sys.executable, "-c", _SLOW_SERVE, *argv],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        try:
            # The first line is "serving on 127.0.0.1:<port>".
            port = int(proc.stdout.readline().rsplit(":", 1)[1])
            url = f"http://127.0.0.1:{port}/v1/retrieve"
            with ThreadPoolExecutor(max_workers=1) as pool:
                reply = pool.submit(
                    requests.post, url, json={"question": "open orders"}, timeout=30
                )
                assert proc.stdout.readline() == "retrieving\n"
                proc.send_signal(signal.SIGTERM)
                assert reply.result().status_code == 200
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_embedder_endpoint_env_var(self, monkeypatch):
        from csr.cli import _load_config

        monkeypatch.setenv("CSR_EMBEDDER_ENDPOINT", "http://10.0.0.5:9000/embed")
        config = _load_config(None)
        assert config.similarity.external_endpoint == "http://10.0.0.5:9000/embed"

    def test_seed_flag_overrides_profile(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"table_count": 12, "query_count": 32}))
        outs = []
        for seed in ("5", "6"):
            out = tmp_path / f"r{seed}.csv"
            code = main(
                [
                    "eval",
                    "--profile",
                    str(profile),
                    "--seed",
                    seed,
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_text())
        capsys.readouterr()
        assert outs[0] != outs[1]

    @pytest.mark.parametrize(
        "profile_doc,named",
        [
            ({"tabel_count": 30}, "tabel_count"),
            ({"table_count": "30"}, "table_count"),
            ({"table_count": 30.5}, "table_count"),
            ({"seed": True}, "seed"),
            ([], "generator profile"),
            ({"tables_per_query_stddev": float("nan")}, "tables_per_query_stddev"),
            ({"tables_per_query_stddev": float("inf")}, "tables_per_query_stddev"),
        ],
        ids=[
            "typo",
            "string-count",
            "float-count",
            "boolean-seed",
            "not-an-object",
            "nan-stddev",
            "infinite-stddev",
        ],
    )
    def test_invalid_profile_exits_2_naming_it(self, tmp_path, capsys, profile_doc, named):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(profile_doc))
        code = main(["bench", "--profile", str(profile), "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert len(captured.err.splitlines()) == 1
        assert named in json.loads(captured.err)["error"]

    def test_profile_beyond_the_name_pool_exits_2(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"table_count": 10**9}))
        out = tmp_path / "results.csv"
        code = main(["eval", "--profile", str(profile), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "name pool (960)" in json.loads(captured.err)["error"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "schedules_doc,named",
        [
            ([{"steps": [[4, 8, 6]], "scope_combin": "intersection"}], "scope_combin"),
            ({"steps": [[4, 8, 6]]}, "--schedules"),
        ],
        ids=["entry-typo", "not-a-list"],
    )
    def test_invalid_schedules_exit_2_naming_it(
        self, inputs, capsys, schedules_doc, named
    ):
        schema, trace, tmp_path = inputs
        schedules = tmp_path / "schedules.json"
        schedules.write_text(json.dumps(schedules_doc))
        code = main(
            [
                "eval",
                "--schema",
                str(schema),
                "--trace",
                str(trace),
                "--schedules",
                str(schedules),
                "--out",
                str(tmp_path / "rows.csv"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert named in json.loads(captured.err)["error"]


class TestInputFiles:
    @pytest.mark.parametrize(
        "content",
        ["{bad", "", DEEP_JSON.decode()],
        ids=["truncated", "empty", "nested-too-deeply"],
    )
    @pytest.mark.parametrize(
        "command,flag",
        [
            ("index", "--schema"),
            ("index", "--config"),
            ("eval", "--profile"),
            ("eval", "--schedules"),
        ],
    )
    def test_bad_json_file_error_starts_with_its_path(
        self, inputs, capsys, command, flag, content
    ):
        schema, trace, tmp_path = inputs
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        files = {"--schema": str(schema), "--trace": str(trace)}
        if flag == "--profile":
            files = {}
        files[flag] = str(bad)
        out = tmp_path / ("idx" if command == "index" else "rows.csv")
        argv = [command, *(x for item in files.items() for x in item)]
        code = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1
        assert json.loads(err[0])["error"].startswith(f"{bad}: not valid JSON")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--schema"],
            ["--trace"],
            ["--schema", "--profile"],
            ["--schema", "--trace", "--profile"],
            ["--schema", "--trace", "--seed"],
        ],
        ids=["schema-alone", "trace-alone", "schema-profile", "with-profile", "with-seed"],
    )
    def test_schema_and_trace_go_together_without_generator_flags(
        self, inputs, capsys, flags
    ):
        schema, trace, tmp_path = inputs
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"table_count": 12, "query_count": 32}))
        values = {
            "--schema": str(schema),
            "--trace": str(trace),
            "--profile": str(profile),
            "--seed": "3",
        }
        out = tmp_path / "rows.csv"
        argv = ["eval", *(x for flag in flags for x in (flag, values[flag]))]
        code = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1
        error = json.loads(err[0])["error"]
        assert all(flag in error for flag in values)
        assert not out.exists()

import dataclasses
import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csr import artifacts
from csr.artifacts import (
    ArtifactError,
    ArtifactVersionError,
    load_index,
    save_index,
    schema_version_of,
)
from csr.catalog import to_document
from csr.cli import main
from csr.contextual import build_chunk_index
from csr.pipeline import IterationSchedule, PipelineConfig, run_pipeline
from csr.similarity import embed
from csr.structural import build_knowledge_graph

from conftest import SHOP_TRACE, external_config, write_sealed_manifest

VECTOR_FILES = [
    "chunk_vectors.bin",
    "chunk_vectors.meta.json",
    "graph_vectors.bin",
    "graph_vectors.meta.json",
]


def _build(catalog, similarity):
    index = build_chunk_index(SHOP_TRACE, catalog, similarity)
    graph = build_knowledge_graph(catalog, similarity)
    return catalog, index, graph, PipelineConfig(similarity=similarity)


@pytest.fixture()
def built(shop_catalog, small_config):
    return _build(shop_catalog, small_config)


@pytest.fixture()
def external_built(shop_catalog, stub_provider):
    """An index embedded through the stub provider: the only kind that
    stores vectors."""
    endpoint, state = stub_provider
    state["mode"] = "ok"
    return _build(shop_catalog, external_config(endpoint))


def test_save_then_load_round_trips(built, tmp_path):
    catalog, index, graph, config = built
    manifest = save_index(tmp_path, catalog, index, graph, config)
    assert sorted(manifest["artifacts"]) == ["catalog", "chunks"]

    r_catalog, r_index, r_graph, r_config, r_manifest = load_index(tmp_path)
    assert to_document(r_catalog) == to_document(catalog)
    question = "customer emails in the west region"
    for before, after, size in (
        (index.corpus, r_index.corpus, len(index)),
        (graph.corpus, r_graph.corpus, len(graph)),
    ):
        qvec = embed(question, after.config, after.stats)
        scores = after.score(question, qvec, range(size))
        assert scores.any()
        assert np.array_equal(scores, before.score(question, qvec, range(size)))
    assert [c.contextualized for c in r_index.chunks] == [
        c.contextualized for c in index.chunks
    ]
    assert [c.relevant.tables for c in r_index.chunks] == [
        c.relevant.tables for c in index.chunks
    ]
    assert [(t.field, t.table, t.surface) for t in r_graph.triplets] == [
        (t.field, t.table, t.surface) for t in graph.triplets
    ]
    assert r_index.corpus.stats.doc_freq == index.corpus.stats.doc_freq
    assert r_config.similarity == config.similarity
    assert r_manifest == manifest


def test_rebuild_produces_identical_hashes(built, tmp_path):
    catalog, index, graph, config = built
    m1 = save_index(tmp_path / "a", catalog, index, graph, config)
    m2 = save_index(tmp_path / "b", catalog, index, graph, config)
    assert m1 == m2


def test_version_mismatch_fails_fast(built, tmp_path):
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    manifest_path = tmp_path / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["format_version"] = "99"
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactVersionError) as err:
        load_index(tmp_path)
    assert err.value.expected == "3"
    assert err.value.found == "99"


def test_corrupted_file_detected(external_built, tmp_path):
    catalog, index, graph, config = external_built
    save_index(tmp_path, catalog, index, graph, config)
    blob = tmp_path / "chunk_vectors.bin"
    data = bytearray(blob.read_bytes())
    data[0] ^= 0xFF
    blob.write_bytes(bytes(data))
    with pytest.raises(ArtifactError, match="corrupted"):
        load_index(tmp_path)


def test_missing_manifest(tmp_path):
    with pytest.raises(ArtifactError, match="manifest"):
        load_index(tmp_path)


def test_writes_only_what_builders_cannot_derive(built, tmp_path):
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "catalog.json",
        "chunks.json",
        "manifest.json",
    ]
    chunk = json.loads((tmp_path / "chunks.json").read_text())["chunks"][0]
    assert sorted(chunk) == ["columns", "question", "sql", "tables"]


def test_hashed_index_loads_without_vector_files(built, tmp_path, monkeypatch):
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)

    def no_vector_files(*args):
        raise AssertionError("a hashed_tfidf index has no vector files to open")

    monkeypatch.setattr(artifacts, "_load_vectors", no_vector_files)
    _, r_index, r_graph, _, _ = load_index(tmp_path)
    assert r_index.corpus.vectors is None
    assert r_graph.corpus.vectors is None


def test_external_index_stores_and_reloads_its_vectors(external_built, tmp_path):
    catalog, index, graph, config = external_built
    manifest = save_index(tmp_path, catalog, index, graph, config)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["catalog.json", "chunks.json", "manifest.json", *VECTOR_FILES]
    )
    assert sorted(manifest["artifacts"]) == ["catalog", "chunks", "graph"]
    _, r_index, r_graph, _, _ = load_index(tmp_path)
    assert np.array_equal(r_index.corpus.vectors, index.corpus.vectors)
    assert np.array_equal(r_graph.corpus.vectors, graph.corpus.vectors)


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        json.dumps({"format_version": "2"}),
        json.dumps({"format_version": "2", "artifacts": []}),
    ],
    ids=["not-json", "no-artifacts", "artifacts-list"],
)
def test_malformed_manifest_is_artifact_error(built, tmp_path, text):
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    (tmp_path / "manifest.json").write_text(text)
    with pytest.raises(ArtifactError, match="manifest"):
        load_index(tmp_path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda artifacts: artifacts.clear(),
        lambda artifacts: artifacts["chunks"]["files"].pop("chunks.json"),
        lambda artifacts: artifacts.pop("chunks"),
        lambda artifacts: artifacts["chunks"]["files"].update({"extra.bin": "0" * 64}),
    ],
    ids=["empty", "file-unlisted", "artifact-unlisted", "extra-file"],
)
def test_manifest_must_list_exactly_the_format_files(built, tmp_path, edit):
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    manifest_path = tmp_path / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    edit(doc["artifacts"])
    write_sealed_manifest(manifest_path, doc)
    with pytest.raises(ArtifactError, match="manifest lists"):
        load_index(tmp_path)


def test_unlisted_hand_edited_chunks_are_rejected(built, tmp_path):
    """An emptied ``artifacts`` map must not let an edited file load unverified."""
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    manifest_path = tmp_path / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["artifacts"] = {}
    write_sealed_manifest(manifest_path, doc)
    chunks_path = tmp_path / "chunks.json"
    chunks = json.loads(chunks_path.read_text())
    chunks["chunks"][0]["question"] = "tampered question"
    chunks_path.write_text(json.dumps(chunks))
    with pytest.raises(ArtifactError, match="manifest lists"):
        load_index(tmp_path)


def test_vectors_must_match_config_dimension(external_built, tmp_path):
    catalog, index, graph, built_with = external_built
    assert index.corpus.config.dimension == 128
    wider = dataclasses.replace(built_with.similarity, dimension=256)
    config = PipelineConfig(similarity=wider)
    save_index(tmp_path, catalog, index, graph, config)
    with pytest.raises(ArtifactError, match="dimension 256"):
        load_index(tmp_path)


def test_vectors_must_match_derived_item_count(external_built, tmp_path):
    catalog, index, graph, config = external_built
    index.chunks = index.chunks[:-1]
    save_index(tmp_path, catalog, index, graph, config)
    with pytest.raises(ArtifactError, match="chunk_vectors"):
        load_index(tmp_path)


def test_vector_sidecar_describes_payload(external_built, tmp_path):
    catalog, index, graph, config = external_built
    save_index(tmp_path, catalog, index, graph, config)
    meta = json.loads((tmp_path / "chunk_vectors.meta.json").read_text())
    assert meta["count"] == len(index)
    assert meta["dimension"] == index.corpus.config.dimension
    assert meta["dtype"] == "float64"
    assert meta["byte_order"] == "little"
    raw = (tmp_path / "chunk_vectors.bin").read_bytes()
    assert len(raw) == meta["count"] * meta["dimension"] * 8


def _replace_listed_file(root, artifact: str, name: str, body: bytes) -> None:
    """Overwrite one file of a saved index and update its hash in a resealed
    manifest, so that only the file's content is wrong."""
    (root / name).write_bytes(body)
    doc = json.loads((root / "manifest.json").read_text())
    doc["artifacts"][artifact]["files"][name] = hashlib.sha256(body).hexdigest()
    write_sealed_manifest(root / "manifest.json", doc)


def test_malformed_vector_sidecar_exits_2(external_built, tmp_path, capsys):
    """A sidecar whose hash the manifest matches but which is not a JSON
    object is an artifact error: one JSON line and exit 2, no traceback."""
    catalog, index, graph, config = external_built
    save_index(tmp_path, catalog, index, graph, config)
    _replace_listed_file(tmp_path, "chunks", "chunk_vectors.meta.json", b"[]")
    with pytest.raises(ArtifactError, match="chunk_vectors.meta.json"):
        load_index(tmp_path)
    code = main(["query", "--index", str(tmp_path), "open orders"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    assert "chunk_vectors.meta.json" in json.loads(err[0])["error"]


@pytest.mark.parametrize(
    "body",
    [b"[]", b'{"chunks":[1]}', b'{"chunks":[{"question":"q"}]}'],
    ids=["list", "chunk-not-object", "chunk-without-sql"],
)
def test_malformed_chunks_document_exits_2(built, tmp_path, capsys, body):
    """A ``chunks.json`` whose hash the manifest matches but whose shape is
    wrong is an artifact error, like a malformed vector sidecar."""
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    _replace_listed_file(tmp_path, "chunks", "chunks.json", body)
    code = main(["query", "--index", str(tmp_path), "open orders"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    assert "malformed chunks.json" in json.loads(err[0])["error"]


@pytest.mark.parametrize(
    "before,after",
    [
        ('"dimension":128', '"dimension":928'),
        ('"bm25_k1":1.2', '"bm25_k1":1.3'),
        ('"h":16', '"h":96'),
        ('"metric":"cosine"', '"metric":"cosinf"'),
    ],
    ids=["dimension", "bm25_k1", "h", "metric"],
)
def test_one_byte_manifest_edit_is_rejected(built, tmp_path, before, after):
    """Every field of the manifest is covered by its own hash, so an edited
    config snapshot cannot load under the saved files."""
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    manifest_path = tmp_path / "manifest.json"
    text = manifest_path.read_text()
    assert text.count(before) == 1
    manifest_path.write_text(text.replace(before, after))
    with pytest.raises(ArtifactError, match="manifest_sha256"):
        load_index(tmp_path)


def test_manifest_of_format_2_is_a_version_mismatch(built, tmp_path):
    # Format 2 stored every embedder's vectors and had no manifest_sha256.
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    manifest_path = tmp_path / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    del doc["manifest_sha256"]
    doc["format_version"] = "2"
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactVersionError, match="expected 3, found 2"):
        load_index(tmp_path)


@pytest.fixture(scope="module")
def saved_indexes(tmp_path_factory, shop_catalog, small_config, stub_provider):
    """One saved index per embedder kind, built once; tests copy them."""
    endpoint, state = stub_provider
    state["mode"] = "ok"
    roots = {}
    for kind, similarity in (
        ("hashed", small_config),
        ("external", external_config(endpoint)),
    ):
        roots[kind] = tmp_path_factory.mktemp(kind)
        save_index(roots[kind], *_build(shop_catalog, similarity))
    return roots


SAVED_FILES = [
    (kind, name)
    for kind, vectors in (("hashed", []), ("external", VECTOR_FILES))
    for name in ["catalog.json", "chunks.json", "manifest.json", *vectors]
]


@pytest.mark.parametrize("kind,name", SAVED_FILES)
def test_any_deleted_file_is_rejected(saved_indexes, tmp_path, kind, name):
    root = tmp_path / "index"
    shutil.copytree(saved_indexes[kind], root)
    (root / name).unlink()
    with pytest.raises(ArtifactError):
        load_index(root)


@pytest.mark.parametrize("kind,name", SAVED_FILES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_flipped_byte_is_rejected(saved_indexes, kind, name, data):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "index"
        shutil.copytree(saved_indexes[kind], root)
        path = root / name
        raw = bytearray(path.read_bytes())
        offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
        raw[offset] ^= data.draw(st.integers(1, 255), label="mask")
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError):
            load_index(root)


def test_manifest_with_legacy_parallel_key_loads_and_answers(built, tmp_path):
    # Indexes written while the pipeline still had a ``parallel`` option carry
    # it in their config snapshot; they load under the same format version.
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    schedule = IterationSchedule(steps=((4, 8, 6), (2, 4, 4)))
    question = "customer emails in the west region"
    expected = run_pipeline(question, index, graph, catalog, schedule, config)
    manifest_path = tmp_path / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    for legacy in (True, False):
        doc["config"]["parallel"] = legacy
        write_sealed_manifest(manifest_path, doc)
        r_catalog, r_index, r_graph, r_config, _ = load_index(tmp_path)
        output = run_pipeline(question, r_index, r_graph, r_catalog, schedule, r_config)
        assert output.entities == expected.entities
        assert output.entities


def test_schema_version_tracks_catalog_content(built):
    catalog, *_ = built
    v1 = schema_version_of(catalog)
    assert len(v1) == 12
    doc = to_document(catalog)
    doc["tables"][0]["description"] = "changed"
    from csr.catalog import load_catalog

    assert schema_version_of(load_catalog(doc)) != v1

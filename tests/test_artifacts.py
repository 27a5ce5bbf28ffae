import dataclasses
import hashlib
import io
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
    FORMAT_VERSION,
    ArtifactError,
    ArtifactVersionError,
    format_files,
    load_index,
    save_index,
    schema_version_of,
)
from csr.catalog import load_catalog, to_document
from csr.cli import main
from csr.contextual import build_chunk_index
from csr.pipeline import IterationSchedule, PipelineConfig
from csr.similarity import embed
from csr.structural import build_knowledge_graph

from conftest import SHOP_TRACE, external_config, write_sealed_manifest

VECTOR_FILES = ["chunk_vectors.npy", "graph_vectors.npy"]


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
    assert sorted(manifest["files"]) == ["catalog.json", "chunks.json"]

    r_catalog, r_index, r_graph, r_config, r_manifest = load_index(tmp_path)
    assert to_document(r_catalog) == to_document(catalog)
    question = "customer emails in the west region"
    pairs = ((index.corpus, r_index.corpus), (graph.corpus, r_graph.corpus))
    for before, after in pairs:
        qvec = embed(question, after.config, after.stats)
        scores = after.score(question, qvec)
        assert scores.any()
        assert np.array_equal(scores, before.score(question, qvec))
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
    assert err.value.expected == FORMAT_VERSION
    assert err.value.found == "99"


def test_corrupted_file_detected(external_built, tmp_path):
    catalog, index, graph, config = external_built
    save_index(tmp_path, catalog, index, graph, config)
    blob = tmp_path / "chunk_vectors.npy"
    data = bytearray(blob.read_bytes())
    data[-1] ^= 0xFF
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


def test_a_failed_save_over_an_index_leaves_it_loadable(built, tmp_path, monkeypatch):
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    doc = to_document(catalog)
    doc["tables"][0]["description"] = "a new description"
    other = _build(load_catalog(doc), config.similarity)
    writes = []
    write_bytes = Path.write_bytes

    def second_write_fails(path, data):
        writes.append(path.name)
        if len(writes) == 2:
            raise OSError("no space left on device")
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", second_write_fails)
    with pytest.raises(OSError, match="no space left"):
        save_index(tmp_path, *other)
    monkeypatch.undo()
    assert to_document(load_index(tmp_path)[0]) == to_document(catalog)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "catalog.json",
        "chunks.json",
        "manifest.json",
    ]


def test_hashed_index_loads_without_vector_files(built, tmp_path, monkeypatch):
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)

    def no_vector_files(*args):
        raise AssertionError("a hashed_tfidf index has no vector files to open")

    monkeypatch.setattr(artifacts, "_matrix", no_vector_files)
    _, r_index, r_graph, _, _ = load_index(tmp_path)
    assert r_index.corpus.vectors is None
    assert r_graph.corpus.vectors is None


def test_external_index_stores_and_reloads_its_vectors(external_built, tmp_path):
    catalog, index, graph, config = external_built
    manifest = save_index(tmp_path, catalog, index, graph, config)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["catalog.json", "chunks.json", "manifest.json", *VECTOR_FILES]
    )
    assert sorted(manifest["files"]) == sorted(format_files("external"))
    assert format_files("external") == ["catalog.json", "chunks.json", *VECTOR_FILES]
    _, r_index, r_graph, _, _ = load_index(tmp_path)
    assert np.array_equal(r_index.corpus.vectors, index.corpus.vectors)
    assert np.array_equal(r_graph.corpus.vectors, graph.corpus.vectors)


@pytest.mark.parametrize(
    "doc",
    [
        None,
        {"format_version": FORMAT_VERSION},
        {"format_version": FORMAT_VERSION, "files": ["catalog.json", "chunks.json"]},
    ],
    ids=["not-json", "no-artifacts", "artifacts-list"],
)
def test_malformed_manifest_is_artifact_error(built, tmp_path, doc):
    # The sealed documents pass the version and self-hash checks, so only
    # the missing or list-shaped file map is wrong.
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    manifest_path = tmp_path / "manifest.json"
    if doc is None:
        manifest_path.write_text("{not json")
    else:
        write_sealed_manifest(manifest_path, doc)
    with pytest.raises(ArtifactError, match="malformed manifest"):
        load_index(tmp_path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda files: files.clear(),
        lambda files: files.pop("chunks.json"),
        lambda files: files.pop("catalog.json"),
        lambda files: files.update({"extra.npy": "0" * 64}),
    ],
    ids=["empty", "file-unlisted", "artifact-unlisted", "extra-file"],
)
def test_manifest_must_list_exactly_the_format_files(built, tmp_path, edit):
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    manifest_path = tmp_path / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    edit(doc["files"])
    write_sealed_manifest(manifest_path, doc)
    with pytest.raises(ArtifactError, match="manifest lists"):
        load_index(tmp_path)


def test_unavailable_tables_must_name_catalog_tables(built, tmp_path):
    catalog, index, graph, config = built
    misspelled = dataclasses.replace(config, unavailable_tables=("orders", "ordrs"))
    with pytest.raises(ArtifactError, match="'ordrs'"):
        save_index(tmp_path / "bad", catalog, index, graph, misspelled)
    assert not (tmp_path / "bad").exists()

    save_index(tmp_path, catalog, index, graph, config)
    manifest_path = tmp_path / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["config"]["unavailable_tables"] = ["ordrs"]
    write_sealed_manifest(manifest_path, doc)
    with pytest.raises(ArtifactError, match="'ordrs'"):
        load_index(tmp_path)


def test_unlisted_hand_edited_chunks_are_rejected(built, tmp_path):
    """An emptied ``files`` map must not let an edited file load unverified."""
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    manifest_path = tmp_path / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["files"] = {}
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
    with pytest.raises(ArtifactError, match=r"\(5, 128\), index needs float64 \(5, 256\)"):
        load_index(tmp_path)


def test_vectors_must_match_derived_item_count(external_built, tmp_path):
    catalog, index, graph, config = external_built
    index.chunks = index.chunks[:-1]
    save_index(tmp_path, catalog, index, graph, config)
    with pytest.raises(ArtifactError, match=r"chunk_vectors.npy .*needs float64 \(4, 128\)"):
        load_index(tmp_path)


def test_vector_files_are_npy_of_the_item_shape(external_built, tmp_path):
    catalog, index, graph, config = external_built
    save_index(tmp_path / "a", catalog, index, graph, config)
    save_index(tmp_path / "b", catalog, index, graph, config)
    for name, rows, vectors in (
        ("chunk_vectors.npy", len(index), index.corpus.vectors),
        ("graph_vectors.npy", catalog.column_count, graph.corpus.vectors),
    ):
        raw = (tmp_path / "a" / name).read_bytes()
        assert raw == (tmp_path / "b" / name).read_bytes()
        matrix = np.load(io.BytesIO(raw), allow_pickle=False)
        assert matrix.dtype == np.dtype("<f8")
        assert matrix.shape == (rows, index.corpus.config.dimension)
        assert matrix.flags.c_contiguous
        assert np.array_equal(matrix, vectors)
        # A 128-byte header, then the rows.
        assert len(raw) == 128 + matrix.nbytes


def _replace_listed_file(root, name: str, body: bytes) -> None:
    """Overwrite one file of a saved index and update its hash in a resealed
    manifest, so that only the file's content is wrong."""
    (root / name).write_bytes(body)
    doc = json.loads((root / "manifest.json").read_text())
    doc["files"][name] = hashlib.sha256(body).hexdigest()
    write_sealed_manifest(root / "manifest.json", doc)


def _npy_bytes(array, allow_pickle=False) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def _npz_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, vectors=array)
    return buf.getvalue()


def _absurd_shape_bytes(raw, matrix) -> bytes:
    """A valid header for far more rows than any machine can hold, then the
    saved rows."""
    buf = io.BytesIO()
    header = {"descr": "<f8", "fortran_order": False, "shape": (10**13, matrix.shape[1])}
    np.lib.format.write_array_header_1_0(buf, header)
    return buf.getvalue() + raw[128:]


DAMAGED_NPY = {
    "empty": lambda raw, m: b"",
    "truncated": lambda raw, m: raw[:-8],
    "pickled-object": lambda raw, m: _npy_bytes(m.astype(object), allow_pickle=True),
    "float32": lambda raw, m: _npy_bytes(m.astype("<f4")),
    "wrong-shape": lambda raw, m: _npy_bytes(m[:, :-1]),
    "npz-archive": lambda raw, m: _npz_bytes(m),
    "absurd-shape": _absurd_shape_bytes,
}


@pytest.mark.parametrize("damage", list(DAMAGED_NPY), ids=list(DAMAGED_NPY))
def test_damaged_vector_file_exits_2(external_built, tmp_path, capsys, damage):
    """A vector file whose hash the manifest matches but whose content is not
    the expected float64 matrix is an artifact error: ``csr query`` prints one
    JSON line and exits 2, with no traceback."""
    catalog, index, graph, config = external_built
    save_index(tmp_path, catalog, index, graph, config)
    raw = (tmp_path / "chunk_vectors.npy").read_bytes()
    body = DAMAGED_NPY[damage](raw, index.corpus.vectors)
    _replace_listed_file(tmp_path, "chunk_vectors.npy", body)
    with pytest.raises(ArtifactError, match="chunk_vectors.npy"):
        load_index(tmp_path)
    code = main(["query", "--index", str(tmp_path), "open orders"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    assert "chunk_vectors.npy" in json.loads(err[0])["error"]


def _chunk(**fields) -> bytes:
    """A ``chunks.json`` of one record: shop's ``orders`` (table 3) and its
    ``customer_id`` column (id 11), with ``fields`` replacing any value."""
    record = {"question": "q", "sql": "SELECT customer_id FROM orders", "tables": [3]}
    record["columns"] = [[3, 11]]
    return json.dumps({"chunks": [{**record, **fields}]}).encode()


def test_the_unedited_chunk_record_loads(built, tmp_path):
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    _replace_listed_file(tmp_path, "chunks.json", _chunk())
    _, loaded, _, _, _ = load_index(tmp_path)
    relevant = loaded.chunks[0].relevant
    assert (relevant.tables, relevant.columns) == ({3}, {(3, 11)})
    assert catalog.column(11).name == "customer_id"


@pytest.mark.parametrize(
    "body",
    [
        b"[]",
        b'{"chunks":[1]}',
        b'{"chunks":[{"question":"q"}]}',
        _chunk(tables=["x"]),
        _chunk(tables=[99999], columns=[]),
        _chunk(tables=[-1], columns=[]),
        _chunk(question=5),
        _chunk(columns=[[0, 0]]),
        _chunk(columns=[[3, 0]]),
        _chunk(columns=[[3, 99999]]),
        _chunk(columns=[[3, -1]]),
        _chunk(columns=[[3]]),
        _chunk(extra=1),
    ],
    ids=[
        "list",
        "chunk-not-object",
        "chunk-without-sql",
        "string-table-id",
        "table-id-out-of-range",
        "negative-table-id",
        "numeric-question",
        "column-outside-the-tables",
        "column-of-another-table",
        "column-id-out-of-range",
        "negative-column-id",
        "column-pair-of-one",
        "unknown-key",
    ],
)
def test_malformed_chunks_document_exits_2(built, tmp_path, capsys, body):
    """A ``chunks.json`` whose hash the manifest matches but whose shape,
    types or ids are wrong is an artifact error, like a damaged vector file."""
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    _replace_listed_file(tmp_path, "chunks.json", body)
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
        ('"steps":[[4,8,16]]', '"steps":[[4,8,96]]'),
        ('"metric":"cosine"', '"metric":"cosinf"'),
    ],
    ids=["dimension", "bm25_k1", "h", "metric"],
)
def test_one_byte_manifest_edit_is_rejected(built, tmp_path, before, after):
    """Every field of the manifest is covered by its own hash, so an edited
    config snapshot cannot load under the saved files."""
    catalog, index, graph, config = built
    # h lives in the schedule's steps.
    config = dataclasses.replace(config, schedule=IterationSchedule(steps=((4, 8, 16),)))
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
    with pytest.raises(ArtifactVersionError, match=f"expected {FORMAT_VERSION}, found 2"):
        load_index(tmp_path)


def test_manifest_of_format_3_is_a_version_mismatch(built, tmp_path, capsys):
    # Format 3 grouped the files by artifact: {"artifacts": {name: {"files":
    # {...}}}}. Its sealed manifest fails on the version, before the
    # missing ``files`` map is seen.
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    manifest_path = tmp_path / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    files = doc.pop("files")
    doc["format_version"] = "3"
    doc["artifacts"] = {
        "catalog": {"files": {"catalog.json": files["catalog.json"]}},
        "chunks": {"files": {"chunks.json": files["chunks.json"]}},
    }
    write_sealed_manifest(manifest_path, doc)
    with pytest.raises(ArtifactVersionError, match=f"expected {FORMAT_VERSION}, found 3"):
        load_index(tmp_path)
    code = main(["query", "--index", str(tmp_path), "open orders"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    assert "version mismatch" in json.loads(err[0])["error"]


def test_manifest_of_format_4_is_a_version_mismatch(built, tmp_path, capsys):
    # Format 4 sealed a ranking section with the operator and weight_mode
    # keys; it fails on the version, not as a config with unknown keys.
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    manifest_path = tmp_path / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["format_version"] = "4"
    doc["config"]["ranking"] = {"operator": "concat_names", "weight_mode": "uniform"}
    write_sealed_manifest(manifest_path, doc)
    with pytest.raises(ArtifactVersionError, match="expected 5, found 4"):
        load_index(tmp_path)
    code = main(["query", "--index", str(tmp_path), "open orders"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    assert "version mismatch" in json.loads(err[0])["error"]


@pytest.mark.parametrize("kind", ["hashed", "external"])
def test_each_file_is_read_once(saved_indexes, kind, monkeypatch):
    opened = []
    path_open = Path.open

    def counting_open(path, *args, **kwargs):
        opened.append(path.name)
        return path_open(path, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    _, _, _, config, manifest = load_index(saved_indexes[kind])
    monkeypatch.undo()
    assert sorted(opened) == sorted(["manifest.json", *manifest["files"]])
    assert sorted(manifest["files"]) == sorted(format_files(config.similarity.embedder))


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


def test_manifest_with_retired_parallel_key_is_rejected(built, tmp_path):
    # ``parallel`` left the config before format 2, so no format-4 writer
    # emits it: a sealed manifest carrying it has an unknown config key.
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    manifest_path = tmp_path / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["config"]["parallel"] = False
    write_sealed_manifest(manifest_path, doc)
    with pytest.raises(ValueError, match="unknown keys \\['parallel'\\]"):
        load_index(tmp_path)


def test_schema_version_tracks_catalog_content(built):
    catalog, *_ = built
    v1 = schema_version_of(catalog)
    assert len(v1) == 12
    doc = to_document(catalog)
    doc["tables"][0]["description"] = "changed"
    from csr.catalog import load_catalog

    assert schema_version_of(load_catalog(doc)) != v1

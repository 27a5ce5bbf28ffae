import json

import numpy as np
import pytest

from csr.artifacts import (
    ArtifactError,
    ArtifactVersionError,
    load_index,
    save_index,
    schema_version_of,
)
from csr.catalog import to_document
from csr.contextual import build_chunk_index
from csr.pipeline import IterationSchedule, PipelineConfig, run_pipeline
from csr.similarity import SimilarityConfig
from csr.structural import build_knowledge_graph

from conftest import SHOP_TRACE


@pytest.fixture()
def built(shop_catalog, small_config):
    config = PipelineConfig(similarity=small_config)
    index = build_chunk_index(SHOP_TRACE, shop_catalog, small_config)
    graph = build_knowledge_graph(shop_catalog, small_config)
    return shop_catalog, index, graph, config


def test_save_then_load_round_trips(built, tmp_path):
    catalog, index, graph, config = built
    manifest = save_index(tmp_path, catalog, index, graph, config)
    assert sorted(manifest["artifacts"]) == ["catalog", "chunks", "graph"]

    r_catalog, r_index, r_graph, r_config, r_manifest = load_index(tmp_path)
    assert to_document(r_catalog) == to_document(catalog)
    assert np.array_equal(r_index.corpus.vectors, index.corpus.vectors)
    assert np.array_equal(r_graph.corpus.vectors, graph.corpus.vectors)
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
    assert err.value.expected == "2"
    assert err.value.found == "99"


def test_corrupted_file_detected(built, tmp_path):
    catalog, index, graph, config = built
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
        "chunk_vectors.bin",
        "chunk_vectors.meta.json",
        "chunks.json",
        "graph_vectors.bin",
        "graph_vectors.meta.json",
        "manifest.json",
    ]
    chunk = json.loads((tmp_path / "chunks.json").read_text())["chunks"][0]
    assert sorted(chunk) == ["columns", "question", "sql", "tables"]


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
        lambda artifacts: artifacts.pop("graph"),
        lambda artifacts: artifacts["graph"]["files"].update({"extra.bin": "0" * 64}),
    ],
    ids=["empty", "file-unlisted", "artifact-unlisted", "extra-file"],
)
def test_manifest_must_list_exactly_the_format_files(built, tmp_path, edit):
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    manifest_path = tmp_path / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    edit(doc["artifacts"])
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match="manifest lists"):
        load_index(tmp_path)


def test_unlisted_hand_edited_chunks_are_rejected(built, tmp_path):
    """An emptied ``artifacts`` map must not let an edited file load unverified."""
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    manifest_path = tmp_path / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["artifacts"] = {}
    manifest_path.write_text(json.dumps(doc))
    chunks_path = tmp_path / "chunks.json"
    chunks = json.loads(chunks_path.read_text())
    chunks["chunks"][0]["question"] = "tampered question"
    chunks_path.write_text(json.dumps(chunks))
    with pytest.raises(ArtifactError, match="manifest lists"):
        load_index(tmp_path)


def test_vectors_must_match_config_dimension(built, tmp_path):
    catalog, index, graph, _ = built
    assert index.corpus.config.dimension == 128
    config = PipelineConfig(similarity=SimilarityConfig(dimension=256))
    save_index(tmp_path, catalog, index, graph, config)
    with pytest.raises(ArtifactError, match="dimension 256"):
        load_index(tmp_path)


def test_vectors_must_match_derived_item_count(built, tmp_path):
    catalog, index, graph, config = built
    index.chunks = index.chunks[:-1]
    save_index(tmp_path, catalog, index, graph, config)
    with pytest.raises(ArtifactError, match="chunk_vectors"):
        load_index(tmp_path)


def test_vector_sidecar_describes_payload(built, tmp_path):
    catalog, index, graph, config = built
    save_index(tmp_path, catalog, index, graph, config)
    meta = json.loads((tmp_path / "chunk_vectors.meta.json").read_text())
    assert meta["count"] == len(index)
    assert meta["dimension"] == index.corpus.config.dimension
    assert meta["dtype"] == "float64"
    assert meta["byte_order"] == "little"
    raw = (tmp_path / "chunk_vectors.bin").read_bytes()
    assert len(raw) == meta["count"] * meta["dimension"] * 8


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
        manifest_path.write_text(json.dumps(doc))
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

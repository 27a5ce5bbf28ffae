"""Persist and reload index artifacts with a self-checking manifest.

Only what the builders cannot compute again is stored: the catalog and each
chunk's question, SQL and labels. The built-in embedder's vectors are
recomputed from the term counts at load, so a ``hashed_tfidf`` index is
exactly ``manifest.json``, ``catalog.json`` and ``chunks.json``. An
``external`` embedder's vectors cannot be recomputed offline; for it the two
embedding matrices are stored too (raw little-endian float64 next to a JSON
sidecar), and loading checks that their rows line up with the rebuilt items.

Loading rebuilds the chunk index and the knowledge graph with the builders
``csr index`` uses. The manifest carries the SHA-256 of every file and, in
``manifest_sha256``, of its own canonical JSON without that field; loading
checks the format version first, so an index of another version fails fast
and must be rebuilt, then the manifest's own hash, before any other field
is used. The hashes detect edits and corruption; they are not a signature.
JSON is written canonically (sorted keys, no whitespace), so an identical
build produces identical bytes and content hashes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .catalog import SchemaCatalog, load_catalog, to_document
from .contextual import ChunkIndex, index_labelled_chunks
from .pipeline import PipelineConfig
from .sqlrefs import RelevantSet
from .structural import KnowledgeGraph, build_knowledge_graph

FORMAT_VERSION = "3"

MANIFEST_NAME = "manifest.json"

# The manifest field holding the hash of the rest of the manifest.
SELF_HASH = "manifest_sha256"


def format_files(embedder: str) -> dict[str, list[str]]:
    """Every file of the format, by artifact, for an index built with
    ``embedder``; a manifest must list exactly these, so no file is read
    unverified."""
    if embedder == "external":
        return {
            "catalog": ["catalog.json"],
            "chunks": ["chunk_vectors.bin", "chunk_vectors.meta.json", "chunks.json"],
            "graph": ["graph_vectors.bin", "graph_vectors.meta.json"],
        }
    return {"catalog": ["catalog.json"], "chunks": ["chunks.json"]}


class ArtifactError(RuntimeError):
    pass


class ArtifactVersionError(ArtifactError):
    def __init__(self, expected: str, found: str):
        super().__init__(
            f"index artifact version mismatch: expected {expected}, found {found}"
        )
        self.expected = expected
        self.found = found


def _canonical_json(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def schema_version_of(catalog: SchemaCatalog) -> str:
    return _sha256(_canonical_json(to_document(catalog)))[:12]


def _vector_files(name: str, matrix: np.ndarray | None) -> dict[str, bytes]:
    if matrix is None:
        raise ValueError(f"{name}: an external-embedder index needs its vectors")
    data = np.ascontiguousarray(matrix, dtype="<f8").tobytes()
    meta = {
        "dtype": "float64",
        "byte_order": "little",
        "count": int(matrix.shape[0]),
        "dimension": int(matrix.shape[1]) if matrix.ndim == 2 else 0,
    }
    return {f"{name}.bin": data, f"{name}.meta.json": _canonical_json(meta)}


def save_index(
    out_dir: str | Path,
    catalog: SchemaCatalog,
    chunk_index: ChunkIndex,
    graph: KnowledgeGraph,
    config: PipelineConfig,
) -> dict:
    """Write the catalog, the labelled chunks, the external embedder's
    matrices, and the self-hashed manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    files: dict[str, dict[str, bytes]] = {}
    files["catalog"] = {"catalog.json": _canonical_json(to_document(catalog))}

    chunk_doc = {
        "chunks": [
            {
                "question": c.question,
                "sql": c.sql,
                "tables": sorted(c.relevant.tables),
                "columns": sorted([t, cid] for t, cid in c.relevant.columns),
            }
            for c in chunk_index.chunks
        ]
    }
    files["chunks"] = {"chunks.json": _canonical_json(chunk_doc)}
    if config.similarity.embedder == "external":
        files["chunks"].update(
            _vector_files("chunk_vectors", chunk_index.corpus.vectors)
        )
        files["graph"] = _vector_files("graph_vectors", graph.corpus.vectors)

    manifest: dict = {
        "format_version": FORMAT_VERSION,
        "schema_version": schema_version_of(catalog),
        "config": config.to_dict(),
        "artifacts": {},
    }
    for artifact, file_map in files.items():
        entry = {"files": {}}
        for fname, data in file_map.items():
            (out / fname).write_bytes(data)
            entry["files"][fname] = _sha256(data)
        manifest["artifacts"][artifact] = entry
    manifest[SELF_HASH] = _self_hash(manifest)
    (out / MANIFEST_NAME).write_bytes(_canonical_json(manifest))
    return manifest


def _self_hash(manifest: dict) -> str:
    """SHA-256 of the manifest's canonical JSON without its own hash field."""
    return _sha256(
        _canonical_json({k: v for k, v in manifest.items() if k != SELF_HASH})
    )


def load_index(
    index_dir: str | Path,
) -> tuple[SchemaCatalog, ChunkIndex, KnowledgeGraph, PipelineConfig, dict]:
    """Reload a saved index, verifying the format version, the manifest's
    own hash, the listed file set and every file's hash."""
    root = Path(index_dir)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ArtifactError(f"no manifest found in {root}")
    manifest = _read_manifest(manifest_path)
    found_version = str(manifest["format_version"])
    if found_version != FORMAT_VERSION:
        raise ArtifactVersionError(FORMAT_VERSION, found_version)
    if manifest.get(SELF_HASH) != _self_hash(manifest):
        raise ArtifactError(f"manifest corrupted: {SELF_HASH} does not match")

    config = PipelineConfig.from_dict(manifest.get("config", {}))
    similarity = config.similarity
    expected = format_files(similarity.embedder)
    listed = {
        name: sorted(entry["files"]) for name, entry in manifest["artifacts"].items()
    }
    if listed != expected:
        raise ArtifactError(
            f"manifest lists {listed}, format {FORMAT_VERSION} needs {expected}"
        )

    for entry in manifest["artifacts"].values():
        for fname, expected_hash in entry["files"].items():
            path = root / fname
            if not path.is_file():
                raise ArtifactError(f"artifact file missing: {path}")
            if _sha256(path.read_bytes()) != expected_hash:
                raise ArtifactError(f"artifact file corrupted: {path}")

    catalog = load_catalog(json.loads((root / "catalog.json").read_text("utf-8")))

    chunk_doc = json.loads((root / "chunks.json").read_text("utf-8"))
    try:
        labelled = [
            (
                cdoc["question"],
                cdoc["sql"],
                RelevantSet(
                    tables=set(cdoc["tables"]),
                    columns={(t, c) for t, c in cdoc["columns"]},
                ),
            )
            for cdoc in chunk_doc["chunks"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed chunks.json: {exc!r}") from exc
    chunk_vectors = graph_vectors = None
    if similarity.embedder == "external":
        chunk_vectors = _load_vectors(
            root, "chunk_vectors", len(labelled), similarity.dimension
        )
        graph_vectors = _load_vectors(
            root, "graph_vectors", catalog.column_count, similarity.dimension
        )
    chunk_index = index_labelled_chunks(labelled, catalog, similarity, chunk_vectors)
    graph = build_knowledge_graph(catalog, similarity, graph_vectors)
    return catalog, chunk_index, graph, config, manifest


def _read_manifest(path: Path) -> dict:
    """The manifest document, or ArtifactError unless it is an object with a
    format version and an ``artifacts`` map of ``files`` maps."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        artifacts = manifest["artifacts"]
        valid = "format_version" in manifest and all(
            isinstance(entry["files"], dict) for entry in artifacts.values()
        )
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ArtifactError(f"malformed manifest: {exc!r}") from exc
    if not valid:
        raise ArtifactError("malformed manifest: no format_version or files map")
    return manifest


def _load_vectors(root: Path, name: str, count: int, dimension: int) -> np.ndarray:
    """The saved matrix, which must hold one ``dimension``-wide row for each
    of the ``count`` items derived from the other artifacts."""
    meta = json.loads((root / f"{name}.meta.json").read_text("utf-8"))
    if not isinstance(meta, dict):
        raise ArtifactError(f"malformed {name}.meta.json: not a JSON object")
    if meta.get("dtype") != "float64" or meta.get("byte_order") != "little":
        raise ArtifactError(f"unsupported vector encoding in {name}.meta.json")
    if (meta.get("count"), meta.get("dimension")) != (count, dimension):
        raise ArtifactError(
            f"{name} holds {meta.get('count')} vectors of dimension "
            f"{meta.get('dimension')}, index needs {count} of dimension {dimension}"
        )
    data = (root / f"{name}.bin").read_bytes()
    expected = count * dimension * 8
    if len(data) != expected:
        raise ArtifactError(
            f"{name}.bin has {len(data)} bytes, sidecar implies {expected}"
        )
    # Read-only over the file's bytes: nothing writes to a loaded index.
    return np.frombuffer(data, dtype="<f8").reshape(count, dimension)

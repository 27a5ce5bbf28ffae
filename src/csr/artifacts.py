"""Persist and reload index artifacts with a self-checking manifest.

Only what the builders cannot compute again is stored: the catalog and each
chunk's question, SQL and labels. The built-in embedder's vectors are
recomputed from the term counts at load, so a ``hashed_tfidf`` index is
exactly ``manifest.json``, ``catalog.json`` and ``chunks.json``. An
``external`` embedder's vectors cannot be recomputed offline; for it the two
embedding matrices are stored too, as ``.npy`` files of little-endian
float64, and loading checks that their rows line up with the rebuilt items.

Loading rebuilds the chunk index and the knowledge graph with the builders
``csr index`` uses. The manifest maps each file name to its SHA-256, and
``manifest_sha256`` holds the hash of the manifest's own canonical JSON
without that field. Loading checks the format version first (an index of
another version must be rebuilt), then the manifest's own hash, then that it
lists exactly the format's files; each file is then read once, and the bytes
hashed are the bytes parsed. The hashes detect edits and corruption; they are
not a signature. JSON is canonical, so identical builds give identical bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .catalog import (
    SchemaCatalog,
    check_types,
    from_document,
    load_catalog,
    lookup_tables,
    parse_json,
    to_document,
)
from .contextual import ChunkIndex, index_labelled_chunks
from .pipeline import PipelineConfig
from .sqlrefs import RelevantSet
from .structural import KnowledgeGraph, build_knowledge_graph

FORMAT_VERSION = "5"

MANIFEST_NAME = "manifest.json"

# The manifest field holding the hash of the rest of the manifest.
SELF_HASH = "manifest_sha256"


def format_files(embedder: str) -> list[str]:
    """Every file of the format for an index built with ``embedder``; a
    manifest must list exactly these, so no file is read unverified."""
    files = ["catalog.json", "chunks.json"]
    if embedder == "external":
        files += ["chunk_vectors.npy", "graph_vectors.npy"]
    return files


class ArtifactError(RuntimeError):
    pass


class ArtifactVersionError(ArtifactError):
    def __init__(self, expected: str, found: str):
        super().__init__(
            f"index artifact version mismatch: expected {expected}, found {found}"
        )
        self.expected = expected
        self.found = found


@dataclass(frozen=True)
class ChunkRecord:
    """One entry of ``chunks.json``: a trace pair and its labels as ids."""

    question: str
    sql: str
    tables: list[int]
    columns: list[tuple[int, int]]

    def __post_init__(self) -> None:
        check_types(self)

    def relevant(self, catalog: SchemaCatalog, name: str) -> RelevantSet:
        """The labels as a RelevantSet. Unless each table id is one of
        ``catalog``'s and each column pair names a column of a table in
        ``tables``, a ``ValueError`` that starts ``invalid {name}``."""
        tables = set(self.tables)
        for t in tables:
            if not 0 <= t < len(catalog.tables):
                raise ValueError(f"invalid {name}: no table {t} in the catalog")
        columns = {(t, c) for t, c in self.columns}
        for t, c in columns:
            owned = 0 <= c < catalog.column_count and catalog.column_owner(c) == t
            if not (owned and t in tables):
                raise ValueError(f"invalid {name}: [{t}, {c}] outside its tables")
        return RelevantSet(tables=tables, columns=columns)


def _canonical_json(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def schema_version_of(catalog: SchemaCatalog) -> str:
    return _sha256(_canonical_json(to_document(catalog)))[:12]


def _npy(name: str, matrix: np.ndarray | None) -> bytes:
    if matrix is None:
        raise ValueError(f"{name}: an external-embedder index needs its vectors")
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(matrix, dtype="<f8"), allow_pickle=False)
    return buf.getvalue()


def save_index(
    out_dir: str | Path,
    catalog: SchemaCatalog,
    chunk_index: ChunkIndex,
    graph: KnowledgeGraph,
    config: PipelineConfig,
) -> dict:
    """Write the catalog, the labelled chunks, the external embedder's
    matrices, and the self-hashed manifest; an index already in ``out_dir``
    is replaced only once every new file is written."""
    _check_unavailable(catalog, config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

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
    files = {
        "catalog.json": _canonical_json(to_document(catalog)),
        "chunks.json": _canonical_json(chunk_doc),
    }
    if config.similarity.embedder == "external":
        files["chunk_vectors.npy"] = _npy("chunk_vectors", chunk_index.corpus.vectors)
        files["graph_vectors.npy"] = _npy("graph_vectors", graph.corpus.vectors)

    manifest: dict = {
        "format_version": FORMAT_VERSION,
        "schema_version": schema_version_of(catalog),
        "config": config.to_dict(),
        "files": {name: _sha256(data) for name, data in files.items()},
    }
    manifest[SELF_HASH] = _self_hash(manifest)
    files[MANIFEST_NAME] = _canonical_json(manifest)  # moved in last

    # Every file is written into a directory inside ``out``, so on its
    # filesystem, and then moved over its old copy: a failed write leaves
    # the old index whole. A crash inside the replace loop can still leave
    # new data files beside the old manifest, which loading then rejects.
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        for name, data in files.items():
            (staging / name).write_bytes(data)
        for name in files:
            os.replace(staging / name, out / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return manifest


def _self_hash(manifest: dict) -> str:
    """SHA-256 of the manifest's canonical JSON without its own hash field."""
    return _sha256(
        _canonical_json({k: v for k, v in manifest.items() if k != SELF_HASH})
    )


def load_index(
    index_dir: str | Path, endpoint: str | None = None
) -> tuple[SchemaCatalog, ChunkIndex, KnowledgeGraph, PipelineConfig, dict]:
    """Reload a saved index, verifying the format version, the manifest's
    own hash, the listed file set and every file's hash. An ``endpoint``
    replaces the sealed external embedder endpoint."""
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
    if endpoint:
        config.similarity = replace(config.similarity, external_endpoint=endpoint)
    similarity = config.similarity
    hashes = manifest.get("files")
    if not isinstance(hashes, dict):
        raise ArtifactError("malformed manifest: no files map")
    expected = format_files(similarity.embedder)
    if sorted(hashes) != sorted(expected):
        raise ArtifactError(
            f"manifest lists {sorted(hashes)}, format {FORMAT_VERSION} needs {expected}"
        )

    def verified(name: str) -> bytes:
        path = root / name
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise ArtifactError(f"artifact file missing: {path}") from None
        if _sha256(data) != hashes[name]:
            raise ArtifactError(f"artifact file corrupted: {path}")
        return data

    # Decoded first, so the bytes are freed before the text is parsed.
    catalog = load_catalog(parse_json(verified("catalog.json").decode("utf-8")))
    _check_unavailable(catalog, config)
    chunk_doc = parse_json(verified("chunks.json").decode("utf-8"))
    labelled = []
    try:
        for i, cdoc in enumerate(chunk_doc["chunks"]):
            where = f"chunks[{i}]"
            rec = from_document(ChunkRecord, cdoc, where)
            labelled.append((rec.question, rec.sql, rec.relevant(catalog, where)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed chunks.json: {exc!r}") from exc
    chunk_vectors = graph_vectors = None
    if similarity.embedder == "external":
        shape = (len(labelled), similarity.dimension)
        chunk_vectors = _matrix("chunk_vectors.npy", verified("chunk_vectors.npy"), shape)
        shape = (catalog.column_count, similarity.dimension)
        graph_vectors = _matrix("graph_vectors.npy", verified("graph_vectors.npy"), shape)
    chunk_index = index_labelled_chunks(labelled, catalog, similarity, chunk_vectors)
    graph = build_knowledge_graph(catalog, similarity, graph_vectors)
    return catalog, chunk_index, graph, config, manifest


def _check_unavailable(catalog: SchemaCatalog, config: PipelineConfig) -> None:
    """ArtifactError unless every ``unavailable_tables`` entry names a table."""
    try:
        lookup_tables(catalog, config.unavailable_tables)
    except ValueError as exc:
        raise ArtifactError(f"invalid unavailable_tables: {exc}") from exc


def _read_manifest(path: Path) -> dict:
    """The manifest document, or ArtifactError unless it is an object with a
    format version."""
    try:
        manifest = parse_json(path.read_bytes())
    except ValueError as exc:
        raise ArtifactError(f"malformed manifest: {exc!r}") from exc
    if not isinstance(manifest, dict) or "format_version" not in manifest:
        raise ArtifactError("malformed manifest: no format_version")
    return manifest


def _matrix(name: str, data: bytes, shape: tuple[int, int]) -> np.ndarray:
    """The ``.npy`` matrix in ``data``, which must hold one float64 row of
    the config's dimension for each item derived from the other files."""
    try:
        # The .npy reader alone: unlike np.load it never unpickles or
        # opens an .npz archive, whatever the leading bytes.
        matrix = np.lib.format.read_array(io.BytesIO(data), allow_pickle=False)
    except (ValueError, MemoryError) as exc:
        raise ArtifactError(f"malformed {name}: {exc}") from exc
    if matrix.dtype != "<f8" or matrix.shape != shape:
        raise ArtifactError(
            f"{name} holds {matrix.dtype} {matrix.shape}, index needs float64 {shape}"
        )
    return matrix

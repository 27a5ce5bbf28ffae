"""Persist and reload index artifacts with a hash-bearing manifest.

Everything is stored binary-free except the embedding matrices, which are
raw little-endian float64 arrays next to a JSON sidecar describing dtype,
count, and dimension. JSON files are written canonically (sorted keys, no
whitespace) so re-running an identical build produces identical bytes and
identical content hashes. The manifest records a format version; loading a
mismatched version fails fast.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .catalog import SchemaCatalog, load_catalog, lookup_table, to_document
from .contextual import Chunk, ChunkIndex
from .pipeline import PipelineConfig
from .similarity import Corpus, build_corpus_stats
from .sqlrefs import RelevantSet
from .structural import KnowledgeGraph, Triplet, export_triplets

FORMAT_VERSION = "1"

MANIFEST_NAME = "manifest.json"


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


def _vector_files(name: str, matrix: np.ndarray) -> dict[str, bytes]:
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
    """Write catalog, chunk, and graph artifacts plus the manifest."""
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
                "contextualized": c.contextualized,
            }
            for c in chunk_index.chunks
        ]
    }
    files["chunks"] = {"chunks.json": _canonical_json(chunk_doc)}
    files["chunks"].update(_vector_files("chunk_vectors", chunk_index.corpus.vectors))

    graph_lines = "\n".join(
        json.dumps(record, sort_keys=True) for record in export_triplets(graph, catalog)
    )
    files["graph"] = {"graph.jsonl": graph_lines.encode("utf-8")}
    files["graph"].update(_vector_files("graph_vectors", graph.corpus.vectors))

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
    (out / MANIFEST_NAME).write_bytes(_canonical_json(manifest))
    return manifest


def load_index(
    index_dir: str | Path,
) -> tuple[SchemaCatalog, ChunkIndex, KnowledgeGraph, PipelineConfig, dict]:
    """Reload a saved index, verifying format version and content hashes."""
    root = Path(index_dir)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ArtifactError(f"no manifest found in {root}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    found_version = str(manifest.get("format_version"))
    if found_version != FORMAT_VERSION:
        raise ArtifactVersionError(FORMAT_VERSION, found_version)

    for artifact, entry in manifest["artifacts"].items():
        for fname, expected_hash in entry["files"].items():
            path = root / fname
            if not path.is_file():
                raise ArtifactError(f"artifact file missing: {path}")
            if _sha256(path.read_bytes()) != expected_hash:
                raise ArtifactError(f"artifact file corrupted: {path}")

    config = PipelineConfig.from_dict(manifest.get("config", {}))
    catalog = load_catalog(json.loads((root / "catalog.json").read_text("utf-8")))

    chunk_doc = json.loads((root / "chunks.json").read_text("utf-8"))
    vectors = _load_vectors(root, "chunk_vectors")
    chunks = []
    for i, cdoc in enumerate(chunk_doc["chunks"]):
        relevant = RelevantSet(
            tables=set(cdoc["tables"]),
            columns={(t, c) for t, c in cdoc["columns"]},
        )
        chunks.append(
            Chunk(
                id=i,
                question=cdoc["question"],
                sql=cdoc["sql"],
                relevant=relevant,
                contextualized=cdoc["contextualized"],
            )
        )
    texts = [c.contextualized for c in chunks]
    chunk_index = ChunkIndex(
        chunks=chunks,
        corpus=Corpus(texts, config.similarity, build_corpus_stats(texts), vectors),
    )

    graph_vectors = _load_vectors(root, "graph_vectors")
    triplets = []
    for line in (root / "graph.jsonl").read_text("utf-8").splitlines():
        if not line.strip():
            continue
        tdoc = json.loads(line)
        tid = lookup_table(catalog, tdoc["table"])
        if tid is None:
            raise ArtifactError(f"graph references unknown table '{tdoc['table']}'")
        col = catalog.table(tid).column_by_name(tdoc["column"])
        if col is None:
            raise ArtifactError(
                f"graph references unknown column '{tdoc['table']}.{tdoc['column']}'"
            )
        triplets.append(Triplet(field=col.id, table=tid, surface=tdoc["surface"]))
    surfaces = [t.surface for t in triplets]
    graph = KnowledgeGraph(
        triplets=triplets,
        corpus=Corpus(
            surfaces, config.similarity, build_corpus_stats(surfaces), graph_vectors
        ),
    )
    return catalog, chunk_index, graph, config, manifest


def _load_vectors(root: Path, name: str) -> np.ndarray:
    meta = json.loads((root / f"{name}.meta.json").read_text("utf-8"))
    if meta.get("dtype") != "float64" or meta.get("byte_order") != "little":
        raise ArtifactError(f"unsupported vector encoding in {name}.meta.json")
    data = (root / f"{name}.bin").read_bytes()
    count, dim = int(meta["count"]), int(meta["dimension"])
    expected = count * dim * 8
    if len(data) != expected:
        raise ArtifactError(
            f"{name}.bin has {len(data)} bytes, sidecar implies {expected}"
        )
    arr = np.frombuffer(data, dtype="<f8")
    return arr.reshape(count, dim).copy()

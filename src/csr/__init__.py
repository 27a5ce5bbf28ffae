"""Schema retrieval for text-to-SQL over large database catalogs.

Given a natural-language question, the pipeline narrows a schema of
hundreds of tables down to the relevant few and emits ranked table.column
join candidates for a downstream SQL generator. Three stages cooperate:
similarity search over past (question, SQL) chunks, similarity search over
schema knowledge-graph triplets, and ranking of the join keys within the
narrowed scope.
"""

from .catalog import (
    CatalogError,
    CatalogStats,
    Column,
    ForeignKey,
    SchemaCatalog,
    Table,
    catalog_stats,
    load_catalog,
    lookup_table,
    to_document,
)
from .contextual import (
    Chunk,
    ChunkIndex,
    ContextualResult,
    build_chunk_index,
    contextualize,
    retrieve_contextual,
)
from .evaluation import (
    SweepRow,
    default_sweep_schedules,
    latency_bench,
    run_sweep,
    split_trace,
    write_sweep_csv,
)
from .metrics import LatencyReport, Metrics, nearest_rank_percentile, precision_recall
from .pipeline import (
    IterationSchedule,
    PipelineConfig,
    RetrievalOutput,
    ScopeCollapsedError,
    build_query_response,
    default_schedule,
    run_pipeline,
)
from .relational import (
    Hyperedge,
    Hypergraph,
    RankingConfig,
    SemanticEntity,
    build_hypergraph,
    hypergraph_rank,
    rank_key_columns,
    render_entity,
)
from .similarity import (
    CorpusStats,
    EmbeddingProviderError,
    SimilarityConfig,
    bm25_score,
    build_corpus_stats,
    embed,
    tokenize,
)
from .sqlrefs import RelevantSet, SqlToken, extract_relevant_set, tokenize_sql
from .structural import (
    KnowledgeGraph,
    StructuralResult,
    Triplet,
    build_knowledge_graph,
    retrieve_structural,
)
from .synthetic import GeneratorProfile, ProfileError, build_group_catalog, generate_synthetic

__version__ = "0.1.0"

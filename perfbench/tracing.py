"""Spans and counters recorded from outside the retrieval layers.

The traced run replays each query through the public stage functions in
``run_pipeline``'s order and records a span around every call. Counts come
from wrapping the public ``similarity`` functions and ``topk.top_k_exact``
where the modules that call them look them up; the wrappers are installed
only around each traced replay and always restored. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace

from csr import contextual, relational, similarity, structural
from csr.catalog import lookup_table
from csr.pipeline import RetrievalOutput, ScopeCollapsedError

# Layer spans that run_pipeline would execute itself; their sum is what the
# replay attributes to the layers, the rest of run_pipeline's wall time is
# pipeline overhead.
LAYER_SPANS = (
    "contextual.retrieve",
    "structural.retrieve",
    "pipeline.combine",
    "relational.hypergraph",
    "relational.rank",
)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 at the root
    query: int | None


class Tracer:
    """In-memory span recorder with per-query counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int | None, str], int] = defaultdict(int)
        self.query: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.query))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end_ns = time.perf_counter_ns()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.query, name)] += n

    def enclosing(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def per_query_ms(self, names: tuple[str, ...]) -> dict[int, float]:
        """Summed duration of the named spans per query, in milliseconds."""
        totals: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.query is not None and s.name in names:
                totals[s.query] += (s.end_ns - s.start_ns) / 1e6
        return totals

    def per_query_count(self, name: str, queries: list[int]) -> list[int]:
        return [self.counts.get((q, name), 0) for q in queries]


class NullTracer:
    """Records nothing: the replay's untraced reference for the tracing cost."""

    query = None

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: int = 1) -> None:
        pass


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the similarity and top-k functions where their callers bind them."""
    patches = []

    def patch(module, attr, make):
        original = getattr(module, attr)
        patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def counting_tokenize(original):
        def tokenize(text):
            tracer.count("similarity.texts_tokenized")
            return original(text)

        return tokenize

    def counting_embed(original):
        def embed(text, config, stats=None):
            tracer.count("similarity.question_embeds")
            tracer.count("similarity.texts_embedded")
            return original(text, config, stats)

        return embed

    def counting_embed_batch(original):
        def embed_batch(texts, config, stats=None):
            tracer.count("similarity.texts_embedded", len(texts))
            return original(texts, config, stats)

        return embed_batch

    def timed_top_k(original):
        def top_k_exact(scores, ids, k):
            stage = tracer.enclosing()
            if stage == "contextual.retrieve":
                tracer.count("contextual.chunks_scored", len(ids))
            elif stage == "structural.retrieve":
                tracer.count("structural.triplets_scored", len(ids))
            tracer.count("topk.calls")
            with tracer.span("topk.select"):
                return original(scores, ids, k)

        return top_k_exact

    # similarity's own helpers (bm25_score, build_corpus_stats, the embedder)
    # look tokenize up in their module, so that is where it is wrapped.
    patch(similarity, "tokenize", counting_tokenize)
    for module in (contextual, structural, relational):
        patch(module, "embed", counting_embed)
        patch(module, "embed_batch", counting_embed_batch)
    for module in (contextual, structural):
        patch(module, "top_k_exact", timed_top_k)
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


def replay(question, chunk_index, graph, catalog, schedule, config, tracer):
    """``run_pipeline`` step by step, with a span around every layer call."""
    unavailable = frozenset(
        tid
        for tid in (lookup_table(catalog, n) for n in config.unavailable_tables)
        if tid is not None
    )
    scope = None
    for step_no, (k, l, _h) in enumerate(schedule.steps, start=1):
        with tracer.span("contextual.retrieve"):
            ctx = contextual.retrieve_contextual(
                chunk_index, question, k, scope, config.contextual_scope_mode
            )
        with tracer.span("structural.retrieve"):
            st = structural.retrieve_structural(graph, question, l, scope)
        with tracer.span("pipeline.combine"):
            if schedule.scope_combine == "intersection":
                combined = ctx.tables & st.tables
            else:
                combined = ctx.tables | st.tables
        if not combined:
            raise ScopeCollapsedError(step_no)
        scope = combined
    tracer.count("pipeline.scope_tables_final", len(scope))
    with tracer.span("relational.hypergraph"):
        hypergraph = relational.build_hypergraph(
            scope, catalog, config.ranking, unavailable
        )
    tracer.count(
        "relational.incidences",
        sum(
            1
            for edge in hypergraph.hyperedges
            for tid, _ in edge.members
            if hypergraph.availability.get(tid, True)
        ),
    )
    with tracer.span("relational.rank"):
        entities = relational.hypergraph_rank(
            hypergraph,
            question,
            replace(config.ranking, h=schedule.steps[-1][2]),
            config.similarity,
            catalog,
        )
    return RetrievalOutput(
        entities=entities,
        tables={e.table for e in entities},
        per_stage=[],
        timings={},
    )

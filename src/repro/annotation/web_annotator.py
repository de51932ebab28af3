"""Web-scale annotation: sharded, incremental corpus processing.

§3.1's "linking the Web".  The :class:`WebAnnotator` drives an annotation
pipeline over a crawl snapshot:

* **sharding** — documents are stably hashed into shards (the stand-in for
  the paper's distributed workers); per-shard metrics merge into fleet
  totals;
* **incrementality** — a state map of content hashes lets re-annotation
  runs process *only changed or new pages* (§3.2: "able to efficiently
  process only the changed webpages at a given frequency");
* **output** — an :class:`AnnotationStore`, the doc↔entity edge set that
  extends the KG to web content (Figure 4), queryable in both directions.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.annotation.mention import AnnotatedDocument
from repro.annotation.pipeline import AnnotationPipeline
from repro.common.metrics import MetricsRegistry
from repro.common.rng import stable_hash
from repro.web.corpus import WebCorpus


@dataclass
class AnnotationStore:
    """Doc→links and entity→docs projections of the annotated web.

    Mutate through :meth:`put` only — it maintains the entity→docs
    projection; writing ``documents`` directly desyncs it.
    """

    documents: dict[str, AnnotatedDocument] = field(default_factory=dict)
    _entity_docs: dict[str, set[str]] = field(default_factory=lambda: defaultdict(set))

    def put(self, annotated: AnnotatedDocument) -> None:
        """Insert or replace a document's annotations."""
        previous = self.documents.get(annotated.doc_id)
        if previous is not None:
            for entity in previous.entities:
                self._entity_docs[entity].discard(annotated.doc_id)
        self.documents[annotated.doc_id] = annotated
        for entity in annotated.entities:
            self._entity_docs[entity].add(annotated.doc_id)

    def docs_mentioning(self, entity: str) -> set[str]:
        """Documents whose annotations include ``entity``."""
        return set(self._entity_docs.get(entity, ()))

    def __len__(self) -> int:
        return len(self.documents)


@dataclass
class AnnotationRunReport:
    """Outcome of one (full or incremental) annotation run."""

    docs_seen: int
    docs_processed: int
    docs_skipped_unchanged: int
    links_produced: int
    elapsed_s: float

    @property
    def docs_per_second(self) -> float:
        return self.docs_processed / self.elapsed_s if self.elapsed_s > 0 else 0.0


class WebAnnotator:
    """Sharded, incremental corpus annotator."""

    def __init__(
        self,
        pipeline: AnnotationPipeline,
        num_shards: int = 4,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.pipeline = pipeline
        self.num_shards = num_shards
        self.metrics = metrics or MetricsRegistry("web-annotator")
        self.store = AnnotationStore()
        # doc_id -> content hash at last successful annotation.
        self._state: dict[str, str] = {}

    def shard_of(self, doc_id: str) -> int:
        """Stable shard assignment of a document."""
        return stable_hash(doc_id, self.num_shards)

    def annotate_corpus(
        self, corpus: WebCorpus, incremental: bool = True, timestamp: float = 0.0
    ) -> AnnotationRunReport:
        """Annotate a snapshot.

        With ``incremental=True`` documents whose content hash matches the
        recorded state are skipped; a full run re-processes everything.
        """
        import time

        start = time.perf_counter()
        seen = 0
        processed = 0
        skipped = 0
        links = 0
        # Deterministic shard-major order (mirrors per-worker batching).
        ordered = sorted(corpus, key=lambda d: (self.shard_of(d.doc_id), d.doc_id))
        for doc in ordered:
            seen += 1
            content_hash = doc.content_hash
            if incremental and self._state.get(doc.doc_id) == content_hash:
                skipped += 1
                self.metrics.incr("docs.skipped")
                continue
            annotated = self.pipeline.annotate_document(doc, annotated_at=timestamp)
            self.store.put(annotated)
            self._state[doc.doc_id] = content_hash
            processed += 1
            links += len(annotated.links)
            self.metrics.incr("docs.processed")
            self.metrics.incr(f"shard.{self.shard_of(doc.doc_id)}.docs")
        elapsed = time.perf_counter() - start
        self.metrics.observe("run", elapsed)
        return AnnotationRunReport(
            docs_seen=seen,
            docs_processed=processed,
            docs_skipped_unchanged=skipped,
            links_produced=links,
            elapsed_s=elapsed,
        )

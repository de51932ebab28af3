"""Batch and streaming KG construction.

Figure 1 shows knowledge sources feeding the graph engine through both a
batch path (full source snapshots) and a streaming path (real-time deltas).
This module implements the shared ingestion machinery:

* :class:`KnowledgeSource` — a named feed of facts with a trust prior,
* :class:`BatchIngestor` — snapshot ingestion with per-source conflict
  resolution for functional predicates (highest trust × confidence wins),
* :class:`StreamIngestor` — ordered application of :class:`Delta` records
  (upserts and retractions) with monotonic sequence checking.

Both paths route through the same resolution logic so batch and streaming
writes cannot diverge — the invariant Saga's continuous construction relies
on.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum

from repro.common.errors import StoreError
from repro.kg.ontology import Ontology
from repro.kg.store import TripleStore
from repro.kg.triple import Fact


@dataclass
class KnowledgeSource:
    """A named upstream feed with a trust prior in ``[0, 1]``."""

    name: str
    trust: float = 0.8
    facts: list[Fact] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.trust <= 1.0:
            raise StoreError(f"source trust must be in [0, 1], got {self.trust}")


class DeltaOp(str, Enum):
    """Streaming operation kind."""

    UPSERT = "upsert"
    RETRACT = "retract"


@dataclass(frozen=True)
class Delta:
    """One streaming change: an upsert or retraction of a fact."""

    sequence: int
    op: DeltaOp
    fact: Fact


@dataclass
class IngestReport:
    """Outcome counters of an ingestion run."""

    facts_seen: int = 0
    facts_applied: int = 0
    conflicts_resolved: int = 0
    retractions: int = 0
    schema_rejections: int = 0


class _Resolver:
    """Shared conflict-resolution core for batch and streaming writes."""

    def __init__(self, store: TripleStore, ontology: Ontology | None) -> None:
        self.store = store
        self.ontology = ontology

    def validate(self, fact: Fact) -> bool:
        """Schema check: predicate known and literal-kind consistent."""
        if self.ontology is None:
            return True
        if not self.ontology.has_predicate(fact.predicate):
            return False
        schema = self.ontology.schema(fact.predicate)
        return schema.is_literal == fact.is_literal

    def apply(self, fact: Fact, trust: float, report: IngestReport) -> None:
        """Write ``fact``, resolving functional-predicate conflicts.

        For functional predicates an existing different value is replaced
        only when the incoming weighted confidence (trust × confidence)
        strictly exceeds the stored fact's confidence; otherwise the
        incoming fact is dropped.  Multi-valued predicates simply upsert.
        """
        report.facts_seen += 1
        if not self.validate(fact):
            report.schema_rejections += 1
            return
        weighted = fact.with_metadata(confidence=min(1.0, fact.confidence * trust))
        functional = (
            self.ontology is not None
            and self.ontology.schema(fact.predicate).functional
        )
        if functional:
            existing = [
                current
                for current in self.store.scan(
                    subject=fact.subject, predicate=fact.predicate
                )
                if current.obj != fact.obj
            ]
            if existing:
                best = max(existing, key=lambda f: f.confidence)
                if weighted.confidence > best.confidence:
                    for current in existing:
                        self.store.remove(*current.key)
                    report.conflicts_resolved += 1
                else:
                    return
        self.store.add(weighted)
        report.facts_applied += 1


class BatchIngestor:
    """Snapshot ingestion of whole knowledge sources."""

    def __init__(self, store: TripleStore, ontology: Ontology | None = None) -> None:
        self._resolver = _Resolver(store, ontology)

    def ingest(self, sources: Iterable[KnowledgeSource]) -> IngestReport:
        """Ingest every source in order; higher-trust sources win conflicts."""
        report = IngestReport()
        ordered = sorted(sources, key=lambda source: source.trust)
        for source in ordered:
            for fact in source.facts:
                stamped = fact.with_metadata(
                    sources=tuple(dict.fromkeys(fact.sources + (f"source:{source.name}",)))
                )
                self._resolver.apply(stamped, source.trust, report)
        return report


class StreamIngestor:
    """Ordered streaming ingestion with sequence-number checking."""

    def __init__(self, store: TripleStore, ontology: Ontology | None = None) -> None:
        self._resolver = _Resolver(store, ontology)
        self._last_sequence = -1

    def apply(self, delta: Delta, trust: float = 1.0) -> IngestReport:
        """Apply one delta; sequences must be strictly increasing."""
        if delta.sequence <= self._last_sequence:
            raise StoreError(
                f"out-of-order delta {delta.sequence} (last {self._last_sequence})"
            )
        report = IngestReport()
        if delta.op is DeltaOp.RETRACT:
            if self._resolver.store.remove(*delta.fact.key):
                report.retractions += 1
        else:
            self._resolver.apply(delta.fact, trust, report)
        self._last_sequence = delta.sequence
        return report

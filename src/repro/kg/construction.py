"""Batch KG construction.

Figure 1 shows knowledge sources feeding the graph engine.  This module
implements snapshot ingestion:

* :class:`KnowledgeSource` — a named feed of facts with a trust prior,
* :class:`BatchIngestor` — snapshot ingestion with per-source conflict
  resolution for functional predicates (highest trust × confidence wins).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

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


@dataclass
class IngestReport:
    """Outcome counters of an ingestion run."""

    facts_seen: int = 0
    facts_applied: int = 0
    conflicts_resolved: int = 0
    schema_rejections: int = 0


class BatchIngestor:
    """Snapshot ingestion of whole knowledge sources."""

    def __init__(self, store: TripleStore, ontology: Ontology | None = None) -> None:
        self.store = store
        self.ontology = ontology

    def ingest(self, sources: Iterable[KnowledgeSource]) -> IngestReport:
        """Ingest every source in order; higher-trust sources win conflicts."""
        report = IngestReport()
        ordered = sorted(sources, key=lambda source: source.trust)
        for source in ordered:
            for fact in source.facts:
                stamped = fact.with_metadata(
                    sources=tuple(dict.fromkeys(fact.sources + (f"source:{source.name}",)))
                )
                self._apply(stamped, source.trust, report)
        return report

    def _validate(self, fact: Fact) -> bool:
        """Schema check: predicate known and literal-kind consistent."""
        if self.ontology is None:
            return True
        if not self.ontology.has_predicate(fact.predicate):
            return False
        schema = self.ontology.schema(fact.predicate)
        return schema.is_literal == fact.is_literal

    def _apply(self, fact: Fact, trust: float, report: IngestReport) -> None:
        """Write ``fact``, resolving functional-predicate conflicts.

        For functional predicates an existing different value is replaced
        only when the incoming weighted confidence (trust × confidence)
        strictly exceeds the stored fact's confidence; otherwise the
        incoming fact is dropped.  Multi-valued predicates simply upsert.
        """
        report.facts_seen += 1
        if not self._validate(fact):
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

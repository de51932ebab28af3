"""Knowledge-graph profiling: coverage and freshness analysis.

§4 lists profiling as the *proactive* way to find important missing or
stale facts: "we can proactively identify potential coverage and freshness
issues within the existing knowledge graph via knowledge graph profiling."

The profiler walks entities, compares their facts against the ontology's
*expected* predicates for their types, and emits :class:`CoverageGap`
records ranked by entity popularity (gaps on celebrities matter more than
gaps in the tail).  Freshness analysis flags facts of *volatile* predicates
whose ``updated_at`` is older than a staleness horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kg.ontology import Ontology
from repro.kg.store import TripleStore


@dataclass(frozen=True)
class CoverageGap:
    """A missing expected fact: ``entity`` lacks any value for ``predicate``."""

    entity: str
    predicate: str
    importance: float

    @property
    def key(self) -> tuple[str, str]:
        return (self.entity, self.predicate)


@dataclass(frozen=True)
class StaleFact:
    """A volatile fact whose stored value is older than the horizon."""

    entity: str
    predicate: str
    obj: str
    age_seconds: float
    importance: float


@dataclass
class ProfileReport:
    """Aggregate coverage statistics per (type, predicate)."""

    entity_count: int
    # (type, predicate) -> fraction of that type's entities carrying the predicate
    coverage: dict[tuple[str, str], float]
    gaps: list[CoverageGap]
    stale: list[StaleFact]


class KGProfiler:
    """Coverage/freshness profiler over a store + ontology."""

    def __init__(
        self,
        store: TripleStore,
        ontology: Ontology,
        now: float,
        staleness_horizon_seconds: float = 2 * 365.25 * 24 * 3600,
    ) -> None:
        self.store = store
        self.ontology = ontology
        self.now = now
        self.staleness_horizon = staleness_horizon_seconds

    def profile(self) -> ProfileReport:
        """Full profiling pass: coverage fractions, gaps, stale facts."""
        present_counts: dict[tuple[str, str], int] = {}
        type_totals: dict[str, int] = {}
        gaps: list[CoverageGap] = []
        stale: list[StaleFact] = []

        for record in self.store.entities():
            expected: set[str] = set()
            for type_id in record.types:
                if self.ontology.has_type(type_id):
                    expected |= self.ontology.expected_predicates(type_id)
                    type_totals[type_id] = type_totals.get(type_id, 0) + 1
            if not expected and not record.types:
                continue
            # Index-level predicate lookup: O(distinct predicates) per
            # entity instead of materialising every fact object.
            present = self.store.predicates_of(record.entity)
            for type_id in record.types:
                if not self.ontology.has_type(type_id):
                    continue
                for predicate in self.ontology.expected_predicates(type_id):
                    if predicate in present:
                        key = (type_id, predicate)
                        present_counts[key] = present_counts.get(key, 0) + 1
            for predicate in sorted(expected - present):
                gaps.append(
                    CoverageGap(
                        entity=record.entity,
                        predicate=predicate,
                        importance=record.popularity,
                    )
                )
            stale.extend(self._stale_facts_of(record.entity, record.popularity, present))

        coverage = {
            (type_id, predicate): count / type_totals[type_id]
            for (type_id, predicate), count in present_counts.items()
            if type_totals.get(type_id)
        }
        gaps.sort(key=lambda gap: (-gap.importance, gap.key))
        stale.sort(key=lambda fact: (-fact.importance, fact.entity, fact.predicate))
        return ProfileReport(
            entity_count=len(type_totals and self.store.entity_ids()),
            coverage=coverage,
            gaps=gaps,
            stale=stale,
        )

    def _stale_facts_of(
        self, entity: str, importance: float, present: set[str]
    ) -> list[StaleFact]:
        volatile = self.ontology.volatile_predicates()
        found: list[StaleFact] = []
        for predicate in sorted(volatile & present):
            for fact in self.store.scan(subject=entity, predicate=predicate):
                age = self.now - fact.updated_at
                if age > self.staleness_horizon:
                    found.append(
                        StaleFact(
                            entity=entity,
                            predicate=predicate,
                            obj=fact.obj,
                            age_seconds=age,
                            importance=importance,
                        )
                    )
        return found

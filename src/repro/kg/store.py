"""Triple store: the physical layer under the Graph Query Engine.

An in-memory store with three permutation indexes (SPO, POS, OSP) supporting
wildcard pattern scans in time proportional to the result size.  Metadata
(confidence, provenance, timestamps) lives alongside each fact; re-asserting
a fact merges provenance and keeps the freshest metadata, which is how the
batch/streaming construction pipeline performs fusion-by-upsert.

Entity descriptors (name, aliases, types, popularity, description) are kept
in the store as well — they are what the annotation service's candidate
generation and the embedding service's text features read.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.common import ids
from repro.common.errors import StoreError
from repro.kg.triple import Fact, ObjectKind


@dataclass
class EntityRecord:
    """Descriptor of one entity: the non-edge data the services need."""

    entity: str
    name: str
    types: tuple[str, ...] = ()
    aliases: tuple[str, ...] = ()
    description: str = ""
    popularity: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "entity": self.entity,
            "name": self.name,
            "types": list(self.types),
            "aliases": list(self.aliases),
            "description": self.description,
            "popularity": self.popularity,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "EntityRecord":
        return cls(
            entity=payload["entity"],
            name=payload["name"],
            types=tuple(payload.get("types", ())),
            aliases=tuple(payload.get("aliases", ())),
            description=payload.get("description", ""),
            popularity=payload.get("popularity", 0.0),
        )


@dataclass
class StoreStats:
    """Size summary of a store, used by profiling and benchmarks."""

    num_entities: int
    num_facts: int
    num_predicates: int
    num_literal_facts: int


class TripleStore:
    """In-memory triple store with SPO/POS/OSP indexes.

    The write path is upsert-oriented: :meth:`add` merges metadata for an
    existing (s, p, o) key rather than duplicating the edge.  A monotonically
    increasing ``version`` lets derived layers (CSR snapshots, alias tables)
    detect staleness cheaply.
    """

    def __init__(self, name: str = "kg") -> None:
        self.name = name
        self._facts: dict[tuple[str, str, str], Fact] = {}
        self._spo: dict[str, dict[str, set[str]]] = defaultdict(lambda: defaultdict(set))
        self._pos: dict[str, dict[str, set[str]]] = defaultdict(lambda: defaultdict(set))
        self._osp: dict[str, dict[str, set[str]]] = defaultdict(lambda: defaultdict(set))
        self._entities: dict[str, EntityRecord] = {}
        self.version = 0

    # -- entities -----------------------------------------------------------

    def upsert_entity(self, record: EntityRecord) -> None:
        """Insert or replace an entity descriptor."""
        if not ids.is_entity(record.entity):
            raise StoreError(f"not an entity id: {record.entity!r}")
        self._entities[record.entity] = record
        self.version += 1

    def entity(self, entity: str) -> EntityRecord:
        """Descriptor of ``entity`` (raises for unknown entities)."""
        try:
            return self._entities[entity]
        except KeyError:
            raise StoreError(f"unknown entity {entity!r}") from None

    def has_entity(self, entity: str) -> bool:
        """True when a descriptor for ``entity`` exists."""
        return entity in self._entities

    def entities(self) -> Iterator[EntityRecord]:
        """Iterate over all entity descriptors."""
        return iter(list(self._entities.values()))

    def entity_ids(self) -> list[str]:
        """All entity ids with descriptors."""
        return list(self._entities)

    # -- facts ----------------------------------------------------------------

    def add(self, fact: Fact) -> Fact:
        """Upsert ``fact``; returns the stored (possibly merged) fact.

        Re-asserting an existing key unions provenance, keeps the maximum
        confidence and the newest timestamp — the fusion semantics the
        construction pipeline relies on.
        """
        stored = self._upsert(fact)
        self.version += 1
        return stored

    def _upsert(self, fact: Fact) -> Fact:
        """Upsert without touching ``version`` (shared by add/add_all)."""
        existing = self._facts.get(fact.key)
        if existing is not None:
            merged = existing.with_metadata(
                confidence=max(existing.confidence, fact.confidence),
                sources=tuple(dict.fromkeys(existing.sources + fact.sources)),
                updated_at=max(existing.updated_at, fact.updated_at),
            )
            self._facts[fact.key] = merged
            return merged
        self._facts[fact.key] = fact
        subject, predicate, obj = fact.key
        self._spo[subject][predicate].add(obj)
        self._pos[predicate][obj].add(subject)
        self._osp[obj][subject].add(predicate)
        return fact

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Upsert many facts; returns the number processed.

        The whole batch advances ``version`` once (not once per fact), so
        bulk loads don't make version-watching consumers (views, alias
        tables, adjacency snapshots) look hundreds of rebuilds behind.
        The bump happens even when the iterable raises mid-batch —
        whatever was upserted before the error must still invalidate
        version-watching caches.
        """
        count = 0
        try:
            for fact in facts:
                self._upsert(fact)
                count += 1
        finally:
            if count:
                self.version += 1
        return count

    def remove(self, subject: str, predicate: str, obj: str) -> bool:
        """Delete the fact with key (s, p, o); returns whether it existed.

        Inner index entries emptied by the delete are pruned so long
        add/remove churn doesn't bloat the permutation indexes or skew
        ``predicates()``/``predicate_counts()`` iteration cost.
        """
        key = (subject, predicate, obj)
        if key not in self._facts:
            return False
        del self._facts[key]
        by_pred = self._spo[subject]
        by_pred[predicate].discard(obj)
        if not by_pred[predicate]:
            del by_pred[predicate]
            if not by_pred:
                del self._spo[subject]
        by_obj = self._pos[predicate]
        by_obj[obj].discard(subject)
        if not by_obj[obj]:
            del by_obj[obj]
            if not by_obj:
                del self._pos[predicate]
        by_subj = self._osp[obj]
        by_subj[subject].discard(predicate)
        if not by_subj[subject]:
            del by_subj[subject]
            if not by_subj:
                del self._osp[obj]
        self.version += 1
        return True

    def get(self, subject: str, predicate: str, obj: str) -> Fact | None:
        """The stored fact for key (s, p, o), or ``None``."""
        return self._facts.get((subject, predicate, obj))

    def __contains__(self, key: tuple[str, str, str]) -> bool:
        return key in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    # -- pattern scans ---------------------------------------------------------

    def scan(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        obj: str | None = None,
    ) -> Iterator[Fact]:
        """Yield facts matching the pattern; ``None`` positions are wildcards.

        Picks the index that binds the most constants, so cost is
        proportional to the number of results plus index fan-out.
        """
        if subject is not None and predicate is not None and obj is not None:
            fact = self._facts.get((subject, predicate, obj))
            if fact is not None:
                yield fact
            return
        if subject is not None:
            by_pred = self._spo.get(subject, {})
            predicates = [predicate] if predicate is not None else list(by_pred)
            for pred in predicates:
                for candidate in by_pred.get(pred, ()):
                    if obj is None or candidate == obj:
                        yield self._facts[(subject, pred, candidate)]
            return
        if predicate is not None:
            by_obj = self._pos.get(predicate, {})
            objects = [obj] if obj is not None else list(by_obj)
            for candidate_obj in objects:
                for subj in by_obj.get(candidate_obj, ()):
                    yield self._facts[(subj, predicate, candidate_obj)]
            return
        if obj is not None:
            by_subj = self._osp.get(obj, {})
            for subj, preds in list(by_subj.items()):
                for pred in preds:
                    yield self._facts[(subj, pred, obj)]
            return
        yield from list(self._facts.values())

    def objects(self, subject: str, predicate: str) -> list[str]:
        """Objects of all (subject, predicate, ?) facts."""
        return sorted(self._spo.get(subject, {}).get(predicate, ()))

    def subjects(self, predicate: str, obj: str) -> list[str]:
        """Subjects of all (?, predicate, obj) facts."""
        return sorted(self._pos.get(predicate, {}).get(obj, ()))

    def predicates_of(self, subject: str) -> set[str]:
        """Distinct predicates on ``subject``'s outgoing facts (O(result)).

        Reads the SPO index directly instead of materialising facts — the
        profiler's per-entity coverage check runs on this.
        """
        by_pred = self._spo.get(subject)
        if not by_pred:
            return set()
        return {pred for pred, objs in by_pred.items() if objs}

    def predicates(self) -> list[str]:
        """Distinct predicates with at least one fact."""
        return [p for p, by_obj in self._pos.items() if any(by_obj.values())]

    def predicate_counts(self) -> dict[str, int]:
        """Fact count per predicate (rare-predicate filtering input, §2)."""
        counts: dict[str, int] = {}
        for predicate, by_obj in self._pos.items():
            total = sum(len(subjects) for subjects in by_obj.values())
            if total:
                counts[predicate] = total
        return counts

    def stats(self) -> StoreStats:
        """Size summary of the store."""
        literal_count = sum(1 for fact in self._facts.values() if fact.is_literal)
        return StoreStats(
            num_entities=len(self._entities),
            num_facts=len(self._facts),
            num_predicates=len(self.predicates()),
            num_literal_facts=literal_count,
        )

    # -- bulk ----------------------------------------------------------------

    def copy_entities_from(self, other: "TripleStore", only: set[str] | None = None) -> int:
        """Copy entity descriptors from ``other`` (optionally a subset)."""
        count = 0
        for record in other.entities():
            if only is None or record.entity in only:
                self.upsert_entity(record)
                count += 1
        return count

    def neighbors(self, entity: str) -> set[str]:
        """Entity ids adjacent to ``entity`` via entity-valued facts."""
        out: set[str] = set()
        for fact in self.scan(subject=entity):
            if fact.obj_kind is ObjectKind.ENTITY:
                out.add(fact.obj)
        for subj, preds in self._osp.get(entity, {}).items():
            if preds:
                out.add(subj)
        out.discard(entity)
        return out

"""Materialized graph views: declarative fact filters built into plain stores.

Views are how Saga tailors the KG to a consumer:

* the embedding pipeline trains on a view with numeric/identifier facts and
  rare predicates removed (§2),
* the static on-device knowledge asset "is implemented as a Graph Engine
  view … automatically maintained and shipped to devices" (§5),
* annotation freshness relies on views exposing new/updated entities (§3.2).

A :class:`ViewDefinition` is declarative (composable filter clauses);
:func:`materialize` builds one into a plain
:class:`~repro.kg.store.TripleStore`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kg.store import TripleStore
from repro.kg.triple import Fact, LiteralType, ObjectKind


@dataclass(frozen=True)
class ViewDefinition:
    """Declarative description of a KG view.

    All configured clauses must pass for a fact to enter the view (a fact
    must also connect entities both of which survive any entity filter).

    Attributes:
        name: registry key of the view.
        drop_literals: remove all literal-valued facts.
        drop_numeric: remove number-typed literal facts (height, followers).
        drop_identifiers: remove external-identifier facts (library ids).
        predicate_allowlist: when non-empty, keep only these predicates.
        predicate_denylist: always remove these predicates.
        min_predicate_frequency: remove predicates with fewer facts than
            this in the *base* store (rare-predicate pruning, §2).
        min_confidence: remove facts below this confidence.
        entity_types: when non-empty, keep only facts whose subject (and
            entity-valued object) has at least one of these types.
        top_k_entities_by_popularity: when set, keep only facts among the
            k most popular entities (static knowledge asset, §5).
    """

    name: str
    drop_literals: bool = False
    drop_numeric: bool = False
    drop_identifiers: bool = False
    predicate_allowlist: frozenset[str] = frozenset()
    predicate_denylist: frozenset[str] = frozenset()
    min_predicate_frequency: int = 0
    min_confidence: float = 0.0
    entity_types: frozenset[str] = frozenset()
    top_k_entities_by_popularity: int | None = None


@dataclass
class MaterializedView:
    """A materialized view and how much of its base it kept."""

    definition: ViewDefinition
    store: TripleStore
    facts_in: int = 0
    facts_kept: int = 0

    @property
    def selectivity(self) -> float:
        """Fraction of base facts kept by the view."""
        return self.facts_kept / self.facts_in if self.facts_in else 0.0


def materialize(definition: ViewDefinition, base: TripleStore) -> MaterializedView:
    """Build ``definition`` over ``base`` into a fresh store.

    Entity descriptors of surviving entities are copied so downstream
    consumers (alias tables, popularity priors) work off the view alone.
    """
    predicate_counts = base.predicate_counts()
    allowed_entities = _allowed_entities(definition, base)

    view_store = TripleStore(name=f"view:{definition.name}")
    facts_in = 0
    kept: list[Fact] = []
    for fact in base.scan():
        facts_in += 1
        if _keeps(definition, fact, predicate_counts, allowed_entities):
            kept.append(fact)

    surviving_entities: set[str] = set()
    for fact in kept:
        surviving_entities.add(fact.subject)
        if fact.obj_kind is ObjectKind.ENTITY:
            surviving_entities.add(fact.obj)
    # One bulk upsert: a single version bump instead of one per fact.
    view_store.add_all(kept)
    # Entity-scoped views (type / popularity clauses) ship descriptors for
    # every allowed entity even when none of its facts survive — the §5
    # static asset is "popular entities and facts", entities first.
    if allowed_entities is not None:
        surviving_entities |= allowed_entities
    view_store.copy_entities_from(base, only=surviving_entities)

    return MaterializedView(
        definition=definition,
        store=view_store,
        facts_in=facts_in,
        facts_kept=len(kept),
    )


def _allowed_entities(definition: ViewDefinition, base: TripleStore) -> set[str] | None:
    """Entity filter implied by type / popularity clauses (None = no filter)."""
    allowed: set[str] | None = None
    if definition.entity_types:
        allowed = {
            record.entity
            for record in base.entities()
            if set(record.types) & definition.entity_types
        }
    if definition.top_k_entities_by_popularity is not None:
        ranked = sorted(
            base.entities(), key=lambda record: (-record.popularity, record.entity)
        )
        top = {
            record.entity
            for record in ranked[: definition.top_k_entities_by_popularity]
        }
        allowed = top if allowed is None else allowed & top
    return allowed


def _keeps(
    definition: ViewDefinition,
    fact: Fact,
    predicate_counts: dict[str, int],
    allowed_entities: set[str] | None,
) -> bool:
    """Whether ``fact`` passes every clause of ``definition``."""
    if definition.drop_literals and fact.is_literal:
        return False
    if definition.drop_numeric and fact.literal_type is LiteralType.NUMBER:
        return False
    if definition.drop_identifiers and fact.literal_type is LiteralType.IDENTIFIER:
        return False
    if definition.predicate_allowlist and fact.predicate not in definition.predicate_allowlist:
        return False
    if fact.predicate in definition.predicate_denylist:
        return False
    if predicate_counts.get(fact.predicate, 0) < definition.min_predicate_frequency:
        return False
    if fact.confidence < definition.min_confidence:
        return False
    if allowed_entities is not None:
        if fact.subject not in allowed_entities:
            return False
        if fact.obj_kind is ObjectKind.ENTITY and fact.obj not in allowed_entities:
            return False
    return True


def embedding_training_view(
    name: str = "embedding-training",
    min_predicate_frequency: int = 5,
    min_confidence: float = 0.4,
    denylist: frozenset[str] = frozenset(),
) -> ViewDefinition:
    """The §2 training view: drop numeric/identifier facts, rare predicates
    and low-confidence noise edges ("vectors being trained on non-relevant
    or noisy data that may exist in the KG")."""
    return ViewDefinition(
        name=name,
        drop_numeric=True,
        drop_identifiers=True,
        min_predicate_frequency=min_predicate_frequency,
        min_confidence=min_confidence,
        predicate_denylist=denylist,
    )


def static_knowledge_asset_view(top_k: int, name: str = "static-asset") -> ViewDefinition:
    """The §5 static asset: popular entities and their facts, shipped to devices."""
    return ViewDefinition(
        name=name,
        drop_identifiers=True,
        top_k_entities_by_popularity=top_k,
    )

"""Facts: the atomic unit of the knowledge graph.

A :class:`Fact` is a subject–predicate–object triple enriched with the
metadata Saga tracks for every edge: provenance (which sources asserted it),
a confidence score, and a last-updated timestamp used for staleness analysis
in ODKE (§4).  Objects are either references to other entities or typed
literals (§2 motivates filtering literal-valued facts out of embedding
training views).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any

from repro.common import ids
from repro.common.errors import StoreError


class ObjectKind(str, Enum):
    """Whether a fact's object is another entity or a literal value."""

    ENTITY = "entity"
    LITERAL = "literal"


class LiteralType(str, Enum):
    """Datatype tag for literal objects.

    ``NUMBER`` and ``IDENTIFIER`` literals are the canonical examples of
    facts the paper filters from embedding views (heights, follower counts,
    national-library ids).
    """

    STRING = "string"
    NUMBER = "number"
    DATE = "date"
    IDENTIFIER = "identifier"


@dataclass(frozen=True)
class Fact:
    """An edge of the knowledge graph.

    ``obj`` holds an entity id when ``obj_kind`` is ENTITY, otherwise the
    literal's string rendering (numbers use ``repr`` of the float/int, dates
    use ISO-8601).  Frozen so facts are hashable and safely shared between
    stores, views and sync deltas.
    """

    subject: str
    predicate: str
    obj: str
    obj_kind: ObjectKind = ObjectKind.ENTITY
    literal_type: LiteralType | None = None
    confidence: float = 1.0
    sources: tuple[str, ...] = field(default=())
    updated_at: float = 0.0

    def __post_init__(self) -> None:
        if not ids.is_entity(self.subject):
            raise StoreError(f"fact subject must be an entity id: {self.subject!r}")
        if not ids.is_predicate(self.predicate):
            raise StoreError(f"fact predicate must be a predicate id: {self.predicate!r}")
        if self.obj_kind is ObjectKind.ENTITY:
            if not ids.is_entity(self.obj):
                raise StoreError(f"entity-valued fact has non-entity object: {self.obj!r}")
            if self.literal_type is not None:
                raise StoreError("entity-valued fact must not carry a literal_type")
        elif self.literal_type is None:
            raise StoreError("literal-valued fact must carry a literal_type")
        if not 0.0 <= self.confidence <= 1.0:
            raise StoreError(f"confidence must be in [0, 1], got {self.confidence}")

    @property
    def key(self) -> tuple[str, str, str]:
        """The (s, p, o) identity of the fact, ignoring metadata."""
        return (self.subject, self.predicate, self.obj)

    @property
    def is_literal(self) -> bool:
        """True when the object is a literal value."""
        return self.obj_kind is ObjectKind.LITERAL

    def with_metadata(
        self,
        confidence: float | None = None,
        sources: tuple[str, ...] | None = None,
        updated_at: float | None = None,
    ) -> "Fact":
        """Copy of this fact with some metadata fields replaced."""
        return replace(
            self,
            confidence=self.confidence if confidence is None else confidence,
            sources=self.sources if sources is None else sources,
            updated_at=self.updated_at if updated_at is None else updated_at,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (see :mod:`repro.common.serialization`)."""
        return {
            "s": self.subject,
            "p": self.predicate,
            "o": self.obj,
            "kind": self.obj_kind.value,
            "literal_type": self.literal_type.value if self.literal_type else None,
            "confidence": self.confidence,
            "sources": list(self.sources),
            "updated_at": self.updated_at,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Fact":
        """Inverse of :meth:`to_dict`."""
        literal_type = payload.get("literal_type")
        return cls(
            subject=payload["s"],
            predicate=payload["p"],
            obj=payload["o"],
            obj_kind=ObjectKind(payload.get("kind", "entity")),
            literal_type=LiteralType(literal_type) if literal_type else None,
            confidence=payload.get("confidence", 1.0),
            sources=tuple(payload.get("sources", ())),
            updated_at=payload.get("updated_at", 0.0),
        )


def entity_fact(
    subject: str,
    predicate: str,
    obj: str,
    confidence: float = 1.0,
    sources: tuple[str, ...] = (),
    updated_at: float = 0.0,
) -> Fact:
    """Convenience constructor for an entity-valued fact."""
    return Fact(
        subject=subject,
        predicate=predicate,
        obj=obj,
        obj_kind=ObjectKind.ENTITY,
        confidence=confidence,
        sources=sources,
        updated_at=updated_at,
    )


def literal_fact(
    subject: str,
    predicate: str,
    value: Any,
    literal_type: LiteralType,
    confidence: float = 1.0,
    sources: tuple[str, ...] = (),
    updated_at: float = 0.0,
) -> Fact:
    """Convenience constructor for a literal-valued fact.

    Numbers are rendered via ``repr`` so ints and floats round-trip exactly.
    """
    if literal_type is LiteralType.NUMBER and isinstance(value, (int, float)):
        rendered = repr(value)
    else:
        rendered = str(value)
    return Fact(
        subject=subject,
        predicate=predicate,
        obj=rendered,
        obj_kind=ObjectKind.LITERAL,
        literal_type=literal_type,
        confidence=confidence,
        sources=sources,
        updated_at=updated_at,
    )

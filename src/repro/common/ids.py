"""Namespaced identifiers for entities, predicates, types and documents.

The platform follows Saga's convention of opaque string identifiers with a
namespace prefix::

    entity:Q42            a knowledge-graph entity
    predicate:occupation  a predicate (edge label)
    type:person           an ontology type
    doc:web/0000123       a web document
    device:phone-1        a device in the on-device subsystem

Identifiers are plain strings (cheap to hash, serialize and log); this module
centralises construction and validation so malformed ids are rejected at the
edges of the system rather than deep inside query processing.
"""

from __future__ import annotations

import re

from repro.common.errors import IdentifierError

ENTITY_NS = "entity"
PREDICATE_NS = "predicate"
TYPE_NS = "type"
DOC_NS = "doc"
DEVICE_NS = "device"
SOURCE_NS = "source"

_KNOWN_NAMESPACES = frozenset(
    {ENTITY_NS, PREDICATE_NS, TYPE_NS, DOC_NS, DEVICE_NS, SOURCE_NS}
)

# Local part: word characters plus a small set of safe punctuation. Slashes
# allow hierarchical document ids such as ``doc:web/123``.
_LOCAL_RE = re.compile(r"^[\w][\w\-./+]*$")


def make_id(namespace: str, local: str) -> str:
    """Build a namespaced identifier, validating both parts.

    >>> make_id("entity", "Q42")
    'entity:Q42'
    """
    if namespace not in _KNOWN_NAMESPACES:
        raise IdentifierError(f"unknown namespace {namespace!r}")
    if not _LOCAL_RE.match(local):
        raise IdentifierError(f"malformed local id {local!r}")
    return f"{namespace}:{local}"


def split_id(identifier: str) -> tuple[str, str]:
    """Split ``namespace:local`` into its parts, validating the namespace.

    >>> split_id("predicate:occupation")
    ('predicate', 'occupation')
    """
    namespace, sep, local = identifier.partition(":")
    if not sep or not local:
        raise IdentifierError(f"identifier {identifier!r} has no namespace")
    if namespace not in _KNOWN_NAMESPACES:
        raise IdentifierError(f"unknown namespace {namespace!r} in {identifier!r}")
    return namespace, local


def local_of(identifier: str) -> str:
    """Return the local part of ``identifier``."""
    return split_id(identifier)[1]


def is_entity(identifier: str) -> bool:
    """True if ``identifier`` is an entity id (does not raise)."""
    return identifier.startswith(ENTITY_NS + ":")


def is_predicate(identifier: str) -> bool:
    """True if ``identifier`` is a predicate id (does not raise)."""
    return identifier.startswith(PREDICATE_NS + ":")


def is_type(identifier: str) -> bool:
    """True if ``identifier`` is a type id (does not raise)."""
    return identifier.startswith(TYPE_NS + ":")


def entity_id(local: str) -> str:
    """Shorthand for :func:`make_id` with the entity namespace."""
    return make_id(ENTITY_NS, local)


def predicate_id(local: str) -> str:
    """Shorthand for :func:`make_id` with the predicate namespace."""
    return make_id(PREDICATE_NS, local)


def type_id(local: str) -> str:
    """Shorthand for :func:`make_id` with the type namespace."""
    return make_id(TYPE_NS, local)


def doc_id(local: str) -> str:
    """Shorthand for :func:`make_id` with the document namespace."""
    return make_id(DOC_NS, local)


def device_id(local: str) -> str:
    """Shorthand for :func:`make_id` with the device namespace."""
    return make_id(DEVICE_NS, local)

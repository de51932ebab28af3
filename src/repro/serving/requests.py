"""Typed serving requests and responses — the query vocabulary of the platform.

Every request is a frozen, hashable dataclass:

* hashable → it is directly usable as a :class:`~repro.serving.cache.QueryCache`
  key next to the snapshot's ``store_version``;
* frozen → a request enqueued, shipped to a subprocess worker and merged
  back can never be mutated in flight;
* plain data → it pickles cheaply across the process-pool boundary and
  round-trips through the JSON wire codec (:mod:`repro.serving.protocol`).

Everything the serving layers know about a request type lives in one
:class:`RequestFamily` record per ``wire_type``, registered once at the
bottom of this module (:data:`FAMILIES`).  Codec, worker, tenancy,
service and gateway read that record instead of branching on the type.
Adding a request family is its dataclass and one registry entry.

Every request is answered with a :class:`Response` envelope (status,
payload, ``store_version``, per-stage timings, structured error) — the
uniform unit every transport (in-process callers, asyncio gateway, HTTP)
speaks; its ``request_type`` names the family.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field, replace
from importlib import import_module
from typing import Any, Callable, ClassVar

from repro.common.rng import stable_hash

DEFAULT_WALK_LENGTH = 8
DEFAULT_WALKS_PER_ENTITY = 4

# Seeds live in numpy's accepted range; 2**63 keeps them positive int64.
_WALK_SEED_SPACE = 2**63

# Tenant ids name directories under ``tenants/<id>/`` and label cache keys
# and metrics — a conservative charset keeps them path- and wire-safe.
TENANT_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def valid_tenant_id(tenant_id: object) -> bool:
    """True when ``tenant_id`` is a well-formed tenant identifier."""
    return isinstance(tenant_id, str) and bool(TENANT_ID_PATTERN.match(tenant_id))

# Status values of a Response envelope.  ``degraded`` is the graceful
# middle ground: a *usable* payload that is incomplete (failed parts
# past the retry budget) or stale (served from a previous generation's
# cache when fresh compute failed) — flagged so clients can decide.
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_ERROR = "error"

# Stable error codes carried by error envelopes (never raw tracebacks).
ERROR_BAD_REQUEST = "bad_request"
ERROR_UNSUPPORTED_VERSION = "unsupported_version"
ERROR_UNSUPPORTED_TYPE = "unsupported_type"
ERROR_OVERLOADED = "overloaded"
ERROR_DEADLINE_EXCEEDED = "deadline_exceeded"
ERROR_UNAVAILABLE = "unavailable"
ERROR_INTERNAL = "internal"


def entity_walk_seed(seed: int, entity: str) -> int:
    """Derived, stable per-entity walk seed.

    The serving contract for walks: entity ``e`` of a request with seed
    ``s`` draws from ``substream(entity_walk_seed(s, e), "random-walks")``
    — one independent stream per entity, so any partition of a request
    over any number of workers replays the exact same draws.
    """
    return stable_hash(f"serve-walks:{seed}:{entity}", _WALK_SEED_SPACE)


class Request:
    """Base of every request dataclass; its policy lives in :data:`FAMILIES`."""

    __slots__ = ()
    wire_type: ClassVar[str]

    def cacheable(self) -> bool:
        """Whether this request's result may enter the query cache."""
        return FAMILIES[self.wire_type].cacheable(self)


@dataclass(frozen=True)
class WalkRequest(Request):
    """Random walks for each of ``entities``.

    Serving walk semantics are *per-entity*: each entity's walks are drawn
    from an independent substream derived from ``(seed, entity)`` (see
    :func:`entity_walk_seed`), so the result is
    byte-identical no matter how the request is partitioned across shards
    or how many workers serve it.
    """

    wire_type: ClassVar[str] = "walk"

    entities: tuple[str, ...]
    walk_length: int = DEFAULT_WALK_LENGTH
    walks_per_entity: int = DEFAULT_WALKS_PER_ENTITY
    seed: int = 0


@dataclass(frozen=True)
class NeighborhoodRequest(Request):
    """K-hop undirected neighborhoods (sorted) for each of ``entities``."""

    wire_type: ClassVar[str] = "neighborhood"

    entities: tuple[str, ...]
    hops: int = 1


@dataclass(frozen=True)
class RelatedRequest(Request):
    """Top-k related entities (traversal embeddings) for each of ``entities``."""

    wire_type: ClassVar[str] = "related"

    entities: tuple[str, ...]
    k: int = 10


@dataclass(frozen=True)
class AnnotateRequest(Request):
    """Entity links for each of ``texts``, scored as one cross-doc batch.

    Single-text requests are cacheable (clients re-annotate hot snippets);
    multi-text batches essentially never repeat byte-identically, and one
    cache entry would pin every input text plus every link list — the
    admission policy skips them.
    """

    wire_type: ClassVar[str] = "annotate"

    texts: tuple[str, ...]
    tier: str = "full"


@dataclass(frozen=True)
class FactRankRequest(Request):
    """Importance-ranked values of ``(entity, predicate, ?)`` per entity.

    ``entities`` are the *subjects* (Figure 2: "occupation of LeBron
    James") — per-subject results, so the router may shard them like any
    other entity-keyed request.
    """

    wire_type: ClassVar[str] = "fact_rank"

    entities: tuple[str, ...]
    predicate: str = ""


@dataclass(frozen=True)
class VerifyRequest(Request):
    """Verdicts for candidate ``(subject, predicate, object)`` triples.

    Dispatched whole: the verifier scores the entire candidate set in one
    batched embedding pass, which sharding would undo.
    """

    wire_type: ClassVar[str] = "verify"

    candidates: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class SimilarityRequest(Request):
    """Cosine similarity for each ``(left, right)`` entity pair.

    Unknown entities score 0.0 (the embedding service's contract) rather
    than erroring — a similarity matrix query should not fail on one
    missing row.
    """

    wire_type: ClassVar[str] = "similarity"

    pairs: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class KnnRequest(Request):
    """k nearest entities in embedding space for each of ``entities``."""

    wire_type: ClassVar[str] = "knn"

    entities: tuple[str, ...]
    k: int = 10
    exclude_self: bool = True


# -- the tenant request family -------------------------------------------------
#
# The on-device sync protocol (ondevice/sync.py) exposed through the
# gateway: a device ships its personal records (and tombstones) to its
# tenant's server-side store and gets back what it is missing.  These are
# *writes* against per-tenant state — never dispatched to the shared
# worker fleet, never cached, never shed (losing a sync costs the client
# a full re-send).


@dataclass(frozen=True)
class PersonalRecord:
    """One source record on the wire — the tenant-family payload unit.

    The hashable twin of :class:`repro.ondevice.records.SourceRecord`:
    ``fields`` is a sorted tuple of ``(key, value)`` pairs instead of a
    dict so requests stay frozen/hashable (the cache-key contract every
    request type honours).  ``sequence`` is the last-writer-wins clock.
    """

    record_id: str
    source: str
    fields: tuple[tuple[str, str], ...] = ()
    sequence: int = 0


@dataclass(frozen=True)
class TenantUpsertRequest(Request):
    """Apply ``records`` to the tenant's personal store (last-writer-wins)."""

    wire_type: ClassVar[str] = "tenant_upsert"

    records: tuple[PersonalRecord, ...]


@dataclass(frozen=True)
class TenantSyncRequest(Request):
    """One device<->server sync round: merge state, return what's missing.

    ``records``/``tombstones`` are the device's full current state (small
    by construction — personal KGs are per-user).  The response carries
    the server records/tombstones that beat the device's, plus the fused
    people and a DP-noised record count (``epsilon``) so aggregate
    telemetry never reveals an exact personal-store size — the
    differential-privacy enrichment stays server-side.
    """

    wire_type: ClassVar[str] = "tenant_sync"

    records: tuple[PersonalRecord, ...] = ()
    tombstones: tuple[tuple[str, str, int], ...] = ()
    epsilon: float = 1.0


@dataclass(frozen=True)
class TenantDeleteRequest(Request):
    """Tombstone one record in the tenant's personal store."""

    wire_type: ClassVar[str] = "tenant_delete"

    source: str
    record_id: str
    sequence: int = 0


def sub_request(request: Request, entities: tuple[str, ...]) -> Request:
    """The same request narrowed to ``entities`` (one worker's part)."""
    family = family_of(request)
    if family is None or not family.splittable:
        raise TypeError(f"request type {type(request).__name__} is not splittable")
    return replace(request, entities=entities)


# -- response envelopes --------------------------------------------------------


@dataclass(frozen=True)
class ErrorInfo:
    """Structured error detail of a failed request — never a traceback.

    ``retryable`` tells the caller whether the failure class is transient
    (a crashed worker, an I/O flake — worth re-issuing) or deterministic
    (a ``ValueError`` that will fail identically forever);
    ``exception_type`` carries the originating exception *class name*
    across the wire so clients can distinguish the two without the
    server-side exception object.
    """

    code: str
    message: str
    retryable: bool = False
    exception_type: str = ""


#: The stable ``Response.timings`` key vocabulary.  Every value is
#: wall-clock milliseconds measured by the server:
#:
#: - ``total_ms`` — end-to-end time inside the service: inside
#:   ``ServingService.serve``, or inside ``ServingService.probe`` for a
#:   hit the gateway answers on its event loop (for gateway-minted
#:   rejection envelopes, inside the gateway).  A miss's wait for an
#:   executor slot is never part of it.  Present on **every** response:
#:   ok, degraded, cached, stale and error alike.
#: - ``cache_ms`` — cache key build + lookup (cacheable requests only).
#: - ``scatter_ms`` — request split into per-worker parts (split path).
#: - ``compute_ms`` — worker execution: the whole fan-out window on the
#:   split path, the single dispatch otherwise.
#: - ``gather_ms`` — merging per-worker partials (split path only).
#:
#: Stages that did not run are absent, never zero-filled.  When tracing
#: is armed each stage's span carries the *same* measurement in its
#: ``stage_ms`` attribute, so traces reconcile with envelopes exactly.
TIMING_KEYS = ("total_ms", "cache_ms", "scatter_ms", "compute_ms", "gather_ms")


@dataclass
class Response:
    """The uniform answer envelope every transport speaks.

    ``payload`` is the per-request-type result (``None`` on error);
    ``timings`` carries per-stage wall-clock milliseconds (``total_ms``
    always; ``cache_ms``/``scatter_ms``/``compute_ms``/``gather_ms`` as
    the stages run — see :data:`TIMING_KEYS` for the stable vocabulary);
    ``cached`` marks cache hits.  ``exception`` keeps the original
    in-process exception for :meth:`result` to re-raise — it never
    crosses the wire (the codec strips it; clients see only the
    structured :class:`ErrorInfo`).  ``request_type`` names the family.

    ``trace_id`` is set only when the request was served under an armed
    tracer — it names the server-side trace in ``GET /debug/traces``.
    Untraced responses leave it empty and the codec omits it, keeping
    wire bytes identical to pre-tracing builds.

    ``resilience`` is the retry metadata of a request that survived
    faults: JSON-native keys such as ``attempts`` (total dispatch
    attempts beyond the fan-out), ``failed_entities`` (positions degraded
    past the retry budget), ``stale`` / ``stale_version`` (payload served
    from a previous generation's cache) — empty on the clean path.  A
    ``degraded`` response carries *both* a usable payload and an
    ``error`` explaining what is missing or stale.

    ``cache_entry`` is the live :class:`~repro.serving.cache.CacheEntry`
    a hit was answered from: the codec splices the entry's memoised
    payload JSON into the envelope instead of re-encoding the payload.
    Like ``exception``, it never crosses the wire.
    """

    request_type: str
    status: str
    store_version: int
    payload: Any = None
    timings: dict[str, float] = field(default_factory=dict)
    cached: bool = False
    error: ErrorInfo | None = None
    exception: BaseException | None = None
    resilience: dict[str, Any] = field(default_factory=dict)
    trace_id: str = ""
    cache_entry: Any = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def degraded(self) -> bool:
        return self.status == STATUS_DEGRADED

    def result(self) -> Any:
        """The payload, re-raising the original error on failure.

        Degraded responses *return* their (partial or stale) payload —
        the graceful-degradation contract is "an imperfect answer beats
        a 500"; callers that need perfection check :attr:`status`.
        """
        if self.ok or self.degraded:
            return self.payload
        if self.exception is not None:
            raise self.exception
        error = self.error or ErrorInfo(ERROR_INTERNAL, "request failed")
        raise ServingError(error.code, error.message)


class ServingError(RuntimeError):
    """A serving-layer failure reconstructed from an error envelope."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


# -- the family registry ---------------------------------------------------------

SHARED = "shared"  # answered by the shared worker fleet only
TENANT_READ = "tenant_read"  # ... or, tenant-scoped, over the tenant's overlay
TENANT_WRITE = "tenant_write"  # a tenant's durable store, never the shared fleet


def _always(request: Request) -> bool:
    return True


def _never(request: Request) -> bool:
    return False


@dataclass(frozen=True)
class RequestFamily:
    """Everything the serving layers know about one request type.

    * ``splittable`` — whether the shard router may partition the request's
      ``entities`` tuple and merge per-entity results (walks, neighborhoods,
      related entities, fact ranking, k-NN).  Non-splittable requests ship
      whole: annotation and verification are already *batched* compute (one
      cross-document scoring pass / one embedding score pass), and splitting
      them would undo the batching; similarity pairs are too cheap to route.
    * ``cacheable`` — whether a result may enter the
      :class:`~repro.serving.cache.QueryCache`.  Most requests repeat
      (dashboards re-ask the same walks; assistants re-rank the same facts);
      multi-text annotation batches essentially never repeat byte-identically,
      so caching them would only pin dead memory.
    * ``cheap_to_recompute`` — whether the gateway may shed this class first
      under overload.  Pure graph lookups and similarity probes are cheap
      for the client to retry (and usually cached); annotation, ranking,
      verification and k-NN burn real compute, so they keep their admission
      slot until the hard limit.
    * ``tenant_role`` — shared-only, tenant-read (also answers over a
      tenant's overlay graph) or tenant-write (a tenant's durable store,
      never the shared fleet).
    * ``micro_batched`` — single texts ride the service's
      :class:`~repro.serving.batcher.MicroBatcher`.
    * ``execute(state, request)`` answers from a worker's
      :class:`~repro.serving.worker.WorkerState` (a tenant read passes a
      view whose ``engine`` is the tenant overlay); the tenant-write
      family runs ``execute(registry, tenant, request)``.
    * ``items`` names the request field with one payload item per entry
      (entities, texts, candidates or pairs): a worker result of any other
      length is truncated, and the pool retries it.  ``None`` for the
      tenant-write family, whose payload is one record.
    * ``item_to_wire`` / ``item_from_wire`` convert one payload item (one
      entity's, text's, candidate's or pair's result) to and from JSON;
      ``None`` means JSON-native already.
    """

    request_cls: type
    execute: Callable[..., Any]
    splittable: bool = False
    cheap_to_recompute: bool = False
    tenant_role: str = SHARED
    cacheable: Callable[[Any], bool] = _always
    micro_batched: bool = False
    items: str | None = "entities"
    item_to_wire: Callable[[Any], Any] | None = None
    item_from_wire: Callable[[Any], Any] | None = None

    @property
    def wire_type(self) -> str:
        return self.request_cls.wire_type

    def expected_items(self, request: Request) -> int | None:
        """The payload length a correct answer to ``request`` has."""
        return None if self.items is None else len(getattr(request, self.items))


def _walks(state, request: WalkRequest) -> list[list[list[str]]]:
    return [
        state.engine.random_walks(
            [entity],
            walk_length=request.walk_length,
            walks_per_entity=request.walks_per_entity,
            seed=entity_walk_seed(request.seed, entity),
        )
        for entity in request.entities
    ]


def _link_from_wire(item: dict):
    from repro.annotation.mention import EntityLink, Mention

    if not isinstance(item, dict):
        raise ValueError("annotation link must be an object")
    mention = Mention(int(item["start"]), int(item["end"]), str(item["surface"]))
    entity_type = str(item.get("entity_type", "OTHER"))
    return EntityLink(mention, str(item["entity"]), float(item["score"]), entity_type)


def _from_fields(module: str, name: str) -> Callable[[dict], Any]:
    """``cls(**fields)`` for a payload dataclass, imported on first use."""
    return lambda fields: getattr(import_module(module), name)(**fields)


_ranked_fact = _from_fields("repro.services.fact_ranking", "RankedFact")
_search_hit = _from_fields("repro.vector.index", "SearchHit")

FAMILIES: dict[str, RequestFamily] = {
    family.wire_type: family
    for family in (
        RequestFamily(
            WalkRequest, _walks,
            splittable=True, cheap_to_recompute=True, tenant_role=TENANT_READ,
        ),
        RequestFamily(
            NeighborhoodRequest,
            # Sorted for deterministic merge output (sets have no wire order).
            lambda state, r: [
                sorted(state.engine.neighborhood(entity, hops=r.hops)) for entity in r.entities
            ],
            splittable=True, cheap_to_recompute=True, tenant_role=TENANT_READ,
        ),
        RequestFamily(
            RelatedRequest,
            lambda state, r: [
                [(hit.entity, hit.score) for hit in state.related_backend().related(e, k=r.k)]
                for e in r.entities
            ],
            splittable=True,
            item_to_wire=lambda hits: [[entity, score] for entity, score in hits],
            item_from_wire=lambda hits: [(str(e), float(s)) for e, s in hits],
        ),
        RequestFamily(
            AnnotateRequest,
            lambda state, r: state.pipeline(r.tier).annotate_batch(list(r.texts)),
            cacheable=lambda r: len(r.texts) == 1,
            micro_batched=True,
            items="texts",
            # EntityLink.to_dict(): candidate feature lists stay server-side.
            item_to_wire=lambda links: [link.to_dict() for link in links],
            item_from_wire=lambda links: [_link_from_wire(item) for item in links],
        ),
        RequestFamily(
            FactRankRequest,
            # One batched scoring pass across every subject in the request.
            lambda state, r: state.embedding_suite().ranker.rank_many(
                list(r.entities), r.predicate
            ),
            splittable=True,
            item_to_wire=lambda ranked: [asdict(fact) for fact in ranked],
            item_from_wire=lambda ranked: [_ranked_fact(fact) for fact in ranked],
        ),
        RequestFamily(
            VerifyRequest,
            lambda state, r: state.embedding_suite().verifier.verify_batch(list(r.candidates)),
            items="candidates",
            item_to_wire=asdict,
            item_from_wire=_from_fields("repro.services.fact_verification", "Verdict"),
        ),
        RequestFamily(
            SimilarityRequest,
            lambda state, r: state.embedding_suite().embedding_service.batch_similarity(
                list(r.pairs)
            ),
            cheap_to_recompute=True, items="pairs",
        ),
        RequestFamily(
            KnnRequest,
            # One gathered query matrix through the index; per-entity hits
            # identical to scalar knn(), so results stay shard-invariant.
            lambda state, r: state.embedding_suite().embedding_service.knn_many(
                list(r.entities), k=r.k, exclude_self=r.exclude_self
            ),
            splittable=True,
            item_to_wire=lambda hits: [asdict(hit) for hit in hits],
            item_from_wire=lambda hits: [_search_hit(hit) for hit in hits],
        ),
        RequestFamily(
            TenantUpsertRequest,
            lambda registry, tenant, r: registry.upsert(tenant, r.records),
            tenant_role=TENANT_WRITE, cacheable=_never, items=None,
        ),
        RequestFamily(
            TenantSyncRequest,
            lambda registry, tenant, r: registry.sync(
                tenant, records=r.records, tombstones=r.tombstones, epsilon=r.epsilon
            ),
            tenant_role=TENANT_WRITE, cacheable=_never, items=None,
        ),
        RequestFamily(
            TenantDeleteRequest,
            lambda registry, tenant, r: registry.delete(
                tenant, r.source, r.record_id, r.sequence
            ),
            tenant_role=TENANT_WRITE, cacheable=_never, items=None,
        ),
    )
}

_FAMILIES_BY_CLASS: dict[type, RequestFamily] = {
    family.request_cls: family for family in FAMILIES.values()
}

REQUEST_TYPES: tuple[type, ...] = tuple(_FAMILIES_BY_CLASS)


def family_of(request: object) -> RequestFamily | None:
    """The registered family of ``request`` (``None`` for foreign objects)."""
    return _FAMILIES_BY_CLASS.get(type(request))

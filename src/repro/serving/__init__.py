"""Fanned-out, batched KG serving over persisted snapshot bundles (§4–5).

The subsystem that fronts the platform: a :class:`ServingService` facade
with one uniform ``serve(request) -> Response`` dispatch over a
:class:`ShardRouter` (int32 id-space partitioning into one part per
worker, with deterministic merges), a :class:`WorkerPool` of bundle replicas (inline or
subprocess executors over mmap-shared snapshot pages), a
:class:`MicroBatcher` (cross-document annotation batching) and a
versioned :class:`QueryCache` (LRU over ``(store_version, request)``).
:mod:`repro.serving.protocol` is the schema-versioned JSON wire codec and
:mod:`repro.serving.gateway` the asyncio/HTTP front door
(``python -m repro.serving.gateway <bundle>``).

Resilience rides the same stack: :mod:`repro.serving.faults` is the
deterministic fault-injection harness (seeded :class:`FaultPlan`,
``fault_point`` hooks at the worker/pool/gateway), and
:mod:`repro.serving.resilience` the primitives the supervision paths are
built from (:class:`RetryPolicy`, :class:`CircuitBreaker`); the facade
degrades gracefully (partial ``degraded`` envelopes, serve-stale-on-error)
instead of failing whole requests.
"""

# NOTE: repro.serving.gateway is deliberately NOT imported here — it is a
# runnable module (`python -m repro.serving.gateway`), and importing it
# from the package __init__ would trigger the double-import RuntimeWarning
# on boot.  Import AsyncGateway/GatewayHTTPServer from the module directly.
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import QueryCache
from repro.serving.faults import (
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    InjectedIOError,
    fault_point,
)
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_response,
    encode_request,
    encode_response,
)
from repro.serving.requests import (
    AnnotateRequest,
    ErrorInfo,
    FactRankRequest,
    KnnRequest,
    NeighborhoodRequest,
    RelatedRequest,
    Request,
    Response,
    ServingError,
    SimilarityRequest,
    VerifyRequest,
    WalkRequest,
    sub_request,
)
from repro.serving.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
    ShardResultError,
    TransientServingError,
    WorkerCrashError,
    is_retryable,
)
from repro.serving.router import ShardRouter
from repro.serving.service import (
    PartialResultError,
    ServingService,
)
from repro.serving.worker import (
    WorkerConfig,
    WorkerPool,
    WorkerState,
    entity_walk_seed,
)

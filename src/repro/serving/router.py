"""Shard routing: deterministic partitioning of the entity-id space.

The snapshot dictionary gives every node a dense int32 id, and that id
space hash-partitions trivially: shard of id ``i`` is ``i % num_shards``.
Entities the dictionary doesn't know (possible on a stale bundle or a
typo'd query) fall back to a stable string hash, so routing never
depends on process-local state.

The service builds its router with one shard per worker, so fan-out is
per worker: a splittable request costs each worker at most one message.
Workers are *replicas* — each one maps the same bundle, so any worker
can answer any part and correctness never depends on placement; what the
partition buys is intra-request parallelism across the pool.  Modulo
sharding *strides* the id space — a part's CSR rows are spread across
the arrays, not contiguous; a future move to true data partitioning
(per-worker sub-bundles) would swap this for range partitioning.

The merge contract: :meth:`ShardRouter.scatter` records each entity's
original position; :meth:`ShardRouter.gather` puts per-entity results
back in request order.  The merged output is therefore identical to a
single worker answering the unpartitioned request — the partition is
invisible to clients.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.common import tracing
from repro.common.rng import stable_hash
from repro.serving.requests import Request, family_of, sub_request


class ShardRouter:
    """Hash-partitions entities over a fixed number of shards."""

    def __init__(
        self,
        num_shards: int,
        id_of: Callable[[str], int | None] | None = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = num_shards
        # Dictionary lookup into the int32 id space; ``None`` (or an
        # unknown entity) falls back to a stable string hash.
        self._id_of = id_of

    def shard_of(self, entity: str) -> int:
        """The shard owning ``entity`` (stable across processes and runs)."""
        if self._id_of is not None:
            node_id = self._id_of(entity)
            if node_id is not None:
                return node_id % self.num_shards
        return stable_hash(entity, self.num_shards)

    def scatter(
        self, entities: Sequence[str]
    ) -> list[tuple[int, list[int], tuple[str, ...]]]:
        """Partition ``entities`` into per-shard groups.

        Returns ``(shard, positions, members)`` triples — ``positions``
        are the indices of ``members`` in the input sequence — ordered by
        shard id, skipping empty shards.  Entity order *within* a shard
        preserves input order, so a worker's per-entity results line up
        with ``positions`` one-to-one.
        """
        buckets: dict[int, tuple[list[int], list[str]]] = {}
        for position, entity in enumerate(entities):
            shard = self.shard_of(entity)
            bucket = buckets.get(shard)
            if bucket is None:
                bucket = buckets[shard] = ([], [])
            bucket[0].append(position)
            bucket[1].append(entity)
        return [
            (shard, positions, tuple(members))
            for shard, (positions, members) in sorted(buckets.items())
        ]

    def scatter_request(
        self, request: Request
    ) -> list[tuple[list[int], Request]]:
        """Partition a splittable request into per-shard sub-requests.

        The fan-out unit the dispatch submits to the pool: each returned
        ``(positions, sub_request)`` pair narrows the original request to
        one shard's (one worker's) members, every other parameter carried
        verbatim, so any replica can answer it and :meth:`gather` can merge
        the per-entity results back into request order.  Raises ``TypeError``
        for non-splittable request types — the policy lives in the
        request's family record, not here.
        """
        family = family_of(request)
        if family is None or not family.splittable:
            raise TypeError(
                f"request type {type(request).__name__} is not splittable"
            )
        parts = [
            (positions, sub_request(request, members))
            for _shard, positions, members in self.scatter(request.entities)
        ]
        tracing.event(
            "router.scatter",
            entities=len(request.entities),
            shards=len(parts),
            num_shards=self.num_shards,
        )
        return parts

    @staticmethod
    def gather(
        total: int,
        shard_results: Sequence[tuple[list[int], Sequence]],
    ) -> list:
        """Merge per-shard result lists back into input order.

        ``shard_results`` pairs each shard's ``positions`` (from
        :meth:`scatter`) with the per-entity results its worker returned.
        Every position must be covered exactly once.
        """
        merged: list = [None] * total
        filled = 0
        for positions, results in shard_results:
            if len(positions) != len(results):
                raise ValueError(
                    f"shard returned {len(results)} results for {len(positions)} entities"
                )
            for position, result in zip(positions, results):
                merged[position] = result
            filled += len(positions)
        if filled != total:
            raise ValueError(f"merged {filled} results for {total} request entities")
        return merged

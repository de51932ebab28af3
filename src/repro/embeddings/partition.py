"""Random edge-based graph partitioning for scalable embedding training.

§2: "For shallow embedding models, random edge-based partitioning of the
graph is a major technique to combat the scalability challenge."  Following
PyTorch-BigGraph and Marius, entities are hashed into ``p`` buckets; every
edge then belongs to the bucket *pair* of its endpoints.  Training iterates
over bucket pairs while only the buckets of the current pair (plus cached
neighbours) are resident in memory.

The pair *schedule* determines how often buckets must be swapped between
memory and disk.  :func:`schedule_pairs` implements a greedy
locality-maximising order and :func:`count_swaps` simulates an LRU buffer
to measure it — the quantity the disk-trainer benchmark sweeps.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.common.errors import EmbeddingError
from repro.common.rng import substream
from repro.embeddings.dataset import TripleDataset


@dataclass
class Partitioning:
    """Entity→bucket assignment plus the induced edge groups."""

    num_partitions: int
    entity_bucket: np.ndarray  # (num_entities,) int
    # (head_bucket, tail_bucket) -> (n_group, 3) triple array
    groups: dict[tuple[int, int], np.ndarray]

    def entities_in(self, bucket: int) -> np.ndarray:
        """Global entity indices assigned to ``bucket`` (sorted)."""
        return np.flatnonzero(self.entity_bucket == bucket)


def partition_dataset(
    dataset: TripleDataset, num_partitions: int, seed: int = 0
) -> Partitioning:
    """Randomly assign entities to balanced buckets and group edges.

    Buckets are balanced by shuffling entity indices and striping them,
    which matches the "random edge-based partitioning" of the paper while
    keeping bucket embedding blocks equally sized on disk.
    """
    if num_partitions <= 0:
        raise EmbeddingError(f"num_partitions must be positive, got {num_partitions}")
    if num_partitions > dataset.num_entities:
        raise EmbeddingError(
            f"cannot split {dataset.num_entities} entities into {num_partitions} buckets"
        )
    rng = substream(seed, "partition")
    order = rng.permutation(dataset.num_entities)
    entity_bucket = np.empty(dataset.num_entities, dtype=np.int64)
    entity_bucket[order] = np.arange(dataset.num_entities) % num_partitions

    groups: dict[tuple[int, int], list[np.ndarray]] = {}
    head_buckets = entity_bucket[dataset.triples[:, 0]]
    tail_buckets = entity_bucket[dataset.triples[:, 2]]
    for hb in range(num_partitions):
        for tb in range(num_partitions):
            mask = (head_buckets == hb) & (tail_buckets == tb)
            if np.any(mask):
                groups[(hb, tb)] = [dataset.triples[mask]]
    return Partitioning(
        num_partitions=num_partitions,
        entity_bucket=entity_bucket,
        groups={pair: rows[0] for pair, rows in groups.items()},
    )


def schedule_pairs(
    pairs: list[tuple[int, int]], buffer_capacity: int
) -> list[tuple[int, int]]:
    """Order bucket pairs to maximise buffer reuse (greedy LRU heuristic).

    Starting from the lexicographically first pair, repeatedly picks the
    remaining pair whose buckets overlap the simulated resident set the
    most (ties broken lexicographically for determinism).
    """
    if buffer_capacity < 2:
        raise EmbeddingError("buffer must hold at least 2 buckets (one pair)")
    remaining = sorted(pairs)
    if not remaining:
        return []
    schedule: list[tuple[int, int]] = []
    resident: OrderedDict[int, None] = OrderedDict()

    def touch(bucket: int) -> None:
        if bucket in resident:
            resident.move_to_end(bucket)
        else:
            resident[bucket] = None
            if len(resident) > buffer_capacity:
                resident.popitem(last=False)

    current = remaining.pop(0)
    while True:
        schedule.append(current)
        for bucket in set(current):
            touch(bucket)
        if not remaining:
            break
        best_index = 0
        best_overlap = -1
        for index, pair in enumerate(remaining):
            overlap = sum(1 for bucket in set(pair) if bucket in resident)
            if overlap > best_overlap:
                best_overlap, best_index = overlap, index
                if overlap == 2:
                    break
        current = remaining.pop(best_index)
    return schedule


def count_swaps(
    schedule: list[tuple[int, int]], buffer_capacity: int
) -> tuple[int, int]:
    """Simulate an LRU bucket buffer over ``schedule``.

    Returns ``(loads, evictions)`` — the disk traffic the schedule incurs.
    The first ``buffer_capacity`` loads are compulsory (cold buffer).
    """
    resident: OrderedDict[int, None] = OrderedDict()
    loads = 0
    evictions = 0
    for pair in schedule:
        for bucket in dict.fromkeys(pair):  # preserve order, dedupe (i, i)
            if bucket in resident:
                resident.move_to_end(bucket)
                continue
            loads += 1
            resident[bucket] = None
            if len(resident) > buffer_capacity:
                resident.popitem(last=False)
                evictions += 1
    return loads, evictions

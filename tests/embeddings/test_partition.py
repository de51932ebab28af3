"""Tests for edge partitioning and bucket-pair scheduling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import EmbeddingError
from repro.embeddings.dataset import build_dataset
from repro.embeddings.partition import (
    count_swaps,
    partition_dataset,
    schedule_pairs,
)
from repro.kg.store import TripleStore
from repro.kg.triple import entity_fact


@pytest.fixture(scope="module")
def dataset():
    store = TripleStore()
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = rng.integers(0, 40, size=2)
        if a != b:
            store.add(entity_fact(f"entity:e{a}", "predicate:p", f"entity:e{b}"))
    return build_dataset(store)


class TestPartitioning:
    def test_buckets_balanced(self, dataset):
        partitioning = partition_dataset(dataset, 4, seed=0)
        sizes = np.bincount(partitioning.entity_bucket, minlength=4)
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == dataset.num_entities

    def test_every_edge_in_exactly_one_group(self, dataset):
        partitioning = partition_dataset(dataset, 4, seed=0)
        total = sum(len(group) for group in partitioning.groups.values())
        assert total == len(dataset)

    def test_group_assignment_consistent(self, dataset):
        partitioning = partition_dataset(dataset, 3, seed=2)
        for (hb, tb), triples in partitioning.groups.items():
            assert np.all(partitioning.entity_bucket[triples[:, 0]] == hb)
            assert np.all(partitioning.entity_bucket[triples[:, 2]] == tb)

    def test_deterministic(self, dataset):
        a = partition_dataset(dataset, 4, seed=3)
        b = partition_dataset(dataset, 4, seed=3)
        assert np.array_equal(a.entity_bucket, b.entity_bucket)

    def test_rejects_bad_counts(self, dataset):
        with pytest.raises(EmbeddingError):
            partition_dataset(dataset, 0)
        with pytest.raises(EmbeddingError):
            partition_dataset(dataset, dataset.num_entities + 1)

    def test_entities_in(self, dataset):
        partitioning = partition_dataset(dataset, 4, seed=0)
        members = partitioning.entities_in(0)
        assert np.all(partitioning.entity_bucket[members] == 0)


class TestSchedule:
    def test_schedule_is_permutation(self, dataset):
        partitioning = partition_dataset(dataset, 4, seed=0)
        pairs = sorted(partitioning.groups)
        schedule = schedule_pairs(pairs, buffer_capacity=2)
        assert sorted(schedule) == pairs

    def test_greedy_beats_or_ties_lexicographic(self, dataset):
        partitioning = partition_dataset(dataset, 6, seed=1)
        pairs = sorted(partitioning.groups)
        greedy = schedule_pairs(pairs, buffer_capacity=2)
        greedy_loads, _ = count_swaps(greedy, 2)
        lex_loads, _ = count_swaps(pairs, 2)
        assert greedy_loads <= lex_loads

    def test_bigger_buffer_fewer_loads(self, dataset):
        partitioning = partition_dataset(dataset, 6, seed=1)
        pairs = sorted(partitioning.groups)
        small = count_swaps(schedule_pairs(pairs, 2), 2)[0]
        large = count_swaps(schedule_pairs(pairs, 6), 6)[0]
        assert large <= small
        # With the whole graph resident, loads equal the bucket count.
        assert large == 6

    def test_rejects_tiny_buffer(self):
        with pytest.raises(EmbeddingError):
            schedule_pairs([(0, 1)], buffer_capacity=1)

    def test_empty_schedule(self):
        assert schedule_pairs([], buffer_capacity=2) == []

    @settings(max_examples=20, deadline=None)
    @given(
        n_buckets=st.integers(min_value=2, max_value=6),
        capacity=st.integers(min_value=2, max_value=6),
    )
    def test_property_loads_bounded(self, n_buckets, capacity):
        """Loads are at least the bucket count and at most one per pair touch."""
        pairs = [(i, j) for i in range(n_buckets) for j in range(n_buckets)]
        schedule = schedule_pairs(pairs, capacity)
        loads, evictions = count_swaps(schedule, capacity)
        assert loads >= min(n_buckets, capacity) or n_buckets <= capacity
        assert loads <= 2 * len(pairs)
        assert evictions == max(0, loads - min(capacity, n_buckets)) or evictions >= 0

"""Tests for the graph query engine."""

import pytest

from repro.kg.graph_engine import GraphEngine
from repro.kg.store import EntityRecord, TripleStore
from repro.kg.triple import entity_fact


@pytest.fixture()
def engine() -> GraphEngine:
    store = TripleStore()
    # A small chain + hub: a-b-c, hub connected to all.
    for local, name, types in [
        ("a", "A", ("type:person",)),
        ("b", "B", ("type:person",)),
        ("c", "C", ("type:city",)),
        ("hub", "Hub", ("type:award",)),
    ]:
        store.upsert_entity(EntityRecord(entity=f"entity:{local}", name=name, types=types))
    store.add(entity_fact("entity:a", "predicate:knows", "entity:b"))
    store.add(entity_fact("entity:b", "predicate:lives_in", "entity:c"))
    for local in ("a", "b", "c"):
        store.add(entity_fact(f"entity:{local}", "predicate:linked", "entity:hub"))
    return GraphEngine(store)


class TestTraversals:
    def test_neighborhood_1hop(self, engine):
        assert engine.neighborhood("entity:a", 1) == {"entity:b", "entity:hub"}

    def test_neighborhood_2hop_excludes_seed(self, engine):
        hood = engine.neighborhood("entity:a", 2)
        assert "entity:a" not in hood
        assert "entity:c" in hood  # via b or hub

    def test_neighborhood_rejects_negative(self, engine):
        with pytest.raises(ValueError):
            engine.neighborhood("entity:a", -1)

    def test_random_walks_deterministic(self, engine):
        walks_a = engine.random_walks(["entity:a"], walk_length=4, walks_per_entity=2, seed=5)
        walks_b = engine.random_walks(["entity:a"], walk_length=4, walks_per_entity=2, seed=5)
        assert walks_a == walks_b
        assert all(walk[0] == "entity:a" for walk in walks_a)

    def test_random_walks_follow_edges(self, engine):
        for walk in engine.random_walks(["entity:a"], walk_length=5, walks_per_entity=3, seed=1):
            for i in range(len(walk) - 1):
                assert walk[i + 1] in engine.store.neighbors(walk[i])

    def test_co_neighbor_counts(self, engine):
        counts = engine.co_neighbor_counts("entity:a")
        # a and c share the hub (and b) as neighbours.
        assert counts.get("entity:c", 0) >= 1


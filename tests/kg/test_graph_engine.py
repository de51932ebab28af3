"""Tests for the graph query engine."""

import pytest

from repro.kg.graph_engine import GraphEngine, TriplePattern
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


class TestPatterns:
    def test_match(self, engine):
        facts = list(engine.match(TriplePattern(predicate="predicate:knows")))
        assert len(facts) == 1

    def test_match_all_dedupes(self, engine):
        facts = engine.match_all(
            [
                TriplePattern(subject="entity:a"),
                TriplePattern(predicate="predicate:knows"),
            ]
        )
        keys = [fact.key for fact in facts]
        assert len(keys) == len(set(keys))

    def test_filter_facts(self, engine):
        kept = list(engine.filter_facts(lambda fact: fact.predicate == "predicate:linked"))
        assert len(kept) == 3


class TestTypedLookups:
    def test_entities_of_type(self, engine):
        assert engine.entities_of_type("type:person") == ["entity:a", "entity:b"]

    def test_type_of(self, engine):
        assert engine.type_of("entity:c") == ("type:city",)
        assert engine.type_of("entity:unknown") == ()


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


class TestCandidates:
    def test_candidate_triples_default_objects(self, engine):
        candidates = engine.candidate_triples("entity:a", "predicate:lives_in")
        assert ("entity:a", "predicate:lives_in", "entity:c") in candidates

    def test_candidate_triples_explicit(self, engine):
        candidates = engine.candidate_triples(
            "entity:a", "predicate:knows", ["entity:b", "entity:c"]
        )
        assert len(candidates) == 2

    def test_candidate_pairs_sampled(self, engine):
        entities = [f"entity:{x}" for x in "abc"]
        pairs = engine.candidate_pairs(entities, max_pairs=2, seed=1)
        assert len(pairs) == 2

    def test_entity_edges_excludes_literals(self, engine):
        from repro.kg.triple import LiteralType, literal_fact

        engine.store.add(
            literal_fact("entity:a", "predicate:height", 180, LiteralType.NUMBER)
        )
        assert all(fact.obj.startswith("entity:") for fact in engine.entity_edges())

    def test_degree_distribution(self, engine):
        degrees = engine.degree_distribution()
        assert degrees["entity:hub"] == 3

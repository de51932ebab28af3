"""Tests for the dictionary-encoding and CSR adjacency layer."""

import pytest

from repro.common import fastrand
from repro.common.errors import StoreError
from repro.common.rng import substream
from repro.kg.adjacency import AdjacencyIndex, build_csr
from repro.kg.encoding import Dictionary
from repro.kg.graph_engine import GraphEngine
from repro.kg.store import EntityRecord, TripleStore
from repro.kg.triple import LiteralType, entity_fact, literal_fact


def random_store(seed: int, num_entities: int = 40, num_facts: int = 150) -> TripleStore:
    """A random store with entity edges, literal facts and isolated entities."""
    rng = substream(seed, "adjacency-test")
    store = TripleStore()
    entities = [f"entity:n{i}" for i in range(num_entities)]
    for entity in entities:
        store.upsert_entity(EntityRecord(entity=entity, name=entity.split(":")[1]))
    predicates = [f"predicate:p{j}" for j in range(5)]
    for _ in range(num_facts):
        subject = entities[int(rng.integers(num_entities))]
        predicate = predicates[int(rng.integers(len(predicates)))]
        if rng.random() < 0.8:
            obj = entities[int(rng.integers(num_entities))]
            store.add(entity_fact(subject, predicate, obj))
        else:
            store.add(
                literal_fact(subject, predicate, int(rng.integers(100)), LiteralType.NUMBER)
            )
    return store


def reference_random_walks(store, entities, walk_length, walks_per_entity, seed):
    """The seed implementation the CSR walks must replay byte-for-byte."""
    rng = substream(seed, "random-walks")
    walks = []
    for entity in entities:
        for _ in range(walks_per_entity):
            walk = [entity]
            current = entity
            for _ in range(walk_length - 1):
                neighbors = sorted(store.neighbors(current))
                if not neighbors:
                    break
                current = neighbors[int(rng.integers(len(neighbors)))]
                walk.append(current)
            walks.append(walk)
    return walks


class TestDictionary:
    def test_round_trip(self):
        dictionary = Dictionary()
        ids = [dictionary.intern(s) for s in ("a", "b", "c")]
        assert ids == [0, 1, 2]
        assert [dictionary.string_of(i) for i in ids] == ["a", "b", "c"]

    def test_intern_is_idempotent(self):
        dictionary = Dictionary(["x", "y"])
        assert dictionary.intern("x") == 0
        assert dictionary.intern("y") == 1
        assert len(dictionary) == 2

    def test_membership_and_get(self):
        dictionary = Dictionary(["x"])
        assert "x" in dictionary and "z" not in dictionary
        assert dictionary.get("z") is None
        assert dictionary.id_of("x") == 0

    def test_unknowns_raise(self):
        dictionary = Dictionary(["x"])
        with pytest.raises(StoreError):
            dictionary.id_of("zzz")
        with pytest.raises(StoreError):
            dictionary.string_of(5)


class TestCSRSnapshot:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_brute_force_neighbors(self, seed):
        store = random_store(seed)
        snapshot = build_csr(store)
        # Every node string the store knows about, including literal values.
        nodes = set(store.entity_ids())
        for fact in store.scan():
            nodes.add(fact.subject)
            nodes.add(fact.obj)
        for node in nodes:
            assert snapshot.neighbors(node) == store.neighbors(node), node

    def test_rows_sorted_by_string(self):
        store = random_store(4)
        snapshot = build_csr(store)
        strings = snapshot.dictionary.strings()
        for node_id in range(snapshot.num_nodes):
            row = [strings[i] for i in snapshot.neighbors_of(node_id)]
            assert row == sorted(row)

    def test_unknown_node_is_isolated(self):
        snapshot = build_csr(random_store(5))
        assert snapshot.neighbors("entity:never-seen") == set()

    def test_neighbor_row_caches_agree(self):
        store = random_store(6)
        snapshot = build_csr(store)
        id_rows = snapshot.neighbor_id_rows()
        string_rows = snapshot.neighbor_string_rows()
        strings = snapshot.dictionary.strings()
        for node_id in range(snapshot.num_nodes):
            assert snapshot.neighbors_of(node_id).tolist() == id_rows[node_id]
            assert [strings[i] for i in id_rows[node_id]] == string_rows[node_id]


class TestInvalidation:
    def test_snapshot_rebuilds_on_store_mutation(self):
        store = random_store(7)
        index = AdjacencyIndex(store)
        first = index.current()
        assert index.current() is first  # cached while version holds
        store.add(entity_fact("entity:n0", "predicate:new", "entity:n1"))
        assert index.is_stale
        second = index.current()
        assert second is not first
        assert "entity:n1" in second.neighbors("entity:n0")
        assert index.rebuild_count == 2

    def test_remove_invalidates_too(self):
        store = TripleStore()
        store.add(entity_fact("entity:a", "predicate:p", "entity:b"))
        engine = GraphEngine(store)
        assert engine.neighborhood("entity:a") == {"entity:b"}
        store.remove("entity:a", "predicate:p", "entity:b")
        assert engine.neighborhood("entity:a") == set()


class TestTraversalEquivalence:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_walks_byte_identical_to_reference(self, seed):
        store = random_store(seed)
        engine = GraphEngine(store)
        entities = sorted(store.entity_ids())
        for walk_seed in (0, 5):
            expected = reference_random_walks(store, entities, 8, 3, walk_seed)
            actual = engine.random_walks(entities, walk_length=8, walks_per_entity=3, seed=walk_seed)
            assert actual == expected

    def test_walk_determinism_same_seed(self):
        engine = GraphEngine(random_store(13))
        entities = sorted(engine.store.entity_ids())[:10]
        first = engine.random_walks(entities, walk_length=6, walks_per_entity=2, seed=9)
        second = engine.random_walks(entities, walk_length=6, walks_per_entity=2, seed=9)
        assert first == second

    def test_walks_from_unknown_entity(self):
        engine = GraphEngine(random_store(14))
        walks = engine.random_walks(["entity:ghost"], walk_length=4, walks_per_entity=2)
        assert walks == [["entity:ghost"], ["entity:ghost"]]

    def test_co_neighbor_counts_match_brute_force(self):
        store = random_store(15)
        engine = GraphEngine(store)
        for entity in sorted(store.entity_ids()):
            expected: dict[str, int] = {}
            for neighbor in store.neighbors(entity):
                for second in store.neighbors(neighbor):
                    if second != entity:
                        expected[second] = expected.get(second, 0) + 1
            assert dict(engine.co_neighbor_counts(entity)) == expected

    def test_neighborhood_matches_brute_force(self):
        store = random_store(16)
        engine = GraphEngine(store)
        for entity in sorted(store.entity_ids())[:15]:
            for hops in (0, 1, 2, 3):
                frontier = {entity}
                visited = {entity}
                for _ in range(hops):
                    frontier = {
                        n for node in frontier for n in store.neighbors(node)
                    } - visited
                    visited |= frontier
                assert engine.neighborhood(entity, hops) == visited - {entity}



class TestFastrand:
    def test_lemire_replays_generator_integers(self):
        if not fastrand.lemire_matches_numpy():
            pytest.skip("this numpy does not use the replicated Lemire scheme")
        rng = substream(3, "random-walks")
        sampler = fastrand.Lemire32(substream(3, "random-walks"))
        bounds = [int(b) for b in substream(0, "bounds").integers(1, 40, size=500)]
        bounds += [1, 2, 4, 8, 16, 1, 3, 65536]
        assert [sampler.randbelow(b) for b in bounds] == [int(rng.integers(b)) for b in bounds]

    def test_walks_correct_even_without_lemire(self, monkeypatch):
        """The fallback sampler must produce the same byte-identical walks."""
        store = random_store(17)
        engine = GraphEngine(store)
        entities = sorted(store.entity_ids())[:10]
        expected = engine.random_walks(entities, walk_length=6, walks_per_entity=2, seed=4)
        monkeypatch.setattr(fastrand, "lemire_matches_numpy", lambda: False)
        actual = engine.random_walks(entities, walk_length=6, walks_per_entity=2, seed=4)
        assert actual == expected

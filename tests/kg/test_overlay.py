"""Tenant overlays: view parity, base sharing, determinism, append-only ids."""

import numpy as np
import pytest

from repro.common import ids
from repro.common.errors import StoreError
from repro.kg import SyntheticKGConfig, generate_kg
from repro.kg.adjacency import build_csr
from repro.kg.deltas import GenerationPublisher
from repro.kg.graph_engine import GraphEngine
from repro.kg.overlay import OverlayView, TenantOverlay, overlay_payload
from repro.kg.persistence import load_snapshot
from repro.kg.store import EntityRecord, TripleStore
from repro.kg.triple import LiteralType, entity_fact, literal_fact

INTERESTED = ids.predicate_id("interested_in")
KNOWS = ids.predicate_id("knows")
NOTE = ids.predicate_id("note")


@pytest.fixture(scope="module")
def shared():
    """A small shared open-domain KG plus its base CSR (read-only)."""
    kg = generate_kg(SyntheticKGConfig(seed=13, scale=0.05))
    return kg.store, build_csr(kg.store)


def _personal_store(shared_store, *, people=2, links=2) -> TripleStore:
    """A personal store linking synthetic persons into the shared graph."""
    store = TripleStore(name="personal")
    shared_entities = sorted(shared_store.entity_ids())
    for p in range(people):
        person = ids.entity_id(f"person/anna-{p}")
        store.upsert_entity(EntityRecord(entity=person, name=f"Anna {p}"))
        for l in range(links):
            target = shared_entities[(p * 7 + l * 3) % len(shared_entities)]
            store.add(entity_fact(person, INTERESTED, target, sources=("dev",)))
        if p:
            store.add(
                entity_fact(
                    person, KNOWS, ids.entity_id("person/anna-0"), sources=("dev",)
                )
            )
        store.add(
            literal_fact(person, NOTE, f"note {p}", LiteralType.STRING)
        )
    return store


def _union_store(shared_store, personal) -> TripleStore:
    """A from-scratch store of shared plus personal facts."""
    union = TripleStore(name="union")
    union.copy_entities_from(shared_store)
    union.copy_entities_from(personal)
    for fact in (*shared_store.scan(), *personal.scan()):
        union.add(fact)
    return union


def _neighbor_sets(snapshot) -> dict[str, set[str]]:
    """node string -> decoded neighbor set, for a CSR or an overlay view."""
    strings = snapshot.dictionary._strings_view()
    return {
        strings[node]: {strings[i] for i in row}
        for node, row in enumerate(snapshot.neighbor_id_rows())
    }


class TestOverlayParity:
    def test_matches_from_scratch_union_build(self, shared):
        """The overlay view equals a full build of shared+personal."""
        shared_store, base = shared
        personal = _personal_store(shared_store)

        full = build_csr(_union_store(shared_store, personal))

        view = OverlayView(base, personal)
        rows = view.neighbor_id_rows()
        assert len(rows) == base.num_nodes + len(view.dictionary.extra) == full.num_nodes
        assert sum(map(len, rows)) == full.num_edges
        full_rows = _neighbor_sets(full)
        view_rows = _neighbor_sets(view)
        assert full_rows == view_rows
        # Rows keep the CSR order walks index into: sorted by string.
        strings = view.dictionary._strings_view()
        for node, row in enumerate(rows):
            decoded = [strings[i] for i in row]
            assert decoded == sorted(decoded), strings[node]
            assert view.dictionary.get(strings[node]) == node

    def test_two_builds_are_byte_identical(self, shared):
        shared_store, base = shared
        personal = _personal_store(shared_store)
        first = OverlayView(base, personal)
        second = OverlayView(base, personal)
        assert first.neighbor_id_rows() == second.neighbor_id_rows()
        assert first.dictionary.extra == second.dictionary.extra
        assert first.built_version == second.built_version == personal.version

    def test_base_is_shared_not_copied(self, shared):
        """The view references the base's rows and strings; it copies no
        base-sized map, and no personal row leaks into the shared rows."""
        shared_store, base = shared
        base_rows = base.neighbor_id_rows()
        before = [list(row) for row in base_rows]
        before_indices = base.indices.copy()
        personal = _personal_store(shared_store)
        view = OverlayView(base, personal)
        touched = {node for node, _row in overlay_payload(base, personal).rows}
        rows = view.neighbor_id_rows()
        assert rows is not base_rows
        for node in range(base.num_nodes):
            if node not in touched:
                assert rows[node] is base_rows[node], node
        assert any(node < base.num_nodes for node in touched)
        dictionary = view.dictionary
        assert dictionary.base is base.dictionary
        for name in dictionary.__slots__:
            value = getattr(dictionary, name)
            if isinstance(value, dict):
                assert len(value) < base.num_nodes, name

        views = [
            OverlayView(base, _personal_store(shared_store, people=1 + n % 3, links=1 + n % 4))
            for n in range(50)
        ]
        assert len({id(v.neighbor_id_rows()) for v in views}) == 50
        assert base.neighbor_id_rows() is base_rows
        assert base_rows == before
        assert base.num_nodes == len(before)
        np.testing.assert_array_equal(base.indices, before_indices)

    def test_personal_nodes_take_ids_past_base(self, shared):
        shared_store, base = shared
        personal = _personal_store(shared_store)
        payload = overlay_payload(base, personal)
        assert payload.store_version == personal.version
        assert payload.parent_version == base.built_version
        # Every string the base lacks appends past base.num_nodes, in
        # sorted order — the deterministic id assignment the view and
        # the append-only pin both rely on.
        assert payload.new_strings == sorted(payload.new_strings)
        view = OverlayView(base, personal)
        for offset, string in enumerate(payload.new_strings):
            assert view.dictionary.get(string) == base.num_nodes + offset
            assert view.dictionary[base.num_nodes + offset] == string
        for p in range(2):
            person = ids.entity_id(f"person/anna-{p}")
            assert view.dictionary.get(person) >= base.num_nodes
            assert base.dictionary.get(person) is None


class TestTenantOverlay:
    def test_engine_serves_merged_view(self, shared):
        shared_store, base = shared
        personal = _personal_store(shared_store)
        overlay = TenantOverlay(base, personal)
        engine = overlay.engine()
        person = ids.entity_id("person/anna-0")
        hood = engine.neighborhood(person, hops=1)
        linked = set(personal.objects(person, INTERESTED))
        assert linked and linked <= set(hood)
        # One hop further reaches pure shared-graph structure: neighbors
        # of the linked shared entity that no personal fact mentions.
        two = set(engine.neighborhood(person, hops=2))
        shared_only = set()
        for target in linked:
            node = base.dictionary.get(target)
            shared_only |= {
                base.dictionary.string_of(int(i)) for i in base.neighbors_of(node)
            }
        assert shared_only & two

    def test_walks_and_neighborhoods_match_union_build(self, shared):
        """Walks and neighbourhoods over the view equal those of a
        from-scratch engine over shared plus personal facts."""
        shared_store, base = shared
        personal = _personal_store(shared_store, people=3, links=3)
        overlay = TenantOverlay(base, personal).engine()
        union = GraphEngine(_union_store(shared_store, personal))
        people = [ids.entity_id(f"person/anna-{p}") for p in range(3)]
        linked = sorted({o for p in people for o in personal.objects(p, INTERESTED)})
        entities = people + linked + sorted(shared_store.entity_ids())[:20]
        for seed in (0, 7):
            assert overlay.random_walks(
                entities, walk_length=8, walks_per_entity=4, seed=seed
            ) == union.random_walks(entities, walk_length=8, walks_per_entity=4, seed=seed)
        for entity in entities:
            for hops in (1, 2):
                assert overlay.neighborhood(entity, hops) == union.neighborhood(
                    entity, hops
                ), entity

    def test_engine_is_cached(self, shared):
        shared_store, base = shared
        overlay = TenantOverlay(base, _personal_store(shared_store))
        assert overlay.engine() is overlay.engine()

    def test_mutated_personal_store_is_refused(self, shared):
        shared_store, base = shared
        personal = _personal_store(shared_store)
        overlay = TenantOverlay(base, personal)
        personal.add(
            literal_fact(
                ids.entity_id("person/anna-0"), NOTE, "late", LiteralType.STRING
            )
        )
        with pytest.raises(StoreError, match="moved"):
            overlay.engine()


class TestAppendOnlyAcrossGenerations:
    def test_shared_swap_keeps_ids_and_overlay_valid(self, tmp_path):
        """The ISSUE pin: a shared-bundle generation swap only ever
        *appends* to the dictionary, so rebuilding a tenant overlay
        against the new base lands personal facts on the same strings
        and keeps every pre-swap id meaningful."""
        kg = generate_kg(SyntheticKGConfig(seed=17, scale=0.05))
        publisher = GenerationPublisher(
            kg.store, tmp_path / "bundle"
        )
        base_v1 = load_snapshot(tmp_path / "bundle").adjacency
        personal = _personal_store(kg.store)
        overlay_v1 = TenantOverlay(base_v1, personal)
        person = ids.entity_id("person/anna-0")
        hood_v1 = overlay_v1.engine().neighborhood(person, hops=1)

        # Grow the shared graph: a brand-new entity plus new edges.
        anchor = sorted(kg.store.entity_ids())[0]
        newcomer = ids.entity_id("grown/newcomer")
        kg.store.upsert_entity(EntityRecord(entity=newcomer, name="Newcomer"))
        fact = entity_fact(newcomer, KNOWS, anchor, sources=("growth",))
        kg.store.add(fact)
        publisher.record(keys=[fact.key], entities=[newcomer])
        assert publisher.publish() is not None
        base_v2 = load_snapshot(tmp_path / "bundle").adjacency
        assert base_v2.built_version > base_v1.built_version

        # Append-only: every v1 string keeps its exact id in v2.
        v1_strings = list(base_v1.dictionary.strings())
        for node_id, string in enumerate(v1_strings):
            assert base_v2.dictionary.get(string) == node_id
        assert base_v2.num_nodes > base_v1.num_nodes

        overlay_v2 = TenantOverlay(base_v2, personal)
        engine_v2 = overlay_v2.engine()
        # Personal facts land on the same strings: the old merged view
        # is a subset of the new one (the swap only added shared edges).
        hood_v2 = engine_v2.neighborhood(person, hops=1)
        assert set(hood_v1) <= set(hood_v2)
        # And the newly-grown shared structure is reachable through the
        # same overlay without any tenant-side work.
        assert engine_v2.snapshot().dictionary.get(newcomer) is not None
        anchor_hood = engine_v2.neighborhood(anchor, hops=1)
        assert newcomer in anchor_hood

    def test_personal_ids_shift_but_strings_resolve(self, tmp_path):
        """Personal node *ids* may shift across a swap (they re-append
        past the larger base); resolution is by string, so reads agree."""
        kg = generate_kg(SyntheticKGConfig(seed=19, scale=0.05))
        publisher = GenerationPublisher(
            kg.store, tmp_path / "bundle"
        )
        base_v1 = load_snapshot(tmp_path / "bundle").adjacency
        personal = _personal_store(kg.store, people=1, links=1)
        person = ids.entity_id("person/anna-0")
        id_v1 = OverlayView(base_v1, personal).dictionary.get(person)

        newcomer = ids.entity_id("grown/other")
        kg.store.upsert_entity(EntityRecord(entity=newcomer, name="Other"))
        fact = entity_fact(
            newcomer, KNOWS, sorted(kg.store.entity_ids())[1], sources=("growth",)
        )
        kg.store.add(fact)
        publisher.record(keys=[fact.key], entities=[newcomer])
        publisher.publish()
        base_v2 = load_snapshot(tmp_path / "bundle").adjacency

        view_v2 = OverlayView(base_v2, personal)
        id_v2 = view_v2.dictionary.get(person)
        assert id_v2 >= base_v2.num_nodes > id_v1
        linked = personal.objects(person, INTERESTED)[0]
        row = {view_v2.dictionary[i] for i in view_v2.neighbor_id_rows()[id_v2]}
        assert linked in row

"""Tests for zero-copy snapshot persistence (save_snapshot/load_snapshot).

Covers the adopt-or-rebuild contract (stale store versions fall back to a
rebuild), corruption detection (truncated/flipped bytes and checksum
mismatches raise ``StoreError``, never garbage results), growth after
load (dictionary interning, context-index appends over a read-only mmap
base) and byte-identical parity of loaded vs rebuilt serving outputs.
"""

import json

import numpy as np
import pytest

from repro.annotation.alias_table import AliasTable, load_alias_state, save_alias_table
from repro.annotation.context_encoder import (
    EntityContextIndex,
    load_context_arrays,
    save_context_index,
)
from repro.annotation.pipeline import make_pipeline
from repro.common.errors import StoreError
from repro.common.snapshot_io import (
    SnapshotStaleError,
    load_arrays,
    pack_strings,
    unpack_strings,
    write_arrays,
)
from repro.kg.adjacency import AdjacencyIndex, build_csr, load_adjacency, save_adjacency
from repro.kg.encoding import Dictionary
from repro.kg.graph_engine import GraphEngine
from repro.kg.persistence import (
    SnapshotStore,
    load_snapshot,
    load_store,
    save_snapshot,
)
from repro.kg.store import EntityRecord, TripleStore
from repro.kg.triple import LiteralType, entity_fact, literal_fact


def small_store(num_entities: int = 12) -> TripleStore:
    store = TripleStore()
    for i in range(num_entities):
        store.upsert_entity(
            EntityRecord(
                entity=f"entity:n{i}",
                name=f"Node {i}",
                aliases=(f"N-{i}",),
                description=f"node number {i} of the test graph",
                popularity=float(i + 1),
            )
        )
    for i in range(num_entities):
        store.add(
            entity_fact(
                f"entity:n{i}", "predicate:linked_to", f"entity:n{(i + 3) % num_entities}"
            )
        )
        store.add(
            literal_fact(f"entity:n{i}", "predicate:size", i * 10, LiteralType.NUMBER)
        )
    return store


# -- snapshot_io primitives ---------------------------------------------------


def test_pack_strings_round_trip_unicode():
    strings = ["", "plain", "ünïcode — ✓", "a b c", "entity:q1"]
    blob, offsets = pack_strings(strings)
    assert unpack_strings(blob, offsets) == strings


def test_write_load_arrays_round_trip(tmp_path):
    arrays = {
        "a": np.arange(10, dtype=np.int64),
        "b": np.linspace(0, 1, 7, dtype=np.float64),
    }
    write_arrays(tmp_path, arrays, kind="test", store_version=5)
    manifest, loaded = load_arrays(tmp_path, kind="test", expected_store_version=5)
    assert manifest["store_version"] == 5
    for name in arrays:
        np.testing.assert_array_equal(np.asarray(loaded[name]), arrays[name])
    # mmap mode returns read-only maps
    assert not loaded["a"].flags.writeable


def test_load_arrays_stale_version_raises_stale(tmp_path):
    write_arrays(tmp_path, {"a": np.arange(3)}, kind="test", store_version=1)
    with pytest.raises(SnapshotStaleError):
        load_arrays(tmp_path, kind="test", expected_store_version=2)


def test_load_arrays_kind_mismatch(tmp_path):
    write_arrays(tmp_path, {"a": np.arange(3)}, kind="test", store_version=1)
    with pytest.raises(StoreError):
        load_arrays(tmp_path, kind="other")


def test_corrupted_array_raises_store_error(tmp_path):
    write_arrays(tmp_path, {"a": np.arange(64, dtype=np.int64)}, kind="test", store_version=1)
    path = tmp_path / "a.npy"
    raw = bytearray(path.read_bytes())
    raw[-5] ^= 0xFF  # flip a data byte: checksum must catch it
    path.write_bytes(bytes(raw))
    with pytest.raises(StoreError, match="checksum"):
        load_arrays(tmp_path, kind="test")


def test_truncated_array_raises_store_error(tmp_path):
    write_arrays(tmp_path, {"a": np.arange(64, dtype=np.int64)}, kind="test", store_version=1)
    path = tmp_path / "a.npy"
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(StoreError):
        load_arrays(tmp_path, kind="test")
    # even with checksums off, the shape/dtype guard refuses to serve it
    with pytest.raises(StoreError):
        load_arrays(tmp_path, kind="test", verify=False)


def test_missing_array_raises_store_error(tmp_path):
    write_arrays(tmp_path, {"a": np.arange(3)}, kind="test", store_version=1)
    (tmp_path / "a.npy").unlink()
    with pytest.raises(StoreError, match="missing"):
        load_arrays(tmp_path, kind="test")


# -- dictionary ----------------------------------------------------------------


def test_dictionary_round_trip_and_growth():
    dictionary = Dictionary(["alpha", "beta", "gamma — δ"])
    blob, offsets = dictionary.to_arrays()
    restored = Dictionary.from_arrays(blob, offsets)
    assert restored.strings() == dictionary.strings()
    assert restored.id_of("beta") == 1
    # growth after load: next dense id, lookup in both directions
    new_id = restored.intern("delta")
    assert new_id == 3
    assert restored.intern("delta") == 3  # idempotent
    assert restored.string_of(3) == "delta"
    assert restored.id_of("alpha") == 0
    assert len(restored) == 4


# -- adjacency -----------------------------------------------------------------


def test_adjacency_round_trip_identical(tmp_path):
    store = small_store()
    snapshot = build_csr(store)
    save_adjacency(snapshot, tmp_path)
    loaded = load_adjacency(tmp_path, expected_store_version=store.version)
    np.testing.assert_array_equal(np.asarray(loaded.indptr), snapshot.indptr)
    np.testing.assert_array_equal(np.asarray(loaded.indices), snapshot.indices)
    assert loaded.dictionary.strings() == snapshot.dictionary.strings()
    assert loaded.built_version == snapshot.built_version
    assert loaded.neighbors("entity:n0") == store.neighbors("entity:n0")


def test_adjacency_adopt_requires_current_version(tmp_path):
    store = small_store()
    snapshot = build_csr(store)
    save_adjacency(snapshot, tmp_path)
    loaded = load_adjacency(tmp_path)

    index = AdjacencyIndex(store)
    assert index.adopt(loaded)
    assert index.current() is loaded
    assert index.rebuild_count == 0

    # stale snapshot (store moved): adoption refused, rebuild happens
    store.add(entity_fact("entity:n0", "predicate:linked_to", "entity:n5"))
    assert not index.adopt(loaded)
    rebuilt = index.current()
    assert rebuilt is not loaded
    assert rebuilt.built_version == store.version


def test_engine_adopts_loaded_snapshot(tmp_path):
    store = small_store()
    reference = GraphEngine(store)
    seeds = sorted(store.entity_ids())
    expected = reference.random_walks(seeds, walk_length=6, walks_per_entity=2, seed=11)

    save_adjacency(reference.snapshot(), tmp_path)
    loaded = load_adjacency(tmp_path)
    engine = GraphEngine(store, snapshot=loaded)
    assert engine.snapshot() is loaded
    assert engine._adjacency.rebuild_count == 0
    walks = engine.random_walks(seeds, walk_length=6, walks_per_entity=2, seed=11)
    assert walks == expected


# -- context index -------------------------------------------------------------


def test_context_round_trip_bitwise_and_growth(tmp_path):
    store = small_store()
    index = EntityContextIndex(store)
    index.build()
    save_context_index(index, tmp_path)

    matrix, entities, version, extra = load_context_arrays(
        tmp_path, expected_store_version=store.version
    )
    adopted = EntityContextIndex(store)
    assert adopted.adopt(matrix, entities, version)
    assert extra["dim"] == index.encoder.dim
    for entity in store.entity_ids():
        np.testing.assert_array_equal(adopted.vector(entity), index.vector(entity))

    # growth over the read-only mmap base: new entity appends must copy,
    # not write through the map
    store.upsert_entity(
        EntityRecord(entity="entity:new", name="Newcomer", description="fresh")
    )
    vec = adopted.vector("entity:new")
    assert vec.shape == (index.encoder.dim,)
    np.testing.assert_array_equal(
        np.asarray(matrix), index._matrix.view()
    )  # base untouched


def test_context_adopt_requires_current_version(tmp_path):
    store = small_store()
    index = EntityContextIndex(store)
    index.build()
    save_context_index(index, tmp_path)
    matrix, entities, version, _ = load_context_arrays(tmp_path)

    store.add(entity_fact("entity:n1", "predicate:linked_to", "entity:n7"))
    fresh = EntityContextIndex(store)
    assert not fresh.adopt(matrix, entities, version)
    assert fresh.is_stale  # consumer will rebuild


def test_save_stale_context_index_refused(tmp_path):
    store = small_store()
    index = EntityContextIndex(store)
    index.build()
    store.add(entity_fact("entity:n2", "predicate:linked_to", "entity:n9"))
    with pytest.raises(StoreError):
        save_context_index(index, tmp_path)


# -- alias table ---------------------------------------------------------------


def test_alias_state_round_trip(tmp_path):
    store = small_store()
    table = AliasTable(store)
    save_alias_table(table, tmp_path)
    state, version, extra = load_alias_state(
        tmp_path, expected_store_version=store.version
    )
    adopted = AliasTable(store, refresh=False)
    assert adopted.adopt_state(state, version)
    assert not adopted.is_stale
    assert len(adopted) == len(table)
    assert adopted.lookup("Node 3") == table.lookup("Node 3")
    assert adopted.lookup_fuzzy("Nod 3") == table.lookup_fuzzy("Nod 3")
    assert adopted.trie == table.trie
    assert adopted.max_key_tokens() == table.max_key_tokens()
    assert extra["keys"] == len(table)


def test_alias_adopt_requires_current_version(tmp_path):
    store = small_store()
    table = AliasTable(store)
    save_alias_table(table, tmp_path)
    state, version, _ = load_alias_state(tmp_path)
    store.upsert_entity(EntityRecord(entity="entity:new", name="Newcomer"))
    adopted = AliasTable(store, refresh=False)
    assert not adopted.adopt_state(state, version)
    assert adopted.is_stale


def test_alias_corrupt_sidecar_raises(tmp_path):
    store = small_store()
    save_alias_table(AliasTable(store), tmp_path)
    path = tmp_path / "state.marshal"
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(StoreError, match="checksum"):
        load_alias_state(tmp_path)


# -- full bundle ---------------------------------------------------------------


def test_bundle_round_trip_parity(tmp_path):
    store = small_store(num_entities=20)
    save_snapshot(store, tmp_path)

    rebuilt_store = load_store(tmp_path)  # a bundle is a superset of a saved store
    rebuilt_engine = GraphEngine(rebuilt_store)
    seeds = sorted(rebuilt_store.entity_ids())
    expected_walks = rebuilt_engine.random_walks(
        seeds, walk_length=6, walks_per_entity=2, seed=5
    )
    rebuilt_pipe = make_pipeline(rebuilt_store, tier="full")

    snap = load_snapshot(tmp_path)
    assert snap.adjacency is not None
    assert snap.context is not None
    assert snap.alias is not None
    engine = snap.engine()
    walks = engine.random_walks(seeds, walk_length=6, walks_per_entity=2, seed=5)
    assert walks == expected_walks

    pipe = snap.annotation_pipeline(tier="full")
    text = "Node 3 talked to Node 7 about Node 11 and N-4."
    expected_links = rebuilt_pipe.annotate(text)
    links = pipe.annotate(text)
    assert [
        (link.mention.start, link.mention.end, link.entity, link.score)
        for link in links
    ] == [
        (link.mention.start, link.mention.end, link.entity, link.score)
        for link in expected_links
    ]


def test_bundle_lazy_facts_replay(tmp_path):
    store = small_store()
    save_snapshot(store, tmp_path)
    snap = load_snapshot(tmp_path)
    lazy = snap.store
    assert isinstance(lazy, SnapshotStore)
    assert not lazy._facts_loaded
    # entity surface never triggers the fact replay
    assert lazy.has_entity("entity:n0")
    assert lazy.entity("entity:n3").name == "Node 3"
    assert not lazy._facts_loaded
    # version is pinned to the bundle's saved store version
    assert lazy.version == store.version
    # first fact access replays transparently, without moving the version
    assert len(lazy) == len(store)
    assert lazy._facts_loaded
    assert lazy.version == store.version
    assert lazy.neighbors("entity:n0") == store.neighbors("entity:n0")


def test_bundle_mutation_after_load_invalidates_layers(tmp_path):
    store = small_store()
    save_snapshot(store, tmp_path)
    snap = load_snapshot(tmp_path)
    engine = snap.engine()
    assert engine.snapshot() is snap.adjacency
    assert engine._adjacency.rebuild_count == 0

    snap.store.add(entity_fact("entity:n1", "predicate:linked_to", "entity:n8"))
    rebuilt = engine.snapshot()  # adopted snapshot went stale
    assert rebuilt is not snap.adjacency
    assert engine._adjacency.rebuild_count == 1
    assert rebuilt.built_version == snap.store.version
    assert "entity:n8" in rebuilt.neighbors("entity:n1")


def test_bundle_stale_layer_falls_back_to_rebuild(tmp_path):
    store = small_store()
    save_snapshot(store, tmp_path)
    # Re-save the logical store after a mutation WITHOUT re-saving the
    # physical layers: their manifests now carry a stale store_version.
    store.add(entity_fact("entity:n0", "predicate:linked_to", "entity:n6"))
    from repro.kg.persistence import SNAPSHOT_MANIFEST, save_store

    save_store(store, tmp_path)
    manifest = json.loads((tmp_path / SNAPSHOT_MANIFEST).read_text())
    manifest["store_version"] = store.version
    (tmp_path / SNAPSHOT_MANIFEST).write_text(json.dumps(manifest))

    snap = load_snapshot(tmp_path)
    assert snap.adjacency is None
    assert snap.context is None
    assert snap.alias is None
    # consumers transparently rebuild from the live store
    engine = snap.engine()
    assert "entity:n6" in engine.snapshot().neighbors("entity:n0")
    pipe = snap.annotation_pipeline(tier="full")
    assert pipe.annotate("Node 2 met Node 5.")


def test_bundle_corruption_raises_not_garbage(tmp_path):
    store = small_store()
    save_snapshot(store, tmp_path)
    path = tmp_path / "adjacency" / "indices.npy"
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x42
    path.write_bytes(bytes(raw))
    with pytest.raises(StoreError, match="checksum"):
        load_snapshot(tmp_path)


def test_bundle_missing_manifest(tmp_path):
    with pytest.raises(StoreError, match="snapshot"):
        load_snapshot(tmp_path)


def test_truncated_fact_log_keeps_raising_not_partial(tmp_path):
    store = small_store()
    save_snapshot(store, tmp_path)
    facts_path = tmp_path / "facts.jsonl"
    raw = facts_path.read_text().splitlines(keepends=True)
    facts_path.write_text("".join(raw[: len(raw) // 2]) + '{"broken')  # truncate mid-record

    snap = load_snapshot(tmp_path)
    with pytest.raises(Exception):
        len(snap.store)
    # a second access must raise again, never serve the partial prefix
    with pytest.raises(Exception):
        list(snap.store.scan())


def test_growable_append_after_empty_adopt():
    from repro.common.growable import GrowableMatrix

    matrix = GrowableMatrix(dtype=np.float64)
    matrix.adopt(np.zeros((0, 4), dtype=np.float64))
    matrix.append(np.ones(4, dtype=np.float64))
    assert len(matrix) == 1
    np.testing.assert_array_equal(matrix.view()[0], np.ones(4))


def test_make_pipeline_refreshes_stale_alias_table():
    store = small_store()
    table = AliasTable(store, refresh=False)
    assert table.is_stale
    pipe = make_pipeline(store, tier="lite", alias_table=table)
    assert not table.is_stale
    assert pipe.annotate("Node 4 visited Node 9.")


def test_alias_fuzzy_threshold_restored(tmp_path):
    store = small_store()
    save_snapshot(store, tmp_path, alias_table=AliasTable(store, fuzzy_threshold=0.9))
    snap = load_snapshot(tmp_path)
    assert snap.alias_table().fuzzy_threshold == 0.9
    assert snap.alias_table(fuzzy_threshold=0.5).fuzzy_threshold == 0.5


def test_context_neighbor_limit_restored(tmp_path):
    store = small_store()
    index = EntityContextIndex(store, neighbor_limit=3)
    index.build()
    save_snapshot(store, tmp_path, context_index=index)
    snap = load_snapshot(tmp_path)
    assert snap.context_index().neighbor_limit == 3


def test_missing_marshal_sidecar_spec_is_corrupt(tmp_path):
    store = small_store()
    save_alias_table(AliasTable(store), tmp_path)
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["sidecar"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="sidecar spec"):
        load_alias_state(tmp_path)


def test_dictionary_grown_after_bundle_load(tmp_path):
    store = small_store()
    save_snapshot(store, tmp_path)
    snap = load_snapshot(tmp_path)
    dictionary = snap.adjacency.dictionary
    size = len(dictionary)
    new_id = dictionary.intern("entity:brand_new")
    assert new_id == size
    assert dictionary.string_of(new_id) == "entity:brand_new"
    assert dictionary.id_of("entity:brand_new") == new_id

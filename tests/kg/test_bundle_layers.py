"""One contract for every registered bundle layer (``persistence.LAYERS``).

Per layer: a save/load round trip equals a fresh build; a stale
``store_version`` loads as ``None`` and the layer's consumer rebuilds; a
flipped byte, a truncated file and a listed-but-missing directory raise
``StoreError``; an unlisted directory is ignored; a differ's payload,
folded by ``apply``, is stamped at the store's version and reflects the
change.
"""

import json
import shutil

import numpy as np
import pytest

from repro.annotation.alias_table import AliasTable
from repro.annotation.context_encoder import EntityContextIndex
from repro.common.errors import StoreError
from repro.embeddings.suite import TRAINED, EmbeddingSuiteConfig, build_embedding_suite
from repro.kg import SyntheticKGConfig, generate_kg
from repro.kg.adjacency import build_csr
from repro.kg.persistence import LAYERS, SNAPSHOT_MANIFEST, load_snapshot, save_snapshot


@pytest.fixture(scope="module")
def world():
    store = generate_kg(SyntheticKGConfig(seed=5, scale=0.05)).store
    config = EmbeddingSuiteConfig()
    return store, config, build_embedding_suite(store, config)


@pytest.fixture(scope="module")
def saved(world, tmp_path_factory):
    store, config, suite = world
    directory = tmp_path_factory.mktemp("bundle")
    manifest = save_snapshot(store, directory, embedding_suite=suite, embedding_config=config)
    assert manifest["layers"] == list(LAYERS)
    return directory


@pytest.fixture()
def bundle(saved, tmp_path):
    copy = tmp_path / "bundle"
    shutil.copytree(saved, copy)
    return copy


def _adjacency_equal(world, state):
    store = world[0]
    full = build_csr(store)
    assert state.built_version == store.version
    assert list(state.dictionary.strings()) == list(full.dictionary.strings())
    np.testing.assert_array_equal(state.indptr, full.indptr)
    np.testing.assert_array_equal(state.indices, full.indices)


def _context_equal(world, state):
    store = world[0]
    index = EntityContextIndex(store)
    index.build()
    matrix, entities, version, extra = state
    assert version == store.version
    assert entities == index.row_entities()
    assert extra["dim"] == index.encoder.dim
    np.testing.assert_array_equal(matrix, np.stack([index.vector(e) for e in entities]))


def _alias_equal(world, state):
    store = world[0]
    table = AliasTable(store)
    persisted, version, extra = state
    assert version == store.version
    assert persisted == table.state()
    assert extra["keys"] == len(table)


def _embeddings_equal(world, layer):
    store, config, suite = world
    assert layer.store_version == store.version
    assert layer.extra["recipe"] == config.recipe()
    np.testing.assert_array_equal(layer.arrays["entity_emb"], suite.trained.model.entity_emb)
    np.testing.assert_array_equal(
        layer.arrays["relation_emb"], suite.trained.model.relation_emb
    )


ROUND_TRIPS = {
    "adjacency": _adjacency_equal,
    "context": _context_equal,
    "alias": _alias_equal,
    "embeddings": _embeddings_equal,
}


def _adjacency_rebuilds(world, snapshot):
    rebuilt = snapshot.engine().snapshot()
    _adjacency_equal(world, rebuilt)


def _context_rebuilds(world, snapshot):
    store = world[0]
    index = snapshot.context_index()
    fresh = EntityContextIndex(store)
    for entity in store.entity_ids()[:10]:
        np.testing.assert_array_equal(index.vector(entity), fresh.vector(entity))


def _alias_rebuilds(world, snapshot):
    table = snapshot.alias_table()
    assert not table.is_stale
    assert table.state() == AliasTable(world[0]).state()


def _embeddings_rebuild(world, snapshot):
    assert snapshot.embedding_suite(world[1]).source == TRAINED


CONSUMERS = {
    "adjacency": _adjacency_rebuilds,
    "context": _context_rebuilds,
    "alias": _alias_rebuilds,
    "embeddings": _embeddings_rebuild,
}


NEW_ENTITY = "entity:contract/newcomer"


def _adjacency_folds(store, base, folded, payload, anchor):
    node = folded.dictionary.get(anchor)
    neighbours = {folded.dictionary.string_of(int(i)) for i in folded.neighbors_of(node)}
    assert neighbours == store.neighbors(anchor)
    assert NEW_ENTITY in folded.dictionary


def _context_folds(store, base, folded, payload, anchor):
    matrix, entities, _version, _extra = folded
    np.testing.assert_array_equal(
        matrix[entities.index(anchor)], EntityContextIndex(store).vector(anchor)
    )


def _alias_folds(store, base, folded, payload, anchor):
    assert folded[0] == AliasTable(store).state()


def _embeddings_folds(store, base, folded, payload, anchor):
    from repro.common.snapshot_io import unpack_strings

    arrays, before = folded.arrays, base.arrays
    entities = unpack_strings(arrays["entity_blob"], arrays["entity_offsets"])
    assert entities == [
        *unpack_strings(before["entity_blob"], before["entity_offsets"]),
        NEW_ENTITY,
    ]
    rows = np.asarray(payload.arrays["rows"])
    assert {entities[row] for row in rows} == {anchor, NEW_ENTITY}
    frozen = np.setdiff1d(np.arange(len(before["entity_emb"])), rows)
    np.testing.assert_array_equal(arrays["entity_emb"][frozen], before["entity_emb"][frozen])
    assert not np.array_equal(arrays["entity_emb"][rows[0]], before["entity_emb"][rows[0]])
    relations = len(before["relation_emb"])  # the new predicate appends one row
    np.testing.assert_array_equal(arrays["relation_emb"][:relations], before["relation_emb"])
    assert folded.extra == base.extra  # recipe and calibration stay frozen
    assert len(entities) - 1 in set(arrays["knn_postings_indices"].tolist())


FOLDS = {
    "adjacency": _adjacency_folds,
    "context": _context_folds,
    "alias": _alias_folds,
    "embeddings": _embeddings_folds,
}


def test_every_registered_layer_is_covered():
    assert set(ROUND_TRIPS) == set(LAYERS) == set(CONSUMERS) == set(FOLDS)


@pytest.mark.parametrize("name", list(LAYERS))
def test_diff_then_apply_reflects_the_change(saved, name):
    from repro.kg.triple import entity_fact

    store = generate_kg(SyntheticKGConfig(seed=5, scale=0.05)).store  # a mutable copy
    base = getattr(load_snapshot(saved), name)
    differ = LAYERS[name].diff(store, base)
    anchor = sorted(load_snapshot(saved).embedding_suite().trained.dataset.entities)[0]
    fact = store.add(entity_fact(anchor, "predicate:related_to", NEW_ENTITY))
    payload, _commit = differ.diff([fact.key], [])
    assert payload.store_version == store.version
    assert LAYERS[name].apply(base, []) is base
    folded = LAYERS[name].apply(base, [payload])
    FOLDS[name](store, base, folded, payload, anchor)


def _largest_file(layer_dir):
    files = [path for path in layer_dir.iterdir() if path.name != "manifest.json"]
    return max(files, key=lambda path: path.stat().st_size)


@pytest.mark.parametrize("name", list(LAYERS))
class TestLayerContract:
    def test_round_trip_equals_fresh_build(self, world, saved, name):
        snapshot = load_snapshot(saved)
        ROUND_TRIPS[name](world, getattr(snapshot, name))
        # The registry's own loader returns the same state.
        state = LAYERS[name].load(
            saved / name, expected_store_version=world[0].version, mmap=True, verify=True
        )
        ROUND_TRIPS[name](world, state)

    def test_stale_layer_loads_none_and_consumer_rebuilds(self, world, bundle, name):
        manifest_path = bundle / name / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["store_version"] -= 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        snapshot = load_snapshot(bundle)
        assert getattr(snapshot, name) is None
        for other in LAYERS:
            if other != name:
                assert getattr(snapshot, other) is not None, other
        CONSUMERS[name](world, snapshot)

    def test_flipped_byte_raises(self, bundle, name):
        target = _largest_file(bundle / name)
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(StoreError):
            load_snapshot(bundle)

    @pytest.mark.parametrize("verify", [True, False])
    def test_truncated_file_raises(self, bundle, name, verify):
        target = _largest_file(bundle / name)
        raw = target.read_bytes()
        target.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(StoreError):
            load_snapshot(bundle, verify=verify)

    def test_listed_but_missing_layer_raises(self, bundle, name):
        shutil.rmtree(bundle / name)
        with pytest.raises(StoreError):
            load_snapshot(bundle)

    def test_unlisted_layer_directory_is_ignored(self, bundle, name):
        manifest_path = bundle / SNAPSHOT_MANIFEST
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["layers"].remove(name)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        snapshot = load_snapshot(bundle)
        assert getattr(snapshot, name) is None


def test_old_layout_chain_raises_not_mismerges(tmp_path):
    """A format-1 chain (one flat ``delta`` array directory per generation)
    must fail loudly rather than fold as if it were the current layout."""
    from repro.common.snapshot_io import pack_strings, write_arrays
    from repro.kg.deltas import CHAIN_NAME, GenerationPublisher
    from repro.kg.triple import entity_fact

    store = generate_kg(SyntheticKGConfig(seed=5, scale=0.05)).store
    bundle = tmp_path / "bundle"
    publisher = GenerationPublisher(store, bundle)
    a, b = store.entity_ids()[:2]
    fact = store.add(entity_fact(a, "predicate:related_to", b))
    publisher.record(keys=[fact.key])
    info = publisher.publish()

    # Rewrite the generation the way the format-1 publisher laid it out.
    shutil.rmtree(info.directory)
    blob, offsets = pack_strings([])
    write_arrays(
        info.directory,
        {"new_blob": blob, "new_offsets": offsets},
        kind="delta",
        store_version=info.store_version,
        extra={"seq": info.seq, "parent_version": info.parent_version},
    )
    chain_path = bundle / CHAIN_NAME
    chain = json.loads(chain_path.read_text(encoding="utf-8"))
    chain["format_version"] = 1
    chain_path.write_text(json.dumps(chain), encoding="utf-8")
    with pytest.raises(StoreError, match="chain format"):
        load_snapshot(bundle)

    # Even relabelled as the current format, the flat layout is refused.
    chain["format_version"] = 2
    chain_path.write_text(json.dumps(chain), encoding="utf-8")
    with pytest.raises(StoreError, match="missing delta"):
        load_snapshot(bundle)

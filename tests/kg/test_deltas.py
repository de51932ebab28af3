"""Delta-chain bundles: publish/merge parity, edge cases, crash safety."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.annotation.alias_table import AliasTable
from repro.annotation.context_encoder import EntityContextIndex
from repro.common import ids
from repro.common.errors import StoreError
from repro.kg import SyntheticKGConfig, generate_kg
from repro.kg.adjacency import build_csr
from repro.kg.deltas import (
    CHAIN_NAME,
    SITE_PUBLISH_CHAIN,
    SITE_PUBLISH_DELTA,
    GenerationPublisher,
    published_version,
    read_chain,
)
from repro.kg.persistence import load_snapshot, save_snapshot
from repro.embeddings.suite import ADOPTED
from repro.kg.store import EntityRecord, TripleStore
from repro.kg.triple import LiteralType, entity_fact, literal_fact
from repro.serving.faults import FaultPlan, FaultSpec, InjectedCrash, armed
from repro.serving.service import ServingService

RELATED = ids.predicate_id("related_to")
NOTE = ids.predicate_id("note")


@pytest.fixture()
def world(tmp_path):
    """A small fresh KG (mutable per test) plus its publisher bundle."""
    kg = generate_kg(SyntheticKGConfig(seed=11, scale=0.05))
    publisher = GenerationPublisher(kg.store, tmp_path / "bundle")
    return kg.store, publisher, tmp_path / "bundle"


def _mutate(store, round_no: int) -> list[tuple[str, str, str]]:
    """Apply one round of mixed mutations; returns the touched keys."""
    entity_ids = store.entity_ids()
    a, b, c = (
        entity_ids[round_no % len(entity_ids)],
        entity_ids[(round_no * 3 + 1) % len(entity_ids)],
        entity_ids[(round_no * 7 + 2) % len(entity_ids)],
    )
    facts = [
        entity_fact(a, RELATED, b, confidence=0.9, sources=("live",), updated_at=1.0 + round_no),
        literal_fact(c, NOTE, f"note {round_no}", LiteralType.STRING, confidence=0.8, sources=("live",), updated_at=1.0 + round_no),
    ]
    for fact in facts:
        store.add(fact)
    return [fact.key for fact in facts]


def _rows(csr, node):
    node_id = csr.dictionary.get(node)
    if node_id is None:
        return set()
    return {csr.dictionary.string_of(int(i)) for i in csr.neighbors_of(node_id)}


def _assert_full_parity(store, bundle):
    """Chain-loaded snapshot == from-scratch rebuild, layer by layer."""
    snapshot = load_snapshot(bundle)
    assert snapshot.manifest["store_version"] == store.version

    # Logical store: identical facts with identical metadata.
    chain_facts = {fact.key: fact for fact in snapshot.store.scan()}
    live_facts = {fact.key: fact for fact in store.scan()}
    assert chain_facts == live_facts
    assert set(snapshot.store.entity_ids()) == set(store.entity_ids())

    # Adjacency: every row matches a full rebuild.
    full = build_csr(store)
    merged = snapshot.adjacency
    assert merged is not None and merged.built_version == store.version
    assert merged.num_edges == full.num_edges
    for node in full.dictionary.strings():
        assert _rows(full, node) == _rows(merged, node), node

    # Context: numerically identical vectors per entity.
    index = EntityContextIndex(store)
    index.build()
    matrix, entities, version, _extra = snapshot.context
    assert version == store.version
    assert sorted(entities) == sorted(store.entity_ids())
    row_of = {entity: i for i, entity in enumerate(entities)}
    for entity in store.entity_ids():
        np.testing.assert_array_equal(matrix[row_of[entity]], index.vector(entity))

    # Alias: bitwise-equal state versus a full refresh.
    fresh = AliasTable(store).state()
    state, alias_version, _extra = snapshot.alias
    assert alias_version == store.version
    assert set(state["exact"]) == set(fresh["exact"])
    for key, entries in fresh["exact"].items():
        assert [tuple(e) for e in state["exact"][key]] == [tuple(e) for e in entries], key
    assert state["trie"] == fresh["trie"]
    assert set(state["key_grams"]) == set(fresh["key_grams"])
    for key, grams in fresh["key_grams"].items():
        assert dict(state["key_grams"][key]) == dict(grams), key
    return snapshot


class TestPublishParity:
    def test_streamed_generations_match_full_rebuild(self, world):
        store, publisher, bundle = world
        for round_no in range(3):
            publisher.record(keys=_mutate(store, round_no))
            info = publisher.publish()
            assert info is not None
            assert info.store_version == store.version
        assert publisher.chain_length == 3
        _assert_full_parity(store, bundle)

    def test_new_entity_and_record_update(self, world):
        store, publisher, bundle = world
        new = EntityRecord(
            entity=ids.entity_id("fresh_e1"),
            name="Freshly Added",
            aliases=("The Fresh One",),
            types=("type:person",),
            description="a brand new entity",
            popularity=0.7,
        )
        store.upsert_entity(new)
        anchor = store.entity_ids()[0]
        fact = entity_fact(new.entity, RELATED, anchor, confidence=1.0, sources=("live",), updated_at=9.0)
        store.add(fact)
        publisher.record(keys=[fact.key], entities=[new.entity])
        assert publisher.publish() is not None
        snapshot = _assert_full_parity(store, bundle)
        state, _v, _e = snapshot.alias
        assert any("freshly" in key for key in state["exact"])

        # Second generation: rename an existing entity (alias keys move).
        record = store.entity(anchor)
        renamed = EntityRecord(
            entity=record.entity,
            name=record.name + " Jr",
            aliases=record.aliases,
            types=record.types,
            description=record.description,
            popularity=record.popularity,
        )
        store.upsert_entity(renamed)
        publisher.record(entities=[anchor])
        assert publisher.publish() is not None
        _assert_full_parity(store, bundle)

    def test_publish_without_changes_returns_none(self, world):
        store, publisher, _bundle = world
        assert publisher.publish() is None
        # Recorded keys but no actual store mutation: still a no-op.
        publisher.record(keys=[(store.entity_ids()[0], RELATED, store.entity_ids()[1])])
        assert publisher.publish() is None
        assert publisher.pending == 0

    def test_published_version_tracks_tip(self, world):
        store, publisher, bundle = world
        assert published_version(bundle) == publisher.tip_version == store.version
        publisher.record(keys=_mutate(store, 0))
        publisher.publish()
        assert published_version(bundle) == store.version

    def test_adopts_pre_chain_bundle(self, tmp_path):
        kg = generate_kg(SyntheticKGConfig(seed=3, scale=0.05))
        bundle = tmp_path / "plain"
        save_snapshot(kg.store, bundle, layers=("adjacency", "context", "alias"))
        assert not (bundle / CHAIN_NAME).exists()
        publisher = GenerationPublisher(kg.store, bundle)
        assert (bundle / CHAIN_NAME).exists()
        publisher.record(keys=_mutate(kg.store, 1))
        assert publisher.publish() is not None
        _assert_full_parity(kg.store, bundle)


class TestDeltaEdgeCases:
    def test_delete_then_readd_row(self, world):
        store, publisher, bundle = world
        victim = next(iter(store.scan()))
        store.remove(*victim.key)
        publisher.record(keys=[victim.key])
        publisher.publish()
        snapshot = load_snapshot(bundle)
        assert snapshot.store.get(*victim.key) is None

        # Re-add the same key with brand new metadata: the chain must
        # serve the re-added fact, not a merge with the deleted one.
        readded = victim.with_metadata(confidence=0.42, sources=("readd",), updated_at=99.0)
        store.add(readded)
        publisher.record(keys=[readded.key])
        publisher.publish()
        snapshot = _assert_full_parity(store, bundle)
        served = snapshot.store.get(*readded.key)
        assert served.confidence == 0.42
        assert served.sources == ("readd",)

        # Delete-then-readd inside one generation collapses to the end state.
        store.remove(*readded.key)
        final = readded.with_metadata(confidence=0.9, sources=("final",), updated_at=100.0)
        store.add(final)
        publisher.record(keys=[final.key])
        publisher.publish()
        snapshot = load_snapshot(bundle)
        assert snapshot.store.get(*final.key).sources == ("final",)
        _assert_full_parity(store, bundle)

    def test_chain_longer_than_compaction_threshold(self, tmp_path):
        kg = generate_kg(SyntheticKGConfig(seed=11, scale=0.05))
        publisher = GenerationPublisher(
            kg.store, tmp_path / "bundle", compact_every=3
        )
        infos = []
        for round_no in range(4):
            publisher.record(keys=_mutate(kg.store, round_no))
            infos.append(publisher.publish())
            # Compaction runs off the publish path; drain it so each
            # round observes a settled chain.
            assert publisher.join_compaction(timeout=30.0)
        # The third publish crossed the threshold and scheduled the fold.
        assert infos[2].compacted
        assert not infos[3].compacted
        assert publisher.chain_length == 1
        chain = read_chain(tmp_path / "bundle")
        assert chain["compactions"] == 1
        assert chain["base"].startswith("bases/")
        _assert_full_parity(kg.store, tmp_path / "bundle")

    def test_stale_delta_manifest_silently_rebuilds(self, world):
        store, publisher, bundle = world
        publisher.record(keys=_mutate(store, 0))
        info = publisher.publish()
        manifest_path = info.directory / "snapshot.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["store_version"] = manifest["store_version"] - 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

        snapshot = load_snapshot(bundle)
        # Physical overlays dropped, logical replay intact: consumers
        # rebuild from the store, the adopt-or-rebuild contract.
        assert snapshot.adjacency is None
        assert snapshot.context is None
        assert snapshot.alias is None
        assert {f.key for f in snapshot.store.scan()} == {f.key for f in store.scan()}
        engine = snapshot.engine()
        rebuilt = engine.snapshot()
        assert rebuilt.built_version == store.version

    def test_corrupt_delta_array_raises(self, world):
        store, publisher, bundle = world
        publisher.record(keys=_mutate(store, 0))
        info = publisher.publish()
        target = info.directory / "adjacency" / "changed_nodes.npy"
        target.write_bytes(target.read_bytes()[:-4] + b"\xff\xff\xff\xff")
        with pytest.raises(StoreError):
            load_snapshot(bundle)

    def test_broken_chain_linkage_raises(self, world):
        store, publisher, bundle = world
        publisher.record(keys=_mutate(store, 0))
        publisher.publish()
        chain_path = bundle / CHAIN_NAME
        chain = json.loads(chain_path.read_text(encoding="utf-8"))
        chain["deltas"][0]["parent_version"] += 5
        chain_path.write_text(json.dumps(chain), encoding="utf-8")
        with pytest.raises(StoreError, match="linkage"):
            load_snapshot(bundle)

    def test_chain_referencing_missing_delta_raises(self, world):
        store, publisher, bundle = world
        publisher.record(keys=_mutate(store, 0))
        info = publisher.publish()
        import shutil

        shutil.rmtree(info.directory)
        with pytest.raises(StoreError, match="missing delta"):
            load_snapshot(bundle)

    def test_corrupt_chain_json_raises(self, world):
        _store, publisher, bundle = world
        (bundle / CHAIN_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(StoreError, match="chain"):
            load_snapshot(bundle)


class TestCrashSafety:
    @pytest.mark.parametrize("site", [SITE_PUBLISH_DELTA, SITE_PUBLISH_CHAIN])
    def test_crash_mid_publish_never_serves_half_generation(self, world, site):
        store, publisher, bundle = world
        tip_before = publisher.tip_version
        publisher.record(keys=_mutate(store, 0))
        plan = FaultPlan(
            specs=[FaultSpec(site=site, kind="crash", at_calls=(1,))], seed=5
        )
        with armed(plan):
            with pytest.raises(InjectedCrash):
                publisher.publish()

        # Readers still load the previous generation, fully intact.
        assert published_version(bundle) == tip_before
        snapshot = load_snapshot(bundle)
        assert snapshot.manifest["store_version"] == tip_before
        assert snapshot.adjacency is not None

        # The pending set survived: a clean retry publishes everything.
        assert publisher.pending > 0
        info = publisher.publish()
        assert info is not None and info.store_version == store.version
        _assert_full_parity(store, bundle)

    def test_publish_does_not_import_serving(self, tmp_path):
        """No plan can be armed without importing repro.serving.faults, so a
        publishing process that never did must not pay for importing the
        serving package at its fault sites."""
        script = (
            "import sys\n"
            "from repro.kg import SyntheticKGConfig, generate_kg\n"
            "from repro.kg.deltas import GenerationPublisher\n"
            "from repro.kg.triple import entity_fact\n"
            "store = generate_kg(SyntheticKGConfig(seed=11, scale=0.05)).store\n"
            f"publisher = GenerationPublisher(store, {str(tmp_path / 'bundle')!r})\n"
            "a, b = sorted(store.entity_ids())[:2]\n"
            f"fact = entity_fact(a, {RELATED!r}, b, confidence=0.9)\n"
            "store.add(fact)\n"
            "publisher.record(keys=[fact.key])\n"
            "assert publisher.publish() is not None\n"
            "assert 'repro.serving' not in sys.modules, sorted(\n"
            "    m for m in sys.modules if m.startswith('repro.serving'))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        result = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=False, timeout=120,
        )
        assert result.returncode == 0, result.stderr


def _grow_embeddings(store, publisher, generation: int) -> None:
    """One of three generations: new edges, then a new entity, then the
    removal of every entity-valued fact of one entity."""
    entity_ids = sorted(store.entity_ids())
    if generation == 1:
        new = EntityRecord(entity=ids.entity_id("grown_e1"), name="Grown One")
        store.upsert_entity(new)
        facts = [entity_fact(new.entity, RELATED, entity_ids[0], confidence=0.9)]
        entities = [new.entity]
    elif generation == 2:
        victim = entity_ids[-1]
        keys = [f.key for f in store.scan(subject=victim)] + [f.key for f in store.scan(obj=victim)]
        for key in keys:
            store.remove(*key)
        publisher.record(keys=keys)
        assert publisher.publish() is not None
        return
    else:
        facts = [entity_fact(entity_ids[i], RELATED, entity_ids[i + 7]) for i in range(5)]
        entities = []
    for fact in facts:
        store.add(fact)
    publisher.record(keys=[fact.key for fact in facts], entities=entities)
    assert publisher.publish() is not None


def _grown_chain(directory):
    kg = generate_kg(SyntheticKGConfig(seed=11, scale=0.05))
    publisher = GenerationPublisher(kg.store, directory, compact_every=0)
    for generation in range(3):
        _grow_embeddings(kg.store, publisher, generation)
    return kg.store, publisher


class TestEmbeddingsOnChains:
    """A chain's embedding answers equal a replay of its base plus its
    deltas, and compaction keeps them."""

    def test_chain_equals_replay_and_survives_compaction(self, tmp_path):
        store, publisher = _grown_chain(tmp_path / "bundle")
        _replay_store, _ = _grown_chain(tmp_path / "replay")
        folded = load_snapshot(tmp_path / "bundle").embeddings
        replayed = load_snapshot(tmp_path / "replay").embeddings
        assert folded is not None and folded.store_version == store.version
        assert set(folded.arrays) == set(replayed.arrays)
        for name, array in folded.arrays.items():
            np.testing.assert_array_equal(array, replayed.arrays[name], err_msg=name)

        # The new entity got a row and sits in the kNN postings; the
        # removed one kept its row but left them.
        with ServingService(tmp_path / "bundle", mode="inline") as service:
            suite = service._pool.local_state.embedding_suite()
            assert suite.source == ADOPTED
            dataset = suite.trained.dataset
            grown = ids.entity_id("grown_e1")
            victim = sorted(store.entity_ids())[-1]
            assert dataset.entities[-1] == grown
            assert victim in dataset.entity_index
            postings = set(np.asarray(folded.arrays["knn_postings_indices"]).tolist())
            assert dataset.entity_index[grown] in postings
            assert dataset.entity_index[victim] not in postings
            hits = suite.embedding_service.knn_many([grown], k=len(dataset.entities))[0]
            assert victim not in {hit.key for hit in hits}

        kept = {name: np.array(array) for name, array in folded.arrays.items()}
        publisher.compact()
        compacted = load_snapshot(tmp_path / "bundle")
        assert compacted.manifest.get("chain", {}).get("deltas", 0) == 0
        for name, array in compacted.embeddings.arrays.items():
            np.testing.assert_array_equal(array, kept[name], err_msg=name)
        assert compacted.embedding_suite().source == ADOPTED

    def test_compaction_publishes_pending_changes_first(self, tmp_path):
        store, publisher = _grown_chain(tmp_path / "bundle")
        entity_ids = sorted(store.entity_ids())
        fact = store.add(entity_fact(entity_ids[1], RELATED, entity_ids[9]))
        publisher.record(keys=[fact.key])
        publisher.compact()
        _replay, replay = _grown_chain(tmp_path / "replay")
        _replay.add(entity_fact(entity_ids[1], RELATED, entity_ids[9]))
        replay.record(keys=[fact.key])
        replay.publish()
        compacted = load_snapshot(tmp_path / "bundle").embeddings
        replayed = load_snapshot(tmp_path / "replay").embeddings
        for name, array in compacted.arrays.items():
            np.testing.assert_array_equal(array, replayed.arrays[name], err_msg=name)

    def test_store_without_entity_facts_publishes(self, tmp_path):
        """No entity-valued fact: no embeddings layer, and the chain still
        opens, publishes and compacts without it."""
        store = TripleStore(name="literal-only")
        record = EntityRecord(entity=ids.entity_id("lonely"), name="Lonely")
        store.upsert_entity(record)
        store.add(literal_fact(record.entity, NOTE, "first", LiteralType.STRING))
        publisher = GenerationPublisher(store, tmp_path / "bundle")
        fact = store.add(literal_fact(record.entity, NOTE, "second", LiteralType.STRING))
        publisher.record(keys=[fact.key])
        assert publisher.publish() is not None
        snapshot = load_snapshot(tmp_path / "bundle")
        assert "embeddings" not in snapshot.manifest["layers"]
        assert snapshot.adjacency is not None
        assert publisher.compact().compacted
        assert publisher.chain_length == 0

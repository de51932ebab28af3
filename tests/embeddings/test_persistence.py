"""Tests for the persisted embedding bundle layer (adopt-or-rebuild)."""

import json

import numpy as np
import pytest

from repro.common.errors import StoreError
from repro.common.snapshot_io import load_payload
from repro.embeddings.persistence import (
    adopt_embedding_suite,
    load_embedding_layer,
    save_embeddings,
)
from repro.embeddings.suite import (
    ADOPTED,
    TRAINED,
    EmbeddingSuiteConfig,
    build_embedding_suite,
)
from repro.kg.generator import SyntheticKGConfig, generate_kg
from repro.kg.persistence import EMBEDDINGS_DIR, load_snapshot, save_snapshot
from repro.kg.store import TripleStore
from repro.kg.triple import entity_fact
from repro.vector.index import ExactIndex, IVFIndex, recall_at_k


@pytest.fixture(scope="module")
def kg():
    return generate_kg(SyntheticKGConfig(seed=11, scale=0.1))


@pytest.fixture(scope="module")
def config():
    return EmbeddingSuiteConfig()


@pytest.fixture(scope="module")
def built(kg, config):
    return build_embedding_suite(kg.store, config)


@pytest.fixture(scope="module")
def bundle(kg, config, built, tmp_path_factory):
    directory = tmp_path_factory.mktemp("embeddings-bundle")
    save_snapshot(kg.store, directory, embedding_suite=built, embedding_config=config)
    return directory


def _sample_entities(suite, n=10):
    return suite.trained.dataset.entities[:n]


def _sample_candidates(store, suite, n=20):
    out = []
    for fact in store.scan():
        if suite.trained.has_entity(fact.subject) and suite.trained.has_entity(fact.obj):
            out.append((fact.subject, fact.predicate, fact.obj))
            if len(out) == n:
                break
    return out


class TestRoundTrip:
    def test_layer_in_bundle_manifest(self, bundle):
        manifest = json.loads((bundle / "snapshot.json").read_text())
        assert EMBEDDINGS_DIR in manifest["layers"]

    def test_adopted_suite_is_byte_identical(self, kg, config, built, bundle):
        snapshot = load_snapshot(bundle)
        assert snapshot.embeddings is not None
        adopted = snapshot.embedding_suite(config)
        assert adopted.source == ADOPTED

        entities = _sample_entities(built)
        pairs = [(a, b) for a in entities[:5] for b in entities[5:10]]
        assert adopted.embedding_service.batch_similarity(
            pairs
        ) == built.embedding_service.batch_similarity(pairs)

        candidates = _sample_candidates(kg.store, built)
        adopted_verdicts = adopted.verifier.verify_batch(candidates)
        built_verdicts = built.verifier.verify_batch(candidates)
        assert [(v.score, v.plausible, v.margin) for v in adopted_verdicts] == [
            (v.score, v.plausible, v.margin) for v in built_verdicts
        ]

        adopted_knn = adopted.embedding_service.knn_many(entities, k=5)
        built_knn = built.embedding_service.knn_many(entities, k=5)
        assert [[(h.key, h.score) for h in hits] for hits in adopted_knn] == [
            [(h.key, h.score) for h in hits] for hits in built_knn
        ]

        predicate = next(iter(kg.store.predicates()))
        assert repr(adopted.ranker.rank_many(entities[:5], predicate)) == repr(
            built.ranker.rank_many(entities[:5], predicate)
        )

    def test_threshold_persisted_not_recalibrated(self, config, built, bundle):
        snapshot = load_snapshot(bundle)
        adopted = snapshot.embedding_suite(config)
        assert adopted.verifier.is_calibrated
        assert adopted.verifier.calibration.threshold == built.verifier.calibration.threshold
        assert adopted.verifier.calibration.auc == built.verifier.calibration.auc

    def test_adopted_model_arrays_are_memory_mapped(self, config, bundle):
        snapshot = load_snapshot(bundle)
        adopted = snapshot.embedding_suite(config)
        assert isinstance(adopted.trained.model.entity_emb, np.memmap)
        assert not adopted.trained.model.entity_emb.flags.writeable

    def test_adopted_index_is_trained_ivf(self, config, bundle):
        snapshot = load_snapshot(bundle)
        adopted = snapshot.embedding_suite(config)
        index = adopted.embedding_service.index
        assert isinstance(index, IVFIndex)
        assert index.is_trained


class TestAdoptOrRebuild:
    def test_stale_store_version_silently_retrains(self, kg, config, built, tmp_path):
        save_snapshot(
            kg.store, tmp_path, embedding_suite=built, embedding_config=config
        )
        manifest_path = tmp_path / EMBEDDINGS_DIR / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["store_version"] += 7
        manifest_path.write_text(json.dumps(manifest))
        snapshot = load_snapshot(tmp_path)
        assert snapshot.embeddings is None  # dropped, not an error
        suite = snapshot.embedding_suite(config)
        assert suite.source == TRAINED

    def test_recipe_mismatch_silently_retrains(self, config, bundle):
        snapshot = load_snapshot(bundle)
        other = EmbeddingSuiteConfig(epochs=config.epochs + 1)
        assert adopt_embedding_suite(snapshot.store, snapshot.embeddings, other) is None
        suite = snapshot.embedding_suite(other)
        assert suite.source == TRAINED

    def test_query_knobs_do_not_force_retrain(self, config, bundle):
        snapshot = load_snapshot(bundle)
        retuned = EmbeddingSuiteConfig(knn_nprobe=16, knn_rerank_factor=8)
        suite = snapshot.embedding_suite(retuned)
        assert suite.source == ADOPTED
        assert suite.embedding_service.index.nprobe == 16

    def test_corrupted_array_raises_store_error(self, kg, config, built, tmp_path):
        save_snapshot(
            kg.store, tmp_path, embedding_suite=built, embedding_config=config
        )
        target = tmp_path / EMBEDDINGS_DIR / "entity_emb.npy"
        raw = bytearray(target.read_bytes())
        raw[300] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(StoreError):
            load_snapshot(tmp_path)

    def test_missing_array_raises_store_error(self, kg, config, built, tmp_path):
        save_snapshot(
            kg.store, tmp_path, embedding_suite=built, embedding_config=config
        )
        (tmp_path / EMBEDDINGS_DIR / "knn_centroids.npy").unlink()
        with pytest.raises(StoreError):
            load_snapshot(tmp_path)

    def test_store_without_embeddable_facts_skips_layer(self, tmp_path):
        store = TripleStore(name="empty")
        manifest = save_snapshot(store, tmp_path)
        assert EMBEDDINGS_DIR not in manifest["layers"]
        snapshot = load_snapshot(tmp_path)
        assert snapshot.embeddings is None

    def test_unlisted_embeddings_skips_layer(self, kg, tmp_path):
        manifest = save_snapshot(kg.store, tmp_path, layers=("adjacency", "context", "alias"))
        assert EMBEDDINGS_DIR not in manifest["layers"]


class TestInt8Layer:
    @pytest.fixture(scope="class")
    def int8_config(self):
        return EmbeddingSuiteConfig(knn_quantization="int8", knn_nprobe=8)

    @pytest.fixture(scope="class")
    def int8_bundle(self, kg, int8_config, tmp_path_factory):
        directory = tmp_path_factory.mktemp("int8-bundle")
        save_snapshot(kg.store, directory, embedding_config=int8_config)
        return directory

    def test_codes_persisted_and_adopted(self, int8_config, int8_bundle):
        layer = load_embedding_layer(int8_bundle / EMBEDDINGS_DIR)
        assert layer.arrays["knn_codes"].dtype == np.int8
        assert layer.arrays["knn_scales"].dtype == np.float32
        snapshot = load_snapshot(int8_bundle)
        suite = snapshot.embedding_suite(int8_config)
        assert suite.source == ADOPTED
        assert suite.embedding_service.index._codes is not None

    def test_int8_knn_within_recall_floor(self, int8_config, int8_bundle):
        snapshot = load_snapshot(int8_bundle)
        suite = snapshot.embedding_suite(int8_config)
        keys, matrix = suite.trained.all_entity_vectors()
        exact = ExactIndex()
        exact.add(keys, matrix)
        recall = recall_at_k(
            suite.embedding_service.index, exact, matrix[:60], k=10
        )
        assert recall >= 0.8

    def test_int8_adopt_matches_int8_train_bitwise(self, kg, int8_config, int8_bundle):
        snapshot = load_snapshot(int8_bundle)
        adopted = snapshot.embedding_suite(int8_config)
        built = build_embedding_suite(kg.store, int8_config)
        entities = _sample_entities(built)
        adopted_knn = adopted.embedding_service.knn_many(entities, k=5)
        built_knn = built.embedding_service.knn_many(entities, k=5)
        assert [[(h.key, h.score) for h in hits] for hits in adopted_knn] == [
            [(h.key, h.score) for h in hits] for hits in built_knn
        ]

    def test_int8_layer_rides_a_chain(self, int8_config, int8_bundle, tmp_path):
        """A published generation re-codes exactly its changed rows."""
        import shutil

        from repro.kg.deltas import GenerationPublisher
        from repro.ondevice.compression import int8_codes

        directory = tmp_path / "chain"
        shutil.copytree(int8_bundle, directory)
        store = generate_kg(SyntheticKGConfig(seed=11, scale=0.1)).store
        publisher = GenerationPublisher(store, directory)
        first, second = store.entity_ids()[:2]
        fact = store.add(entity_fact(first, "predicate:related_to", second))
        publisher.record(keys=[fact.key])
        info = publisher.publish()
        delta = load_payload(info.directory / EMBEDDINGS_DIR, kind="embeddings-delta")
        rows = np.asarray(delta.arrays["rows"])
        layer = load_snapshot(directory).embeddings
        codes, scales = int8_codes(layer.arrays["knn_rows"][rows])
        np.testing.assert_array_equal(layer.arrays["knn_codes"][rows], codes)
        np.testing.assert_array_equal(layer.arrays["knn_scales"][rows], scales.ravel())
        suite = load_snapshot(directory).embedding_suite(int8_config)
        assert suite.source == ADOPTED
        assert suite.embedding_service.knn_many([first], k=3)[0]


class TestSaveEmbeddingsValidation:
    def test_requires_ivf_backed_suite(self, kg, config, built, tmp_path):
        from dataclasses import replace

        from repro.vector.service import EmbeddingService

        exact_suite = replace(
            built, embedding_service=EmbeddingService(built.trained)
        )
        with pytest.raises(StoreError):
            save_embeddings(exact_suite, config, tmp_path, store_version=0)

    def test_mutated_store_marks_layer_stale(self, kg, config, tmp_path):
        """A real mutation after save bumps store.version; the next load
        must drop the layer rather than serve pre-mutation embeddings."""
        store = generate_kg(SyntheticKGConfig(seed=3, scale=0.05)).store
        save_snapshot(store, tmp_path)
        predicate = next(iter(store.predicates()))
        store.add(entity_fact("entity:new_subject", predicate, "entity:new_object"))
        save_snapshot(store, tmp_path, layers=())  # new version, no layer
        snapshot = load_snapshot(tmp_path)
        assert snapshot.embeddings is None


class TestChainDrift:
    """Ten published generations at scale 0.5 must not wear the adopted
    suite down: IVF recall@10 against exact search, and the verifier's
    accuracy on held-out facts, stay above floors taken from the base."""

    RECALL_SLACK = 0.05
    ACCURACY_SLACK = 0.03

    @staticmethod
    def _quality(suite, held_out, negatives):
        dataset, model = suite.trained.dataset, suite.trained.model
        threshold = suite.verifier.calibration.threshold
        positives = model.score_triples(np.array([dataset.encode(*key) for key in held_out]))
        corrupted = model.score_triples(np.array([dataset.encode(*key) for key in negatives]))
        accuracy = (np.sum(positives >= threshold) + np.sum(corrupted < threshold)) / (
            len(positives) + len(corrupted)
        )
        keys, matrix = suite.trained.all_entity_vectors()
        exact = ExactIndex()
        exact.add(keys, matrix)
        queries = matrix[np.random.default_rng(1).choice(len(matrix), 100, replace=False)]
        return recall_at_k(suite.embedding_service.index, exact, queries, k=10), accuracy

    def test_ten_generations_hold_the_base_floors(self, tmp_path):
        from repro.common import ids
        from repro.kg.deltas import GenerationPublisher
        from repro.kg.store import EntityRecord
        from repro.kg.triple import ObjectKind

        store = generate_kg(SyntheticKGConfig(seed=3, scale=0.5)).store
        facts = sorted(
            (fact for fact in store.scan() if fact.obj_kind is ObjectKind.ENTITY),
            key=lambda fact: fact.key,
        )
        rng = np.random.default_rng(5)
        held = [facts[i] for i in sorted(rng.choice(len(facts), size=600, replace=False))]
        for fact in held:
            store.remove(*fact.key)
        growth, test = held[:200], held[200:]
        publisher = GenerationPublisher(store, tmp_path / "bundle", compact_every=0)

        base = load_snapshot(tmp_path / "bundle").embedding_suite()
        vocabulary = base.trained.dataset.entities
        held_out = [
            f.key
            for f in test
            if base.trained.has_entity(f.subject) and base.trained.has_entity(f.obj)
        ]
        negatives = [
            (s, p, vocabulary[int(rng.integers(len(vocabulary)))]) for s, p, _o in held_out
        ]
        base_recall, base_accuracy = self._quality(base, held_out, negatives)

        for generation in range(10):
            chunk = growth[generation * 20 : (generation + 1) * 20]
            for fact in chunk:
                store.add(fact)
            keys = [fact.key for fact in chunk]
            if generation == 3:
                new = EntityRecord(entity=ids.entity_id("drift_newcomer"), name="Drift Newcomer")
                store.upsert_entity(new)
                grown = store.add(entity_fact(new.entity, chunk[0].predicate, chunk[0].obj))
                keys.append(grown.key)
            publisher.record(keys=keys)
            assert publisher.publish() is not None

        tip = load_snapshot(tmp_path / "bundle").embedding_suite()
        assert tip.source == ADOPTED
        recall, accuracy = self._quality(tip, held_out, negatives)
        assert recall >= base_recall - self.RECALL_SLACK, (recall, base_recall)
        assert accuracy >= base_accuracy - self.ACCURACY_SLACK, (accuracy, base_accuracy)

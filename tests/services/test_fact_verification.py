"""Tests for the fact-verification service."""

import numpy as np
import pytest

from repro.common.errors import EmbeddingError
from repro.services.fact_verification import FactVerifier, evaluate_verifier


@pytest.fixture(scope="module")
def verifier(trained):
    v = FactVerifier(trained.trained)
    _train, valid, _test = trained.dataset.split(seed=1)
    v.calibrate(valid)
    return v


class TestCalibration:
    def test_requires_calibration_before_verify(self, trained):
        fresh = FactVerifier(trained.trained)
        dataset = trained.dataset
        s, p, o = dataset.decode(*map(int, dataset.triples[0]))
        with pytest.raises(EmbeddingError):
            fresh.verify(s, p, o)
        with pytest.raises(EmbeddingError):
            _ = fresh.calibration

    def test_empty_validation_rejected(self, trained):
        with pytest.raises(EmbeddingError):
            FactVerifier(trained.trained).calibrate(np.empty((0, 3), dtype=np.int64))

    def test_calibration_beats_chance(self, verifier):
        assert verifier.calibration.auc > 0.6

    def test_is_calibrated_flag(self, verifier):
        assert verifier.is_calibrated


class TestVerify:
    def test_verdict_fields_consistent(self, verifier, trained):
        dataset = trained.dataset
        s, p, o = dataset.decode(*map(int, dataset.triples[0]))
        verdict = verifier.verify(s, p, o)
        assert verdict.plausible == (verdict.margin >= 0)
        assert verdict.score - verifier.calibration.threshold == pytest.approx(
            verdict.margin
        )

    def test_batch(self, verifier, trained):
        dataset = trained.dataset
        candidates = [
            dataset.decode(*map(int, row)) for row in dataset.triples[:5]
        ]
        verdicts = verifier.verify_batch(candidates)
        assert len(verdicts) == 5

    def test_batch_matches_per_candidate_verify(self, verifier, trained):
        """The vectorised batch pass is bitwise-identical to verify()."""
        dataset = trained.dataset
        candidates = [
            dataset.decode(*map(int, row)) for row in dataset.triples[:12]
        ]
        batched = verifier.verify_batch(candidates)
        singles = [verifier.verify(*candidate) for candidate in candidates]
        assert batched == singles

    def test_batch_empty(self, verifier):
        assert verifier.verify_batch([]) == []

    def test_batch_requires_calibration(self, trained):
        fresh = FactVerifier(trained.trained)
        with pytest.raises(EmbeddingError):
            fresh.verify_batch([("s", "p", "o")])

    def test_batch_unknown_symbols_raise(self, verifier):
        with pytest.raises(EmbeddingError):
            verifier.verify_batch([("entity:ghost", "p", "entity:ghost")])


class TestEvaluation:
    def test_held_out_accuracy(self, verifier, trained):
        report = evaluate_verifier(verifier, trained.test_triples)
        assert report.num_candidates == 2 * len(trained.test_triples)
        assert report.accuracy > 0.55
        assert report.auc > 0.6

    def test_true_facts_score_above_corruptions_on_average(self, verifier, trained):
        from repro.embeddings.evaluation import corrupt_uniform

        positives = trained.test_triples
        negatives = corrupt_uniform(
            positives,
            trained.dataset.num_entities,
            trained.dataset.known_set(),
            seed=7,
        )
        pos = verifier.trained.model.score_triples(positives).mean()
        neg = verifier.trained.model.score_triples(negatives).mean()
        assert pos > neg

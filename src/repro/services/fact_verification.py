"""Fact verification: is a candidate triple correct?

Figure 2: "Q: <LeBron James, Occupation, TV Actor>?  A: Correct."
Industrial KGs continuously absorb facts from noisy feeds (§2), so the
platform must "reason about the correctness … of these facts at scale".

The verifier thresholds the embedding model's plausibility score.  The
threshold is *calibrated* on a validation set of true facts plus uniform
corruptions (via :func:`repro.embeddings.evaluation.triple_classification`),
then applied to unseen candidates — the deployment shape ODKE's
corroboration stage (§4) also consumes as one of its evidence signals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import EmbeddingError
from repro.embeddings.evaluation import (
    ClassificationReport,
    corrupt_uniform,
    triple_classification,
)
from repro.embeddings.trainer import TrainedEmbeddings


@dataclass
class Verdict:
    """Outcome of verifying one candidate fact."""

    subject: str
    predicate: str
    obj: str
    score: float
    plausible: bool
    margin: float  # score - threshold; how confidently classified


class FactVerifier:
    """Calibrated plausibility classifier over a trained embedding model."""

    def __init__(self, trained: TrainedEmbeddings) -> None:
        self.trained = trained
        self._threshold: float | None = None
        self._calibration: ClassificationReport | None = None

    @property
    def is_calibrated(self) -> bool:
        """Whether :meth:`calibrate` has been run."""
        return self._threshold is not None

    @property
    def calibration(self) -> ClassificationReport:
        """The calibration report (raises before calibration)."""
        if self._calibration is None:
            raise EmbeddingError("verifier not calibrated; call calibrate() first")
        return self._calibration

    def calibrate(
        self, validation_triples: np.ndarray, seed: int = 0
    ) -> ClassificationReport:
        """Fit the decision threshold on held-out positives + corruptions."""
        if len(validation_triples) == 0:
            raise EmbeddingError("cannot calibrate on an empty validation set")
        known = self.trained.dataset.known_set()
        negatives = corrupt_uniform(
            validation_triples, self.trained.dataset.num_entities, known, seed=seed
        )
        report = triple_classification(
            self.trained.model, validation_triples, negatives
        )
        self._threshold = report.threshold
        self._calibration = report
        return report

    def adopt_calibration(self, report: ClassificationReport) -> None:
        """Install a previously-fitted calibration without refitting.

        The persisted-snapshot path: the threshold was calibrated once at
        ``save_snapshot`` time and rides in the embedding layer's
        manifest, so no serving replica re-runs the corruption +
        classification pass — and every replica thresholds at the exact
        float the saved verifier did.
        """
        self._threshold = report.threshold
        self._calibration = report

    def verify(self, subject: str, predicate: str, obj: str) -> Verdict:
        """Verdict on one symbolic candidate triple."""
        if self._threshold is None:
            raise EmbeddingError("verifier not calibrated; call calibrate() first")
        score = self.trained.score_fact(subject, predicate, obj)
        return Verdict(
            subject=subject,
            predicate=predicate,
            obj=obj,
            score=score,
            plausible=score >= self._threshold,
            margin=score - self._threshold,
        )

    def verify_batch(self, candidates: list[tuple[str, str, str]]) -> list[Verdict]:
        """Verdicts for many candidates in one batched embedding pass.

        Encodes every symbolic candidate up front and scores the whole
        batch with a single vectorised ``score_triples`` call — the
        serving layer's ``VerifyRequest`` hot path — instead of one
        single-row model evaluation per candidate.  Scores are identical
        to :meth:`verify`: the models reduce per row, so batching does
        not change the arithmetic.  Unknown symbols raise, exactly like
        the per-candidate path.
        """
        if self._threshold is None:
            raise EmbeddingError("verifier not calibrated; call calibrate() first")
        if not candidates:
            return []
        dataset = self.trained.dataset
        encoded = np.array(
            [dataset.encode(s, p, o) for s, p, o in candidates], dtype=np.int64
        )
        scores = self.trained.model.score_triples(encoded)
        threshold = self._threshold
        return [
            Verdict(
                subject=subject,
                predicate=predicate,
                obj=obj,
                score=float(score),
                plausible=bool(score >= threshold),
                margin=float(score) - threshold,
            )
            for (subject, predicate, obj), score in zip(candidates, scores)
        ]


@dataclass
class VerificationReport:
    """Held-out verification quality."""

    accuracy: float
    auc: float
    num_candidates: int


def evaluate_verifier(
    verifier: FactVerifier, test_triples: np.ndarray, seed: int = 1
) -> VerificationReport:
    """Accuracy/AUC of a calibrated verifier on unseen positives+corruptions."""
    trained = verifier.trained
    known = trained.dataset.known_set()
    negatives = corrupt_uniform(
        test_triples, trained.dataset.num_entities, known, seed=seed
    )
    report = triple_classification(trained.model, test_triples, negatives)

    # Accuracy at the *calibrated* threshold (not re-fit on test data).
    pos_scores = trained.model.score_triples(test_triples)
    neg_scores = trained.model.score_triples(negatives)
    threshold = verifier.calibration.threshold
    correct = int(np.sum(pos_scores >= threshold)) + int(np.sum(neg_scores < threshold))
    total = len(pos_scores) + len(neg_scores)
    return VerificationReport(
        accuracy=correct / total if total else 0.0,
        auc=report.auc,
        num_candidates=total,
    )

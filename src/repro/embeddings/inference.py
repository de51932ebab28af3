"""Batch inference over trained embeddings (Figure 3, right side).

At inference time the graph engine materialises *candidates* — triples to
verify/rank or entity pairs to relate — and this module scores them in
batches against a trained model, mirroring the paper's "batch multi-GPU
inference" stage on CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import EmbeddingError
from repro.embeddings.trainer import TrainedEmbeddings


@dataclass
class ScoredTriple:
    """A candidate triple with its plausibility score."""

    subject: str
    predicate: str
    obj: str
    score: float


class BatchInference:
    """Vectorised scoring of symbolic candidates against a trained model."""

    def __init__(self, trained: TrainedEmbeddings, batch_size: int = 4096) -> None:
        if batch_size <= 0:
            raise EmbeddingError(f"batch_size must be positive, got {batch_size}")
        self.trained = trained
        self.batch_size = batch_size

    def score_triples(
        self, candidates: list[tuple[str, str, str]], skip_unknown: bool = True
    ) -> list[ScoredTriple]:
        """Score symbolic (s, p, o) candidates; unknown symbols are skipped
        (or raise when ``skip_unknown`` is False)."""
        dataset = self.trained.dataset
        encoded: list[tuple[int, int, int]] = []
        kept: list[tuple[str, str, str]] = []
        for subject, predicate, obj in candidates:
            try:
                encoded.append(dataset.encode(subject, predicate, obj))
                kept.append((subject, predicate, obj))
            except EmbeddingError:
                if not skip_unknown:
                    raise
        if not encoded:
            return []
        triples = np.asarray(encoded, dtype=np.int64)
        scores = np.empty(len(triples), dtype=np.float64)
        for begin in range(0, len(triples), self.batch_size):
            chunk = triples[begin : begin + self.batch_size]
            scores[begin : begin + len(chunk)] = self.trained.model.score_triples(chunk)
        return [
            ScoredTriple(subject=s, predicate=p, obj=o, score=float(score))
            for (s, p, o), score in zip(kept, scores)
        ]

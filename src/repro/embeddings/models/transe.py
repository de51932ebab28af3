"""TransE: translational-distance embedding model (Bordes et al., 2013).

Scores a triple by the negated L2 distance between the translated head and
the tail: ``score(h, r, t) = -|| e_h + w_r - e_t ||``.  The paper cites
translational models as the archetypal shallow family (§6, [3]).
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.models.base import KGEmbeddingModel

_EPS = 1e-9


class TransE(KGEmbeddingModel):
    """L2 TransE with unit-ball entity projection after each epoch."""

    name = "transe"

    def score_rows(self, eh: np.ndarray, wr: np.ndarray, et: np.ndarray) -> np.ndarray:
        return -np.linalg.norm(eh + wr - et, axis=1)

    def grad_rows(
        self, eh: np.ndarray, wr: np.ndarray, et: np.ndarray, dscore: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        delta = eh + wr - et
        norms = np.linalg.norm(delta, axis=1, keepdims=True)
        unit = delta / (norms + _EPS)
        # d(-||delta||)/d(delta) = -unit; chain with upstream dscore.
        d_delta = -unit * dscore[:, None]
        return d_delta, d_delta, -d_delta

    def normalize_entities(self) -> None:
        norms = np.linalg.norm(self.entity_emb, axis=1, keepdims=True)
        np.divide(self.entity_emb, np.maximum(norms, 1.0), out=self.entity_emb)

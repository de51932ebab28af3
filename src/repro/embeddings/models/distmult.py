"""DistMult: bilinear-diagonal semantic matching model (Yang et al., 2014).

``score(h, r, t) = <e_h, w_r, e_t> = Σ_d e_h[d] · w_r[d] · e_t[d]``.
The paper cites semantic-matching models via [22] (§6).
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.models.base import KGEmbeddingModel


class DistMult(KGEmbeddingModel):
    """Diagonal bilinear model; symmetric in head/tail by construction."""

    name = "distmult"

    def score_rows(self, eh: np.ndarray, wr: np.ndarray, et: np.ndarray) -> np.ndarray:
        return np.sum(eh * wr * et, axis=1)

    def grad_rows(
        self, eh: np.ndarray, wr: np.ndarray, et: np.ndarray, dscore: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        grads = wr * et, eh * et, eh * wr
        for grad in grads:
            grad *= dscore[:, None]
        return grads

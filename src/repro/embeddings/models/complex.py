"""ComplEx: complex-valued bilinear model (Trouillon et al., 2016).

``score(h, r, t) = Re(<e_h, w_r, conj(e_t)>)`` with complex embeddings.
Unlike DistMult it can represent antisymmetric relations (spouse vs.
member-of), which open-domain KGs are full of.  Parameters are stored as a
``2·dim`` real matrix: the first half is the real part, the second the
imaginary part.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.models.base import KGEmbeddingModel


class ComplEx(KGEmbeddingModel):
    """Complex bilinear model over split real/imaginary storage."""

    name = "complex"

    @property
    def storage_dim(self) -> int:
        return 2 * self.config.dim

    def score_rows(self, eh: np.ndarray, wr: np.ndarray, et: np.ndarray) -> np.ndarray:
        hr, hi = np.hsplit(eh, 2)
        rr, ri = np.hsplit(wr, 2)
        tr, ti = np.hsplit(et, 2)
        return np.sum(
            hr * rr * tr + hi * rr * ti + hr * ri * ti - hi * ri * tr, axis=1
        )

    def grad_rows(
        self, eh: np.ndarray, wr: np.ndarray, et: np.ndarray, dscore: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        hr, hi = np.hsplit(eh, 2)
        rr, ri = np.hsplit(wr, 2)
        tr, ti = np.hsplit(et, 2)
        scale = dscore[:, None]
        grad_hr = (rr * tr + ri * ti) * scale
        grad_hi = (rr * ti - ri * tr) * scale
        grad_rr = (hr * tr + hi * ti) * scale
        grad_ri = (hr * ti - hi * tr) * scale
        grad_tr = (hr * rr - hi * ri) * scale
        grad_ti = (hi * rr + hr * ri) * scale
        return (
            np.concatenate([grad_hr, grad_hi], axis=1),
            np.concatenate([grad_rr, grad_ri], axis=1),
            np.concatenate([grad_tr, grad_ti], axis=1),
        )

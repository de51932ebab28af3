"""RotatE: rotation-based embedding model (Sun et al., 2019).

Relations are rotations in the complex plane: ``t ≈ h ∘ e^{iθ_r}``, scored
as ``-|| h ∘ r − t ||`` with ``|r_j| = 1``.  Covers the rotation/quaternion
family the paper's related work cites alongside translation models [23].

Storage: entities use ``2·dim`` reals (real ∥ imaginary); relations store
``dim`` phase angles θ (padded to ``2·dim`` so the shared AdaGrad machinery
applies — the padding columns receive zero gradients).
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.models.base import KGEmbeddingModel

_EPS = 1e-9


class RotatE(KGEmbeddingModel):
    """Complex rotations with phase-parameterised relations."""

    name = "rotate"

    @property
    def storage_dim(self) -> int:
        return 2 * self.config.dim

    def _delta(
        self, eh: np.ndarray, wr: np.ndarray, et: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Rotation residual (real, imag) plus the intermediates grads need."""
        hr, hi = np.hsplit(eh, 2)
        tr, ti = np.hsplit(et, 2)
        theta = wr[:, : self.config.dim]
        cos, sin = np.cos(theta), np.sin(theta)
        rot_r = hr * cos - hi * sin
        rot_i = hr * sin + hi * cos
        return rot_r - tr, rot_i - ti, cos, sin, hr, hi

    def score_rows(self, eh: np.ndarray, wr: np.ndarray, et: np.ndarray) -> np.ndarray:
        delta_r, delta_i, *_ = self._delta(eh, wr, et)
        return -np.sqrt(np.sum(delta_r**2 + delta_i**2, axis=1))

    def grad_rows(
        self, eh: np.ndarray, wr: np.ndarray, et: np.ndarray, dscore: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        delta_r, delta_i, cos, sin, hr, hi = self._delta(eh, wr, et)
        norm = np.sqrt(np.sum(delta_r**2 + delta_i**2, axis=1, keepdims=True))
        scale = -dscore[:, None] / (norm + _EPS)  # d(-||δ||)/dδ chained
        g_delta_r = scale * delta_r
        g_delta_i = scale * delta_i
        # δ_r = hr·cos − hi·sin − tr ; δ_i = hr·sin + hi·cos − ti
        grad_hr = g_delta_r * cos + g_delta_i * sin
        grad_hi = -g_delta_r * sin + g_delta_i * cos
        grad_theta = g_delta_r * (-hr * sin - hi * cos) + g_delta_i * (
            hr * cos - hi * sin
        )
        grad_tr = -g_delta_r
        grad_ti = -g_delta_i
        zeros = np.zeros_like(grad_theta)
        return (
            np.concatenate([grad_hr, grad_hi], axis=1),
            np.concatenate([grad_theta, zeros], axis=1),
            np.concatenate([grad_tr, grad_ti], axis=1),
        )

    def normalize_entities(self) -> None:
        d = self.config.dim
        modulus = np.sqrt(self.entity_emb[:, :d] ** 2 + self.entity_emb[:, d:] ** 2)
        scale = np.maximum(modulus, 1.0)
        self.entity_emb[:, :d] /= scale
        self.entity_emb[:, d:] /= scale

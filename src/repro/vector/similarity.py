"""Vector similarity kernels shared by the index and services."""

from __future__ import annotations

import numpy as np


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalise each row; zero rows stay zero."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    normalized = np.divide(matrix, norms, out=np.zeros_like(matrix), where=norms > 0)
    # Entries below ~1e-154 square to subnormals, so their norm above lost
    # its precision; a second pass over the now order-one rows restores it.
    if np.any((norms > 0) & (norms < 1e-150)):
        return normalize_rows(normalized)
    return normalized


def cosine(query: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Cosine similarity of ``query`` against every row of ``matrix``."""
    q = normalize_rows(np.atleast_2d(query))[0]
    m = normalize_rows(matrix)
    return m @ q


def dot(query: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Inner-product similarity."""
    return np.asarray(matrix, dtype=np.float64) @ np.asarray(query, dtype=np.float64)


def euclidean(query: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Negated L2 distance (so larger = more similar, like the others)."""
    deltas = np.asarray(matrix, dtype=np.float64) - np.asarray(query, dtype=np.float64)
    return -np.linalg.norm(deltas, axis=1)


METRICS = {"cosine": cosine, "dot": dot, "euclidean": euclidean}

"""Tests for similarity kernels."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.vector.similarity import (
    cosine,
    dot,
    euclidean,
    normalize_rows,
)


class TestNormalize:
    def test_unit_norms(self):
        matrix = np.array([[3.0, 4.0], [1.0, 0.0]])
        normalized = normalize_rows(matrix)
        assert np.allclose(np.linalg.norm(normalized, axis=1), 1.0)

    def test_zero_rows_stay_zero(self):
        normalized = normalize_rows(np.zeros((2, 3)))
        assert np.all(normalized == 0)

    @settings(max_examples=25, deadline=None)
    @given(arrays(np.float64, (4, 3), elements=st.floats(-10, 10)))
    @example(np.full((4, 3), 5.1872527e-162))  # squares underflow to subnormals
    def test_property_norm_at_most_one(self, matrix):
        norms = np.linalg.norm(normalize_rows(matrix), axis=1)
        assert np.all((np.isclose(norms, 1.0)) | (norms == 0.0))


class TestMetrics:
    def test_cosine_self(self):
        v = np.array([1.0, 2.0])
        assert cosine(v, v[None, :])[0] == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]))[0] == pytest.approx(0.0)

    def test_dot(self):
        assert dot(np.array([1.0, 2.0]), np.array([[3.0, 4.0]]))[0] == 11.0

    def test_euclidean_negated_distance(self):
        scores = euclidean(np.array([0.0, 0.0]), np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert scores[0] == pytest.approx(-5.0)
        assert scores[1] == pytest.approx(0.0)
        assert scores[1] > scores[0]  # closer = larger

import numpy as np
import pytest

from tailwise.errors import NonFiniteInput, NotAMatrix
from tailwise.spectral import Esd, LayerRole, WeightMatrix, esd, frobenius_norm


def mat(values, role=LayerRole.OTHER_2D, name="w"):
    return WeightMatrix(name, role, np.asarray(values, dtype=np.float64))


def random_mat(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return mat(rng.standard_normal((rows, cols)))


def gram_eigs(values, keep):
    # Independent oracle: dense eigendecomposition of W^T W, top `keep` kept.
    w = np.asarray(values, dtype=np.float64)
    eigs = np.linalg.eigvalsh(w.T @ w)
    return np.sort(eigs)[-keep:]


class TestEsd:
    def test_identity(self):
        np.testing.assert_allclose(esd(mat(np.eye(2))).eigenvalues, [1.0, 1.0])

    def test_rect_diagonal(self):
        w = np.zeros((2, 3))
        w[0, 0], w[1, 1] = 3.0, 4.0
        np.testing.assert_allclose(esd(mat(w)).eigenvalues, [9.0, 16.0])

    def test_matches_dense_gram_oracle(self):
        w = random_mat(8, 16, seed=42)
        got = esd(w).eigenvalues
        want = gram_eigs(w.values, 8)
        np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_length_is_min_dim(self):
        assert esd(random_mat(5, 9, 0)).n_eff == 5
        assert esd(random_mat(9, 5, 0)).n_eff == 5

    def test_sorted_and_nonnegative(self):
        eigs = esd(random_mat(12, 7, 3)).eigenvalues
        assert np.all(np.diff(eigs) >= 0)
        assert eigs.min() >= 0.0

    def test_rejects_nan(self):
        w = np.eye(3)
        w[1, 2] = np.nan
        with pytest.raises(NonFiniteInput):
            esd(mat(w))

    def test_rejects_non_matrix_role(self):
        w = WeightMatrix("gain", LayerRole.NON_MATRIX, np.ones(4))
        with pytest.raises(NotAMatrix):
            esd(w)

    def test_scale_equivariance(self):
        w = random_mat(6, 10, 7)
        scaled = mat(2.5 * w.values)
        np.testing.assert_allclose(
            esd(scaled).eigenvalues, 2.5**2 * esd(w).eigenvalues, rtol=1e-10
        )

    def test_transpose_invariance(self):
        w = random_mat(6, 10, 11)
        wt = mat(w.values.T)
        np.testing.assert_allclose(esd(w).eigenvalues, esd(wt).eigenvalues, rtol=1e-10)

    def test_many_random_matrices_vs_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            rows = int(rng.integers(2, 17))
            cols = int(rng.integers(2, 33))
            w = mat(rng.standard_normal((rows, cols)))
            keep = min(rows, cols)
            np.testing.assert_allclose(
                esd(w).eigenvalues, gram_eigs(w.values, keep), rtol=1e-8, atol=1e-12
            )

    def test_esd_clamps_tiny_negative(self):
        e = Esd(np.array([-1e-13, 1.0]))
        assert e.eigenvalues[0] == 0.0

    def test_esd_rejects_large_negative(self):
        with pytest.raises(ValueError):
            Esd(np.array([-1e-6, 1.0]))


class TestNorms:
    def test_frobenius_identity(self):
        assert frobenius_norm(mat(np.eye(2))) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_frobenius_three_four_five(self):
        assert frobenius_norm(mat(np.diag([3.0, 4.0]))) == pytest.approx(5.0, abs=1e-12)

    def test_trace_identity(self):
        w = random_mat(8, 16, 5)
        total = float(np.sum(esd(w).eigenvalues))
        assert frobenius_norm(w) == pytest.approx(np.sqrt(total), rel=1e-10)


class TestWeightMatrix:
    def test_non_matrix_must_be_1d(self):
        with pytest.raises(ValueError):
            WeightMatrix("g", LayerRole.NON_MATRIX, np.ones((2, 2)))

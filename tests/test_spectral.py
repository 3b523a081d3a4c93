import json

import numpy as np
import pytest

from tailwise.cli import main
from tailwise.errors import NonFiniteInput, NotAMatrix
from tailwise.manifest import save_manifest
from tailwise.spectral import LayerRole, WeightMatrix, esd
from tailwise.tailfit import summarize


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
        np.testing.assert_allclose(esd(mat(np.eye(2))), [1.0, 1.0])

    def test_rect_diagonal(self):
        w = np.zeros((2, 3))
        w[0, 0], w[1, 1] = 3.0, 4.0
        np.testing.assert_allclose(esd(mat(w)), [9.0, 16.0])

    def test_matches_dense_gram_oracle(self):
        w = random_mat(8, 16, seed=42)
        got = esd(w)
        want = gram_eigs(w.values, 8)
        np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_length_is_min_dim(self):
        assert esd(random_mat(5, 9, 0)).size == 5
        assert esd(random_mat(9, 5, 0)).size == 5

    def test_sorted_and_nonnegative(self):
        eigs = esd(random_mat(12, 7, 3))
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
            esd(scaled), 2.5**2 * esd(w), rtol=1e-10
        )

    def test_transpose_invariance(self):
        w = random_mat(6, 10, 11)
        wt = mat(w.values.T)
        np.testing.assert_allclose(esd(w), esd(wt), rtol=1e-10)

    def test_many_random_matrices_vs_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            rows = int(rng.integers(2, 17))
            cols = int(rng.integers(2, 33))
            w = mat(rng.standard_normal((rows, cols)))
            keep = min(rows, cols)
            np.testing.assert_allclose(
                esd(w), gram_eigs(w.values, keep), rtol=1e-8, atol=1e-12
            )

    def test_rank_deficient_at_large_scale(self, tmp_path):
        # Gram rounding leaves eigenvalues of order +-1e-4 on the zero part of
        # this spectrum (lambda_max ~ 3e11); the floor zeroes them and nothing
        # above it.
        r = 32
        rng = np.random.default_rng(5)
        w = mat(1e3 * (rng.standard_normal((256, r)) @ rng.standard_normal((r, 512))))
        eigs = esd(w)
        assert eigs.size == 256
        assert eigs.min() >= 0.0
        assert np.count_nonzero(eigs) == r
        manifest = save_manifest(tmp_path, [w])
        out = tmp_path / "report.json"
        assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 0
        record = json.loads(out.read_text())["layers"][0]
        assert (record["n_eff"], record["k_used"]) == (256, r // 2)  # fit over the r positives


class TestFrobenius:
    def test_identity(self):
        assert summarize(mat(np.eye(8))).fro_norm == pytest.approx(np.sqrt(8.0), rel=1e-12)

    def test_pythagorean_diagonal(self):
        # 3^2 + 4^2 + 12^2 + 84^2 = 85^2
        w = mat(np.diag([3.0, 4.0, 12.0, 84.0]))
        assert summarize(w).fro_norm == pytest.approx(85.0, rel=1e-12)

    def test_matches_numpy_norm(self):
        for rows, cols, seed in [(8, 16, 5), (16, 8, 6), (12, 12, 7)]:
            w = random_mat(rows, cols, seed)
            assert summarize(w).fro_norm == pytest.approx(np.linalg.norm(w.values), rel=1e-12)


class TestWeightMatrix:
    def test_non_matrix_must_be_1d(self):
        with pytest.raises(ValueError):
            WeightMatrix("g", LayerRole.NON_MATRIX, np.ones((2, 2)))

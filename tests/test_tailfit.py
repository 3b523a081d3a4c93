import math

import numpy as np
import pytest

from tailwise.errors import BadK, TooFewEigenvalues, ZeroCutoff
from tailwise.tailfit import (
    FitConfig,
    FitMethod,
    fit_alpha,
    hill_alpha,
)

HAND_ALPHA_1248 = 1.0 + 2.0 / (3.0 * math.log(2.0))  # eigs [1,2,4,8], k=2


def hill_loop(eigs, k):
    # Independent straight-loop implementation, deliberately kept naive.
    lam = sorted(float(x) for x in eigs)
    n = len(lam)
    cutoff = lam[n - k - 1]
    total = 0.0
    for i in range(1, k + 1):
        total += math.log(lam[n - i] / cutoff)
    if total < 1e-300:
        return math.inf
    return 1.0 + k / total


def pareto_quantiles(a, n):
    # Exact quantiles of the tail power law p(x) ~ x^-a on [1, inf).
    i = np.arange(1, n + 1)
    return (1.0 - i / (n + 1.0)) ** (-1.0 / (a - 1.0))


class TestHillAlpha:
    def test_hand_value(self):
        assert hill_alpha(np.array([1.0, 2.0, 4.0, 8.0]), 2) == pytest.approx(
            HAND_ALPHA_1248, abs=1e-12
        )
        assert HAND_ALPHA_1248 == pytest.approx(1.9618, abs=5e-5)

    def test_degenerate_spectrum_is_inf(self):
        assert hill_alpha(np.ones(4), 2) == math.inf

    def test_pareto_quantile_recovery(self):
        lam = pareto_quantiles(2.5, 2000)
        assert hill_alpha(lam, 1000) == pytest.approx(2.5, abs=0.05)

    def test_bad_k(self):
        for k in (0, 4, 7):
            with pytest.raises(BadK):
                hill_alpha(np.array([1.0, 2.0, 4.0, 8.0]), k)

    def test_zero_cutoff(self):
        with pytest.raises(ZeroCutoff):
            hill_alpha(np.array([0.0, 0.0, 4.0, 8.0]), 2)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        lam = np.sort(rng.pareto(1.8, size=64) + 1.0)
        for c in (1e-6, 0.5, 3.0, 1e7):
            assert hill_alpha(c * lam, 20) == pytest.approx(
                hill_alpha(lam, 20), abs=1e-12
            )

    def test_monotone_spreading(self):
        lam = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        base = hill_alpha(lam, 3)
        heavier = lam.copy()
        heavier[-1] *= 4.0
        assert hill_alpha(heavier, 3) < base

    def test_lower_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            lam = rng.random(16) + 1e-3
            a = hill_alpha(lam, int(rng.integers(1, 15)))
            assert a > 1.0

    def test_agrees_with_straight_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(8, 200))
            lam = np.sort(rng.random(n) + 1e-6)
            k = int(rng.integers(1, n - 1))
            assert hill_alpha(lam, k) == pytest.approx(hill_loop(lam, k), abs=1e-10)


class TestFitAlpha:
    def test_median_hand_value(self):
        alpha, k = fit_alpha(np.array([1.0, 2.0, 4.0, 8.0]))
        assert k == 2
        assert alpha == pytest.approx(HAND_ALPHA_1248, abs=1e-12)

    def test_k_override_wins(self):
        lam = np.sort(np.random.default_rng(8).random(8)) + 0.1
        for method in FitMethod:
            alpha, k = fit_alpha(lam, FitConfig(method=method, k_override=3))
            assert k == 3
            assert alpha == pytest.approx(hill_loop(lam, 3), abs=1e-10)

    def test_too_few_eigenvalues(self):
        with pytest.raises(TooFewEigenvalues):
            fit_alpha(np.array([1.0, 2.0, 3.0]))

    def test_zeros_dropped_before_fitting(self):
        lam = np.array([0.0, 0.0, 1.0, 2.0, 4.0, 8.0])
        alpha, k = fit_alpha(lam)
        assert k == 2  # four positive eigenvalues remain
        assert alpha == pytest.approx(HAND_ALPHA_1248, abs=1e-12)

    def test_all_zero_raises(self):
        with pytest.raises(TooFewEigenvalues):
            fit_alpha(np.zeros(10))

    def test_permutation_safety(self):
        rng = np.random.default_rng(9)
        lam = rng.random(32) + 0.01
        a1, k1 = fit_alpha(lam)
        a2, k2 = fit_alpha(rng.permutation(lam))
        assert (a1, k1) == (a2, k2)

    @pytest.mark.parametrize("a", [1.5, 2.5, 3.5])
    def test_median_consistency_on_pareto(self, a):
        alpha, k = fit_alpha(pareto_quantiles(a, 2000))
        assert k == 1000
        assert alpha == pytest.approx(a, abs=0.05)

    def test_gof_on_pareto(self):
        lam = pareto_quantiles(2.5, 2000)
        alpha, k = fit_alpha(lam, FitConfig(method=FitMethod.GOODNESS_OF_FIT))
        assert alpha == pytest.approx(2.5, abs=0.05)

    def test_gof_ks_no_worse_than_median(self):
        # Independent KS oracle over both fits.
        def ks(lam, k, alpha):
            n = lam.size
            cutoff = lam[n - k - 1]
            tail = lam[n - k:]
            fitted = 1.0 - (tail / cutoff) ** (1.0 - alpha)
            grid = np.arange(1, k + 1) / k
            return max(np.abs(grid - fitted).max(), np.abs(grid - 1.0 / k - fitted).max())

        lam = pareto_quantiles(2.5, 2000)
        a_med, k_med = fit_alpha(lam, FitConfig(method=FitMethod.MEDIAN))
        a_gof, k_gof = fit_alpha(lam, FitConfig(method=FitMethod.GOODNESS_OF_FIT))
        assert ks(lam, k_gof, a_gof) <= ks(lam, k_med, a_med) + 1e-15

    def test_fix_finger_runs_and_respects_bounds(self):
        rng = np.random.default_rng(10)
        lam = np.sort(rng.pareto(1.5, size=300) + 1.0)
        alpha, k = fit_alpha(lam, FitConfig(method=FitMethod.FIX_FINGER))
        assert 1 <= k <= lam.size - 1
        assert alpha > 1.0

    def test_fix_finger_cutoff_near_histogram_peak(self):
        # Spectrum with a dense clump at 1.0 and a sparse tail: the clump is
        # the histogram peak, so the cutoff lands there and k covers the tail.
        clump = np.full(220, 1.0) + np.linspace(0, 1e-3, 220)
        tail = np.geomspace(2.0, 500.0, 60)
        lam = np.concatenate([clump, tail])
        _, k = fit_alpha(lam, FitConfig(method=FitMethod.FIX_FINGER))
        assert 55 <= k <= 90


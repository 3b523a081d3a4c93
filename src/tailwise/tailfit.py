"""Power-law tail-exponent estimation for eigenvalue spectra.

The tail index alpha of the eigenvalue density p(x) ~ x^-alpha is
estimated with the Hill estimator over the top-k order statistics:

    alpha = 1 + k / sum_{i=1..k} ln(lambda_{n-i+1} / lambda_{n-k})

Smaller alpha means a heavier tail. Three cutoff-selection methods are
supported: the median rule (k = n/2, the default), a histogram-peak rule
("fix-finger"), and a Kolmogorov-Smirnov goodness-of-fit scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadK, TooFewEigenvalues, ZeroCutoff
from .spectral import LayerRole, WeightMatrix, esd

# Log-sums below this are treated as a degenerate (flat) spectrum.
DEGENERATE_LOG_SUM = 1e-300

# A spectrum needs at least this many positive eigenvalues to be fitted.
MIN_POSITIVE_EIGS = 4

# Bin count of the fix-finger log10 histogram.
FIX_FINGER_BINS = 100


class FitMethod(Enum):
    MEDIAN = "median"
    FIX_FINGER = "fixfinger"
    GOODNESS_OF_FIT = "gof"


@dataclass(frozen=True)
class FitConfig:
    method: FitMethod = FitMethod.MEDIAN
    k_override: int | None = None


@dataclass
class SpectralSummary:
    """Fitted tail exponent and norms for one layer."""

    layer_name: str
    role: LayerRole
    alpha: float  # > 1 when finite; math.inf for degenerate spectra
    k_used: int
    n_eff: int
    lambda_max: float
    fro_norm: float
    spec_norm: float


def _as_ascending(eigs) -> np.ndarray:
    return np.sort(np.asarray(eigs, dtype=np.float64))


def hill_alpha(eigs, k: int) -> float:
    """Hill tail-index estimate from the top-k eigenvalues.

    Returns math.inf when every top-k eigenvalue equals the cutoff
    (flat spectrum: "least heavy-tailed", so allocation maps it to the
    top LR bound rather than failing).
    """
    lam = _as_ascending(eigs)
    n = lam.size
    if not 1 <= k <= n - 1:
        raise BadK(f"k={k} outside [1, {n - 1}]")
    cutoff = lam[n - k - 1]
    if cutoff <= 0.0:
        raise ZeroCutoff(f"cutoff eigenvalue lambda_[n-k]={cutoff} is not positive")
    log_sum = float(np.sum(np.log(lam[n - k:] / cutoff)))
    if log_sum < DEGENERATE_LOG_SUM:
        return math.inf
    return 1.0 + k / log_sum


def _fix_finger_k(lam: np.ndarray) -> int:
    # Put the cutoff at the peak of the log10-eigenvalue histogram.
    logs = np.log10(lam)
    counts, edges = np.histogram(logs, bins=FIX_FINGER_BINS)
    peak = int(np.argmax(counts))
    center = 0.5 * (edges[peak] + edges[peak + 1])
    j = int(np.argmin(np.abs(logs - center)))  # index of the cutoff eigenvalue
    k = lam.size - 1 - j
    return min(max(k, 1), lam.size - 1)


def _ks_distance(tail: np.ndarray, cutoff: float, alpha: float) -> float:
    # Exact KS statistic between the empirical tail CDF and the fitted
    # power law F(x) = 1 - (x / cutoff)^(1 - alpha), x >= cutoff.
    k = tail.size
    fitted = 1.0 - (tail / cutoff) ** (1.0 - alpha)
    grid = np.arange(1, k + 1) / k
    return float(max(np.max(np.abs(grid - fitted)), np.max(np.abs(grid - 1.0 / k - fitted))))


def _goodness_of_fit_k(lam: np.ndarray) -> int:
    n = lam.size
    best_k, best_d = 2, math.inf
    for k in range(2, n):
        cutoff = lam[n - k - 1]
        alpha = hill_alpha(lam, k)
        if not math.isfinite(alpha):
            continue
        d = _ks_distance(lam[n - k:], cutoff, alpha)
        if d < best_d:
            best_k, best_d = k, d
    return best_k


def fit_alpha(eigs, cfg: FitConfig = FitConfig()) -> tuple[float, int]:
    """Fit the tail exponent of a spectrum; returns (alpha, k_used).

    Zero eigenvalues are dropped first. Spectra with fewer than four
    positive eigenvalues cannot be fitted and raise TooFewEigenvalues.
    """
    lam = _as_ascending(eigs)
    lam = lam[lam > 0.0]
    n = lam.size
    if n < MIN_POSITIVE_EIGS:
        raise TooFewEigenvalues(f"{n} positive eigenvalues, need >= {MIN_POSITIVE_EIGS}")
    if cfg.k_override is not None:
        if not 1 <= cfg.k_override <= n - 1:
            raise BadK(f"k_override={cfg.k_override} outside [1, {n - 1}]")
        k = cfg.k_override
    elif cfg.method is FitMethod.MEDIAN:
        k = n // 2
    elif cfg.method is FitMethod.FIX_FINGER:
        k = _fix_finger_k(lam)
    else:
        k = _goodness_of_fit_k(lam)
    return hill_alpha(lam, k), k


def summarize(w: WeightMatrix, cfg: FitConfig = FitConfig()) -> SpectralSummary:
    """Full per-layer record: spectrum fit plus norms, all from one spectrum."""
    spectrum = esd(w)
    alpha, k_used = fit_alpha(spectrum, cfg)
    top = float(spectrum[-1])
    return SpectralSummary(
        layer_name=w.name,
        role=w.role,
        alpha=alpha,
        k_used=k_used,
        n_eff=int(spectrum.size),
        lambda_max=top,
        fro_norm=float(np.sqrt(np.sum(spectrum))),
        spec_norm=float(np.sqrt(top)),
    )


"""Eigenvalue spectrum of a layer's weight correlation matrix, plus norms.

The spectrum of W^T W equals the squared singular values of W, so
everything here is computed from an SVD of W directly; forming the Gram
matrix explicitly would square the condition number for no benefit.
All computation is in float64 regardless of stored checkpoint precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NonFiniteInput, NotAMatrix

# Eigenvalues this far below zero are treated as floating-point noise and
# clamped; anything more negative is an internal error.
NEGATIVE_EIG_TOL = 1e-12


class LayerRole(Enum):
    EMBEDDING = "embed"
    OUTPUT_HEAD = "output_head"
    ATT_Q = "att.q"
    ATT_K = "att.k"
    ATT_V = "att.v"
    ATT_O = "att.o"
    FFN_GATE = "ffn.gate"
    FFN_UP = "ffn.up"
    FFN_DOWN = "ffn.down"
    OTHER_2D = "other"
    NON_MATRIX = "non_matrix"


#: Roles pinned to the plan's upper LR bound by the embedding override.
PINNED_ROLES = frozenset({LayerRole.EMBEDDING, LayerRole.OUTPUT_HEAD})


@dataclass
class WeightMatrix:
    """A named real matrix with a layer-role tag.

    ``values`` is 2-D for matrix roles and 1-D for NON_MATRIX parameters
    (biases, norm gains), which are excluded from spectral analysis.
    """

    name: str
    role: LayerRole
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.role is LayerRole.NON_MATRIX:
            if self.values.ndim != 1:
                raise ValueError(f"{self.name}: NON_MATRIX parameters must be 1-D")
        elif self.values.ndim != 2:
            raise ValueError(f"{self.name}: expected a 2-D array, got ndim={self.values.ndim}")
        if self.values.size == 0:
            raise ValueError(f"{self.name}: empty parameter")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1] if self.values.ndim == 2 else 1


@dataclass
class Esd:
    """Eigenvalues of W^T W, sorted ascending; length min(rows, cols).

    Structural zero eigenvalues of the larger-side Gram matrix are not
    kept: they carry no tail information.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        eigs = np.asarray(self.eigenvalues, dtype=np.float64)
        if eigs.ndim != 1 or eigs.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-D array")
        if eigs.min() < -NEGATIVE_EIG_TOL:
            raise ValueError(f"eigenvalue {eigs.min()} below -{NEGATIVE_EIG_TOL}")
        eigs = np.where(eigs < 0.0, 0.0, eigs)
        self.eigenvalues = np.sort(eigs)

    @property
    def n_eff(self) -> int:
        return int(self.eigenvalues.size)


def _check_matrix(w: WeightMatrix) -> None:
    if w.role is LayerRole.NON_MATRIX:
        raise NotAMatrix(f"{w.name}: role NON_MATRIX has no spectrum")
    if not np.isfinite(w.values).all():
        raise NonFiniteInput(f"{w.name}: matrix contains NaN or Inf")


def esd(w: WeightMatrix) -> Esd:
    """Squared singular values of ``w``, ascending, length min(rows, cols)."""
    _check_matrix(w)
    sv = np.linalg.svd(w.values, compute_uv=False)
    return Esd(np.sort(sv * sv))


def frobenius_norm(w: WeightMatrix) -> float:
    """sqrt of the sum of squared entries; equals sqrt(sum of ESD eigenvalues)."""
    _check_matrix(w)
    return float(np.sqrt(np.sum(w.values * w.values)))


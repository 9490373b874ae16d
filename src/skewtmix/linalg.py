"""Dense symmetric positive definite matrix helpers for small dimensions.

Scale matrices in this package are tiny (d up to roughly 10). The
factorizations come from numpy.linalg. Every triangular solve is one
forward substitution L h = z over the d columns in numpy, with no LAPACK
call, so a row's value does not depend on the batch around it: the log
densities and ``quad_form`` whiten their points with it, and ``solve`` and
the batched triangular solves, which nothing else in the package calls,
run on it too. This module adds input validation, the batched (..., d)
layout, and one error type for matrices that are not positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

    The input is copied; an asymmetry above 1e-12 times its largest entry
    raises ``ValueError`` and a smaller one is averaged away. Positive
    definiteness is established eagerly through the Cholesky factorization;
    the log determinant is computed from it on first use and kept.
    """

    entries: np.ndarray
    dim: int = field(init=False)
    cholesky_factor: np.ndarray = field(init=False, repr=False, compare=False)
    _logdet: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        sym = np.array(self.entries, dtype=float)
        if sym.ndim != 2 or sym.shape[0] != sym.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {sym.shape}")
        if not np.all(np.isfinite(sym)):
            raise ValueError("matrix entries must be finite")
        if not np.array_equal(sym, sym.T):
            skew = float(np.max(np.abs(sym - sym.T)))
            if skew > 1e-12 * float(np.max(np.abs(sym))):
                raise ValueError(f"matrix is not symmetric: max |A - A'| = {skew:.3g}")
            sym = 0.5 * (sym + sym.T)
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)
        object.__setattr__(self, "dim", sym.shape[0])
        object.__setattr__(self, "cholesky_factor", _cholesky_factor(sym))


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


def _triangular_solve(lower, b, transposed: bool) -> np.ndarray:
    """L y = b, or L' y = b when ``transposed``; L' is lower triangular in reversed index order."""
    lower, b = np.asarray(lower, dtype=float), np.asarray(b, dtype=float)
    d = lower.shape[0] if lower.ndim == 2 else -1
    if lower.shape != (d, d) or b.ndim == 0 or b.shape[-1] != d:
        raise ValueError(f"shapes of the factor {lower.shape} and the right-hand side {b.shape} are incompatible")
    if not (np.isfinite(lower).all() and np.isfinite(b).all()):
        raise ValueError("the factor and the right-hand side must be finite")
    if not np.diag(lower).all():
        raise np.linalg.LinAlgError("singular matrix: the factor has a zero on its diagonal")
    if transposed:
        lower, b = lower.T[::-1, ::-1], b[..., ::-1]
    columns = _substitute(lower, [b[..., j] * 1.0 for j in range(d)])
    return np.stack(columns[::-1] if transposed else columns, axis=-1)


def solve_lower_batch(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L y = b for lower triangular L; b has shape (..., d)."""
    return _triangular_solve(lower, b, False)


def solve_upper_batch(lower: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve L' x = y for lower triangular L; y has shape (..., d)."""
    return _triangular_solve(lower, y, True)


def _rhs(spd: SpdMatrix, b) -> np.ndarray:
    """b as a float array whose last axis has the dimension of S."""
    b = np.asarray(b, dtype=float)
    if b.ndim == 0 or b.shape[-1] != spd.dim:
        got = b.shape[-1] if b.ndim else "no axis"
        raise ValueError(f"dimension mismatch: matrix is {spd.dim}x{spd.dim}, vector has {got}")
    return b


def solve(s, b) -> np.ndarray:
    """Solve S x = b for SPD S; b may be a vector or a batch (..., d)."""
    spd = _as_spd(s)
    l = spd.cholesky_factor
    return solve_upper_batch(l, solve_lower_batch(l, _rhs(spd, b)))


def _substitute(lower: np.ndarray, columns: list) -> list:
    """Solve L h = z on the list of z's columns, replacing each by its column of h; returns the list.

    Array columns are updated in place, scalar ones replaced. Every row takes the same elementwise
    steps, so its result does not depend on the batch around it.
    """
    for j, row in enumerate(lower.tolist()):
        h = columns[j]
        for k in range(j):
            h -= row[k] * columns[k]
        h /= row[j]
        columns[j] = h
    return columns


def _whiten(s, z) -> list:
    """The columns of h = L^{-1} z, L L' = S, by forward substitution in numpy; z may be batched (..., d).

    Callers add products of columns in column order: for d < 8 the same sum, bit for bit, as a
    last-axis np.sum, without reducing over a short axis.
    """
    spd = _as_spd(s)
    z = _rhs(spd, z)
    # z[..., j] * 1.0 is a new array, or a scalar for one vector, so the substitution never writes into z
    return _substitute(spd.cholesky_factor, [z[..., j] * 1.0 for j in range(spd.dim)])


def quad_form(s, z) -> float | np.ndarray:
    """Quadratic form z' S^{-1} z, nonnegative; z may be batched (..., d)."""
    q = sum(h * h for h in _whiten(s, z))
    return float(q) if q.ndim == 0 else q


def sqrt_spd(s) -> SpdMatrix:
    """Symmetric square root M with M M equal to the input matrix."""
    eigvals, eigvecs = np.linalg.eigh(_as_spd(s).entries)
    if np.any(eigvals <= 0.0):
        raise NotPositiveDefiniteError("not positive definite")
    return SpdMatrix((eigvecs * np.sqrt(eigvals)) @ eigvecs.T)

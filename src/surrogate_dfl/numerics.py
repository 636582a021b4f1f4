"""Dense linear algebra kernel: symmetric indefinite solves and a matrix CSV dump.

Matrices are plain numpy float64 arrays in row-major (C) order; vectors are
1-d arrays.  Problem sizes in this package are at most a few hundred, so
everything is dense.
"""

from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

from .errors import DimensionMismatch, SingularMatrix

SYMMETRY_TOL = 1e-10
PIVOT_TOL = 1e-12


def as_matrix(a) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(v) -> np.ndarray:
    v = np.ascontiguousarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got ndim={v.ndim}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def solve_symmetric(A, B) -> np.ndarray:
    """Solve A X = B for symmetric (possibly indefinite) A.

    Uses the Bunch-Kaufman LDL^T factorization (LAPACK dsytrf/dsytrs), which
    is valid for the indefinite KKT systems this package builds.  Raises
    SingularMatrix when a 1x1 pivot of D, or the smaller eigenvalue of a 2x2
    pivot block, has magnitude below 1e-12.  B may be a vector or a matrix of
    stacked right-hand sides; the result has B's shape.  dsytrf's workspace
    is queried once per order n; a 1x1 A is symmetric as it stands, so only
    larger ones are checked.
    """
    A = as_matrix(A)
    n = A.shape[0]
    if A.shape[1] != n:
        raise DimensionMismatch("A must be square")
    if n > 1 and np.abs(A - A.T).max() > SYMMETRY_TOL * max(1.0, np.abs(A).max()):
        raise ValueError("A is not symmetric within tolerance")
    B = as_vector(B) if np.ndim(B) == 1 else as_matrix(B)
    if B.shape[0] != n:
        raise DimensionMismatch("B row count must match A")
    if n == 0:
        return np.empty_like(B)  # dsytrs rejects an empty system

    lu, ipiv, _ = lapack.dsytrf(A, lower=1, lwork=_dsytrf_lwork(n))
    _check_pivots(lu, ipiv)
    x = lapack.dsytrs(lu, ipiv, B, lower=1)[0]

    # one step of iterative refinement to hold the residual contract
    resid = B - A @ x
    if np.abs(resid).max(initial=0.0) > 1e-10 * (1.0 + np.abs(B).max(initial=0.0)):
        x = x + lapack.dsytrs(lu, ipiv, resid, lower=1)[0]
    return x


@lru_cache(maxsize=256)
def _dsytrf_lwork(n) -> int:
    """dsytrf's optimal workspace for order n, queried once per n."""
    return int(lapack.dsytrf_lwork(n, lower=1)[0])


def _check_pivots(lu, ipiv):
    """Raise SingularMatrix on a numerically singular pivot block of D.

    In dsytrf's lower storage a 2x2 block at k has ipiv[k] == ipiv[k+1] < 0,
    diagonal lu[k, k], lu[k+1, k+1] and off-diagonal lu[k+1, k]; every other
    k is a 1x1 pivot lu[k, k].  With no negative entry, every pivot is 1x1
    and there is no block to scan for.
    """
    d = lu.diagonal()
    small = np.abs(d) < PIVOT_TOL
    if ipiv.min() >= 0:  # only 1x1 pivots
        if small.any():
            raise SingularMatrix(f"pivot {small.argmax()} has magnitude below {PIVOT_TOL}")
        return
    k = np.flatnonzero(ipiv < 0)[::2]  # negative entries come in block pairs
    small[k] = small[k + 1] = False
    small = np.flatnonzero(small)
    if small.size:
        raise SingularMatrix(f"pivot {small[0]} has magnitude below {PIVOT_TOL}")
    a, b, off = d[k], d[k + 1], lu[k + 1, k]
    half_tr = 0.5 * (a + b)
    disc = np.sqrt(np.maximum(half_tr * half_tr - (a * b - off * off), 0.0))
    # eigenvalues are half_tr -+ disc; the smaller magnitude is ||half_tr| - disc|
    if np.any(np.abs(np.abs(half_tr) - disc) < PIVOT_TOL):
        raise SingularMatrix("2x2 pivot block is numerically singular")


def matrix_to_csv(A, path) -> None:
    """Debug dump: one row per line, '.' decimal separator, no header."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    with open(path, "w") as fh:
        for row in A:
            fh.write(",".join(format(x, ".12g") for x in row) + "\n")

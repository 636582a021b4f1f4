"""Oracles the tests check the package against; nothing in the package uses them."""

import numpy as np

from surrogate_dfl.surrogate import Reparameterization


def finite_diff_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle: (f(x + h e_i) - f(x - h e_i)) / 2h."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        g.flat[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def tight_rows(qp, y, tol: float = 1e-8) -> np.ndarray:
    """Indices, in order, of qp's inequality rows tight at y within tol."""
    return np.flatnonzero(np.abs(qp.Gineq @ y - qp.hineq) <= tol)


def identity_reparam(n: int) -> Reparameterization:
    """P = I_n in free mode: the surrogate that is the full problem."""
    return Reparameterization(P_raw=np.eye(n), mode="free", n=n, m=n)

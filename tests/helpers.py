"""Oracles the tests check the package against; nothing in the package uses them."""

import numpy as np

from surrogate_dfl import optlayer
from surrogate_dfl.optlayer import PrimalDualSolution
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


def dense_audit_kkt(qp, sol) -> dict:
    """optlayer.audit_kkt with every product dense: H y, G y and G^T lam
    as full matrix products."""
    y, nu, lam = sol.y, sol.nu, sol.lam
    stat = qp.H @ y + qp.c
    if qp.Aeq.shape[0]:
        stat = stat + qp.Aeq.T @ nu
    if qp.Gineq.shape[0]:
        stat = stat + qp.Gineq.T @ lam
    slack = qp.Gineq @ y - qp.hineq if qp.Gineq.shape[0] else np.zeros(0)
    return {
        "stationarity": float(np.max(np.abs(stat), initial=0.0)),
        "primal_eq": float(
            np.max(np.abs(qp.Aeq @ y - qp.beq), initial=0.0) if qp.Aeq.shape[0] else 0.0
        ),
        "primal_ineq": float(np.max(slack, initial=0.0)),
        "dual": float(np.max(-lam, initial=0.0)),
        "comp_slack": float(np.max(np.abs(lam * slack), initial=0.0)),
    }


def reference_selection(x, theta, picks):
    """The movie-rec selection as first written: a full stable sort on
    descending value."""
    vals = np.asarray(x, dtype=float)[:, None] * np.asarray(theta, dtype=float)
    order = np.argsort(-vals, axis=0, kind="stable")
    sel = np.zeros_like(vals)
    cols = np.arange(vals.shape[1])
    for r in range(picks):
        sel[order[r], cols] = 1.0
    return sel


def reference_objective(x, theta, picks):
    """domains.movierec_objective as its own partition of x_i theta_ij."""
    vals = np.asarray(x, dtype=float)[:, None] * np.asarray(theta, dtype=float)
    n = vals.shape[0]
    if picks == n:
        return float(vals.sum())
    return float(np.partition(vals, n - picks, axis=0)[n - picks :, :].sum())


def reference_supergradient(x, theta, picks):
    """g_i = sum_j theta_ij over users whose top-picks set (reference_selection)
    contains movie i."""
    return (reference_selection(x, theta, picks) * np.asarray(theta, dtype=float)).sum(axis=1)


def identity_reparam(n: int) -> Reparameterization:
    """P = I_n in free mode: the surrogate that is the full problem."""
    return Reparameterization(P_raw=np.eye(n), mode="free", n=n, m=n)


def scan_box_budget_qp(c, gamma: float, k: float) -> PrimalDualSolution:
    """optlayer.solve_box_budget_qp as it found mu's segment before its
    bisection: a linear scan of the segments between sorted breakpoints from
    mu = 0, taking the first with total(hi) <= k <= total(lo)."""
    c = np.asarray(c, dtype=float)
    two_g = 2.0 * gamma

    def total(mu):
        return float(np.sum(np.clip((c - mu) / two_g, 0.0, 1.0)))

    if total(0.0) <= k + 1e-12:
        mu = 0.0
    else:
        points = np.unique(np.concatenate([c, c - two_g, [0.0]]))
        points = np.sort(points[points >= 0.0])
        mu = points[-1]
        for lo, hi in zip(points[:-1], points[1:]):
            if total(hi) <= k <= total(lo):
                xm = (c - 0.5 * (lo + hi)) / two_g
                ones = int(np.sum(xm >= 1.0))
                interior = (xm > 0.0) & (xm < 1.0)
                cnt = int(np.sum(interior))
                if cnt == 0:
                    mu = hi
                else:
                    mu = (np.sum(c[interior]) - two_g * (k - ones)) / cnt
                break
    x = np.clip((c - mu) / two_g, 0.0, 1.0)
    lam_lower = np.maximum(mu - c, 0.0) * (x <= 0.0)
    lam_upper = np.maximum(c - two_g - mu, 0.0) * (x >= 1.0)
    lam = np.concatenate([lam_lower, lam_upper, [mu]])
    sol = PrimalDualSolution(y=x, nu=np.zeros(0), lam=lam, kkt_residual=0.0)
    return optlayer._certify(optlayer.box_budget_qp(c, gamma, k), sol)

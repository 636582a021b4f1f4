"""Property test: the adjoint dL/dP matches the dense Jacobian dy*/dP.

The reference below is the plain formulation the training loop used before
the adjoint: build dy*/dP (m x (n m)) column by column from the frozen KKT
system, solved densely, contract it with dL/dy and add the explicit term
dL/dx y*^T of x = P y.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from surrogate_dfl import optlayer
from surrogate_dfl.errors import EmptyFeasibleSet
from surrogate_dfl.optlayer import (
    box_budget_base,
    kkt_adjoint,
    kkt_jacobian_P,
    simplex_base,
)
from surrogate_dfl.surrogate import (
    MODES,
    init_reparam,
    materialize,
    transform_problem,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def dense_jacobian_P(sqp, sol):
    """dy*/dP with columns row-major over P entries (column i m + j is d/dP[i, j])."""
    P, base, qp = sqp.sp.P, sqp.sp.base, sqp.qp()
    n, m = P.shape
    act = np.nonzero(sol.lam > optlayer.STRICT_COMPLEMENTARITY_TOL)[0]
    me, ma = qp.Aeq.shape[0], len(act)
    y, H_x = sol.y, sqp.H_x
    is_base = act < base.G.shape[0]
    G_ab = base.G[act[is_base]]
    s_x = H_x @ (P @ y) + sqp.c_x + G_ab.T @ sol.lam[act[is_base]]
    if me:
        s_x = s_x + base.Aeq.T @ sol.nu
    PtHx = P.T @ H_x
    rhs = np.zeros((m + me + ma, n * m))
    for i in range(n):
        cols = np.s_[i * m : (i + 1) * m]
        rhs[:m, cols] = -s_x[i] * np.eye(m) - np.outer(PtHx[:, i], y)
        if me:
            rhs[m : m + me, cols] = -np.outer(base.Aeq[:, i], y)
        bot = np.zeros((ma, m))
        bot[is_base] = -np.outer(G_ab[:, i], y)
        rhs[m + me :, cols] = bot
    A = np.vstack([qp.Aeq, qp.Gineq[act]])
    k = A.shape[0]
    M = np.block([[qp.H, A.T], [A, np.zeros((k, k))]])
    return np.linalg.solve(M, rhs)[:m]


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    m=st.integers(1, 4),
    simplex=st.booleans(),
    mode=st.sampled_from(MODES),
    nonneg_y=st.booleans(),
    y_regularizer=st.booleans(),
)
def test_adjoint_dP_matches_dense_jacobian(seed, n, m, simplex, mode, nonneg_y, y_regularizer):
    rng = np.random.default_rng(seed)
    m = min(m, n)
    base = simplex_base(n) if simplex else box_budget_base(n, int(rng.integers(1, n + 1)))
    rep = init_reparam(n, m, mode, seed=int(rng.integers(2**31)))
    if mode == "free":
        rep.P_raw = rep.P_raw + rng.uniform(0.0, 0.8)
    P = materialize(rep)
    sp = transform_problem(base, P, nonneg_y=nonneg_y)
    M = rng.normal(size=(n, n))
    H_x = M @ M.T + 0.1 * np.eye(n)
    c_x = 3.0 * rng.normal(size=n)
    H_extra = rng.uniform(0.1, 1.0) * np.eye(m) if y_regularizer else None
    try:
        _, (sqp, qp, sol) = sp.solve(H_x, c_x, H_extra)
    except EmptyFeasibleSet:
        assume(False)
    dL_dx = rng.normal(size=n)
    dL_dy = P.T @ dL_dx

    got = kkt_jacobian_P(sqp, sol, kkt_adjoint(qp, sol, dL_dy), dL_dx)
    implicit = (dL_dy @ dense_jacobian_P(sqp, sol)).reshape(n, m)
    want = np.outer(dL_dx, sol.y) + implicit
    assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))

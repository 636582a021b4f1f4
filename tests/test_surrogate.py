import numpy as np
import pytest
from helpers import finite_diff_grad, identity_reparam

from surrogate_dfl.errors import (
    BadDimensions,
    DimensionMismatch,
    EmptyFeasibleSet,
    MaxIterations,
)
from surrogate_dfl.optlayer import (
    box_budget_base,
    kkt_adjoint,
    kkt_jacobian_P,
    simplex_base,
    solve_qp,
)
from surrogate_dfl.surrogate import (
    Reparameterization,
    SurrogateQp,
    default_m,
    grad_wrt_P,
    init_reparam,
    lift,
    materialize,
    transform_problem,
)


def test_materialize_free_identity():
    rep = Reparameterization(P_raw=np.eye(3), mode="free", n=3, m=3)
    assert np.array_equal(materialize(rep), np.eye(3))


def test_materialize_column_simplex_uniform():
    rep = Reparameterization(P_raw=np.zeros((4, 2)), mode="column-simplex", n=4, m=2)
    P = materialize(rep)
    assert np.allclose(P, 0.25)


def test_materialize_softplus_at_zero():
    rep = Reparameterization(P_raw=np.zeros((2, 2)), mode="nonneg", n=2, m=2)
    assert np.allclose(materialize(rep), np.log(2.0), atol=1e-12)


def test_column_simplex_invariants():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rep = init_reparam(6, 3, "column-simplex", seed=int(rng.integers(1e6)))
        P = materialize(rep)
        assert np.allclose(P.sum(axis=0), 1.0, atol=1e-12)
        assert P.min() > 0


def test_lift_identity_and_zero():
    y = np.array([0.2, 0.8])
    assert np.array_equal(lift(np.eye(2), y), y)
    assert np.allclose(lift(np.zeros((3, 2)), y), 0.0)
    with pytest.raises(DimensionMismatch):
        lift(np.eye(3), y)


def test_lift_column_simplex_maps_simplex_to_simplex():
    rng = np.random.default_rng(1)
    rep = init_reparam(5, 3, "column-simplex", seed=2)
    P = materialize(rep)
    for _ in range(20):
        y = rng.dirichlet(np.ones(3))
        x = lift(P, y)
        assert abs(x.sum() - 1.0) <= 1e-12
        assert x.min() >= 0


def test_transform_identity_is_neutral():
    base = simplex_base(4)
    sp = transform_problem(base, np.eye(4))
    assert np.array_equal(sp.y.Aeq, base.Aeq)
    assert np.array_equal(sp.y.G, base.G)
    assert np.array_equal(sp.y.h, base.h)


def test_transform_row_count_expansion():
    # movie-rec base 0 <= x <= 1, sum x <= k: 2n + 1 rows, plus y >= 0 rows
    base = box_budget_base(4, 2)
    P = np.abs(np.random.default_rng(3).normal(size=(4, 2))) + 0.05
    sp = transform_problem(base, P)
    assert sp.y.G.shape == (2 * 4 + 1, 2)
    sp2 = transform_problem(base, P, nonneg_y=True)
    assert sp2.y.G.shape == (2 * 4 + 1 + 2, 2)


def test_transform_column_simplex_gives_m_simplex():
    # columns sum to 1, so the equality row A P collapses to all-ones
    base = simplex_base(5)
    rep = init_reparam(5, 2, "column-simplex", seed=4)
    sp = transform_problem(base, materialize(rep), nonneg_y=True)
    assert np.allclose(sp.y.Aeq, 1.0, atol=1e-12)


def test_transform_empty_feasible_set():
    # sum x = 1 with x <= 0 is feasible in x only at... nowhere with P >= 0
    base = simplex_base(3)
    base.G = np.vstack([base.G, np.eye(3)])
    base.h = np.concatenate([base.h, np.full(3, -0.1)])  # x <= -0.1: empty
    sp = transform_problem(base, np.abs(np.random.default_rng(5).normal(size=(3, 2))))
    for _ in range(2):  # a failed first solve holds no start: the next one fails alike
        with pytest.raises(EmptyFeasibleSet, match="^surrogate feasible set is empty: "):
            sp.solve(np.eye(3), np.zeros(3))


def test_feasibility_roundtrip_invariant():
    # any solved surrogate lifts to a base-feasible x within 1e-8
    rng = np.random.default_rng(6)
    for _ in range(20):
        n, m = 6, 2
        base = simplex_base(n)
        rep = init_reparam(n, m, "column-simplex", seed=int(rng.integers(1e6)))
        P = materialize(rep)
        sp = transform_problem(base, P)
        M = rng.normal(size=(n, n))
        H = M @ M.T + np.eye(n)
        sqp = SurrogateQp(H_x=H, c_x=rng.normal(size=n), sp=sp)
        sol = solve_qp(sqp.qp())
        x = lift(P, sol.y)
        assert base.violation(x) <= 1e-8


def test_grad_wrt_P_zero_loss():
    for mode in ("free", "nonneg", "column-simplex"):
        rep = init_reparam(4, 2, mode, seed=7)
        assert np.allclose(grad_wrt_P(np.zeros((4, 2)), rep), 0.0), mode


def _solved_surrogate(seed):
    """(sqp, sol) of a solved 3 x 2 surrogate portfolio QP."""
    rng = np.random.default_rng(seed)
    P = np.abs(rng.normal(size=(3, 2))) + 0.3
    M = rng.normal(size=(3, 3))
    sqp = SurrogateQp(H_x=M @ M.T + np.eye(3), c_x=rng.normal(size=3),
                      sp=transform_problem(simplex_base(3), P))
    return sqp, solve_qp(sqp.qp())


def test_grad_wrt_P_pinned_product_rule():
    # a loss gradient orthogonal to P's columns leaves dL/dy = 0, so y* does
    # not move (zero adjoint) and the total derivative is the explicit term
    sqp, sol = _solved_surrogate(8)
    P = sqp.sp.P
    dL_dx = np.linalg.svd(P.T)[2][-1]  # spans the null space of P^T
    adjoint = kkt_adjoint(sqp.qp(), sol, P.T @ dL_dx)
    assert np.max(np.abs(adjoint[0])) <= 1e-12
    rep = Reparameterization(P_raw=P, mode="free", n=3, m=2)
    g = grad_wrt_P(kkt_jacobian_P(sqp, sol, adjoint, dL_dx), rep)
    assert np.allclose(g, np.outer(dL_dx, sol.y), atol=1e-12)


def test_fixed_y_linear_objective_product_rule():
    # f = c.x with y pinned (a zero adjoint): df/dP_ij = c_i y_j
    sqp, sol = _solved_surrogate(9)
    c = np.array([1.0, 2.0, -1.0])
    pinned = (np.zeros(2), np.zeros(1), np.zeros(0), np.zeros(0, dtype=int))
    assert np.array_equal(kkt_jacobian_P(sqp, sol, pinned, c), np.outer(c, sol.y))


def test_grad_wrt_P_rejects_implicit_shape():
    rep = init_reparam(3, 2, "free", seed=9)
    with pytest.raises(DimensionMismatch):
        grad_wrt_P(np.zeros((2, 3)), rep)


def test_grad_wrt_P_matches_fd():
    rng = np.random.default_rng(10)
    for mode in ("free", "nonneg", "column-simplex"):
        rep = init_reparam(4, 2, mode, seed=11)
        W = rng.normal(size=(4, 2))

        def loss_of(flat):
            r = Reparameterization(P_raw=flat.reshape(4, 2), mode=mode, n=4, m=2)
            return float(np.sum(W * materialize(r)))

        fd = finite_diff_grad(loss_of, rep.P_raw.ravel().copy(), h=1e-6)
        an = grad_wrt_P(W, rep).ravel()
        assert np.max(np.abs(fd - an)) <= 1e-8, mode


def test_full_gradient_matches_fd_through_solver():
    # end-to-end loss through solve_qp, mode free, small portfolio instance
    rng = np.random.default_rng(12)
    n, m = 4, 2
    base = simplex_base(n)
    M = rng.normal(size=(n, n))
    H = M @ M.T + np.eye(n)
    c = rng.normal(size=n)
    p_true = rng.normal(0.05, 0.1, n)
    rep = init_reparam(n, m, "free", seed=13)
    rep.P_raw = rep.P_raw + 0.6  # keep the surrogate region comfortably feasible

    def end_to_end(flat):
        P = flat.reshape(n, m)
        sp = transform_problem(base, P)
        sol = solve_qp(SurrogateQp(H_x=H, c_x=c, sp=sp).qp())
        x = P @ sol.y
        return float(-(p_true @ x))  # linear decision loss

    P0 = materialize(rep)
    sp = transform_problem(base, P0)
    sqp = SurrogateQp(H_x=H, c_x=c, sp=sp)
    sol = solve_qp(sqp.qp())
    dL_dx = -p_true
    dL_dy = P0.T @ dL_dx
    dL_dP = kkt_jacobian_P(sqp, sol, kkt_adjoint(sqp.qp(), sol, dL_dy), dL_dx)
    an = grad_wrt_P(dL_dP, rep).ravel()
    fd = finite_diff_grad(end_to_end, rep.P_raw.ravel().copy(), h=1e-6)
    assert np.max(np.abs(fd - an) / np.maximum(1.0, np.abs(an))) <= 1e-4


def test_jacobian_P_fd_total_derivative():
    # total derivative of f(P y*, theta) w.r.t. P matches finite differences
    rng = np.random.default_rng(14)
    n, m = 4, 2
    base = simplex_base(n)
    M = rng.normal(size=(n, n))
    H_x = M @ M.T + np.eye(n)
    c_x = rng.normal(size=n)

    def opt_value(flat):
        P = flat.reshape(n, m)
        sp = transform_problem(base, P)
        qp = SurrogateQp(H_x=H_x, c_x=c_x, sp=sp).qp()
        sol = solve_qp(qp)
        x = P @ sol.y
        return float(0.5 * x @ H_x @ x + c_x @ x)

    P0 = np.abs(rng.normal(size=(n, m))) + 0.3
    sp = transform_problem(base, P0)
    sqp = SurrogateQp(H_x=H_x, c_x=c_x, sp=sp)
    sol = solve_qp(sqp.qp())
    x0 = P0 @ sol.y
    dL_dx = H_x @ x0 + c_x
    dL_dP = kkt_jacobian_P(sqp, sol, kkt_adjoint(sqp.qp(), sol, P0.T @ dL_dx), dL_dx)
    rep = Reparameterization(P_raw=P0, mode="free", n=n, m=m)
    an = grad_wrt_P(dL_dP, rep).ravel()
    fd = finite_diff_grad(opt_value, P0.ravel().copy(), h=1e-6)
    assert np.max(np.abs(fd - an) / np.maximum(1.0, np.abs(an))) <= 1e-4


def test_default_m_rule():
    assert default_m(50) == 5
    assert default_m(7) == 1  # ceil(0.7)
    assert default_m(100) == 10


def test_init_reparam_deterministic():
    a = init_reparam(6, 2, "free", seed=42)
    b = init_reparam(6, 2, "free", seed=42)
    assert np.array_equal(a.P_raw, b.P_raw)
    assert np.max(np.abs(a.P_raw)) <= 0.5


def test_init_reparam_bad_dimensions():
    with pytest.raises(BadDimensions):
        init_reparam(3, 5, "free", seed=0)
    with pytest.raises(BadDimensions):
        init_reparam(3, 0, "free", seed=0)


def test_identity_reparam():
    rep = identity_reparam(4)
    assert np.array_equal(materialize(rep), np.eye(4))


def test_export_reparam_csv(tmp_path):
    from surrogate_dfl.surrogate import export_reparam_csv

    rep = init_reparam(5, 2, "column-simplex", seed=15)
    path = tmp_path / "p.csv"
    export_reparam_csv(rep, path)
    P = np.loadtxt(path, delimiter=",", ndmin=2)
    assert P.shape == (5, 2)
    assert np.allclose(P, materialize(rep), atol=1e-10)


@pytest.mark.xfail(raises=MaxIterations, strict=True,
                   reason="the pivots cycle on this degenerate y-space set")
def test_degenerate_y_space_box_budget_draw_solves():
    # at y = 0 every transformed lower-bound row -(P y)_i <= 0 is tight,
    # n_x = 8 rows in m = 3 dimensions, and the pivots loop there from the
    # phase-one start: the draw raises MaxIterations at a cap of 20000 too
    rng = np.random.default_rng(384)
    n_x, m = int(rng.integers(5, 25)), int(rng.integers(1, 6))
    k = int(rng.integers(1, n_x + 1))
    P = rng.uniform(0.05, 1, (n_x, m))
    P /= P.sum(axis=0)
    F = rng.normal(size=(n_x, 3))
    H_x = F @ F.T / 3 + 0.01 * np.eye(n_x)
    c_x = rng.normal(size=n_x)
    assert (n_x, m, k) == (8, 3, 3)
    base = box_budget_base(n_x, k)
    x, (_, _, sol) = transform_problem(base, P).solve(H_x, c_x, 0.5 * np.eye(m))
    assert sol.kkt_residual <= 1e-8 and base.violation(x) <= 1e-8

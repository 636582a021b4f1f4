import numpy as np
import pytest
from helpers import tight_rows

from surrogate_dfl import surrogate
from surrogate_dfl.errors import DimensionMismatch, Infeasible, MaxIterations
from surrogate_dfl.optlayer import (
    BaseProblem,
    QuadraticProgram,
    audit_kkt,
    box_budget_base,
    box_budget_qp,
    kkt_adjoint,
    kkt_jacobian_P,
    solve_box_budget_qp,
    solve_qp,
)


def simplex_qp(H, c, n):
    return QuadraticProgram(
        H=H, c=c, Aeq=np.ones((1, n)), beq=np.array([1.0]),
        Gineq=-np.eye(n), hineq=np.zeros(n),
    )


def independent_kkt_audit(qp, sol, tol=1e-8):
    """Recomputed from scratch so the check shares nothing with the solver."""
    stat = qp.H @ sol.y + qp.c
    if qp.Aeq.shape[0]:
        stat = stat + qp.Aeq.T @ sol.nu
        assert np.max(np.abs(qp.Aeq @ sol.y - qp.beq)) <= tol
    if qp.Gineq.shape[0]:
        stat = stat + qp.Gineq.T @ sol.lam
        slack = qp.Gineq @ sol.y - qp.hineq
        assert np.max(slack) <= tol
        assert sol.lam.min() >= -1e-10
        assert np.max(np.abs(sol.lam * slack)) <= tol
    assert np.max(np.abs(stat)) <= tol


def test_min_norm_on_simplex():
    sol = solve_qp(simplex_qp(2 * np.eye(2), np.zeros(2), 2))
    assert np.allclose(sol.y, [0.5, 0.5], atol=1e-10)
    independent_kkt_audit(simplex_qp(2 * np.eye(2), np.zeros(2), 2), sol)


def test_markowitz_two_asset():
    # max p.x - 2 x.x on the simplex; closed form x = (p - nu)/4, nu = -1.85
    p = np.array([0.1, 0.2])
    qp = simplex_qp(4 * np.eye(2), -p, 2)
    sol = solve_qp(qp)
    assert np.allclose(sol.y, [0.4875, 0.5125], atol=1e-10)
    assert abs(sol.nu[0] - (-1.85)) <= 1e-10
    independent_kkt_audit(qp, sol)


def test_active_inequality():
    # min ||y||^2 s.t. y1 + y2 = 1, y2 <= 0: substitute y2 = 0
    qp = QuadraticProgram(
        H=2 * np.eye(2), c=np.zeros(2), Aeq=np.ones((1, 2)), beq=np.array([1.0]),
        Gineq=np.array([[0.0, 1.0]]), hineq=np.zeros(1),
    )
    sol = solve_qp(qp)
    assert np.allclose(sol.y, [1.0, 0.0], atol=1e-10)
    assert 0 in tight_rows(qp, sol.y)
    assert sol.lam[0] > 1e-8
    independent_kkt_audit(qp, sol)


def test_random_qps_pass_independent_audit():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        M = rng.normal(size=(n, n))
        H = M @ M.T + np.eye(n)
        c = rng.normal(size=n)
        qp = QuadraticProgram(
            H=H, c=c, Aeq=rng.normal(size=(1, n)), beq=rng.normal(size=1),
            Gineq=-np.eye(n), hineq=rng.uniform(0.5, 2.0, n),
        )
        sol = solve_qp(qp)
        independent_kkt_audit(qp, sol)
        assert sol.kkt_residual <= 1e-8


def test_scale_consistency():
    rng = np.random.default_rng(1)
    n = 5
    M = rng.normal(size=(n, n))
    H = M @ M.T + np.eye(n)
    c = rng.normal(size=n)
    qp1 = simplex_qp(H, c, n)
    sol1 = solve_qp(qp1)
    for alpha in (0.1, 10.0):
        sol2 = solve_qp(simplex_qp(alpha * H, alpha * c, n))
        assert np.max(np.abs(sol2.y - sol1.y)) <= 1e-8
        assert np.max(np.abs(sol2.nu - alpha * sol1.nu)) <= 1e-6 * alpha
        assert np.max(np.abs(sol2.lam - alpha * sol1.lam)) <= 1e-6 * alpha


def test_sets_and_qps_check_their_blocks_chain():
    # G of 4 columns for n = 3, h one short of G's rows, beq one past Aeq's:
    # a set rejects each, and a QP's rows are checked as a set's
    for Aeq, beq, G, h in [(None, None, np.eye(4), np.zeros(4)),
                           (None, None, np.eye(3), np.zeros(2)),
                           (np.ones((1, 3)), np.ones(2), None, None)]:
        with pytest.raises(DimensionMismatch):
            BaseProblem(3, Aeq, beq, G, h)
        with pytest.raises(DimensionMismatch):
            QuadraticProgram(np.eye(3), np.zeros(3), Aeq, beq, G, h)
    assert BaseProblem(3).qp(np.eye(3)).Gineq.shape == (0, 3)


def test_infeasible_raises():
    qp = QuadraticProgram(
        H=np.eye(1), c=np.zeros(1),
        Gineq=np.array([[1.0], [-1.0]]), hineq=np.array([-2.0, 1.0]),  # x <= -2, x >= -1
    )
    with pytest.raises(Infeasible):
        solve_qp(qp)


def test_inconsistent_equalities_raise():
    qp = QuadraticProgram(
        H=np.eye(2), c=np.zeros(2),
        Aeq=np.array([[1.0, 1.0], [1.0, 1.0]]), beq=np.array([1.0, 2.0]),
    )
    with pytest.raises(Infeasible):
        solve_qp(qp)


def test_max_iterations_raises():
    qp = simplex_qp(np.diag([2.0, 4.0, 8.0]), np.array([-1.0, 0.1, 0.5]), 3)
    with pytest.raises(MaxIterations):
        solve_qp(qp, max_iter=1)


def jacobian_theta(qp, sol):
    """dy*/dtheta for c = -theta from the adjoint: row j is z_y for dL/dy = e_j."""
    return np.array([kkt_adjoint(qp, sol, e_j)[0] for e_j in np.eye(qp.n)])


def test_markowitz_jacobian_closed_form():
    # differentiate x = (p - nu 1)/4 with nu = (sum p - 4)/2
    p = np.array([0.1, 0.2])
    qp = simplex_qp(4 * np.eye(2), -p, 2)
    sol = solve_qp(qp)
    J = jacobian_theta(qp, sol)
    expected = (np.eye(2) - 0.5 * np.ones((2, 2))) / 4.0
    assert np.allclose(J, expected, atol=1e-12)
    assert abs(J[0, 0] - 0.125) <= 1e-12 and abs(J[0, 1] + 0.125) <= 1e-12


def test_equality_only_jacobian_matches_block_inverse():
    rng = np.random.default_rng(2)
    n, me = 5, 2
    M = rng.normal(size=(n, n))
    H = M @ M.T + np.eye(n)
    A = rng.normal(size=(me, n))
    b = rng.normal(size=me)
    theta0 = rng.normal(size=n)
    qp = QuadraticProgram(H=H, c=-theta0, Aeq=A, beq=b)
    sol = solve_qp(qp)
    J = jacobian_theta(qp, sol)
    # oracle: top-left block of the explicit KKT inverse
    K = np.block([[H, A.T], [A, np.zeros((me, me))]])
    expected = np.linalg.inv(K)[:n, :n]
    assert np.allclose(J, expected, atol=1e-9)


def fd_jacobian_column(make_qp, theta, i, h=1e-5):
    e = np.zeros_like(theta)
    e[i] = h
    y_p = solve_qp(make_qp(theta + e))
    y_m = solve_qp(make_qp(theta - e))
    return (y_p.y - y_m.y) / (2.0 * h), y_p, y_m


def strong_set(sol):
    return frozenset(np.nonzero(sol.lam > 1e-8)[0])


def test_jacobian_theta_fd_property():
    # module invariant: 100 random strictly convex QPs, skips < 20%
    rng = np.random.default_rng(3)
    skipped = total = 0
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        M = rng.normal(size=(n, n))
        H = M @ M.T + np.eye(n)
        Aeq = rng.normal(size=(1, n))
        beq = rng.normal(size=1)
        hvec = rng.uniform(0.5, 2.0, n)

        def make_qp(theta):
            return QuadraticProgram(H=H, c=-theta, Aeq=Aeq, beq=beq,
                                    Gineq=-np.eye(n), hineq=hvec)

        theta = rng.normal(size=n)
        qp = make_qp(theta)
        sol = solve_qp(qp)
        J = jacobian_theta(qp, sol)
        base_set = strong_set(sol)
        for i in range(n):
            total += 1
            fd, sp_sol, sm_sol = fd_jacobian_column(make_qp, theta, i)
            if strong_set(sp_sol) != base_set or strong_set(sm_sol) != base_set:
                skipped += 1
                continue
            worst = max(worst, float(np.max(np.abs(fd - J[:, i]) / np.maximum(1.0, np.abs(J[:, i])))))
    assert skipped / total < 0.20, f"skip rate {skipped/total:.2%}"
    assert worst <= 1e-4, f"worst fd error {worst:.2e}"


def test_jacobian_h_dependence_fd():
    # theta enters H: H(t) = H0 + t * S
    rng = np.random.default_rng(5)
    n = 4
    M = rng.normal(size=(n, n))
    H0 = M @ M.T + np.eye(n)
    S = rng.normal(size=(n, n))
    S = S + S.T
    c = rng.normal(size=n)

    def make_qp(t):
        return QuadraticProgram(H=H0 + t[0] * S, c=c, Aeq=np.ones((1, n)),
                                beq=np.array([1.0]), Gineq=-np.eye(n), hineq=np.zeros(n))

    qp = make_qp(np.zeros(1))
    sol = solve_qp(qp)
    # along dH = S, dL = -z_y . (S y*): row j of the column is that for dL/dy = e_j
    J = np.array([[-kkt_adjoint(qp, sol, e_j)[0] @ (S @ sol.y)] for e_j in np.eye(n)])
    fd, _, _ = fd_jacobian_column(make_qp, np.zeros(1), 0)
    assert np.max(np.abs(fd - J[:, 0]) / np.maximum(1.0, np.abs(J[:, 0]))) <= 1e-4


def test_jacobian_P_zero_objective():
    # H = 1e-8 ridge only, c = 0: the optimum sits at the interior origin,
    # so dy*/dP and the explicit term dL/dx y*^T both vanish
    n, m = 4, 2
    base = box_budget_base(n, 2)
    P = np.random.default_rng(6).uniform(0.1, 1.0, (n, m))
    sp = surrogate.transform_problem(base, P)
    sqp = surrogate.SurrogateQp(H_x=np.zeros((n, n)), c_x=np.zeros(n), sp=sp,
                                H_extra=1e-8 * np.eye(m))
    qp = sqp.qp()
    sol = solve_qp(qp)
    # row j of dy*/dP is the vector-Jacobian product with dL/dy = P^T dL/dx = e_j
    for e_j in np.eye(m):
        dL_dx = np.linalg.lstsq(P.T, e_j, rcond=None)[0]
        J_j = kkt_jacobian_P(sqp, sol, kkt_adjoint(qp, sol, P.T @ dL_dx), dL_dx)
        assert np.max(np.abs(J_j)) <= 1e-6


def test_box_budget_matches_general_solver():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(3, 25))
        c = rng.normal(rng.uniform(-1, 2), rng.uniform(0.3, 3.0), n)
        gamma = rng.uniform(0.05, 1.0)
        k = int(rng.integers(1, n + 1))
        fast = solve_box_budget_qp(c, gamma, k)
        slow = solve_qp(box_budget_qp(c, gamma, k))
        assert np.max(np.abs(fast.y - slow.y)) <= 1e-9
        assert fast.kkt_residual <= 1e-8
        independent_kkt_audit(box_budget_qp(c, gamma, k), fast)


def test_box_budget_solves_share_one_qp(monkeypatch):
    # each solve certifies against a sibling of the one c = 0 QP held for its
    # (n, gamma, k), so twenty solves build at most one QuadraticProgram
    built = []
    post_init = QuadraticProgram.__post_init__
    monkeypatch.setattr(QuadraticProgram, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    rng = np.random.default_rng(8)
    for _ in range(20):
        assert solve_box_budget_qp(rng.normal(size=7), 0.3, 2).kkt_residual <= 1e-8
    assert len(built) <= 1


def test_kkt_adjoint_rejects_dL_dy_of_another_length():
    # one entry too many or too few; the third coordinate's bound is frozen
    qp = simplex_qp(2 * np.eye(3), np.array([0.1, -0.2, 3.0]), 3)
    sol = solve_qp(qp)
    assert sol.lam[2] > 0
    for size in (4, 2):
        with pytest.raises(DimensionMismatch):
            kkt_adjoint(qp, sol, np.ones(size))


def test_audit_kkt_flags_bad_solution():
    qp = simplex_qp(2 * np.eye(2), np.zeros(2), 2)
    sol = solve_qp(qp)
    sol.y = np.array([0.9, 0.1])  # not the optimum
    res = audit_kkt(qp, sol)
    assert res["stationarity"] > 1e-3

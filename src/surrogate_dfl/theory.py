"""Numerical verification of the reparameterization theory.

Hessian-based checks for preservation of convexity and DR-submodularity, the
3x2 counterexample showing the optimal-value map is not jointly quasiconvex
in P, a probe of per-column quasiconvexity, and the Rademacher bound
calculator for the linear-hypothesis sample-complexity result.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated, InvalidInputs, SurrogateDflError
from .numerics import as_matrix
from .optlayer import BaseProblem, simplex_base
from .surrogate import transform_problem


@dataclass
class CheckResult:
    passed: bool
    worst: float


def check_convexity_preservation(hessian, P, sample_points, tol: float = 1e-8) -> CheckResult:
    """Convexity carries over to y-space: P^T H(x) P must stay PSD.

    hessian is a callable x -> d2f/dx2; passes iff the minimum eigenvalue of
    the reparameterized Hessian is >= -tol at every sample point.
    """
    P = as_matrix(P)
    worst = np.inf
    for x in sample_points:
        H = np.asarray(hessian(np.asarray(x, dtype=float)))
        G = P.T @ H @ P
        eigs = np.linalg.eigvalsh(0.5 * (G + G.T))
        worst = min(worst, float(eigs[0]))
    return CheckResult(passed=worst >= -tol, worst=worst)


def check_dr_preservation(hessian, P, sample_points, tol: float = 1e-8) -> CheckResult:
    """Diminishing returns carry over when P >= 0: every entry of P^T H P
    must stay nonpositive given an entrywise-nonpositive H."""
    P = as_matrix(P)
    if np.min(P) < -1e-12:
        raise HypothesisViolated("P has negative entries; the DR argument needs P >= 0")
    worst = -np.inf
    for x in sample_points:
        H = np.asarray(hessian(np.asarray(x, dtype=float)))
        G = P.T @ H @ P
        worst = max(worst, float(np.max(G)))
    return CheckResult(passed=worst <= tol, worst=worst)


def counterexample_opt(P) -> float:
    """min_y || P y - (1,1,1) ||^2, unconstrained, by least squares."""
    P = as_matrix(P)
    target = np.ones(P.shape[0])
    y, *_ = np.linalg.lstsq(P, target, rcond=None)
    r = P @ y - target
    return float(r @ r)


def counterexample_matrices():
    """The two 3x2 reparameterizations whose midpoint loses the optimum."""
    P = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    P_prime = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 0.0]])
    return P, P_prime


@dataclass
class ProbeReport:
    trials: int
    violations: int
    errors: int
    worst_gap: float

    @property
    def passed(self):
        return self.violations == 0 and self.errors == 0


def _surrogate_opt(H, c, base: BaseProblem, P, max_iter: int = 300) -> float:
    """OPT(theta, P): minimum of the reparameterized quadratic over the
    y-space feasible set, with y >= 0 declared (the setting under which
    per-column quasiconvexity holds)."""
    _, (_, qp, sol) = transform_problem(base, P, nonneg_y=True).solve(H, c, max_iter=max_iter)
    y = sol.y
    return float(0.5 * y @ qp.H @ y + qp.c @ y)


def coordinate_quasiconvexity_probe(
    H,
    c,
    base: BaseProblem,
    P,
    column_index: int,
    trials: int = 200,
    tol: float = 1e-6,
    seed: int = 0,
) -> ProbeReport:
    """Empirical check that OPT(theta, P) is quasiconvex in one column of P.

    Each trial replaces column `column_index` with two nonnegative draws a, b
    and a point on the segment between them: quasiconvexity demands
    OPT(s a + (1-s) b) <= max(OPT(a), OPT(b)) + tol.  A package error
    (SurrogateDflError) is counted per trial, not fatal; any other exception
    propagates.
    """
    H = as_matrix(H)
    P = as_matrix(P)
    rng = np.random.default_rng(seed)
    n, m = P.shape
    violations = errors = 0
    worst = -np.inf
    for _ in range(trials):
        a = rng.uniform(0.05, 1.0, n)
        b = rng.uniform(0.05, 1.0, n)
        s = rng.uniform(0.0, 1.0)
        try:
            vals = []
            for col in (a, b, s * a + (1 - s) * b):
                Pt = P.copy()
                Pt[:, column_index] = col
                vals.append(_surrogate_opt(H, c, base, Pt))
            gap = vals[2] - max(vals[0], vals[1])
            worst = max(worst, gap)
            if gap > tol:
                violations += 1
        except SurrogateDflError:
            errors += 1
    return ProbeReport(trials=trials, violations=violations, errors=errors, worst_gap=worst)


def full_matrix_segment_probe(
    P_a, P_b, opt=counterexample_opt, samples: int = 9, tol: float = 1e-6
) -> ProbeReport:
    """The same quasiconvexity inequality along a full-matrix segment.

    With the counterexample pair this reports violations: the optimum jumps
    from 0 at the endpoints to 1/3 at the midpoint.
    """
    P_a, P_b = as_matrix(P_a), as_matrix(P_b)
    end = max(opt(P_a), opt(P_b))
    violations = 0
    worst = -np.inf
    for s in np.linspace(0.0, 1.0, samples + 2)[1:-1]:
        gap = opt(s * P_a + (1 - s) * P_b) - end
        worst = max(worst, gap)
        if gap > tol:
            violations += 1
    return ProbeReport(trials=samples, violations=violations, errors=0, worst_gap=worst)


@dataclass
class BoundInputs:
    """Inputs to the linear-hypothesis Rademacher bound."""

    m: int
    C: float
    p_dim: int
    t: int
    pinv_norm: float
    diameter: float

    def validate(self):
        vals = [self.m, self.C, self.p_dim, self.t, self.pinv_norm, self.diameter]
        if any(v <= 0 for v in vals):
            raise InvalidInputs("all bound inputs must be strictly positive")
        if self.t < 1:
            raise InvalidInputs("t must be at least 1")
        if 2.0 * self.m * self.t * self.pinv_norm * self.diameter <= 1.0:
            raise InvalidInputs("log argument 2 m t |P+| rho must exceed 1")


def rademacher_bound(inputs: BoundInputs) -> float:
    """Leading term 2 m C sqrt(2 p log(2 m t |P+| rho) / t).

    The O(1/t) remainder has no stated constant and is excluded.
    """
    inputs.validate()
    log_arg = 2.0 * inputs.m * inputs.t * inputs.pinv_norm * inputs.diameter
    return (
        2.0
        * inputs.m
        * inputs.C
        * math.sqrt(2.0 * inputs.p_dim * math.log(log_arg) / inputs.t)
    )


# ---------------------------------------------------------------------------
# the theory-check suite


def run_theory_checks(seed: int = 0):
    """Every theory witness as one (name, passed, value, expectation) row."""
    rng = np.random.default_rng(seed)
    rows = []

    def record(name, passed, value, expect):
        rows.append({"check": name, "passed": bool(passed), "value": value, "expected": expect})

    # convexity preservation: ||x||^2, portfolio minimization form, random SPD
    n = 6
    samples = [rng.uniform(0, 1, n) for _ in range(3)]
    objectives = {
        "convexity_sq_norm": lambda x: 2.0 * np.eye(n),
    }
    M = rng.normal(size=(n, n))
    Q = M @ M.T / n + 1e-3 * np.eye(n)
    objectives["convexity_portfolio_min_form"] = lambda x: 4.0 * Q  # lambda = 2
    M2 = rng.normal(size=(n, n))
    spd = M2 @ M2.T + np.eye(n)
    objectives["convexity_random_spd"] = lambda x: spd
    for name, hess in objectives.items():
        worst_pass, worst_val = True, np.inf
        for _ in range(50):
            P = rng.normal(size=(n, 3))
            res = check_convexity_preservation(hess, P, samples)
            worst_pass &= res.passed
            worst_val = min(worst_val, res.worst)
        record(name, worst_pass, worst_val, ">= -1e-8 min eigenvalue")

    # DR preservation on random nonpositive-Hessian quadratics
    ok, worst = True, -np.inf
    for _ in range(50):
        H = -np.abs(rng.normal(size=(n, n)))
        H = 0.5 * (H + H.T)
        P = np.abs(rng.normal(size=(n, 3)))
        res = check_dr_preservation(lambda x: H, P, samples)
        ok &= res.passed
        worst = max(worst, res.worst)
    record("dr_submodularity_preservation", ok, worst, "<= 1e-8 max entry")

    # counterexample triple (0, 0, 1/3)
    P, Pp = counterexample_matrices()
    vals = (
        counterexample_opt(P),
        counterexample_opt(Pp),
        counterexample_opt(0.5 * P + 0.5 * Pp),
    )
    ok = (
        abs(vals[0]) <= 1e-9
        and abs(vals[1]) <= 1e-9
        and abs(vals[2] - 1.0 / 3.0) <= 1e-9
    )
    record("counterexample_opt_triple", ok, vals, "(0, 0, 1/3) within 1e-9")

    # single-column quasiconvexity: 0 violations expected
    base = simplex_base(n)
    p_vec = rng.uniform(-0.1, 0.1, n)
    probe = coordinate_quasiconvexity_probe(
        H=4.0 * Q, c=-p_vec, base=base, P=np.abs(rng.uniform(0.05, 1.0, (n, 3))),
        column_index=1, trials=200, seed=seed + 1,
    )
    record(
        "column_quasiconvexity_probe",
        probe.passed,
        {"violations": probe.violations, "errors": probe.errors, "worst_gap": probe.worst_gap},
        f"0 violations over {probe.trials} trials",
    )

    # full-matrix segment between the counterexample endpoints must violate
    seg = full_matrix_segment_probe(P, Pp)
    record(
        "full_matrix_segment_violation",
        seg.violations >= 1,
        {"violations": seg.violations, "worst_gap": seg.worst_gap},
        ">= 1 violation on the P <-> P' segment",
    )

    # worked bound value
    val = rademacher_bound(
        BoundInputs(m=2, C=1.0, p_dim=3, t=100, pinv_norm=1.0, diameter=math.sqrt(2.0))
    )
    record("rademacher_worked_value", abs(val - 2.4668) <= 1e-3, val, "2.4668 +- 1e-3")

    return rows


def write_theory_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("check,passed,value,expected\n")
        for r in rows:
            value = str(r["value"]).replace(",", ";")
            fh.write(f"{r['check']},{int(r['passed'])},{value},{r['expected'].replace(',', ';')}\n")

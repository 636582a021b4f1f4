"""Constrained solvers and implicit differentiation through KKT conditions.

A feasible set has one format, BaseProblem (Aeq z = beq, G z <= h): the
domains' x-space sets (simplex_base, box_budget_base), their y-space images
and every QP's rows, which QuadraticProgram normalizes and checks as a
BaseProblem's.  BaseProblem.qp(H) is the QP of Hessian H and c = 0 on a set,
whose with_c siblings are the QPs of a pass.

solve_qp is a primal active-set method: exact active sets at the optimum are
what make the downstream KKT Jacobians well defined.  Feasibility comes from
a phase-one pass that minimizes the worst constraint violation as a
regularized QP.  The optimum is differentiated through its KKT system
linearized with the active set frozen, and only by vector-Jacobian products:
kkt_adjoint solves the adjoint of that system once, with the loss gradient
as right-hand side, and the solution serves every parameter; kkt_jacobian_P
turns it into an instance's dL/dP for a reparameterized QP with two outer
products (OptNet's backward pass, Amos & Kolter 2017, sec. 3).  The frozen
set is the solvers' own strongly active rows, unfiltered (kkt_adjoint).

Simple-bound rows (one nonzero, s x_j <= h) stay out of every factorization.
A bound in the working set or the frozen active set fixes its coordinate;
the KKT system is solved over the free coordinates with the equality and
general rows only, and the bound's multiplier is read back from the
stationarity row of its coordinate (the null-space treatment of bounds,
Nocedal & Wright, Numerical Optimization, ch. 16).  A QP classifies its rows
and assembles the KKT matrix of H, the equality rows and the general rows
once (_Rows); the QPs of a pass differ only in c and share them
(QuadraticProgram.with_c).  A QP keeps H's symmetric part, so that matrix is
exactly symmetric.  Each pivot gathers its working-set system from it and
solves it by LU (LAPACK dgesv), one solve per working set: a full step
leaves the working set unchanged and lands on its minimizer, so the next
pivot goes straight to the multipliers; kkt_adjoint gathers its frozen
system from the same matrix by the same mask (_Rows._system), and solves it
whole when H is dense or by its Schur complement over the equality and
frozen general rows when H is diagonal with positive entries.  The bound
rows' multipliers come from one product of the matrix's first n rows with
the solution.  A QP with no bound row skips all of that bound bookkeeping,
in its pivots and in its adjoint.  When every row is a bound, the ratio
test reads G p and G x off the bounds' coordinates.  It drops the working row with the most
negative multiplier, or the lowest-index negative one after a zero-length
step (Bland's rule, against cycling).  Phase one runs inside solve_qp only,
when the caller passes no start (x0, working) that fits: a feasible x0
tight on its working rows replaces it (a crash start, Nocedal & Wright
ch. 16.5), and so does the optimum of another QP on the same rows with its
rows of positive multiplier.  surrogate.SurrogateProblem.solve gives the
first y-space solve on a set no start and each later one the optimum
before it.  Every solution is certified: solve_qp and solve_box_budget_qp
raise NumericalBreakdown when the KKT residual exceeds 1e-8 (1 + max(|H|,
|c|, |h|)); the box-budget QPs certified are siblings of one QP held per
(n, gamma, k).
"""

import bisect
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DimensionMismatch,
    Infeasible,
    MaxIterations,
    NumericalBreakdown,
    SingularKKT,
    SingularMatrix,
)
from .numerics import as_matrix, as_vector, solve_symmetric

STEP_TOL = 1e-11
MULT_TOL = 1e-11
FEAS_TOL = 1e-9
STRICT_COMPLEMENTARITY_TOL = 1e-8
KKT_TOL = 1e-8


@dataclass
class BaseProblem:
    """A feasible set in n variables: Aeq z = beq plus inequality rows G z <= h.

    Aeq/G may be None when a block is absent; the blocks must chain with n.
    """

    n: int
    Aeq: np.ndarray = None
    beq: np.ndarray = None
    G: np.ndarray = None
    h: np.ndarray = None

    def __post_init__(self):
        if self.Aeq is None:
            self.Aeq = np.zeros((0, self.n))
            self.beq = np.zeros(0)
        else:
            self.Aeq = as_matrix(self.Aeq)
            self.beq = as_vector(self.beq)
        if self.G is None:
            self.G = np.zeros((0, self.n))
            self.h = np.zeros(0)
        else:
            self.G = as_matrix(self.G)
            self.h = as_vector(self.h)
        if self.Aeq.shape != (self.beq.shape[0], self.n):
            raise DimensionMismatch("equality block dimensions do not chain")
        if self.G.shape != (self.h.shape[0], self.n):
            raise DimensionMismatch("inequality block dimensions do not chain")

    def violation(self, x) -> float:
        """Worst constraint violation of a candidate x (0 when feasible)."""
        v = 0.0
        if self.Aeq.shape[0]:
            v = max(v, float(np.max(np.abs(self.Aeq @ x - self.beq))))
        if self.G.shape[0]:
            v = max(v, float(np.max(self.G @ x - self.h, initial=0.0)))
        return v

    def qp(self, H) -> "QuadraticProgram":
        """The QP of Hessian H and c = 0 on this set; its with_c siblings are
        the QPs of a pass."""
        return QuadraticProgram(H=H, c=np.zeros(self.n), Aeq=self.Aeq, beq=self.beq,
                                Gineq=self.G, hineq=self.h)


def simplex_base(n: int) -> BaseProblem:
    """sum(x) = 1, x >= 0."""
    return BaseProblem(n=n, Aeq=np.ones((1, n)), beq=np.ones(1), G=-np.eye(n), h=np.zeros(n))


def box_budget_base(n: int, k: float) -> BaseProblem:
    """0 <= x <= 1, sum(x) <= k."""
    return BaseProblem(
        n=n,
        G=np.vstack([-np.eye(n), np.eye(n), np.ones((1, n))]),
        h=np.concatenate([np.zeros(n), np.ones(n), [float(k)]]),
    )


@dataclass
class QuadraticProgram:
    """min_y 0.5 y^T H y + c^T y  s.t.  Aeq y = beq, Gineq y <= hineq.

    H must be symmetric within 1e-10; the QP keeps its symmetric part, the
    only part the objective sees.  The rows are normalized and checked as a
    BaseProblem's, so Aeq/Gineq may be None when a block is absent.
    with_c(c) is the QP of another c on the same H and constraints, as the
    QPs of one pass are: it checks c alone and shares the _Rows that
    solve_qp and kkt_adjoint derive from H and the constraints, so a pass
    derives them once.  A QP built directly is a pass of one.  The data must
    not change once a QP has been solved.
    """

    H: np.ndarray
    c: np.ndarray
    Aeq: np.ndarray = None
    beq: np.ndarray = None
    Gineq: np.ndarray = None
    hineq: np.ndarray = None
    _derived: "_Rows" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.H = as_matrix(self.H)
        self.c = as_vector(self.c)
        n = self.c.shape[0]
        if self.H.shape != (n, n):
            raise DimensionMismatch("H must be n x n with n = len(c)")
        if np.max(np.abs(self.H - self.H.T), initial=0.0) > 1e-10 * max(
            1.0, np.max(np.abs(self.H), initial=0.0)
        ):
            raise ValueError("H is not symmetric within 1e-10")
        self.H = 0.5 * (self.H + self.H.T)  # H itself, bit for bit, when H is symmetric
        rows = BaseProblem(n, self.Aeq, self.beq, self.Gineq, self.hineq)
        self.Aeq, self.beq, self.Gineq, self.hineq = rows.Aeq, rows.beq, rows.G, rows.h

    @property
    def n(self):
        return self.c.shape[0]

    def with_c(self, c) -> "QuadraticProgram":
        """The QP of linear term c on this QP's H and constraints, sharing its _Rows."""
        c = as_vector(c)
        if c.shape != self.c.shape:
            raise DimensionMismatch("c must keep the length n")
        sibling = object.__new__(type(self))  # the fields as they stand, unchecked again
        sibling.__dict__.update(self.__dict__, c=c, _derived=self._rows())
        return sibling

    def _rows(self) -> "_Rows":
        if self._derived is None:
            self._derived = _Rows(self)
        return self._derived


class _Rows:
    """What the pivots and the adjoint derive from a QP's H and constraints.

    Each inequality row is a simple bound (one nonzero, s x_j <= h), which
    fixes x_j = h / s while it is working or frozen and stays out of every
    factorization, or general.  K is the KKT matrix of H, Aeq and the general
    rows, symmetric as the QP's H is, from which each pivot gathers its
    working-set system and kkt_adjoint its frozen one, both by _system's
    mask; rhs is its right-hand side less the -c block, top = n + len(Aeq)
    and slot[r] the row and column of K of general row r.  The pivots'
    bookkeeping reads each row's class, slot, coordinate and fixed value
    h / s from the Python tuples of per_row.  diag is H's
    diagonal when H is diagonal with positive entries, else None.
    _product and _transpose_product form G y and G^T lam with one matrix
    product, over the general rows G_general alone.
    """

    def __init__(self, qp: QuadraticProgram):
        G, h = qp.Gineq, qp.hineq
        n, me, mi = qp.n, qp.Aeq.shape[0], G.shape[0]
        self.bound = np.count_nonzero(G, axis=1) == 1
        self.col = np.argmax(G != 0, axis=1)  # the coordinate a bound row fixes
        self.s = G[np.arange(mi), self.col]
        self.all_bounds = self.bound.all()
        self.general = np.flatnonzero(~self.bound)
        self.G_general = G[self.general]
        self.bound_rows = np.flatnonzero(self.bound)
        self.bound_col, self.bound_s = self.col[self.bound_rows], self.s[self.bound_rows]
        self.K = _kkt_matrix(qp.H, np.vstack([qp.Aeq, self.G_general]))
        d = np.diagonal(qp.H)
        self.diag = d.copy() if (d > 0.0).all() and np.count_nonzero(qp.H) == n else None
        self.rhs = np.concatenate([np.zeros(n), qp.beq, h[self.general]])
        self.top = n + me
        self.slot = np.zeros(mi, dtype=int)
        self.slot[self.general] = self.top + np.arange(self.general.size)
        fix = np.divide(h, self.s, out=np.zeros(mi), where=self.bound)
        self.per_row = list(zip(self.bound.tolist(), self.slot.tolist(), self.col.tolist(),
                                fix.tolist()))
        # a row blocks when G_r p exceeds its round-off, which grows with |p|
        # (phase-one steps reach ~1e8): d > 1e-13 (1 + |h|) + 1e-12 max|G_r| max|p|
        d_tol = 1e-13 * (1.0 + np.abs(h))
        per_step = 1e-12 * np.max(np.abs(G), axis=1, initial=0.0)
        # one scalar each when every row has the same (the simplex), so the
        # threshold costs the ratio test no vector operation
        uniform = mi and np.ptp(d_tol) == 0.0 and np.ptp(per_step) == 0.0
        self.d_tol = float(d_tol[0]) if uniform else d_tol
        self.d_tol_per_step = float(per_step[0]) if uniform else per_step

    def _system(self, held) -> tuple:
        """(in_system, is_bound): the mask over K of the system of the held
        rows (index array), the top rows less the coordinates its bounds fix
        plus its general rows' slots, and which held rows are bounds (None
        when the QP has no bound row)."""
        in_system = np.zeros(self.K.shape[0], dtype=bool)
        in_system[: self.top] = True
        if not self.bound_rows.size:
            in_system[self.slot[held]] = True
            return in_system, None
        is_bound = self.bound[held]
        in_system[self.col[held[is_bound]]] = False
        in_system[self.slot[held[~is_bound]]] = True
        return in_system, is_bound

    def _product(self, y) -> np.ndarray:
        """G y, a bound row's entry as s y_j."""
        if not self.bound_rows.size:
            return self.G_general @ y
        out = np.empty(self.bound.shape[0])
        out[self.bound_rows] = self.bound_s * y.take(self.bound_col)
        if self.general.size:
            out[self.general] = self.G_general @ y
        return out

    def _transpose_product(self, lam) -> np.ndarray:
        """G^T lam, a bound row's term as s lam_r added to coordinate j."""
        if not self.bound_rows.size:
            return self.G_general.T @ lam
        out = np.bincount(self.bound_col, weights=self.bound_s * lam.take(self.bound_rows),
                          minlength=self.G_general.shape[1])
        if self.general.size:
            out += self.G_general.T @ lam.take(self.general)
        return out


@dataclass
class PrimalDualSolution:
    """KKT-certified solution: primal y, equality duals nu, inequality duals lam."""

    y: np.ndarray
    nu: np.ndarray
    lam: np.ndarray
    kkt_residual: float


def audit_kkt(qp: QuadraticProgram, sol: PrimalDualSolution) -> dict:
    """Residuals of the four KKT blocks, computed from (qp, sol) alone.

    G y and G^T lam come from qp._rows() (_Rows._product and
    _transpose_product), which read each bound row as s y_j, and H y is
    diag * y when H is diagonal with positive entries: O(n) for the
    box-budget QPs, whose rows are +-e_j and one row of ones."""
    stat, eq, slack = _kkt_terms(qp, sol)
    lam = sol.lam
    return {
        "stationarity": float(np.abs(stat).max(initial=0.0)),
        "primal_eq": float(np.abs(eq).max(initial=0.0)),
        "primal_ineq": float(slack.max(initial=0.0)),
        "dual": float((-lam).max(initial=0.0)),
        "comp_slack": float(np.abs(lam * slack).max(initial=0.0)),
    }


def _kkt_terms(qp: QuadraticProgram, sol: PrimalDualSolution) -> tuple:
    """(stationarity, equality, inequality) residual vectors of sol on qp:
    H y + c + Aeq^T nu + G^T lam, Aeq y - beq and G y - h."""
    rows = qp._rows()
    y, nu, lam = sol.y, sol.nu, sol.lam
    stat = (qp.H @ y if rows.diag is None else rows.diag * y) + qp.c
    eq = _NONE
    if qp.Aeq.shape[0]:
        stat += qp.Aeq.T @ nu
        eq = qp.Aeq @ y - qp.beq
    if qp.Gineq.shape[0]:
        stat += rows._transpose_product(lam)
    return stat, eq, rows._product(y) - qp.hineq


_ZERO, _NONE = np.zeros(1), np.zeros(0)


def _kkt_matrix(H, A):
    """[[H, A^T], [A, 0]]."""
    n, k = H.shape[0], A.shape[0]
    M = np.zeros((n + k, n + k))
    M[:n, :n] = H
    M[:n, n:] = A.T
    M[n:, :n] = A
    return M


def _equality_solve(K, rhs):
    """Solve one working-set KKT system K z = rhs by LU (LAPACK dgesv).

    The pivot loop calls it once per working set it visits, with K gathered
    from the matrix it assembled (see _active_set_loop): H over the free
    coordinates, the equality rows and the general working rows restricted
    to them.  LU with partial pivoting is used for speed; the differentiation
    paths use the symmetric Bunch-Kaufman route in solve_symmetric, which
    exposes pivot-magnitude failures.  Raises SingularMatrix on an exactly
    zero pivot.
    """
    if not rhs.size:  # every coordinate fixed and no row left: nothing to solve
        return rhs
    _, _, z, info = lapack.dgesv(K, rhs, overwrite_a=True, overwrite_b=True)
    if info > 0:
        raise SingularMatrix(f"dgesv: U[{info - 1}, {info - 1}] is exactly zero")
    return z


def _active_set_loop(qp: QuadraticProgram, x0, max_iter, working=None):
    """Primal active-set iterations on qp from a feasible x0, with the working
    set seeded by the boolean row mask `working` (empty when None); x0 must
    be tight on those rows, and they must be linearly independent of each
    other and of Aeq.

    The rows' classes and the KKT matrix come from qp._rows(), shared by the
    QPs of a pass.  Each pivot gathers its working-set system from that
    matrix: the free coordinates, the equality rows and the general working
    rows, with the fixed coordinates' terms moved to the right-hand side.  A
    step of full length with no blocking row leaves the working set
    unchanged and lands on its minimizer, so the next iteration goes straight
    to the multipliers of the same solution; it still counts toward
    max_iter.  A QP with no bound row skips the bound bookkeeping (the fixed
    coordinates and the per-coordinate counts), so the set-up grows with
    the working set.  When every row is a bound, the ratio test forms G p
    and G x as s p_j and s x_j, which is exact; G x is formed only when some
    row can block.  A general row's multiplier is its entry
    of the solution; a bound's is read back from the stationarity row of its
    coordinate, out of one product of K's first n rows.  When multipliers are
    negative, the row with the most negative one leaves the working set
    (lowest index on ties); after a zero-length step, the lowest-index
    negative one does instead.  Returns (x, nu, lam), lam zero off the
    working set.
    """
    rows = qp._rows()
    bound, col, s, general, K = rows.bound, rows.col, rows.s, rows.general, rows.K
    G, h = qp.Gineq, qp.hineq
    n, me, mi = qp.n, qp.Aeq.shape[0], G.shape[0]
    rhs = rows.rhs.copy()
    rhs[:n] = -qp.c
    # set_working(r, True) for every seeded row, at once
    seeded = working.nonzero()[0] if working is not None else np.zeros(0, dtype=int)
    in_system, seeded_bound = rows._system(seeded)
    work = np.zeros(mi, dtype=bool)
    work[seeded] = True
    idle = ~work  # kept, as the rest of this state, by set_working
    x_fixed = np.zeros(n)  # zero off the fixed coordinates
    n_free, n_shifted = n, 0  # free coordinates; fixed ones at a nonzero value
    if seeded_bound is not None:  # the bound bookkeeping, which a QP without bounds skips
        fixes = seeded[seeded_bound]
        x_fixed[col[fixes]] = h[fixes] / s[fixes]  # independent rows fix distinct coordinates
        n_fixing = np.bincount(col[work & bound], minlength=n).tolist()  # per coordinate
        n_free = n_fixing.count(0)
        fixed = x_fixed.tolist()  # x_fixed, read without a numpy call
        n_shifted = np.count_nonzero(x_fixed)

    def set_working(r, on):
        nonlocal n_free, n_shifted
        work[r] = on
        idle[r] = not on
        is_bound, slot, j, value = rows.per_row[r]
        if not is_bound:
            in_system[slot] = on
            return
        n_fixing[j] += 1 if on else -1
        if n_fixing[j] == on:  # j was free and is fixed now, or the reverse
            n_free -= 1 if on else -1
            in_system[j] = not on
        elif not on:
            return  # another working bound still fixes j
        if not on:
            value = 0.0
        n_shifted += (value != 0.0) - (fixed[j] != 0.0)
        fixed[j] = x_fixed[j] = value

    lam = np.empty(mi)
    v = np.empty(K.shape[0])  # the solution over all of K, zero off the system
    K_top, minus_c = K[:n], rhs[:n]
    x = x0.copy()
    abs_x = np.abs(x)  # max |x| as abs_x[argmax]: cheaper than max() on short arrays
    step_tol = STEP_TOL * (1.0 + abs_x[abs_x.argmax()])
    stalled = False  # the last step had zero length
    solved = False  # the working set is unchanged since the last solve
    at_minimizer = False  # and the last step was a full one onto its minimizer
    for _ in range(max_iter):
        if not solved:
            idx = in_system.nonzero()[0]
            b = rhs.take(idx)
            if n_shifted:
                b -= (K[:, :n] @ x_fixed).take(idx)
            try:  # K is symmetric: the transpose view is the column order dgesv reads
                z = _equality_solve(K.take(idx, axis=0).take(idx, axis=1).T, b)
            except SingularMatrix as exc:
                raise NumericalBreakdown(f"singular working-set KKT system: {exc}") from exc
            if n_free < n:
                x_hat = x_fixed.copy()
                x_hat[idx[:n_free]] = z[:n_free]
            else:
                x_hat = z[:n]
            solved = True
        if not at_minimizer:
            p = x_hat - x
            abs_p = np.abs(p)
            p_max = abs_p[abs_p.argmax()]
            if p_max > step_tol:
                alpha = 1.0
                blocking = -1
                # G_r p = s_r p_j exactly when row r is s_r x_j <= h_r
                d = s * p.take(col) if rows.all_bounds else G @ p
                cand = (idle & (d > rows.d_tol + rows.d_tol_per_step * p_max)).nonzero()[0]
                if cand.size:
                    room = h - (s * x.take(col) if rows.all_bounds else G @ x)
                    ratios = np.maximum(room[cand], 0.0) / d[cand]
                    k = ratios.argmin()  # argmin takes the lowest index on ties
                    if ratios[k] < alpha - 1e-12:
                        alpha = ratios[k]
                        blocking = cand[k]
                x = x + alpha * p if blocking >= 0 else x + p
                stalled = alpha * p_max <= step_tol
                abs_x = np.abs(x)
                step_tol = STEP_TOL * (1.0 + abs_x[abs_x.argmax()])
                if blocking >= 0:
                    set_working(blocking, True)
                    solved = False
                else:
                    # x + p meets x_hat within ~ulp(p_max) + ulp(x_hat), under
                    # the step-length test's STEP_TOL (1 + |x|) while p_max <= 1e4
                    at_minimizer = p_max <= 1e4
                continue
        lam.fill(0.0)
        if idx.size > n_free + me:  # general working rows
            lam[general[idx[n_free + me :] - rows.top]] = z[n_free + me :]
        if n_free < n:  # bound working rows
            fixing = (work if rows.all_bounds else work & bound).nonzero()[0]
            v.fill(0.0)
            v[:n], v[idx[n_free:]] = x_hat, z[n_free:]
            lam[fixing] = (minus_c - K_top @ v).take(col[fixing]) / s[fixing]
        k = lam.argmin() if mi else 0
        if not (mi and lam[k] < -MULT_TOL):
            return x, z[n_free : n_free + me], lam
        # the most negative multiplier leaves (argmin: lowest index on ties);
        # after a zero-length step the lowest-index negative one does
        # (Bland's rule, against cycling at a degenerate vertex)
        set_working((lam < -MULT_TOL).argmax() if stalled else k, False)
        solved = at_minimizer = False
    raise MaxIterations(f"active-set pivot cap {max_iter} reached")


def _phase_one(qp: QuadraticProgram, max_iter):
    """A point of qp's feasible set via min s s.t. Gx - h <= s, s >= -1,
    regularized by 1e-8 I; raises Infeasible when the set is empty."""
    Aeq, beq, G, h, n = qp.Aeq, qp.beq, qp.Gineq, qp.hineq, qp.n
    if Aeq.shape[0]:
        x0, *_ = np.linalg.lstsq(Aeq, beq, rcond=None)
        if np.max(np.abs(Aeq @ x0 - beq), initial=0.0) > 1e-8 * (
            1.0 + np.max(np.abs(beq), initial=0.0)
        ):
            raise Infeasible("equality constraints are inconsistent")
    else:
        x0 = np.zeros(n)
    if G.shape[0] == 0:
        return x0
    viol = np.max(G @ x0 - h)
    if viol <= 1e-12:
        return x0
    H1 = 1e-8 * np.eye(n + 1)
    c1 = np.zeros(n + 1)
    c1[n] = 1.0
    A1 = np.hstack([Aeq, np.zeros((Aeq.shape[0], 1))])
    G1 = np.vstack(
        [
            np.hstack([G, -np.ones((G.shape[0], 1))]),
            np.concatenate([np.zeros(n), [-1.0]])[None, :],
        ]
    )
    h1 = np.concatenate([h, [1.0]])
    start = np.concatenate([x0, [viol + 1.0]])
    x1, _, _ = _active_set_loop(QuadraticProgram(H1, c1, A1, beq, G1, h1), start, max_iter)
    if x1[n] > FEAS_TOL:
        raise Infeasible(f"phase-one optimum leaves violation {x1[n]:.3e}")
    return x1[:n]


def _certify(qp: QuadraticProgram, sol: PrimalDualSolution) -> PrimalDualSolution:
    """Fill sol.kkt_residual, the largest of audit_kkt's block residuals,
    taken in one reduction over the blocks' entries, so that a NaN entry
    fails; raise NumericalBreakdown, with the blocks, when it exceeds
    KKT_TOL * (1 + max(|H|, |c|, |h|))."""
    stat, eq, slack = _kkt_terms(qp, sol)
    # max(audit_kkt(qp, sol).values()), as one reduction over the blocks' entries
    blocks = (np.abs(stat), np.abs(eq), slack, -sol.lam, np.abs(sol.lam * slack), _ZERO)
    sol.kkt_residual = float(np.concatenate(blocks).max())
    if not sol.kkt_residual <= KKT_TOL:  # the scale can only raise the bound
        scale = max(np.max(np.abs(block), initial=0.0) for block in (qp.H, qp.c, qp.hineq))
        if not sol.kkt_residual <= KKT_TOL * (1.0 + scale):
            raise NumericalBreakdown(f"KKT residual {sol.kkt_residual:.3e} is over tolerance "
                                     f"({audit_kkt(qp, sol)})")
    return sol


def _start_fits(qp: QuadraticProgram, x0, working) -> bool:
    """Whether x0 meets every row of qp within FEAS_TOL and is tight on the
    inequality rows flagged in working; G x0 comes from qp._rows()._product,
    which reads each bound row as s x0_j."""
    if x0.shape != (qp.n,) or working.shape != qp.hineq.shape:
        raise DimensionMismatch("start must be (x0 of length n, mask over Gineq rows)")
    slack = qp._rows()._product(x0) - qp.hineq
    return bool(
        (not qp.Aeq.shape[0] or np.abs(qp.Aeq @ x0 - qp.beq).max() <= FEAS_TOL)
        and slack.max(initial=0.0) <= FEAS_TOL
        and np.abs(slack[working]).max(initial=0.0) <= FEAS_TOL
    )


def solve_qp(qp: QuadraticProgram, max_iter: int = 0, start=None) -> PrimalDualSolution:
    """Solve a convex QP to a KKT-certified primal-dual pair.

    start = (x0, working), with working a boolean mask over the Gineq rows,
    starts the pivots at x0 with those rows in the working set when x0 meets
    every row within FEAS_TOL and is tight on the working rows; the working
    rows must be linearly independent of each other and of Aeq.  Otherwise
    (or without a start) phase one finds a feasible start, raising Infeasible
    when none exists.  Primal active-set pivots then run until the
    working-set multipliers are dual feasible; the optimum does not depend on
    the start when H is positive definite.  MaxIterations is raised at the
    pivot cap max_iter, or max(200, 10 (n + rows)) when it is 0;
    NumericalBreakdown when a working-set system cannot be factorized or the
    result fails its KKT certificate.
    """
    max_iter = max_iter or max(200, 10 * (qp.n + qp.Aeq.shape[0] + qp.Gineq.shape[0]))
    working = None
    if start is not None:
        x0, working = as_vector(start[0]), np.asarray(start[1], dtype=bool)
        if not _start_fits(qp, x0, working):
            working = None
    if working is None:
        x0 = _phase_one(qp, max_iter)
    x, nu, lam = _active_set_loop(qp, x0, max_iter, working)
    return _certify(qp, PrimalDualSolution(y=x, nu=nu, lam=lam, kkt_residual=0.0))


def kkt_adjoint(qp: QuadraticProgram, sol: PrimalDualSolution, dL_dy):
    """Adjoint of the KKT system frozen at sol's active set act: solves
    [[H, Aeq^T, Ga^T], [Aeq, 0, 0], [Ga, 0, 0]] [z_y; z_nu; z_lam] = [dL_dy; 0; 0]
    with Ga = G[act], and returns (z_y, z_nu, z_lam, act); act is the
    strongly active rows, lam > STRICT_COMPLEMENTARITY_TOL, in index order.
    Raises DimensionMismatch unless dL_dy is a vector of length n.

    For any perturbation (dH, dc, dAeq, dbeq, dG, dh) of the QP data, the
    loss moves by dL = z_y . (-dH y - dc - dAeq^T nu - dG_a^T lam_a)
    + z_nu . (dbeq - dAeq y) + z_lam . (dh_a - dG_a y), with (y, nu, lam)
    from sol and _a the rows act.  With c = -theta, z_y for dL_dy = e_j is
    row j of dy*/dtheta.  The structured chain rules of the training
    pipelines consume z_y, and kkt_jacobian_P the whole output.

    sol must come from solve_qp or solve_box_budget_qp, whose strongly active
    rows are linearly independent of each other and of Aeq: solve_qp's
    multipliers vanish off its working set, which the pivots keep
    independent, and the closed form never has the budget row beside a bound
    on every coordinate (mu then sits on a breakpoint whose lam is 0).  The
    system is gathered from qp._rows().K as a pivot's is: the frozen bounds
    fix their coordinates at z_y = 0, and each bound's z_lam is read back
    from the stationarity row of its coordinate.  Over the free coordinates,
    the equality rows and the frozen general rows, a dense H takes one
    solve_symmetric call on the whole system.  A diagonal H = diag(d), d > 0
    (the box-budget QPs, and movie-rec's y-space QPs, 2 gamma I), takes its
    Schur complement instead (_diagonal_kkt_solve): one solve_symmetric call
    of the size of those rows, and none when there are none.  With no
    frozen bound, z_y, z_nu and z_lam are slices of that solution as it
    stands.  A dependent set raises SingularKKT: two bounds on one
    coordinate here, any other in solve_symmetric's pivot checks.
    """
    dL_dy = as_vector(dL_dy)
    if dL_dy.shape != qp.c.shape:
        raise DimensionMismatch("dL_dy must have length n")
    act = (sol.lam > STRICT_COMPLEMENTARITY_TOL).nonzero()[0]
    rows = qp._rows()
    n, me, K = qp.n, qp.Aeq.shape[0], rows.K
    in_system, is_bound = rows._system(act)
    fixing = act[:0] if is_bound is None else act[is_bound]
    idx = in_system.nonzero()[0]
    n_free = np.count_nonzero(in_system[:n]) if fixing.size else n
    if n_free + fixing.size > n:
        raise SingularKKT("two bound rows fix one coordinate")
    free = idx[:n_free]
    try:
        if rows.diag is None:
            b = np.zeros(idx.size)
            b[:n_free] = dL_dy.take(free)
            z = solve_symmetric(K.take(idx, axis=0).take(idx, axis=1), b)
        else:
            z = _diagonal_kkt_solve(rows.diag.take(free),
                                    K.take(idx[n_free:], axis=0).take(free, axis=1),
                                    dL_dy.take(free))
    except SingularMatrix as exc:
        raise SingularKKT(str(exc)) from exc
    if not fixing.size:
        return z[:n], z[n : n + me], z[n + me :], act
    cols = rows.col[fixing]
    v = np.zeros(K.shape[0])  # the solution over all of K, zero off the system
    v[idx] = z
    z_y = v[:n]
    z_lam = np.empty(act.size)
    z_lam[~is_bound] = z[n_free + me :]
    # each bound's multiplier closes the stationarity row of its coordinate
    z_lam[is_bound] = (dL_dy - qp.H @ z_y - K[n:, :n].T @ v[n:])[cols] / rows.s[fixing]
    return z_y, z[n_free : n_free + me], z_lam, act


def _diagonal_kkt_solve(d, A, b):
    """Solve [[diag(d), A^T], [A, 0]] [x; w] = [b; 0] for d > 0 by the Schur
    complement S = A diag(d)^-1 A^T, r x r for the r rows of A: S w = A (b / d)
    by solve_symmetric, which raises SingularMatrix when A's rows are
    dependent, and x = (b - A^T w) / d.  With no row, x = b / d and nothing
    is factorized.  Returns [x; w].
    """
    if not A.shape[0]:
        return b / d
    A_d = A / d
    w = solve_symmetric(A_d @ A.T, A_d @ b)
    return np.concatenate([(b - A.T @ w) / d, w])


def kkt_jacobian_P(sqp, sol: PrimalDualSolution, adjoint, dL_dx) -> np.ndarray:
    """One instance's whole dL/dP (n x m) for the surrogate QP sqp (the
    surrogate.SurrogateQp that SurrogateProblem.solve returns with sol) of
    x-space objective (H_x, c_x) on sqp.sp, with
    dL_dx the loss gradient at the lifted decision x = P y*.

    adjoint is kkt_adjoint's output (z_y, z_nu, z_lam, act) for the same
    y-space QP and dL/dy = P^T dL_dx, so dL/dy . dy*/dP comes from the adjoint
    already solved instead of the m x (n m) Jacobian.  With the x-space
    stationarity vector s_x = H_x P y* + c_x + A_eq^T nu + G_ab^T lam_b and
    w = H_x P z_y + A_eq^T z_nu + G_ab^T z_lam_b, dL/dP is
    -s_x z_y^T + (dL_dx - w) y*^T, dL_dx y*^T being x = P y's explicit term.
    G_ab holds the frozen x-space rows (act < n_base) and z_lam_b their
    adjoint entries; trailing y-space rows do not depend on P.  An empty
    A_eq or G_ab adds nothing, so neither product is formed then.
    """
    z_y, z_nu, z_lam, act = adjoint
    P, base, H_x = sqp.sp.P, sqp.sp.base, sqp.H_x
    s_x = H_x @ (P @ sol.y) + sqp.c_x
    w = H_x @ (P @ z_y)
    if base.Aeq.shape[0]:  # an empty block's product adds zeros
        s_x += base.Aeq.T @ sol.nu
        w += base.Aeq.T @ z_nu
    frozen = act[: act.searchsorted(base.G.shape[0])]  # act is sorted: the x-space rows lead
    if frozen.size:
        G_ab = base.G[frozen]
        s_x += G_ab.T @ sol.lam[frozen]
        w += G_ab.T @ z_lam[: frozen.size]
    return np.outer(dL_dx - w, sol.y) - np.outer(s_x, z_y)


def solve_box_budget_qp(c_lin, gamma: float, k: float) -> PrimalDualSolution:
    """Exact solution of max c^T x - gamma ||x||^2 over 0 <= x <= 1, sum x <= k.

    The problem is separable apart from the single budget row, so the optimum
    is water-filling: x(mu) = clip((c - mu) / (2 gamma), 0, 1) with mu >= 0
    the budget multiplier.  Returned duals follow the minimization form
    min gamma ||x||^2 - c^T x with inequality rows ordered [-I; I; ones^T].
    Used as a fast exact path for the movie-broadcast layer; agrees with
    solve_qp on the equivalent QuadraticProgram.  mu's segment is found by
    bisection over the sorted breakpoints: total(mu), the float sum of
    x(mu) in a fixed order, is non-increasing, so the first breakpoint where
    total <= k closes the segment that holds k, in O(n log n).
    """
    c = as_vector(c_lin)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    two_g = 2.0 * gamma

    def total(mu):
        return float(np.sum(np.clip((c - mu) / two_g, 0.0, 1.0)))

    if total(0.0) <= k + 1e-12:
        mu = 0.0
    else:
        # breakpoints where coordinates saturate; total() is piecewise linear
        points = np.unique(np.concatenate([c, c - two_g, [0.0]]))
        points = points[points >= 0.0]  # sorted, from points[0] = 0
        j = bisect.bisect_left(range(len(points)), True, lo=1,
                               key=lambda j: total(points[j]) <= k)
        mu = points[-1]
        if j < len(points):  # total(lo) > k >= total(hi)
            lo, hi = points[j - 1], points[j]
            # coordinate states are constant on the open segment; classify
            # at the midpoint to dodge float ties at the breakpoints
            xm = (c - 0.5 * (lo + hi)) / two_g
            ones = int(np.sum(xm >= 1.0))
            interior = (xm > 0.0) & (xm < 1.0)
            cnt = int(np.sum(interior))
            if cnt == 0:
                mu = hi
            else:
                mu = (np.sum(c[interior]) - two_g * (k - ones)) / cnt
    x = np.clip((c - mu) / two_g, 0.0, 1.0)
    lam_lower = np.maximum(mu - c, 0.0) * (x <= 0.0)
    lam_upper = np.maximum(c - two_g - mu, 0.0) * (x >= 1.0)
    lam = np.concatenate([lam_lower, lam_upper, [mu]])
    sol = PrimalDualSolution(y=x, nu=np.zeros(0), lam=lam, kkt_residual=0.0)
    return _certify(box_budget_qp(c, gamma, k), sol)


def box_budget_qp(c_lin, gamma: float, k: float) -> QuadraticProgram:
    """The QuadraticProgram solved by solve_box_budget_qp, in minimization
    form: the with_c sibling of the one c = 0 QP held per (n, gamma, k)."""
    c = as_vector(c_lin)
    return _box_budget_qp0(c.shape[0], gamma, k).with_c(-c)


@lru_cache(maxsize=8)
def _box_budget_qp0(n, gamma, k):
    """The box-budget QP of c = 0, built once per (n, gamma, k)."""
    return box_budget_base(n, k).qp(2.0 * gamma * np.eye(n))

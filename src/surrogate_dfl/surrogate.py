"""Learnable linear reparameterization x = P y of the decision space.

P is materialized from unconstrained raw parameters through a mode-specific
map (identity, softplus, or per-column softmax), so the training loop can run
plain gradient steps on P_raw while P keeps the structure each domain needs:
nonnegativity for diminishing-returns objectives, stochastic columns for
simplex feasible sets.  Training derives everything from P once per P: one
y-space constraint set (SurrogateProblem) and one chain of the epoch's mean
dL/dP back to P_raw (grad_wrt_P).  Constraint sets, in x-space and in
y-space alike, are optlayer.BaseProblems.

Every y-space solve is SurrogateProblem.solve: it builds the instance's
y-space QP, solves it from the start the set holds (none at its first
solve, which runs phase one, else the optimum of the solve before it) and
lifts the optimum by x = P y.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDimensions, DimensionMismatch, EmptyFeasibleSet, Infeasible
from .numerics import as_matrix, matrix_to_csv
from .optlayer import BaseProblem, QuadraticProgram, solve_qp

MODES = ("free", "nonneg", "column-simplex")


@dataclass
class Reparameterization:
    """Raw trainable matrix plus the mode that materializes P from it."""

    P_raw: np.ndarray
    mode: str
    n: int
    m: int

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.P_raw.shape != (self.n, self.m):
            raise BadDimensions("P_raw shape does not match (n, m)")


def default_m(n: int) -> int:
    """Surrogate dimension rule: 10% of the problem size, rounded up."""
    return max(1, math.ceil(0.1 * n))


def init_reparam(n: int, m: int = None, mode: str = "free", seed: int = 0) -> Reparameterization:
    if m is None:
        m = default_m(n)
    if not (1 <= m <= n):
        raise BadDimensions(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    return Reparameterization(
        P_raw=rng.uniform(-0.5, 0.5, size=(n, m)), mode=mode, n=n, m=m
    )


def materialize(rep: Reparameterization) -> np.ndarray:
    """P from P_raw: identity for free, softplus for nonneg, column softmax
    for column-simplex (strictly positive entries, unit column sums)."""
    if rep.mode == "free":
        return rep.P_raw.copy()
    if rep.mode == "nonneg":
        return np.logaddexp(0.0, rep.P_raw)
    z = rep.P_raw - rep.P_raw.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


@dataclass
class SurrogateProblem:
    """The y-space set y of the x-space set base composed with x = P y, plus
    an optional trailing y >= 0 block that does not depend on P.

    It solves every y-space QP on it (solve) and keeps what they share: the
    start of the next solve and the QP of the last Hessian asked for (qp).
    The set's rows depend on neither c nor the Hessian, so every optimum on
    it is a feasible start for every QP on it."""

    base: BaseProblem
    P: np.ndarray
    y: BaseProblem
    _start: tuple = field(default=None, repr=False, compare=False)
    _qp: tuple = field(default=None, repr=False, compare=False)

    @property
    def m(self):
        return self.P.shape[1]

    def solve(self, H_x, c_x, H_extra=None, max_iter: int = 0):
        """(P y*, (sqp, qp, sol)) of the y-space QP of x-space objective
        (H_x, c_x) plus H_extra, under the pivot cap max_iter (0: the default
        cap); kkt_adjoint takes qp and sol, kkt_jacobian_P sqp and sol.

        The first solve on this set has no start, so solve_qp runs phase one,
        and raises EmptyFeasibleSet when the set is empty; each later one
        starts at the optimum before it, with its rows of positive multiplier
        working (independent, as the pivots keep every working set, and
        tight)."""
        sqp = SurrogateQp(H_x=H_x, c_x=c_x, sp=self, H_extra=H_extra)
        qp = sqp.qp()
        try:
            sol = solve_qp(qp, max_iter=max_iter, start=self._start)
        except Infeasible as exc:  # phase one found no point of the set
            raise EmptyFeasibleSet(f"surrogate feasible set is empty: {exc}") from exc
        self._start = sol.y, sol.lam > 0.0
        return self.P @ sol.y, (sqp, qp, sol)

    def qp(self, H_x, H_extra=None) -> QuadraticProgram:
        """The y-space QP of Hessian P^T H_x P + H_extra and c = 0 on y, which
        the solves of a pass share through with_c.  It is built once per
        (H_x, H_extra): the pair last asked for is held and matched by
        identity, so a pass passes the same arrays, unchanged, to every solve."""
        held = self._qp
        if held is None or held[0] is not H_x or held[1] is not H_extra:
            H_y = self.P.T @ H_x @ self.P
            if H_extra is not None:
                H_y = H_y + H_extra
            self._qp = held = H_x, H_extra, self.y.qp(H_y)
        return held[2]


def transform_problem(base: BaseProblem, P, nonneg_y: bool = False) -> SurrogateProblem:
    """Compose the base constraints with x = P y.

    Equalities become (A P) y = b; each inequality row g x <= h becomes
    (g P) y <= h, so any feasible y lifts to a feasible x.  With nonneg_y,
    explicit y >= 0 rows are appended after the transformed rows.  An empty
    set raises EmptyFeasibleSet at its first solve (SurrogateProblem.solve).
    """
    P = as_matrix(P)
    if P.shape[0] != base.n:
        raise DimensionMismatch("P rows must match the base dimension")
    m = P.shape[1]
    G_y = base.G @ P
    h_y = base.h.copy()
    if nonneg_y:
        G_y = np.vstack([G_y, -np.eye(m)])
        h_y = np.concatenate([h_y, np.zeros(m)])
    y = BaseProblem(m, base.Aeq @ P, base.beq.copy(), G_y, h_y)
    return SurrogateProblem(base=base, P=P, y=y)


@dataclass
class SurrogateQp:
    """Quadratic objective married to a transformed constraint set.

    The y-space objective is 0.5 y^T (P^T H_x P + H_extra) y + (P^T c_x)^T y;
    H_extra covers y-native terms such as the movie-broadcast regularizer and
    is independent of P, so it drops out of d/dP.
    """

    H_x: np.ndarray
    c_x: np.ndarray
    sp: SurrogateProblem
    H_extra: np.ndarray = None

    def qp(self) -> QuadraticProgram:
        """The y-space QP: sp's QP of (H_x, H_extra) with c = P^T c_x."""
        return self.sp.qp(self.H_x, self.H_extra).with_c(self.sp.P.T @ self.c_x)


def grad_wrt_P(dL_dP, rep: Reparameterization) -> np.ndarray:
    """dL/dP_raw: a gradient w.r.t. P (n x m), such as an epoch's mean of
    kkt_jacobian_P's per-instance dL/dP, chained back through the
    materialization mode.  The chain is linear in dL_dP, so chaining the
    mean equals the mean of the chained gradients."""
    g = np.asarray(dL_dP, dtype=float)
    if g.shape != (rep.n, rep.m):
        raise DimensionMismatch("dL_dP shape does not match reparameterization")
    if rep.mode == "free":
        return g.copy()
    if rep.mode == "nonneg":
        return g / (1.0 + np.exp(-rep.P_raw))  # softplus' = sigmoid
    P = materialize(rep)
    # per-column softmax Jacobian: diag(p) - p p^T
    return P * g - P * np.sum(P * g, axis=0, keepdims=True)


def export_reparam_csv(rep: Reparameterization, path) -> None:
    """Materialized P as an n x m CSV, the data behind weight visualizations."""
    matrix_to_csv(materialize(rep), path)

"""Decision-focused learning through a learnable low-dimensional linear
surrogate of the optimization layer, with KKT implicit differentiation."""

from .errors import (
    BadDimensions,
    DegenerateEmbedding,
    DimensionMismatch,
    EmptyFeasibleSet,
    EmptySplit,
    HypothesisViolated,
    Infeasible,
    InvalidInputs,
    MaxIterations,
    MissingFile,
    NumericalBreakdown,
    SingularKKT,
    SingularMatrix,
    TypeMismatch,
    UnknownKey,
)
from .numerics import solve_symmetric
from .optlayer import (
    BaseProblem,
    PrimalDualSolution,
    QuadraticProgram,
    audit_kkt,
    kkt_adjoint,
    kkt_jacobian_P,
    solve_box_budget_qp,
    solve_qp,
)
from .pipelines import (
    RegretReport,
    TrainConfig,
    evaluate,
    run_experiment,
    train_decision_focused,
    train_surrogate,
    train_two_stage,
)
from .surrogate import (
    Reparameterization,
    SurrogateProblem,
    SurrogateQp,
    default_m,
    grad_wrt_P,
    init_reparam,
    lift,
    materialize,
    transform_problem,
)
from .theory import (
    BoundInputs,
    check_convexity_preservation,
    check_dr_preservation,
    coordinate_quasiconvexity_probe,
    counterexample_opt,
    rademacher_bound,
)

__version__ = "0.1.0"

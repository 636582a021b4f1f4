"""Exception types shared across the package."""


class SurrogateDflError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SurrogateDflError):
    pass


class SingularMatrix(SurrogateDflError):
    pass


class DegenerateEmbedding(SurrogateDflError):
    pass


class Infeasible(SurrogateDflError):
    pass


class MaxIterations(SurrogateDflError):
    pass


class NumericalBreakdown(SurrogateDflError):
    pass


class SingularKKT(SurrogateDflError):
    pass


class EmptyFeasibleSet(SurrogateDflError):
    pass


class BadDimensions(SurrogateDflError):
    pass


class EmptySplit(SurrogateDflError):
    pass


class HypothesisViolated(SurrogateDflError):
    pass


class InvalidInputs(SurrogateDflError):
    pass


class ConfigError(SurrogateDflError):
    """Base class for CLI configuration problems (exit code 2)."""


class UnknownKey(ConfigError):
    pass


class TypeMismatch(ConfigError):
    pass


class MissingFile(ConfigError):
    pass

"""Semantic exception types shared by all qentropy modules."""


class QentropyError(Exception):
    """Base class for every error raised by this package."""


class DomainError(QentropyError):
    """A q-deformed power was requested at a negative base under strict policy."""


class NormalizationError(QentropyError):
    """Probabilities do not sum to one within tolerance."""


class RangeError(QentropyError):
    """A scalar input lies outside its admissible range."""


class EmptyError(QentropyError):
    """An empty collection was given where at least one element is required."""


class SingularityError(QentropyError):
    """Evaluation requested exactly at a singular point of the expression."""


class InfeasibleError(QentropyError):
    """No real shift can normalize the partition sum (possible only for q > 1)."""


class ConvergenceError(QentropyError):
    """An iterative solver exhausted its budget without meeting tolerance."""


class BracketError(QentropyError):
    """No sign change could be bracketed for a root solve."""


class StepError(QentropyError):
    """A finite-difference step left the probability simplex."""


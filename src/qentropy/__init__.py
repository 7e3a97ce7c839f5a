"""qentropy: self-normalizing q-exponential distributions and their entropy.

The package covers four pieces that fit together:

* ``core`` -- the QParam / Spectrum / Distribution value types, and the
  one array kernel of the deformed exponential [1 - (q-1)x]^(1/(q-1)),
  in log1p form, with its inverse, the deformed logarithm;
* ``shift`` -- solving f(a0) = 1 so the distribution normalizes itself,
  including the exact existence test for q > 1, on its own pass in the
  power form;
* ``entropy`` -- the uncertainty measure (1 - sum p^q)/(q(q-1)), its
  Boltzmann-Gibbs and Tsallis baselines, the non-additive composition
  law, and figure-ready sweeps;
* ``maxent`` -- the same distribution as the constrained maximizer at a
  multiplier beta, beta inversion against a target mean energy, and the
  contrasting self-referential escort fixed point.
"""

from .core import (
    Distribution,
    QParam,
    Spectrum,
)
from .entropy import (
    CompositionResult,
    SweepTable,
    bg_entropy,
    compose,
    max_uncertainty,
    tsallis_entropy,
    two_state_sweep,
    uncertainty,
    varentropy_residual,
)
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    EmptyError,
    InfeasibleError,
    NormalizationError,
    QentropyError,
    RangeError,
    SingularityError,
    StepError,
)
from .maxent import (
    EscortSolution,
    escort_distribution,
    maxent_distribution,
    mean_energy,
    solve_beta,
    stationarity_residual,
)
from .shift import (
    FeasibilityReport,
    ShiftSolution,
    domain_interval,
    feasibility,
    partition_derivative,
    partition_value,
    shifted_distribution,
    solve_shift,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CompositionResult",
    "ConvergenceError",
    "Distribution",
    "DomainError",
    "EmptyError",
    "EscortSolution",
    "FeasibilityReport",
    "InfeasibleError",
    "NormalizationError",
    "QParam",
    "QentropyError",
    "RangeError",
    "ShiftSolution",
    "SingularityError",
    "Spectrum",
    "StepError",
    "SweepTable",
    "bg_entropy",
    "compose",
    "domain_interval",
    "escort_distribution",
    "feasibility",
    "max_uncertainty",
    "maxent_distribution",
    "mean_energy",
    "partition_derivative",
    "partition_value",
    "shifted_distribution",
    "solve_beta",
    "solve_shift",
    "stationarity_residual",
    "tsallis_entropy",
    "two_state_sweep",
    "uncertainty",
    "varentropy_residual",
]

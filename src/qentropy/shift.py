"""Shift-parameter normalization of the q-exponential partition sum.

For a spectrum {x_i} and index q, the partition sum as a function of the
shift a is

    f(a) = sum_i [1 - (q - 1)(x_i - a)]^(1/(q-1))

(with exp sums at q = 1).  f is strictly increasing on its domain, so
f(a0) = 1 has at most one root; for 0 < q <= 1 the root always exists,
while for q > 1 it exists iff the value of f at the lower domain
endpoint does not exceed 1.  Solving the root yields a distribution
p_i = [1 - (q-1)(x_i - a0)]^(1/(q-1)) that is normalized with no
explicit partition factor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import Distribution, QParam, Spectrum, _deformed_exp
from .errors import ConvergenceError, InfeasibleError, SingularityError

#: contract on every successful solve: |f(a0) - 1| <= RESIDUAL_BOUND.
RESIDUAL_BOUND = 1e-10


class SolveMethod(enum.Enum):
    BISECTION = "bisection"  # a q > 1 root on the domain endpoint, taken as is
    BISECTION_THEN_NEWTON = "bisection_then_newton"  # bracketed Newton steps
    CLOSED_FORM = "closed_form"


@dataclass(frozen=True)
class ShiftSolution:
    """Solved shift a0 with residual and solver diagnostics."""

    a0: float
    residual: float             # f(a0) - 1
    bracket: tuple[float, float]
    iterations: int
    method: SolveMethod


@dataclass(frozen=True)
class FeasibilityReport:
    """Existence test for the q > 1 root.

    ``endpoint_value`` is the exact limit of f at the lower domain
    endpoint; ``sufficient_bound`` is the cruder sufficient bound
    W[(q-1)(x_max - x_min)]^(1/(q-1)) which always dominates it.  A root
    exists iff endpoint_value <= 1.
    """

    endpoint_value: float
    sufficient_bound: float
    feasible: bool


def domain_interval(spectrum: Spectrum, q: QParam) -> tuple[float, float]:
    """Open/closed interval of shifts where every base is non-negative.

    Returns (-inf, x_min - 1/(q-1)) for q < 1, all reals for q = 1, and
    [x_max - 1/(q-1), +inf) for q > 1; endpoints are returned as plain
    floats and infinities.
    """
    if q.is_classical:
        return (-math.inf, math.inf)
    if q.is_sub_unit:
        return (-math.inf, spectrum.x_min - 1.0 / (q.q - 1.0))
    return (spectrum.x_max - 1.0 / (q.q - 1.0), math.inf)


def partition_value(a: float, spectrum: Spectrum, q: QParam) -> float:
    """f(a): the partition sum at shift a.  Strictly increasing in a."""
    return float(_deformed_exp(spectrum.as_array() - a, q.q - 1.0).sum())


def partition_derivative(a: float, spectrum: Spectrum, q: QParam) -> float:
    """f'(a) = sum_i [1 - (q-1)(x_i - a)]^(1/(q-1) - 1); always positive.

    When the exponent 1/(q-1) - 1 is negative (q < 1 or q > 2) the
    derivative is singular at a base of exactly zero, which raises
    :class:`SingularityError`.
    """
    _, slope = _deformed_exp(spectrum.as_array() - a, q.q - 1.0, slope=True)
    if not 1.0 <= q.q <= 2.0 and np.isinf(slope).any():
        raise SingularityError(f"derivative singular at domain endpoint (q={q.q})")
    return float(slope.sum())


def feasibility(spectrum: Spectrum, q: QParam) -> FeasibilityReport:
    """Report whether a normalizing shift exists.

    Trivially feasible for q <= 1 (f sweeps (0, inf)); for q > 1 the
    exact endpoint sum decides, and the cruder W-times-max-term bound is
    reported alongside it.  Either sum is inf where it overflows.
    """
    if not q.is_super_unit:
        return FeasibilityReport(endpoint_value=0.0, sufficient_bound=0.0, feasible=True)
    qm1 = q.q - 1.0
    x = spectrum.as_array()
    # the endpoint terms in gap form, which keeps a zero gap exactly zero
    gaps = np.subtract(spectrum.x_max, x)
    gaps *= qm1
    with np.errstate(over="ignore"):
        endpoint_value = float(np.power(gaps, 1.0 / qm1, out=gaps).sum())
        max_term = np.power(qm1 * (spectrum.x_max - spectrum.x_min), 1.0 / qm1)
    return FeasibilityReport(
        endpoint_value=endpoint_value,
        sufficient_bound=float(spectrum.W * max_term),
        feasible=endpoint_value <= 1.0,
    )


def _newton_in_bracket(fd, x: float, lo: float, hi: float, tol: float, max_iter: int):
    """Root of an increasing g on [lo, hi], given g(lo) <= 0 <= g(hi).

    ``fd(x)`` returns (g(x), g'(x)).  The iteration starts at x and
    moves each evaluated point onto the matching end of the bracket.
    The next point is the Newton step when it lands strictly inside the
    bracket, and the midpoint otherwise.  It stops once |g| <= tol,
    after ``max_iter`` evaluations, or when no float is left between
    the ends.  Returns (x, g(x), (lo, hi), evaluations) for the
    evaluated x of smallest |g|.
    """
    best, evaluations = (x, math.inf), 0
    for evaluations in range(1, max_iter + 1):
        g, dg = fd(x)
        if abs(g) < abs(best[1]):
            best = (x, g)
        if abs(g) <= tol:
            break
        if g < 0.0:
            lo = x
        else:
            hi = x
        step = x - g / dg if dg > 0.0 else math.nan
        if lo < step < hi:
            x = step
        else:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
    return best[0], best[1], (lo, hi), evaluations


def _closed_form(spectrum: Spectrum, q: QParam) -> float | None:
    if spectrum.W == 1:
        # single term equals 1 exactly when a = x_1, for every q
        return spectrum.x_min
    if q.is_classical:
        # x_min - log sum exp(x_min - x_i): every term is at most 1, and one is 1
        terms = np.subtract(spectrum.x_min, spectrum.as_array())
        return spectrum.x_min - math.log(float(np.exp(terms, out=terms).sum()))
    if q.q == 2.0:
        # f is linear in a at q = 2, so f(a) = 1 solves exactly
        return (1.0 - spectrum.W + float(spectrum.as_array().sum())) / spectrum.W
    return None


def solve_shift(
    spectrum: Spectrum,
    q: QParam,
    tol: float = 1e-12,
    max_iter: int = 200,
    use_closed_forms: bool = True,
) -> ShiftSolution:
    """Solve f(a0) = 1 for the normalizing shift.

    Closed forms short-circuit W = 1 (any q), q = 1 and q = 2 unless
    ``use_closed_forms`` is false.  The generic path brackets the root
    in closed form.  Term i equals 1/n at a = x_i - z_n, so
    f(x_min - z_2W) <= 1/2 and f(x_min) >= 1; the lower end is clipped
    up to the domain endpoint for q > 1.  Newton steps on f, with f'
    from the same kernel pass, start at x_max - z_W, where f >= 1, and
    shrink the bracket, falling back to bisection whenever a step would
    leave it.  ``iterations`` counts those kernel passes.

    Raises :class:`InfeasibleError` when q > 1 and no root exists, and
    :class:`ConvergenceError` if the iteration budget is exhausted with
    the residual above ``RESIDUAL_BOUND``.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    report = feasibility(spectrum, q)
    if not report.feasible:
        raise InfeasibleError(
            f"no real shift for q={q.q}: endpoint sum {report.endpoint_value} > 1"
        )

    x = spectrum.as_array()
    qm1 = q.q - 1.0
    a0 = _closed_form(spectrum, q) if use_closed_forms else None
    # the workspace of every kernel pass, made once the closed form's temporary is freed
    work, out = np.empty(spectrum.W), np.empty(spectrum.W)

    def fd(a: float) -> tuple[float, float]:
        # bases a rounding error below zero at the q > 1 endpoint count as 0;
        # add.reduce skips the ndarray.sum wrapper, a real share of a small-W pass
        p, slope = _deformed_exp(np.subtract(x, a, work), qm1, True, True, out)
        return float(np.add.reduce(p)) - 1.0, float(np.add.reduce(slope))

    if a0 is not None:
        if q.is_super_unit:
            # a feasible q = 2 root can round a hair below the endpoint
            a0 = max(a0, spectrum.x_max - 1.0 / qm1)
        residual = fd(a0)[0]
        if abs(residual) > RESIDUAL_BOUND:
            raise ConvergenceError(f"closed form residual {residual} above bound")
        return ShiftSolution(a0, residual, (a0, a0), 0, SolveMethod.CLOSED_FORM)

    def z(n: float) -> float:
        """Term i of f equals 1/n at a = x_i - z(n)."""
        return math.log(n) if q.is_classical else -math.expm1(-qm1 * math.log(n)) / qm1

    # f <= 1/2 at lo, and at hi the x_min term alone is 1 while no
    # probability exceeds 1 below it.  The start, where every term is at
    # least 1/W, is the root itself for a flat spectrum; the margin on
    # each side of it leaves room to search past rounding noise there.
    lo, hi = spectrum.x_min - z(2.0 * spectrum.W), spectrum.x_min
    start = min(spectrum.x_max - z(spectrum.W), hi)
    if q.is_super_unit:
        endpoint = spectrum.x_max - 1.0 / qm1
        if report.endpoint_value == 1.0:
            # the root is the endpoint itself, where f' can be singular
            residual = fd(endpoint)[0]
            if abs(residual) > RESIDUAL_BOUND:
                raise ConvergenceError(f"endpoint residual {residual} above bound")
            return ShiftSolution(endpoint, residual, (endpoint, endpoint), 0,
                                 SolveMethod.BISECTION)
        lo = max(lo, endpoint)  # f(endpoint) = endpoint_value < 1

    a0, residual, bracket, iterations = _newton_in_bracket(fd, start, lo, hi, tol, max_iter)
    if abs(residual) > RESIDUAL_BOUND:
        raise ConvergenceError(
            f"solver stopped with residual {residual} after {iterations} iterations"
        )
    return ShiftSolution(a0, residual, bracket, iterations, SolveMethod.BISECTION_THEN_NEWTON)


def shifted_distribution(
    spectrum: Spectrum,
    q: QParam,
    tol: float = 1e-12,
    max_iter: int = 200,
    use_closed_forms: bool = True,
) -> tuple[Distribution, ShiftSolution]:
    """Solve the shift and evaluate p_i = [1 - (q-1)(x_i - a0)]^(1/(q-1)).

    The probabilities come back in spectrum order and sum to 1 within
    the solver residual bound.
    """
    solution = solve_shift(spectrum, q, tol=tol, max_iter=max_iter,
                           use_closed_forms=use_closed_forms)
    probs = _deformed_exp(spectrum.as_array() - solution.a0, q.q - 1.0, cutoff=True)
    return Distribution(probs), solution

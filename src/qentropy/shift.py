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

from .core import (Distribution, QParam, Spectrum, _KERNEL_ERRORS, _NEAR_ONE, _deformed_exp,
                   _numerator, _slope)
from .errors import ConvergenceError, InfeasibleError, SingularityError

#: contract on every successful solve: |f(a0) - 1| <= RESIDUAL_BOUND.
RESIDUAL_BOUND = 1e-10

#: |f(a) - 1| at which the Newton iteration stops by default, and its budget of kernel passes
_SHIFT_TOL, _SHIFT_PASSES = 1e-12, 200


class SolveMethod(enum.Enum):
    BISECTION = "bisection"  # a q > 1 root on the domain endpoint, taken as is
    BISECTION_THEN_NEWTON = "bisection_then_newton"  # bracketed Newton steps


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
    endpoint.  A root exists iff endpoint_value <= 1.
    """

    endpoint_value: float
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
    with np.errstate(**_KERNEL_ERRORS):
        return float(_deformed_exp(spectrum.as_array() - a, q.q - 1.0).sum())


def partition_derivative(a: float, spectrum: Spectrum, q: QParam) -> float:
    """f'(a) = sum_i [1 - (q-1)(x_i - a)]^(1/(q-1) - 1); always positive.

    Each term is one power of its base, so it is finite wherever its value
    is, also where p_i itself overflows.  Where the base overflows, the 1
    in it lies below its rounding, and the term is exp(e ln|(q-1)(x_i - a)|)
    for the exponent e = (2-q)/(q-1).  The base comes from the kernel,
    which raises :class:`DomainError` where it is negative.  When e is
    negative (q < 1 or q > 2) the derivative is singular at a base of
    exactly zero, which raises :class:`SingularityError`.
    """
    qm1, x = q.q - 1.0, spectrum.as_array()
    with np.errstate(**_KERNEL_ERRORS):
        base = np.subtract(x, a)
        p = _deformed_exp(base, qm1, out=np.empty(x.size))  # leaves the base in base
        if qm1 == 0.0:
            return float(np.add.reduce(p))
        huge, e = np.isinf(base), (1.0 - qm1) / qm1
        slope = np.power(base, e, out=base)
        if huge.any():
            slope[huge] = np.exp(e * (math.log(abs(qm1)) + np.log(np.abs(x[huge] - a))))
        if not 1.0 <= q.q <= 2.0 and np.isinf(slope).any():
            raise SingularityError(f"derivative singular at domain endpoint (q={q.q})")
        return float(np.add.reduce(slope))  # inf where the sum overflows


def feasibility(spectrum: Spectrum, q: QParam) -> FeasibilityReport:
    """Report whether a normalizing shift exists.

    Trivially feasible for q <= 1 (f sweeps (0, inf)); for q > 1 the
    exact endpoint sum decides.  It is inf where it overflows.
    """
    if not q.is_super_unit:
        return FeasibilityReport(endpoint_value=0.0, feasible=True)
    with np.errstate(**_KERNEL_ERRORS):
        endpoint_value = _endpoint_sum(spectrum.as_array(), spectrum.x_max, q.q - 1.0)
    return FeasibilityReport(endpoint_value=endpoint_value, feasible=endpoint_value <= 1.0)


def _endpoint_sum(x: np.ndarray, x_max: float, qm1: float) -> float:
    """f at the q > 1 domain endpoint, its terms in gap form, which keeps a zero gap exactly 0."""
    gaps = np.subtract(x_max, x)
    gaps *= qm1
    return float(np.add.reduce(np.power(gaps, 1.0 / qm1, out=gaps)))


def _newton_in_bracket(fd, x: float, lo: float, hi: float, tol: float, max_iter: int):
    """Root of an increasing g on [lo, hi], given g(lo) <= 0 <= g(hi).

    ``fd(x)`` returns (g(x), g'(x)).  The iteration starts at x and
    moves each evaluated point onto the matching end of the bracket.
    The next point is the Newton step when it lands strictly inside the
    bracket, and the midpoint otherwise.  It stops once |g| <= tol,
    after ``max_iter`` evaluations, when no float is left between the
    ends, or when a Newton step with a finite, positive slope rounds
    back to x: the root then lies within half an ulp of x, where
    bisecting the bracket down would only end again.  Returns
    (x, g(x), (lo, hi), evaluations) for the evaluated x of smallest |g|.
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
        step = x - g / dg if 0.0 < dg < math.inf else math.nan
        if step == x:
            break
        if lo < step < hi:
            x = step
        else:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
    return best[0], best[1], (lo, hi), evaluations


def _kernel_pass(x: np.ndarray, a: float, qm1: float, lowest: float,
                 work: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """p of one kernel pass at shift a into ``work[1]``, its base left in ``work[0]``.

    ``work`` is two float arrays the size of x, and ``lowest`` the
    smallest base.  Bases a rounding error below zero at the q > 1
    endpoint count as 0.
    """
    return _deformed_exp(np.subtract(x, a, work[0]), qm1, True, work[1], lowest)


def _pass_numerator(p: np.ndarray, base: np.ndarray, q: float, r: float) -> float | None:
    """The measure's numerator 1 - sum p^q (-sum p ln p at q = 1) of a kernel pass, or None.

    The base of the pass is p^(q-1), and ln p at q = 1, so the sum is one dot product.
    Within ``_NEAR_ONE`` of q = 1 the base becomes p^(q-1) - 1 in place, which is exact
    for a base in [0.5, 2], and r = sum p - 1 of the pass gives the shortfall.  None
    where the dot is not finite, as where p = 0 meets an infinite base.
    """
    if q != 1.0 and abs(q - 1.0) < _NEAR_ONE:
        base -= 1.0
    total = float(np.dot(p, base))
    return _numerator(q, total, -r) if math.isfinite(total) else None


def _z(log_n: float, qm1: float) -> float:
    """Term i of f equals 1/n at a = x_i - _z(ln n, q - 1)."""
    return log_n if qm1 == 0.0 else -math.expm1(-qm1 * log_n) / qm1


def _model_start(x: np.ndarray, qm1: float, scratch: np.ndarray) -> float:
    """The root of f's second-order moment model W e(m - a) (1 + c/b^2) = 1.

    e is the deformed exponential, m and s2 are the mean and variance of
    x, b = 1 - (q-1)(m - a) is the base at the mean and c = (2-q) s2/2,
    so that c/b^2 is s2 e''/(2e).  e(m - a) = 1/N at a = m - z_N, where
    b = N^(1-q); so the root is m - z_N for the N that solves
    ln N = ln W + log1p(c N^(2(q-1))), which three Newton steps on ln N
    from ln W find.  The model is exact for a flat spectrum, for W = 1,
    at q = 2, where c = 0 and f is linear, so that the root is m - z_W,
    and at q = 3/2 while no base is cut off, where e is quadratic.  Where
    it is undefined -- c/b^2 <= -1/2 (q > 2), a step without a positive
    slope (3/2 < q < 2), or beyond a double -- the start is m - z_W, where
    f >= 1 by Jensen's inequality for q < 2.  The moments take one
    subtract into ``scratch`` and two reductions.
    """
    m = float(np.add.reduce(x)) / x.size
    centred = np.subtract(x, m, out=scratch)
    c = (1.0 - qm1) * float(np.dot(centred, centred)) / (2.0 * x.size)
    log_w = log_n = math.log(x.size)
    try:
        for _ in range(3):
            t = c * math.exp(2.0 * qm1 * log_n)  # c/b^2
            slope = 1.0 - 2.0 * qm1 * t / (1.0 + t) if t > -0.5 else math.nan
            if not slope > 0.0:  # also where t or the slope is NaN
                return m - _z(log_w, qm1)
            log_n -= (log_n - log_w - math.log1p(t)) / slope
        return m - _z(log_n, qm1)
    except OverflowError:
        return m - _z(log_w, qm1)


def _solve(spectrum: Spectrum, q: QParam, tol: float):
    """:func:`solve_shift`'s solve: the root a0 of f(a) = 1, the kernel pass at a0, its measure.

    The Newton iteration runs on h = (f^(q-1) - 1)/(q-1) (log f at
    q = 1), which has the sign of f - 1 and is nearly linear in a; it
    stops once |h| <= max(``tol``, eps_q), which is |f - 1| <=
    max(``tol``, eps_q) to within a relative O(``tol``), and a pass that
    does not stop it also sums h' = f^(q-2) f'.  eps_q = 2^-53/|q - 1|,
    at most ``RESIDUAL_BOUND``/4 and 0 at q = 1, is the rounding of one
    base 1 - (q-1)(x_i - a) carried through the power 1/(q-1): below it
    f - 1 is rounding noise, which no further pass resolves.  It begins
    at the log-sum-exp root at q = 1 and at :func:`_model_start`
    otherwise, clamped into the bracket, and takes at most
    ``_SHIFT_PASSES`` passes.  Returns (solution, p, numerator) with p at
    ``solution.a0`` and the residual f(a0) - 1, never NaN: when the
    iteration's best point came before its last pass, one more pass
    evaluates them there.  p lives in the solve's own workspace of two
    arrays, which no later solve reuses.  numerator is the measure's
    1 - sum p^q (:func:`_pass_numerator`), formed from the base that a
    pass meeting the tolerance leaves in the workspace.  It is None where
    the last pass missed the tolerance, a pass that for q != 1 writes the
    slope over its base, or where it is not finite.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    qm1, x, x_min, x_max = q.q - 1.0, spectrum.as_array(), spectrum.x_min, spectrum.x_max
    if qm1 != 0.0:  # eps_q
        tol = max(tol, min(2.0**-53 / abs(qm1), 0.25 * RESIDUAL_BOUND))
    last = None  # (a, p, f - 1, the measure's numerator or None) of the latest pass
    ext = x_max if qm1 > 0.0 else x_min  # its base is the smallest, by the same float operations

    def fd(a: float) -> tuple[float, float]:
        nonlocal last
        lowest = (ext - a) * -qm1 + 1.0
        p = _kernel_pass(x, a, qm1, lowest, work)
        # add.reduce skips the ndarray.sum wrapper, a real share of a small-W pass
        r = float(np.add.reduce(p)) - 1.0
        last = (a, p, r, None)
        if r == -1.0:  # f underflowed to 0, where log1p raises
            return (-1.0 / qm1 if qm1 > 0.0 else -math.inf), math.nan
        log_f = math.log1p(r)
        try:
            h = math.expm1(qm1 * log_f) / qm1 if qm1 != 0.0 else log_f
            if abs(h) <= tol:  # the iteration stops here: f' is not needed, and the base is left
                last = (a, p, r, _pass_numerator(p, work[0], q.q, r))
                return h, math.nan
            slope = _slope(p, work[0], qm1, lowest)
            return h, float(np.add.reduce(slope)) * math.exp((qm1 - 1.0) * log_f)
        except OverflowError:  # h or h' beyond a double: its sign still orders the bracket
            return math.copysign(math.inf, r), math.nan

    # f <= 1/2 at lo, and at hi the x_min term alone is 1 while no
    # probability exceeds 1 below it.  The start is the root itself for a
    # flat spectrum; the margin on each side of it leaves room to search
    # past rounding noise there.
    lo, hi = x_min - _z(math.log(2.0 * x.size), qm1), x_min
    # on a span beyond a double some x_i - a are inf, whose terms are exactly 0
    # for q <= 1, and whose endpoint terms make q > 1 infeasible
    with np.errstate(**_KERNEL_ERRORS):
        endpoint_value = _endpoint_sum(x, x_max, qm1) if qm1 > 0.0 else 0.0
        if not endpoint_value <= 1.0:
            raise InfeasibleError(f"no real shift for q={q.q}: endpoint sum {endpoint_value} > 1")
        work = (np.empty(x.size), np.empty(x.size))  # fd's workspace
        if qm1 > 0.0:
            endpoint = x_max - 1.0 / qm1
            if endpoint_value == 1.0:
                # the root is the endpoint itself, where f' can be singular
                fd(endpoint)
                if not abs(last[2]) <= RESIDUAL_BOUND:
                    raise ConvergenceError(f"endpoint residual {last[2]} above bound")
                return (ShiftSolution(endpoint, last[2], (endpoint, endpoint), 0,
                                      SolveMethod.BISECTION), last[1], last[3])
            lo = max(lo, endpoint)  # f(endpoint) = endpoint_value < 1
        if qm1 == 0.0:
            # the root itself, within an ulp: every term of the sum is at most 1, and one is 1
            terms = np.subtract(x_min, x, out=work[0])
            start = x_min - math.log(float(np.add.reduce(np.exp(terms, out=terms))))
        else:
            start = _model_start(x, qm1, work[0])
        start = hi if not start < hi else max(start, lo)  # a NaN start, where m overflows, too
        a0, _, bracket, iterations = _newton_in_bracket(fd, start, lo, hi, tol, _SHIFT_PASSES)
        if last[0] != a0:
            fd(a0)  # the best point came earlier
    if not abs(last[2]) <= RESIDUAL_BOUND:
        raise ConvergenceError(
            f"solver stopped with residual {last[2]} after {iterations} iterations"
        )
    return (ShiftSolution(a0, last[2], bracket, iterations, SolveMethod.BISECTION_THEN_NEWTON),
            last[1], last[3])


def solve_shift(spectrum: Spectrum, q: QParam, tol: float = _SHIFT_TOL) -> ShiftSolution:
    """Solve f(a0) = 1 for the normalizing shift.

    The solve brackets the root in closed form.  Term i equals 1/n at
    a = x_i - z_n, so f(x_min - z_2W) <= 1/2 and f(x_min) >= 1; the lower
    end is clipped up to the domain endpoint for q > 1.  At q = 1 Newton
    steps start at the root x_min - log sum exp(x_min - x_i) itself,
    within an ulp, so that the first pass confirms it.  Otherwise they
    start at the root of f's second-order moment model
    W e(m - a)(1 + c/b^2) = 1 (:func:`_model_start`), with m and
    s2 the mean and variance of x, b = 1 - (q-1)(m - a) and
    c = (2-q) s2/2, which is exact for W = 1, for a flat spectrum, at
    q = 3/2 and, where f is linear, at q = 2; where the model is
    undefined they start at m - z_W, where f >= 1 for q < 2 by Jensen's
    inequality.  They shrink the bracket, falling back to bisection
    whenever a step would leave it.  They run on the linearising
    transform h = (f^(q-1) - 1)/(q-1), log f at q = 1: each p_i^(q-1) is
    affine in a, so h is exactly linear for W = 1, for a flat spectrum
    and at q = 1, and nearly linear otherwise.  Its slope h' = f^(q-2) f'
    comes from the same kernel pass as f, when it steps.  They stop once
    |h| <= max(``tol``, eps_q); as h = (f - 1)(1 + O(f - 1)), that is
    |f - 1| <= max(``tol``, eps_q) to within a relative O(``tol``).
    ``tol`` is what the CLI's ``--tol`` sets, and eps_q = 2^-53/|q - 1|,
    capped at ``RESIDUAL_BOUND``/4, is the rounding of one base carried
    through the power 1/(q-1), the floor of f's rounding noise near q = 1;
    it exceeds the default ``tol`` only for |q - 1| < 1.12e-4.  They also
    stop once a Newton step rounds back to its own point, where the root
    lies within half an ulp of it.  ``iterations`` counts those kernel
    passes, at least 1, and ``residual`` is f(a0) - 1 itself.  A q > 1
    root on the domain endpoint is taken as is, with 0 iterations and
    method ``BISECTION``.  numpy's overflow, division and invalid-value
    errors are ignored throughout the solve.

    Raises :class:`InfeasibleError` when q > 1 and no root exists, and
    :class:`ConvergenceError` if the budget of ``_SHIFT_PASSES`` passes
    is exhausted with the residual above ``RESIDUAL_BOUND`` or NaN.
    """
    return _solve(spectrum, q, tol)[0]


def shifted_distribution(spectrum: Spectrum, q: QParam) -> tuple[Distribution, ShiftSolution]:
    """Solve the shift and return p_i = [1 - (q-1)(x_i - a0)]^(1/(q-1)) with it.

    p is the kernel pass at a0 that the solve itself ends on, with
    :func:`solve_shift`'s defaults; no further pass evaluates it.  The
    probabilities come back in spectrum order and sum to 1 within the
    solver residual bound.  The ``Distribution`` holds the solve's own
    array, read-only and not copied; only its range is checked again, as
    the solve has checked its sum.  It also records the numerator of the
    measure at q that the solve formed from its last pass, which
    :func:`~qentropy.entropy.uncertainty` reads in place of a pass over p.
    """
    solution, p, numerator = _solve(spectrum, q, _SHIFT_TOL)
    return Distribution._solved(p, q.q, numerator), solution

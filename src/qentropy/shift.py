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

import math
from dataclasses import dataclass

import numpy as np

from .core import (Distribution, QParam, Spectrum, _KERNEL_ERRORS, _NEAR_ONE, _blocks,
                   _deformed_exp1p, _newton_in_bracket, _numerator)
from .errors import ConvergenceError, DomainError, InfeasibleError, SingularityError

#: contract on every successful solve: |f(a0) - 1| <= RESIDUAL_BOUND.
RESIDUAL_BOUND = 1e-10

#: |f(a) - 1| at which the Newton iteration stops by default, and its budget of kernel passes
_SHIFT_TOL, _SHIFT_PASSES = 1e-12, 200


@dataclass(frozen=True)
class ShiftSolution:
    """Solved shift a0 with residual and solver diagnostics."""

    a0: float
    residual: float             # f(a0) - 1
    bracket: tuple[float, float]
    iterations: int


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
    """f(a): the partition sum at shift a.  Strictly increasing in a.

    It is the shift solve's own pass (:func:`_sum_pass`), so a solve's
    ``residual`` is ``partition_value(a0) - 1`` bit for bit.  Its smallest
    base, formed from x_max (x_min for q <= 1) by the pass's float
    operations, raises :class:`DomainError` where it is negative.
    """
    qm1 = q.q - 1.0
    lowest = ((spectrum.x_max if qm1 > 0.0 else spectrum.x_min) - a) * -qm1 + 1.0
    if lowest < 0.0:
        raise DomainError(f"negative base in the deformed exponential (q - 1 = {qm1})")
    with np.errstate(**_KERNEL_ERRORS):
        return _sum_pass(_blocks(spectrum.as_array()), a, qm1, lowest)


def partition_derivative(a: float, spectrum: Spectrum, q: QParam) -> float:
    """f'(a) = sum_i [1 - (q-1)(x_i - a)]^(1/(q-1) - 1); positive.

    Each term is p_i^(2-q) = exp(log1p(t_i) (2-q)/(q-1)) for the base
    1 + t_i (:func:`~qentropy.core._deformed_exp1p`), so it is finite
    wherever its value is, also where p_i itself overflows.  A t_i beyond
    a double, which takes |x_i - a| > 1.8e308/(q - 1) at q > 2, has the
    logarithm log(q - 1) + log(a - x_i), formed from halves of a and x_i,
    so that a - x_i does not overflow either.  A negative base raises
    :class:`DomainError`.  Where the exponent (2-q)/(q-1) is negative (q < 1
    or q > 2) the derivative is singular at a base of exactly zero, which
    raises :class:`SingularityError`.
    """
    qm1, x = q.q - 1.0, spectrum.as_array()
    with np.errstate(**_KERNEL_ERRORS):
        t = np.subtract(x, a)
        np.multiply(t, -(qm1 or 1.0), out=t)
        # the largest t_i, by the same float operations, is the one at x_min
        huge = np.isinf(t) if qm1 > 1.0 and math.isinf((spectrum.x_min - a) * -qm1) else None
        slope = np.empty(t.size)
        _deformed_exp1p(t, qm1, w=slope)
        if huge is not None:
            log_t = np.log(0.5 * a - 0.5 * x[huge]) + math.log(2.0 * qm1)
            slope[huge] = np.exp(log_t * ((1.0 - qm1) / qm1))
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
    x = spectrum.as_array()
    with np.errstate(**_KERNEL_ERRORS):
        endpoint_value = _endpoint_sum(_blocks(x), spectrum.x_max, q.q - 1.0)
    return FeasibilityReport(endpoint_value=endpoint_value, feasible=endpoint_value <= 1.0)


def _endpoint_sum(blocks, x_max: float, qm1: float) -> float:
    """f at the q > 1 domain endpoint, its terms in gap form, which keeps a zero gap exactly 0.

    The terms of each block of x go into its scratch (:func:`_blocks`).
    """
    total = -0.0
    for x, (gaps, _) in blocks:
        np.subtract(x_max, x, out=gaps)
        gaps *= qm1
        total += float(np.add.reduce(np.power(gaps, 1.0 / qm1, out=gaps)))
    return total


class _EndpointRoot(Exception):
    """The exact endpoint sum is 1 below x_min: the root is the endpoint, where f' can be singular."""


def _base(x, a: float, qm1: float, out):
    """The base 1 - (q-1)(x_i - a) of each term of f(a), into ``out``; a - x_i, its log, at q = 1.

    Every pass forms it by these float operations, so the smallest base is
    the one at x_max for q > 1 and at x_min for q < 1, formed from that one
    value alike.
    """
    if qm1 == 0.0:
        return np.subtract(a, x, out=out)
    np.subtract(x, a, out=out)
    out *= -qm1
    out += 1.0
    return out


def _deformed_exp(base, qm1: float, lowest: float, out):
    """The terms base^(1/(q-1)) of f, exp(base) at q = 1, into ``out``; 0 at a base cut off.

    A base below 0, or at 0 for q > 1, whose power is nan or has the wrong
    sign, is cut off.  ``lowest`` is the smallest base (:func:`_base`).  The
    caller owns numpy's error state, which must be ``np.errstate(**_KERNEL_ERRORS)``.
    """
    if qm1 == 0.0:
        return np.exp(base, out=out)
    zero = (base <= 0.0 if qm1 > 0.0 else base < 0.0) if lowest <= 0.0 else None
    p = np.power(base, 1.0 / qm1, out=out)
    if zero is not None:
        p[zero] = 0.0
    return p


def _slope(p, base, qm1: float, lowest: float):
    """p^(2-q) = p / base of a :func:`_deformed_exp` pass, written over its base.

    Once ``lowest``, the smallest base, is <= 0, p^(2-q) at p = 0 replaces -0 and 0/0 where p is 0.
    """
    if qm1 == 0.0:
        return p
    dp = np.divide(p, base, out=base)
    if lowest <= 0.0:
        dp[p == 0.0] = np.power(0.0, 1.0 - qm1)
    return dp


def _share(p, base, qm1: float) -> float:
    """A block's share p . base of the measure's sum; near q = 1, p . (base - 1), edited in place."""
    if qm1 != 0.0 and abs(qm1) < _NEAR_ONE:
        base -= 1.0
    return float(np.dot(p, base))


# Each loop over blocks below sums their parts from -0.0, the identity of float
# addition, so that one block's sum is its part bit for bit.

def _sum_pass(blocks, a: float, qm1: float, lowest: float, dots=None) -> float:
    """f(a): one kernel pass per block of :func:`~qentropy.core._blocks`, summed while in cache.

    Each block's p goes into its part of p, or over its base where p is
    None, and its base is left in the scratch.  ``lowest`` is the smallest
    base; bases a rounding error below zero at the q > 1 endpoint count as 0.
    Where ``dots`` is a list, each block's :func:`_share` of the measure
    is appended to it while its base is still in the scratch.
    """
    total = -0.0
    for x, (base, p) in blocks:
        _base(x, a, qm1, base)
        # add.reduce skips the ndarray.sum wrapper, a real share of a small-W pass
        total += float(np.add.reduce(_deformed_exp(base, qm1, lowest, base if p is None else p)))
        if dots is not None:
            dots.append(_share(p, base, qm1))
    return total


def _slope_sum(blocks, a: float, qm1: float, lowest: float) -> float:
    """f' = sum p^(2-q) of the latest pass, at shift a, each block's written over its base.

    One block's base is the one its pass left in the scratch.  Several
    blocks share the scratch, so each block's base is formed again by
    :func:`_base`; this is the one loop that forms a base twice.
    """
    total = -0.0
    for x, (base, p) in blocks:
        if len(blocks) > 1:
            _base(x, a, qm1, base)
        total += float(np.add.reduce(_slope(p, base, qm1, lowest)))
    return total


def _pass_numerator(blocks, p: np.ndarray, q: float, r: float, dots) -> float | None:
    """The measure's numerator 1 - sum p^q (-sum p ln p at q = 1) of the latest pass, or None.

    The base of the pass is p^(q-1), and ln p at q = 1, so the sum is that
    of the blocks' shares p . base (:func:`_share`): ``dots``, which the pass
    took, over several blocks, and for one the share of the base its pass
    left in the scratch.  Within ``_NEAR_ONE`` of q = 1 a share is
    p . (p^(q-1) - 1), exact for a base in [0.5, 2], and r = sum p - 1 gives
    the shortfall: the pass's own for one block, and over several the one
    ``np.add.reduce`` of the whole p that the measure of a copy of p forms.
    None where the sum is not finite, as where p = 0 meets an infinite base.
    """
    if dots is None:  # one block, whose base its pass left in the scratch
        dots = [_share(p, blocks[0][1][0], q - 1.0)]
    elif q != 1.0 and abs(q - 1.0) < _NEAR_ONE:
        r = float(np.add.reduce(p)) - 1.0
    total = -0.0
    for dot in dots:
        total += dot
    return _numerator(q, total, -r) if math.isfinite(total) else None


def _z(log_n: float, qm1: float) -> float:
    """Term i of f equals 1/n at a = x_i - _z(ln n, q - 1)."""
    return log_n if qm1 == 0.0 else -math.expm1(-qm1 * log_n) / qm1


def _moments(blocks, w: int) -> tuple[float, float]:
    """The mean m of x and its sum of squares about m, sum (x_i - m)^2.

    Each block takes one subtract into its scratch and a dot.
    """
    total = -0.0
    for x, _ in blocks:
        total += float(np.add.reduce(x))
    m, squares = total / w, -0.0
    for x, (scratch, _) in blocks:
        centred = np.subtract(x, m, out=scratch)
        squares += float(np.dot(centred, centred))
    return m, squares


def _model_start(w: int, m: float, squares: float, qm1: float) -> float:
    """The root of f's second-order moment model W e(m - a) (1 + c/b^2) = 1.

    e is the deformed exponential, m and s2 = ``squares``/W are the mean and
    variance of x (:func:`_moments`), b = 1 - (q-1)(m - a) is the base at
    the mean and c = (2-q) s2/2, so that c/b^2 is s2 e''/(2e).  e(m - a) = 1/N
    at a = m - z_N, where b = N^(1-q); so the root is m - z_N for the N that
    solves ln N = ln W + log1p(c N^(2(q-1))), which three Newton steps on
    ln N from ln W find.  The model is exact for a flat spectrum, for W = 1,
    at q = 2, where c = 0 and f is linear, so that the root is m - z_W, and
    at q = 3/2 while no base is cut off, where e is quadratic.  Where it is
    undefined -- c/b^2 <= -1/2 (q > 2), a step without a positive slope
    (3/2 < q < 2), or beyond a double -- the start is m - z_W, where f >= 1
    by Jensen's inequality for q < 2.
    """
    c = (1.0 - qm1) * squares / (2.0 * w)
    log_w = log_n = math.log(w)
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

    Returns (solution, p, numerator).  p is the solve's own W-length array,
    the pass at ``solution.a0``, which no later solve reuses; where the
    iteration's best point came before its last pass, one more pass
    evaluates it, so the residual is that pass's f(a0) - 1, never NaN.
    Since a0 <= x_min, each base lies on the side of 1 whose power is in
    [0, 1].  numerator is the measure's 1 - sum p^q (:func:`_pass_numerator`)
    of a pass meeting the tolerance; it is None where the last pass missed
    the tolerance (for q != 1 that pass wrote the slope over its base) or
    where it is not finite.  Over several blocks each pass takes the
    measure's shares (:func:`_share`) while each base is in the one-block
    scratch (:func:`~qentropy.core._blocks`); only the slope's loop forms
    the bases again.  Where q > 1 and lo is the domain endpoint, the root's
    existence is open until a pass proves it or :func:`_endpoint_sum`
    decides it (:func:`solve_shift`).  That sum writes over the scratch, so
    it is formed only after a pass has taken its slope or its measure.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    qm1, x, x_min, x_max = q.q - 1.0, spectrum.as_array(), spectrum.x_min, spectrum.x_max
    if qm1 != 0.0:  # eps_q
        tol = max(tol, min(2.0**-53 / abs(qm1), 0.25 * RESIDUAL_BOUND))
    last = None  # (a, p, f - 1, the measure's numerator or None) of the latest pass
    ext = x_max if qm1 > 0.0 else x_min  # its base is the smallest, by the same float operations
    p = np.empty(x.size)
    blocks = _blocks(x, p)  # fd's workspace
    # q > 1 with lo on or near the domain endpoint, where f may exceed 1: whether
    # a root exists is open until a pass proves it or the exact endpoint sum decides
    open_end = False

    def decide() -> None:
        """Form the exact endpoint sum; no root exists where it exceeds 1."""
        nonlocal open_end
        open_end = False
        endpoint_value = _endpoint_sum(blocks, x_max, qm1)
        if not endpoint_value <= 1.0:
            raise InfeasibleError(f"no real shift for q={q.q}: endpoint sum {endpoint_value} > 1")
        if endpoint_value == 1.0 and lo < hi:
            raise _EndpointRoot

    def fd(a: float) -> tuple[float, float]:
        nonlocal last, open_end
        lowest = (ext - a) * -qm1 + 1.0
        dots = [] if len(blocks) > 1 else None  # the measure's shares, taken in the pass
        r = _sum_pass(blocks, a, qm1, lowest, dots) - 1.0
        last = (a, p, r, None)
        if open_end and lowest >= 2.0**-50:
            # f at the endpoint is at most f(a) less its x_max term, lowest^k; noise bounds
            # the rounding of both and of the exact sum, as no base lies below lowest
            k = 1.0 / qm1
            noise = (x.size + 4) * 2.0**-50 * (k * lowest ** min(k - 1.0, 0.0) + 1.0)
            open_end = not r < lowest ** k - noise
        if r == -1.0:  # f underflowed to 0, where log1p raises
            return (-1.0 / qm1 if qm1 > 0.0 else -math.inf), math.nan
        log_f = math.log1p(r)
        try:
            h = math.expm1(qm1 * log_f) / qm1 if qm1 != 0.0 else log_f
            if abs(h) <= tol:  # the iteration stops here, and f' is not needed
                last = (a, p, r, _pass_numerator(blocks, p, q.q, r, dots))
                return h, math.nan
            dh = _slope_sum(blocks, a, qm1, lowest) * math.exp((qm1 - 1.0) * log_f)
        except OverflowError:  # h or h' beyond a double: its sign still orders the bracket
            return math.copysign(math.inf, r), math.nan
        if open_end and 0.0 < dh < math.inf and a - h / dh <= lo:
            decide()  # a step from f > 1 reaches the endpoint
        return h, dh

    # f <= 1/2 at lo, and at hi the x_min term alone is 1 while no
    # probability exceeds 1 below it.  The start is the root itself for a
    # flat spectrum; the margin on each side of it leaves room to search
    # past rounding noise there.
    lo, hi = x_min - _z(math.log(2.0 * x.size), qm1), x_min
    # on a span beyond a double some x_i - a are inf, whose terms are exactly 0
    # for q <= 1, and whose endpoint terms make q > 1 infeasible
    with np.errstate(**_KERNEL_ERRORS):
        if qm1 > 0.0:
            endpoint = x_max - 1.0 / qm1
            if endpoint >= x_min:  # the x_min term alone is about 1: decide now
                lo = x_min
                decide()
            elif endpoint >= lo - 2.0**-50 * (abs(x_min) + abs(x_max) + 2.0 / qm1):
                # else lo lies above the endpoint by more than their rounding
                lo, open_end = max(lo, endpoint), True
        if qm1 == 0.0:
            # the root itself, within an ulp: every term of the sum is at most 1, and one is 1
            start = x_min - math.log(_sum_pass(blocks, x_min, 0.0, 1.0))
        else:
            start = _model_start(x.size, *_moments(blocks, x.size), qm1)
        start = hi if not start < hi else max(start, lo)  # a NaN start, where m overflows, too
        try:
            a0, _, bracket, iterations = _newton_in_bracket(fd, start, lo, hi, tol, _SHIFT_PASSES)
            if open_end:  # no pass has shown f <= 1 at the endpoint
                decide()
        except _EndpointRoot:  # the steps start again on the root
            a0, _, bracket, iterations = _newton_in_bracket(fd, lo, lo, hi, tol, _SHIFT_PASSES)
        if last[0] != a0:
            fd(a0)  # the best point came earlier
    if not abs(last[2]) <= RESIDUAL_BOUND:
        raise ConvergenceError(
            f"solver stopped with residual {last[2]} after {iterations} iterations"
        )
    return ShiftSolution(a0, last[2], bracket, iterations), last[1], last[3]


def solve_shift(spectrum: Spectrum, q: QParam, tol: float = _SHIFT_TOL) -> ShiftSolution:
    """Solve f(a0) = 1 for the normalizing shift.

    The solve brackets the root in closed form.  Term i equals 1/n at
    a = x_i - z_n, so f(x_min - z_2W) <= 1/2 and f(x_min) >= 1; the lower
    end is clipped up to the domain endpoint for q > 1.  At q = 1 Newton
    steps start at the root x_min - log f(x_min) itself, within an ulp,
    from one pass at x_min, so that the first pass of the iteration
    confirms it.  Where the rounded q > 1 endpoint is at or above x_min,
    the bracket closes on x_min, and the first pass confirms the root there.
    Otherwise they start at the root of f's second-order moment model
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
    passes, at least 1, and ``residual`` is f(a0) - 1 itself, bit for bit
    ``partition_value(a0) - 1``, which is the same pass.  Each pass, and
    the moments, run over blocks of x of about 2^15 states, which stay in
    cache, with one W-length array for p and a one-block scratch; below
    2^15 states each runs once, and the sums of several blocks add up
    their partial sums.

    Whether a q > 1 root exists, where the endpoint sum
    sum_i (qm1 g_i)^(1/qm1), g_i = x_max - x_i, is at most 1, is decided
    from the bracket.  Where x_min - z_2W lies above the endpoint by more
    than their rounding, f <= 1/2 there: a root exists, as near q = 1, on
    small spans, for W = 1 and for a flat spectrum.  Where the rounded
    endpoint is at or above x_min, the exact sum decides at once.
    Otherwise lo is the endpoint, and f there is at most f(a) less the
    pass's x_max term lowest^k, for its smallest base lowest >= 2^-50 and
    k = 1/qm1; a pass where that lies below 1 by more than its rounding,
    (W + 4) 2^-50 (k lowest^min(k - 1, 0) + 1), proves a root.  The exact
    sum, whose powers near q = 1 nearly all underflow, is formed only where
    a Newton step from f > 1 reaches the endpoint, or where the iteration
    ends unproven: a pass within the tolerance of f = 1 proves nothing
    next to an endpoint sum above 1 by less than the pass's rounding.  A
    sum of exactly 1 puts the root on the endpoint, where the steps start
    again.  numpy's overflow, division and invalid-value errors are
    ignored throughout the solve.

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
    array, read-only, neither copied nor scanned again: the solve has
    checked its sum, and its a0 <= x_min puts p in [0, 1].  It also
    records the numerator of the measure at q that the solve formed from
    its last pass, which :func:`~qentropy.entropy.uncertainty` reads in
    place of a pass over p.
    """
    solution, p, numerator = _solve(spectrum, q, _SHIFT_TOL)
    return Distribution._solved(p, q.q, numerator), solution

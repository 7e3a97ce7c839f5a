"""Maximum-entropy reconstruction of the q-exponential distribution.

Maximizing the uncertainty measure under normalization and a mean-energy
constraint (multipliers alpha and beta) yields exactly the shifted
q-exponential on the scaled spectrum {beta * eps_i}: the stationarity
condition reads p_i^(q-1) = (1-q) alpha - (q-1) beta eps_i, which is the
deformed factor with shift a = -1/(q-1) - alpha.  So the maximizer is
one shift solve on {beta eps_i}, whose a0 gives alpha.  The contrasting
escort construction is self-referential -- its right-hand side depends on
the distribution being solved for -- yet its fixed point is the maximizer
at q = 2 - q_tilde for one multiplier b, the root of a scalar equation.  As
the maximizer's base is affine in (a, beta), both that root and the beta
inversion are bracketed Newton steps on one scalar along a ray of fixed
shape, where normalization is a division: one kernel pass per probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Distribution, QParam, Spectrum, _KERNEL_ERRORS, _deformed_exp1p,
                   _deformed_log, _newton_in_bracket)
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    InfeasibleError,
    RangeError,
)
from .shift import ShiftSolution, shifted_distribution


@dataclass(frozen=True)
class EscortSolution:
    """Fixed point of the self-referential escort distribution."""

    p: Distribution
    residual: float     # max component mismatch under one undamped map application
    iterations: int     # probes of the root solve, each one kernel pass; 0 in closed form
    converged: bool     # always true: a solve that fails raises


def maxent_distribution(
    q: QParam, energies: Spectrum, beta: float
) -> tuple[Distribution, ShiftSolution]:
    """Constrained maximizer of the uncertainty measure at multiplier beta.

    One :func:`shifted_distribution` on the scaled spectrum {beta * eps_i},
    whose final kernel pass is p; the achieved mean energy is sum p_i eps_i.
    """
    beta = float(beta)
    if not math.isfinite(beta):
        raise RangeError(f"beta must be finite, got {beta!r}")
    return shifted_distribution(energies.scaled(beta), q)


def mean_energy(p: Distribution, energies: Spectrum) -> float:
    """Expectation sum_i p_i eps_i."""
    if p.W != energies.W:
        raise ValueError("distribution and spectrum sizes differ")
    return _mean_energy(p.as_array(), energies.as_array())


def _mean_energy(p: np.ndarray, x: np.ndarray) -> float:
    """sum_i p_i x_i of two arrays, as :func:`mean_energy` forms it."""
    return float(np.add.reduce(p * x))


def _uniform(W: int) -> Distribution:
    """The maximizer at beta = 0, where every scaled value is 0: p = 1/W exactly."""
    return Distribution(np.full(W, 1.0 / W))


#: the share of beta's feasible boundary (q > 1) where shift solves still resolve the root
_CAP = 1.0 - 1e-3


class _Chart:
    """The maximizer at q on {beta eps_i} on one side of beta, one kernel pass per point.

    Each pass also sums u and w against 1, d and d^2 in one matrix product.

    d_i = sign (eps_i - eps_ref) / 2^k lies in [0, 4), with eps_ref the
    extreme energy on the side ``sign`` (x_min for beta > 0) and 2^k a
    power of two near the span, so no difference overflows.  At
    s >= 0, u = e_q(s d) lies in [0, 1] with u_ref = 1, and p = u / sum u is
    the maximizer at beta = sign s (sum u)^-(q-1) / 2^k: the base of p is
    affine in eps.  A pass forms u and w = u^(2-q) as exponentials of
    log1p((1 - q) s d) (:func:`~qentropy.core._deformed_exp1p`), so that u
    keeps its relative accuracy as q -> 1.  For q > 1,
    ``s_max`` = 1/((q - 1) max d) is the feasible boundary, where the
    farthest u reaches 0; the pass counts the bases that rounding leaves
    below 0 there as 0.  A span beyond a double raises
    :class:`InfeasibleError` for q > 1, as every feasible |beta| lies below
    1/((q - 1) span).  The energies must not be flat.
    """

    def __init__(self, q: float, energies: Spectrum, sign: float):
        span = energies.x_max - energies.x_min
        if q > 1.0 and not math.isfinite(span):
            raise InfeasibleError(f"no feasible beta for q={q}: the spectrum's span "
                                  "overflows a double")
        k = min(max(math.frexp(span)[1], -1021), 1023) if math.isfinite(span) else 1023
        self.qm1, self.sign, self.energies, self.scale = q - 1.0, sign, energies, 2.0**k
        self.c = -(self.qm1 or 1.0)
        self.ref, self.unit = energies.x_min if sign > 0.0 else energies.x_max, sign / self.scale
        self.powers = np.empty((3, energies.W))  # 1, d and d^2, for one product per pass
        self.powers[0] = 1.0
        self.d = np.subtract(energies.as_array() * self.unit, self.ref * self.unit,
                             out=self.powers[1])
        np.multiply(self.d, self.d, out=self.powers[2])
        self.uw = np.empty((2, energies.W))
        self.u, self.w = self.uw
        # the largest d, at the far end by the same float operations, as rounding is monotone
        far = energies.x_max if sign > 0.0 else energies.x_min
        self.d_max = far * self.unit - self.ref * self.unit
        self.s_max = 1.0 / (self.qm1 * self.d_max) if self.qm1 > 0.0 else math.inf

    def __call__(self, s: float):
        """(u, u^(2-q), sum u) at s; the next pass overwrites both arrays.

        ``sums`` holds (sum u, sum u d, sum u d^2) and (sum w, sum w d, sum w d^2)
        from one matrix product.
        """
        # t = (s d)(1 - q), the base minus 1, and -s d at q = 1; its smallest value, by the
        # same two roundings, lies at d_max for q > 1 and at d = 0 for q < 1
        t = np.multiply(np.multiply(self.d, s, out=self.u), self.c, out=self.u)
        lowest = (self.d_max * s) * self.c if self.qm1 > 0.0 else 0.0
        u = _deformed_exp1p(t, self.qm1, True, self.w, lowest)
        self.sums = np.dot(self.uw, self.powers.T).tolist()
        self.s, self.total = s, self.sums[0][0]
        return u, self.w, self.total

    def probs(self, s: float) -> np.ndarray:
        """p = u / sum u at s, written over u: the latest pass's, or one more pass at s."""
        if s != self.s:
            self(s)
        return np.divide(self.u, self.total, out=self.u)

    def beta(self) -> float:
        """beta at the latest pass, with the power taken in logs; RangeError beyond a double."""
        power = -self.qm1 * math.log(self.total)
        beta = self.s * math.exp(power) / self.scale
        if self.s > 0.0 and not 0.0 < beta < math.inf:  # a factor beyond a double: all in logs
            try:
                beta = math.exp(math.log(self.s) + power - math.log(self.scale))
            except OverflowError:
                beta = math.inf
        if not 0.0 < beta < math.inf:
            raise RangeError(f"the multiplier at s = {self.s} lies beyond a double")
        return self.sign * beta

    def cap(self) -> float:
        """``_CAP`` times |beta| at ``s_max`` (q > 1), from exact gaps to the far end."""
        far = self.energies.x_max if self.sign > 0.0 else self.energies.x_min
        gaps = np.subtract(far * self.unit, self.energies.as_array() * self.unit)
        total = float(np.add.reduce(np.power(gaps / gaps.max(), 1.0 / self.qm1)))
        return _CAP * self.s_max * math.exp(-self.qm1 * math.log(total)) / self.scale


#: |U - target| that every beta solve meets, and its budget of probes
_BETA_TOL, _BETA_PROBES = 1e-10, 200


def solve_beta(q: QParam, energies: Spectrum, target_u: float) -> tuple[float, Distribution]:
    """Invert the mean-energy constraint for the multiplier beta.

    The target must lie strictly inside the open energy hull (with a
    one-point spectrum only the single energy itself is allowed, at
    beta = 0).  beta = 0 is returned where the target equals U(0), the
    plain mean of the energies, to their rounding, one ulp of the largest
    |eps|.  Otherwise the solve runs on the s of one :class:`_Chart`, on the
    side of beta that the sign of U(0) - target picks.  There the mean
    energy U = eps_ref + sign 2^k D, D = sum u d / sum u, moves strictly
    towards eps_ref as s grows, with dD/ds = -(sum w d^2 - D sum w d) / sum u
    for w = u^(2-q) from the same kernel pass.

    s = 0 costs no pass, as u = w = 1 there.  The first probe is the
    smallest positive root of D's second-order expansion at s = 0,
    D(s) ~ mu1 - kappa2 s + c2 s^2 with c2 = (1 - q/2)(mu3 - mu1 mu2) - mu1 kappa2
    for the moments mu_k and the variance kappa2 of d, or the Newton step
    from s = 0 where that root is not real and positive.  For q > 1 it is
    clipped to ``s_max``, and s doubles from it until target - U changes
    sign.  Bracketed Newton steps start at the end of the bracket with the
    smaller |target - U| and stop once |D* - D| <= ``_BETA_TOL`` / max(1, 2^k):
    |U - target| <= ``_BETA_TOL`` for spans above 1/2, and the same share of
    2^k below, so that scaling the energies and the target by c gives beta / c
    and the same p.

    The returned p always meets the contract |mean_energy(p) - target| <=
    ``_BETA_TOL``, with :func:`mean_energy`'s own sum: a probe that meets the
    stop rule, or whose U lies within 4 ulps of the largest |eps| of the
    target, where rounding hides its side, is taken where that sum meets the
    contract, and the steps go on from that sum where it does not.  Where the steps end short of the
    stop rule, the root lying between adjacent floats of s, their best probe
    is taken if |U - target| <= ``_BETA_TOL`` there too, unless the bracket
    still ends at ``s_max``, where the farthest u is cut off.  A root whose
    beta lies beyond ``_CAP`` of the feasible boundary is out of reach.

    Raises :class:`RangeError` for targets outside the hull and for a
    beta beyond a double, :class:`InfeasibleError` for q > 1 on a
    spectrum whose span overflows a double, :class:`BracketError` when no
    sign change exists in the feasible range, and
    :class:`ConvergenceError` when no probe meets the contract.
    """
    target_u = float(target_u)
    if not math.isfinite(target_u):
        raise RangeError(f"target energy must be finite, got {target_u!r}")
    if energies.x_min == energies.x_max:
        if target_u != energies.x_min:
            raise RangeError(
                f"flat spectrum admits only target {energies.x_min}, got {target_u}"
            )
        return 0.0, _uniform(energies.W)
    if not (energies.x_min < target_u < energies.x_max):
        raise RangeError(
            f"target {target_u} outside the open hull ({energies.x_min}, {energies.x_max})"
        )

    W, x, largest = energies.W, energies.as_array(), max(-energies.x_min, energies.x_max)
    tie = 2.0**-52 * largest  # an ulp of the largest |eps|
    # U(0), the plain mean, picks beta's side, where its sum cannot overflow; the chart's
    # own mean corrects the side where it could, or where rounding picked it
    plain = float(np.add.reduce(x)) / W if W * largest < 1e308 else energies.x_min
    sign = 1.0 if target_u < plain else -1.0
    for sign in (sign, -sign):
        chart = _Chart(q.q, energies, sign)
        level = (target_u - chart.ref) * chart.unit  # D*, in the chart's units
        mu1, mu2, mu3 = (np.dot(chart.powers, chart.d) / W).tolist()  # moments of d
        g0 = level - mu1  # D* - D(0), below 0 on beta's side
        if g0 * chart.scale <= tie:
            break

    def uniform() -> tuple[float, Distribution]:
        """beta = 0 with p = 1/W, where its mean energy meets the target."""
        p = _uniform(W)
        if not abs(mean_energy(p, energies) - target_u) <= _BETA_TOL:
            raise ConvergenceError(f"the uniform p misses the target {target_u} by more "
                                   f"than {_BETA_TOL}")
        return 0.0, p

    if abs(g0) * chart.scale <= tie:
        return uniform()
    # g = D* - D(s), increasing in s; |g| <= tol is |U - target| <= _BETA_TOL above 2^k = 1.
    # Within 4 ulps of the largest |eps| the rounding of U hides the sign of g, so there
    # mean_energy decides
    tol = _BETA_TOL / max(1.0, chart.scale)
    close = max(tol, 4.0 * tie / chart.scale)
    solved, found = {}, []  # s -> (g, its slope) of each probe; the accepted (s, p)

    def fd(s: float) -> tuple[float, float]:
        """D* - D(s) and its slope, one pass per new s; mean_energy decides close to D*."""
        if s not in solved:
            u, _, su = chart(s)
            (_, sud, _), (_, swd, swd2) = chart.sums
            mean_d = sud / su
            g = level - mean_d
            if abs(g) <= close:
                p = np.divide(u, su)
                miss = chart.sign * (target_u - _mean_energy(p, x))
                if abs(miss) <= _BETA_TOL:  # the steps stop here
                    found.append((s, p))
                    g = 0.0
                else:  # they step on from U as mean_energy forms it, above tol
                    g = miss / chart.scale
            solved[s] = (g, (swd2 - mean_d * swd) / su)
        return solved[s]

    # u = w = 1 at s = 0, so its point costs no pass; the variance of d is at least
    # max d^2 / 2W, far above the rounding of mu2 - mu1^2
    k2 = mu2 - mu1 * mu1
    c2 = (1.0 - 0.5 * q.q) * (mu3 - mu1 * mu2) - mu1 * k2
    solved[0.0] = (g0, k2)
    disc = k2 * k2 + 4.0 * g0 * c2  # of g0 + k2 s - c2 s^2 = 0
    first = -2.0 * g0 / (k2 + math.sqrt(disc)) if disc >= 0.0 else math.nan
    near, reach = 0.0, first if 0.0 < first < math.inf else -g0 / k2
    # for q > 2, w overflows where u nears the cutoff
    with np.errstate(**_KERNEL_ERRORS):
        while True:
            far = min(reach, chart.s_max)
            if fd(far)[0] >= 0.0:
                break
            if far == chart.s_max or reach >= 2.0**80:
                raise BracketError(f"no sign change for target {target_u} within the "
                                   "feasible beta range")
            near, reach = far, 2.0 * reach
        start = near if abs(solved[near][0]) < abs(solved[far][0]) else far
        s, g, (_, hi), _ = _newton_in_bracket(fd, start, near, far, tol, _BETA_PROBES)
        if found and found[-1][0] == s:
            p = found[-1][1]
        else:  # s = 0, or ended short of tol: mean_energy decides, but not at the cut-off
            if not (abs(g) <= tol or hi < chart.s_max and abs(g) * chart.scale <= _BETA_TOL):
                raise ConvergenceError(f"beta solve stalled at |U - target| = "
                                       f"{abs(g) * chart.scale} for target {target_u}")
            if s == 0.0:
                return uniform()
            if chart.s != s:
                chart(s)
            p = np.divide(chart.u, chart.total)
            if not abs(_mean_energy(p, x) - target_u) <= _BETA_TOL:
                raise ConvergenceError(f"beta solve missed the target {target_u}")
        beta = chart.beta()
    # beta / cap <= s / s_max, as sum u falls while s grows
    if s > _CAP * chart.s_max and abs(beta) > chart.cap():
        raise BracketError(f"target {target_u} needs a beta beyond the feasible cap")
    return beta, Distribution._solved(p, q.q, None)


def _stationarity(q: QParam, energies: Spectrum, beta: float, dist: Distribution,
                  a0: float) -> float:
    """Max-norm of the Lagrangian gradient at the distribution solved with shift a0."""
    probs = dist.as_array()
    if (probs <= 0.0).any():
        raise DomainError("stationarity gradient requires strictly positive probabilities")
    values = _deformed_log(probs, q.q - 1.0) + a0
    return float(np.abs(values - beta * energies.as_array()).max())


def stationarity_residual(q: QParam, energies: Spectrum, beta: float) -> float:
    """Max-norm of the Lagrangian gradient at the :func:`maxent_distribution` solution.

    With the normalization multiplier taken from the solved shift a0, the
    gradient is x_i - beta eps_i, where x_i = a0 - expm1((q-1) ln p_i)/(q-1)
    recovers the value of p_i through the deformed logarithm.  Requires
    every probability to be strictly positive.
    """
    dist, solution = maxent_distribution(q, energies, beta)
    return _stationarity(q, energies, beta, dist, solution.a0)


#: probes of the escort root solve before it takes its best point, and the log s
#: it clips to, so that s d with d below 4 stays below 2^1023
_ESCORT_PROBES, _LOG_S_MAX = 100, 1021 * math.log(2.0)


def escort_distribution(
    q_tilde: float,
    energies: Spectrum,
    beta: float,
    tol: float = 1e-10,
) -> EscortSolution:
    """Solve the self-referential escort distribution as one 1-D root.

    The escort map sends p to the normalized vector of

        [1 - (1 - q_tilde)(x_i - xbar) / c]^(1/(1 - q_tilde))

    with x_i = beta eps_i, c = sum p^q_tilde and xbar = sum p^q_tilde x / c.
    At a fixed point p^(q-1) is affine in eps for q = 2 - q_tilde, so p is
    the maximizer at q on {b eps_i} for one scalar b, and the escort
    average of p^(q-1), which is 1/c, gives b c(b)^2 = beta.  On the s of
    a :class:`_Chart`, b = s (sum u)^-(q-1) / 2^k and c = sum w / (sum u)^q_tilde
    for w = u^q_tilde, so the root in log s, each probe one kernel pass, is

        G = log s + 2 log sum w - (1 + q_tilde) log sum u - log(|beta| 2^k) = 0,
        dG/dlog s = 1 - s (2 q_tilde sum d w^2/u / sum w - (1 + q_tilde) sum w d / sum u).

    As c lies between 1 and W^(1 - q_tilde) and sum u between 1 and W, log s
    lies within log(|beta| 2^k) + (q - 1) log W times [-2, 1] (q > 1) or
    [1, -2] (q < 1), clipped for q > 1 to where b reaches ``_CAP`` of its
    feasible boundary, near which c and G fall steeply.  Bracketed Newton
    steps start where p = 1/W would put the root.  beta = 0 and a flat
    spectrum give p = 1/W; at q_tilde = 1 the range is one point, the softmax.

    ``residual`` is the largest change of p under one undamped map
    application; above ``tol`` it raises :class:`ConvergenceError`, and a
    negative bracket there :class:`DomainError`.  The probes and the map
    application form every power through log1p, as the chart does, so that
    neither G nor the residual carries the rounding of a bracket times
    1/|1 - q_tilde| as q_tilde -> 1.  No root below the
    clipped end raises :class:`InfeasibleError` when the lower end of b's
    range lies beyond the cap already, else :class:`BracketError`; so does
    q_tilde < 1 on a spectrum whose span overflows a double (the former).
    ``p`` holds the chart's p = u / sum u of the root's pass, read-only and
    not copied, as :func:`solve_beta` hands over its own.
    """
    qt = float(q_tilde)
    if not math.isfinite(qt) or qt <= 0.0:
        raise RangeError(f"escort index must be a finite real > 0, got {q_tilde!r}")
    beta = float(beta)
    if not math.isfinite(beta):
        raise RangeError(f"beta must be finite, got {beta!r}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    W = energies.W
    if beta == 0.0 or energies.x_min == energies.x_max:
        return EscortSolution(_uniform(W), 0.0, 0, True)  # every bracket is 1
    chart = _Chart(2.0 - qt, energies, math.copysign(1.0, beta))
    qm1, d, log_w, v = chart.qm1, chart.d, math.log(W), np.empty(W)
    level = math.log(abs(beta)) + math.log(chart.scale)
    lo, hi = level + min(-2.0 * qm1, qm1) * log_w, level + max(-2.0 * qm1, qm1) * log_w
    # below _CAP s_max, b stays within the cap, as b / cap <= s / s_max
    clipped, hi = hi > math.log(_CAP * chart.s_max), min(hi, math.log(_CAP * chart.s_max))

    solved = {}  # log s -> (G, its slope) of each probe

    def fd(log_s: float) -> tuple[float, float]:
        if log_s not in solved:
            u, w, su = chart(math.exp(min(log_s, _LOG_S_MAX)))
            _, (sw, swd, _) = chart.sums
            svd = float(np.dot(np.divide(np.multiply(w, w, out=v), u, out=v), d))  # u^(2qt-1)
            solved[log_s] = (log_s + 2.0 * math.log(sw) - (1.0 + qt) * math.log(su) - level,
                             1.0 - chart.s * (2.0 * qt * svd / sw - (1.0 + qt) * swd / su))
        return solved[log_s]

    def fb(log_s: float) -> tuple[float, float]:
        su = chart(math.exp(log_s))[2]  # log(b / cap), rising in log s
        return math.log(abs(chart.beta()) / cap), 1.0 + qm1 * chart.s * chart.sums[1][1] / su

    # |G| within tol / 100 leaves the map residual far inside tol.  A clipped end is
    # probed once the root lies above the start: near the cap, c and so G fall again
    start, g = min(level - qm1 * log_w, hi), -math.inf
    with np.errstate(**_KERNEL_ERRORS):  # u^(2qt-1) near 0
        if not clipped or lo <= hi and (fd(start)[0] >= 0.0 or fd(hi)[0] >= 0.0):
            log_s, g, _, _ = _newton_in_bracket(fd, start, lo, hi, 1e-2 * tol, _ESCORT_PROBES)
        if clipped and g < -1e-2 * tol:  # a root up to where b reaches the cap
            cap, lo, end = chart.cap(), max(lo, hi), math.log(chart.s_max)
            top = _newton_in_bracket(fb, lo, lo, end, 1e-15, _ESCORT_PROBES)[0] if lo < end else lo
            if top > lo and fd(top)[0] >= -1e-2 * tol:
                log_s, g, _, _ = _newton_in_bracket(fd, top, lo, top, 1e-2 * tol, _ESCORT_PROBES)
        if clipped and g < -1e-2 * tol:
            low = cap < abs(beta) * math.exp(-2.0 * qm1 * log_w)  # the lower end of b's range
            raise (InfeasibleError if low else BracketError)(
                f"no escort multiplier within the beta caps at beta {beta}")
        p = chart.probs(math.exp(min(log_s, _LOG_S_MAX)))
        # one map application, in the chart's units: x_i - xbar = |beta| 2^k (d_i - dbar).
        # Its weights p^q_tilde are the pass's w = u^q_tilde = (p / max p)^q_tilde over
        # (sum u)^q_tilde, so c = sum p^q_tilde is taken in logs: p^q_tilde itself
        # underflowed for most weights at large q_tilde
        _, (sw, swd, _) = chart.sums
        arg = np.subtract(d, swd / sw)
        log_c = math.log(sw) - qt * math.log(chart.total)
        t = np.multiply(arg, float(np.exp(level - log_c)), out=arg)  # x_i - xbar over c
        mapped = _deformed_exp1p(np.multiply(t, -(qm1 or 1.0), out=t), qm1)
        residual = float(np.abs(mapped / mapped.sum() - p).max())
    if not residual <= tol:
        raise ConvergenceError(f"escort solve left a map residual of {residual}")
    return EscortSolution(Distribution._solved(p, 2.0 - qt, None), residual, len(solved), True)

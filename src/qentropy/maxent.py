"""Maximum-entropy reconstruction of the q-exponential distribution.

Maximizing the uncertainty measure under normalization and a mean-energy
constraint (multipliers alpha and beta) yields exactly the shifted
q-exponential on the scaled spectrum {beta * eps_i}: the stationarity
condition reads p_i^(q-1) = (1-q) alpha - (q-1) beta eps_i, which is the
deformed factor with shift a = -1/(q-1) - alpha.  The contrasting escort
construction is self-referential -- its right-hand side depends on the
distribution being solved for -- yet its fixed point is the maximizer at
q = 2 - q_tilde for one multiplier b, the root of a scalar equation.  So
the beta inversion and the escort solve are both bracketed Newton steps
on one scalar, each probe one warm-started shift solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Distribution, QParam, Spectrum, _deformed_exp
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    InfeasibleError,
    NormalizationError,
    RangeError,
)
from .shift import (
    ShiftSolution,
    _kernel_pass,
    _newton_in_bracket,
    _solve_root,
    _z,
    shifted_distribution,
)


@dataclass(frozen=True)
class LagrangeParams:
    """Multipliers (alpha for normalization, beta for energy) plus energies."""

    alpha: float
    beta: float
    energies: Spectrum

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha) or not math.isfinite(self.beta):
            raise RangeError("multipliers must be finite")


@dataclass(frozen=True)
class EscortSolution:
    """Fixed point of the self-referential escort distribution."""

    p: Distribution
    residual: float     # max component mismatch under one undamped map application
    iterations: int     # probes of the root solve, each one shift solve; 0 in closed form
    converged: bool     # always true: a solve that fails raises


def shift_from_alpha(q: QParam, alpha: float) -> float:
    """Shift equivalent to the normalization multiplier.

    a = -1/(q-1) - alpha for q != 1.  The classical branch uses the
    log-normalizer convention a = -alpha, i.e. alpha = ln sum exp(-x).
    """
    if q.is_classical:
        return -alpha
    return -1.0 / (q.q - 1.0) - alpha


def alpha_from_shift(q: QParam, a: float) -> float:
    """Inverse of :func:`shift_from_alpha`."""
    if q.is_classical:
        return -a
    return -1.0 / (q.q - 1.0) - a


def lagrange_distribution(q: QParam, params: LagrangeParams) -> Distribution:
    """Evaluate p_i = [1 - (q-1)(beta eps_i - a)]^(1/(q-1)) from raw multipliers.

    The caller's alpha must already be consistent: the vector is
    required to sum to 1 within 1e-9, otherwise
    :class:`NormalizationError` is raised.  A negative base raises
    :class:`DomainError` (strict policy).
    """
    a = shift_from_alpha(q, params.alpha)
    probs = _deformed_exp(params.beta * params.energies.as_array() - a, q.q - 1.0)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise NormalizationError(f"multipliers inconsistent: probabilities sum to {total}")
    return Distribution(probs)


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
    return float((p.as_array() * energies.as_array()).sum())


def _uniform(W: int) -> Distribution:
    """The maximizer at beta = 0, where every scaled value is 0: p = 1/W exactly."""
    return Distribution(np.full(W, 1.0 / W))


class _Probes:
    """The maximizer at q on {beta eps_i} for a run of beta values, one shift solve each.

    The solves share one buffer and workspace, and each starts from the
    prediction a0' + (beta - beta') sum w eps / sum w (w = p^(2-q)) of the
    latest probe beta', first of beta' = 0, where p = 1/W.  q may be 0 or
    below, where the shift solve behaves as for 0 < q < 1.  For q > 1 the
    endpoint sum of {beta eps_i}, to the power q - 1, is |beta| times s-
    or s+, those of {-eps_i} and {eps_i}, so feasibility takes no pass;
    ``caps`` are the largest |beta| on each side keeping {beta eps_i}
    solvable.  They lie below 1/((q - 1) span), so a span beyond a double
    raises :class:`InfeasibleError`.  The energies must not be flat.
    """

    def __init__(self, q: float, energies: Spectrum):
        eps, W, qm1 = energies.as_array(), energies.W, q - 1.0
        self.qm1, self.energies = qm1, energies
        self.x, self.work = np.empty(W), (np.empty(W), np.empty(W))
        #: beta -> (a0, da0/dbeta) of each probe
        self.shifts = {0.0: (-_z(W, qm1), float(np.add.reduce(eps)) / W)}
        self.beta, self.p = 0.0, None  # the latest probe, and its p
        self.powers, self.caps = (0.0, 0.0), (-math.inf, math.inf)
        if q > 1.0:
            # s^(q-1) = (q-1) span (sum_i (g_i / span)^(1/(q-1)))^(q-1) for the
            # gaps g to that end: the inner sum is at least 1, so no underflow
            span = energies.x_max - energies.x_min
            if not math.isfinite(span):
                raise InfeasibleError(f"no feasible beta for q={q}: the spectrum's span "
                                      "overflows a double")
            self.powers = tuple(
                qm1 * span * float(np.add.reduce(np.power(gaps / span, 1.0 / qm1))) ** qm1
                for gaps in (eps - energies.x_min, energies.x_max - eps))
            # stay a relative 1e-3 inside the boundary, where the root is still
            # resolvable in doubles (at the boundary itself the partition slope
            # can be singular)
            self.caps = (-(1.0 - 1e-3) / self.powers[0], (1.0 - 1e-3) / self.powers[1])

    def __call__(self, beta: float):
        """(p, w, sum w, sum w eps) at beta; the next probe overwrites p and w.

        Raises :class:`InfeasibleError` or the shift solve's :class:`ConvergenceError`.
        """
        qm1, eps, x = self.qm1, self.energies.as_array(), self.x
        x_min, x_max = sorted((beta * self.energies.x_min, beta * self.energies.x_max))
        if not (math.isfinite(x_min) and math.isfinite(x_max)):
            raise RangeError("spectrum values must all be finite")
        endpoint_value = 0.0
        if qm1 > 0.0:
            # the endpoint sum to the power q - 1, which cannot overflow below 1
            power = abs(beta) * self.powers[beta > 0.0]
            if not power <= 1.0:
                raise InfeasibleError(f"no real shift for q={1.0 + qm1} at beta {beta}")
            endpoint_value = power ** (1.0 / qm1)
        a_last, da_last = self.shifts[self.beta]
        solution, p, w = _solve_root(np.multiply(eps, beta, out=x), x_min, x_max, qm1,
                                     endpoint_value, self.work,
                                     a_last + (beta - self.beta) * da_last)
        with np.errstate(over="ignore", invalid="ignore"):
            sw = float(np.add.reduce(w))
            swe = float(np.add.reduce(np.multiply(w, eps, out=x)))
        self.shifts[beta], self.beta, self.p = (solution.a0, swe / sw), beta, p
        return p, w, sw, swe

    def probs(self, beta: float) -> np.ndarray:
        """p at a probed beta: the latest probe's, or one kernel pass at its shift."""
        if beta != self.beta:
            x = np.multiply(self.energies.as_array(), beta, out=self.x)
            self.p = _kernel_pass(x, self.shifts[beta][0], self.qm1, self.work)[0]
            self.beta = beta
        return self.p


#: |U - target| at which the beta solve stops, and its budget of probes
_BETA_TOL, _BETA_PROBES = 1e-10, 200


def solve_beta(q: QParam, energies: Spectrum, target_u: float) -> tuple[float, Distribution]:
    """Invert the mean-energy constraint for the multiplier beta.

    The target must lie strictly inside the open energy hull (with a
    one-point spectrum only the single energy itself is allowed, at
    beta = 0).  The mean energy U falls strictly as beta grows, with
    dU/dbeta = (sum w eps)^2 / sum w - sum w eps^2 for w_i = p_i^(2-q),
    so the sign of target - U(0) picks the side of the root.

    beta = 0 is solved in closed form: the scaled spectrum is flat, so
    p = 1/W and w = W^(q-2) exactly.  The first probe is the Newton step
    from there, clipped, for q > 1, to the beta range that keeps the
    scaled spectrum solvable; |beta| doubles from it until target - U
    changes sign.  Bracketed Newton steps on the analytic slope then
    finish the solve once |U - target| <= ``_BETA_TOL``.  Each probe is
    one warm-started shift solve (:class:`_Probes`), whose kernel pass
    at the solved shift gives U and the slope.

    Raises :class:`RangeError` for targets outside the hull,
    :class:`InfeasibleError` for q > 1 on a spectrum whose span overflows
    a double, :class:`BracketError` when no sign change exists in the
    feasible range, and :class:`ConvergenceError` when ``_BETA_PROBES`` probes
    leave the target missed, or when a shift solve misses its residual
    bound.
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

    eps, W = energies.as_array(), energies.W
    probe = _Probes(q.q, energies)
    cap_neg, cap_pos = probe.caps
    # beta = 0 in closed form: the scaled spectrum is flat, so p = 1/W,
    # w = W^(q-2), and the slope is W^(q-2) sum (eps - mean)^2
    mean = float(np.add.reduce(eps)) / W
    centred = np.subtract(eps, mean, out=probe.x)
    #: beta -> (target - U, its slope) of each solved probe
    solved = {0.0: (target_u - mean, W ** (q.q - 2.0) * float(np.dot(centred, centred)))}

    def fd(beta: float) -> tuple[float, float]:
        """target - U(beta), increasing in beta, and its slope; one shift solve per new beta."""
        if beta not in solved:
            p, w, sw, swe = probe(beta)
            with np.errstate(over="ignore", invalid="ignore"):
                swe2 = float(np.dot(np.multiply(w, eps, out=probe.x), eps))
            solved[beta] = (target_u - float(np.dot(p, eps)), swe2 - swe * swe / sw)
        return solved[beta]

    g0, dg0 = solved[0.0]
    if abs(g0) <= _BETA_TOL:
        return 0.0, _uniform(W)

    side = 1.0 if g0 < 0.0 else -1.0
    cap = cap_pos if side > 0.0 else cap_neg
    newton = -g0 / dg0
    near, reach = 0.0, abs(newton) if side * newton > 0.0 and math.isfinite(newton) else 1.0
    while True:
        far = side * min(reach, abs(cap))
        try:
            g = fd(far)[0]
        except (InfeasibleError, ConvergenceError) as exc:
            raise BracketError(f"no usable probe for target {target_u} at beta {far}") from exc
        if side * g >= 0.0:
            break
        if far == cap or reach >= 2.0**80:
            raise BracketError(
                f"no sign change for target {target_u} within the feasible beta range"
            )
        near, reach = far, 2.0 * reach
    lo, hi = sorted((near, far))

    beta, g, _, _ = _newton_in_bracket(fd, hi, lo, hi, _BETA_TOL, _BETA_PROBES)
    if abs(g) > _BETA_TOL:
        raise ConvergenceError(f"beta solve stalled at |U - target| = {abs(g)} "
                               f"for target {target_u}")
    return beta, Distribution(probe.probs(beta))


def _stationarity(q: QParam, energies: Spectrum, beta: float, dist: Distribution,
                  a0: float) -> float:
    """Max-norm of the Lagrangian gradient at the distribution solved with shift a0."""
    probs = dist.as_array()
    if (probs <= 0.0).any():
        raise DomainError("stationarity gradient requires strictly positive probabilities")
    if q.is_classical:
        alpha = -1.0 - a0
        grad = -np.log(probs) - 1.0
    else:
        alpha = alpha_from_shift(q, a0)
        grad = -np.power(probs, q.q - 1.0) / (q.q - 1.0)
    gradient = grad - alpha - beta * energies.as_array()
    return float(np.abs(gradient).max())


def stationarity_residual(q: QParam, energies: Spectrum, beta: float) -> float:
    """Max-norm of the Lagrangian gradient at the :func:`maxent_distribution` solution.

    The gradient of the measure is -p_i^(q-1)/(q-1) (classically
    -ln p_i - 1), and the normalization multiplier is reconstructed from
    the solved shift; the classical multiplier absorbs an extra unit
    relative to the log-normalizer convention.  Requires every
    probability to be strictly positive.
    """
    dist, solution = maxent_distribution(q, energies, beta)
    return _stationarity(q, energies, beta, dist, solution.a0)


#: probes of the escort root solve before it takes its best point
_ESCORT_PROBES = 100


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
    average of p^(q-1), which is 1/c, gives b c(b)^2 = beta.  c lies
    between 1 and W^(1 - q_tilde), so t = b / beta lies between 1 and
    W^(2(q_tilde - 1)), where g(t) = t c^2 - 1 is at most 0 at the lower
    end and at least 0 at the upper one; for q_tilde < 1 the upper end is
    clipped to the beta cap of q.  Bracketed Newton steps on g, with
    dc/db = q_tilde sum p^(2 q_tilde - 1)(a0' - eps), start from the
    uniform end, each probe one warm-started shift solve (:class:`_Probes`).
    beta = 0 and a flat spectrum give p = 1/W; at q_tilde = 1 the range is
    the one point b = beta, the softmax.

    ``residual`` is the largest change of p under one undamped map
    application; above ``tol`` it raises :class:`ConvergenceError`, and a
    negative bracket there :class:`DomainError`.  A range clipped to
    nothing, or q_tilde < 1 on a spectrum whose span overflows a double,
    raises :class:`InfeasibleError`, and a clipped end where g is still
    negative :class:`BracketError`.
    """
    qt = float(q_tilde)
    if not math.isfinite(qt) or qt <= 0.0:
        raise RangeError(f"escort index must be a finite real > 0, got {q_tilde!r}")
    beta = float(beta)
    if not math.isfinite(beta):
        raise RangeError(f"beta must be finite, got {beta!r}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    eps, W = energies.as_array(), energies.W
    if beta == 0.0 or energies.x_min == energies.x_max:
        return EscortSolution(_uniform(W), 0.0, 0, True)  # every bracket is 1
    probe = _Probes(2.0 - qt, energies)
    uniform = W ** (2.0 * (qt - 1.0))  # t where c takes its value at p = 1/W
    lo, hi = sorted((1.0, uniform))
    cap = probe.caps[beta > 0.0] / beta
    if cap < lo:
        raise InfeasibleError(f"no escort multiplier within the beta caps at beta {beta}")

    def fd(t: float) -> tuple[float, float]:
        b = beta * t
        p, w, c, cwe = probe(b)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            v = np.divide(np.multiply(w, w, out=probe.x), p, out=probe.x)  # p^(2 q_tilde - 1)
            dc = qt * (cwe / c * float(np.add.reduce(v)) - float(np.dot(v, eps)))
        return t * c * c - 1.0, c * c + 2.0 * b * c * dc

    if cap < hi:
        hi = cap
        if fd(hi)[0] < 0.0:
            raise BracketError(f"no escort multiplier within the beta caps at beta {beta}")
    # |g| within tol / 100 leaves the map residual far inside tol
    t = _newton_in_bracket(fd, uniform, lo, hi, 1e-2 * tol, _ESCORT_PROBES)[0]
    p, x = probe.probs(beta * t), beta * eps
    weights = np.power(p, qt)
    c = float(np.add.reduce(weights))
    mapped = _deformed_exp((x - float(np.dot(weights, x)) / c) / c, 1.0 - qt)
    residual = float(np.abs(mapped / mapped.sum() - p).max())
    if not residual <= tol:
        raise ConvergenceError(f"escort solve left a map residual of {residual}")
    return EscortSolution(Distribution(p), residual, len(probe.shifts) - 1, True)

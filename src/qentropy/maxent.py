"""Maximum-entropy reconstruction of the q-exponential distribution.

Maximizing the uncertainty measure under normalization and a mean-energy
constraint (multipliers alpha and beta) yields exactly the shifted
q-exponential on the scaled spectrum {beta * eps_i}: the stationarity
condition reads p_i^(q-1) = (1-q) alpha - (q-1) beta eps_i, which is the
deformed factor with shift a = -1/(q-1) - alpha.  The contrasting escort
construction is self-referential -- its right-hand side depends on the
distribution being solved for -- and is handled by a damped fixed-point
iteration.
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
    NonConvergenceError,
    NormalizationError,
    RangeError,
)
from .shift import ShiftSolution, _newton_in_bracket, feasibility, shifted_distribution


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
    iterations: int     # damped updates applied
    converged: bool


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
    q: QParam, energies: Spectrum, beta: float, **solver_kwargs
) -> tuple[Distribution, ShiftSolution]:
    """Constrained maximizer of the uncertainty measure at multiplier beta.

    Delegates to the shift solve on the scaled spectrum {beta * eps_i};
    the achieved mean energy is sum p_i eps_i.
    """
    if not math.isfinite(beta):
        raise RangeError(f"beta must be finite, got {beta!r}")
    return shifted_distribution(energies.scaled(beta), q, **solver_kwargs)


def mean_energy(p: Distribution, energies: Spectrum) -> float:
    """Expectation sum_i p_i eps_i."""
    if p.W != energies.W:
        raise ValueError("distribution and spectrum sizes differ")
    return float((p.as_array() * energies.as_array()).sum())


def _feasible_beta_caps(q: QParam, energies: Spectrum) -> tuple[float, float]:
    """Largest |beta| on each side keeping {beta eps_i} solvable for q > 1."""
    if not q.is_super_unit:
        return (-math.inf, math.inf)
    qm1 = q.q - 1.0
    s_plus = feasibility(energies, q).endpoint_value
    s_minus = feasibility(energies.scaled(-1.0), q).endpoint_value
    # the endpoint sum scales like |beta|^(1/(q-1)); stay a relative 1e-3
    # inside the boundary, where the root is still resolvable in doubles
    # (at the boundary itself the partition slope can be singular)
    cap_pos = s_plus ** (-qm1) * (1.0 - 1e-3)
    cap_neg = -(s_minus ** (-qm1)) * (1.0 - 1e-3)
    return (cap_neg, cap_pos)


def solve_beta(
    q: QParam,
    energies: Spectrum,
    target_u: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[float, Distribution]:
    """Invert the mean-energy constraint for the multiplier beta.

    The target must lie strictly inside the open energy hull (with a
    one-point spectrum only the single energy itself is allowed).  The
    mean energy U falls strictly as beta grows, with
    dU/dbeta = (sum w eps)^2 / sum w - sum w eps^2 for w_i = p_i^(2-q),
    so the sign of target - U(0) picks the side of the root.  The solve
    doubles |beta| on that side -- clipped, for q > 1, to the beta range
    that keeps the scaled spectrum solvable -- until target - U changes
    sign, then runs bracketed Newton steps on that analytic slope.
    Raises :class:`RangeError` for targets outside the hull,
    :class:`BracketError` when no sign change exists in the feasible
    range, and :class:`ConvergenceError` on budget exhaustion.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not math.isfinite(target_u):
        raise RangeError(f"target energy must be finite, got {target_u!r}")
    if energies.x_min == energies.x_max:
        if target_u != energies.x_min:
            raise RangeError(
                f"flat spectrum admits only target {energies.x_min}, got {target_u}"
            )
        dist, _ = maxent_distribution(q, energies, 0.0)
        return 0.0, dist
    if not (energies.x_min < target_u < energies.x_max):
        raise RangeError(
            f"target {target_u} outside the open hull ({energies.x_min}, {energies.x_max})"
        )

    eps = energies.as_array()
    solved: dict[float, tuple[float, float, Distribution]] = {}

    def fd(beta: float) -> tuple[float, float]:
        """target - U(beta), increasing in beta, and its slope; one shift solve per beta."""
        if beta not in solved:
            dist, _ = maxent_distribution(q, energies, beta)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                w = np.power(dist.as_array(), 2.0 - q.q)
                sw, swe, swe2 = w.sum(), (w * eps).sum(), (w * eps * eps).sum()
                slope = float(swe2 - swe * swe / sw)
            solved[beta] = (target_u - mean_energy(dist, energies), slope, dist)
        return solved[beta][:2]

    g0 = fd(0.0)[0]
    if abs(g0) <= tol:
        return 0.0, solved[0.0][2]

    side = 1.0 if g0 < 0.0 else -1.0
    cap_neg, cap_pos = _feasible_beta_caps(q, energies)
    cap = cap_pos if side > 0.0 else cap_neg
    near, reach = 0.0, 1.0
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

    beta, g, _, _ = _newton_in_bracket(fd, hi, lo, hi, tol, max_iter)
    if abs(g) > tol:
        raise ConvergenceError(f"beta solve stalled at |U - target| = {abs(g)} "
                               f"for target {target_u}")
    return beta, solved[beta][2]


def stationarity_residual(
    q: QParam, energies: Spectrum, beta: float, **solver_kwargs
) -> float:
    """Max-norm of the Lagrangian gradient at the solved distribution.

    The gradient of the measure is -p_i^(q-1)/(q-1) (classically
    -ln p_i - 1), and the normalization multiplier is reconstructed from
    the solved shift; the classical multiplier absorbs an extra unit
    relative to the log-normalizer convention.  Requires every
    probability to be strictly positive.
    """
    dist, solution = maxent_distribution(q, energies, beta, **solver_kwargs)
    probs = dist.as_array()
    if (probs <= 0.0).any():
        raise DomainError("stationarity gradient requires strictly positive probabilities")
    if q.is_classical:
        alpha = -1.0 - solution.a0
        grad = -np.log(probs) - 1.0
    else:
        alpha = alpha_from_shift(q, solution.a0)
        grad = -np.power(probs, q.q - 1.0) / (q.q - 1.0)
    gradient = grad - alpha - beta * energies.as_array()
    return float(np.abs(gradient).max())


def escort_distribution(
    q_tilde: float,
    energies: Spectrum,
    beta: float,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> EscortSolution:
    """Solve the self-referential escort distribution by damped fixed point.

    The map sends p to the normalized vector of

        [1 - (1 - q_tilde)(x_i - xbar) / sum_j p_j^q_tilde]^(1/(1-q_tilde))

    where xbar is the escort mean sum p^q_tilde x / sum p^q_tilde and
    x_i = beta eps_i.  Iteration starts from uniform with update
    p <- (1 - damping) p + damping T(p); negative brackets are cut off
    to zero while iterating, but a converged solution must have all
    brackets non-negative (:class:`DomainError` otherwise).  Hitting
    ``max_iter`` raises :class:`NonConvergenceError` carrying the last
    iterate.
    """
    qt = float(q_tilde)
    if not math.isfinite(qt) or qt <= 0.0:
        raise RangeError(f"escort index must be a finite real > 0, got {q_tilde!r}")
    if not (0.0 < damping <= 1.0):
        raise RangeError(f"damping must be in (0, 1], got {damping!r}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    x = beta * energies.as_array()

    if qt == 1.0:
        shifted = _deformed_exp(x - x.min(), 0.0)
        p = shifted / shifted.sum()
        return EscortSolution(Distribution(p), 0.0, 0, True)

    # the map's factor is the deformed exponential at q = 2 - q_tilde
    qm1 = 1.0 - qt

    def apply_map(p: np.ndarray) -> tuple[np.ndarray, bool]:
        weights = np.power(p, qt)
        denom = float(weights.sum())
        xbar = float((weights * x).sum()) / denom
        z = (x - xbar) / denom
        went_negative = bool((qm1 * z > 1.0).any())  # a base 1 - qm1 z below 0
        raw = _deformed_exp(z, qm1, cutoff=True)
        total = float(raw.sum())
        if not math.isfinite(total) or total <= 0.0:
            raise DomainError("escort map left its domain (unnormalizable iterate)")
        return raw / total, went_negative

    p = np.full(energies.W, 1.0 / energies.W)
    updates = 0
    while True:
        mapped, went_negative = apply_map(p)
        residual = float(np.abs(mapped - p).max())
        if residual <= tol:
            if went_negative:
                raise DomainError("escort fixed point has a negative bracket")
            return EscortSolution(Distribution(p), residual, updates, True)
        if updates >= max_iter:
            last = EscortSolution(Distribution(p), residual, updates, False)
            raise NonConvergenceError(
                f"escort iteration stalled at residual {residual} after {updates} updates",
                solution=last,
            )
        p = (1.0 - damping) * p + damping * mapped
        updates += 1

"""The uncertainty measure of the q-exponential family and its baselines.

The central functional is

    I(p) = (1 - sum_i p_i^q) / (q (q - 1))        (q != 1)
    I(p) = -sum_i p_i ln p_i                      (q == 1)

normalized so that I vanishes on degenerate distributions.  It is
concave for every q > 0, maximal at the uniform distribution, and
composes non-additively over independent subsystems:

    I(AB) = I(A) + I(B) - q (q - 1) I(A) I(B).

Also provided: the Boltzmann-Gibbs and Tsallis baselines, two-state
sweeps for plotting concavity curves, and a finite-difference residual
for the variational identity dI = sum_i x_i dp_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Distribution, QParam, Spectrum, _deformed_log
from .errors import DomainError, RangeError, StepError
from .shift import shifted_distribution


@dataclass(frozen=True)
class CompositionResult:
    """Both sides of the non-additive composition identity.

    ``formula_value`` is i_a + i_b + nonextensive_term with
    ``nonextensive_term = -q(q-1) i_a i_b``; ``direct_value`` is the
    measure evaluated on the outer-product distribution.  The two agree
    for independent subsystems, to about an ulp as ``compose`` rounds them.
    """

    i_a: float
    i_b: float
    formula_value: float
    direct_value: float
    nonextensive_term: float


@dataclass(frozen=True)
class SweepTable:
    """Columnar numeric table (headers plus rows) for figure data."""

    headers: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]


def uncertainty(p: Distribution, q: QParam) -> float:
    """The uncertainty measure I(p); >= 0, zero iff p is degenerate."""
    return float(_measure(p.as_array(), q.q, q.q * (q.q - 1.0)))


def bg_entropy(p: Distribution) -> float:
    """Boltzmann-Gibbs entropy -sum p ln p with 0 ln 0 := 0."""
    return float(_measure(p.as_array(), 1.0, 0.0))


#: Within this distance of q = 1 the measure is summed through expm1; see ``_numerator``.
_NEAR_ONE = 0.125
#: How far a normalized p may sum from 1 by rounding alone: p_i = w_i / sum(w) misses by up
#: to 1 eps, and an outer product of two such by 2.5 eps.  See ``_numerator``.
_ROUNDING = 4.0 * np.finfo(float).eps


def _measure(probs: np.ndarray, q: float, denominator: float) -> np.ndarray:
    """(1 - sum_i p_i^q) / denominator, or -sum_i p_i ln p_i at q = 1, along the last axis."""
    s = _numerator(probs, q)
    # "+ 0.0" normalizes a signed zero, as from the negative denominator at q < 1
    return (s if q == 1.0 else s / denominator) + 0.0


def _numerator(probs: np.ndarray, q: float, total=lambda terms: np.add.reduce(terms, -1),
               rounding=_ROUNDING):
    """1 - sum_i p_i^q, or -sum_i p_i ln p_i at q = 1, with sums by ``total`` along the last axis.

    1 - sum p^q loses about log2(1 / |q - 1|) bits to cancellation.  So within ``_NEAR_ONE``
    of q = 1 it is summed as (1 - sum p) - sum p expm1((q - 1) ln p), where nothing cancels
    and (q - 1) ln p < 94 cannot overflow.  The shortfall 1 - sum p is dropped while within
    ``rounding``: divided by q (q - 1), the rounding of a normalized p would swamp the measure.
    """
    if abs(q - 1.0) >= _NEAR_ONE:
        return 1 - total(np.power(probs, q))
    log_p = np.log(probs, out=np.zeros_like(probs), where=probs > 0.0)
    if q == 1.0:  # in place: a fresh W-sized product costs as much as the log
        return -total(np.multiply(probs, log_p, out=log_p))
    shortfall = 1 - total(probs)
    shortfall *= abs(shortfall) > rounding
    log_p *= q - 1.0
    return shortfall - total(np.multiply(probs, np.expm1(log_p, out=log_p), out=log_p))


def _rounded(x) -> float:
    """The Fraction x rounded once to a float, overflowing to an infinity."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def tsallis_entropy(p: Distribution, q_tilde: float) -> float:
    """Tsallis entropy (1 - sum p^q_tilde)/(q_tilde - 1) at the literal index.

    No index conversion is applied here; use ``QParam.tsallis_index`` /
    ``QParam.from_tsallis_index`` for the documented q = 2 - q_tilde
    mapping between the two conventions.  Satisfies
    ``uncertainty(p, q) == tsallis_entropy(p, q) / q`` at equal numeric
    index.
    """
    qt = float(q_tilde)
    if not math.isfinite(qt) or qt <= 0.0:
        raise RangeError(f"tsallis index must be a finite real > 0, got {q_tilde!r}")
    return float(_measure(p.as_array(), qt, qt - 1.0))


def compose(p_a: Distribution, p_b: Distribution, q: QParam) -> CompositionResult:
    """Evaluate the composition identity for the independent pair (A, B).

    The numerators of I(A), I(B) and I(AB) are summed exactly, each side of the
    identity is formed from them exactly, and every field is rounded once.  So the two
    sides agree to about an ulp, even where the measure is large, as near q = 0.
    """
    from fractions import Fraction  # here, so that CLI start-up does not import it

    def exact_total(terms: np.ndarray) -> Fraction:
        """The sum of ``terms`` to about 2^-106: their fsum plus the fsum of what it missed."""
        head = math.fsum(terms)
        return Fraction(head) + Fraction(math.fsum(np.append(terms, -head)))

    joint = np.outer(p_a.as_array(), p_b.as_array()).ravel()
    n_a, n_b, n_ab = (_numerator(p.as_array(), q.q, exact_total, Fraction(_ROUNDING))
                      for p in (p_a, p_b, Distribution(joint)))
    if q.is_classical:
        denominator, cross = Fraction(1), Fraction(0)
    else:
        denominator = Fraction(q.q) * (Fraction(q.q) - 1)
        cross = -n_a * n_b / denominator
    i_a, i_b, direct_value = (_rounded(n / denominator) for n in (n_a, n_b, n_ab))
    formula_value = _rounded((n_a + n_b) / denominator + cross)
    return CompositionResult(i_a, i_b, formula_value, direct_value, _rounded(cross))


def max_uncertainty(W: int, q: QParam) -> float:
    """Closed-form maximum of the measure, attained at the uniform vector.

    (1 - W^(1-q)) / (q (q-1)) for q != 1 and ln W at q = 1.
    """
    if W < 1:
        raise RangeError(f"state count must be >= 1, got {W!r}")
    if q.is_classical:
        return math.log(W)
    return -math.expm1((1.0 - q.q) * math.log(W)) / (q.q * (q.q - 1.0)) + 0.0


def two_state_sweep(q_list: Sequence[QParam], n_points: int = 201) -> SweepTable:
    """Tabulate I((p1, 1 - p1), q) over an inclusive uniform p1 grid.

    One column per q, headers "p1", "I_q=<value>", rows in ascending
    grid order.  Endpoints evaluate to exactly zero and every column is
    concave in p1.
    """
    if n_points < 3:
        raise RangeError(f"need at least 3 grid points, got {n_points!r}")
    params = list(q_list)
    if not params:
        raise RangeError("need at least one q value to sweep")
    headers = ("p1",) + tuple(f"I_q={qp.q!r}" for qp in params)
    p1 = np.linspace(0.0, 1.0, n_points)
    grid = np.stack((p1, 1.0 - p1), axis=1)  # one two-state vector per row
    columns = [p1] + [_measure(grid, qp.q, qp.q * (qp.q - 1.0)) for qp in params]
    return SweepTable(headers, tuple(zip(*(c.tolist() for c in columns))))


def varentropy_residual(
    spectrum: Spectrum, q: QParam, dp: Sequence[float], step: float
) -> float:
    """Check dI = sum_i x_i dp_i along a zero-sum tangent by forward difference.

    The self-normalized distribution p of ``spectrum`` recovers its
    values through the deformed logarithm, the inverse of the deformed
    exponential: x_i = a0 - expm1((q-1) ln p_i)/(q-1).  The returned
    residual |[I(p + step dp) - I(p)]/step - sum x_i dp_i| is first
    order in ``step``.  The difference I(p + step dp) - I(p) is formed
    term by term: with p' = p + step dp,

        p'^q - p^q = (p' - p) + (p' - p)(p'^(q-1) - 1) + p^q ((p'/p)^(q-1) - 1),

    where the last two terms are O((q - 1) step) each and divide by
    q (q - 1) without cancelling, through expm1 and log1p.  The first sums
    to the change of the shortfall 1 - sum p, which is 0 along a zero-sum
    tangent and left out: so neither the rounding of sum p, amplified by
    1/(q (q - 1)), nor the measure's cut on it enters the difference.
    Raises :class:`StepError` when the stepped vector leaves the simplex.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    tangent = np.asarray(dp, dtype=float)
    if tangent.shape != (spectrum.W,):
        raise ValueError(f"tangent length {tangent.size} != spectrum size {spectrum.W}")
    scale = max(1.0, float(np.abs(tangent).sum()))
    if abs(float(tangent.sum())) > 1e-12 * scale:
        raise ValueError("tangent must sum to zero")

    dist, solution = shifted_distribution(spectrum, q)
    probs = dist.as_array()
    if (probs <= 0.0).any():
        raise DomainError("variational check requires strictly positive probabilities")
    moved = probs + step * tangent
    if (moved < 0.0).any() or (moved > 1.0).any():
        raise StepError(f"step {step} leaves the probability simplex")

    qm1, change = q.q - 1.0, moved - probs

    def expm1_over(y):  # (exp((q-1) y) - 1)/(q-1), and y at q = 1
        return y if qm1 == 0.0 else np.expm1(qm1 * y) / qm1

    with np.errstate(divide="ignore", invalid="ignore"):  # ln 0 where a p' is 0
        terms = (change * expm1_over(np.log(moved))
                 + np.power(probs, q.q) * expm1_over(np.log1p(change / probs)))
    gone = moved == 0.0
    if gone.any():  # there p'^q - p' is 0, and the term is -(p^q - p)/(q - 1)
        terms[gone] = -probs[gone] * expm1_over(np.log(probs[gone]))
    i_change = -float(terms.sum()) / q.q
    xs = _deformed_log(probs, qm1) + solution.a0
    pairing = float((xs * tangent).sum())
    return abs(i_change / step - pairing)

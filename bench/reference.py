"""Independent reference formulas and result checks for the benchmark.

Nothing here imports qentropy.  Every quantity is recomputed from the
raw formulas with scalar Python arithmetic and ``math.fsum``, in the
style of ``tests/oracles.py``, and each tolerance is the package's
documented guarantee (README, "Numerical contracts") plus the rounding
slack of a length-W floating-point sum where the two computations add
in different orders.

A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import math
import sys

EPS = sys.float_info.epsilon

#: |f(a0) - 1| bound of every shift solve.
RESIDUAL_BOUND = 1e-10
#: |sum(p) - 1| bound of every Distribution.
NORMALIZATION_TOL = 1e-9
#: |U(beta) - target| bound of a beta inversion (the CLI re-checks 1e-9).
ENERGY_TOL = 1e-9
#: one reference escort map application must reproduce p to this bound.
ESCORT_TOL = 1e-9
#: composition identity, as re-checked by the CLI.
COMPOSE_TOL = 1e-12


class CheckFailed(AssertionError):
    """A result disagrees with the independent reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- scalar formulas ------------------------------------------------------

def q_power(x: float, q: float) -> float:
    """[1 - (q-1)x]^(1/(q-1)), exp(-x) at q = 1."""
    if q == 1.0:
        return math.exp(-x)
    base = 1.0 - (q - 1.0) * x
    if base < 0.0:
        raise CheckFailed(f"shift outside the domain: negative base at x={x}, q={q}")
    if base == 0.0:
        return 0.0 if q > 1.0 else math.inf
    return base ** (1.0 / (q - 1.0))


def partition(a: float, xs, q: float) -> float:
    """f(a) = sum_i q_power(x_i - a)."""
    return math.fsum(q_power(x - a, q) for x in xs)


def endpoint_sum(xs, q: float) -> float:
    """Value of f at the lower domain endpoint for q > 1; a root exists iff <= 1."""
    xmax = max(xs)
    e = 1.0 / (q - 1.0)
    return math.fsum(((q - 1.0) * (xmax - x)) ** e for x in xs)


def feasible_beta_caps(xs, q: float) -> tuple[float, float]:
    """Open interval of beta keeping {beta * x} solvable (q > 1)."""
    qm1 = q - 1.0
    xmax, xmin = max(xs), min(xs)
    s_plus = math.fsum((qm1 * (xmax - x)) ** (1.0 / qm1) for x in xs)
    s_minus = math.fsum((qm1 * (x - xmin)) ** (1.0 / qm1) for x in xs)
    return (-(s_minus ** -qm1), s_plus ** -qm1)


def neg_logsumexp_neg(xs) -> float:
    """-log(sum_i exp(-x_i)): the exact q = 1 shift."""
    m = min(xs)
    return m - math.log(math.fsum(math.exp(-(x - m)) for x in xs))


def solve_shift(xs, q: float) -> float:
    """Normalizing shift by bracketing and plain bisection on ``partition``."""
    if q == 1.0:
        return neg_logsumexp_neg(xs)
    span = max(xs) - min(xs)
    if q < 1.0:
        end = min(xs) - 1.0 / (q - 1.0)
        hi = end - 1e-12 * (1.0 + abs(end))
        step = 1.0 + span
        lo = hi - step
        while partition(lo, xs, q) >= 1.0:
            step *= 2.0
            lo = hi - step
    else:
        lo = max(xs) - 1.0 / (q - 1.0)
        step = 1.0 + span
        hi = lo + step
        while partition(hi, xs, q) <= 1.0:
            step *= 2.0
            hi = lo + step
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fm = partition(mid, xs, q)
        if fm == 1.0:
            return mid
        if fm < 1.0:
            lo = mid
        else:
            hi = mid


def probabilities(xs, q: float, a: float) -> list[float]:
    return [q_power(x - a, q) for x in xs]


def mean_energy(probs, energies) -> float:
    return math.fsum(p * e for p, e in zip(probs, energies))


def uncertainty(probs, q: float) -> float:
    """I(p) = (1 - sum p^q)/(q(q-1)); -sum p ln p at q = 1."""
    if q == 1.0:
        return -math.fsum(p * math.log(p) for p in probs if p > 0.0)
    return (1.0 - math.fsum(p ** q for p in probs)) / (q * (q - 1.0))


def max_uncertainty(w: int, q: float) -> float:
    if q == 1.0:
        return math.log(w)
    return (1.0 - float(w) ** (1.0 - q)) / (q * (q - 1.0))


def two_state_uncertainty(p: float, q: float) -> float:
    """Closed form of I((p, 1 - p))."""
    r = 1.0 - p
    if q == 1.0:
        return -math.fsum(v * math.log(v) for v in (p, r) if v > 0.0)
    return (1.0 - p ** q - r ** q) / (q * (q - 1.0))


def escort_map(probs, xs, q_tilde: float) -> list[float]:
    """One undamped application of the escort map; brackets must stay positive."""
    weights = [p ** q_tilde for p in probs]
    denom = math.fsum(weights)
    xbar = math.fsum(w * x for w, x in zip(weights, xs)) / denom
    expo = 1.0 / (1.0 - q_tilde)
    raw = []
    for x in xs:
        bracket = 1.0 - (1.0 - q_tilde) * (x - xbar) / denom
        require(bracket > 0.0, f"escort bracket {bracket} is not positive")
        raw.append(bracket ** expo)
    total = math.fsum(raw)
    return [r / total for r in raw]


# --- checks -----------------------------------------------------------------

def sum_slack(w: int, magnitude: float = 1.0) -> float:
    """Bound on the difference between a numpy sum and fsum of w terms."""
    return 4.0 * w * EPS * max(magnitude, 1.0)


def ascending(key) -> list[int]:
    """Indices that sort ``key`` ascending."""
    return sorted(range(len(key)), key=key.__getitem__)


def check_distribution(probs, order=None) -> None:
    """p_i in [0, 1], sum within 1e-9 of 1, and non-increasing along ``order``."""
    require(len(probs) >= 1, "empty distribution")
    require(all(0.0 <= p <= 1.0 for p in probs), "a probability lies outside [0, 1]")
    total = math.fsum(probs)
    require(abs(total - 1.0) <= NORMALIZATION_TOL,
            f"probabilities sum to {total!r}, not within {NORMALIZATION_TOL} of 1")
    if order is not None:
        ranked = [probs[i] for i in order]
        slack = 1.0 + 4.0 * EPS
        require(all(after <= before * slack for before, after in zip(ranked, ranked[1:])),
                "a probability rises along the spectrum")


def check_root(xs, q: float, a0: float) -> None:
    """Domain and residual contract of a solved shift; at q = 1 also -logsumexp(-x)."""
    w = len(xs)
    require(math.isfinite(a0), f"shift {a0!r} is not finite")
    if q < 1.0:
        end = min(xs) - 1.0 / (q - 1.0)
        require(a0 < end, f"shift {a0!r} not below the domain endpoint {end!r}")
    elif q > 1.0:
        end = max(xs) - 1.0 / (q - 1.0)
        require(a0 >= end, f"shift {a0!r} below the domain endpoint {end!r}")
    residual = partition(a0, xs, q) - 1.0
    require(abs(residual) <= RESIDUAL_BOUND + sum_slack(w),
            f"reference residual {residual!r} above {RESIDUAL_BOUND}")
    if q == 1.0:
        ref = neg_logsumexp_neg(xs)
        # f(a) = exp(a - ref) at q = 1, so |f(a0) - 1| <= 1e-10 bounds |a0 - ref|
        tol = RESIDUAL_BOUND + sum_slack(w) + 8.0 * EPS * (1.0 + abs(ref))
        require(abs(a0 - ref) <= tol, f"q = 1 shift {a0!r} != -logsumexp(-x) = {ref!r}")


def check_shift(xs, q: float, a0: float, probs, order) -> None:
    """Root contract plus a distribution non-increasing in x (``order`` sorts xs)."""
    require(len(probs) == len(xs), f"{len(probs)} probabilities for {len(xs)} values")
    check_root(xs, q, a0)
    check_distribution(probs, order)


def entropy_slack(w: int, q: float, ref: float) -> float:
    """Rounding slack of I for w terms: the sum error over |q(q-1)|."""
    if q == 1.0:
        return sum_slack(w, abs(ref)) + 8.0 * EPS * math.log(w + 1.0)
    return sum_slack(w) / abs(q * (q - 1.0)) + 8.0 * EPS * abs(ref)


def check_entropy(probs, q: float, value: float) -> None:
    """0 <= I <= (1 - W^(1-q))/(q(q-1)) and I equals the fsum formula."""
    w = len(probs)
    ref = uncertainty(probs, q)
    slack = entropy_slack(w, q, ref)
    require(abs(value - ref) <= slack, f"uncertainty {value!r} != reference {ref!r}")
    # the bounds hold for a normalized p; p is stored unrenormalized, and
    # scaling p by (1 + d) moves I by about d sum(p^q)/(1 - q), or d(I + 1) at q = 1
    d = abs(math.fsum(probs) - 1.0)
    drift = d * (abs(ref) + 1.0) if q == 1.0 else d * (1.0 + abs(q * (q - 1.0) * ref)) / abs(q - 1.0)
    top = max_uncertainty(w, q)
    require(-slack - drift <= value <= top + slack + entropy_slack(w, q, top) + drift,
            f"uncertainty {value!r} outside [0, {top!r}]")


def check_beta(energies, q: float, target: float, beta: float, probs) -> None:
    """Achieved mean energy within 1e-9 of the target; beta on the right side."""
    achieved = mean_energy(probs, energies)
    require(abs(achieved - target) <= ENERGY_TOL,
            f"achieved energy {achieved!r} misses target {target!r}")
    uniform = math.fsum(energies) / len(energies)
    # U(beta) strictly decreases, so a target below the uniform mean needs beta > 0
    if target < uniform:
        require(beta > 0.0, f"beta {beta!r} should be positive for target {target!r}")
    elif target > uniform:
        require(beta < 0.0, f"beta {beta!r} should be negative for target {target!r}")
    order = ascending(energies)
    check_distribution(probs, order if beta >= 0.0 else order[::-1])


def check_escort(xs, q_tilde: float, probs) -> None:
    """One reference map application reproduces p within 1e-9."""
    check_distribution(probs)
    mapped = escort_map(probs, xs, q_tilde)
    gap = max(abs(m - p) for m, p in zip(mapped, probs))
    require(gap <= ESCORT_TOL, f"escort map moves p by {gap!r}")


def check_compose(probs_a, probs_b, q: float, report: dict) -> None:
    """Recompute both sides of I(AB) = I(A) + I(B) - q(q-1) I(A) I(B)."""
    i_a = uncertainty(probs_a, q)
    i_b = uncertainty(probs_b, q)
    joint = [pa * pb for pa in probs_a for pb in probs_b]
    direct = uncertainty(joint, q)
    formula = i_a + i_b - q * (q - 1.0) * i_a * i_b
    slack = entropy_slack(len(joint), q, direct)
    require(abs(formula - direct) <= slack, f"reference identity off by {formula - direct!r}")
    for key, ref in (("i_a", i_a), ("i_b", i_b), ("formula_value", formula),
                     ("direct_value", direct)):
        got = report[key]
        require(abs(got - ref) <= slack, f"compose {key} {got!r} != reference {ref!r}")
    require(abs(report["formula_value"] - report["direct_value"]) <= COMPOSE_TOL,
            "reported composition identity misses 1e-12")

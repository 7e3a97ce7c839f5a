"""Independent brute-force oracles for pinning expected values.

Everything here re-derives results from the raw formulas in plain Python
(math.fsum over explicit scalar powers), sharing no code with the numpy
paths it is used to check.
"""

import math


def q_power(x: float, q: float) -> float:
    """[1 - (q-1)x]^(1/(q-1)), exp(-x) at q = 1; raises on negative base."""
    if q == 1.0:
        return math.exp(-x)
    base = 1.0 - (q - 1.0) * x
    if base < 0.0:
        raise ValueError(f"negative base at x={x}, q={q}")
    if base == 0.0:
        return 0.0 if q > 1.0 else math.inf
    return base ** (1.0 / (q - 1.0))


def partition(a: float, values, q: float) -> float:
    return math.fsum(q_power(x - a, q) for x in values)


def classical_shift(values) -> float:
    """Root of the q = 1 partition sum, -log sum exp(-x_i), shifted by x_min."""
    m = min(values)
    return m - math.log(math.fsum(math.exp(m - x) for x in values))


def endpoint_sum(values, q: float) -> float:
    """Limit of the partition sum at the q > 1 domain endpoint."""
    xmax = max(values)
    return math.fsum(((q - 1.0) * (xmax - x)) ** (1.0 / (q - 1.0)) for x in values)


def bisect_shift(values, q: float, lo: float, hi: float, iters: int = 400) -> float:
    """Plain bisection for partition(a) = 1 given a bracket lo < hi."""
    assert partition(lo, values, q) < 1.0 < partition(hi, values, q)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = partition(mid, values, q)
        if fm == 1.0:
            return mid
        if fm < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_shift(values, q: float) -> float:
    """Bracket and bisect the normalizing shift from scratch."""
    span = max(values) - min(values)
    if q < 1.0:
        endpoint = min(values) - 1.0 / (q - 1.0)
        hi = endpoint - 1e-12 * (1.0 + abs(endpoint))
        step = 1.0 + span
        lo = hi - step
        while partition(lo, values, q) >= 1.0:
            step *= 2.0
            lo = hi - step
    elif q == 1.0:
        lo, hi = 0.0, 0.0
        while partition(lo, values, q) >= 1.0:
            lo -= 1.0 + span
        while partition(hi, values, q) <= 1.0:
            hi += 1.0 + span
    else:
        lo = max(values) - 1.0 / (q - 1.0)
        step = 1.0 + span
        hi = lo + step
        while partition(hi, values, q) <= 1.0:
            step *= 2.0
            hi = lo + step
    return bisect_shift(values, q, lo, hi)


def uncertainty(probs, q: float) -> float:
    if q == 1.0:
        return -math.fsum(p * math.log(p) for p in probs if p > 0.0)
    return (1.0 - math.fsum(p ** q for p in probs)) / (q * (q - 1.0))


def feasible_beta_caps(values, q: float):
    """Open interval of beta keeping {beta * x} solvable, for q > 1."""
    qm1 = q - 1.0
    xmax, xmin = max(values), min(values)
    s_plus = math.fsum((qm1 * (xmax - x)) ** (1.0 / qm1) for x in values)
    s_minus = math.fsum((qm1 * (x - xmin)) ** (1.0 / qm1) for x in values)
    return (-(s_minus ** -qm1), s_plus ** -qm1)

"""Domain types, the q-deformed exponential kernel and its inverse, and the root iteration.

The deformed exponential used throughout is

    [1 - (q - 1) x]^(1/(q-1))        (q != 1)
    exp(-x)                          (q == 1)

which is strictly decreasing in x on its domain and reduces to the
ordinary exponential in the q -> 1 limit.  ``QParam`` carries the
deformation index, ``Spectrum`` a finite list of random-variable values,
and ``Distribution`` a validated probability vector.  The one array
kernel, ``_deformed_exp1p``, forms it as exp(log1p(t)/(q-1)) from t, the
base minus 1, and ``_deformed_log`` inverts it.  The shift solve keeps
its own pass in the power form (``shift._deformed_exp``).
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import DomainError, EmptyError, NormalizationError, RangeError

#: |sum(p) - 1| allowed when constructing a Distribution (user-input slack).
NORMALIZATION_TOL = 1e-9
#: numpy's error state for a kernel pass, whose overflow, 0/0 and zero-base poles are expected
_KERNEL_ERRORS = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}
#: Within this distance of q = 1 the measure is summed through p^(q-1) - 1; see ``_numerator``.
_NEAR_ONE = 0.125
#: How far a normalized p may sum from 1 by rounding alone: p_i = w_i / sum(w) misses by up
#: to 1 eps, and an outer product of two such by 2.5 eps.  See ``_numerator``.
_ROUNDING = 4.0 * np.finfo(float).eps
#: elements per block of a W-length pass: a block of x, of p and of the scratch stays in L2
_BLOCK = 2**15


@dataclass(frozen=True)
class QParam:
    """Deformation index q, required to be a finite real > 0.

    The classification against 1 is exact (no epsilon band); q == 1.0
    selects dedicated exp/log branches everywhere instead of limiting
    numerics.  The alternate Tsallis-style index relates to q through
    ``q = 2 - q_tilde`` and is exposed via :meth:`from_tsallis_index`
    and :attr:`tsallis_index`.
    """

    q: float

    def __post_init__(self) -> None:
        qv = float(self.q)
        if not math.isfinite(qv) or qv <= 0.0:
            raise RangeError(f"deformation index must be a finite real > 0, got {self.q!r}")
        object.__setattr__(self, "q", qv)

    @property
    def is_classical(self) -> bool:
        return self.q == 1.0

    @property
    def is_sub_unit(self) -> bool:
        return self.q < 1.0

    @property
    def is_super_unit(self) -> bool:
        return self.q > 1.0

    @property
    def tsallis_index(self) -> float:
        """The alternate index q_tilde = 2 - q."""
        return 2.0 - self.q

    @classmethod
    def from_tsallis_index(cls, q_tilde: float) -> "QParam":
        """Build from the alternate index via q = 2 - q_tilde."""
        return cls(2.0 - float(q_tilde))


class _FrozenVector:
    """Validated 1-D values held in one read-only float64 array.

    The input -- list, tuple, array or iterable -- is copied once, and
    ``as_array`` returns that copy.  Instances are immutable and equal when
    their values are; subclasses view them as tuples of Python floats too.
    """

    def __init__(self, values: Iterable[float], what: str):
        if not isinstance(values, (np.ndarray, list, tuple)):
            values = list(values)  # np.array would wrap a generator as a 0-d object array
        self._hold(np.array(values, dtype=float), what)

    def _hold(self, arr: np.ndarray, what: str) -> None:
        """Take ``arr``, a float64 array that nothing else holds, as the values, and freeze it."""
        if arr.ndim != 1:
            raise TypeError(f"{what} must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise EmptyError(f"{what} requires at least one value")
        arr.flags.writeable = False
        object.__setattr__(self, "_array", arr)

    @property
    def W(self) -> int:
        return self._array.size

    def as_array(self) -> np.ndarray:
        return self._array

    @cached_property
    def _tuple(self) -> tuple[float, ...]:
        return tuple(self._array.tolist())

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and bool(np.array_equal(self._array, other._array))

    def __hash__(self) -> int:
        return hash(self._tuple)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._array.tolist()!r})"


class Spectrum(_FrozenVector):
    """Finite list of real values x_1..x_W (duplicates allowed, W >= 1)."""

    def __init__(self, values: Iterable[float]):
        super().__init__(values, "spectrum")
        self._bound()

    def _bound(self) -> None:
        object.__setattr__(self, "x_min", float(np.minimum.reduce(self._array)))
        object.__setattr__(self, "x_max", float(np.maximum.reduce(self._array)))
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):  # NaN reaches both
            raise RangeError("spectrum values must all be finite")

    values = property(lambda self: self._tuple)  # built on first access, then cached

    def scaled(self, factor: float) -> "Spectrum":
        """Spectrum with every value multiplied by ``factor``, built over the product itself."""
        spectrum = Spectrum.__new__(Spectrum)
        with np.errstate(over="ignore"):  # an overflowing product raises RangeError below
            spectrum._hold(np.multiply(self._array, factor, dtype=float), "spectrum")
        spectrum._bound()
        return spectrum


class Distribution(_FrozenVector):
    """Probability vector on W microstates; validated, stored unrenormalized."""

    _measured = None  # (q, the measure's numerator at q), recorded by the shift solve of p

    def __init__(self, probs: Iterable[float]):
        super().__init__(probs, "distribution")
        arr = self._array
        _check_range(arr)
        total = float(np.add.reduce(arr))
        # the pairwise sum is within W eps of the exact one: only this close can fsum differ
        if abs(abs(total - 1.0) - NORMALIZATION_TOL) <= arr.size * 2.0**-52 * total:
            total = math.fsum(arr)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NormalizationError(f"probabilities sum to {total!r}, not 1")

    probs = property(lambda self: self._tuple)  # built on first access, then cached

    @classmethod
    def _solved(cls, p: np.ndarray, q: float, numerator: float | None) -> "Distribution":
        """The p of a solve at index q, taken over without a copy or a scan, and made read-only.

        A solve's p lies in [0, 1] by construction, so neither its sum nor its
        range is checked again.  A shift solve has checked |sum p - 1| <= 1e-10
        and its a0 <= x_min puts every base on the side of 1 whose power lies in
        [0, 1], a cut-off term being 0; a chart solve forms p = u / sum u with
        0 <= u <= sum u.  ``numerator``, 1 - sum p^q (-sum p ln p at q = 1) from
        the solve's last pass, is recorded unless None.
        """
        p.flags.writeable = False
        self = cls.__new__(cls)
        object.__setattr__(self, "_array", p)
        if numerator is not None:
            object.__setattr__(self, "_measured", (q, numerator))
        return self


def _check_range(arr: np.ndarray) -> None:
    """Raise :class:`RangeError` unless every probability lies in [0, 1]."""
    if not (np.minimum.reduce(arr) >= 0.0 and np.maximum.reduce(arr) <= 1.0):  # rejects NaN
        bad = arr[~((arr >= 0.0) & (arr <= 1.0))][0]
        raise RangeError(f"probability {float(bad)!r} outside [0, 1]")


def _blocks(x: np.ndarray, p: np.ndarray | None = None):
    """Blocks (x_b, (scratch_b, p_b)) of x and p, of at most ``_BLOCK`` elements, over one scratch.

    The blocks are as nearly equal in length as whole elements allow, and
    each gets a view of the start of one new scratch, which is one block
    long, or W long for a spectrum of one block, which gets the arrays
    themselves.
    """
    scratch = np.empty(min(x.size, _BLOCK))
    if x.size <= _BLOCK:
        return [(x, (scratch, p))]
    n = -(-x.size // _BLOCK)
    edges = [x.size * i // n for i in range(n + 1)]
    return [(x[i:j], (scratch[:j - i], None if p is None else p[i:j]))
            for i, j in zip(edges, edges[1:])]


def _numerator(q: float, total, shortfall=0.0, rounding=_ROUNDING):
    """The measure's numerator 1 - sum_i p_i^q, or -sum_i p_i ln p_i at q = 1, from ``total``.

    ``total`` is sum_i p_i t_i, for t_i = ln p_i at q = 1, p_i^(q-1) where
    |q - 1| >= ``_NEAR_ONE``, and p_i^(q-1) - 1 between, where ``shortfall`` is
    1 - sum p.  1 - sum p^q loses about log2(1 / |q - 1|) bits to cancellation;
    near q = 1, shortfall - total cancels nothing.  The shortfall is dropped while
    within ``rounding``: divided by q (q - 1), the rounding of a normalized p would
    swamp the measure.
    """
    if q == 1.0:
        return -total
    if abs(q - 1.0) >= _NEAR_ONE:
        return 1 - total
    shortfall *= abs(shortfall) > rounding
    return shortfall - total


def _deformed_exp1p(t, qm1: float, cutoff: bool = False, w=None, lowest: float | None = None):
    """The deformed exponential [1 + t_i]^(1/(q-1)) of a float array t, as exp(log1p(t)/(q-1)).

    For the deformed exponential at z, t = -(q-1) z is its base minus 1, and
    -z at ``qm1`` = q - 1 = 0, where this is exp(t).  The rounding of t
    enters once, where the power form carries the rounding of the base
    1 - (q-1) z times 1/|q - 1|, so p keeps its relative accuracy as q -> 1.
    p is written over t.  ``w``, an array the size of t, receives
    p^(2-q) = exp(log1p(t) (2-q)/(q-1)) from the same logarithm, a copy of p
    at q = 1.  A t below -1, a negative base, raises
    :class:`DomainError`, or under ``cutoff`` (q > 1) counts as -1, where p is
    0.  ``lowest``, the smallest t where the caller knows it, saves a pass.
    The caller owns numpy's error state, which must be
    ``np.errstate(**_KERNEL_ERRORS)``.
    """
    if qm1 == 0.0:
        p = np.exp(t, out=t)
        if w is not None:
            np.copyto(w, p)
        return p
    if lowest is None:
        lowest = np.minimum.reduce(t, None)
    if lowest < -1.0:
        if not cutoff:
            raise DomainError(f"negative base in the deformed exponential (q - 1 = {qm1})")
        np.maximum(t, -1.0, out=t)
    np.log1p(t, out=t)
    if w is not None:
        if qm1 == 1.0:
            w.fill(1.0)  # p^0, also at p = 0, where the logarithm is -inf
        else:
            np.exp(np.multiply(t, (1.0 - qm1) / qm1, out=w), out=w)
    return np.exp(np.divide(t, qm1, out=t), out=t)


def _deformed_log(p, qm1: float):
    """The inverse of the deformed exponential: z with p_i = [1 - (q-1) z_i]^(1/(q-1)), for p > 0.

    ``qm1`` is q - 1, and z = -expm1(qm1 ln p) / qm1 comes back in a new array;
    at 0 this is -ln p.  Unlike (1 - p^qm1) / qm1, nothing cancels as q -> 1.
    """
    z = np.log(p)
    if qm1 == 0.0:
        return np.negative(z, out=z)
    z *= qm1
    return np.divide(np.expm1(z, out=z), -qm1, out=z)


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

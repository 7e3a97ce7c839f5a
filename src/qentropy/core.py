"""Domain types and the q-deformed exponential and logarithm kernels.

The deformed exponential used throughout is

    [1 - (q - 1) x]^(1/(q-1))        (q != 1)
    exp(-x)                          (q == 1)

which is strictly decreasing in x on its domain and reduces to the
ordinary exponential in the q -> 1 limit.  ``QParam`` carries the
deformation index, ``Spectrum`` a finite list of random-variable values,
and ``Distribution`` a validated probability vector.
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
        arr = np.array(values, dtype=float)
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
        object.__setattr__(self, "x_min", float(np.minimum.reduce(self._array)))
        object.__setattr__(self, "x_max", float(np.maximum.reduce(self._array)))
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):  # NaN reaches both
            raise RangeError("spectrum values must all be finite")

    values = property(lambda self: self._tuple)  # built on first access, then cached

    def scaled(self, factor: float) -> "Spectrum":
        """Spectrum with every value multiplied by ``factor``."""
        return Spectrum(factor * self._array)


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
        """The p of a shift solve at index q, taken over without a copy and made read-only.

        The solve has just checked |sum p - 1| <= 1e-10 with this same ``np.add.reduce``,
        within ``NORMALIZATION_TOL``, so only the range is checked again.  ``numerator``,
        1 - sum p^q (-sum p ln p at q = 1) from the solve's last pass, is recorded unless None.
        """
        _check_range(p)
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


def _deformed_exp(z, qm1: float, cutoff: bool = False, out=None, lowest: float | None = None):
    """The deformed exponential [1 - (q-1) z_i]^(1/(q-1)) of a float array z.

    ``qm1`` is q - 1; at 0 this is exp(-z_i).  A negative base raises
    :class:`DomainError`, or evaluates to 0 under ``cutoff``.  ``lowest``,
    the smallest base where the caller knows it, saves a pass.

    The base 1 - qm1 z (-z at q = 1) is left in ``z``, and p goes into
    ``out`` (over z when None), so :func:`_slope` can follow.  The caller
    owns numpy's error state, which must be ``np.errstate(**_KERNEL_ERRORS)``.
    """
    out = z if out is None else out
    if qm1 == 0.0:
        return np.exp(np.negative(z, out=z), out=out)
    z *= -qm1
    z += 1.0  # the base 1 - qm1 z, bit for bit
    if lowest is None:
        lowest = np.minimum.reduce(z, None)
    if lowest < 0.0 and not cutoff:
        raise DomainError(f"negative base in the deformed exponential (q - 1 = {qm1})")
    # p is 0 at a negative base, whose power is nan or has the wrong sign
    zero = (z <= 0.0 if qm1 > 0.0 else z < 0.0) if lowest <= 0.0 else None
    p = np.power(z, 1.0 / qm1, out=out)
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


def _deformed_log(p, qm1: float):
    """The inverse of :func:`_deformed_exp`: z with p_i = [1 - (q-1) z_i]^(1/(q-1)), for p > 0.

    ``qm1`` is q - 1, and z = -expm1(qm1 ln p) / qm1 comes back in a new array;
    at 0 this is -ln p.  Unlike (1 - p^qm1) / qm1, nothing cancels as q -> 1.
    """
    z = np.log(p)
    if qm1 == 0.0:
        return np.negative(z, out=z)
    z *= qm1
    return np.divide(np.expm1(z, out=z), -qm1, out=z)

"""Domain types and q-deformed scalar primitives.

The deformed exponential used throughout is

    [1 - (q - 1) x]^(1/(q-1))        (q != 1)
    exp(-x)                          (q == 1)

which is strictly decreasing in x on its domain and reduces to the
ordinary exponential in the q -> 1 limit.  ``QParam`` carries the
deformation index, ``Spectrum`` a finite list of random-variable values,
and ``Distribution`` a validated probability vector.
"""

from __future__ import annotations

import enum
import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, EmptyError, NormalizationError, RangeError

#: |sum(p) - 1| allowed when constructing a Distribution (user-input slack).
NORMALIZATION_TOL = 1e-9


class Mode(enum.Enum):
    """Policy for a negative base inside the deformed power."""

    STRICT = "strict"    # raise DomainError
    CUTOFF = "cutoff"    # evaluate to 0


class QRegime(enum.Enum):
    """Classification of the deformation index relative to 1."""

    SUB_UNIT = "sub_unit"      # 0 < q < 1
    CLASSICAL = "classical"    # q == 1 exactly
    SUPER_UNIT = "super_unit"  # q > 1


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
    def regime(self) -> QRegime:
        if self.q == 1.0:
            return QRegime.CLASSICAL
        return QRegime.SUB_UNIT if self.q < 1.0 else QRegime.SUPER_UNIT

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
        if not np.isfinite(self._array).all():
            raise RangeError("spectrum values must all be finite")
        object.__setattr__(self, "x_min", float(self._array.min()))
        object.__setattr__(self, "x_max", float(self._array.max()))

    values = property(lambda self: self._tuple)  # built on first access, then cached

    def scaled(self, factor: float) -> "Spectrum":
        """Spectrum with every value multiplied by ``factor``."""
        return Spectrum(factor * self._array)

    def shifted(self, offset: float) -> "Spectrum":
        """Spectrum with ``offset`` added to every value."""
        return Spectrum(self._array + offset)


class Distribution(_FrozenVector):
    """Probability vector on W microstates; validated, stored unrenormalized."""

    def __init__(self, probs: Iterable[float]):
        super().__init__(probs, "distribution")
        arr = self._array
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # also rejects NaN
            bad = arr[~((arr >= 0.0) & (arr <= 1.0))][0]
            raise RangeError(f"probability {float(bad)!r} outside [0, 1]")
        total = float(arr.sum())
        # the pairwise sum is within W eps of the exact one: only this close can fsum differ
        if abs(abs(total - 1.0) - NORMALIZATION_TOL) <= arr.size * 2.0**-52 * total:
            total = math.fsum(arr)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NormalizationError(f"probabilities sum to {total!r}, not 1")

    probs = property(lambda self: self._tuple)  # built on first access, then cached


def _deformed_exp(z, qm1: float, slope: bool = False, cutoff: bool = False, out=None):
    """The deformed exponential [1 - (q-1) z_i]^(1/(q-1)) of a float array z.

    ``qm1`` is q - 1; at 0 this is exp(-z_i).  With ``slope`` it returns
    the pair (p, p^(2-q)), where p^(2-q) = -dp/dz = p / base.  A negative
    base raises :class:`DomainError`, or evaluates to 0 under ``cutoff``.

    ``z`` is scratch space and is overwritten.  Without ``slope`` p is
    written over it; with ``slope`` p goes into ``out`` (a new array when
    None).
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if qm1 == 0.0:
            p = np.exp(np.negative(z, out=z), out=out if slope else z)
            return (p, p) if slope else p
        z *= -qm1
        z += 1.0  # the base 1 - qm1 z, bit for bit
        lowest = np.minimum.reduce(z, None)
        if lowest < 0.0 and not cutoff:
            raise DomainError(f"negative base in the deformed exponential (q - 1 = {qm1})")
        # p is 0 at a negative base, whose power is nan or has the wrong sign,
        # and for q > 1 at a zero base, where p / base would be 0/0; the
        # slope there is p^(2-q) at p = 0
        zero = (z <= 0.0 if qm1 > 0.0 else z < 0.0) if lowest <= 0.0 else None
        p = np.power(z, 1.0 / qm1, out=out if slope else z)
        if zero is not None:
            p[zero] = 0.0
        if not slope:
            return p
        dp = np.divide(p, z, out=z)
        if zero is not None:
            dp[zero] = np.power(0.0, 1.0 - qm1)
        return p, dp


def q_factor(x: float, q: QParam, mode: Mode = Mode.STRICT) -> float:
    """Evaluate the deformed exponential at x.

    Strict mode raises :class:`DomainError` when the base 1 - (q-1)x is
    negative; cutoff mode returns 0 there instead.  Both modes agree on
    the valid domain and return exp(-x) at q = 1.
    """
    xv = float(x)
    if not math.isfinite(xv):
        raise RangeError(f"argument must be finite, got {x!r}")
    return float(_deformed_exp(np.array([xv]), q.q - 1.0, cutoff=mode is Mode.CUTOFF)[0])


def inverse_q_factor(p: float, q: QParam, a: float = 0.0) -> float:
    """Recover x from p = q_factor(x - a, q).

    Returns (1 - p^(q-1))/(q-1) + a, or -ln(p) + a at q = 1.  Requires
    p > 0; the round trip through :func:`q_factor` is exact to roundoff
    for p bounded away from zero.
    """
    pv = float(p)
    if pv <= 0.0:
        raise DomainError(f"probability must be positive to invert, got {p!r}")
    if q.is_classical:
        return -math.log(pv) + a
    return (1.0 - pv ** (q.q - 1.0)) / (q.q - 1.0) + a


def validate_distribution(probs: Sequence[float]) -> Distribution:
    """Validate a raw probability sequence and wrap it as a Distribution.

    Raises EmptyError for an empty input, RangeError for entries outside
    [0, 1], and NormalizationError when the sum strays from 1 by more
    than ``NORMALIZATION_TOL``.
    """
    return Distribution(probs)

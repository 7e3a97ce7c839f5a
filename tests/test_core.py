"""Tests for the value types, the deformed exponential and its logarithm, and their kernels."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qentropy import (
    Distribution,
    DomainError,
    EmptyError,
    NormalizationError,
    QentropyError,
    QParam,
    RangeError,
    Spectrum,
    escort_distribution,
    partition_value,
    shifted_distribution,
    solve_beta,
    varentropy_residual,
)
from qentropy import shift
from qentropy.core import NORMALIZATION_TOL, _KERNEL_ERRORS, _deformed_exp1p, _deformed_log
from qentropy.maxent import _stationarity

# q values away from the removable q = 1 point, plus the exact classical case
q_values = st.one_of(
    st.floats(min_value=0.05, max_value=0.95),
    st.just(1.0),
    st.floats(min_value=1.05, max_value=3.0),
)


def q_factor(x: float, q: QParam) -> float:
    """The deformed exponential [1 - (q-1) x]^(1/(q-1)) at one x: f(0) on the spectrum {x}."""
    return partition_value(0.0, Spectrum([x]), q)


def inverse_q_factor(p: float, q: QParam, a: float = 0.0) -> float:
    """x with p = q_factor(x - a, q), through the deformed logarithm."""
    return float(_deformed_log(np.array([float(p)]), q.q - 1.0)[0]) + a


class TestQParam:
    def test_classification_is_exact(self):
        assert QParam(1.0).is_classical
        below, above = QParam(1.0 - 1e-15), QParam(1.0 + 1e-15)
        assert below.is_sub_unit and not (below.is_classical or below.is_super_unit)
        assert above.is_super_unit and not (above.is_classical or above.is_sub_unit)
        assert QParam(0.3).is_sub_unit
        assert QParam(2).is_super_unit

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(RangeError):
            QParam(bad)

    def test_tsallis_index_conversion(self):
        assert QParam(2.0).tsallis_index == 0.0
        assert QParam.from_tsallis_index(0.5).q == 1.5
        assert QParam.from_tsallis_index(QParam(1.3).tsallis_index).q == pytest.approx(1.3, abs=0)


class TestSpectrum:
    def test_basic_fields(self):
        s = Spectrum([0.4, 0.0, 0.4])
        assert s.W == 3
        assert s.x_min == 0.0
        assert s.x_max == 0.4
        assert s.values == (0.4, 0.0, 0.4)  # duplicates kept, order kept

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(EmptyError):
            Spectrum([])
        with pytest.raises(RangeError):
            Spectrum([0.0, math.inf])

    def test_scaled_and_shifted(self):
        s = Spectrum([0.0, 1.0]).scaled(2.0)
        assert s.values == (0.0, 2.0)
        assert Spectrum(np.add(s.values, -1.0)).values == (-1.0, 1.0)

    def test_scaled_holds_its_product_without_a_copy(self):
        w = 100_000
        spectrum = Spectrum(np.random.default_rng(3).random(w))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scaled = spectrum.scaled(1.7)
            assert tracemalloc.get_traced_memory()[1] - before <= 8 * w + 64 * 1024
        finally:
            tracemalloc.stop()
        assert scaled.as_array().tobytes() == (1.7 * spectrum.as_array()).tobytes()
        assert not scaled.as_array().flags.writeable
        assert (scaled.x_min, scaled.x_max) == (float(scaled.as_array().min()),
                                                float(scaled.as_array().max()))


class TestQFactor:
    @pytest.mark.parametrize("q", [0.3, 1.0, 2.0, 2.7])
    def test_unit_at_zero(self, q):
        assert q_factor(0.0, QParam(q)) == 1.0

    def test_direct_substitution(self):
        assert q_factor(0.3, QParam(2)) == pytest.approx(0.7, abs=1e-15)
        assert q_factor(1.0, QParam(0.5)) == pytest.approx(4.0 / 9.0, abs=1e-15)

    def test_negative_base_policies(self):
        with pytest.raises(DomainError):
            q_factor(1.5, QParam(2))
        # the shift solve's pass cuts the base 1 - 1.5 off instead
        with np.errstate(**_KERNEL_ERRORS):
            assert shift._deformed_exp(np.array([-0.5]), 1.0, -0.5, np.empty(1))[0] == 0.0

    def test_classical_is_exp(self):
        assert q_factor(0.25, QParam(1)) == math.exp(-0.25)

    # the deviation grows like exp(-x) x^2 |q - 1| / 2, so the absolute
    # 1e-5 bound is meaningful where exp(-x) stays O(1)
    @given(x=st.floats(min_value=-1.5, max_value=6.0))
    def test_classical_limit(self, x):
        for q in (1.0 - 1e-6, 1.0 + 1e-6):
            assert abs(q_factor(x, QParam(q)) - math.exp(-x)) <= 1e-5

    @given(
        q=q_values,
        x1=st.floats(min_value=-5.0, max_value=5.0),
        x2=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_strictly_decreasing(self, q, x1, x2):
        qp = QParam(q)
        lo, hi = min(x1, x2), max(x1, x2)
        if hi - lo < 1e-9:
            return  # below float resolution of the output
        # stay strictly inside the domain where the base is positive
        if qp.is_super_unit and hi >= 1.0 / (qp.q - 1.0):
            return
        if qp.is_sub_unit and lo <= 1.0 / (qp.q - 1.0):
            return
        assert q_factor(lo, qp) > q_factor(hi, qp)


class TestDeformedExpKernel:
    """The shift solve's power kernel: p, the slope p / base, and its edge values."""

    @pytest.fixture(autouse=True)
    def _error_state(self):
        with np.errstate(**_KERNEL_ERRORS):  # the kernel's callers own numpy's error state
            yield

    @staticmethod
    def _pass(base, qm1):
        """p and its slope p^(2-q) from one kernel pass over the bases, as the shift solve takes them."""
        lowest = float(np.minimum.reduce(base))
        p = shift._deformed_exp(base, qm1, lowest, np.empty(base.size))
        return p, shift._slope(p, base, qm1, lowest)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 1.5, 2.0, 2.5, 3.0])
    def test_slope_is_the_power_two_minus_q(self, q):
        base = np.random.default_rng(int(q * 10)).uniform(1e-3, 20.0, 5000)
        p, slope = self._pass(base, q - 1.0)
        expected = np.power(p, 2.0 - q)
        assert np.all(np.abs(slope - expected) <= 4 * np.spacing(expected))

    @pytest.mark.parametrize("q, slope_at_zero", [(0.5, math.inf), (1.5, 0.0), (2.0, 1.0),
                                                  (3.0, math.inf)])
    def test_slope_at_a_zero_base(self, q, slope_at_zero):
        p, slope = self._pass(np.array([1.0, 0.0, 1.0 - (q - 1.0) / 4.0]), q - 1.0)
        assert p[1] == (0.0 if q > 1.0 else math.inf)
        assert slope[1] == slope_at_zero
        assert p[0] == slope[0] == 1.0

    # the slope there is p^(2-q) at p = 0
    @pytest.mark.parametrize("q, slope_at_zero", [(0.5, 0.0), (1.5, 0.0), (2.0, 1.0),
                                                  (3.0, math.inf)])
    def test_negative_bases_are_cut_off(self, q, slope_at_zero):
        p, slope = self._pass(np.array([5.0, 1.0, -3.0]), q - 1.0)
        assert p[2] == 0.0 and p[1] == 1.0
        assert slope[2] == slope_at_zero

    @pytest.mark.parametrize("q", [0.5, 1.5, 3.0])
    def test_strict_mode_rejects_a_negative_base(self, q):
        # the pass cuts a negative base off; f, its one strict caller, rejects it first
        with pytest.raises(DomainError):
            partition_value(0.0, Spectrum([0.0, 4.0 / (q - 1.0)]), QParam(q))  # bases 1 and -3


class TestLog1pKernel:
    """The chart's kernel: p and p^(2-q) as exponentials of log1p(t), t the base minus 1."""

    @pytest.fixture(autouse=True)
    def _error_state(self):
        with np.errstate(**_KERNEL_ERRORS):  # the kernel's callers own numpy's error state
            yield

    @staticmethod
    def _pass(t, qm1, cutoff=False):
        w = np.empty(t.size)
        p = _deformed_exp1p(t, qm1, cutoff, w)
        return p, (p if qm1 == 0.0 else w)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_matches_the_power_form(self, q):
        base = np.random.default_rng(int(q * 10)).uniform(1e-3, 20.0, 5000)
        t = np.log(base) if q == 1.0 else base - 1.0
        p, w = self._pass(t.copy(), q - 1.0)
        # the formula itself, at the base 1 + t, which is exact for these t
        want = np.exp(t) if q == 1.0 else np.power(1.0 + t, 1.0 / (q - 1.0))
        # both forms round an exponent |ln p| <= 10 here, to about 10 ulps of p
        np.testing.assert_allclose(p, want, rtol=1e-13, atol=0)
        np.testing.assert_allclose(w, np.power(want, 2.0 - q), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("qm1", [-1e-12, -1e-9, 1e-9, 1e-12])
    def test_keeps_its_accuracy_near_q_one(self, qm1):
        # ln p = log1p(-qm1 z) / qm1 = -z - qm1 z^2 / 2 + O(qm1^2 z^3): the power form
        # carries the base's rounding times 1 / |qm1| instead, 1e-4 at qm1 = 1e-12
        z = np.linspace(0.0, 10.0, 1001)
        p, w = self._pass(-qm1 * z, qm1)
        want = np.exp(-z - 0.5 * qm1 * z * z)
        np.testing.assert_allclose(p, want, rtol=1e-14, atol=0)
        np.testing.assert_allclose(w, want * np.exp(qm1 * z), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("q, w_at_zero", [(1.5, 0.0), (2.0, 1.0), (3.0, math.inf)])
    def test_cut_off_bases(self, q, w_at_zero):
        # bases 1, 0 and a rounding error below 0 at the q > 1 boundary
        t = np.array([0.0, -1.0, -1.0 - 2.0**-52])
        p, w = self._pass(t, q - 1.0, cutoff=True)
        assert p.tolist() == [1.0, 0.0, 0.0]
        assert w.tolist() == [1.0, w_at_zero, w_at_zero]

    @pytest.mark.parametrize("q", [0.5, 1.5, 3.0])
    def test_strict_mode_rejects_a_negative_base(self, q):
        with pytest.raises(DomainError):
            _deformed_exp1p(np.array([0.0, -1.0 - 2.0**-52]), q - 1.0)
        assert _deformed_exp1p(np.array([0.0, -1.0]), q - 1.0)[0] == 1.0  # a zero base is not


class TestInverseQFactor:
    def test_p_one_forces_x_equal_a(self):
        for q in (0.4, 1.0, 2.5):
            assert inverse_q_factor(1.0, QParam(q), a=0.7) == 0.7

    def test_direct_values(self):
        assert inverse_q_factor(0.7, QParam(2), a=-0.3) == pytest.approx(0.0, abs=1e-15)
        assert inverse_q_factor(0.5, QParam(1)) == pytest.approx(math.log(2), abs=1e-15)

    def test_rejects_nonpositive(self):
        # the callers that invert a distribution require every p_i > 0
        with pytest.raises(DomainError):
            _stationarity(QParam(2), Spectrum([0.0, 1.0]), 1.0, Distribution([1.0, 0.0]), 0.0)
        with pytest.raises(DomainError):  # p = (1, 0) at q = 2
            varentropy_residual(Spectrum([0.0, 1.0]), QParam(2), [0.5, -0.5], 1e-3)

    @given(
        q=q_values,
        x=st.floats(min_value=-3.0, max_value=3.0),
        a=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_round_trip(self, q, x, a):
        qp = QParam(q)
        # keep x strictly inside the domain and p bounded away from zero
        if qp.is_super_unit and x >= 0.9 / (qp.q - 1.0):
            return
        if qp.is_sub_unit and x <= 0.9 / (qp.q - 1.0):
            return
        p = q_factor(x, qp)
        recovered = inverse_q_factor(p, qp, a=a)
        assert abs(recovered - (x + a)) <= 1e-12 * max(1.0, abs(x + a))
        assert q_factor(recovered - a, qp) == pytest.approx(p, rel=1e-12, abs=1e-300)


class TestDeformedLog:
    """The array inverse of the kernel, which must not cancel as q -> 1."""

    @pytest.mark.parametrize("gap", [1e-12, -1e-12, 1e-9, -1e-9, 1e-5, -1e-5])
    def test_matches_its_series_near_q_one(self, gap):
        # -expm1(y) / (q-1) = -ln p (1 + y/2 + y^2/6 + ...) at y = (q-1) ln p; with
        # |y| < 3e-4 here, the terms after y^4/120 lie far below an ulp
        qm1 = QParam(1.0 + gap).q - 1.0
        p = np.geomspace(1e-12, 1.0, 5001)
        log_p = np.log(p)
        y = qm1 * log_p
        series = -log_p * (1.0 + y * (1 / 2 + y * (1 / 6 + y * (1 / 24 + y / 120))))
        assert np.all(np.abs(_deformed_log(p, qm1) - series) <= 4 * np.spacing(np.abs(series)))

    def test_classical_is_minus_log(self):
        p = np.geomspace(1e-300, 1.0, 101)
        assert np.array_equal(_deformed_log(p, 0.0), -np.log(p))

    def test_half_is_log_two_near_q_one(self):
        # (1 - p^(q-1))/(q-1) misses ln 2 by 1.4e-5 here
        assert inverse_q_factor(0.5, QParam(1 + 1e-12)) == pytest.approx(math.log(2), rel=1e-15)


class TestValidateDistribution:
    def test_valid(self):
        d = Distribution([0.5, 0.5])
        assert d.probs == (0.5, 0.5)
        assert d.W == 2

    def test_degenerate_single_state(self):
        assert Distribution([1.0]).probs == (1.0,)

    def test_normalization_error(self):
        with pytest.raises(NormalizationError):
            Distribution([0.6, 0.6])

    def test_range_error(self):
        with pytest.raises(RangeError):
            Distribution([1.2, -0.2])
        with pytest.raises(RangeError):
            Distribution([math.nan, 1.0])

    def test_empty_error(self):
        with pytest.raises(EmptyError):
            Distribution([])

    def test_stored_unrenormalized(self):
        probs = (0.5 + 1e-10, 0.5)
        assert Distribution(probs).probs == probs


class TestValueTypeContract:
    """Spectrum and Distribution: one read-only float64 array behind tuple views."""

    def test_later_mutation_of_the_source_does_not_leak_in(self):
        values = np.array([0.0, 0.4, 1.0])
        spectrum = Spectrum(values)
        values[:] = 7.0
        assert spectrum.values == (0.0, 0.4, 1.0)
        assert (spectrum.x_min, spectrum.x_max) == (0.0, 1.0)
        probs = [0.25, 0.75]
        dist = Distribution(probs)
        probs[0] = 0.5
        assert dist.probs == (0.25, 0.75)

    def test_storage_is_read_only_and_instances_frozen(self):
        for obj in (Spectrum([0.0, 1.0]), Distribution([0.5, 0.5])):
            with pytest.raises(ValueError):
                obj.as_array()[0] = 0.3
            with pytest.raises(AttributeError):
                obj.extra = 1.0
            assert obj.as_array().dtype == np.float64

    @pytest.mark.parametrize(
        "cls, values", [(Spectrum, [0.0, 0.4, -1.5, 0.4]), (Distribution, [0.25, 0.5, 0.25])]
    )
    def test_list_tuple_array_and_generator_inputs_agree(self, cls, values):
        made = [cls(values), cls(tuple(values)), cls(np.array(values)), cls(v for v in values)]
        assert all(obj == made[0] for obj in made)
        assert len({hash(obj) for obj in made}) == 1

    @pytest.mark.parametrize("cls", [Spectrum, Distribution])
    def test_rejects_two_dimensional_input(self, cls):
        for nested in ([[0.5], [0.5]], np.array([[0.5, 0.5]]), np.array([[0.5], [0.5]])):
            with pytest.raises(TypeError):
                cls(nested)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_spectrum_rejects_nonfinite(self, bad):
        # the check reads x_min and x_max, which NaN and either infinity reach from anywhere
        for values in ([0.0, bad], [bad], [bad, 0.0], [1.0, bad, -1.0], [bad, -bad]):
            with pytest.raises(RangeError, match="spectrum values must all be finite"):
                Spectrum(np.array(values))

    @pytest.mark.parametrize("bad", [math.nan, -1e-300, 1.0 + 1e-15, math.inf])
    def test_distribution_names_the_offending_probability(self, bad):
        with pytest.raises(RangeError, match=f"probability {bad!r} outside"):
            Distribution(np.array([0.5, bad, 0.5]))

    def test_views_are_tuples_of_python_floats(self):
        spectrum = Spectrum(np.array([0.0, 0.4]))
        dist = Distribution(np.array([0.5, 0.5]))
        for view in (spectrum.values, dist.probs):
            assert type(view) is tuple
            assert all(type(v) is float for v in view)
        assert spectrum.values is spectrum.values  # built once

    def test_equality_compares_values(self):
        assert Spectrum([0.0, 0.4]) == Spectrum(np.array([0.0, 0.4]))
        assert Spectrum([0.0, 0.4]) != Spectrum([0.4, 0.0])
        assert Spectrum([0.0]) != Spectrum([0.0, 0.0])
        assert Spectrum([0.5, 0.5]) != Distribution([0.5, 0.5])
        assert Distribution([1.0]) == Distribution((1.0,))

    @pytest.mark.parametrize("w", [2, 7, 1000, 100_000])
    def test_sum_decision_matches_fsum(self, w):
        # exact sums stepped through 1 +- NORMALIZATION_TOL by a few ulps of 1
        base = np.random.default_rng(w).random(w)
        base /= base.sum()
        decisions = set()
        for sign in (1.0, -1.0):
            for k in range(-24, 25):
                probs = base.copy()
                probs[-1] += 1.0 + sign * NORMALIZATION_TOL - math.fsum(probs) + k * 2.0**-53
                accept = abs(math.fsum(probs) - 1.0) <= NORMALIZATION_TOL
                decisions.add(accept)
                if accept:
                    Distribution(probs)
                else:
                    with pytest.raises(NormalizationError):
                        Distribution(probs)
        assert decisions == {True, False}


class TestSolvedRange:
    """A solver's p is taken over unscanned, so it must lie in [0, 1] by its construction."""

    @staticmethod
    def _in_range(run) -> bool:
        """Whether ``run`` solved; its p must then lie in [0, 1]."""
        try:
            p = run().as_array()
        except QentropyError:
            return False  # no root, or none that doubles resolve
        assert np.minimum.reduce(p) >= 0.0 and np.maximum.reduce(p) <= 1.0
        return True

    def test_every_solved_p_lies_in_the_unit_interval(self):
        # q from 0.3 to 10 and within 1e-9 of 1, offsets up to 1e8, W from 1 to 10^5
        rng = np.random.default_rng(131)
        solved = {"shift": 0, "beta": 0, "escort": 0}
        for draw in range(400):
            q = (1.0 + rng.uniform(-1e-9, 1e-9) if draw % 4 == 0
                 else math.exp(rng.uniform(math.log(0.3), math.log(10.0))))
            w = int(math.exp(rng.uniform(0.0, math.log(1e5 + 1))))
            offset = float(rng.choice([0.0, 1.0, -1.0])) * 10.0 ** rng.uniform(-3.0, 8.0)
            x = (10.0 ** rng.uniform(-3.0, 1.0)) * rng.random(w)
            if q > 1.0 and draw % 2:  # a feasible q > 1 shift, its endpoint sum near 0.9
                with np.errstate(under="ignore"):
                    total = float(np.sum(((q - 1.0) * (x.max() - x)) ** (1.0 / (q - 1.0))))
                x *= (0.9 / total) ** (q - 1.0) if total > 0.9 else 1.0
            energies = Spectrum(offset + x)
            span = energies.x_max - energies.x_min
            target = energies.x_min + rng.uniform(0.05, 0.95) * span
            beta = rng.uniform(-2.0, 2.0) / max(span, 1e-3)
            solved["shift"] += self._in_range(lambda: shifted_distribution(energies, QParam(q))[0])
            solved["beta"] += self._in_range(lambda: solve_beta(QParam(q), energies, target)[1])
            solved["escort"] += self._in_range(
                lambda: escort_distribution(2.0 - q, energies, beta).p)
        assert min(solved.values()) >= 150, solved

    def test_a_rounded_domain_endpoint_stays_at_most_x_min(self):
        # [x_0, x_0 + s] with s within 3 ulps of 1/(q-1): the rounded endpoint
        # x_max - 1/(q-1) can land above x_min, where a base would exceed 1
        rng = np.random.default_rng(137)
        solved = 0
        for _ in range(600):
            qm1 = math.exp(rng.uniform(math.log(1e-3), math.log(49.0)))
            s = 1.0 / qm1
            for _ in range(int(rng.integers(-3, 4))):
                s = math.nextafter(s, math.inf if rng.random() < 0.7 else -math.inf)
            x0 = float(rng.choice([0.0, 1.0, -3.7, 1e3]))
            spectrum = Spectrum([x0] + [x0 + s] * int(rng.integers(1, 4)))
            solved += self._in_range(lambda: shifted_distribution(spectrum, QParam(1.0 + qm1))[0])
        assert solved >= 150

"""Tests for the scalar primitives and value types."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qentropy import (
    Distribution,
    DomainError,
    EmptyError,
    Mode,
    NormalizationError,
    QParam,
    QRegime,
    RangeError,
    Spectrum,
    inverse_q_factor,
    q_factor,
    validate_distribution,
)
from qentropy.core import NORMALIZATION_TOL, _deformed_exp

# q values away from the removable q = 1 point, plus the exact classical case
q_values = st.one_of(
    st.floats(min_value=0.05, max_value=0.95),
    st.just(1.0),
    st.floats(min_value=1.05, max_value=3.0),
)


class TestQParam:
    def test_classification_is_exact(self):
        assert QParam(1.0).regime is QRegime.CLASSICAL
        assert QParam(1.0 - 1e-15).regime is QRegime.SUB_UNIT
        assert QParam(1.0 + 1e-15).regime is QRegime.SUPER_UNIT
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
        s = Spectrum([0.0, 1.0]).scaled(2.0).shifted(-1.0)
        assert s.values == (-1.0, 1.0)


class TestQFactor:
    @pytest.mark.parametrize("q", [0.3, 1.0, 2.0, 2.7])
    def test_unit_at_zero(self, q):
        assert q_factor(0.0, QParam(q)) == 1.0

    def test_direct_substitution(self):
        assert q_factor(0.3, QParam(2)) == pytest.approx(0.7, abs=1e-15)
        assert q_factor(1.0, QParam(0.5)) == pytest.approx(4.0 / 9.0, abs=1e-15)

    def test_negative_base_policies(self):
        with pytest.raises(DomainError):
            q_factor(1.5, QParam(2), Mode.STRICT)
        assert q_factor(1.5, QParam(2), Mode.CUTOFF) == 0.0

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
    """The array kernel: p, the slope p / base, and its edge values."""

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 1.5, 2.0, 2.5, 3.0])
    def test_slope_is_the_power_two_minus_q(self, q):
        base = np.random.default_rng(int(q * 10)).uniform(1e-3, 20.0, 5000)
        p, slope = _deformed_exp((1.0 - base) / (q - 1.0), q - 1.0, slope=True)
        expected = np.power(p, 2.0 - q)
        assert np.all(np.abs(slope - expected) <= 4 * np.spacing(expected))

    @pytest.mark.parametrize("q, slope_at_zero", [(0.5, math.inf), (1.5, 0.0), (2.0, 1.0),
                                                  (3.0, math.inf)])
    def test_slope_at_a_zero_base(self, q, slope_at_zero):
        z = np.array([0.0, 1.0 / (q - 1.0), 0.25])  # bases 1, exactly 0, and 1 - (q-1)/4
        p, slope = _deformed_exp(z, q - 1.0, slope=True)
        assert p[1] == (0.0 if q > 1.0 else math.inf)
        assert slope[1] == slope_at_zero
        assert p[0] == slope[0] == 1.0

    # the slope there is p^(2-q) at p = 0
    @pytest.mark.parametrize("q, slope_at_zero", [(0.5, 0.0), (1.5, 0.0), (2.0, 1.0),
                                                  (3.0, math.inf)])
    def test_negative_bases_are_cut_off(self, q, slope_at_zero):
        z = np.array([-4.0, 0.0, 4.0]) / (q - 1.0)  # bases 5, 1 and -3
        p, slope = _deformed_exp(z.copy(), q - 1.0, slope=True, cutoff=True)
        assert p[2] == 0.0 and p[1] == 1.0
        assert slope[2] == slope_at_zero
        assert _deformed_exp(z.copy(), q - 1.0, cutoff=True)[2] == 0.0

    @pytest.mark.parametrize("q", [0.5, 1.5, 3.0])
    def test_strict_mode_rejects_a_negative_base(self, q):
        for slope in (False, True):
            with pytest.raises(DomainError):
                _deformed_exp(np.array([0.0, 4.0 / (q - 1.0)]), q - 1.0, slope=slope)


class TestInverseQFactor:
    def test_p_one_forces_x_equal_a(self):
        for q in (0.4, 1.0, 2.5):
            assert inverse_q_factor(1.0, QParam(q), a=0.7) == 0.7

    def test_direct_values(self):
        assert inverse_q_factor(0.7, QParam(2), a=-0.3) == pytest.approx(0.0, abs=1e-15)
        assert inverse_q_factor(0.5, QParam(1)) == pytest.approx(math.log(2), abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            inverse_q_factor(0.0, QParam(2))
        with pytest.raises(DomainError):
            inverse_q_factor(-0.1, QParam(0.5))

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


class TestValidateDistribution:
    def test_valid(self):
        d = validate_distribution([0.5, 0.5])
        assert d.probs == (0.5, 0.5)
        assert d.W == 2

    def test_degenerate_single_state(self):
        assert validate_distribution([1.0]).probs == (1.0,)

    def test_normalization_error(self):
        with pytest.raises(NormalizationError):
            validate_distribution([0.6, 0.6])

    def test_range_error(self):
        with pytest.raises(RangeError):
            validate_distribution([1.2, -0.2])
        with pytest.raises(RangeError):
            validate_distribution([math.nan, 1.0])

    def test_empty_error(self):
        with pytest.raises(EmptyError):
            validate_distribution([])

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
        with pytest.raises(RangeError):
            Spectrum(np.array([0.0, bad]))

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

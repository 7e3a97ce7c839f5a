"""Tests for the uncertainty measure, baselines, composition, and sweeps."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from qentropy import shift
from qentropy import (
    ConvergenceError,
    Distribution,
    QParam,
    RangeError,
    SolveMethod,
    Spectrum,
    StepError,
    bg_entropy,
    compose,
    max_uncertainty,
    shifted_distribution,
    tsallis_entropy,
    two_state_sweep,
    uncertainty,
    varentropy_residual,
)

q_values = st.one_of(
    st.floats(min_value=0.05, max_value=0.95),
    st.just(1.0),
    st.floats(min_value=1.05, max_value=3.0),
)


@st.composite
def distributions(draw, max_states=16):
    """Normalized random probability vector with at least two states."""
    weights = draw(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=max_states)
    )
    total = math.fsum(weights)
    return Distribution([w / total for w in weights])


class TestUncertainty:
    def test_degenerate_is_zero(self):
        assert uncertainty(Distribution([1.0, 0.0]), QParam(0.5)) == 0.0
        assert uncertainty(Distribution([0.0, 1.0, 0.0]), QParam(2.3)) == 0.0

    def test_direct_values(self):
        half = Distribution([0.5, 0.5])
        assert uncertainty(half, QParam(2)) == pytest.approx(0.25, abs=1e-15)
        assert uncertainty(half, QParam(1)) == pytest.approx(math.log(2), abs=1e-15)
        skew = Distribution([0.7, 0.3])
        assert uncertainty(skew, QParam(2)) == pytest.approx(0.21, abs=1e-15)
        assert uncertainty(skew, QParam(2)) == pytest.approx(
            oracles.uncertainty([0.7, 0.3], 2.0), abs=1e-15
        )

    @given(dist=distributions(), q=q_values)
    def test_nonnegative_and_below_uniform_max(self, dist, q):
        qp = QParam(q)
        value = uncertainty(dist, qp)
        assert value >= 0.0
        assert value <= max_uncertainty(dist.W, qp) + 1e-14

    @given(dist=distributions(), q=q_values)
    def test_permutation_invariance(self, dist, q):
        qp = QParam(q)
        shuffled = Distribution(dist.probs[::-1])
        assert uncertainty(shuffled, qp) == pytest.approx(
            uncertainty(dist, qp), rel=1e-14, abs=1e-14
        )

    @given(dist=distributions())
    def test_classical_limit(self, dist):
        reference = bg_entropy(dist)
        for q in (1.0 - 1e-6, 1.0 + 1e-6):
            assert abs(uncertainty(dist, QParam(q)) - reference) <= 1e-5

    @pytest.mark.parametrize("q", [1.0 - 2**-53, 1.0 + 2**-52, 1.0 - 1e-11, 1.0 + 1e-11,
                                   1.0 - 1e-5, 1.0 + 1e-5])
    def test_fair_coin_near_q1_to_a_few_ulps(self, q):
        # with d = 1 - q and x = d ln 2, I = (2^d - 1) / (q d) = (ln 2 / q)(1 + x/2 + x^2/6 + ...)
        x = (1.0 - q) * math.log(2.0)
        expected = math.log(2.0) / q * (1.0 + x / 2.0 + x * x / 6.0 + x**3 / 24.0)
        coin = Distribution([0.5, 0.5])
        assert uncertainty(coin, QParam(q)) == pytest.approx(expected, rel=4e-16, abs=0.0)
        assert max_uncertainty(2, QParam(q)) == pytest.approx(expected, rel=4e-16, abs=0.0)

    def test_shortfall_beyond_rounding_is_kept(self):
        # 1 - sum p = -1e-12 is no rounding: it enters as -1e-12 / (q (q - 1)), about -1e-7
        probs = [0.5, 0.5 + 1e-12]
        q = 1.0 + 1e-5
        value = uncertainty(Distribution(probs), QParam(q))
        assert value == pytest.approx(oracles.uncertainty(probs, q), abs=1e-9)
        assert abs(value - uncertainty(Distribution([0.5, 0.5]), QParam(q))) > 5e-8

    @pytest.mark.parametrize("q", [1.0 - 1e-5, 1.0 + 1e-5])
    def test_shortfall_enters_in_full(self, q):
        # 1 - sum p = -10 eps, summed exactly, is past rounding: none of it may be dropped
        probs = [0.25, 0.25, 0.5 + 10 * 2.0**-52]
        shortfall = math.fsum([1.0] + [-p for p in probs])
        rest = math.fsum(p * math.expm1((q - 1.0) * math.log(p)) for p in probs)
        expected = (shortfall - rest) / (q * (q - 1.0))
        assert uncertainty(Distribution(probs), QParam(q)) == pytest.approx(expected, rel=1e-13)

    @given(
        weights_a=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=8),
        weights_b=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=8),
        lam=st.floats(min_value=0.01, max_value=0.99),
        q=q_values,
    )
    def test_concavity_on_mixtures(self, weights_a, weights_b, lam, q):
        if len(weights_a) != len(weights_b):
            return
        qp = QParam(q)
        pa = np.asarray(weights_a) / math.fsum(weights_a)
        pb = np.asarray(weights_b) / math.fsum(weights_b)
        mix = Distribution((lam * pa + (1 - lam) * pb).tolist())
        lhs = uncertainty(mix, qp)
        rhs = lam * uncertainty(Distribution(pa.tolist()), qp) + (1 - lam) * uncertainty(
            Distribution(pb.tolist()), qp
        )
        assert lhs >= rhs - 1e-12


class TestBaselines:
    def test_bg_values(self):
        assert bg_entropy(Distribution([1.0, 0.0, 0.0])) == 0.0
        assert bg_entropy(Distribution([0.25] * 4)) == pytest.approx(math.log(4), abs=1e-14)
        expected = -0.7 * math.log(0.7) - 0.3 * math.log(0.3)
        assert bg_entropy(Distribution([0.7, 0.3])) == pytest.approx(expected, abs=1e-15)

    def test_bg_with_zero_probabilities_matches_oracle(self):
        # zero terms join the pairwise sum, so compare within the rounding of W terms
        rng = np.random.default_rng(17)
        for w in (8, 50, 300):
            raw = rng.random(w) * (rng.random(w) < 0.6)
            probs = raw / raw.sum()
            expected = oracles.uncertainty(probs.tolist(), 1.0)
            dist = Distribution(probs)
            for value in (bg_entropy(dist), uncertainty(dist, QParam(1))):
                assert value == pytest.approx(expected, rel=w * 2.0**-52)

    def test_tsallis_values(self):
        half = Distribution([0.5, 0.5])
        assert tsallis_entropy(half, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert tsallis_entropy(Distribution([1.0, 0.0]), 1.7) == 0.0
        assert tsallis_entropy(half, 1.0) == pytest.approx(math.log(2), abs=1e-15)

    def test_tsallis_rejects_bad_index(self):
        with pytest.raises(RangeError):
            tsallis_entropy(Distribution([0.5, 0.5]), 0.0)

    @given(dist=distributions(), q=q_values)
    def test_ratio_identity(self, dist, q):
        qp = QParam(q)
        assert uncertainty(dist, qp) * qp.q == pytest.approx(
            tsallis_entropy(dist, qp.q), rel=1e-14, abs=1e-14
        )

    def test_explicit_ratio_example(self):
        half = Distribution([0.5, 0.5])
        assert tsallis_entropy(half, 2.0) == pytest.approx(
            2.0 * uncertainty(half, QParam(2)), abs=1e-15
        )


#: the q grid of the solved-measure tests: each q regime, and within 1e-5 of q = 1
SOLVED_QS = [0.3, 0.5, 0.8, 1.0 - 1e-5, 1.0 + 1e-5, 1.0, 1.5, 2.0, 3.0, 10.0]


def solved(values, q):
    """shifted_distribution of ``values`` at q; q > 1 spectra are scaled to an endpoint sum of 0.25."""
    x = np.asarray(values, dtype=float)
    if q > 1.0 and oracles.endpoint_sum(x, q) > 0.25:
        x = x.min() + (x - x.min()) * (0.25 / oracles.endpoint_sum(x, q)) ** (q - 1.0)
    return shifted_distribution(Spectrum(x), QParam(q))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSolvedMeasure:
    """The measure of a solved p comes from the numerator its solve formed from its last pass."""

    @staticmethod
    def assert_agrees(dist, q):
        """Each measure at q matches the one read from a copy of p, within 16 ulps; others are equal."""
        copy = Distribution(dist.as_array().copy())
        pairs = [(uncertainty(dist, QParam(q)), uncertainty(copy, QParam(q))),
                 (tsallis_entropy(dist, q), tsallis_entropy(copy, q))]
        if q == 1.0:
            pairs.append((bg_entropy(dist), bg_entropy(copy)))
        else:  # at another index nothing is recorded, and p itself is read
            assert bg_entropy(dist) == bg_entropy(copy)
        for recorded, direct in pairs:
            assert abs(recorded - direct) <= 16 * math.ulp(direct)
        assert uncertainty(dist, QParam(2.5)) == uncertainty(copy, QParam(2.5))

    @pytest.mark.parametrize("q", SOLVED_QS)
    def test_matches_the_measure_of_a_copy(self, q):
        rng = np.random.default_rng(83)
        recorded = 0
        for _ in range(60):
            w = int(math.exp(rng.uniform(0.0, math.log(301))))
            try:
                dist, _ = solved(rng.random(w) * math.exp(rng.uniform(math.log(0.1), math.log(5.0))), q)
            except ConvergenceError:  # large q at large W; see ROADMAP item 1
                continue
            recorded += dist._measured is not None
            self.assert_agrees(dist, q)
        assert recorded >= 15

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.0 + 1e-5])
    def test_matches_at_a_large_w(self, q):
        dist, _ = solved(np.random.default_rng(89).random(100_000), q)
        assert dist._measured is not None and dist._measured[0] == q
        self.assert_agrees(dist, q)

    def test_q_above_one_cutoff(self):
        # the endpoint sum is a few ulps below 1, so the root lies within rounding of the endpoint
        dist, solution = shifted_distribution(
            Spectrum([0.27528775407735173, 1.0581696257967885, 2.025689319879405]), QParam(1.5))
        assert solution.method is SolveMethod.BISECTION_THEN_NEWTON
        assert dist.as_array()[2] == 0.0 and dist._measured is not None
        self.assert_agrees(dist, 1.5)

    def test_endpoint_root(self):
        dist, solution = shifted_distribution(Spectrum([0.0, 1.0]), QParam(2))
        assert solution.method is SolveMethod.BISECTION
        assert dist.probs == (1.0, 0.0) and dist._measured is not None
        assert uncertainty(dist, QParam(2)) == 0.0
        self.assert_agrees(dist, 2.0)

    @pytest.mark.parametrize("values, q", [
        # the last pass misses the tolerance, and its Newton step rounds back to a0:
        # it wrote the slope over its base
        (np.random.default_rng(0).random(200), 3.0),
        # p = 0 meets an infinite base
        ([-1e308, 1e308], 0.5),
    ])
    def test_nothing_recorded(self, values, q):
        x = np.asarray(values)
        if q > 1.0:
            x = x * (0.25 / oracles.endpoint_sum(x, q)) ** (q - 1.0)
        dist, _ = shifted_distribution(Spectrum(x), QParam(q))
        assert dist._measured is None
        self.assert_agrees(dist, q)

    def test_holds_the_last_pass_without_a_copy(self, monkeypatch):
        passes, kernel = [], shift._kernel_pass
        monkeypatch.setattr(shift, "_kernel_pass", lambda *args: passes.append(kernel(*args)) or passes[-1])
        dist, _ = shifted_distribution(Spectrum(np.random.default_rng(101).random(1000)), QParam(0.5))
        assert dist.as_array() is passes[-1]
        assert not dist.as_array().flags.writeable

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.0 - 1e-5, 1.5])
    def test_reads_no_w_sized_array(self, q):
        w = 100_000
        dist, _ = shifted_distribution(Spectrum(np.random.default_rng(97).uniform(0.0, 1e-6, w)),
                                       QParam(q))
        assert not dist.as_array().flags.writeable
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            uncertainty(dist, QParam(q))
            tsallis_entropy(dist, q)
            assert tracemalloc.get_traced_memory()[1] - before < 8 * w // 10
        finally:
            tracemalloc.stop()


class TestMaxUncertainty:
    def test_examples(self):
        assert max_uncertainty(2, QParam(2)) == pytest.approx(0.25, abs=1e-15)
        assert max_uncertainty(3, QParam(1)) == pytest.approx(math.log(3), abs=1e-15)
        for q in (0.4, 1.0, 2.2):
            assert max_uncertainty(1, QParam(q)) == 0.0

    @given(w=st.integers(min_value=1, max_value=64), q=q_values)
    def test_matches_uniform(self, w, q):
        qp = QParam(q)
        uniform = Distribution([1.0 / w] * w)
        assert max_uncertainty(w, qp) == pytest.approx(
            uncertainty(uniform, qp), rel=1e-14, abs=1e-14
        )

    def test_rejects_bad_count(self):
        with pytest.raises(RangeError):
            max_uncertainty(0, QParam(2))


def assert_identity(weights_a, weights_b, q):
    """Both sides of the composition identity agree for the normalized weights."""
    p_a = Distribution([w / math.fsum(weights_a) for w in weights_a])
    p_b = Distribution([w / math.fsum(weights_b) for w in weights_b])
    result = compose(p_a, p_b, QParam(q))
    assert abs(result.formula_value - result.direct_value) <= 1e-12


class TestCompose:
    def test_pair_of_coins_at_q2(self):
        result = compose(Distribution([0.5, 0.5]), Distribution([0.5, 0.5]), QParam(2))
        assert result.i_a == pytest.approx(0.25, abs=1e-15)
        assert result.i_b == pytest.approx(0.25, abs=1e-15)
        assert result.formula_value == pytest.approx(0.375, abs=1e-15)
        assert result.direct_value == pytest.approx(0.375, abs=1e-15)
        assert result.nonextensive_term == pytest.approx(-0.125, abs=1e-15)

    def test_degenerate_side_drops_out(self):
        other = Distribution([0.3, 0.7])
        result = compose(Distribution([1.0, 0.0]), other, QParam(3))
        assert result.formula_value == pytest.approx(uncertainty(other, QParam(3)), abs=1e-15)
        assert result.direct_value == pytest.approx(result.formula_value, abs=1e-15)

    def test_classical_additivity(self):
        result = compose(Distribution([0.5, 0.5]), Distribution([0.5, 0.5]), QParam(1))
        assert result.nonextensive_term == 0.0
        assert result.formula_value == pytest.approx(2 * math.log(2), abs=1e-14)
        assert result.formula_value == result.i_a + result.i_b

    @given(
        weights_a=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=8),
        weights_b=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=8),
        q=st.one_of(st.floats(min_value=0.01, max_value=3.0), st.just(1.0)),
    )
    # fair coins one ulp below q = 1: the old measure read 0 for each and 2.0 for the pair
    @example(weights_a=[1.0, 1.0], weights_b=[1.0, 1.0], q=1.0 - 2**-53)
    # sum p_ab is off 1 by rounding, which divided by q (q - 1) gave a mismatch of 1.0
    @example(weights_a=[1.0, 1.0], weights_b=[1.0, 0.5], q=1.0 - 2**-53)
    @example(weights_a=[1.0, 1.0], weights_b=[1.0, 1.0], q=0.99999)
    # both sides about 1917.41, once 5 ulps apart
    @example(weights_a=[0.5, 0.3002185666933441, 0.4765625, 0.0659550513040722,
                        0.9577859141605728, 0.9577859141605728, 1e-06],
             weights_b=[1.0, 0.5, 0.75], q=0.01)
    # rounding each numerator once, by fsum alone, leaves these two 2 ulps (1.8e-12) apart
    @example(weights_a=[0.4748470262647109, 0.2149271848738678, 0.2611198390386412,
                        0.32406734627196965, 0.547671340861684, 0.08941196957748486,
                        0.40691494278634854, 0.6819226266013174],
             weights_b=[0.8363985115446126, 0.516014960709741, 0.9499794521941237,
                        0.7355021444331239, 0.7899087361909422, 0.13513723815003031,
                        0.5054471091026173, 0.035516831797905005],
             q=0.01)
    def test_identity_exact(self, weights_a, weights_b, q):
        assert_identity(weights_a, weights_b, q)

    @pytest.mark.parametrize("q", [0.01, 0.0100001, 0.99999, 1.0 - 2**-53, 1.0 + 2**-52,
                                   1.00001, 0.75, 1.25])
    def test_identity_over_seeded_pairs(self, q):
        # up to 8 x 8 states: the measure nears 6113 at q = 0.01, where an ulp is 9.1e-13
        rng = np.random.default_rng(1812)
        for _ in range(200):
            weights_a, weights_b = (rng.uniform(1e-6, 1.0, rng.integers(1, 9)).tolist()
                                    for _ in range(2))
            assert_identity(weights_a, weights_b, q)

    def test_overflow_is_infinite(self):
        # at q = 1e-320 every field is about 1e320: each rounds to inf, none raises
        coin = Distribution([0.5, 0.5])
        result = compose(coin, coin, QParam(1e-320))
        assert (result.i_a, result.i_b, result.formula_value, result.direct_value,
                result.nonextensive_term) == (math.inf,) * 5


class TestTwoStateSweep:
    def test_three_point_classical(self):
        table = two_state_sweep([QParam(1)], n_points=3)
        assert table.headers == ("p1", "I_q=1.0")
        assert table.rows[0] == (0.0, 0.0)
        assert table.rows[1][1] == pytest.approx(math.log(2), abs=1e-15)
        assert table.rows[2] == (1.0, 0.0)

    def test_five_point_q2(self):
        table = two_state_sweep([QParam(2)], n_points=5)
        by_p1 = {row[0]: row[1] for row in table.rows}
        assert by_p1[0.5] == pytest.approx(0.25, abs=1e-15)
        assert by_p1[0.25] == pytest.approx(0.1875, abs=1e-15)

    def test_endpoints_exact_zero_and_peak_near_half(self):
        for n_points in (11, 12):
            table = two_state_sweep([QParam(0.3), QParam(1), QParam(2.5)], n_points=n_points)
            grid = [row[0] for row in table.rows]
            assert grid[0] == 0.0 and grid[-1] == 1.0
            assert all(a < b for a, b in zip(grid, grid[1:]))
            for col in range(1, len(table.headers)):
                values = [row[col] for row in table.rows]
                assert values[0] == 0.0 and values[-1] == 0.0
                nearest_half = min(range(n_points), key=lambda i: abs(grid[i] - 0.5))
                assert max(range(n_points), key=values.__getitem__) == nearest_half

    def test_columns_concave(self):
        table = two_state_sweep([QParam(0.2), QParam(1), QParam(3)], n_points=101)
        for col in range(1, len(table.headers)):
            values = np.array([row[col] for row in table.rows])
            second = values[2:] - 2 * values[1:-1] + values[:-2]
            assert (second <= 1e-12).all()

    def test_rejects_tiny_grid(self):
        with pytest.raises(RangeError):
            two_state_sweep([QParam(1)], n_points=2)

    def test_rows_equal_uncertainty_bit_for_bit(self):
        params = [QParam(q) for q in (0.2, 0.5, 1.0 - 1e-5, 1.0, 1.0 + 1e-5, 1.5, 2.0, 3.0)]
        table = two_state_sweep(params, n_points=2001)
        for row in table.rows:
            p1 = row[0]
            dist = Distribution((p1, 1.0 - p1))
            assert [v.hex() for v in row[1:]] == [uncertainty(dist, qp).hex() for qp in params]
        assert [v.hex() for v in table.rows[0] + table.rows[-1][1:]] == ["0x0.0p+0"] * 17


class TestVarentropyResidual:
    def test_zero_tangent(self):
        assert varentropy_residual(Spectrum([0.0, 0.4]), QParam(2), [0.0, 0.0], 1e-6) == 0.0

    def test_pair_example(self):
        resid = varentropy_residual(Spectrum([0.0, 0.4]), QParam(2), [1.0, -1.0], 1e-6)
        assert resid <= 1e-5

    def test_first_order_in_step(self):
        spectrum = Spectrum([0.0, 0.4])
        full = varentropy_residual(spectrum, QParam(2), [1.0, -1.0], 1e-6)
        half = varentropy_residual(spectrum, QParam(2), [1.0, -1.0], 5e-7)
        assert half <= 0.5 * full * (1 + 1e-3) + 1e-10

    def test_step_error_when_leaving_simplex(self):
        with pytest.raises(StepError):
            varentropy_residual(Spectrum([0.0, 0.4]), QParam(2), [1.0, -1.0], 0.5)

    def test_rejects_unbalanced_tangent(self):
        with pytest.raises(ValueError):
            varentropy_residual(Spectrum([0.0, 0.4]), QParam(2), [1.0, 1.0], 1e-6)

    def test_classical_branch(self):
        resid = varentropy_residual(Spectrum([0.0, 1.0]), QParam(1), [1.0, -1.0], 1e-6)
        assert resid <= 1e-5

    # two instances of acceptance criterion 07, with its tangent.  The measure drops
    # 1 - sum p within 4 eps and keeps it at 5 eps, so when the two vectors of the
    # difference fell on either side of that cut, the quotient moved by about
    # eps/(q (q - 1) step) and the halving check failed: on the first as the solver
    # now places its sum (4 eps, at 5e-7 a residual of 8.54e-8 against 7.76e-8), on
    # the second (instance 27) from a start that placed it at 4 eps, 5 eps at
    # step 5e-7 (5.51e-8 against 4.65e-8)
    CUT_INSTANCES = [
        (1.0774282603965422,
         [2.1434678260780653, 0.8681697824079347, 3.0630826408070955, 3.4292434450854774,
          1.1286394280733865, 1.236857686039854, 0.6491878140623916, 3.354795547242867],
         [-0.05959601766489309, 0.12784932093536425, 0.003563144741467994,
          -0.007088425051766709, 0.044402649868688505, 0.0651122796875905,
          -0.1741063489351307, -0.00013660358132076207]),
        (1.0937537050789854,
         [-3.8953394198986713, -0.586504495405202, -1.35894159312396, -0.516052184372413,
          -3.7927925984573028, -1.7861244503543179, -1.117991191951294, -0.2953347085913276,
          -2.8912802169582754, -1.7984071472981678, -0.4605050244524251, -3.3405083529838344,
          -1.378715463354844, -2.6808639186614154, -3.7817718267020233, -0.7534369001162217,
          -1.662660248480504, -2.6280794644083896, -0.9761294376209868, -3.0438088655651487,
          -1.509406851391281],
         [0.047415168428350474, 0.0005979743546988307, 0.0003838831144375347,
          -0.0003193056241946671, 0.021614754503086527, -0.0020973630761332096,
          0.0018663401925959494, -0.0004910476785945169, 0.01160151909343794,
          -0.00368612792004506, 0.0010453872350091923, 0.014344562312817468,
          -0.003596614283932027, -0.008284592566284514, 0.05010861954675155,
          -0.0010878348394714468, -0.011549395293489924, -0.04264549022743078,
          -0.0006618880040700017, -0.07585261787130257, 0.0012940686037632469]),
    ]

    @pytest.mark.parametrize("q, values, tangent", CUT_INSTANCES, ids=["sum-at-4-eps", "27"])
    def test_difference_does_not_cross_the_normalization_cut(self, q, values, tangent):
        spectrum, qp = Spectrum(values), QParam(q)
        probs = shifted_distribution(spectrum, qp)[0].as_array()
        full = varentropy_residual(spectrum, qp, tangent, 1e-6)
        half = varentropy_residual(spectrum, qp, tangent, 5e-7)
        # criterion 07's allowance, unchanged
        magnitude = float(np.power(probs, q).sum()) / abs(q * (q - 1.0))
        floor = 4.0 * float(np.finfo(float).eps) * max(1.0, magnitude) / 5e-7
        assert full <= 1e-4 * float(np.linalg.norm(tangent))
        assert half <= 0.5 * full * (1.0 + 1e-3) + floor

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_step_onto_the_boundary(self, q):
        # a p' of exactly 0, where ln p' is -inf: its term is -(p^q - p)/(q - 1)
        spectrum = Spectrum([0.0, 0.3, 0.4])
        dist, _ = shifted_distribution(spectrum, QParam(q))
        probs = dist.as_array()
        tangent = [probs[2], 0.0, -probs[2]]
        moved = Distribution([probs[0] + probs[2], probs[1], 0.0])
        change = uncertainty(moved, QParam(q)) - uncertainty(dist, QParam(q))
        pairing = (0.0 - 0.4) * probs[2]
        assert varentropy_residual(spectrum, QParam(q), tangent, 1.0) == pytest.approx(
            abs(change - pairing), rel=1e-12, abs=1e-14)

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate, special, stats

from bornsim import (
    RngStream,
    born_expansion,
    dark_count_prob,
    detect_prob,
    marcum_q1,
    visibility_single,
)
from bornsim import detection
from bornsim.detection import visibility_dual
from bornsim.errors import BornsimError
from oracles import (
    CoherentVector,
    detect_batch,
    efficiency,
    marcum_q1_elementwise,
    marcum_q1_mp,
    mode_crossing_probs,
    outcome_distribution,
    poisson_detection_prob,
    realize_batch,
)

# Frozen reference values, computed with the adaptive-quadrature oracle
# below (cross-checked against scipy.stats.ncx2.sf); see marcum_quadrature.
Q1_2_2 = 0.603500960611993
Q1_1414_2 = 0.39422484049419


def marcum_quadrature(a: float, b: float) -> float:
    """Independent oracle: integrate x exp(-(x^2+a^2)/2) I0(ax) from b to inf."""
    f = lambda x: x * special.i0e(a * x) * np.exp(-0.5 * (x - a) ** 2)
    val, _ = integrate.quad(f, b, np.inf, epsabs=1e-15, epsrel=1e-13, limit=400)
    return val


# Amplitudes: the series, a = 0 and far past the series limit; thresholds: the series,
# b = 0 and far past it. Every pair is computed or exact (a far a gives 1.0 against every
# b but 1e300, a far b 0.0 against every series a), none refused.
A_VALUES = st.one_of(st.floats(0.0, 37.6), st.sampled_from([0.0, 200.0, 1e3]))
B_VALUES = st.one_of(st.floats(0.0, 25.0), st.sampled_from([0.0, 90.0, 1e300]))


@st.composite
def marcum_operands(draw):
    """a and b over 0-3 broadcast axes, each of length 0, 1, 2, 3 or 5 and varying in a,
    b or both; an operand may omit leading length-1 axes, be a Python float, or have
    negative strides."""
    axes = draw(st.lists(st.tuples(st.sampled_from([2, 3, 5, 1, 0]),
                                   st.sampled_from(["a", "b", "ab"])), max_size=3))
    operands = []
    for name, values in (("a", A_VALUES), ("b", B_VALUES)):
        shape = [n if name in who else 1 for n, who in axes]
        while shape and shape[0] == 1 and draw(st.booleans()):
            shape.pop(0)
        v = draw(arrays(float, tuple(shape), elements=values))
        if not shape and draw(st.booleans()):
            v = float(v)
        elif draw(st.booleans()):
            v = np.flip(np.flip(v).copy())
        operands.append(v)
    return operands


def outer_past_one_chunk():
    """1,500 amplitudes (some past the series limit) against 12 thresholds (b = 0 and one
    past the limit among them): more rows than one chunk of 2^14 elements."""
    rng = np.random.default_rng(31)
    a = rng.uniform(0.0, 12.0, (1500, 1))
    a[::97] = 1e3
    b = np.concatenate([rng.uniform(0.0, 12.0, 9), [0.0, 90.0, 3.0]])
    return [a, b]


class TestMarcumQ:
    def test_closed_form_at_zero_first_argument(self):
        assert marcum_q1(0.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_unity_at_zero_threshold(self):
        assert marcum_q1(3.0, 0.0) == 1.0
        assert marcum_q1(0.0, 0.0) == 1.0

    def test_reference_values(self):
        assert marcum_q1(1.414, 2.0) == pytest.approx(Q1_1414_2, rel=1e-10)
        assert marcum_q1(2.0, 2.0) == pytest.approx(Q1_2_2, rel=1e-10)

    def test_against_quadrature_oracle(self):
        assert marcum_q1(2.0, 2.0) == pytest.approx(marcum_quadrature(2.0, 2.0), rel=1e-10)
        assert marcum_q1(0.3, 3.1) == pytest.approx(marcum_quadrature(0.3, 3.1), rel=1e-10)

    def test_against_noncentral_chi2_cdf(self):
        # 1 - Q1(2a, 2g) is the cdf at 4g^2 of a noncentral chi2(2, 4a^2)
        grid = np.linspace(0.1, 2.0, 20)
        for a, g in zip(grid, grid[::-1]):
            mine = 1.0 - marcum_q1(2.0 * a, 2.0 * g)
            ref = stats.ncx2.cdf(4.0 * g * g, 2, 4.0 * a * a)
            assert mine == pytest.approx(ref, abs=1e-9)

    def test_monotone_grid(self):
        a = np.linspace(0.0, 4.0, 41)
        for b in np.linspace(0.0, 4.0, 41):
            vals = marcum_q1(a, b)
            assert np.all(np.diff(vals) >= -1e-14)
        for aa in (0.0, 1.3, 2.6, 4.0):
            vals = np.array([marcum_q1(aa, b) for b in np.linspace(0.0, 4.0, 41)])
            assert np.all(np.diff(vals) <= 1e-14)

    def test_vectorized_matches_scalar(self):
        # a = 0, the series (short and long), and both far tails: a or b past the
        # series limit with a - b >= 12 (1.0) or b - a >= 38.61 (0.0)
        a = np.array([0.0, 0.5, 1.414, 3.3, 8.0, 60.0, 1e3])
        b = np.array([0.0, 1.7, 2.0, 6.5, 47.0, 48.0])
        one = np.array([[marcum_q1(x, y) for y in b] for x in a])
        assert np.array_equal(marcum_q1(a[:, None], b), one)
        assert np.array_equal(marcum_q1(a, 1.7), one[:, 1])
        assert np.array_equal(marcum_q1(0.5, b), one[1])
        aa, bb = np.meshgrid(a, b, indexing="ij")
        assert np.array_equal(marcum_q1(aa.ravel(), bb.ravel()), one.ravel())
        assert np.array_equal(marcum_q1(aa[::-1, ::2], bb[::-1, ::2]), one[::-1, ::2])
        assert marcum_q1(aa, bb).shape == (a.size, b.size)
        assert isinstance(marcum_q1(1.0, 2.0), float)

    @pytest.mark.parametrize("shared_b", [True, False], ids=["scalar-b", "array-b"])
    def test_sorted_chunks_match_one_element_calls(self, shared_b):
        # more series elements than one chunk, shuffled and repeated, mixed with
        # far-tail elements (a or b past the series limit) and, for an array b, b = 0
        rng = np.random.default_rng(23)
        a = np.concatenate([rng.uniform(0.0, 12.0, 150), [0.0, 40.0, 45.0, 1e3]])
        b = 1.7 if shared_b else np.concatenate([rng.uniform(0.0, 12.0, 150),
                                                 [0.0, 0.0, 90.0, 39.0]])
        one = np.array([marcum_q1(x, b if shared_b else y)
                        for x, y in zip(a, np.broadcast_to(b, a.shape))])
        pick = rng.integers(0, a.size, 2 ** 14 + 3000)
        got = marcum_q1(a[pick], b if shared_b else b[pick])
        assert np.array_equal(got, one[pick])
        series = (a[pick] < 38.0) & (np.broadcast_to(b, a.shape)[pick] < 38.0)
        assert np.count_nonzero(series) > 2 ** 14 and not series.all()

    @given(ab=marcum_operands(), chunk=st.sampled_from([1, 3, 8, detection._SERIES_CHUNK]))
    @example(ab=outer_past_one_chunk(), chunk=detection._SERIES_CHUNK)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_every_layout_matches_the_elementwise_oracle(self, ab, chunk):
        # a-only, b-only and shared axes, 0-d and size-0 operands, negative strides,
        # b = 0 and far tails, and more rows than one chunk: the same bits, C-contiguous
        want = marcum_q1_elementwise(*ab)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detection, "_SERIES_CHUNK", chunk)
            got = marcum_q1(*ab)
        if isinstance(want, float):
            assert isinstance(got, float) and got == want
        else:
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("call, scale", [(marcum_q1, 1.0),
                                             (detection._conditional_clicks, 0.5)],
                             ids=["marcum_q1", "conditional_clicks"])
    def test_block_call_working_set(self, call, scale):
        # one fidelity-contour --fast block: 20 states x 9 settings x 4 modes at one
        # amplitude, against 12 thresholds; each element's own series peaked at 1,193 KiB.
        # The conditionals take |alpha| and gamma, half of Q1's arguments
        rng = np.random.default_rng(7)
        a = scale * 2.0 * 3.0 * rng.uniform(0.0, 1.0, (1, 1, 20, 9, 4))
        b = scale * 2.0 * np.arange(0.25, 3.01, 0.25)[:, None, None, None]
        tracemalloc.start()
        try:
            call(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024, f"{peak / 1024:.0f} KiB"

    def test_domain_errors(self):
        with pytest.raises(BornsimError, match="^a must be finite and >= 0"):
            marcum_q1(-0.1, 1.0)
        with pytest.raises(BornsimError, match="^b must be finite and >= 0"):
            marcum_q1(1.0, -1.0)
        with pytest.raises(BornsimError, match="^a must be finite and >= 0"):
            marcum_q1(np.nan, 1.0)
        with pytest.raises(BornsimError, match="^b must be finite and >= 0"):
            marcum_q1(1.0, np.inf)

    def test_extreme_arguments_clamp(self):
        assert marcum_q1(60.0, 2.0) == 1.0
        assert marcum_q1(2.0, 60.0) == 0.0

    @pytest.mark.parametrize("a", [1.5e17, 3e17, 1e155, 1e200])
    def test_equal_huge_arguments_give_one_half(self, a):
        # Q1(a, a) tends to 1/2, but no double series reaches it: refused, in any array.
        # The far tails test a - b, so no 12 is absorbed, and no square overflows
        got = re.escape(f"(got a = {a:g}, b = {a:g})")
        with pytest.raises(BornsimError, match=got):
            marcum_q1(a, a)
        with pytest.raises(BornsimError, match=got):
            marcum_q1(np.array([a, 0.5 * a, 2.0]), a)
        assert np.array_equal(marcum_q1(np.array([0.5 * a, 2.0 * a, 2.0]), a), [0.0, 1.0, 0.0])

    def test_corner_values_kept(self):
        # the former central-limit corner's pairs (relative error O(1/a)) are refused,
        # alone or mixed with series and far-tail elements
        for a, b in ((40.0, 39.0), (40.0, 41.0), (45.0, 41.0), (100.0, 100.0)):
            with pytest.raises(BornsimError, match=r"only where a, b < 37\.64, a - b >= 12 or "
                                                   r"b - a >= 38\.61 \(got a = "):
                marcum_q1(a, b)
            with pytest.raises(BornsimError, match=re.escape(f"(got a = {a:g}, b = {b:g})")):
                marcum_q1([1.0, 60.0, a], [1.0, 2.0, b])

    # the series domain a, b < 37.64 (m, x = a^2/2, b^2/2 < 708.39), with points packed
    # where m and x near that limit; relative error 1e-13 where Q1 >= 1e-290
    EDGE = np.sqrt(2.0 * np.linspace(690.0, 708.38, 8))
    SWEEP = np.concatenate([np.linspace(0.0, 37.0, 75), EDGE])

    def test_series_domain_against_ncx2(self):
        a, b = np.meshgrid(self.SWEEP, self.SWEEP, indexing="ij")
        ref = stats.ncx2.sf(b * b, 2, a * a)
        kept = ref >= 1e-290
        assert np.count_nonzero(~kept) < 30
        assert np.max(np.abs(marcum_q1(a, b)[kept] / ref[kept] - 1.0)) <= 1e-13

    def test_series_domain_against_mpmath(self):
        pairs = [(x, y) for x in self.EDGE[::2] for y in self.EDGE[::2]]
        pairs += [(x, y) for x in (0.0, 5.0, 20.0, 30.0, 37.6)
                  for y in (0.5, 10.0, 25.0, 37.0, 37.6)]
        # the longest series of the domain run near m = 708.4
        pairs += [(37.63, 0.001), (37.63, 37.4), (37.63, 37.63)]
        ref = np.array([marcum_q1_mp(x, y) for x, y in pairs])
        got = marcum_q1(*np.array(pairs).T)
        kept = ref >= 1e-290
        assert np.count_nonzero(kept) > 35
        assert np.max(np.abs(got[kept] / ref[kept] - 1.0)) <= 1e-13

    def test_far_tails_are_exact_and_the_gap_between_is_refused(self):
        limit = math.sqrt(2.0 * 708.39)
        # the series runs up to the limit, and one step past it a comparable pair is refused
        assert marcum_q1(37.64, 37.64) == pytest.approx(marcum_q1_mp(37.64, 37.64), rel=1e-13)
        with pytest.raises(BornsimError, match="a, b < 37.64"):
            marcum_q1(np.nextafter(limit, 38.0), 37.64)
        # a - b >= 12: exactly 1.0; one ulp inside the gap: refused
        for a in (40.0, 1e3, 1e15):
            assert marcum_q1(a, a - 12.0) == 1.0 and marcum_q1(a, 0.0) == 1.0
            with pytest.raises(BornsimError, match="a - b >= 12"):
                marcum_q1(a, np.nextafter(a - 12.0, a))
        # b - a >= 38.61: exactly 0.0; one ulp inside the gap: refused
        for a in (0.0, 1.0, 8.0):
            assert marcum_q1(a, a + 38.61) == 0.0 and marcum_q1(a, 1e300) == 0.0
            with pytest.raises(BornsimError, match="b - a >= 38.61"):
                marcum_q1(a, np.nextafter(a + 38.61, a))
        assert marcum_q1(1e3, 1e3 + 38.625) == 0.0
        with pytest.raises(BornsimError, match="b - a >= 38.61"):
            marcum_q1(1e3, 1e3 + 38.6)
        # a threshold below 12.82 (b < 25.64) is never refused, whatever the amplitude
        b = 2.0 * 12.8199
        past = np.nextafter(limit, 38.0) * np.array([1.0, 2.0, 1e9])
        a = np.concatenate([np.linspace(0.0, 37.6, 50), past])
        assert np.all(np.isfinite(marcum_q1(a, b)))

    @given(a=st.floats(0.0, 20.0), b=st.floats(0.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_range_property(self, a, b):
        v = marcum_q1(a, b)
        assert 0.0 <= v <= 1.0

    @given(a1=st.floats(0.0, 10.0), a2=st.floats(0.0, 10.0), b=st.floats(0.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_property(self, a1, a2, b):
        lo, hi = sorted((a1, a2))
        assert marcum_q1(lo, b) <= marcum_q1(hi, b) + 1e-12


class TestSingleModeProbs:
    def test_detect_prob_dark_limit(self):
        assert detect_prob(0.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_detect_prob_zero_threshold(self):
        assert detect_prob(1.23, 0.0) == 1.0

    def test_detect_prob_half_amplitude(self):
        assert detect_prob(0.707, 1.0) == pytest.approx(Q1_1414_2, rel=1e-10)

    def test_dark_count_values(self):
        assert dark_count_prob(1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert dark_count_prob(0.0) == 1.0
        assert dark_count_prob(1.6) == pytest.approx(math.exp(-5.12), rel=1e-15)

    def test_born_expansion_constant_term(self):
        for g in (0.5, 1.0, 2.0):
            assert born_expansion(0.0, g) == pytest.approx(math.exp(-2 * g * g), rel=1e-15)

    def test_born_expansion_remainder_bound(self):
        # next series term at gamma = 1 has coefficient (8/9) e^-2 ~ 0.1203;
        # allow twice that for the higher-order tail
        c = 2.0 * (8.0 / 9.0) * math.exp(-2.0)
        for a in (0.05, 0.1, 0.15, 0.2, 0.25):
            assert abs(born_expansion(a, 1.0) - detect_prob(a, 1.0)) <= c * a**6

    def test_born_expansion_tracks_detection_curve(self):
        assert abs(born_expansion(0.707, 1.0) - detect_prob(0.707, 1.0)) < 0.02

    def test_efficiency_near_unity_at_low_threshold(self):
        assert abs(efficiency(0.8) - 1.0) < 0.02

    def test_efficiency_exceeds_one_below_validity_range(self):
        assert efficiency(0.5) > 1.0

    def test_efficiency_rejects_zero_threshold(self):
        with pytest.raises(BornsimError, match="efficiency is undefined"):
            efficiency(0.0)

    @pytest.mark.parametrize("gamma", [1e-9, [1.0, 0.0]])
    def test_efficiency_rejects_dark_counts_that_round_to_one(self, gamma):
        with pytest.raises(BornsimError, match="rounds to 1"):
            efficiency(gamma)

    def test_efficiency_and_poisson_model_broadcast(self):
        g = np.array([0.5, 1.0, 1.6])
        assert np.array_equal(efficiency(g), [efficiency(x) for x in g])
        a = np.array([[0.0], [0.3]])
        p = poisson_detection_prob(a, g)
        assert p.shape == (2, 3)
        assert np.array_equal(p, [[poisson_detection_prob(x, y) for y in g] for x in a[:, 0]])
        # exp(-2 gamma^2) rounds to 1: the dark counts alone click every trial
        assert poisson_detection_prob([0.0, 0.5], 1e-9).tolist() == [1.0, 1.0]

    def test_poisson_model_dark_limit(self):
        assert poisson_detection_prob(0.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_poisson_model_quadratic_agreement(self):
        # difference is quartic; coefficient (1-d) eta^2 / 2 ~ 0.17 at gamma = 1
        c = 0.34
        for a in np.linspace(0.0, 0.3, 13):
            assert abs(poisson_detection_prob(a, 1.0) - detect_prob(a, 1.0)) <= c * a**4 + 1e-12

    def test_visibility_zero_amplitude(self):
        assert visibility_single(0.0, 1.0) == 0.0

    def test_visibility_monotone_in_threshold(self):
        vals = [visibility_single(1.0, g) for g in (0.5, 1.0, 1.5, 2.0, 2.5)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] > 0.99

    def test_visibility_ordering_in_amplitude(self):
        gs = np.linspace(0.1, 3.0, 25)
        hi = np.array([visibility_single(1.5, g) for g in gs])
        lo = np.array([visibility_single(0.5, g) for g in gs])
        assert np.all(hi >= lo)

    def test_visibility_dual_rejects_zero_threshold(self):
        with pytest.raises(BornsimError, match="undefined at gamma = 0"):
            visibility_dual(1.0, 0.0)


class TestMultiMode:
    def test_uniform_vacuum_crossing_probs(self):
        state = CoherentVector(0.0, np.full(4, 0.5))
        q = mode_crossing_probs(state, 1.0)
        assert np.all(q == dark_count_prob(1.0))

    def test_bell_direction_crossing_probs(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        alpha, g = 0.9, 1.1
        q = mode_crossing_probs(CoherentVector(alpha, psi), g)
        signal = marcum_q1(math.sqrt(2.0) * alpha, 2.0 * g)
        assert q[0] == pytest.approx(signal, rel=1e-12)
        assert q[3] == pytest.approx(signal, rel=1e-12)
        assert q[1] == q[2] == dark_count_prob(g)

    def test_crossing_probs_bounds(self):
        rng = RngStream(8)
        psi = rng.complex_normals(5)
        psi /= np.linalg.norm(psi)
        q = mode_crossing_probs(CoherentVector(1.7, psi), 0.9)
        delta = dark_count_prob(0.9)
        assert np.all(q >= delta - 1e-15) and np.all(q < 1.0)

    def test_outcome_distribution_single_mode(self):
        dist = outcome_distribution(CoherentVector(0.0, np.array([1.0])), 1.0)
        assert dist.prob((1,)) == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert dist.prob((0,)) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-14)

    def test_outcome_distribution_beam_splitter_case(self):
        alpha, g = 0.8, 1.0
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        dist = outcome_distribution(CoherentVector(alpha, psi), g)
        q = marcum_q1(math.sqrt(2.0) * alpha, 2.0 * g)
        assert dist.prob((0, 0)) == pytest.approx((1 - q) ** 2, rel=1e-12)
        assert dist.prob((1, 0)) == pytest.approx(q * (1 - q), rel=1e-12)
        assert dist.prob((0, 1)) == pytest.approx((1 - q) * q, rel=1e-12)
        assert dist.prob((1, 1)) == pytest.approx(q * q, rel=1e-12)

    def test_outcome_distribution_normalization_and_marginals(self):
        rng = RngStream(9)
        psi = rng.complex_normals(4)
        psi /= np.linalg.norm(psi)
        dist = outcome_distribution(CoherentVector(1.2, psi), 0.8)
        assert dist.total() == pytest.approx(1.0, abs=1e-10)
        for i in range(4):
            assert dist.brute_marginal(i) == pytest.approx(dist.q[i], abs=1e-12)

    def test_outcome_distribution_matches_monte_carlo(self):
        alpha, g, n = 0.9, 1.0, 1_000_000
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        state = CoherentVector(alpha, psi)
        dist = outcome_distribution(state, g)
        a = realize_batch(state, n, RngStream(10))
        bits = detect_batch(a, g)
        idx = bits @ (1 << np.arange(3, -1, -1))
        freq = np.bincount(idx, minlength=16) / n
        for k in range(16):
            p = dist.table[k]
            sigma = math.sqrt(max(p * (1 - p), 1e-300) / n)
            assert abs(freq[k] - p) < 5.0 * sigma + 1e-9

    def test_detect_sample_basics(self):
        # one sample is a (d,) vector; a batch of one is a (1, d) row
        assert np.array_equal(detect_batch(np.zeros(3), 1.0), [0, 0, 0])
        assert np.array_equal(detect_batch(np.array([2.0, 0.0]), 1.0), [1, 0])
        assert np.array_equal(detect_batch(np.array([[2.0j, 0.5]]), 1.0), [[1, 0]])

    def test_detect_sample_strict_inequality(self):
        assert np.array_equal(detect_batch(np.array([1.0]), 1.0), [0])

    def test_detect_frequency_matches_analytic(self):
        alpha, g, n = 0.5, 1.0, 1_000_000
        state = CoherentVector(alpha, np.array([1.0]))
        a = realize_batch(state, n, RngStream(20))
        freq = detect_batch(a, g).mean()
        p = detect_prob(alpha, g)
        assert abs(freq - p) < 5.0 * math.sqrt(p * (1 - p) / n)

    @given(alpha=st.floats(0.0, 3.0), gamma=st.floats(0.05, 3.0),
           d=st.integers(min_value=1, max_value=5), seed=st.integers(0, 2**20))
    @settings(max_examples=60, deadline=None)
    def test_outcome_table_sums_to_one(self, alpha, gamma, d, seed):
        psi = RngStream(seed).complex_normals(d)
        nrm = np.linalg.norm(psi)
        if nrm == 0.0:
            psi = np.eye(d)[0].astype(complex)
        else:
            psi = psi / nrm
        dist = outcome_distribution(CoherentVector(alpha, psi), gamma)
        assert dist.total() == pytest.approx(1.0, abs=1e-10)
        assert np.all(dist.table >= 0.0)


class TestInputChecks:
    @pytest.mark.parametrize("fn", [marcum_q1, detect_prob, born_expansion, visibility_single,
                                    visibility_dual, detect_batch, poisson_detection_prob],
                             ids=lambda fn: fn.__name__)
    def test_shapes_that_do_not_broadcast(self, fn):
        with pytest.raises(BornsimError, match=r"\(2,\) .* \(3,\)"):
            fn(np.ones(2), np.ones(3))

    @pytest.mark.parametrize("alpha, gamma, named", [
        (-0.1, 1.0, "alpha_abs"), (np.nan, 1.0, "alpha_abs"), ([0.5, -1.0], 1.0, "alpha_abs"),
        (0.5, -1.0, "gamma"), (0.5, np.inf, "gamma"), (0.5, [1.0, np.nan], "gamma"),
    ])
    def test_negative_or_non_finite_input_is_named(self, alpha, gamma, named):
        with pytest.raises(BornsimError, match=f"^{named} must be finite and >= 0"):
            detect_prob(alpha, gamma)

    def test_outcome_prob_takes_one_bit_per_mode(self):
        dist = outcome_distribution(CoherentVector(0.5, np.array([1.0, 0.0])), 1.0)
        with pytest.raises(BornsimError, match="3 bits, expected 2"):
            dist.prob((1, 0, 0))

    def test_outcome_table_takes_one_threshold_per_mode(self):
        # a (1, d) threshold broadcasts to a (1, d) row of q, which is no (d,) table
        state = CoherentVector(0.5, np.array([1.0, 0.0]))
        with pytest.raises(BornsimError, match=r"one per mode \(got shape \(1, 2\)"):
            outcome_distribution(state, [[1.0, 1.5]])


class TestPerDetectorThresholds:
    def test_mixed_thresholds_per_mode(self):
        state = CoherentVector(1.0, np.array([1.0, 1.0]) / np.sqrt(2.0))
        q = mode_crossing_probs(state, [1.0, 1.5])
        assert q[0] == pytest.approx(marcum_q1(math.sqrt(2.0), 2.0), abs=1e-14)
        assert q[1] == pytest.approx(marcum_q1(math.sqrt(2.0), 3.0), abs=1e-14)

    def test_detect_sample_with_mixed_thresholds(self):
        bits = detect_batch(np.array([1.2, 1.2]), [1.0, 1.5])
        assert list(bits) == [1, 0]

    def test_threshold_count_must_match_modes(self):
        state = CoherentVector(0.0, np.array([1.0, 0.0]))
        with pytest.raises(BornsimError, match=r"amplitude shape \(2,\) does not broadcast"):
            mode_crossing_probs(state, [1.0, 1.0, 1.0])

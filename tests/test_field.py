import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornsim import RngStream
from bornsim.errors import BornsimError
from bornsim.field import _COS32_ERR, CLICK_BLOCK, R_MAX, threshold_clicks
from oracles import CoherentVector, haar_unitary, realize_batch

VACUUM_3 = CoherentVector(0.0, np.eye(3)[0])


def test_sample_noise_shape():
    a = realize_batch(VACUUM_3, 4, RngStream(1))
    assert a.shape == (4, 3)
    assert realize_batch(VACUUM_3, 0, RngStream(1)).shape == (0, 3)


def test_sample_noise_rejects_zero_modes():
    # no state has zero modes, so no zero-mode noise can be drawn
    with pytest.raises(BornsimError, match="at least one mode"):
        CoherentVector(0.0, np.zeros(0))
    with pytest.raises(BornsimError, match="n must be nonnegative"):
        realize_batch(VACUUM_3, -1, RngStream(1))


def test_sample_noise_deterministic_bit_exact():
    state = CoherentVector(0.0, np.eye(5)[0])
    z1 = realize_batch(state, 1, RngStream(99, 3))
    z2 = realize_batch(state, 1, RngStream(99, 3))
    assert np.array_equal(z1, z2)


def test_substreams_differ_and_are_stable():
    base = RngStream(7)
    a = base.substream(0).complex_normals(4)
    b = base.substream(1).complex_normals(4)
    a_again = RngStream(7).substream(0).complex_normals(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, a_again)


def test_complex_normals_match_interleaved_real_normals():
    # a complex draw is exactly one Box-Muller pair
    z = RngStream(5).complex_normals(6)
    xy = RngStream(5).standard_normals(12)
    assert np.array_equal(z, (xy[0::2] + 1j * xy[1::2]) / np.sqrt(2.0))


def test_empty_draws_consume_nothing():
    rng = RngStream(8)
    assert rng.standard_normals(0).shape == (0,)
    z = rng.complex_normals((0, 3))
    assert z.shape == (0, 3) and z.dtype == complex
    assert threshold_clicks(0.5, 1.0, 0, rng) == 0
    assert np.array_equal(rng.uniforms(4), RngStream(8).uniforms(4))
    with pytest.raises(BornsimError, match="n must be nonnegative"):
        threshold_clicks(0.5, 1.0, -1, rng)


@pytest.mark.parametrize("a, gamma, named", [
    (math.nan, 1.0, "a must be finite"), (math.inf, 1.0, "a must be finite"),
    (-math.inf, 1.0, "a must be finite"), (0.5, math.nan, "gamma must be finite and >= 0"),
    (0.5, math.inf, "gamma must be finite and >= 0"), (0.5, -1.0, "gamma must be finite and >= 0"),
    (0.5j, 1.0, "a must be finite and real"), (np.complex128(0.5), 1.0, "a must be finite and real"),
    (math.nextafter(2.0 ** 500, math.inf), 1.0, r"at most 2\^500"),
    (0.5, 2.0 ** 501, r"at most 2\^500"), (-1.7e308, 1.7e308, r"at most 2\^500"),
], ids=["a=nan", "a=inf", "a=-inf", "gamma=nan", "gamma=inf", "gamma=-1", "a=0.5j", "a=complex128",
        "a=next-above-2^500", "gamma=2^501", "a=-1.7e308"])
def test_threshold_clicks_rejects_bad_inputs_before_drawing(a, gamma, named, monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew before checking the input")
    monkeypatch.setattr(RngStream, "uniforms", no_draws)
    with pytest.raises(BornsimError, match=named):
        threshold_clicks(a, gamma, 1000, RngStream(1))


@pytest.mark.parametrize("a, gamma, clicks", [
    (0.7, 1.0, None), (-1.3, 0.4, None),
    pytest.param(2.0 ** 500, 1.0, 1000, id="2^500-1.0-1000"),
    pytest.param(0.5, 2.0 ** 500, 0, id="0.5-2^500-0"),
    pytest.param(2.0 ** 500, 2.0 ** 499, 1000, id="2^500-2^499-1000"),
    pytest.param(2.0 ** 500, 2.0 ** 500, None, id="2^500-2^500-None"),
    pytest.param(-2.0 ** 500, 2.0 ** 500, None, id="-2^500-2^500-None"),
])
def test_threshold_clicks_equal_for_numpy_and_python_inputs(a, gamma, clicks):
    counts = {threshold_clicks(x, g, 1000, RngStream(4))
              for x in (a, np.float64(a)) for g in (gamma, np.float64(gamma))}
    assert len(counts) == 1 and (clicks is None or counts == {clicks})


def test_threshold_clicks_up_to_2_500_equal_plain_float64_test():
    # up to max(|a|, gamma) = 2^500, the largest accepted input, the squares fit
    # and the kernel's count equals the plain float64 test of every trial
    n, seed = CLICK_BLOCK + 5, 9
    u = RngStream(seed).uniforms(2 * n).reshape(n, 2)
    r2, theta = -2.0 * np.log1p(-u[:, 0]), (2.0 * np.pi) * u[:, 1]
    values = [0.0, 1.0, 2.0 ** 250, 2.0 ** 499, math.nextafter(2.0 ** 500, 0.0), 2.0 ** 500]
    cases = [(s * a, g) for a in values for g in values for s in (1.0, -1.0)]
    assert max(max(abs(a), g) for a, g in cases) == 2.0 ** 500
    for a, g in cases:
        plain = np.count_nonzero(a * a + 0.25 * r2 + a * np.sqrt(r2) * np.cos(theta) > g * g)
        assert threshold_clicks(a, g, n, RngStream(seed)) == plain, (a, g)


def test_uniforms_into_a_buffer_equal_a_new_draw():
    fresh, filled = RngStream(3, 1), RngStream(3, 1)
    buf = np.full(7, -1.0)
    assert filled.uniforms(7, out=buf) is buf
    assert np.array_equal(buf, fresh.uniforms(7))
    assert np.array_equal(filled.uniforms(5), fresh.uniforms(5))


def test_threshold_clicks_buffers_carry_nothing_between_calls():
    # a thread keeps its block buffers across calls: a short call after a longer
    # one at another (a, gamma) must count what a fresh thread's first call counts
    counts = {}

    def reused():
        threshold_clicks(0.3, 0.2, CLICK_BLOCK + 123, RngStream(1))
        counts["reused"] = threshold_clicks(1.1, 1.2, 1000, RngStream(2))

    def fresh():
        counts["fresh"] = threshold_clicks(1.1, 1.2, 1000, RngStream(2))

    for target in (reused, fresh):
        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
    u = RngStream(2).uniforms(2000).reshape(1000, 2)
    r2, theta = -2.0 * np.log1p(-u[:, 0]), (2.0 * np.pi) * u[:, 1]
    float64 = np.count_nonzero(1.1 ** 2 + 0.25 * r2 + 1.1 * np.sqrt(r2) * np.cos(theta) > 1.2 ** 2)
    assert counts["reused"] == counts["fresh"] == float64 > 0


def test_threshold_clicks_on_drawn_thresholds_equal_float64_oracle():
    # gamma^2 = v_j puts trial j on the threshold, inside the band where the
    # float32-cosine screen cannot decide; the count must still equal the
    # all-float64 test of every trial
    n, seed = 2 * CLICK_BLOCK + 5, 17
    u = RngStream(seed).uniforms(2 * n).reshape(n, 2)
    r2, theta = -2.0 * np.log1p(-u[:, 0]), (2.0 * np.pi) * u[:, 1]
    in_band = 0
    for a in (-2.5, -0.3, 0.0, 0.7, 4.0):
        v = a * a + 0.25 * r2 + a * np.sqrt(r2) * np.cos(theta)
        screen = np.cos(theta.astype(np.float32)) * np.sqrt(r2) * a + 0.25 * r2 + a * a
        for g in [math.sqrt(v[j]) for j in (0, 1, CLICK_BLOCK + 3, n - 1)] + [0.0]:
            assert threshold_clicks(a, g, n, RngStream(seed)) == np.count_nonzero(v > g * g), (a, g)
            # a lower bound on the kernel's band: these trials take the fallback
            band = abs(a) * R_MAX * _COS32_ERR + 2.0 ** -48 * g * g
            in_band += np.count_nonzero(np.abs(screen - g * g) <= band)
    assert in_band > 0


def test_noise_second_moment_monte_carlo():
    # E|z|^2 = 1; estimator sigma = 1/sqrt(n), tolerance 5 sigma = 0.005
    n = 1_000_000
    z = RngStream(11).complex_normals(n)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.005


def test_noise_pseudo_moment_vanishes():
    # E[z^2] = 0; each quadratic component has variance ~1/2 per draw
    n = 200_000
    z = RngStream(12).complex_normals(n)
    second = np.mean(z * z)
    tol = 5.0 * np.sqrt(0.5 / n)
    assert abs(second.real) < tol and abs(second.imag) < tol


def test_noise_fourth_moment_diagnostic():
    # E|z|^4 = 2 for a standard complex Gaussian; Var(|z|^4) = 20
    n = 1_000_000
    z = RngStream(13).complex_normals(n)
    assert abs(np.mean(np.abs(z) ** 4) - 2.0) < 5.0 * np.sqrt(20.0 / n)


def test_realize_vacuum_energy_moment():
    # alpha = 0: 2|a|^2 = |z|^2 has mean 1
    n = 1_000_000
    state = CoherentVector(0.0, np.array([1.0]))
    a = realize_batch(state, n, RngStream(21))
    assert abs(np.mean(2.0 * np.abs(a) ** 2) - 1.0) < 0.005


def test_realize_mode_intensity_with_displacement():
    # E|a_1|^2 = |alpha|^2 + 1/2 = 1.5 for alpha = 1 on mode 1 of 2
    n = 1_000_000
    state = CoherentVector(1.0, np.array([1.0, 0.0]))
    a = realize_batch(state, n, RngStream(31))
    assert abs(np.mean(np.abs(a[:, 0]) ** 2) - 1.5) < 0.01


def test_realize_batch_equals_sequential():
    # the first k rows of one draw equal k successive one-row draws on one stream
    state = CoherentVector(0.3 + 0.1j, np.array([1.0, 1.0]) / np.sqrt(2.0))
    batch = realize_batch(state, 8, RngStream(77, 2))
    stream = RngStream(77, 2)
    seq = np.concatenate([realize_batch(state, 1, stream) for _ in range(5)])
    assert np.array_equal(batch[:5], seq)


def test_unitary_closure_of_noise():
    # transformed noise stays iid standard complex Gaussian
    n = 100_000
    d = 3
    u = haar_unitary(d, [RngStream(41)])[0]
    z = RngStream(42).complex_normals((n, d)) @ u.T
    inten = np.mean(np.abs(z) ** 2, axis=0)
    assert np.all(np.abs(inten - 1.0) < 5.0 / np.sqrt(n))
    tol = 5.0 * np.sqrt(0.5 / n)
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            c = np.mean(z[:, i] * np.conj(z[:, j]))
            assert abs(c.real) < tol and abs(c.imag) < tol


def test_negative_stream_keys_and_counts_rejected():
    with pytest.raises(BornsimError, match="seed and stream_id must be nonnegative"):
        RngStream(-1)
    with pytest.raises(BornsimError, match="seed and stream_id must be nonnegative"):
        RngStream(0, -1)
    with pytest.raises(BornsimError, match="n must be nonnegative"):
        RngStream(1).standard_normals(-1)


def test_state_validation_rejects_nan_and_bad_norm():
    with pytest.raises(BornsimError, match=r"^alpha must be finite"):
        CoherentVector(np.nan, np.array([1.0]))
    with pytest.raises(BornsimError, match="unit norm"):
        CoherentVector(0.0, np.array([1.0, 1.0]))  # norm sqrt(2)
    with pytest.raises(BornsimError, match=r"^psi must be finite"):
        CoherentVector(0.0, np.array([np.inf, 0.0]))


@given(n=st.integers(min_value=0, max_value=64))
@settings(max_examples=30, deadline=None)
def test_standard_normals_length_and_finite(n):
    out = RngStream(3).standard_normals(n)
    assert out.shape == (n,)
    assert np.all(np.isfinite(out))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       stream=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_streams_reproducible_for_any_key(seed, stream):
    a = RngStream(seed, stream).uniforms(3)
    b = RngStream(seed, stream).uniforms(3)
    assert np.array_equal(a, b)


def test_intensity_fourth_moment_diagnostic():
    # E|a|^4 = |alpha|^4 + 2|alpha|^2 + 1/2 (symmetrized second moment);
    # 3.5 at alpha = 1, tolerance from the sample standard error
    n = 1_000_000
    a = realize_batch(CoherentVector(1.0, np.array([1.0])), n, RngStream(14))[:, 0]
    i2 = np.abs(a) ** 4
    se = i2.std() / np.sqrt(n)
    assert abs(i2.mean() - 3.5) < 5.0 * se

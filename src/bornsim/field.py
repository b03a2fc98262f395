"""Seedable random streams and the single-mode threshold-click kernel.

A d-mode state is a coherent amplitude alpha along a unit direction psi,
immersed in vacuum noise: one realization has complex mode amplitudes
a = alpha * psi + z / sqrt(2), where the components of z are independent
standard complex Gaussians (E[z] = 0, E[|z|^2] = 1, E[z^2] = 0). The package
samples them only as the clicks of threshold_clicks, for real amplitudes and
thresholds up to 2^500, where every square it takes stays far from overflow;
the realized amplitudes themselves are the sample-level twin in tests/oracles.py.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import BornsimError

# Trials per uniform draw in threshold_clicks; bounds memory. A thread of
# polarization_scan hands the GIL over a few times per block, so 2^15 does so a
# third as often as 2^14; 2^16 adds about 4 MiB to the counts process's peak.
CLICK_BLOCK = 1 << 15
# Largest Box-Muller radius: a uniform u0 in [0, 1) is at most 1 - 2^-53, so
# r^2 = -2 log(1 - u0) <= -2 log(2^-53) and r <= R_MAX ~ 8.572.
R_MAX = math.sqrt(-2.0 * math.log(2.0 ** -53))
# The band of threshold_clicks. Its float32 cosine moves v by at most
# |a| R_MAX |cos(float32(theta)) - cos(theta)|. For theta in [0, 2 pi), rounding
# to float32 moves theta by at most half an ulp of [4, 8), 2^-22, and float32 cos
# is within a few ulp of a value in [-1, 1], at most 2^-22: the cosine error is
# at most 2^-21, and 2^-16 leaves a factor 32 (also over r one ulp above R_MAX).
# The band adds 2^-48 times the sum of the magnitudes of the terms of v and of
# gamma^2; that covers the float64 roundings, each below 2^-53 of that sum, of
# the four operations in each of the two evaluations of v and of gamma^2 +- band.
# The screen compares 4v with 4(gamma^2 +- band): scaling by 4 is exact, so
# every rounding, and the band, carry over unchanged.
_COS32_ERR = 2.0 ** -16
# Each thread's threshold_clicks block buffers, kept across calls: buffers freed
# at the end of a call go back to the system and fault in again on the next one.
_click_buffers = threading.local()


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Uniforms come from PCG64 seeded with SeedSequence(seed, spawn_key).
    Normal variates use the Box-Muller transform, so each pair of real
    normals consumes exactly two uniforms and each standard complex Gaussian
    consumes exactly one such pair (radius draw, angle draw), so
    uniforms(2m) holds the m pairs complex_normals(m) would transform. Identical
    (seed, stream_id) therefore reproduces identical output bit for bit.

    ``substream(i)`` derives an independent child stream; sweeps give one
    child per grid point so results do not depend on scheduling order.
    """

    def __init__(self, seed: int, stream_id: int = 0, _path: tuple[int, ...] = ()):
        if seed < 0 or stream_id < 0:
            raise BornsimError("seed and stream_id must be nonnegative")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._path = tuple(int(p) for p in _path)
        key = (self.stream_id,) + self._path
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=key)))

    def substream(self, index: int) -> "RngStream":
        """Independent child stream; deterministic function of (seed, stream_id, index)."""
        return RngStream(self.seed, self.stream_id, self._path + (int(index),))

    def uniforms(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """n uniforms on [0, 1), written into out (float64, n long) when given.

        Filling a buffer draws the same values as a new array and leaves the
        stream in the same state.
        """
        return self._gen.random(int(n), out=out)

    def standard_normals(self, n: int) -> np.ndarray:
        """n real standard normals (Box-Muller, generated in pairs).

        Consumes exactly 2 * ceil(n / 2) uniforms.
        """
        n = int(n)
        if n < 0:
            raise BornsimError("n must be nonnegative")
        pairs = (n + 1) // 2
        u = self._gen.random((pairs, 2))
        r, theta = np.sqrt(-2.0 * np.log1p(-u[:, 0])), (2.0 * np.pi) * u[:, 1]
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def complex_normals(self, shape) -> np.ndarray:
        """Standard complex Gaussians z = (x + iy)/sqrt(2), one Box-Muller pair (x, y) each."""
        shape = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
        z = self.standard_normals(2 * math.prod(shape)).view(complex) / np.sqrt(2.0)
        return z.reshape(shape)


def threshold_clicks(a: float, gamma: float, n: int, rng: RngStream) -> int:
    """Clicks |a + z/sqrt(2)| > gamma among n single-mode trials of real amplitude a.

    Draws the uniforms of the one-mode realize_batch of tests/oracles.py in
    blocks of CLICK_BLOCK trials and tests v = a^2 + r^2/4 + a r cos(theta) > gamma^2,
    r^2 = -2 log(1 - u0), theta = 2 pi u1: no complex array. Each trial is decided
    from v with a float32 cosine unless v lies within a band of gamma^2 that
    bounds that cosine's error; those trials are re-evaluated with the float64
    cosine, so every decision equals the all-float64 test. Equals that oracle's
    detect_batch on those realizations unless some |a_i| rounds to gamma.
    Each thread keeps its block buffers across calls, grown to min(n, CLICK_BLOCK)
    trials when a call needs more; every step runs in place.
    a and gamma are taken as Python floats, so a NumPy scalar gives the same
    count as the float it holds. A complex a, or max(|a|, gamma) above 2^500 (its
    square nears the float64 overflow at 2^1024), is a BornsimError.
    """
    n = int(n)
    if n < 0:
        raise BornsimError("n must be nonnegative")
    if np.iscomplexobj(a) or not math.isfinite(a):
        raise BornsimError(f"a must be finite and real (got {a!r})")
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise BornsimError("gamma must be finite and >= 0")
    a, gamma = float(a), float(gamma)
    if max(abs(a), gamma) > 2.0 ** 500:
        raise BornsimError(f"threshold_clicks needs |a| and gamma at most 2^500 "
                           f"(got a = {a!r}, gamma = {gamma!r})")
    a2, g2 = a * a, gamma * gamma
    band = (abs(a) * R_MAX * _COS32_ERR
            + 2.0 ** -48 * (a2 + 0.25 * R_MAX * R_MAX + abs(a) * R_MAX + g2))
    lo, hi = 4.0 * (g2 - band), 4.0 * (g2 + band)
    b = min(CLICK_BLOCK, n)
    blocks = getattr(_click_buffers, "blocks", None)
    if blocks is None or len(blocks[1]) < b:
        blocks = _click_buffers.blocks = (np.empty(2 * b), np.empty(b), np.empty(b),
                                          np.empty(b, np.float32), np.empty(b, bool),
                                          np.empty(b, bool))
    u_buf, r2_buf, v_buf, c_buf, above_buf, below_buf = blocks
    clicks = 0
    for start in range(0, n, CLICK_BLOCK):
        m = min(CLICK_BLOCK, n - start)
        u = rng.uniforms(2 * m, out=u_buf[:2 * m]).reshape(m, 2)
        r2, v, c, above, below = r2_buf[:m], v_buf[:m], c_buf[:m], above_buf[:m], below_buf[:m]
        np.log1p(np.negative(u[:, 0], out=r2), out=r2)
        r2 *= -2.0
        # the float64 product rounds to float32 as theta.astype(np.float32) does
        np.cos(np.multiply(u[:, 1], 2.0 * np.pi, out=c), out=c)
        # 4v = r^2 + 4a cos(theta) r + 4a^2
        np.multiply(np.sqrt(r2, out=v), c, out=v)
        v *= 4.0 * a
        v += r2
        v += 4.0 * a2
        clicks += int(np.count_nonzero(np.greater(v, hi, out=above)))
        np.greater_equal(v, lo, out=above)
        above &= np.less_equal(v, hi, out=below)
        near = np.flatnonzero(above)
        r2n, theta = r2[near], (2.0 * np.pi) * u[near, 1]
        clicks += int(np.count_nonzero(a2 + 0.25 * r2n + a * np.sqrt(r2n) * np.cos(theta) > g2))
    return clicks

"""Test oracles: the sample-level twin, the brute-force outcome tables and the
parametric count model.

The package samples clicks only through ``field.threshold_clicks`` and computes
no-click and single-click probabilities only through ``detection._click_law``,
whose singles ``_conditional_clicks`` renormalizes. The tests hold those against
the routes below: realized complex amplitudes thresholded one by one, and full
2^d outcome tables.
The detector efficiency and the count model built on it agree with
``detection.detect_prob`` to second order in the amplitude, a small-alpha
cross-check of the Marcum Q click probability. ``detection.marcum_q1`` is held
against its own Poisson series at 40 digits and, bit for bit, against the same
series run element by element over the broadcast shape. ``haar_unitary`` is the
random-unitary helper of the optics and field tests, and the QR construction
whose first columns ``tomography.haar_states`` must equal.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import mpmath
import numpy as np

from bornsim import RngStream
from bornsim.detection import (
    _ONE_GAP,
    _RTOL,
    _SERIES_CHUNK,
    _SERIES_LIMIT,
    _ZERO_GAP,
    _broadcast_shape,
    _divide,
    _float_or_array,
    _nonnegative,
    dark_count_prob,
    detect_prob,
    gamma_of,
)
from bornsim.errors import BornsimError

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class CoherentVector:
    """Coherent amplitude alpha along a unit d-mode direction psi."""

    alpha: complex
    psi: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex).reshape(-1)
        if psi.size < 1:
            raise BornsimError("state needs at least one mode")
        for name, value in (("alpha", complex(self.alpha)), ("psi", psi)):
            if not np.all(np.isfinite(value)):
                raise BornsimError(f"{name} must be finite (no NaN or Inf)")
        nrm = float(np.linalg.norm(psi))
        if abs(nrm - 1.0) > _NORM_TOL:
            raise BornsimError(f"psi must be unit norm within {_NORM_TOL} (got {nrm!r})")
        psi.setflags(write=False)
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "psi", psi)

    @property
    def d(self) -> int:
        return self.psi.size

    def mode_amplitudes(self) -> np.ndarray:
        """Mean amplitude per mode, alpha * psi."""
        return self.alpha * self.psi


def realize_batch(state: CoherentVector, n: int, rng: RngStream) -> np.ndarray:
    """n realizations a = alpha * psi + z / sqrt(2) as an (n, d) array.

    Rows are drawn in order from ``rng``, so one call of n rows equals n
    successive one-row calls on the same stream.
    """
    if int(n) < 0:
        raise BornsimError("n must be nonnegative")
    z = rng.complex_normals((int(n), state.d))
    return state.mode_amplitudes()[None, :] + z / np.sqrt(2.0)


def detect_batch(amps: np.ndarray, th) -> np.ndarray:
    """Click patterns of realized amplitudes, (n, d) or one (d,) sample.

    Bit i is 1 iff |a_i| > gamma_i (strict). ``th`` is one shared threshold,
    or an array that broadcasts against the amplitudes, such as one per mode.
    """
    amps, g = np.abs(np.asarray(amps)), gamma_of(th)
    _broadcast_shape(amps, g)
    return (amps > g).astype(np.int64)


def mode_crossing_probs(state: CoherentVector, th) -> np.ndarray:
    """Per-mode click probabilities q_i = Q1(2|alpha psi_i|, 2*gamma_i).

    ``th`` is one shared threshold, or a (d,) array for detectors with
    unequal settings; it broadcasts against the d mode amplitudes.
    """
    return detect_prob(np.abs(state.mode_amplitudes()), th)


def marcum_q1_mp(a: float, b: float, dps: int = 40) -> float:
    """Q1(a, b) from its Poisson series at dps digits, rounded once to a float.

    sum_k P[Pois(a^2/2) = k] Q(k + 1, b^2/2), the series ``detection.marcum_q1``
    sums in floats, here in mpmath, whose exponent never underflows. It stops once
    the unconsumed Poisson mass bounds the remainder below 10^-dps of the sum.
    """
    with mpmath.workdps(dps):
        m, x = mpmath.mpf(a) ** 2 / 2, mpmath.mpf(b) ** 2 / 2
        p = mpmath.exp(-m)          # P[Pois(m) = k]
        qterm = g = mpmath.exp(-x)  # exp(-x) x^k / k!, and Q(k + 1, x)
        total, tol, k = p * g, mpmath.mpf(10) ** -dps, 0
        while True:
            k += 1
            p *= m / k
            qterm *= x / k
            g += qterm
            total += p * g
            ratio = m / (k + 1)
            if ratio < 1 and p * ratio / (1 - ratio) <= tol * total:
                return float(total)


_MAX_TERMS = 200_000  # marcum_q1's term cap at the time of this copy; no element reaches it


def _marcum_series_elementwise(m: np.ndarray, x: "float | np.ndarray") -> np.ndarray:
    """The series loop of marcum_q1_elementwise, on 1-D m and x (or a scalar x)."""
    out = np.empty_like(m)
    live = np.ones(m.size, dtype=bool)
    p = np.exp(-m)          # Poisson weight P[Pois(m) = k]
    qterm = np.exp(-x)      # exp(-x) x^k / k!
    g = qterm               # Q(k + 1, x)
    total = p * g
    for k in range(1, _MAX_TERMS + 1):
        p = p * (m / k)
        qterm = qterm * (x / k)
        g = g + qterm
        total = total + p * g
        ratio = m / (k + 1.0)
        remainder = np.where(ratio < 1.0,
                             p * ratio / np.maximum(1.0 - ratio, 1e-300),
                             np.inf)
        done = live & (remainder <= _RTOL * total + 1e-300)
        if done.any():
            out[done] = total[done]
            live &= ~done
            if not live.any():
                break
    out[live] = total[live]
    return np.minimum(out, 1.0)


def marcum_q1_elementwise(a, b):
    """detection.marcum_q1 as it was before its series took each operand's own shape.

    Every element is broadcast to the full shape and carries its own Poisson weight,
    tail bound and gamma term; the elements run sorted by m = a^2/2 in chunks of
    _SERIES_CHUNK. marcum_q1 must give these values bit for bit, as a C-contiguous
    array of the broadcast shape.
    """
    a, b = _nonnegative("a", a), _nonnegative("b", b)
    shape = _broadcast_shape(a, b)
    with np.errstate(over="ignore"):  # an overflowed square is inf, past the limit
        m = np.broadcast_to(0.5 * a * a, shape).ravel()
        x = 0.5 * b * b
    # a shared threshold stays scalar through the series
    x = x if np.ndim(x) == 0 else np.broadcast_to(x, shape).ravel()
    xs = np.broadcast_to(x, m.shape)

    out = np.ones_like(m)           # b = 0
    live = xs > 0.0
    far = live & ((m >= _SERIES_LIMIT) | (xs >= _SERIES_LIMIT))
    if np.any(far):
        a_far, b_far = (np.broadcast_to(v, shape).ravel()[far] for v in (a, b))
        gap = a_far - b_far
        inside = np.flatnonzero((gap < _ONE_GAP) & (gap > -_ZERO_GAP))
        if inside.size:
            raise BornsimError(
                f"Marcum Q1(a, b) = Q1(2|alpha|, 2 gamma) is computed only where a, b < "
                f"{math.sqrt(2.0 * _SERIES_LIMIT):.2f}, a - b >= {_ONE_GAP:g} or b - a >= "
                f"{_ZERO_GAP:g} (got a = {a_far[inside[0]]:g}, b = {b_far[inside[0]]:g})")
        out[far] = gap >= _ONE_GAP  # 1.0, or 0.0 where b - a >= _ZERO_GAP
    main = np.flatnonzero(live & ~far)
    order = main[np.argsort(m[main])]
    for start in range(0, order.size, _SERIES_CHUNK):
        i = order[start:start + _SERIES_CHUNK]
        out[i] = _marcum_series_elementwise(m[i], x if np.ndim(x) == 0 else x[i])
    return float(out[0]) if not shape else out.reshape(shape)


def efficiency(th):
    """Effective detection efficiency 4 g^2 e^{-2g^2} / (1 - e^{-2g^2}), elementwise over gamma.

    Only meaningful as an efficiency for gamma >~ 0.8; below that it exceeds
    one and the parametric-model interpretation breaks down. Where e^{-2g^2}
    rounds to 1 (gamma = 0 and gamma below about 1e-8) it is a
    BornsimError.
    """
    g = gamma_of(th)
    delta = dark_count_prob(g)
    return _divide(4.0 * g * g * delta, 1.0 - delta,
                   "efficiency is undefined where exp(-2 gamma^2) rounds to 1")


def poisson_detection_prob(alpha_abs, th):
    """Parametric count model p = 1 - (1 - delta) exp(-eta |alpha|^2), broadcast.

    Where delta rounds to 1 the dark counts alone click every trial, so p = 1.
    """
    a, g = _nonnegative("alpha_abs", alpha_abs), gamma_of(th)
    _broadcast_shape(a, g)
    delta = dark_count_prob(g)
    eta = efficiency(np.where(delta < 1.0, g, 1.0))
    with np.errstate(over="ignore"):  # eta * a first: eta = 0 times an overflowed a^2 is NaN
        p = 1.0 - (1.0 - delta) * np.exp(-(eta * a) * a)
    return _float_or_array(p)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Product-Bernoulli law over the 2^d click patterns of d modes.

    Outcomes are bit vectors (n_1, ..., n_d); the table index of an outcome
    places n_1 in the most significant bit.
    """

    q: np.ndarray
    table: np.ndarray

    @property
    def d(self) -> int:
        return self.q.size

    def prob(self, outcome) -> float:
        if len(outcome) != self.d:
            raise BornsimError(f"outcome has {len(outcome)} bits, expected {self.d}")
        idx = 0
        for bit in outcome:
            idx = (idx << 1) | int(bit)
        return float(self.table[idx])

    def total(self) -> float:
        return float(self.table.sum())

    def brute_marginal(self, i: int) -> float:
        """P[n_i = 1] by direct summation over the table."""
        idx = np.arange(self.table.size)
        return float(self.table[(idx >> (self.d - 1 - i)) & 1 == 1].sum())

    def single_detection_probs(self) -> np.ndarray:
        """P[outcome = e_i] for each mode i, by table lookup."""
        return self.table[1 << np.arange(self.d - 1, -1, -1)]


def outcome_distribution(state: CoherentVector, th) -> OutcomeDistribution:
    """Full 2^d outcome table; modes click independently with probabilities q_i."""
    q = mode_crossing_probs(state, th)
    if q.shape != (state.d,):
        raise BornsimError(f"an outcome table takes one threshold or one per mode "
                                    f"(got shape {np.shape(th)} for {state.d} modes)")
    table = np.array([1.0])
    for qi in q:
        table = np.outer(table, np.array([1.0 - qi, qi])).ravel()
    return OutcomeDistribution(q=q, table=table)


def apply(u: np.ndarray, state: CoherentVector) -> CoherentVector:
    """Transform the state direction, psi' = U psi (renormalized); alpha unchanged.

    Noise is not propagated: sampling after apply() draws fresh iid noise,
    which is distribution-identical to transforming the old noise (a
    realized (n, d) batch a would propagate as a @ U.T).
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape != (state.d, state.d):
        raise BornsimError(f"gate shape {u.shape} does not match d = {state.d}")
    psi = u @ state.psi
    nrm = np.linalg.norm(psi)
    if not np.isfinite(nrm) or nrm == 0.0:
        raise BornsimError("transformed direction is not normalizable")
    return CoherentVector(state.alpha, psi / nrm)


def haar_unitary(d: int, streams: Sequence[RngStream]) -> np.ndarray:
    """Stack (n, d, d) of Haar-distributed unitaries, matrix i drawn from stream i.

    Each is Q from the QR of a complex Gaussian matrix, with R's diagonal phases
    folded back in so the law is exactly Haar. One is haar_unitary(d, [rng])[0].
    """
    d = int(d)
    if d < 1:
        raise BornsimError("haar_unitary needs d >= 1")
    z = np.array([s.complex_normals((d, d)) for s in streams], dtype=complex).reshape(-1, d, d)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))[:, None, :]


def unitarity_defect(u: np.ndarray) -> float:
    u = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def argmax_fidelity(sweep) -> tuple[float, float, float]:
    """(alpha, gamma, value) of the best mean fidelity of a tomography.SweepResult."""
    i, j = np.unravel_index(int(np.argmax(sweep.mean_fidelity)), sweep.mean_fidelity.shape)
    return float(sweep.alphas[i]), float(sweep.gammas[j]), float(sweep.mean_fidelity[i, j])

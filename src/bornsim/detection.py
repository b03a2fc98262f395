"""Photodetection statistics of amplitude-threshold detectors in the single-mode limit.

A detector clicks when a realized mode amplitude exceeds the dimensionless
threshold gamma, |a_i| > gamma. For a mode carrying coherent amplitude alpha
the click probability is the Marcum Q-function Q1(2|alpha|, 2*gamma); vacuum
alone clicks with the dark-count probability exp(-2*gamma^2). Joint outcomes
over d independent modes follow a product-Bernoulli law, of which the scenarios
need only the single-click events; the full 2^d outcome tables and the
sample-level click patterns are test oracles, in tests/oracles.py.
"""

from __future__ import annotations

import itertools
import math
import numpy as np

from .errors import BornsimError

__all__ = [
    "marcum_q1",
    "detect_prob",
    "dark_count_prob",
    "born_expansion",
    "visibility_single",
    "visibility_dual",
]


def _float_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def _nonnegative(name: str, value) -> "float | np.ndarray":
    """value as a float (scalar) or a float array, raising BornsimError unless finite and >= 0."""
    v = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v < 0.0):
        raise BornsimError(f"{name} must be finite and >= 0")
    return _float_or_array(v)


def gamma_of(th) -> "float | np.ndarray":
    """A threshold is one gamma, or an array of them that broadcasts against the amplitudes."""
    return _nonnegative("gamma", th)


def _broadcast_shape(amps, gamma) -> tuple[int, ...]:
    """Shape amplitude and threshold broadcast to; BornsimError where they do not."""
    try:
        return np.broadcast_shapes(np.shape(amps), np.shape(gamma))
    except ValueError:
        raise BornsimError(f"amplitude shape {np.shape(amps)} does not broadcast "
                           f"against threshold shape {np.shape(gamma)}") from None


# ---------------------------------------------------------------------------
# Marcum Q
# ---------------------------------------------------------------------------

# The series Q1(a, b) = sum_k P[Pois(a^2/2) = k] * Q(k + 1, b^2 / 2) is summed
# upward with the incomplete-gamma recurrence. Each gamma factor is < 1, so
# truncating after term K leaves an error below the remaining Poisson mass,
# which once K + 1 > m is below p_K * r / (1 - r) with r = m / (K + 1); the
# loop stops when that bound drops under _RTOL times the running sum.
_RTOL = 5e-16
# exp(-t) is a normal double below t = 708.396: the series starts at full precision while
# m = a^2/2 and x = b^2/2 are below _SERIES_LIMIT (a, b < 37.64). Beyond, Q1 rounds to 1.0
# where a - b >= _ONE_GAP (1 - Q1 <= e^{-(a-b)^2/2} <= e^-72 < 2^-54) and to 0.0 where
# b - a >= _ZERO_GAP (Q1 <= e^{-(b-a)^2/2} < 2^-1075); the rest is refused, which spares
# every gamma < 12.82 (b < 25.64): an a past the limit is then 12 above b.
_SERIES_LIMIT = 708.39
_ONE_GAP = 12.0
_ZERO_GAP = 38.61
_SERIES_CHUNK = 2 ** 14


def _marcum_series(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q1 (r, c) of m = a^2/2 (r, 1) and x = b^2/2 (1, c) or (r, c), in range.

    Each quantity takes the smallest shape it depends on: the Poisson weight,
    m / (k + 1) and the tail bound m's, one per amplitude; the incomplete-gamma
    terms x's, one per threshold; only the running sum and its stop test the
    result's. Each element stops at its own tail bound, after the float
    operations of a one-element call in the same order. Stopped elements stay
    in the working set: marcum_q1 passes rows of similar m, which stop after
    similar numbers of terms, and arrays that keep one size reuse the same
    heap blocks (shrinking them raised a contour sweep's peak RSS by up to 2%).
    Every element stops: once k > m the weight p shrinks faster than geometrically,
    so the tail bound falls until it meets the stop test, whose 1e-300 floor holds
    even where p underflows to 0. The longest series in the domain (400 x 400 (a, b)
    over it) is 935 terms, at m = 708.4."""
    p = np.exp(-m)          # Poisson weight P[Pois(m) = k]
    qterm = np.exp(-x)      # exp(-x) x^k / k!
    g = qterm               # Q(k + 1, x)
    total = p * g
    out = np.empty_like(total)
    live = np.ones(total.shape, dtype=bool)
    for k in itertools.count(1):
        p = p * (m / k)
        qterm = qterm * (x / k)
        g = g + qterm
        total += p * g
        ratio = m / (k + 1.0)
        remainder = np.where(ratio < 1.0,
                             p * ratio / np.maximum(1.0 - ratio, 1e-300),
                             np.inf)
        done = live & (remainder <= _RTOL * total + 1e-300)
        if done.any():
            out[done] = total[done]
            live &= ~done
            if not live.any():
                return np.minimum(out, 1.0)


def marcum_q1(a, b):
    """First-order Marcum Q-function, the survival function of a Rice amplitude.

    Evaluates the Poisson-weighted incomplete-gamma series; the truncation
    error is bounded by the unconsumed Poisson tail mass, kept below 5e-16
    of the result. Q1(a, 0) = 1 is exact, and so is Q1(0, b) = exp(-b^2/2):
    the series stops after its first term.
    Domain: the series where a^2/2 and b^2/2 are below 708.39 (a, b < 37.64);
    beyond, exactly 1.0 where a - b >= 12, exactly 0.0 where b - a >= 38.61, and
    BornsimError elsewhere, so Q1(2|alpha|, 2 gamma) refuses no gamma < 12.82.
    ``a`` and ``b`` broadcast against each other (BornsimError where
    they do not); two scalars give a float, arrays a C-contiguous array.
    The series runs on a (rows, columns) layout: rows are the axes where a
    varies (those shared with b included), columns the axes where only b
    varies, so each Poisson weight is computed once per amplitude and each
    gamma term once per threshold. Rows run in chunks of at most 2^14 elements
    (at least one row, and at most 2^14 columns), sorted by m = a^2/2 when there
    is more than one: rows of similar m stop after similar numbers of terms.
    Every element stops at its own tail bound after the float operations of a
    one-element call, so no layout, order or chunking changes a bit.
    """
    a, b = _nonnegative("a", a), _nonnegative("b", b)
    shape = _broadcast_shape(a, b)
    with np.errstate(over="ignore"):  # an overflowed square is inf, past the limit
        m, x = (np.reshape(0.5 * v * v, (1,) * (len(shape) - np.ndim(v)) + np.shape(v))
                for v in (a, b))
    # rows: a's own elements, over its axes (those shared with b too); columns: b's other axes
    perm = sorted(range(len(shape)), key=lambda i: m.shape[i] == 1)
    t_shape, n = tuple(shape[i] for i in perm), len(shape) - m.shape.count(1)
    n_rows, n_cols = math.prod(t_shape[:n]), math.prod(t_shape[n:])
    m_rows, x_t = m.transpose(perm).reshape(n_rows, 1), x.transpose(perm)
    if x_t.shape[:n] != (1,) * n:  # b varies along a row axis too
        x_t = np.broadcast_to(x_t, t_shape)
    # elements past the series limit run as b = 0, a short series, and are overwritten below
    x_t = np.where(x_t < _SERIES_LIMIT, x_t, 0.0).reshape(math.prod(x_t.shape[:n]), n_cols)

    out = np.empty((n_rows, n_cols))
    main = np.flatnonzero((m_rows[:, 0] < _SERIES_LIMIT) & (x_t > 0.0).any(axis=1))
    cols = max(1, min(n_cols, _SERIES_CHUNK))
    rows = _SERIES_CHUNK // cols
    if main.size > rows:  # within one chunk the order changes no bit
        main = main[np.argsort(m_rows[main, 0])]
    for start in range(0, main.size, rows):
        i = main[start:start + rows]
        for j in range(0, n_cols, cols):
            c = slice(j, j + cols)
            out[i, c] = _marcum_series(m_rows[i], x_t[i, c] if len(x_t) > 1 else x_t[:, c])
    # C order in the broadcast shape: sums over the result depend on its memory layout
    out = out.reshape(t_shape).transpose([perm.index(i) for i in range(len(shape))])
    out = np.asarray(out, order="C")

    out[np.broadcast_to(x == 0.0, shape)] = 1.0  # Q1(a, 0) = 1
    far = ((m >= _SERIES_LIMIT) | (x >= _SERIES_LIMIT)) & (x > 0.0)
    if np.any(far):
        a_far, b_far = (np.broadcast_to(v, shape)[far] for v in (a, b))
        gap = a_far - b_far
        inside = np.flatnonzero((gap < _ONE_GAP) & (gap > -_ZERO_GAP))
        if inside.size:
            raise BornsimError(
                f"Marcum Q1(a, b) = Q1(2|alpha|, 2 gamma) is computed only where a, b < "
                f"{math.sqrt(2.0 * _SERIES_LIMIT):.2f}, a - b >= {_ONE_GAP:g} or b - a >= "
                f"{_ZERO_GAP:g} (got a = {a_far[inside[0]]:g}, b = {b_far[inside[0]]:g})")
        out[far] = gap >= _ONE_GAP  # 1.0, or 0.0 where b - a >= _ZERO_GAP
    return float(out) if not shape else out


# ---------------------------------------------------------------------------
# Single-mode probabilities. A threshold is one gamma or an array of them;
# each function broadcasts amplitude against threshold (shapes that do not
# broadcast are a BornsimError), and a scalar pair gives a float
# ---------------------------------------------------------------------------

def _divide(num, den, message="no single-click events to condition on"):
    """num / den, raising BornsimError(message) where any den vanishes, not giving NaN or inf."""
    if np.any(den == 0.0):
        raise BornsimError(message)
    return num / den


def detect_prob(alpha_abs, th):
    """Click probability Q1(2|alpha|, 2*gamma) for one mode, broadcast over alpha and gamma."""
    return marcum_q1(2.0 * _nonnegative("alpha_abs", alpha_abs), 2.0 * gamma_of(th))


def dark_count_prob(th):
    """Vacuum click probability exp(-2*gamma^2), elementwise over gamma; relative error below
    (1 + 2 gamma^2) 1.2e-16 (mpmath: 1.3e-15 to gamma = 3), subnormal past gamma = 18.82."""
    g = gamma_of(th)
    with np.errstate(over="ignore"):  # past gamma ~ 1.3e154 the square is inf: exp(-inf) = 0
        return _float_or_array(np.exp(-2.0 * g * g))


def born_expansion(alpha_abs, th):
    """Fourth-order small-amplitude expansion of the click probability.

    exp(-2 g^2) * (1 + 4 g^2 |a|^2 + 4 g^2 (g^2 - 1) |a|^4), broadcast over
    alpha and gamma. It is off Q1 by a relative O(|alpha|^6): at gamma = 1, 8.5e-7 at
    |alpha|^2 = 0.01, 6.0e-4 at 0.1 and 3.0e-2 at 0.5 (6.5e-4 at 0.01 for gamma = 3).
    Raises BornsimError where the polynomial overflows to inf or NaN.
    """
    a, g = _nonnegative("alpha_abs", alpha_abs), gamma_of(th)
    _broadcast_shape(a, g)
    with np.errstate(over="ignore", invalid="ignore"):
        # np.float64 squares as ** on a float or an array does, but overflows to inf
        a2, g2 = np.float64(a) ** 2, np.float64(g) ** 2
        p = dark_count_prob(g) * (1.0 + 4.0 * g2 * a2 + 4.0 * g2 * (g2 - 1.0) * a2 * a2)
    if not np.all(np.isfinite(p)):
        a_bad, g_bad = (float(np.broadcast_to(v, p.shape)[~np.isfinite(p)][0]) for v in (a, g))
        raise BornsimError(f"Born expansion is not finite at |alpha| = {a_bad:g}, "
                           f"gamma = {g_bad:g}")
    return _float_or_array(p)


def visibility_single(alpha_abs, th):
    """Fringe visibility (Q - delta) / (Q + delta) of the click probability, broadcast.
    Q - delta cancels for small |alpha| or gamma: relative error 5e-16 Q / (Q - delta), by
    mpmath 3.0e-12 on |alpha|, gamma in 0.05:0.05:3, 1.6e-10 at (1e-4, 1), 3.8e-5 at (1, 1e-6)."""
    q = detect_prob(alpha_abs, th)
    delta = dark_count_prob(th)
    return _divide(q - delta, q + delta, "visibility undefined: no clicks")


def visibility_dual(alpha_abs, th):
    """Visibility of the post-selected dual-mode conditional probability.

    (on - off) / (on + off), where on = Q(1 - delta) and off = (1 - Q) delta are the
    singles of _click_law over (Q, delta), Q = Q1(2|alpha|, 2*gamma), broadcast over alpha
    and gamma. The numerator cancels as visibility_single's does, and 1 - delta for small
    gamma (relative 1e-16 / (2 gamma^2)): against mpmath at most 3.0e-12 for |alpha|, gamma
    in 0.05:0.05:3, 2.7e-9 at (1e-4, 1) and 1.1e-4 at (1, 1e-6). Where 1 - Q cancels,
    (1 - Q) delta is a small correction.
    """
    g = gamma_of(th)
    if np.any(g == 0.0):
        raise BornsimError("dual-mode visibility is undefined at gamma = 0")
    q = detect_prob(alpha_abs, g)
    singles = _click_law(np.stack(np.broadcast_arrays(q, dark_count_prob(g)), axis=-1))[1]
    on, off = singles[..., 0], singles[..., 1]
    return _float_or_array(_divide(on - off, on + off, "visibility undefined: no clicks"))


# ---------------------------------------------------------------------------
# Multi-mode outcomes
# ---------------------------------------------------------------------------

def _click_law(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P[no click] = prod_j (1 - q_j) and the singles q_i prod_{j != i} (1 - q_j), P[one
    click, on mode i], of modes that click independently with q (..., d), left to right.

    The one place a no-click probability is formed: the outcome tables' all-dark entry and
    single_detection_probs (tests/oracles.py) in closed form. 1 - q_j cancels as q_j nears 1:
    for q from marcum_q1 its error is about 7e-16, relative 7e-16 / (1 - q_j); by mpmath
    8.1e-12 at (|alpha|, gamma) = (3, 1), 6.9e-7 at (4.24, 1) and 4.6e-6 at (2.95, 0.05).
    Where q_j rounds to 1 (|alpha| >= 5 at gamma = 1) every value that needs j dark reads 0.
    """
    dark = 1.0 - q
    singles = q.copy()
    for i, j in itertools.permutations(range(q.shape[-1]), 2):
        singles[..., i] *= dark[..., j]
    return np.prod(dark, axis=-1), singles


def _conditional_clicks(amps: np.ndarray, gamma: "float | np.ndarray") -> np.ndarray:
    """Single-click conditionals p_i over the last axis of mode amplitudes |alpha_i| (..., d).

    _click_law's singles divided by their row sum, q_i = Q1(2|alpha_i|, 2 gamma): the outcome
    tables' single_detection_probs (tests/oracles.py) renormalized. gamma is one threshold or an
    array that broadcasts against amps. p inherits the singles' relative error
    7e-16 / (1 - q_j): it is within 7.1e-13 of mpmath at amplitudes (3, 2.9, 1, 0.5), gamma = 1.
    A row with one mode whose q rounds to 1 reads 1 there and 0 elsewhere, wrong while the
    others are not saturated: (5, 4.9, 1, 0.5) gives (1, 0, 0, 0), not (0.834, 0.166, ~0, ~0).
    Two or more such modes make every single and P[no click] 0, and the row a BornsimError.
    """
    if np.any(gamma == 0.0):
        raise BornsimError("every mode crosses threshold at gamma = 0")
    p_none, singles = _click_law(detect_prob(amps, gamma))
    total = singles.sum(axis=-1, keepdims=True)
    full = (total[..., 0] == 0.0) & (p_none == 0.0)
    if np.any(full):
        a = ", ".join(f"{x:g}" for x in np.broadcast_to(amps, singles.shape)[full][0])
        raise BornsimError(f"single-click conditionals are refused where two or more modes "
                           f"click with probability 1 at float precision (|alpha_i| = {a})")
    return _divide(singles, total)

"""Threshold photodetection statistics in the single-mode limit.

A detector clicks when a realized mode amplitude exceeds the dimensionless
threshold gamma, |a_i| > gamma. For a mode carrying coherent amplitude alpha
the click probability is the Marcum Q-function Q1(2|alpha|, 2*gamma); vacuum
alone clicks with the dark-count probability exp(-2*gamma^2). Joint outcomes
over d independent modes follow a product-Bernoulli law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    DomainError,
    EnumerationLimitError,
    InvalidDimensionError,
    SingularThresholdError,
    UndefinedConditionalError,
    UndefinedRatioError,
)
from .field import AmplitudeSample, CoherentVector

__all__ = [
    "Threshold",
    "OutcomeDistribution",
    "marcum_q1",
    "detect_prob",
    "dark_count_prob",
    "born_expansion",
    "efficiency",
    "poisson_detection_prob",
    "visibility_single",
    "visibility_dual",
    "mode_crossing_probs",
    "outcome_distribution",
    "detect_sample",
    "detect_batch",
]


@dataclass(frozen=True)
class Threshold:
    """Dimensionless detection threshold; a click requires |a| > gamma."""

    gamma: float

    def __post_init__(self):
        g = float(self.gamma)
        if not (math.isfinite(g) and g >= 0.0):
            raise DomainError(f"gamma must be finite and >= 0 (got {self.gamma!r})")
        object.__setattr__(self, "gamma", g)


def gamma_of(th: "Threshold | float | np.ndarray") -> "float | np.ndarray":
    """Accept a Threshold, a bare gamma value, or an array of gamma values."""
    if isinstance(th, Threshold):
        return th.gamma
    g = np.asarray(th, dtype=float)
    if g.ndim == 0:
        return Threshold(float(g)).gamma
    if not np.all(np.isfinite(g)) or np.any(g < 0.0):
        raise DomainError("gamma must be finite and >= 0")
    return g


def _gamma_per_mode(th, d: int) -> np.ndarray:
    """Per-mode thresholds: a shared scalar by default, or one value per mode."""
    if isinstance(th, (Threshold, float, int)):
        return np.full(d, gamma_of(th))
    arr = np.array([gamma_of(t) for t in th], dtype=float)
    if arr.size != d:
        raise InvalidDimensionError(f"got {arr.size} thresholds for {d} modes")
    return arr


# ---------------------------------------------------------------------------
# Marcum Q
# ---------------------------------------------------------------------------

# The series Q1(a, b) = sum_k P[Pois(a^2/2) = k] * Q(k + 1, b^2 / 2) is summed
# upward with the incomplete-gamma recurrence. Each gamma factor is < 1, so
# truncating after term K leaves an error below the remaining Poisson mass,
# which once K + 1 > m is below p_K * r / (1 - r) with r = m / (K + 1); the
# loop stops when that bound drops under _RTOL times the running sum.
_RTOL = 5e-16
_MAX_TERMS = 200_000
# exp(-t) underflows past ~745.1; beyond that the series cannot start and the
# far-tail clamps / normal approximation below take over. No simulation
# scenario in this package reaches that regime.
_EXP_UNDERFLOW = 745.0


def _marcum_corner(m: float, x: float) -> float:
    a = math.sqrt(2.0 * m)
    b = math.sqrt(2.0 * x)
    if a >= b + 12.0:
        # 1 - Q1 <= (b/a) exp(-(a-b)^2/2) <= e^-72
        return 1.0
    if b >= a + 12.0:
        # Q1 <= exp(-(b-a)^2/2) <= e^-72
        return 0.0
    # Both arguments huge and comparable: central-limit approximation to the
    # noncentral chi-square survival function (relative error O(1/a)).
    arg = (x - 1.0 - m) / (math.sqrt(2.0) * math.sqrt(1.0 + 2.0 * m))
    return 0.5 * math.erfc(arg)


def _marcum_series(m: np.ndarray, x: "float | np.ndarray") -> np.ndarray:
    """Q1 of m = a^2/2 (1-D) and x = b^2/2 (a shared scalar or an array like m), in range.

    Each element stops at its own tail bound. Stopped elements leave the
    working set once they make up half of it: dropping them at every step
    fragments the heap (+0.8 MiB peak RSS on a 144-point contour sweep)."""
    out = np.empty_like(m)
    idx = np.arange(m.size)
    live = np.ones(m.size, dtype=bool)
    shared = np.ndim(x) == 0
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
            out[idx[done]] = total[done]
            live &= ~done
            n_live = np.count_nonzero(live)
            if n_live == 0:
                break
            if 2 * n_live <= live.size:
                idx, m, p, total = idx[live], m[live], p[live], total[live]
                if not shared:
                    x, qterm, g = x[live], qterm[live], g[live]
                live = np.ones(n_live, dtype=bool)
    out[idx[live]] = total[live]
    return np.minimum(out, 1.0)


def marcum_q1(a, b):
    """First-order Marcum Q-function, the survival function of a Rice amplitude.

    Evaluates the Poisson-weighted incomplete-gamma series; the truncation
    error is bounded by the unconsumed Poisson tail mass, kept below 5e-16
    of the result. Q1(a, 0) = 1 and Q1(0, b) = exp(-b^2/2) are exact.
    ``a`` and ``b`` broadcast against each other; two scalars give a float.
    Every element stops at its own tail bound, so a batched call equals the
    one-element calls bit for bit.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for name, v in (("a", a), ("b", b)):
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise DomainError(f"{name} must be finite and >= 0")
    shape = np.broadcast_shapes(a.shape, b.shape)
    m = np.broadcast_to(0.5 * a * a, shape).ravel()
    x = 0.5 * b * b
    # a shared threshold stays scalar through the series
    x = float(x) if x.ndim == 0 else np.broadcast_to(x, shape).ravel()
    xs = np.broadcast_to(x, m.shape)

    out = np.ones_like(m)           # b = 0
    live = xs > 0.0
    zero = live & (m == 0.0)
    out[zero] = np.where(xs[zero] <= _EXP_UNDERFLOW, np.exp(-xs[zero]), 0.0)
    corner = live & ~zero & ((m > _EXP_UNDERFLOW) | (xs > _EXP_UNDERFLOW))
    for i in np.flatnonzero(corner):
        out[i] = _marcum_corner(float(m[i]), float(xs[i]))
    main = live & ~(zero | corner)
    if np.any(main):
        out[main] = _marcum_series(m[main], x if np.ndim(x) == 0 else x[main])
    return float(out[0]) if not shape else out.reshape(shape)


# ---------------------------------------------------------------------------
# Single-mode probabilities: all but efficiency and poisson_detection_prob
# broadcast amplitude against threshold, and a scalar pair gives a float
# ---------------------------------------------------------------------------

def _float_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def _divide(num, den, error=UndefinedConditionalError,
            message="no single-click events to condition on"):
    """num / den, raising error(message) where any den vanishes instead of leaving NaN or inf."""
    if np.any(den == 0.0):
        raise error(message)
    return num / den


def _alpha_abs(alpha_abs):
    a = np.asarray(alpha_abs, dtype=float)
    if not np.all(np.isfinite(a)) or np.any(a < 0.0):
        raise DomainError("alpha_abs must be finite and >= 0")
    return _float_or_array(a)


def detect_prob(alpha_abs, th):
    """Click probability Q1(2|alpha|, 2*gamma) for one mode, broadcast over alpha and gamma."""
    return marcum_q1(2.0 * _alpha_abs(alpha_abs), 2.0 * gamma_of(th))


def dark_count_prob(th):
    """Vacuum click probability exp(-2*gamma^2), elementwise over gamma."""
    g = gamma_of(th)
    return _float_or_array(np.exp(-2.0 * g * g))


def born_expansion(alpha_abs, th):
    """Fourth-order small-amplitude expansion of the click probability.

    exp(-2 g^2) * (1 + 4 g^2 |a|^2 + 4 g^2 (g^2 - 1) |a|^4), broadcast over
    alpha and gamma; accurate for |alpha|^2 << 1/(4 gamma^2).
    """
    a2 = _alpha_abs(alpha_abs) ** 2
    g2 = gamma_of(th) ** 2
    return dark_count_prob(th) * (1.0 + 4.0 * g2 * a2 + 4.0 * g2 * (g2 - 1.0) * a2 * a2)


def efficiency(th: Threshold | float) -> float:
    """Effective detection efficiency 4 g^2 e^{-2g^2} / (1 - e^{-2g^2}).

    Only meaningful as an efficiency for gamma >~ 0.8; below that it exceeds
    one and the parametric-model interpretation breaks down.
    """
    g = gamma_of(th)
    if g == 0.0:
        raise SingularThresholdError("efficiency is undefined at gamma = 0")
    delta = math.exp(-2.0 * g * g)
    return 4.0 * g * g * delta / (1.0 - delta)


def poisson_detection_prob(alpha_abs: float, th: Threshold | float) -> float:
    """Parametric count model p = 1 - (1 - delta) exp(-eta |alpha|^2)."""
    a2 = _alpha_abs(alpha_abs) ** 2
    g = gamma_of(th)
    delta = math.exp(-2.0 * g * g)
    if delta == 1.0:
        return 1.0
    return 1.0 - (1.0 - delta) * math.exp(-efficiency(g) * a2)


def visibility_single(alpha_abs, th):
    """Fringe visibility (Q - delta) / (Q + delta) of the click probability, broadcast."""
    q = detect_prob(alpha_abs, th)
    delta = dark_count_prob(th)
    return _divide(q - delta, q + delta, UndefinedRatioError, "visibility undefined: no clicks")


def visibility_dual(alpha_abs, th):
    """Visibility of the post-selected dual-mode conditional probability.

    [Q(1-delta) - (1-Q)delta] / [Q(1-delta) + (1-Q)delta] with
    Q = Q1(2|alpha|, 2*gamma), broadcast over alpha and gamma.
    """
    g = gamma_of(th)
    if np.any(g == 0.0):
        raise SingularThresholdError("dual-mode visibility is undefined at gamma = 0")
    q = detect_prob(alpha_abs, g)
    delta = dark_count_prob(g)
    num = q * (1.0 - delta) - (1.0 - q) * delta
    den = q * (1.0 - delta) + (1.0 - q) * delta
    return _divide(num, den, UndefinedRatioError, "visibility undefined: no clicks")


# ---------------------------------------------------------------------------
# Multi-mode outcomes
# ---------------------------------------------------------------------------

def mode_crossing_probs(state: CoherentVector, th) -> np.ndarray:
    """Per-mode click probabilities q_i = Q1(2|alpha psi_i|, 2*gamma_i).

    ``th`` is normally one shared threshold; a sequence of d thresholds is
    accepted for detectors with unequal settings.
    """
    gammas = _gamma_per_mode(th, state.d)
    return marcum_q1(2.0 * np.abs(state.mode_amplitudes()), 2.0 * gammas)


_ENUMERATION_CAP = 20


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

    @staticmethod
    def index_of(outcome) -> int:
        idx = 0
        for bit in outcome:
            idx = (idx << 1) | int(bit)
        return idx

    def outcome_of(self, index: int) -> tuple[int, ...]:
        return tuple((int(index) >> (self.d - 1 - i)) & 1 for i in range(self.d))

    def prob(self, outcome) -> float:
        if len(outcome) != self.d:
            raise InvalidDimensionError(f"outcome has {len(outcome)} bits, expected {self.d}")
        return float(self.table[self.index_of(outcome)])

    def items(self) -> Iterator[tuple[tuple[int, ...], float]]:
        for idx in range(self.table.size):
            yield self.outcome_of(idx), float(self.table[idx])

    def as_dict(self) -> dict[tuple[int, ...], float]:
        return dict(self.items())

    def total(self) -> float:
        return float(self.table.sum())

    def brute_marginal(self, i: int) -> float:
        """P[n_i = 1] by direct summation over the table (cross-check path)."""
        idx = np.arange(self.table.size)
        mask = (idx >> (self.d - 1 - i)) & 1 == 1
        return float(self.table[mask].sum())

    def single_detection_probs(self) -> np.ndarray:
        """P[outcome = e_i] for each mode i, by table lookup."""
        return self.table[1 << np.arange(self.d - 1, -1, -1)]


def outcome_distribution(state: CoherentVector, th) -> OutcomeDistribution:
    """Full 2^d outcome table; modes click independently with probabilities q_i."""
    if state.d > _ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"outcome enumeration capped at d = {_ENUMERATION_CAP} (got {state.d}); sample instead"
        )
    q = mode_crossing_probs(state, th)
    table = np.array([1.0])
    for qi in q:
        table = np.outer(table, np.array([1.0 - qi, qi])).ravel()
    return OutcomeDistribution(q=q, table=table)


def detect_sample(sample: AmplitudeSample, th) -> np.ndarray:
    """Click pattern of one realization: bit i is 1 iff |a_i| > gamma_i (strict)."""
    gammas = _gamma_per_mode(th, sample.d)
    return (np.abs(sample.a) > gammas).astype(np.int64)


def detect_batch(amps: np.ndarray, th) -> np.ndarray:
    """Click patterns for an (n, d) array of realized amplitudes."""
    amps = np.asarray(amps)
    gammas = _gamma_per_mode(th, amps.shape[-1])
    return (np.abs(amps) > gammas).astype(np.int64)

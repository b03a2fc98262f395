"""Experiment scenarios: analytic detection curves plus Monte Carlo counts.

Each scenario mirrors a bench configuration: a polarizer scan, a dual-mode
polarization analyzer, a beam splitter with coincidence counting, a
four-mode entangling circuit, and a Mach-Zehnder interferometer family.
Scenarios return a ScenarioResult carrying the swept grid, named analytic
curves, optional Monte Carlo counts, and the run metadata needed to
reproduce them.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detection import (
    Threshold,
    _divide,
    _float_or_array,
    born_expansion,
    dark_count_prob,
    detect_batch,
    detect_prob,
    gamma_of,
    marcum_q1,
    visibility_dual,
    visibility_single,
)
from .errors import (
    DomainError,
    SaturatedDetectorError,
    UndefinedRatioError,
)
from .field import CoherentVector, RngStream, realize_batch

__all__ = [
    "ScenarioResult",
    "DualModeProbs",
    "BeamsplitterStats",
    "HyperentangledProbs",
    "MZFitResult",
    "conditional_mode_probs",
    "polarization_scan",
    "deviation_scan",
    "visibility_scan",
    "dual_mode_probs",
    "dual_mode_scan",
    "beamsplitter_coincidence",
    "antibunching_scan",
    "hyperentangled_probs",
    "hyperentanglement_scan",
    "mach_zehnder",
    "mach_zehnder_fit",
]

DEFAULT_THETA_GRID_DEG = np.linspace(0.0, 180.0, 181)
DEFAULT_PHI_GRID = np.linspace(0.0, 2.0 * np.pi, 181)


@dataclass
class ScenarioResult:
    """Swept grid, named analytic curves, optional Monte Carlo counts, metadata."""

    grid_name: str
    grid: np.ndarray
    analytic: dict[str, np.ndarray]
    counts: dict[str, np.ndarray] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        for name, curve in self.analytic.items():
            curve = np.asarray(curve, dtype=float)
            if curve.shape != self.grid.shape:
                raise DomainError(f"curve {name!r} does not match the grid length")
            self.analytic[name] = curve
        if self.counts is not None:
            for name, curve in self.counts.items():
                self.counts[name] = np.asarray(curve)
                if self.counts[name].shape != self.grid.shape:
                    raise DomainError(f"counts {name!r} does not match the grid length")

    def columns(self) -> dict[str, np.ndarray]:
        cols = {self.grid_name: self.grid}
        cols.update(self.analytic)
        if self.counts:
            cols.update(self.counts)
        return cols

    def to_csv(self, path: str | Path) -> None:
        cols = self.columns()
        names = list(cols)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for i in range(self.grid.size):
                writer.writerow([_fmt(cols[n][i]) for n in names])

    def to_json(self, path: str | Path) -> None:
        payload = {
            "meta": self.meta,
            "grid_name": self.grid_name,
            "grid": self.grid.tolist(),
            "analytic": {k: v.tolist() for k, v in self.analytic.items()},
            "counts": {k: v.tolist() for k, v in self.counts.items()} if self.counts else None,
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _map_indexed(fn, n: int, threads: int = 1) -> list:
    """fn(i) for i in range(n), optionally on a thread pool; order preserved."""
    if threads <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n)))


# ---------------------------------------------------------------------------
# Post-selected conditionals
# ---------------------------------------------------------------------------

def _singles_from_q(q: np.ndarray) -> np.ndarray:
    """P[exactly one click, on mode i] = q_i * prod_{j != i} (1 - q_j), over the last axis."""
    d = q.shape[-1]
    comp = np.broadcast_to((1.0 - q)[..., None, :], q.shape + (d,))
    # row i multiplies q_i, then 1 - q_0, ..., 1 - q_{d-1} left to right, skipping 1 - q_i
    factors = np.concatenate([q[..., None], comp], axis=-1)
    kept = ~np.eye(d, d + 1, k=1, dtype=bool)
    return np.multiply.reduce(factors[..., kept].reshape(q.shape + (d,)), axis=-1)


def _conditional_clicks(amps: np.ndarray, gamma: float) -> np.ndarray:
    """Single-click conditionals p_i over the last axis of mode amplitudes |alpha_i| (..., d).

    p_i = (q_i / (1 - q_i)) / sum_k (q_k / (1 - q_k)) with q_i = Q1(2|alpha_i|,
    2 gamma). A row where some q_i rounds to 1 takes the limit instead: its
    mass is shared equally by the saturated modes of largest amplitude.
    """
    if gamma == 0.0:
        raise SaturatedDetectorError("every mode crosses threshold at gamma = 0")
    q = marcum_q1(2.0 * amps, 2.0 * gamma)
    sat = q >= 1.0
    w = q / np.where(sat, 1.0, 1.0 - q)
    p = _divide(w, w.sum(axis=-1, keepdims=True))
    rows = sat.any(axis=-1)
    s, a = sat[rows], amps[rows]
    winners = s & (a >= np.max(np.where(s, a, 0.0), axis=-1, keepdims=True) * (1.0 - 1e-12))
    p[rows] = winners / winners.sum(axis=-1, keepdims=True)
    return p


def conditional_mode_probs(state: CoherentVector, th: Threshold | float) -> np.ndarray:
    """Probability that the single click lands on mode i, given exactly one click.

    p_i = (q_i / (1 - q_i)) / sum_k (q_k / (1 - q_k)). Requires gamma > 0;
    at gamma = 0 every detector fires with certainty and the weights diverge.
    If a q_i rounds to 1 in floating point (amplitude far above threshold),
    the limit is taken instead: the mass concentrates on the largest
    saturated amplitudes.
    """
    return _conditional_clicks(np.abs(state.mode_amplitudes()), gamma_of(th))


# ---------------------------------------------------------------------------
# Polarizer scans
# ---------------------------------------------------------------------------

def polarization_scan(
    alpha0: float,
    th: Threshold | float,
    thetas_deg: np.ndarray | None = None,
    n_trials: int = 10_000,
    rng: RngStream | None = None,
    threads: int = 1,
) -> ScenarioResult:
    """Single-detector counts versus polarizer angle, alpha(theta) = alpha0 cos(theta).

    Analytic curve N * Q1(2|alpha0 cos t|, 2 gamma), its fourth-order
    expansion, and Monte Carlo threshold-crossing counts (one independent
    substream per grid point).
    """
    if n_trials < 1:
        raise DomainError("n_trials must be >= 1")
    g = gamma_of(th)
    thetas_deg = DEFAULT_THETA_GRID_DEG if thetas_deg is None else np.asarray(thetas_deg, float)
    rng = RngStream(0) if rng is None else rng
    t = np.deg2rad(thetas_deg)
    amps = np.abs(alpha0 * np.cos(t))
    analytic = n_trials * marcum_q1(2.0 * amps, 2.0 * g)
    expansion = n_trials * born_expansion(amps, g)

    def run_point(i: int) -> int:
        stream = rng.substream(i)
        state = CoherentVector(alpha0 * np.cos(t[i]), np.array([1.0]))
        a = realize_batch(state, n_trials, stream)
        return int(detect_batch(a, g).sum())

    counts = np.array(_map_indexed(run_point, t.size, threads))
    return ScenarioResult(
        grid_name="theta_deg",
        grid=thetas_deg,
        analytic={"analytic": analytic, "expansion": expansion},
        counts={"counts": counts},
        meta={"alpha0": alpha0, "gamma": g, "n_trials": n_trials,
              "seed": rng.seed, "stream_id": rng.stream_id},
    )


def deviation_scan(
    alpha0: float = 1.0,
    th: Threshold | float = 1.0,
    thetas_deg: np.ndarray | None = None,
) -> ScenarioResult:
    """Normalized detection-probability curve against the squared-cosine law.

    ``model`` is the dark-count-subtracted click probability renormalized by
    its maximum; ``qm`` is the one-or-more-photon prediction
    1 - exp(-|alpha|^2), normalized the same way.
    """
    g = gamma_of(th)
    thetas_deg = DEFAULT_THETA_GRID_DEG if thetas_deg is None else np.asarray(thetas_deg, float)
    t = np.deg2rad(thetas_deg)
    amps = np.abs(alpha0 * np.cos(t))
    delta = dark_count_prob(g)
    peak = detect_prob(abs(alpha0), g) - delta
    if peak <= 0.0:
        raise UndefinedRatioError("no signal above dark counts to normalize by")
    model = (marcum_q1(2.0 * amps, 2.0 * g) - delta) / peak
    qm = -np.expm1(-(amps ** 2)) / -math.expm1(-(alpha0 ** 2))
    return ScenarioResult(
        grid_name="theta_deg",
        grid=thetas_deg,
        analytic={"born": np.cos(t) ** 2, "model": model, "qm": qm},
        meta={"alpha0": alpha0, "gamma": g},
    )


def visibility_scan(
    alphas: tuple[float, ...] = (0.5, 1.0, 1.5),
    gammas: np.ndarray | None = None,
) -> ScenarioResult:
    """Single-mode fringe visibility versus threshold, one curve per amplitude."""
    gammas = np.linspace(0.05, 3.0, 60) if gammas is None else np.asarray(gammas, float)
    vis = visibility_single(np.asarray(alphas, float)[:, None], gammas)
    return ScenarioResult(grid_name="gamma", grid=gammas,
                          analytic={f"vis_alpha_{a:g}": v for a, v in zip(alphas, vis)},
                          meta={"alphas": list(alphas)})


# ---------------------------------------------------------------------------
# Dual-mode Born test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualModeProbs:
    p0: float | np.ndarray
    p_h: float | np.ndarray
    p_v: float | np.ndarray
    p_hv: float | np.ndarray
    p_cond_h: float | np.ndarray
    p_cond_h_renorm: float | np.ndarray
    visibility: float


def dual_mode_probs(alpha: float, theta, th: Threshold | float) -> DualModeProbs:
    """Joint and post-selected probabilities of a two-polarization detector.

    The state puts amplitude alpha cos(theta) on H and alpha sin(theta) on V
    (theta in radians, a scalar or an array). Post-selecting on exactly one
    click gives the conditional p_cond_h; rescaling its fringe by the
    dual-mode visibility gives p_cond_h_renorm, directly comparable to
    cos^2(theta).

    The renormalized curve is not cos^2(theta) itself: its deviation is an
    exact property of the model, 0.0158 at |alpha|^2 = 0.5 and gamma = 1, and
    it vanishes as |alpha|^4 in the weak-signal limit (1.3e-5 at
    |alpha|^2 = 0.01), where the Born rule emerges.
    """
    g = gamma_of(th)
    qh = detect_prob(np.abs(alpha * np.cos(theta)), g)
    qv = detect_prob(np.abs(alpha * np.sin(theta)), g)
    p0 = (1.0 - qh) * (1.0 - qv)
    ph = qh * (1.0 - qv)
    pv = (1.0 - qh) * qv
    phv = qh * qv
    p_cond = _divide(ph, ph + pv)
    vis = visibility_dual(abs(alpha), g)
    # zero amplitude has a flat fringe (vis = 0, p_cond = 1/2 identically);
    # the rescaled curve degenerates to the conditional itself
    p_renorm = p_cond if vis == 0.0 else (p_cond - 0.5) / vis + 0.5
    return DualModeProbs(p0, ph, pv, phv, p_cond, p_renorm, vis)


def dual_mode_scan(alpha: float, th: Threshold | float,
                   thetas_deg: np.ndarray | None = None) -> ScenarioResult:
    thetas_deg = DEFAULT_THETA_GRID_DEG if thetas_deg is None else np.asarray(thetas_deg, float)
    g = gamma_of(th)
    t = np.deg2rad(thetas_deg)
    r = dual_mode_probs(alpha, t, g)
    return ScenarioResult(
        grid_name="theta_deg",
        grid=thetas_deg,
        analytic={"born": np.cos(t) ** 2, **{k: getattr(r, k) for k in (
            "p_cond_h", "p_cond_h_renorm", "p0", "p_h", "p_v", "p_hv")}},
        meta={"alpha": alpha, "gamma": g, "visibility": r.visibility},
    )


# ---------------------------------------------------------------------------
# Beam splitter coincidences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BeamsplitterStats:
    p0: float | np.ndarray
    p_r: float | np.ndarray
    p_d: float | np.ndarray
    p_rd: float | np.ndarray
    r: float | np.ndarray
    r_d: float | np.ndarray


def beamsplitter_coincidence(alpha, th: Threshold | float) -> BeamsplitterStats:
    """Outcome probabilities and coincidence ratios after a 50/50 beam splitter.

    Both output modes carry amplitude alpha/sqrt(2), so each detector clicks
    with q = Q1(sqrt(2)|alpha|, 2 gamma). R uses the true trial count and is
    never below one; R_d renormalizes by detected events only and can drop
    below one, mimicking heralded coincidence analysis. alpha may be an array.
    """
    g = gamma_of(th)
    q = marcum_q1(math.sqrt(2.0) * np.abs(alpha), 2.0 * g)
    p0 = (1.0 - q) ** 2
    pr = pd = q * (1.0 - q)
    prd = q * q
    r = _divide(prd, pr * pd, UndefinedRatioError, "single-click probability vanishes; R undefined")
    r_d = prd * (1.0 - p0) / (pr * pd)
    return BeamsplitterStats(p0, pr, pd, prd, r, r_d)


def antibunching_scan(th: Threshold | float,
                      alphas: np.ndarray | None = None) -> ScenarioResult:
    alphas = np.linspace(0.0, 3.0, 301) if alphas is None else np.asarray(alphas, float)
    g = gamma_of(th)
    r = beamsplitter_coincidence(alphas, g)
    return ScenarioResult(
        grid_name="alpha",
        grid=alphas,
        analytic={"R": r.r, "Rd": r.r_d, "p0": r.p0, "p_single": r.p_r, "p_coinc": r.p_rd},
        meta={"gamma": g},
    )


# ---------------------------------------------------------------------------
# Four-mode single-photon entanglement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperentangledProbs:
    pr_rh: float | np.ndarray
    pr_rv: float | np.ndarray
    conditional_rh: float | np.ndarray


def hyperentangled_probs(alpha: float, th) -> HyperentangledProbs:
    """Single-click probabilities of the four-mode circuit H(spatial) then CNOT.

    The prepared direction is (|R,H> + |D,V>)/sqrt(2); modes RH and DV carry
    amplitude alpha/sqrt(2) while RV and DH are vacuum. conditional_rh is the
    probability the single click is on RH given exactly one click anywhere;
    ``th`` may be an array of thresholds."""
    g = gamma_of(th)
    q_sig = marcum_q1(math.sqrt(2.0) * abs(alpha), 2.0 * g)
    q_dark = dark_count_prob(g)
    singles = _singles_from_q(np.stack([q_sig, q_dark, q_dark, q_sig], axis=-1))
    pr_rh, pr_rv = singles[..., 0], singles[..., 1]
    conditional = _divide(pr_rh, 2.0 * pr_rh + 2.0 * pr_rv)
    return HyperentangledProbs(*(_float_or_array(v) for v in (pr_rh, pr_rv, conditional)))


def hyperentanglement_scan(alpha: float,
                           gammas: np.ndarray | None = None) -> ScenarioResult:
    gammas = np.linspace(0.05, 3.0, 60) if gammas is None else np.asarray(gammas, float)
    r = hyperentangled_probs(alpha, gammas)
    return ScenarioResult(
        grid_name="gamma",
        grid=gammas,
        analytic={"pr_rh": r.pr_rh, "pr_rv": r.pr_rv, "conditional_rh": r.conditional_rh},
        meta={"alpha": alpha},
    )


# ---------------------------------------------------------------------------
# Mach-Zehnder family
# ---------------------------------------------------------------------------

def _mz_probs(alpha: float, g: float, phis: np.ndarray) -> tuple[np.ndarray, ...]:
    """Bright-output conditional p_mz and both output click probabilities versus phase.

    The bright and dark arms carry |alpha cos(phi/2)| and |alpha sin(phi/2)|;
    the dark arm uses the identity sin(phi/2) = cos((pi - phi)/2) so the two
    arguments are bit-identical at phi = pi/2 and the conditional is exactly
    one half there.
    """
    a = abs(alpha)
    q_r = marcum_q1(2.0 * a * np.abs(np.cos(phis / 2.0)), 2.0 * g)
    q_d = marcum_q1(2.0 * a * np.abs(np.cos((np.pi - phis) / 2.0)), 2.0 * g)
    x = q_r * (1.0 - q_d)
    y = q_d * (1.0 - q_r)
    return _divide(x, x + y), q_r, q_d


def mach_zehnder(alpha: float, th: Threshold | float,
                 phis: np.ndarray | None = None) -> ScenarioResult:
    """Interferometer curves versus phase: closed, open, and which-way marked.

    p_mz is the conditional probability of a click on the bright output given
    exactly one of the two outputs clicked. With the recombining splitter
    removed (delayed choice) the conditional is 1/2 for every phase; marking
    one arm with a polarization flip spreads it to 1/4 over four modes.
    p_total_mz and p_total_dc are the unconditioned any-click probabilities
    with and without the final splitter.
    """
    g = gamma_of(th)
    phis = DEFAULT_PHI_GRID if phis is None else np.asarray(phis, float)
    p_mz, q_r, q_d = _mz_probs(alpha, g, phis)

    q_open = marcum_q1(math.sqrt(2.0) * abs(alpha), 2.0 * g)
    # open interferometer: both arms carry |alpha|/sqrt(2), so the conditional
    # is exactly 1/2 at every phase; which-way marking puts |alpha|/2 on all
    # four modes, giving exactly 1/4
    p_dc = np.full_like(phis, 0.5)
    p_ww = np.full_like(phis, 0.25)

    p_total_mz = 1.0 - (1.0 - q_r) * (1.0 - q_d)
    p_total_dc = np.full_like(phis, 1.0 - (1.0 - q_open) ** 2)
    return ScenarioResult(
        grid_name="phi",
        grid=phis,
        analytic={
            "ideal": np.cos(phis / 2.0) ** 2,
            "p_mz": p_mz,
            "p_dc": p_dc,
            "p_ww": p_ww,
            "p_total_mz": p_total_mz,
            "p_total_dc": p_total_dc,
        },
        meta={"alpha": alpha, "gamma": g},
    )


@dataclass(frozen=True)
class MZFitResult:
    """Fringe analysis of noisy interferometer samples.

    visibility: dark-corrected fringe visibility
    (p_max - p_min) / (p_max + p_min - 2 delta) of the conditional curve.
    r_d: detected-events coincidence ratio of the open interferometer.
    rmse: root-mean-square residual of the fitted cosine against the samples.
    """

    visibility: float
    r_d: float
    rmse: float
    fit_amplitude: float
    fit_offset: float
    fit_phase: float
    phis: np.ndarray
    samples: np.ndarray
    fitted: np.ndarray


def mach_zehnder_fit(
    alpha: float,
    th: Threshold | float,
    rng: RngStream,
    n_points: int = 25,
    sample_size: int = 2600,
) -> MZFitResult:
    """Sample the interference fringe and fit A cos^2(phi/2 + phi0) + B.

    Each sample is the conditional probability p_mz at one phase plus
    Gaussian noise of standard deviation 1/sqrt(sample_size), mimicking a
    finite photon budget per phase setting. The fit is linear least squares
    on [1, cos, sin]; the period is fixed at 2 pi.
    """
    if n_points < 4:
        raise DomainError("need at least 4 phase points to fit")
    g = gamma_of(th)
    phis = 2.0 * np.pi * np.arange(n_points) / n_points
    p = _mz_probs(alpha, g, phis)[0]
    sigma = 1.0 / math.sqrt(sample_size)
    samples = p + sigma * rng.standard_normals(n_points)

    basis = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    coef, *_ = np.linalg.lstsq(basis, samples, rcond=None)
    ampl = math.hypot(coef[1], coef[2])
    fit_a = 2.0 * ampl
    fit_b = coef[0] - ampl
    phi0 = 0.5 * math.atan2(-coef[2], coef[1])
    fitted = basis @ coef
    rmse = float(np.sqrt(np.mean((samples - fitted) ** 2)))

    p_dense = _mz_probs(alpha, g, np.linspace(0.0, 2.0 * np.pi, 721))[0]
    delta = dark_count_prob(g)
    p_max, p_min = float(p_dense.max()), float(p_dense.min())
    visibility = (p_max - p_min) / (p_max + p_min - 2.0 * delta)
    r_d = beamsplitter_coincidence(alpha, g).r_d
    return MZFitResult(
        visibility=visibility,
        r_d=r_d,
        rmse=rmse,
        fit_amplitude=fit_a,
        fit_offset=fit_b,
        fit_phase=phi0,
        phis=phis,
        samples=samples,
        fitted=fitted,
    )

"""Experiment scenarios: analytic detection curves plus Monte Carlo counts.

Each scenario mirrors a bench configuration: a polarizer scan, a dual-mode
polarization analyzer, a beam splitter with coincidence counting, a
four-mode entangling circuit, and a Mach-Zehnder interferometer whose fringe
fit joins its curves' meta. Each scenario is one array-valued function that
returns a ScenarioResult (the swept grid, named curves, optional Monte Carlo
counts and the metadata that reproduces them; a single point is the
one-element grid), which a command writes as it is: JSON with sorted keys in
json's indent-2 layout, and CSV rows of cells joined without quoting.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .detection import (
    _divide,
    _singles_from_q,
    born_expansion,
    dark_count_prob,
    detect_prob,
    gamma_of,
    visibility_dual,
    visibility_single,
)
from .errors import BornsimError
from .field import CLICK_BLOCK, RngStream, threshold_clicks

__all__ = [
    "ScenarioResult",
    "polarization_scan",
    "deviation_scan",
    "visibility_scan",
    "dual_mode_scan",
    "antibunching_scan",
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
                raise BornsimError(f"curve {name!r} does not match the grid length")
            self.analytic[name] = curve
        if self.counts is not None:
            for name, curve in self.counts.items():
                self.counts[name] = np.asarray(curve)
                if self.counts[name].shape != self.grid.shape:
                    raise BornsimError(f"counts {name!r} does not match the grid length")

    def to_csv(self, path: str | Path) -> None:
        _write_csv(path, {self.grid_name: self.grid, **self.analytic, **(self.counts or {})})

    def to_json(self, path: str | Path) -> None:
        _write_json(path, {"meta": self.meta, "grid_name": self.grid_name, "grid": self.grid,
                           "analytic": self.analytic, "counts": self.counts or None})


_CHUNK_VALUES = 256  # Python values a writer makes at a time, but at least one array row


def _chunks(items):
    """items in lists of up to _CHUNK_VALUES; a numpy array as the .tolist() of runs of its
    leading-axis rows, each run _CHUNK_VALUES values or one row, whichever is larger."""
    if isinstance(items, np.ndarray):
        step = max(1, _CHUNK_VALUES // max(1, math.prod(items.shape[1:])))
        for start in range(0, len(items), step):
            yield items[start:start + step].tolist()
        return
    items = iter(items)
    while chunk := list(itertools.islice(items, _CHUNK_VALUES)):
        yield chunk


def _json_scalar(o) -> str:
    """json.dumps(o) of a number, string, None or boolean."""
    if isinstance(o, float):
        if math.isfinite(o):  # as json: under numpy 2, repr(np.float64(x)) is 'np.float64(x)'
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if isinstance(o, bool):
        return "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    raise BornsimError(f"cannot write a {type(o).__name__} as JSON")


def _json_pieces(o, pad: str):
    """json.dumps(o, indent=2, sort_keys=True), nested at pad, in pieces: a dict member by
    member, and a list, tuple, array or iterator a chunk (_chunks) at a time; arrays as
    their .tolist()."""
    inner = pad + "  "
    if isinstance(o, np.ndarray) and not o.ndim:
        o = o.tolist()
    if isinstance(o, dict):
        sep = "{\n" + inner
        for key in sorted(o):
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _json_pieces(o[key], inner)
            sep = ",\n" + inner
        yield "{}" if sep[0] == "{" else "\n" + pad + "}"
    elif isinstance(o, (list, tuple, Iterator, np.ndarray)):
        sep = "[\n" + inner
        for chunk in _chunks(o):  # a finite float, the common item, without a call
            yield sep + (",\n" + inner).join(
                float.__repr__(v) if type(v) is float and math.isfinite(v)
                else "".join(_json_pieces(v, inner)) for v in chunk)
            sep = ",\n" + inner
        yield "[]" if sep[0] == "[" else "\n" + pad + "]"
    else:
        yield _json_scalar(o)


def _write_json(path: str | Path, payload) -> None:
    """Write json.dump(payload, indent=2, sort_keys=True)'s bytes plus a newline, arrays
    as their .tolist(); streamed in row chunks, so no Python copy of it is held."""
    with open(path, "w") as fh:
        for piece in _json_pieces(payload, ""):
            fh.write(piece)
        fh.write("\n")


def _write_csv(path: str | Path, columns: dict[str, np.ndarray]) -> None:
    """Header, then one row per index (integers as str(int), other values as repr(float)),
    cells joined by "," and rows ended by CR LF: csv.writer's bytes, as no cell needs quoting.
    Each column becomes Python numbers _CHUNK_VALUES rows at a time; none is listed whole."""
    chunked = []
    for column in map(np.asarray, columns.values()):
        if not np.issubdtype(column.dtype, np.integer):
            column = column.astype(float, copy=False)
        chunked.append(_chunks(column))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for chunks in zip(*chunked):  # the same rows of every column
            fh.writelines(",".join(row) + "\r\n"
                          for row in zip(*(map(repr, values) for values in chunks)))


# ---------------------------------------------------------------------------
# Polarizer scans
# ---------------------------------------------------------------------------

def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def polarization_scan(alpha0: float, th: float, thetas_deg: np.ndarray | None = None, *,
                      n_trials: int, rng: RngStream) -> ScenarioResult:
    """Single-detector counts versus polarizer angle, alpha(theta) = alpha0 cos(theta).

    Analytic curve N * Q1(2|alpha0 cos t|, 2 gamma), its fourth-order
    expansion, and Monte Carlo threshold-crossing counts (one independent
    substream per grid point). From n_trials >= CLICK_BLOCK the angles are
    counted on every usable CPU, the calling thread among them; each angle keeps
    its substream and output slot, so the counts do not depend on the thread
    count or the order in which angles run, and an error is the one the lowest
    failing angle raises. alpha0 must be a finite real number; its sign
    carries into the sampled amplitude alpha0 cos(theta).
    """
    if np.iscomplexobj(alpha0) or not math.isfinite(alpha0):
        raise BornsimError(f"alpha0 must be a finite real amplitude (got {alpha0!r})")
    if n_trials < 1:
        raise BornsimError("n_trials must be >= 1")
    g = gamma_of(th)
    thetas_deg = DEFAULT_THETA_GRID_DEG if thetas_deg is None else np.asarray(thetas_deg, float)
    signed = alpha0 * np.cos(np.deg2rad(thetas_deg))
    amps = np.abs(signed)
    # the expansion overflows first, so it is checked before any Marcum call or draw
    expansion = n_trials * born_expansion(amps, g)
    analytic = n_trials * detect_prob(amps, g)
    counts = np.zeros(signed.size, dtype=int)
    errors = {}
    angles = iter(range(signed.size))  # next() is one C call: under the GIL, no angle goes twice

    def share():
        try:
            for i in angles:
                counts[i] = threshold_clicks(signed[i], g, n_trials, rng.substream(i))
        except Exception as exc:
            errors[i] = exc
        finally:
            # hand out no more angles; every angle below a failed one is already out
            for _ in angles:
                pass

    # below one block per angle, threads cost more in hand-offs than they save
    k = min(_usable_cpus(), signed.size) if n_trials >= CLICK_BLOCK else 1
    helpers = []
    try:
        for _ in range(k - 1):
            helper = threading.Thread(target=share)
            helper.start()
            helpers.append(helper)
        share()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]  # the serial loop's error: the lowest failing angle
    return ScenarioResult(
        grid_name="theta_deg",
        grid=thetas_deg,
        analytic={"analytic": analytic, "expansion": expansion},
        counts={"counts": counts},
        meta={"alpha0": alpha0, "gamma": g, "n_trials": n_trials,
              "seed": rng.seed, "stream_id": rng.stream_id},
    )


def deviation_scan(alpha0: float, th: float,
                   thetas_deg: np.ndarray | None = None) -> ScenarioResult:
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
        raise BornsimError("no signal above dark counts to normalize by")
    model = (detect_prob(amps, g) - delta) / peak
    with np.errstate(over="ignore"):
        # squared in float64: a huge alpha0 saturates qm at 1 instead of overflowing
        qm = -np.expm1(-(amps ** 2)) / -math.expm1(-(np.float64(alpha0) ** 2))
    return ScenarioResult(
        grid_name="theta_deg",
        grid=thetas_deg,
        analytic={"born": np.cos(t) ** 2, "model": model, "qm": qm},
        meta={"alpha0": alpha0, "gamma": g},
    )


def visibility_scan(alphas: tuple[float, ...], gammas: np.ndarray) -> ScenarioResult:
    """Single-mode fringe visibility versus threshold, one curve per amplitude."""
    if len(alphas) == 0 or min(alphas) < 0.0:
        raise BornsimError(f"alphas must be one or more amplitudes >= 0 (got {list(alphas)})")
    names = [f"vis_alpha_{a:g}" for a in alphas]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise BornsimError(f"amplitudes {alphas[names.index(name)]!r} and {alphas[i]!r} "
                               f"share the column label {name!r}")
    gammas = np.asarray(gammas, float)
    vis = visibility_single(np.asarray(alphas, float)[:, None], gammas)
    return ScenarioResult(grid_name="gamma", grid=gammas, analytic=dict(zip(names, vis)),
                          meta={"alphas": list(alphas)})


# ---------------------------------------------------------------------------
# Dual-mode Born test
# ---------------------------------------------------------------------------

def dual_mode_scan(alpha: float, th: float,
                   thetas_deg: np.ndarray | None = None) -> ScenarioResult:
    """Joint and post-selected probabilities of a two-polarization detector versus angle.

    The state puts amplitude alpha cos(theta) on H and alpha sin(theta) on V.
    Post-selecting on exactly one click gives the conditional p_cond_h;
    rescaling its fringe by the dual-mode visibility (meta["visibility"])
    gives p_cond_h_renorm, directly comparable to born = cos^2(theta).

    The renormalized curve is not cos^2(theta) itself: its deviation is an
    exact property of the model, 0.0158 at |alpha|^2 = 0.5 and gamma = 1, and
    it vanishes as |alpha|^4 in the weak-signal limit (1.3e-5 at
    |alpha|^2 = 0.01), where the Born rule emerges.
    """
    thetas_deg = DEFAULT_THETA_GRID_DEG if thetas_deg is None else np.asarray(thetas_deg, float)
    g = gamma_of(th)
    t = np.deg2rad(thetas_deg)
    qh = detect_prob(np.abs(alpha * np.cos(t)), g)
    qv = detect_prob(np.abs(alpha * np.sin(t)), g)
    ph, pv = np.moveaxis(_singles_from_q(np.stack([qh, qv], axis=-1)), -1, 0)
    p_cond = _divide(ph, ph + pv)
    vis = visibility_dual(abs(alpha), g)
    # zero amplitude has a flat fringe (vis = 0, p_cond = 1/2 identically);
    # the rescaled curve degenerates to the conditional itself
    p_renorm = p_cond if vis == 0.0 else (p_cond - 0.5) / vis + 0.5
    return ScenarioResult(
        grid_name="theta_deg",
        grid=thetas_deg,
        analytic={"born": np.cos(t) ** 2, "p_cond_h": p_cond, "p_cond_h_renorm": p_renorm,
                  "p0": (1.0 - qh) * (1.0 - qv), "p_h": ph, "p_v": pv, "p_hv": qh * qv},
        meta={"alpha": alpha, "gamma": g, "visibility": vis},
    )


# ---------------------------------------------------------------------------
# Beam splitter coincidences
# ---------------------------------------------------------------------------

def antibunching_scan(th: float, alphas: np.ndarray) -> ScenarioResult:
    """Outcome probabilities and coincidence ratios after a 50/50 beam splitter.

    Both output modes carry amplitude alpha/sqrt(2), so each detector clicks
    with q = Q1(sqrt(2)|alpha|, 2 gamma). R uses the true trial count and is
    never below one; Rd renormalizes by detected events only and can drop
    below one, mimicking heralded coincidence analysis.
    """
    alphas = np.asarray(alphas, float)
    g = gamma_of(th)
    q = detect_prob(np.abs(alphas) * math.sqrt(0.5), g)
    p0 = (1.0 - q) ** 2
    p_single = q * (1.0 - q)
    p_coinc = q * q
    r = _divide(p_coinc, p_single * p_single, "single-click probability vanishes; R undefined")
    r_d = p_coinc * (1.0 - p0) / (p_single * p_single)
    return ScenarioResult(
        grid_name="alpha",
        grid=alphas,
        analytic={"R": r, "Rd": r_d, "p0": p0, "p_single": p_single, "p_coinc": p_coinc},
        meta={"gamma": g},
    )


# ---------------------------------------------------------------------------
# Four-mode single-photon entanglement
# ---------------------------------------------------------------------------

def hyperentanglement_scan(alpha: float, gammas: np.ndarray) -> ScenarioResult:
    """Single-click probabilities of the four-mode circuit H(spatial) then CNOT, versus threshold.

    The prepared direction is (|R,H> + |D,V>)/sqrt(2); modes RH and DV carry
    amplitude alpha/sqrt(2) while RV and DH are vacuum. conditional_rh is the
    probability the single click is on RH given exactly one click anywhere.
    """
    gammas = np.asarray(gammas, float)
    g = gamma_of(gammas)
    q_sig = detect_prob(abs(alpha) * math.sqrt(0.5), g)
    q_dark = dark_count_prob(g)
    singles = _singles_from_q(np.stack([q_sig, q_dark, q_dark, q_sig], axis=-1))
    pr_rh, pr_rv = singles[..., 0], singles[..., 1]
    return ScenarioResult(
        grid_name="gamma",
        grid=gammas,
        analytic={"pr_rh": pr_rh, "pr_rv": pr_rv,
                  "conditional_rh": _divide(pr_rh, 2.0 * pr_rh + 2.0 * pr_rv)},
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
    q_r = detect_prob(a * np.abs(np.cos(phis / 2.0)), g)
    q_d = detect_prob(a * np.abs(np.cos((np.pi - phis) / 2.0)), g)
    x, y = np.moveaxis(_singles_from_q(np.stack([q_r, q_d], axis=-1)), -1, 0)
    return _divide(x, x + y), q_r, q_d


def mach_zehnder(alpha: float, th: float,
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

    q_open = detect_prob(abs(alpha) * math.sqrt(0.5), g)
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


def mach_zehnder_fit(alpha: float, th: float, rng: RngStream, *,
                     n_points: int, sample_size: int) -> ScenarioResult:
    """mach_zehnder(alpha, th) with a fit of A cos^2(phi/2 + phi0) + B to its sampled fringe.

    Each sample is the conditional probability p_mz at one of n_points equally
    spaced phases plus Gaussian noise of standard deviation 1/sqrt(sample_size),
    mimicking a finite photon budget per phase setting. The fit is linear least
    squares on [1, cos, sin]; the period is fixed at 2 pi. meta adds the seed,
    sample_phis, samples and fit: the dark-corrected fringe visibility
    (p_max - p_min) / (p_max + p_min - 2 delta) of the conditional curve, the
    detected-events coincidence ratio r_d of the open interferometer, the fit's
    root-mean-square residual rmse, and the fitted amplitude A, offset B and phase phi0.
    """
    if n_points < 4:
        raise BornsimError("need at least 4 phase points to fit")
    if sample_size < 1:
        raise BornsimError("sample_size must be >= 1")
    g = gamma_of(th)
    phis = 2.0 * np.pi * np.arange(n_points) / n_points
    p = _mz_probs(alpha, g, phis)[0]
    sigma = 1.0 / math.sqrt(sample_size)
    samples = p + sigma * rng.standard_normals(n_points)

    basis = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    coef, *_ = np.linalg.lstsq(basis, samples, rcond=None)
    ampl = math.hypot(coef[1], coef[2])
    rmse = float(np.sqrt(np.mean((samples - basis @ coef) ** 2)))

    # the conditional fringe peaks at phi = 0 (dark arm in vacuum) and is lowest at pi
    p_max, p_min = map(float, _mz_probs(alpha, g, np.array([0.0, np.pi]))[0])
    delta = dark_count_prob(g)
    visibility = _divide(p_max - p_min, p_max + p_min - 2.0 * delta,
                         "visibility undefined: p_max + p_min equals twice the dark counts")
    r_d = float(antibunching_scan(g, [abs(alpha)]).analytic["Rd"][0])
    result = mach_zehnder(alpha, g)
    result.meta.update({"seed": rng.seed, "sample_phis": phis, "samples": samples, "fit": {
        "visibility": visibility, "r_d": r_d, "rmse": rmse, "amplitude": 2.0 * ampl,
        "offset": coef[0] - ampl, "phase": 0.5 * math.atan2(-coef[2], coef[1])}})
    return result

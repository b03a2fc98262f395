"""Command-line entry point: every experiment as reproducible CSV/JSON data.

Each subcommand sweeps one scenario, writes <command>-<seed>.csv and/or
.json into the output directory, and always writes a manifest
(<command>-<seed>.manifest.json) holding the fully resolved configuration,
package version, and wall-clock time. Flags override a JSON config file
(--config), which overrides built-in defaults. Reruns with the same seed
produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, experiments, tomography
from .detection import visibility_single
from .errors import BornsimError
from .experiments import _write_json
from .field import RngStream
from .optics import circuit_from_json

DEFAULTS: dict[str, dict] = {
    "counts": {"alpha0": 0.707, "gamma": 1.0, "n_trials": 10_000},
    "deviation": {"alpha0": 1.0, "gamma": 1.0},
    "visibility": {"alphas": [0.5, 1.0, 1.5], "gamma_grid": "0.05:0.05:3"},
    "born-again": {"alpha": math.sqrt(0.5), "gamma": 1.0},
    "antibunch": {"gamma": 1.0, "alpha_grid": "0:0.01:3"},
    "hyper": {"alpha": 1.0, "gamma_grid": "0.05:0.05:3"},
    "mz": {"alpha": 0.95, "gamma": 1.6, "n_points": 25, "sample_size": 2600},
    "fidelity": {"gamma": 1.0, "alpha_grid": "0:0.1:3", "n_states": 30, "circuit": None},
    "fidelity-mle": {"gamma": 1.0, "alpha_grid": "0:0.1:3", "n_states": 5, "circuit": None},
    "witness": {"gamma": 1.0, "alpha_grid": "0:0.1:3", "circuit": None},
    "fidelity-contour": {"alpha_grid": "0.25:0.25:3", "gamma_grid": "0.25:0.25:3",
                         "n_states": 100, "d": 4, "fast": False},
    "visibility-contour": {"alpha_grid": "0.05:0.05:3", "gamma_grid": "0.05:0.05:3"},
}

FORMATS = ("csv", "json", "both")

GLOBAL_DEFAULTS = {"seed": 42, "out_dir": ".", "format": "both", "threads": 1}


@dataclass
class RunConfig:
    """Fully resolved run parameters for one subcommand."""

    command: str
    params: dict = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.params[name]
        except KeyError:
            raise AttributeError(name) from None


def parse_grid(spec: str) -> np.ndarray:
    """min:step:max grid specification, endpoints inclusive."""
    try:
        lo, step, hi = (float(p) for p in str(spec).split(":"))
    except ValueError:
        raise BornsimError(f"bad grid spec {spec!r}; expected min:step:max") from None
    if not all(map(math.isfinite, (lo, step, hi))) or step <= 0 or hi < lo:
        raise BornsimError(f"bad grid spec {spec!r}; need finite values, step > 0 and max >= min")
    n = int(round((hi - lo) / step))
    # snap away accumulated float dust (0.1 * 3 -> 0.30000000000000004) so
    # grid values round-trip cleanly through the CSV output
    grid = np.round(lo + step * np.arange(n + 1), 12)
    return grid[grid <= hi + 1e-12 * max(1.0, abs(hi))]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bornsim",
        description="Vacuum-noise threshold-detection experiments as CSV/JSON data.",
    )
    parser.add_argument("--version", action="version", version=f"bornsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, help="random seed (default 42)")
        p.add_argument("--out-dir", help="output directory (default .)")
        p.add_argument("--format", choices=FORMATS, help="data file format")
        p.add_argument("--threads", type=int,
                       help="worker threads for counts (default $BORNSIM_THREADS or 1)")
        p.add_argument("--config", help="JSON config file; flags override it")

    p = sub.add_parser("counts", help="single-detector counts vs polarizer angle")
    p.add_argument("--alpha0", type=float, help="peak amplitude (default 0.707)")
    p.add_argument("--gamma", type=float, help="detection threshold (default 1)")
    p.add_argument("--n", type=int, dest="n_trials", help="trials per angle (default 10000)")
    add_common(p)

    p = sub.add_parser("deviation", help="normalized detection curve vs squared-cosine law")
    p.add_argument("--alpha0", type=float)
    p.add_argument("--gamma", type=float)
    add_common(p)

    p = sub.add_parser("visibility", help="fringe visibility vs threshold")
    p.add_argument("--alphas", help="comma-separated amplitudes (default 0.5,1,1.5)")
    p.add_argument("--gamma-grid", help="threshold grid min:step:max")
    add_common(p)

    p = sub.add_parser("born-again", help="dual-mode post-selected polarization test")
    p.add_argument("--alpha", type=float, help="amplitude (default sqrt(0.5))")
    p.add_argument("--gamma", type=float)
    add_common(p)

    p = sub.add_parser("antibunch", help="beam-splitter coincidence ratios vs amplitude")
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha-grid", help="amplitude grid min:step:max")
    add_common(p)

    p = sub.add_parser("hyper", help="four-mode single-click probabilities vs threshold")
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma-grid", help="threshold grid min:step:max")
    add_common(p)

    p = sub.add_parser("mz", help="Mach-Zehnder interference and fringe-fit analysis")
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--n-points", type=int, help="fitted sample count (default 25)")
    p.add_argument("--sample-size", type=int, help="photons per sample (default 2600)")
    add_common(p)

    for name, helptext in (
        ("fidelity", "linear-inversion tomography fidelity vs amplitude"),
        ("fidelity-mle", "constrained tomography fidelity vs amplitude"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--gamma", type=float)
        p.add_argument("--alpha-grid", help="amplitude grid min:step:max")
        p.add_argument("--n-states", type=int)
        p.add_argument("--circuit", help="circuit JSON; probe the state it prepares from mode 1")
        add_common(p)

    p = sub.add_parser("witness", help="PPT witness of the reconstructed Bell state")
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha-grid", help="amplitude grid min:step:max")
    p.add_argument("--circuit", help="circuit JSON preparing the probed state")
    add_common(p)

    p = sub.add_parser("fidelity-contour", help="mean tomography fidelity over (alpha, gamma)")
    p.add_argument("--alpha-grid")
    p.add_argument("--gamma-grid")
    p.add_argument("--n-states", type=int)
    p.add_argument("--fast", action="store_true", default=None,
                   help="reduced ensemble (20 states)")
    add_common(p)

    p = sub.add_parser("visibility-contour", help="fringe visibility over (alpha, gamma)")
    p.add_argument("--alpha-grid")
    p.add_argument("--gamma-grid")
    add_common(p)
    return parser


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list of numbers", type(None): "a file path or null"}


def _has_default_type(value, default) -> bool:
    """Whether a parameter value has the type of its default; ints stand for floats."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_has_default_type(v, 0.0) for v in value)
    kinds = {type(None): (str, type(None)), float: (int, float)}.get(type(default), type(default))
    return isinstance(value, kinds) and isinstance(value, bool) == isinstance(default, bool)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults < BORNSIM_THREADS < config file < explicit flags.

    Every key must be a parameter of the command and every value must have
    the type of that parameter's default.
    """
    command = args.command
    defaults = {**GLOBAL_DEFAULTS, **DEFAULTS[command]}
    params = dict(defaults)
    env = os.environ.get("BORNSIM_THREADS")
    if env:
        try:
            params["threads"] = int(env)
        except ValueError:
            raise BornsimError(f"BORNSIM_THREADS must be an integer (got {env!r})") from None
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            file_params = json.loads(Path(cfg_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise BornsimError(f"cannot read config file {cfg_path}: {exc}") from exc
        if not isinstance(file_params, dict):
            raise BornsimError("config file must hold a JSON object")
        unknown = sorted(set(file_params) - set(defaults))
        if unknown:
            raise BornsimError(f"unknown config key {unknown[0]!r} for {command}; "
                               f"expected one of {', '.join(sorted(defaults))}")
        params.update(file_params)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        params[key] = value
    if isinstance(params.get("alphas"), str):
        try:
            params["alphas"] = [float(a) for a in params["alphas"].split(",")]
        except ValueError:
            raise BornsimError(f"alphas must be comma-separated numbers "
                               f"(got {params['alphas']!r})") from None
    for key, value in params.items():
        if not _has_default_type(value, defaults[key]):
            expected = _TYPE_NAMES[type(defaults[key])]
            raise BornsimError(f"config key {key!r} must be {expected} (got {value!r})")
    if params["format"] not in FORMATS:
        raise BornsimError(f"config key 'format' must be one of {', '.join(FORMATS)} "
                           f"(got {params['format']!r})")
    return RunConfig(command=command, params=params)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _state_from_circuit(path: str, d: int = 4) -> np.ndarray:
    u = circuit_from_json(path, d=d)
    e1 = np.zeros(u.shape[0], dtype=complex)
    e1[0] = 1.0
    psi = u @ e1
    return psi / np.linalg.norm(psi)


def _run_scenario(cfg: RunConfig):
    rng = RngStream(cfg.seed)
    cmd = cfg.command
    if cmd == "counts":
        return experiments.polarization_scan(cfg.alpha0, cfg.gamma, n_trials=cfg.n_trials,
                                             rng=rng, threads=cfg.threads)
    if cmd == "deviation":
        return experiments.deviation_scan(cfg.alpha0, cfg.gamma)
    if cmd == "visibility":
        return experiments.visibility_scan(tuple(cfg.alphas), parse_grid(cfg.gamma_grid))
    if cmd == "born-again":
        return experiments.dual_mode_scan(cfg.alpha, cfg.gamma)
    if cmd == "antibunch":
        return experiments.antibunching_scan(cfg.gamma, parse_grid(cfg.alpha_grid))
    if cmd == "hyper":
        return experiments.hyperentanglement_scan(cfg.alpha, parse_grid(cfg.gamma_grid))
    if cmd == "mz":
        result = experiments.mach_zehnder(cfg.alpha, cfg.gamma)
        fit = experiments.mach_zehnder_fit(cfg.alpha, cfg.gamma, rng,
                                           n_points=cfg.n_points, sample_size=cfg.sample_size)
        result.meta.update({
            "seed": cfg.seed,
            "fit": {
                "visibility": fit.visibility,
                "r_d": fit.r_d,
                "rmse": fit.rmse,
                "amplitude": fit.fit_amplitude,
                "offset": fit.fit_offset,
                "phase": fit.fit_phase,
            },
            "sample_phis": fit.phis.tolist(),
            "samples": fit.samples.tolist(),
        })
        return result
    if cmd in ("fidelity", "fidelity-mle"):
        method = "linear" if cmd == "fidelity" else "mle"
        psis = None
        if cfg.circuit:
            psis = np.array([_state_from_circuit(cfg.circuit)])
        return tomography.fidelity_scan(parse_grid(cfg.alpha_grid), cfg.gamma,
                                        cfg.n_states, rng, method=method, psis=psis)
    if cmd == "witness":
        psi = _state_from_circuit(cfg.circuit) if cfg.circuit else None
        return tomography.bell_witness_scan(parse_grid(cfg.alpha_grid), cfg.gamma, psi=psi)
    if cmd == "fidelity-contour":
        n_states = 20 if cfg.fast else cfg.n_states
        return tomography.ensemble_sweep(cfg.d, parse_grid(cfg.alpha_grid),
                                         parse_grid(cfg.gamma_grid), n_states,
                                         method="mle", rng=rng)
    if cmd == "visibility-contour":
        a, g = np.meshgrid(parse_grid(cfg.alpha_grid), parse_grid(cfg.gamma_grid), indexing="ij")
        return np.column_stack([a.ravel(), g.ravel(), visibility_single(a, g).ravel()])
    raise BornsimError(f"unknown command {cfg.command!r}")


def _write_visibility_contour(rows, base: Path, fmt: str) -> list[str]:
    import csv as _csv

    files = []
    if fmt in ("csv", "both"):
        path = base.with_suffix(".csv")
        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["alpha", "gamma", "visibility"])
            for a, g, v in rows:
                writer.writerow([repr(float(a)), repr(float(g)), repr(float(v))])
        files.append(path.name)
    if fmt in ("json", "both"):
        path = base.with_suffix(".json")
        _write_json(path, {"rows": [{"alpha": a, "gamma": g, "visibility": v}
                                    for a, g, v in rows]}, sort_keys=False)
        files.append(path.name)
    return files


def run(cfg: RunConfig) -> int:
    """Execute one resolved configuration and write its artifact files."""
    t0 = time.monotonic()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = out_dir / f"{cfg.command}-{cfg.seed}"
    result = _run_scenario(cfg)

    files: list[str] = []
    fmt = cfg.format
    if cfg.command == "visibility-contour":
        files += _write_visibility_contour(result, base, fmt)
    else:
        if fmt in ("csv", "both"):
            result.to_csv(base.with_suffix(".csv"))
            files.append(base.with_suffix(".csv").name)
        if fmt in ("json", "both"):
            result.to_json(base.with_suffix(".json"))
            files.append(base.with_suffix(".json").name)

    manifest = {
        "command": cfg.command,
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in cfg.params.items()},
        "version": __version__,
        "wall_clock_seconds": time.monotonic() - t0,
        "files": files,
    }
    manifest_path = base.parent / f"{base.name}.manifest.json"
    _write_json(manifest_path, manifest)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return run(cfg)
    except BornsimError as exc:
        print(f"bornsim: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"bornsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

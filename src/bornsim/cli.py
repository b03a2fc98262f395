"""Command-line entry point: every experiment as reproducible CSV/JSON data.

One table, COMMANDS, drives the CLI. Each entry names a subcommand's help
text, its parameters (key -> default and flag help) and the runner that
sweeps its scenario in one call; the parser, the config checks and the
dispatch are all built from it, so a parameter lives in exactly one place.
resolve_config checks a whole run first, so a refused run creates nothing;
then run runs it, makes the output directory and writes <command>-<seed>.csv
and/or .json and a manifest (<command>-<seed>.manifest.json) holding the fully
resolved configuration, package version, wall-clock time and the seconds of
the scenario and write stages. Flags override a JSON config file (--config),
which overrides the table defaults. Reruns with the same seed produce
byte-identical data files.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, experiments, tomography
from .detection import visibility_single
from .errors import BornsimError
from .experiments import _chunks, _write_csv, _write_json
from .field import RngStream
from .optics import circuit_from_json

FORMATS = ("csv", "json", "both")
MAX_GRID_POINTS = 1_000_000
MAX_TRIALS = 10 ** 10  # counts' sampled trials: about 2.7 min on one core
MAX_NAME_BYTES = 255  # a file name's limit on common file systems (NAME_MAX)
FAST_STATES = 20


def _decimal_ratio(x: float) -> tuple[int, int]:
    """repr(x), the shortest decimal that reads back as x, as (numerator, denominator)."""
    mantissa, _, exponent = repr(x).partition("e")
    whole, _, decimals = mantissa.partition(".")
    shift = int(exponent or 0) - len(decimals)
    return int(whole + decimals) * 10 ** max(shift, 0), 10 ** max(-shift, 0)


def parse_grid(spec: str) -> np.ndarray:
    """min:step:max grid specification, endpoints inclusive, at most MAX_GRID_POINTS points.

    Point k is (L + k*S) / D rounded once, with L/D, S/D and H/D the shortest decimals of
    min, step and max: the digits written, for numbers of up to 15 significant digits.
    """
    try:
        lo, step, hi = (float(p) for p in str(spec).split(":"))
    except ValueError:
        raise BornsimError(f"bad grid spec {spec!r}; expected min:step:max") from None
    if not all(map(math.isfinite, (lo, step, hi))) or step <= 0 or hi < lo:
        raise BornsimError(f"bad grid spec {spec!r}; need finite values, step > 0 and max >= min")
    ratios = [_decimal_ratio(v) for v in (lo, step, hi)]
    den = math.lcm(*(d for _, d in ratios))
    low, step_n, high = (n * (den // d) for n, d in ratios)
    count = (high - low) // step_n + 1
    if count > MAX_GRID_POINTS:
        raise BornsimError(f"bad grid spec {spec!r}; more than {MAX_GRID_POINTS:,} points")
    grid = np.fromiter(((low + k * step_n) / den for k in range(count)), float, count)
    if not (step >= math.ulp(max(abs(lo), abs(hi))) and np.all(np.diff(grid) > 0.0)):
        raise BornsimError(f"bad grid spec {spec!r}; points merge")
    return grid


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """One subparser per COMMANDS entry; each flag, type and default comes from the table.

    When argv's first word names a command, only that command's subparser is built, and
    the command list in the usage line is still spelled in full, so every usage, help and
    error text is the full parser's. A flag must be spelled in full: an abbreviation such
    as --n for --n-states is a usage error, not a silent match.
    """
    parser = argparse.ArgumentParser(
        prog="bornsim", description="Vacuum-noise threshold-detection experiments as CSV/JSON data.",
        allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"bornsim {__version__}")
    named = bool(argv) and argv[0] in COMMANDS
    # a metavar would also rename the argument in the full parser's "required" error
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}" if named else None)
    for name in argv[:1] if named else COMMANDS:
        command = COMMANDS[name]
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for key, (default, text) in {**command.params, **COMMON}.items():
            shown = ",".join(map(str, default)) if isinstance(default, list) else default
            kwargs = {"dest": key, "default": None, "help": f"{text} (default {shown})"}
            if isinstance(default, bool):
                kwargs["action"] = "store_true"
            elif key == "format":
                kwargs["choices"] = FORMATS
            elif isinstance(default, (int, float)):
                kwargs["type"] = type(default)
            flag = "--n" if key == "n_trials" else "--" + key.replace("_", "-")
            p.add_argument(flag, **kwargs)
        p.add_argument("--config", help="JSON config file; flags override it")
    return parser


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list of numbers", type(None): "a file path or null"}


def _has_default_type(value, default) -> bool:
    """Whether a parameter value has the type of its default; ints stand for floats."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_has_default_type(v, 0.0) for v in value)
    kinds = {type(None): (str, type(None)), float: (int, float)}.get(type(default), type(default))
    return isinstance(value, kinds) and isinstance(value, bool) == isinstance(default, bool)


def resolve_config(args: argparse.Namespace) -> tuple[dict, dict]:
    """Check a whole run and resolve it into (cfg, values).

    cfg is defaults < config file < explicit flags, plus the command name, as the
    manifest records it; values is what the runner takes: every *_grid parsed,
    n_states as measured (FAST_STATES under --fast, 1 under --circuit) and psi, the
    state a circuit prepares. Checked here: keys, types, finite numbers, the seed
    and n_states (also where unused or overridden), the output file names' length
    (MAX_NAME_BYTES), gamma > 0 where the scenario is undefined at gamma = 0, and
    the run's size (MAX_GRID_POINTS, MAX_TRIALS).
    """
    command = args.command
    defaults = {k: default for k, (default, _) in {**COMMON, **COMMANDS[command].params}.items()}
    params = dict(defaults)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            file_params = json.loads(Path(cfg_path).read_text())
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or a >4300-digit int
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
        if isinstance(defaults[key], (float, list)):  # a number, or a list of numbers
            bad = [v for v in (value if isinstance(value, list) else [value])
                   if not abs(v) <= sys.float_info.max]  # nan, inf, or an int beyond the floats
            if bad:
                raise BornsimError(f"config key {key!r} must be finite (got {bad[0]!r})")
    if params["format"] not in FORMATS:
        raise BornsimError(f"config key 'format' must be one of {', '.join(FORMATS)} "
                           f"(got {params['format']!r})")
    if params["seed"] < 0:  # RngStream's rule, checked here for the commands that never draw
        raise BornsimError("seed and stream_id must be nonnegative")
    name_bytes = len(f"{command}-{params['seed']}.manifest.json".encode())
    if name_bytes > MAX_NAME_BYTES:
        raise BornsimError(f"output file name {command}-<seed>.manifest.json would be "
                           f"{name_bytes} bytes; the limit is {MAX_NAME_BYTES}")
    if params.get("n_states", 1) < 1:
        raise BornsimError("n_states must be >= 1")

    values = {k: parse_grid(v) if k.endswith("_grid") else v for k, v in params.items()}
    for key in ("gamma", "gamma_grid") if COMMANDS[command].positive_gamma else ():
        bad = [g for g in np.atleast_1d(values.get(key, ())) if not g > 0]
        if bad:
            raise BornsimError(f"config key {key!r} must be > 0 for {command}, where "
                               f"every mode clicks at gamma = 0 (got {bad[0]:g})")
    if values.get("fast"):
        values["n_states"] = FAST_STATES
    if values.get("circuit") is not None:
        psi = circuit_from_json(values["circuit"], d=4)[:, 0]  # prepared from mode 1
        values["psi"] = psi / np.linalg.norm(psi)
        if "n_states" in values:  # its one state replaces the ensemble
            values["n_states"] = 1
    sizes = {k: len(v) for k, v in values.items() if k.endswith("_grid") or k == "alphas"}
    sizes.update((k, values[k]) for k in ("n_states", "n_points") if k in values)
    points = math.prod(sizes.values())
    if points > MAX_GRID_POINTS:
        raise BornsimError(f"{command} would evaluate {points:,} points "
                           f"({' x '.join(sizes)}); the limit is {MAX_GRID_POINTS:,}")
    angles = len(experiments.DEFAULT_THETA_GRID_DEG)
    trials = angles * values.get("n_trials", 0)
    if trials > MAX_TRIALS:
        raise BornsimError(f"{command} would draw {trials:,} trials "
                           f"({angles} angles x n_trials); the limit is {MAX_TRIALS:,}")
    return {"command": command, **params}, values


# ---------------------------------------------------------------------------
# The command table
# ---------------------------------------------------------------------------

def _fidelity(p, method: str):
    return tomography.fidelity_scan(p["alpha_grid"], p["gamma"], p["n_states"],
                                    RngStream(p["seed"]), method=method,
                                    psis=p["psi"][None] if "psi" in p else None)


def _visibility_contour(p):
    a, g = p["alpha_grid"][:, None], p["gamma_grid"]
    v = visibility_single(a, g)
    return np.column_stack([np.broadcast_to(x, v.shape).ravel() for x in (a, g, v)])


class Command(NamedTuple):
    """Help, parameters (key -> (default, flag help)), runner (resolve_config's values:
    the parameters with *_grid parsed, n_states as measured, and psi with a circuit),
    and whether gamma = 0 must be rejected.

    Only a runner that draws builds RngStream(p["seed"]); the others never load
    numpy.random.
    """

    help: str
    params: dict
    run: Callable
    positive_gamma: bool = True


COMMON = {"seed": (42, "random seed"), "out_dir": (".", "output directory"),
          "format": ("both", "data file format")}
GAMMA = (1.0, "detection threshold")
ALPHA_GRID = "amplitude grid min:step:max"
GAMMA_GRID = "threshold grid min:step:max"
ENSEMBLE = "Haar ensemble size"
CIRCUIT = (None, "circuit JSON; probe the state it prepares from mode 1")

COMMANDS: dict[str, Command] = {
    "counts": Command(
        "single-detector counts vs polarizer angle",
        {"alpha0": (0.707, "peak amplitude"), "gamma": GAMMA,
         "n_trials": (10_000, "trials per angle")},
        lambda p: experiments.polarization_scan(p["alpha0"], p["gamma"],
                                                rng=RngStream(p["seed"]),
                                                n_trials=p["n_trials"]),
        positive_gamma=False),
    "deviation": Command(
        "normalized detection curve vs squared-cosine law",
        {"alpha0": (1.0, "peak amplitude"), "gamma": GAMMA},
        lambda p: experiments.deviation_scan(p["alpha0"], p["gamma"])),
    "visibility": Command(
        "fringe visibility vs threshold",
        {"alphas": ([0.5, 1.0, 1.5], "comma-separated amplitudes"),
         "gamma_grid": ("0.05:0.05:3", GAMMA_GRID)},
        lambda p: experiments.visibility_scan(tuple(p["alphas"]), p["gamma_grid"]),
        positive_gamma=False),
    "born-again": Command(
        "dual-mode post-selected polarization test",
        {"alpha": (math.sqrt(0.5), "amplitude"), "gamma": GAMMA},
        lambda p: experiments.dual_mode_scan(p["alpha"], p["gamma"])),
    "antibunch": Command(
        "beam-splitter coincidence ratios vs amplitude",
        {"gamma": GAMMA, "alpha_grid": ("0:0.01:3", ALPHA_GRID)},
        lambda p: experiments.antibunching_scan(p["gamma"], p["alpha_grid"])),
    "hyper": Command(
        "four-mode single-click probabilities vs threshold",
        {"alpha": (1.0, "amplitude"), "gamma_grid": ("0.05:0.05:3", GAMMA_GRID)},
        lambda p: experiments.hyperentanglement_scan(p["alpha"], p["gamma_grid"])),
    "mz": Command(
        "Mach-Zehnder interference and fringe-fit analysis",
        {"alpha": (0.95, "amplitude"), "gamma": (1.6, GAMMA[1]),
         "n_points": (25, "fitted sample count"), "sample_size": (2600, "photons per sample")},
        lambda p: experiments.mach_zehnder_fit(p["alpha"], p["gamma"], RngStream(p["seed"]),
                                               n_points=p["n_points"],
                                               sample_size=p["sample_size"])),
    "fidelity": Command(
        "linear-inversion tomography fidelity vs amplitude",
        {"gamma": GAMMA, "alpha_grid": ("0:0.1:3", ALPHA_GRID), "n_states": (30, ENSEMBLE),
         "circuit": CIRCUIT},
        lambda p: _fidelity(p, "linear")),
    "fidelity-mle": Command(
        "constrained tomography fidelity vs amplitude",
        {"gamma": GAMMA, "alpha_grid": ("0:0.1:3", ALPHA_GRID), "n_states": (5, ENSEMBLE),
         "circuit": CIRCUIT},
        lambda p: _fidelity(p, "mle")),
    "witness": Command(
        "PPT witness of the reconstructed Bell state",
        {"gamma": GAMMA, "alpha_grid": ("0:0.1:3", ALPHA_GRID), "circuit": CIRCUIT},
        lambda p: tomography.bell_witness_scan(p["alpha_grid"], p["gamma"], psi=p.get("psi"))),
    "fidelity-contour": Command(
        "mean tomography fidelity over (alpha, gamma)",
        {"alpha_grid": ("0.25:0.25:3", ALPHA_GRID), "gamma_grid": ("0.25:0.25:3", GAMMA_GRID),
         "n_states": (100, ENSEMBLE),
         "fast": (False, f"reduced ensemble ({FAST_STATES} states)")},
        lambda p: tomography.ensemble_sweep(p["alpha_grid"], p["gamma_grid"], p["n_states"],
                                            RngStream(p["seed"]))),
    "visibility-contour": Command(
        "fringe visibility over (alpha, gamma)",
        {"alpha_grid": ("0.05:0.05:3", ALPHA_GRID), "gamma_grid": ("0.05:0.05:3", GAMMA_GRID)},
        _visibility_contour, positive_gamma=False),
}


def _run_scenario(command: str, values: dict):
    # kept as a function because benchmarks/tracing.py binds it (until ROADMAP item 8)
    return COMMANDS[command].run(values)


def _write_visibility_contour(rows, base: Path, fmt: str) -> list[str]:
    names = ("alpha", "gamma", "visibility")
    files = []
    if fmt in ("csv", "both"):
        path = base.with_suffix(".csv")
        _write_csv(path, dict(zip(names, rows.T)))
        files.append(path.name)
    if fmt in ("json", "both"):
        path = base.with_suffix(".json")
        records = (dict(zip(names, row)) for chunk in _chunks(rows) for row in chunk)
        _write_json(path, {"rows": records})
        files.append(path.name)
    return files


def run(cfg: dict, values: dict) -> int:
    """Run resolve_config's (cfg, values); only then make the directory and write."""
    t0 = time.monotonic()
    result = _run_scenario(cfg["command"], values)
    scenario_seconds = time.monotonic() - t0
    base = Path(cfg["out_dir"]) / f"{cfg['command']}-{cfg['seed']}"
    base.parent.mkdir(parents=True, exist_ok=True)
    t_write = time.monotonic()

    files: list[str] = []
    fmt = cfg["format"]
    if cfg["command"] == "visibility-contour":
        files += _write_visibility_contour(result, base, fmt)
    else:
        if fmt in ("csv", "both"):
            result.to_csv(base.with_suffix(".csv"))
            files.append(base.with_suffix(".csv").name)
        if fmt in ("json", "both"):
            result.to_json(base.with_suffix(".json"))
            files.append(base.with_suffix(".json").name)

    t_end = time.monotonic()
    manifest = {
        "command": cfg["command"],
        "config": {k: v for k, v in cfg.items() if k != "command"},
        "version": __version__,
        "wall_clock_seconds": t_end - t0,
        "stage_seconds": {"scenario": scenario_seconds, "write": t_end - t_write},
        "files": files,
    }
    manifest_path = base.parent / f"{base.name}.manifest.json"
    _write_json(manifest_path, manifest)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command line; 0 on success, 1 for a refused or failed run, SystemExit(2) for a
    usage error (and SystemExit(0) after --help or --version).

    Without argv, as the process entry point (python -m bornsim.cli, the bornsim script),
    it reads sys.argv and, on every exit, freezes the objects alive (gc.freeze), so that
    the interpreter's exit does not collect the import graph it is about to drop.
    """
    words = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(words).parse_args(words)
        try:
            return run(*resolve_config(args))
        except (BornsimError, OSError) as exc:
            print(f"bornsim: error: {exc}", file=sys.stderr)
            return 1
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())

"""Correctness of one command's output files against the seed-commit reference.

``reference/<command>-42.csv`` holds each command's CSV as the seed commit
wrote it for seed 42. Every column has a rule:

* grid columns must equal the reference exactly, for every seed;
* seed-independent analytic columns must match the reference within
  ``|x - ref| <= ANALYTIC_RTOL * |ref| + ANALYTIC_ATOL`` for every seed. This
  admits last-digit drift from a vectorized Marcum Q (summation order) and
  rejects anything a wrong formula or grid would produce;
* tomography columns must match within ``FIDELITY_ATOL`` (fidelities and
  fractions) or ``EIGEN_ATOL`` (eigenvalues: witness, minimum eigenvalue).
  The closed-form constrained fit moves fidelities by at most 6.1e-8 and
  density-matrix entries by at most 6.9e-8, so eigenvalues of a 4x4 matrix
  by at most 4 * 6.9e-8. Seeded tomography columns (random ensembles) are
  compared only for the reference seed; for any seed fidelities and
  fractions must lie in [0, 1];
* Monte Carlo ``counts`` must equal the reference exactly for the reference
  seed and lie within 5 binomial standard errors of the ``analytic`` column
  at every angle for any seed.

The JSON data file and the manifest must exist and parse.
"""

from __future__ import annotations

import csv
import fnmatch
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 42

ANALYTIC_RTOL = 1e-12
ANALYTIC_ATOL = 1e-14
FIDELITY_ATOL = 1e-7
EIGEN_ATOL = 3e-7
RANGE_SLACK = 1e-12
COUNTS_SIGMAS = 5.0


@dataclass(frozen=True)
class Rule:
    rtol: float = 0.0
    atol: float = 0.0
    seeded: bool = False        # compare with the reference only for REFERENCE_SEED
    unit_range: bool = False    # values must lie in [0, 1] for every seed
    binomial: bool = False      # Monte Carlo counts checked against ``analytic``


GRID = Rule()
ANALYTIC = Rule(rtol=ANALYTIC_RTOL, atol=ANALYTIC_ATOL)
FIDELITY = Rule(atol=FIDELITY_ATOL, unit_range=True)
SEEDED_FIDELITY = Rule(atol=FIDELITY_ATOL, seeded=True, unit_range=True)
EIGEN = Rule(atol=EIGEN_ATOL)
SEEDED_EIGEN = Rule(atol=EIGEN_ATOL, seeded=True)
COUNTS = Rule(seeded=True, binomial=True)

# Column rules per command; the first matching pattern wins.
RULES: dict[str, list[tuple[str, Rule]]] = {
    "fidelity-contour": [("alpha", GRID), ("gamma", GRID), ("mean_visibility", ANALYTIC),
                         ("mean_ppt_witness", SEEDED_EIGEN), ("*", SEEDED_FIDELITY)],
    "fidelity-mle": [("alpha", GRID), ("*", SEEDED_FIDELITY)],
    "witness": [("alpha", GRID), ("fidelity", FIDELITY), ("*", EIGEN)],
    "visibility-contour": [("alpha", GRID), ("gamma", GRID), ("*", ANALYTIC)],
    "visibility": [("gamma", GRID), ("*", ANALYTIC)],
    "antibunch": [("alpha", GRID), ("*", ANALYTIC)],
    "born-again": [("theta_deg", GRID), ("*", ANALYTIC)],
    "hyper": [("gamma", GRID), ("*", ANALYTIC)],
    "counts": [("theta_deg", GRID), ("counts", COUNTS), ("*", ANALYTIC)],
    "mz": [("phi", GRID), ("*", ANALYTIC)],
}


def rule_for(command: str, column: str) -> Rule:
    for pattern, rule in RULES[command]:
        if fnmatch.fnmatchcase(column, pattern):
            return rule
    raise KeyError(f"{command}: no rule for column {column!r}")


def read_csv(path: Path) -> tuple[list[str], dict[str, list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    columns = {name: [float(row[i]) for row in rows[1:]] for i, name in enumerate(header)}
    return header, columns


def _close(x: float, ref: float, rule: Rule) -> bool:
    if math.isnan(ref):
        return math.isnan(x)
    return abs(x - ref) <= rule.rtol * abs(ref) + rule.atol


def _binomial_errors(counts: list[float], analytic: list[float], n_trials: int) -> list[str]:
    errors = []
    for i, (k, mean) in enumerate(zip(counts, analytic)):
        p = mean / n_trials
        sigma = math.sqrt(n_trials * p * (1.0 - p))
        if abs(k - mean) > COUNTS_SIGMAS * sigma:
            errors.append(f"counts row {i}: {k:g} is {abs(k - mean) / sigma:.1f} standard "
                          f"errors from analytic {mean:g}")
    return errors


def check_csv(command: str, path: Path, reference: Path, seed: int,
              n_trials: int | None = None) -> list[str]:
    """Differences between one output CSV and its reference, as messages."""
    header, cols = read_csv(path)
    ref_header, ref = read_csv(reference)
    if header != ref_header:
        return [f"{path.name}: header {header} differs from reference {ref_header}"]
    errors = []
    for name in header:
        rule = rule_for(command, name)
        values, expected = cols[name], ref[name]
        if len(values) != len(expected):
            errors.append(f"{path.name}: {len(values)} rows, reference has {len(expected)}")
            break
        if rule.unit_range:
            bad = [v for v in values if not -RANGE_SLACK <= v <= 1.0 + RANGE_SLACK]
            if bad:
                errors.append(f"{path.name}: column {name} leaves [0, 1] ({bad[0]!r})")
        if rule.binomial:
            errors += _binomial_errors(values, cols["analytic"], n_trials)
        if rule.seeded and seed != REFERENCE_SEED:
            continue
        for i, (x, r) in enumerate(zip(values, expected)):
            if not _close(x, r, rule):
                errors.append(f"{path.name}: column {name} row {i}: {x!r} != reference {r!r}")
                break
    return errors


def _n_trials(args: list[str]) -> int | None:
    return int(args[args.index("--n") + 1]) if "--n" in args else None


def check_command(args: list[str], out_dir: Path, seed: int) -> list[str]:
    """All problems with the files one workload command wrote into ``out_dir``."""
    command = args[0]
    base = f"{command}-{seed}"
    errors = []
    for suffix in (".json", ".manifest.json"):
        path = out_dir / (base + suffix)
        try:
            json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            errors.append(f"{path.name}: {exc}")
    csv_path = out_dir / (base + ".csv")
    if not csv_path.is_file():
        return errors + [f"{csv_path.name}: missing"]
    try:
        errors += check_csv(command, csv_path, REFERENCE_DIR / f"{command}-{REFERENCE_SEED}.csv",
                            seed, _n_trials(args))
    except (ValueError, IndexError) as exc:
        errors.append(f"{csv_path.name}: unreadable ({exc})")
    return errors

#!/usr/bin/env python3
"""Check that two source trees write byte-identical data files and manifests.

    python3 scripts/same_outputs.py OLD_SRC NEW_SRC [--seeds 42,101,...] [--commands ...]

OLD_SRC and NEW_SRC are directories that hold a ``bornsim`` package, such as
the ``src/`` of two checkouts. Every run is a fresh ``python -m bornsim.cli``
process, once under each tree and once per seed. By default the runs are
every command of ``cli.COMMANDS`` (in NEW_SRC) with its defaults, plus
``counts --n 200000``, ``fidelity-contour --fast``, and ``fidelity``,
``fidelity-mle`` and ``witness`` with ``--circuit`` set to a Bell-state circuit
that the script writes into its temporary directory; ``--commands`` replaces
them with a comma-separated list of command lines, such as
``"fidelity-contour --fast,witness"``. Every file a run writes is compared
byte for byte; a manifest after masking what differs from run to run: the
values of ``wall_clock_seconds`` and ``out_dir``, and the whole
``stage_seconds`` member (its ``scenario`` and ``write`` keys checked), which
trees older than it do not write. The files that differ are printed, and the
exit code is 1 on any difference or failed run. Each run's line also gives the
peak resident set size and the wall time of both processes, old first, from
``os.wait4`` (ru_maxrss, in KiB on Linux). The tree that runs first alternates
from run to run, so that neither side's times always come from the process
that starts on a cold file cache or a quieter host.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

EXTRA_RUNS = ["counts --n 200000", "fidelity-contour --fast"]
CIRCUIT_COMMANDS = ["fidelity", "fidelity-mle", "witness"]
# prepares the Bell direction (|RH> + |DV>)/sqrt(2) from mode 1
BELL_CIRCUIT = [{"gate": "hadamard", "wires": [0, 2]},
                {"gate": "hadamard", "wires": [1, 3]},
                {"gate": "x", "wires": [2, 3]}]


def _env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def default_runs(src: Path, circuit: Path) -> list[str]:
    """Every command of the tree's table with its defaults, then EXTRA_RUNS, then
    CIRCUIT_COMMANDS reading the circuit file ``circuit``."""
    listing = subprocess.run(
        [sys.executable, "-c", "import bornsim.cli as c; print('\\n'.join(c.COMMANDS))"],
        env=_env(src), capture_output=True, text=True, check=True)
    return (listing.stdout.split() + EXTRA_RUNS
            + [f"{command} --circuit {circuit}" for command in CIRCUIT_COMMANDS])


def run_tree(src: Path, run: str, seed: int, out_dir: Path) -> tuple[str | None, float, float]:
    """One fresh CLI process: (None on success, else its last stderr line;
    its peak RSS in MiB; its wall time in s)."""
    argv = [sys.executable, "-m", "bornsim.cli", *run.split(),
            "--seed", str(seed), "--format", "both", "--out-dir", str(out_dir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=_env(src), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    with proc.stderr:
        stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    peak = usage.ru_maxrss / 1024
    if proc.returncode == 0:
        return None, peak, wall
    return (stderr.strip().splitlines() or [f"exit code {proc.returncode}"])[-1], peak, wall


# what a manifest's bytes may differ in between two runs of the same command
MANIFEST_MASKS = [(re.compile(rb'("wall_clock_seconds": )[^,\n]+'), rb"\1..."),
                  (re.compile(rb'("out_dir": )"(?:[^"\\]|\\.)*"'), rb"\1..."),
                  (re.compile(rb'\n *"stage_seconds": \{\n *"scenario": [^,\n]+,'
                              rb'\n *"write": [^,\n]+\n *\},?'), b"")]


def compared_bytes(path: Path) -> bytes:
    """A file's bytes; a manifest's with MANIFEST_MASKS applied."""
    data = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        for pattern, mask in MANIFEST_MASKS:
            data = pattern.sub(mask, data)
    return data


def differing_files(old_dir: Path, new_dir: Path) -> list[str]:
    """Names of the files missing from one directory or differing in compared_bytes."""
    old = {p.name: p for p in old_dir.iterdir()}
    new = {p.name: p for p in new_dir.iterdir()}
    return sorted(name for name in old.keys() | new.keys()
                  if name not in old or name not in new
                  or compared_bytes(old[name]) != compared_bytes(new[name]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seeds", default="42", help="comma-separated seeds (default 42)")
    parser.add_argument("--commands", help="comma-separated command lines (default: every "
                                           "command, counts --n 200000, fidelity-contour "
                                           "--fast, three --circuit runs)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    bad = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        circuit = Path(tmp, "bell.json")
        circuit.write_text(json.dumps(BELL_CIRCUIT))
        runs = ([r.strip() for r in args.commands.split(",")] if args.commands
                else default_runs(args.new_src, circuit))
        for i, seed in enumerate(seeds):
            for n, run in enumerate(runs):
                dirs = [Path(tmp, side, str(seed), str(n)) for side in ("old", "new")]
                sides = list(zip((args.old_src, args.new_src), dirs))
                step = 1 if (len(runs) * i + n) % 2 == 0 else -1  # -1: the new tree first
                results = [run_tree(src, run, seed, d) for src, d in sides[::step]][::step]
                errors = [error for error, _, _ in results]
                label = f"seed {seed}: {run}  [" + " | ".join(
                    f"{side} {peak:.1f} MiB {wall:.3f} s"
                    for side, (_, peak, wall) in zip(("old", "new"), results)) + "]"
                if any(errors):
                    bad += 1
                    print(f"FAILED  {label}: " + " | ".join(e or "ok" for e in errors))
                    continue
                diff = differing_files(*dirs)
                bad += bool(diff)
                print(f"{'DIFFERS' if diff else 'same':<7} {label}"
                      + "".join(f"\n        {name}" for name in diff))
    print(f"{bad} of {len(seeds) * len(runs)} runs differ or failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Every data file of the default runs keeps its bytes.

The runs are scripts/same_outputs.py's defaults at seed 42: every command of
cli.COMMANDS with its defaults, its EXTRA_RUNS, and its CIRCUIT_COMMANDS
reading the Bell-state circuit, each made in-process through cli.main.
output_digests.json holds, for every file they write except the manifests,
its SHA-256 and a fingerprint of its numbers (count, sum, sum of magnitudes),
beside the Python, numpy, BLAS and SIMD environment they were recorded in.

In that environment every SHA-256 must match. In another one a BLAS kernel or
SIMD path may move float results in the last bits, so the test prints which
environment fields differ and checks each fingerprint to a relative 1e-6
instead (one Monte Carlo click flipped in a million). It never skips.

To record the digests again after a deliberate change of outputs:

    PYTHONPATH=src python tests/test_output_digests.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import re
import sys
from pathlib import Path

import numpy as np

from bornsim import cli
from test_scripts import same_outputs

DIGESTS = Path(__file__).with_name("output_digests.json")
FINGERPRINT_RTOL = 1e-6
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "simd": config["SIMD Extensions"]["found"]}


def fingerprint(text: str) -> list[float]:
    """Count, sum and sum of magnitudes of every number written in the text."""
    values = np.array([float(v) for v in NUMBER.findall(text)])
    return [values.size, float(values.sum()), float(np.abs(values).sum())]


def write_digests(out_dir: Path) -> dict[str, dict[str, dict]]:
    """{run: {file name: {"sha256", "values"}}} of every non-manifest file each run writes."""
    circuit = out_dir / "bell.json"
    circuit.write_text(json.dumps(same_outputs.BELL_CIRCUIT))
    runs = (list(cli.COMMANDS) + same_outputs.EXTRA_RUNS
            + [f"{name} --circuit" for name in same_outputs.CIRCUIT_COMMANDS])
    digests = {}
    for n, run in enumerate(runs):
        argv = run.split() + ([str(circuit)] if run.endswith("--circuit") else [])
        d = out_dir / str(n)
        assert cli.main(argv + ["--seed", "42", "--format", "both", "--out-dir", str(d)]) == 0, run
        digests[run] = {
            p.name: {"sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
                     "values": fingerprint(p.read_text())}
            for p in sorted(d.iterdir()) if not p.name.endswith(".manifest.json")}
    return digests


def test_default_runs_keep_their_bytes(tmp_path, capsys):
    recorded = json.loads(DIGESTS.read_text())
    written = write_digests(tmp_path)
    assert {run: sorted(files) for run, files in written.items()} == \
        {run: sorted(files) for run, files in recorded["files"].items()}
    here = environment()
    differs = sorted(k for k in recorded["environment"].keys() | here.keys()
                     if recorded["environment"].get(k) != here.get(k))
    if not differs:
        changed = [f"{run}: {name}" for run, files in written.items()
                   for name, digest in files.items()
                   if digest["sha256"] != recorded["files"][run][name]["sha256"]]
        assert not changed, changed
        return
    with capsys.disabled():
        print(f"\n{DIGESTS.name}: recorded with "
              f"{ {k: recorded['environment'].get(k) for k in differs} }, running with "
              f"{ {k: here.get(k) for k in differs} }; checking each file's number count "
              f"and sums to rtol {FINGERPRINT_RTOL:g} instead of its SHA-256")
    moved = [f"{run}: {name}" for run, files in written.items()
             for name, digest in files.items()
             if not np.allclose(digest["values"], recorded["files"][run][name]["values"],
                                rtol=FINGERPRINT_RTOL, atol=0.0)]
    assert not moved, moved


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        files = write_digests(Path(tmp))
    DIGESTS.write_text(json.dumps({"environment": environment(), "files": files}, indent=1) + "\n")
    print(f"wrote {DIGESTS} ({sum(map(len, files.values()))} files)", file=sys.stderr)

"""Workload definitions and the untraced pass runner.

A workload is a fixed list of CLI commands. One pass runs every command of
the workload as a fresh ``python -m bornsim.cli`` process, one after another,
the way ``scripts/reproduce_all.sh`` does, so each command pays its own
interpreter start and package import. Every command runs with its default
parameters plus ``--seed <seed> --format both`` and the default ``--threads``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A command slower than this is killed and counts as failed, so one hung
# process cannot hold a run past its time limit.
CHILD_TIMEOUT_S = 120.0

# Why each workload exists is recorded in README.md next to this file.
WORKLOADS: dict[str, list[list[str]]] = {
    "tomography-contour": [["fidelity-contour", "--fast"], ["fidelity-mle"], ["witness"]],
    "analytic-scans": [["visibility-contour"], ["visibility"], ["antibunch"],
                       ["born-again"], ["hyper"]],
    "monte-carlo": [["counts", "--n", "200000"], ["mz"]],
}


def source_tree_present() -> bool:
    return (SRC / "bornsim" / "cli.py").is_file()


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's sources first, default threads.

    BLAS thread variables are passed through untouched (they are recorded,
    not pinned); BORNSIM_THREADS is dropped so ``--threads`` keeps its default.
    """
    env = dict(os.environ)
    env.pop("BORNSIM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_args(args: list[str], seed: int, out_dir: Path) -> list[str]:
    """Arguments after ``bornsim.cli`` for one workload command."""
    return [*args, "--seed", str(seed), "--format", "both", "--out-dir", str(out_dir)]


@dataclass
class ProcessRun:
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    exit_code: int


def run_process(argv: list[str], stderr_path: Path) -> ProcessRun:
    """Run one child to completion; wall time plus its rusage from wait4."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessRun(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      maxrss_mib=usage.ru_maxrss / 1024.0, exit_code=proc.returncode)


def time_import() -> ProcessRun:
    """One fresh interpreter importing bornsim.cli (the set-up every command pays)."""
    return run_process([sys.executable, "-c", "import bornsim.cli"], Path(os.devnull))


@dataclass
class PassResult:
    """One pass: the commands' summed wall time and what went wrong."""

    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    attempted: int
    failures: list[str] = field(default_factory=list)


def fresh_dir(path: Path) -> Path:
    """Empty ``path`` so a file a command failed to write cannot be an old one."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_pass(commands: list[list[str]], seed: int, out_dir: Path) -> PassResult:
    """Run every command as a fresh process, then check every output."""
    fresh_dir(out_dir)
    runs = []
    for args in commands:
        argv = [sys.executable, "-m", "bornsim.cli", *cli_args(args, seed, out_dir)]
        runs.append(run_process(argv, out_dir / f"{args[0]}.stderr"))
    failures = []
    for args, proc in zip(commands, runs):
        if proc.exit_code != 0:
            err = (out_dir / f"{args[0]}.stderr").read_text(errors="replace").strip()
            last = err.splitlines()[-1] if err else ""
            failures.append(f"{args[0]}: exit code {proc.exit_code} {last}".rstrip())
            continue
        errors = checks.check_command(args, out_dir, seed)
        if errors:
            failures.append(f"{args[0]}: " + "; ".join(errors[:3]))
    return PassResult(
        wall_s=sum(p.wall_s for p in runs),
        cpu_s=sum(p.cpu_s for p in runs),
        peak_rss_mib=max(p.maxrss_mib for p in runs),
        attempted=len(commands),
        failures=failures,
    )

"""bornsim benchmark: end-to-end CLI timings, or one traced per-layer run.

    python3 benchmarks/run.py --workload analytic-scans --seed 42 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seconds 0          # every workload, one pass
    python3 benchmarks/run.py --workload monte-carlo --trace 1    # per-layer metrics

Run from anywhere; the program under test is ``src/bornsim`` of the checkout
this file lives in. Outputs go to ``.bench_out/`` in that checkout. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
from workloads import (ROOT, SRC, WORKLOADS, child_env, cli_args, fresh_dir, run_pass,
                       source_tree_present, time_import)

OUT = ROOT / ".bench_out"
SETUP_IMPORTS = 3

# Exact counts of the seed commit for seed 42, checked by every traced run
# with that seed. The optimizations the ROADMAP plans (vectorized Marcum Q,
# batched tomography) are expected to change the first two; a mismatch is
# reported loudly, and a missed binding is caught by tracing.verify_bindings.
SEED_COMMIT_COUNTS = {
    "analytic-scans": {"detection.marcum_q1.calls": 4864},
    "tomography-contour": {"tomography.mle_qst.calls": 3066},
    "monte-carlo": {"field.complex_normals.draws": 36_200_000},
}

ENV_SCRIPT = r"""
import ctypes, json, os, platform
import numpy, scipy
import bornsim.cli
blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
threads = {}
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads[os.path.basename(path)] = fn()
            break
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads},
    "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS") if k in os.environ},
    "nproc": len(os.sched_getaffinity(0)),
}))
"""


def environment(seed: int) -> dict:
    """Versions, BLAS and its thread count as the children see them, plus the seed.

    ``src_sha256`` identifies the program where the checkout has no git
    history. The child imports bornsim.cli, which also writes the bytecode
    caches that users pay for once per install, before any import is timed.
    """
    proc = subprocess.run([sys.executable, "-c", ENV_SCRIPT], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    env = json.loads(proc.stdout) if proc.returncode == 0 else {"error": proc.stderr[-500:]}
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        sha = git.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": source_digest(), **env, "seed": seed}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bornsim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    """Set-up time, then passes of fresh CLI processes for about ``seconds``.

    The bytecode caches are already warm: ``environment`` imported the package.
    """
    imports = [time_import().wall_s for _ in range(SETUP_IMPORTS)]
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(WORKLOADS[workload], seed, OUT / workload / "pass"))
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - t0 + typical / 2 >= seconds:
            break
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    return {
        "workload": workload,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": [f for p in passes for f in p.failures],
        "metrics": {
            "wall_s": _metric(statistics.median(p.wall_s for p in passes), "s"),
            "setup_s": _metric(statistics.median(imports), "s"),
            "peak_rss_mib": _metric(statistics.median(p.peak_rss_mib for p in passes), "MiB"),
        },
        "samples": {"wall_s": [p.wall_s for p in passes], "setup_s": imports,
                    "peak_rss_mib": [p.peak_rss_mib for p in passes]},
    }


def in_process_pass(main, commands: list[list[str]], seed: int, out_dir: Path):
    """Every command through ``bornsim.cli.main`` in this process; (wall, failures)."""
    fresh_dir(out_dir)
    wall, failures = 0.0, []
    for args in commands:
        t = time.perf_counter()
        try:
            code = main(cli_args(args, seed, out_dir))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is one failed command, as in a child process
            traceback.print_exc()
            code = f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - t
        errors = [f"exit code {code}"] if code else checks.check_command(args, out_dir, seed)
        if errors:
            failures.append(f"{args[0]}: " + "; ".join(errors[:3]))
    return wall, failures


def traced_run(workload: str, seed: int) -> dict:
    """Per-layer metrics: one untraced child pass, one untraced and one traced in-process pass."""
    commands = WORKLOADS[workload]
    out = OUT / workload / "trace"
    children = run_pass(commands, seed, out / "children")
    os.environ.pop("BORNSIM_THREADS", None)
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import bornsim.cli
    import_s = time.perf_counter() - t
    untraced_s, untraced_fail = in_process_pass(bornsim.cli.main, commands, seed, out / "untraced")
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        traced_s, traced_fail = in_process_pass(bornsim.cli.main, commands, seed, out / "traced")
    finally:
        restore()
    tracer.dump(out / "spans.jsonl")

    metrics = tracing.layer_metrics(tracer)
    metrics.update({
        "cli.import_s": (import_s, "s"),
        "cli.cpu_s": (children.cpu_s, "s"),
        "cli.cpu_per_wall": (children.cpu_s / children.wall_s, "ratio"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    })
    failures = children.failures + untraced_fail + traced_fail
    repeat = _repeat_check(workload, seed, metrics)
    _fingerprint_check(workload, seed, metrics)
    return {
        "workload": workload,
        "correct": not failures and not repeat,
        "attempted": 3 * len(commands),
        "failed": len(failures),
        "failures": failures + repeat,
        "metrics": {name: _metric(v, unit) for name, (v, unit) in metrics.items()},
    }


def _repeat_check(workload: str, seed: int, metrics: dict) -> list[str]:
    """Counts are deterministic: compare with the previous traced run of the same sources."""
    counts = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "byte")}
    path = OUT / f"trace-counts-{workload}-{seed}-{source_digest()[:16]}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        moved = [f"{k}: {before.get(k)} -> {v}" for k, v in counts.items() if before.get(k) != v]
        if moved:
            return ["counts differ from the previous traced run: " + ", ".join(moved)]
    path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    return []


def _fingerprint_check(workload: str, seed: int, metrics: dict) -> None:
    if seed != checks.REFERENCE_SEED:
        return
    for name, expected in SEED_COMMIT_COUNTS[workload].items():
        got = metrics[name][0]
        verdict = "matches" if got == expected else "DIFFERS FROM"
        line = f"self-check: {name} = {got} {verdict} the seed commit's {expected}"
        print(line, file=sys.stderr if got != expected else sys.stdout)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(result: dict, trace: bool) -> None:
    wl = result["workload"]
    if trace:
        for name, m in result["metrics"].items():
            print(f"{wl:<20} {name:<42} {_fmt(m['value']):>14} {m['unit']}")
    else:
        for name, m in result["metrics"].items():
            samples = result["samples"][name]
            kind = "imports" if name == "setup_s" else "passes"
            print(f"{wl:<20} {name:<14} {_fmt(m['value']):>10} {m['unit']:<5} "
                  f"median of n={len(samples)} {kind}: {' '.join(_fmt(s) for s in samples)}")
        frac = result["failed"] / result["attempted"]
        print(f"{wl:<20} {'failed_frac':<14} {_fmt(frac):>10} ratio "
              f"{result['failed']} of {result['attempted']} commands")
    for failure in result["failures"]:
        print(f"{wl}: FAILED {failure}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload; 0 runs one pass")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not source_tree_present():
        print(f"benchmark: no bornsim sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.trace and len(names) > 1:
        parser.error("--trace 1 takes one workload")
    results = []
    for name in names:
        result = traced_run(name, args.seed) if args.trace else \
            timed_run(name, args.seed, args.seconds)
        report(result, bool(args.trace))
        result["env"] = env
        (OUT / f"result-{name}-{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n")
        results.append(result)

    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

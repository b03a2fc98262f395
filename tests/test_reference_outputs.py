"""Every benchmark workload command writes what the seed commit wrote.

The commands, their flags and the column rules come from ``benchmarks/``:
grids equal the reference, analytic and tomography columns lie within
``benchmarks/checks.py``'s tolerances, and at the reference seed the Monte
Carlo counts are equal.
"""

from pathlib import Path

from bornsim import cli

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_workload_outputs_match_the_seed_commit_references(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import checks
    import workloads

    commands = [args for workload in workloads.WORKLOADS.values() for args in workload]
    errors = []
    for args in commands:
        out_dir = tmp_path / args[0]
        assert cli.main(workloads.cli_args(args, checks.REFERENCE_SEED, out_dir)) == 0, args
        errors += checks.check_command(args, out_dir, checks.REFERENCE_SEED)
    assert commands and not errors, errors

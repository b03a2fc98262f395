"""scripts/same_outputs.py: two source trees, one set of data files."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from bornsim import cli
from bornsim.cli import COMMANDS
from test_cli import BELL_CIRCUIT

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "scripts" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


def test_checkout_writes_the_same_files_as_itself(capsys):
    src = str(ROOT / "src")
    assert same_outputs.main([src, src, "--seeds", "42", "--commands", "deviation"]) == 0
    # each side's peak RSS and wall time, old first
    line = capsys.readouterr().out.splitlines()[0]
    match = re.fullmatch(r"same    seed 42: deviation  \[old (\S+) MiB (\S+) s \| new (\S+) MiB (\S+) s\]",
                         line)
    assert match, line
    old_mib, old_s, new_mib, new_s = map(float, match.groups())
    assert 1.0 < min(old_mib, new_mib) and 0.0 < min(old_s, new_s)


def test_first_tree_alternates_run_by_run(monkeypatch, capsys):
    # each pair of processes reports old then new, whichever of the two ran first
    ran = []

    def run_tree(src, run, seed, out_dir):
        ran.append(str(src))
        out_dir.mkdir(parents=True)
        return None, 1.0 if str(src) == "old" else 2.0, 0.5
    monkeypatch.setattr(same_outputs, "run_tree", run_tree)
    assert same_outputs.main(["old", "new", "--seeds", "1,2", "--commands", "a,b,c"]) == 0
    assert ran == ["old", "new", "new", "old"] * 3
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith("[old 1.0 MiB 0.500 s | new 2.0 MiB 0.500 s]") for line in lines[:-1])
    assert lines[-1] == "0 of 6 runs differ or failed"


def test_failed_run_gives_its_error_line_and_usage(tmp_path):
    error, peak_mib, wall_s = same_outputs.run_tree(ROOT / "src", "deviation", -1, tmp_path / "out")
    assert error == "bornsim: error: seed and stream_id must be nonnegative"
    assert peak_mib > 1.0 and wall_s > 0.0


def manifests(tmp_path) -> tuple[Path, Path, dict]:
    """Two deviation runs' output directories and the second one's manifest."""
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        assert cli.main(["deviation", "--format", "csv", "--out-dir", str(d)]) == 0
    return old, new, json.loads((new / "deviation-42.manifest.json").read_text())


def test_differing_and_missing_files_are_named(tmp_path):
    # the manifests differ in out_dir and in their times: masked
    old, new, _ = manifests(tmp_path)
    for d in (old, new):
        (d / "same.csv").write_text("a\n1\n")
    (old / "moved.csv").write_text("a\n1\n")
    (new / "moved.csv").write_text("a\n1.0\n")
    (new / "extra.json").write_text("{}")
    assert same_outputs.differing_files(old, new) == ["extra.json", "moved.csv"]


def test_manifest_without_stage_seconds_is_the_same(tmp_path):
    # a tree older than stage_seconds writes the manifest without it
    old, new, manifest = manifests(tmp_path)
    del manifest["stage_seconds"]
    (old / "deviation-42.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    assert same_outputs.differing_files(old, new) == []


@pytest.mark.parametrize("edit", [
    lambda m: m.update(version="0.0.0"),
    lambda m: m["config"].update(gamma=2.0),
    lambda m: m.update(files=[]),
    lambda m: m.update(stage_seconds={"scenario": 1.0}),
], ids=["version", "config", "files", "stage-keys"])
def test_manifest_differing_in_another_field_is_named(tmp_path, edit):
    old, new, manifest = manifests(tmp_path)
    edit(manifest)
    (new / "deviation-42.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    assert same_outputs.differing_files(old, new) == ["deviation-42.manifest.json"]


def test_manifest_layout_slip_is_named(tmp_path):
    old, new, manifest = manifests(tmp_path)
    (new / "deviation-42.manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")
    assert same_outputs.differing_files(old, new) == ["deviation-42.manifest.json"]


def test_default_runs_add_the_circuit_runs(tmp_path):
    # the Bell circuit of the CLI tests, through every command that takes --circuit
    circuit = tmp_path / "bell.json"
    assert same_outputs.BELL_CIRCUIT == BELL_CIRCUIT
    assert same_outputs.default_runs(ROOT / "src", circuit) == [
        *COMMANDS, "counts --n 200000", "fidelity-contour --fast",
        f"fidelity --circuit {circuit}", f"fidelity-mle --circuit {circuit}",
        f"witness --circuit {circuit}"]


def test_circuit_runs_read_the_written_circuit(monkeypatch, capsys):
    # only the default runs that read the circuit file the script writes
    runs = same_outputs.default_runs
    monkeypatch.setattr(same_outputs, "default_runs",
                        lambda src, circuit: [r for r in runs(src, circuit) if "--circuit" in r])
    src = str(ROOT / "src")
    assert same_outputs.main([src, src, "--seeds", "42"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  [")[0].split("--circuit")[0] for line in lines[:-1]] == [
        "same    seed 42: fidelity ", "same    seed 42: fidelity-mle ", "same    seed 42: witness "]
    assert lines[-1] == "0 of 3 runs differ or failed"

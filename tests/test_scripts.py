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


def test_differing_csv_gives_its_cell_moves(monkeypatch, capsys):
    # the same header and row count: moved cells and their largest moves; else the name alone
    files = {"old": {"moved.csv": "a,b\n1,2\n30,4\n", "rows.csv": "a\n1\n", "moved.json": "1"},
             "new": {"moved.csv": "a,b\n1,2.5\n31,4\n", "rows.csv": "a\n1\n2\n",
                     "moved.json": "2"}}

    def run_tree(src, run, seed, out_dir):
        out_dir.mkdir(parents=True)
        for name, text in files[str(src)].items():
            (out_dir / name).write_text(text)
        return None, 1.0, 0.5
    monkeypatch.setattr(same_outputs, "run_tree", run_tree)
    assert same_outputs.main(["old", "new", "--seeds", "1", "--commands", "a"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "        moved.csv  2 of 4 cells, max abs 1.0e+00, max rel 2.5e-01",
        "        moved.json",
        "        rows.csv",
        "1 of 1 runs differ or failed"]


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
        "mz --alpha 3 --gamma 0.5 --n-points 7",
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


# The CSV column each gnuplot script reads, by its 1-based position in `using`
PLOTTED = {
    "antibunch.gp": {1: "alpha", 2: "R", 3: "Rd"},
    "born_again.gp": {1: "theta_deg", 2: "born", 3: "p_cond_h", 4: "p_cond_h_renorm"},
    "counts.gp": {1: "theta_deg", 2: "analytic", 3: "expansion", 4: "counts"},
    "deviation.gp": {1: "theta_deg", 2: "born", 3: "model", 4: "qm"},
    "fidelity.gp": {1: "alpha", 2: "fid_mean",
                    **{4 + 2 * s: f"fid_state_{s:02d}" for s in range(30)}},
    "fidelity_contour.gp": {1: "alpha", 2: "gamma", 3: "mean_fidelity"},
    "fidelity_mle.gp": {1: "alpha", 2: "fid_mean",
                        **{4 + 2 * s: f"fid_state_{s:02d}" for s in range(5)}},
    "hyper.gp": {1: "gamma", 2: "pr_rh", 3: "pr_rv", 4: "conditional_rh"},
    "mz.gp": {1: "phi", 2: "ideal", 3: "p_mz", 4: "p_dc"},
    "visibility.gp": {1: "gamma", 2: "vis_alpha_0.5", 3: "vis_alpha_1", 4: "vis_alpha_1.5"},
    "visibility_contour.gp": {1: "alpha", 2: "gamma", 3: "visibility"},
    "witness.gp": {1: "alpha", 2: "witness"},
}


def _gnuplot_int(text: str, variables: dict) -> int:
    """An integer expression such as n-1 or 4 + 2*s, which gnuplot and Python read alike."""
    return int(eval(text, {"__builtins__": {}}, variables))


def plotted_columns(script: str) -> tuple[str, dict, set]:
    """(default datafile, integer variables, every column a plot of datafile reads)."""
    text = script.replace("\\\n", " ")
    datafile = re.search(r'^if \(!exists\("datafile"\)\) datafile = "([^"]+)"$', text, re.M)
    variables = {k: int(v) for k, v in re.findall(r"^(\w+) = (\d+)$", text, re.M)}
    columns = set()
    for plot in re.findall(r"^s?plot (.*)$", text, re.M):
        for element in re.split(r",\s+(?![^\[(]*[\])])", plot):
            if "datafile" not in element:
                continue  # a constant line, such as 1 with lines
            loop = re.match(r"for \[(\w+)=([^:\]]+):([^\]]+)\] ", element)
            using = re.search(r"\busing (.+?) (?:every|with) ", element).group(1)
            scopes = [{**variables, loop[1]: s} for s in range(
                _gnuplot_int(loop[2], variables), _gnuplot_int(loop[3], variables) + 1)
            ] if loop else [variables]
            for part in using.split(":"):
                expression = re.fullmatch(r"\(column\((.+)\)\)", part)
                columns.update(_gnuplot_int(expression[1] if expression else part, scope)
                               for scope in scopes)
    return datafile and datafile[1], variables, columns


def test_every_gnuplot_script_is_pinned():
    assert sorted(p.name for p in (ROOT / "scripts" / "plots").glob("*.gp")) == sorted(PLOTTED)


@pytest.mark.parametrize("script", sorted(PLOTTED))
def test_gnuplot_script_reads_its_commands_columns(tmp_path, script):
    # each script plots its command's default seed-42 CSV by column position: the column
    # at each position it reads must carry the pinned header name, and a loop over the
    # per-state columns must run over the command's default ensemble
    datafile, variables, columns = plotted_columns((ROOT / "scripts" / "plots" / script).read_text())
    match = re.fullmatch(r"out/(.+)-(\d+)\.csv", datafile or "")
    assert match and match[1] in COMMANDS and int(match[2]) == cli.COMMON["seed"][0], datafile
    command = COMMANDS[match[1]]
    if "n" in variables:
        assert variables["n"] == command.params["n_states"][0]
    small = {"alpha_grid": "1:1:2", "gamma_grid": "1:1:2", "n_trials": 10}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({k: v for k, v in small.items() if k in command.params}))
    assert cli.main([match[1], "--config", str(config), "--format", "csv",
                     "--out-dir", str(tmp_path)]) == 0
    header = (tmp_path / Path(datafile).name).read_text().splitlines()[0].split(",")
    assert max(columns) <= len(header)
    assert {c: header[c - 1] for c in columns} == PLOTTED[script]

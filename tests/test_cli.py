import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bornsim import RngStream, cli, experiments, tomography
from bornsim.cli import COMMANDS, main, parse_grid
from bornsim.errors import BornsimError
from test_exports import small_runs


# prepares the Bell direction (|RH> + |DV>)/sqrt(2) from mode 1
BELL_CIRCUIT = [{"gate": "hadamard", "wires": [0, 2]},
                {"gate": "hadamard", "wires": [1, 3]},
                {"gate": "x", "wires": [2, 3]}]


def run_cli(args):
    return main(args)


def run_refused(argv, tmp_path, capsys) -> list[str]:
    """Run argv with an --out-dir that does not exist yet; assert exit code 1 and that
    nothing was created (no directory, so no file either); return the stderr lines."""
    out = tmp_path / "out"
    assert run_cli(argv + ["--out-dir", str(out)]) == 1
    assert not out.exists(), argv
    return capsys.readouterr().err.splitlines()


def write_bell_circuit(directory: Path) -> Path:
    path = directory / "bell.json"
    path.write_text(json.dumps(BELL_CIRCUIT))
    return path


def test_parse_grid():
    assert np.allclose(parse_grid("0:0.5:2"), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.allclose(parse_grid("1:1:1"), [1.0])
    with pytest.raises(BornsimError):
        parse_grid("2:0.5:1")
    with pytest.raises(BornsimError):
        parse_grid("0:-1:2")
    with pytest.raises(BornsimError):
        parse_grid("nope")
    # 1e300 points: rejected before any array is built
    with pytest.raises(BornsimError, match="'0:1e-300:1'"):
        parse_grid("0:1e-300:1")
    # a step below the float spacing at 1e300 or at 5e16 (8) would merge points
    for spec in ("1e300:1:1e300", "5e16:1:5e16"):
        with pytest.raises(BornsimError, match=f"'{spec}'; points merge"):
            parse_grid(spec)
    # each number is read as the shortest decimal of its float, so no exponent or digit
    # count costs more than that float: 1e-99999999 is 0.0
    assert parse_grid("1e-99999999:1:2").tolist() == [0.0, 1.0, 2.0]
    assert parse_grid("0." + "0" * 5000 + "1:1:2").tolist() == [0.0, 1.0, 2.0]
    # each point is the float nearest its decimal value, at any size and down to the
    # smallest step, and max is in the grid exactly when min + k * step reaches it
    assert parse_grid("1234567890123:1:1234567890125").tolist() == [
        1234567890123.0, 1234567890124.0, 1234567890125.0]
    assert parse_grid("450434.2:0.05:450435.2")[3] == 450434.35
    for spec in ("0:1e-13:1e-12", "0.5:4e-13:0.5000000000012", "450434.2:0.05:450435.2",
                 "-1.5:0.3:1.5", "0.1:0.7:0.85", "0:5e-324:1e-323"):
        lo, step, hi = (Fraction(p) for p in spec.split(":"))
        exact = [lo + k * step for k in range(int((hi - lo) // step) + 1)]
        assert parse_grid(spec).tolist() == [float(x) for x in exact], spec
    # zero is +0.0, never -0.0 (which the CSV output would print as -0.0)
    zero = parse_grid("-18.6:0.6:17.4")[31]
    assert zero == 0.0 and not np.signbit(zero)


def test_counts_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    argv = ["counts", "--alpha0", "0.707", "--gamma", "1", "--n", "1000", "--seed", "42"]
    assert run_cli(argv + ["--out-dir", str(out1)]) == 0
    assert run_cli(argv + ["--out-dir", str(out2)]) == 0
    csv1 = (out1 / "counts-42.csv").read_bytes()
    csv2 = (out2 / "counts-42.csv").read_bytes()
    assert csv1 == csv2
    header = csv1.decode().splitlines()[0]
    assert header == "theta_deg,analytic,expansion,counts"
    assert len(csv1.decode().splitlines()) == 182


def test_counts_seed_changes_output(tmp_path):
    argv = ["counts", "--n", "500", "--out-dir", str(tmp_path)]
    assert run_cli(argv + ["--seed", "1"]) == 0
    assert run_cli(argv + ["--seed", "2"]) == 0
    assert (tmp_path / "counts-1.csv").read_bytes() != (tmp_path / "counts-2.csv").read_bytes()


def test_manifest_records_config_and_files(tmp_path):
    assert run_cli(["deviation", "--seed", "7", "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "deviation-7.manifest.json").read_text())
    assert manifest["command"] == "deviation"
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["gamma"] == 1.0
    assert "deviation-7.csv" in manifest["files"]
    assert "deviation-7.json" in manifest["files"]
    assert manifest["wall_clock_seconds"] >= 0.0
    assert "version" in manifest
    stages = manifest["stage_seconds"]
    assert sorted(stages) == ["scenario", "write"]
    assert min(stages.values()) >= 0.0
    assert sum(stages.values()) <= manifest["wall_clock_seconds"]


def test_format_selects_outputs(tmp_path):
    assert run_cli(["deviation", "--seed", "3", "--format", "csv",
                    "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "deviation-3.csv").exists()
    assert not (tmp_path / "deviation-3.json").exists()
    assert (tmp_path / "deviation-3.manifest.json").exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 1.6, "alpha0": 0.5}))
    assert run_cli(["deviation", "--config", str(cfg), "--seed", "4",
                    "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "deviation-4.manifest.json").read_text())
    assert manifest["config"]["gamma"] == 1.6
    assert manifest["config"]["alpha0"] == 0.5
    # explicit flag wins over the config file
    assert run_cli(["deviation", "--config", str(cfg), "--gamma", "0.8", "--seed", "5",
                    "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "deviation-5.manifest.json").read_text())
    assert manifest["config"]["gamma"] == 0.8


def test_threads_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["counts", "--threads", "2"])
    assert exc.value.code == 2


def test_threads_config_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 2}))
    err = run_refused(["counts", "--config", str(cfg)], tmp_path, capsys)
    assert len(err) == 1 and err[0].startswith("bornsim: error: unknown config key 'threads'")


def test_threads_environment_is_ignored(tmp_path, monkeypatch):
    argv = ["counts", "--n", "300", "--seed", "6"]
    assert run_cli(argv + ["--out-dir", str(tmp_path / "plain")]) == 0
    monkeypatch.setenv("BORNSIM_THREADS", "3")
    assert run_cli(argv + ["--out-dir", str(tmp_path / "env")]) == 0
    for name in ("counts-6.csv", "counts-6.json"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "env" / name).read_bytes()
    manifest = json.loads((tmp_path / "env" / "counts-6.manifest.json").read_text())
    assert "threads" not in manifest["config"]


@pytest.mark.parametrize("alphas, label", [("0.5,0.5000001", "vis_alpha_0.5"),
                                           ("1,1", "vis_alpha_1")])
def test_visibility_amplitudes_sharing_a_label_are_scenario_error(tmp_path, capsys, alphas,
                                                                   label):
    err = run_refused(["visibility", "--alphas", alphas, "--format", "csv"], tmp_path, capsys)
    first, second = (repr(float(a)) for a in alphas.split(","))
    assert len(err) == 1 and err[0].startswith("bornsim: error: ")
    assert all(part in err[0] for part in (first, second, repr(label))), err[0]


def test_bad_grid_is_scenario_error(tmp_path, capsys):
    err = run_refused(["antibunch", "--alpha-grid", "3:0.1:0"], tmp_path, capsys)
    assert len(err) == 1 and "bad grid spec '3:0.1:0'" in err[0]


@pytest.mark.parametrize("command", ["fidelity", "fidelity-mle"])
def test_empty_ensemble_is_scenario_error(tmp_path, capsys, command):
    err = run_refused([command, "--n-states", "0"], tmp_path, capsys)
    assert err == ["bornsim: error: n_states must be >= 1"]


@pytest.mark.parametrize("size", ["0", "-3"])
def test_bad_mz_sample_size_is_scenario_error(tmp_path, capsys, size):
    err = run_refused(["mz", "--sample-size", size], tmp_path, capsys)
    assert err == ["bornsim: error: sample_size must be >= 1"]


@pytest.mark.parametrize("argv, named", [
    (["hyper", "--gamma-grid", "0:0.5:1"], ["'gamma_grid'", "(got 0)"]),
    (["born-again", "--gamma", "0"], []),
    (["antibunch", "--gamma", "0"], []),
    (["mz", "--gamma", "0"], []),
    (["deviation", "--gamma", "0"], []),
    (["witness", "--gamma", "0"], []),
    (["fidelity-contour", "--fast", "--gamma-grid", "0:0.25:1", "--alpha-grid", "0.5:0.5:1"],
     ["'gamma_grid'", "(got 0)"]),
    # thresholds so high that nothing ever clicks
    (["visibility-contour", "--gamma-grid", "1:19:20"], []),
    (["fidelity-contour", "--fast", "--gamma-grid", "20:1:20", "--alpha-grid", "0.5:0.5:1"], []),
], ids=["hyper", "born-again", "antibunch", "mz", "deviation", "witness", "fidelity-contour",
        "visibility-contour-high", "fidelity-contour-high"])
def test_degenerate_threshold_is_scenario_error(tmp_path, capsys, argv, named):
    err = run_refused(argv, tmp_path, capsys)
    assert len(err) == 1 and err[0].startswith("bornsim: error: ")
    assert all(part in err[0] for part in named), err[0]


@pytest.mark.parametrize("argv", [
    ["counts", "--gamma", "0", "--n", "10"],
    ["visibility", "--gamma-grid", "0:0.5:1"],
    ["visibility-contour", "--gamma-grid", "0:0.5:1", "--alpha-grid", "0.5:0.5:1"],
], ids=["counts", "visibility", "visibility-contour"])
def test_zero_threshold_accepted_where_defined(tmp_path, argv):
    assert run_cli(argv + ["--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("command, config, flags, key", [
    ("deviation", {"gamma": "x"}, [], "gamma"),
    ("counts", {"n_trials": "many"}, [], "n_trials"),
    ("visibility", {"alphas": 1.0}, [], "alphas"),
    ("visibility", None, ["--alphas", "1,x"], "alphas"),
    ("deviation", {"gamam": 2}, [], "gamam"),
    ("antibunch", {"alpha_grid": "nan:1:2"}, [], "nan:1:2"),
    ("deviation", {"format": "xml"}, [], "format"),
    ("visibility", {"alphas": []}, [], "alphas"),
    ("antibunch", None, ["--alpha-grid", "0:1e-300:1"], "0:1e-300:1"),
    ("counts", None, ["--alpha0", "1e200", "--n", "10"], "|alpha| = 1e+200, gamma = 1"),
    ("counts", None, ["--gamma", "1e100", "--n", "10"], "|alpha| = 0.707, gamma = 1e+100"),
    # at gamma = 1 the expansion's quartic term is 0, so only the click kernel rejects it
    ("counts", None, ["--alpha0", "6.6e150", "--gamma", "1", "--n", "10"], "at most 2^500"),
    # a directory cannot be read as a file
    ("deviation", None, ["--config", "."], "cannot read config file ."),
    ("deviation", "{not json", [], "cannot read config file"),
    ("deviation", [1.0, 2.0], [], "config file must hold a JSON object"),
    ("counts", None, ["--n", "0"], "n_trials must be >= 1"),
    ("counts", None, ["--seed", "-1", "--n", "10"], "seed and stream_id must be nonnegative"),
    # commands that never draw check the seed too
    ("visibility", None, ["--seed", "-1"], "seed and stream_id must be nonnegative"),
    ("witness", None, ["--seed", "-1"], "seed and stream_id must be nonnegative"),
    ("deviation", None, ["--alpha0", "0"], "no signal above dark counts"),
    ("mz", None, ["--n-points", "3"], "need at least 4 phase points"),
    # exp(-2 gamma^2) = 1/2: the fringe extrema sum to twice the dark counts
    ("mz", None, ["--gamma", "0.5887050112577373"], "visibility undefined"),
    ("mz", None, ["--n-points", "10000000000000"],
     "mz would evaluate 10,000,000,000,000 points (n_points); the limit is 1,000,000"),
    # 181 angles x 1e20 trials would never end; bounded_kernel below fails at once if it starts
    ("counts", None, ["--n", "100000000000000000000"],
     "counts would draw 18,100,000,000,000,000,000,000 trials (181 angles x n_trials); "
     "the limit is 10,000,000,000"),
    # --fast measures 20 states, but a negative n_states is refused all the same
    ("fidelity-contour", None, ["--fast", "--n-states", "-5"], "n_states must be >= 1"),
    ("fidelity-contour", {"fast": True, "n_states": 0}, [], "n_states must be >= 1"),
    # gamma^2 overflows in the dark counts, with no warning: exp(-inf) = 0 is exact
    ("visibility", None, ["--gamma-grid", "1e300:1e300:3e300"], "visibility undefined"),
    ("hyper", None, ["--gamma-grid", "1e300:1e300:3e300"], "no single-click events"),
    ("visibility-contour", None, ["--gamma-grid", "1e300:1e300:3e300"], "visibility undefined"),
    # a number that is not finite is refused by its key, before any scenario sees it
    ("deviation", None, ["--alpha0", "nan"], "config key 'alpha0' must be finite (got nan)"),
    ("born-again", None, ["--alpha", "inf"], "config key 'alpha' must be finite (got inf)"),
    ("visibility", None, ["--alphas", "1,nan"], "config key 'alphas' must be finite (got nan)"),
    ("visibility", None, ["--alphas=-0.5,1"],
     "alphas must be one or more amplitudes >= 0 (got [-0.5, 1.0])"),
    ("counts", '{"alpha0": NaN}', [], "config key 'alpha0' must be finite (got nan)"),
    ("witness", None, ["--gamma", "nan"], "config key 'gamma' must be finite (got nan)"),
    ("counts", None, ["--gamma=-inf"], "config key 'gamma' must be finite (got -inf)"),
    # an integer beyond the floats is as infinite; one beyond 4,300 digits cannot be read
    ("hyper", {"alpha": 10 ** 400}, [], "config key 'alpha' must be finite (got 1000"),
    ("deviation", '{"gamma": 1' + "0" * 5000 + "}", [], "cannot read config file"),
    # an empty path is no circuit to read, not the default ensemble
    ("fidelity", {"circuit": ""}, [], "cannot read circuit file"),
    # deviation-<seed>.manifest.json with a 240-digit seed is 264 bytes, beyond NAME_MAX
    ("deviation", {"seed": 10 ** 239}, [],
     "output file name deviation-<seed>.manifest.json would be 264 bytes; the limit is 255"),
    # two modes of a setting click with probability 1 at float precision: no single is left
    ("fidelity-mle", None, ["--alpha-grid", "3:1:10", "--n-states", "5"],
     "two or more modes click with probability 1"),
    ("fidelity-contour", None, ["--fast", "--alpha-grid", "3:1:8"],
     "two or more modes click with probability 1"),
], ids=["wrong-float", "wrong-int", "wrong-list", "bad-alphas-flag", "unknown-key", "nan-grid",
        "bad-format", "empty-alphas", "huge-grid", "expansion-alpha0", "expansion-gamma",
        "clicks-alpha0",
        "unreadable-config", "config-not-json", "config-not-object", "zero-trials",
        "negative-seed", "negative-seed-visibility", "negative-seed-witness",
        "deviation-zero-alpha0", "mz-three-points", "mz-zero-denominator", "mz-huge-n-points",
        "counts-huge-n", "fast-negative-n-states", "fast-zero-n-states-config",
        "visibility-huge-gamma", "hyper-huge-gamma", "visibility-contour-huge-gamma",
        "nan-alpha0", "inf-alpha", "nan-alphas", "negative-alphas", "nan-config", "nan-gamma",
        "minus-inf-gamma", "huge-int", "too-many-digits", "empty-circuit", "long-file-name",
        "mle-saturated-settings", "contour-saturated-settings"])
def test_bad_config_is_one_line_error(tmp_path, capsys, monkeypatch, command, config, flags,
                                      key):
    # a run too long to finish must be refused before the click kernel starts it
    kernel = experiments.threshold_clicks

    def bounded_kernel(a, gamma, n, rng):
        assert n <= 10 ** 6, f"the click kernel started {n} trials"
        return kernel(a, gamma, n, rng)

    monkeypatch.setattr(experiments, "threshold_clicks", bounded_kernel)
    argv = [command, *flags]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(cfg)]
    err = run_refused(argv, tmp_path, capsys)
    assert len(err) == 1 and err[0].startswith("bornsim: error: ") and key in err[0]


@pytest.mark.parametrize("argv", [["deviation", "--alpha0", "1e160"],
                                  ["visibility", "--alphas", "1e200"]],
                         ids=["deviation", "visibility"])
def test_huge_amplitude_gives_finite_output(tmp_path, argv):
    # squares that overflow saturate the curves, with no OverflowError or RuntimeWarning
    assert run_cli(argv + ["--format", "csv", "--out-dir", str(tmp_path)]) == 0
    rows = np.loadtxt(next(tmp_path.glob("*.csv")), delimiter=",", skiprows=1)
    assert rows.shape[0] > 1 and np.all(np.isfinite(rows))


def test_huge_threshold_runs_without_warning(tmp_path, capsys):
    # gamma^2 overflows to inf in the dark counts, whose exact limit exp(-inf) = 0 stands
    # and Q1(2e301, 2e300) = 1 exactly: a - b is far past 12
    argv = ["visibility", "--alphas", "1e301", "--gamma-grid", "1e300:1e300:1e300"]
    assert run_cli(argv + ["--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("level", ["19.29", "20"])
def test_marcum_beyond_its_domain_is_refused(tmp_path, capsys, level):
    # Q1(2|alpha|, 2 gamma) with both arguments near 40: the series would start
    # subnormal, and no far tail holds, so the run stops before it writes anything
    err = run_refused(["counts", "--alpha0", level, "--gamma", level, "--n", "1000"],
                      tmp_path, capsys)
    assert len(err) == 1 and err[0].startswith("bornsim: error: Marcum Q1(a, b)")
    assert "only where a, b < 37.64, a - b >= 12 or b - a >= 38.61 (got a = " in err[0]


def test_marcum_far_tail_counts_match_monte_carlo(tmp_path):
    # gamma = 1 is never refused: from |alpha| = 18.82 on, a = 2|alpha| is past the series
    # limit and Q1 = 1 exactly, and every analytic count lies within 5 SE of its sampled one
    argv = ["counts", "--alpha0", "25", "--gamma", "1", "--n", "20000", "--format", "csv"]
    assert run_cli(argv + ["--out-dir", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "counts-42.csv", delimiter=",", skiprows=1)
    analytic, counts = rows[:, 1], rows[:, 3]
    far = 50.0 * np.abs(np.cos(np.deg2rad(rows[:, 0]))) > 37.65
    assert np.count_nonzero(far) > 80 and np.all(analytic[far] == 20000)
    se = np.sqrt(analytic * (1.0 - analytic / 20000))
    assert np.all(np.abs(counts - analytic) <= 5.0 * se)


def test_total_size_is_capped_before_any_work(tmp_path, capsys):
    # about 8.1e11 (alpha, gamma) points x 100 states: the run must stop before it allocates
    argv = ["fidelity-contour", "--alpha-grid", "0:1e-6:0.9", "--gamma-grid", "1e-6:1e-6:0.9"]
    err = run_refused(argv, tmp_path, capsys)
    assert err == ["bornsim: error: fidelity-contour would evaluate 81,000,090,000,000 points "
                   f"(alpha_grid x gamma_grid x n_states); the limit is {cli.MAX_GRID_POINTS:,}"]


class Ran(Exception):
    """Raised by a stand-in runner once the size check has let the run through."""


@pytest.mark.parametrize("argv, runner, states", [
    # 300 x 60 x 20 = 360,000 points; n_states = 100 would count 1,800,000
    (["fidelity-contour", "--fast", "--alpha-grid", "0.01:0.01:3", "--gamma-grid", "0.05:0.05:3"],
     "ensemble_sweep", 20),
    (["fidelity-contour", "--fast", "--n-states", "1000000"], "ensemble_sweep", 20),
    (["fidelity", "--n-states", "1000000", "--circuit"], "fidelity_scan", 1),
    (["fidelity-mle", "--n-states", "1000000", "--circuit"], "fidelity_scan", 1),
], ids=["fast-grid", "fast-n-states", "fidelity-circuit", "fidelity-mle-circuit"])
def test_run_size_counts_the_states_measured(tmp_path, monkeypatch, argv, runner, states):
    # --fast measures 20 states and --circuit one, whatever n_states says; the size
    # check counts those, and the runner is given them
    if argv[-1] == "--circuit":
        argv = argv + [str(write_bell_circuit(tmp_path))]
    given = []

    def stand_in(alphas, gamma, n_states, *args, **kwargs):
        given.append(n_states)
        raise Ran

    monkeypatch.setattr(tomography, runner, stand_in)
    with pytest.raises(Ran):
        run_cli(argv + ["--out-dir", str(tmp_path)])
    assert given == [states]


@pytest.mark.parametrize("command", ["fidelity", "fidelity-mle"])
def test_circuit_run_checks_n_states(tmp_path, capsys, command):
    # the circuit's one state replaces the ensemble, but n_states is still checked
    argv = [command, "--circuit", str(write_bell_circuit(tmp_path)), "--n-states", "0"]
    assert run_refused(argv, tmp_path, capsys) == ["bornsim: error: n_states must be >= 1"]


@pytest.mark.parametrize("argv, specs", [
    (["hyper", "--gamma-grid", "1:1:2"], ["1:1:2"]),
    (["fidelity-contour", "--fast", "--alpha-grid", "0.5:0.5:1", "--gamma-grid", "1:1:2"],
     ["0.5:0.5:1", "1:1:2"]),
], ids=["hyper", "fidelity-contour"])
def test_each_grid_is_parsed_once_per_run(tmp_path, monkeypatch, argv, specs):
    # the gamma > 0 check and the runner share one parse of gamma_grid
    parsed = []
    monkeypatch.setattr(cli, "parse_grid", lambda spec: parsed.append(spec) or parse_grid(spec))
    assert run_cli(argv + ["--out-dir", str(tmp_path)]) == 0
    assert sorted(parsed) == specs


def test_fidelity_contour_dimension_is_not_a_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 4}))
    assert run_cli(["fidelity-contour", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    assert "unknown config key 'd'" in capsys.readouterr().err


def test_cli_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, bornsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_negative_seed_fails_before_any_directory_is_made(tmp_path, capsys):
    for name in COMMANDS:
        out = tmp_path / name
        assert run_cli([name, "--seed", "-1", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("bornsim: error: seed "), name
        assert not out.exists(), name


# The commands whose runners build an RngStream; every other one never draws
DRAWS = {"counts", "mz", "fidelity", "fidelity-mle", "fidelity-contour"}


def _small_runs(tmp_path) -> dict[str, list[str]]:
    """Each command's argv with test_exports.SMALL parameters, writing below tmp_path."""
    return {name: argv + ["--out-dir", str(tmp_path / "out")]
            for name, argv in small_runs(tmp_path).items()}


def test_only_the_drawing_commands_build_a_stream(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "RngStream", lambda seed: built.append(seed) or RngStream(seed))
    drew = set()
    for name, argv in _small_runs(tmp_path).items():
        built.clear()
        assert run_cli(argv) == 0, name
        if built:
            drew.add(name)
    assert drew == DRAWS


def test_commands_that_never_draw_do_not_load_numpy_random(tmp_path):
    # numpy loads numpy.random lazily, on first touch; a fresh interpreter runs every
    # command that builds no stream, then one that does, to show the probe can see it
    runs = _small_runs(tmp_path)
    quiet = [argv for name, argv in runs.items() if name not in DRAWS]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import json, sys, bornsim.cli as c\n"
             "quiet, drawing = json.loads(sys.argv[1])\n"
             "assert all(c.main(argv) == 0 for argv in quiet)\n"
             "print('numpy.random' in sys.modules)\n"
             "assert c.main(drawing) == 0\n"
             "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe, json.dumps([quiet, runs["counts"]])],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert len(quiet) == len(COMMANDS) - len(DRAWS)
    assert out.stdout.split() == ["False", "True"]


def test_cli_import_does_not_load_thread_pool():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, bornsim.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_unknown_flag_is_usage_error(tmp_path):
    # an abbreviation is no flag either: --n is not --n-states, nor --gamma
    # --gamma-grid; counts' own --n is exact and still works
    for argv in (["counts", "--bogus", "1"], ["fidelity", "--n", "2"], ["hyper", "--gamma", "1"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--out-dir", str(tmp_path / "refused")])
        assert exc.value.code == 2, argv
    assert not (tmp_path / "refused").exists()
    assert run_cli(["counts", "--n", "10", "--out-dir", str(tmp_path / "counts")]) == 0


def _parsed(parser, argv) -> tuple:
    """What parsing argv gives: (namespace or exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = vars(parser.parse_args(argv))
        except SystemExit as exc:
            outcome = exc.code
    return outcome, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["hyper", "--bogus"], ["hyper", "-h"], ["-h"], ["nosuch"], [], ["--version"],
    ["hyper", "--alpha", "x"], ["hyper", "--version"], ["counts", "--n", "5"],
    *([name, "--help"] for name in COMMANDS)], ids=" ".join)
def test_one_command_parser_prints_what_the_full_parser_prints(argv):
    # built for argv, the parser holds only argv[0]'s subparser when that names a command
    parser = cli.build_parser(argv)
    built = parser._subparsers._group_actions[0].choices
    assert list(built) == (argv[:1] if argv and argv[0] in COMMANDS else list(COMMANDS))
    assert _parsed(parser, argv) == _parsed(cli.build_parser(), argv)


ENTRY_POINT = ("import gc, sys\n"
               "from bornsim import cli\n"
               "frozen = gc.get_freeze_count()\n"
               "try:\n"
               "    code = cli.main()\n"
               "except SystemExit as exc:\n"
               "    code = exc.code\n"
               "print(code, frozen, gc.get_freeze_count() > 0, file=sys.stderr)")


@pytest.mark.parametrize("args,code", [
    (["hyper", "--gamma-grid", "1:1:2"], 0), (["hyper", "--seed", "-1"], 1),
    (["hyper", "--bogus"], 2), (["--version"], 0)], ids=["0", "1", "2", "version"])
def test_entry_point_freezes_the_heap_at_every_exit(tmp_path, args, code):
    # main() reads sys.argv, as python -m bornsim.cli and the bornsim script call it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", ENTRY_POINT, *args, "--out-dir", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr.splitlines()[-1] == f"{code} 0 True"


def test_main_with_argv_never_freezes(tmp_path):
    frozen = gc.get_freeze_count()
    assert run_cli(["hyper", "--gamma-grid", "1:1:2", "--out-dir", str(tmp_path)]) == 0
    assert run_cli(["hyper", "--seed", "-1", "--out-dir", str(tmp_path)]) == 1
    with pytest.raises(SystemExit):
        run_cli(["hyper", "--bogus"])
    assert gc.get_freeze_count() == frozen


def test_witness_with_circuit_file_matches_default(tmp_path):
    circuit = write_bell_circuit(tmp_path)
    assert run_cli(["witness", "--alpha-grid", "0.5:0.5:1.5", "--seed", "9",
                    "--out-dir", str(tmp_path / "default")]) == 0
    assert run_cli(["witness", "--alpha-grid", "0.5:0.5:1.5", "--seed", "9",
                    "--circuit", str(circuit), "--out-dir", str(tmp_path / "circ")]) == 0
    # same physical state up to float rounding in the circuit composition
    def rows(path):
        lines = path.read_text().splitlines()
        return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])

    a = rows(tmp_path / "default" / "witness-9.csv")
    b = rows(tmp_path / "circ" / "witness-9.csv")
    assert np.allclose(a, b, atol=1e-9)


def test_malformed_circuit_is_one_line_error(tmp_path, capsys):
    circuit = tmp_path / "bad.json"
    # 1e400 parses to inf: one line, no NaN gate and no RuntimeWarning
    circuit.write_text('[{"gate": "phase", "wires": [1], "params": {"phi": 1e400}}]')
    err = run_refused(["witness", "--circuit", str(circuit)], tmp_path, capsys)
    assert err == ["bornsim: error: entry 0: params must be an object whose phi is a finite "
                   "number (got {'phi': inf})"]


def test_mz_manifest_holds_fit_summary(tmp_path):
    assert run_cli(["mz", "--seed", "11", "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "mz-11.json").read_text())
    fit = payload["meta"]["fit"]
    assert 0.9 < fit["visibility"] < 1.0
    assert 0.05 < fit["r_d"] < 0.2
    assert 0.0 < fit["rmse"] < 0.1


def test_mz_json_is_the_scenario_functions(tmp_path):
    p = {k: default for k, (default, _) in COMMANDS["mz"].params.items()}
    assert run_cli(["mz", "--seed", "11", "--format", "json", "--out-dir", str(tmp_path)]) == 0
    experiments.mach_zehnder_fit(p["alpha"], p["gamma"], RngStream(11), n_points=p["n_points"],
                                 sample_size=p["sample_size"]).to_json(tmp_path / "fit.json")
    assert (tmp_path / "fit.json").read_bytes() == (tmp_path / "mz-11.json").read_bytes()


def test_visibility_contour_rows(tmp_path):
    assert run_cli(["visibility-contour", "--alpha-grid", "1:0.5:2",
                    "--gamma-grid", "1:0.5:2", "--seed", "12",
                    "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "visibility-contour-12.csv").read_text().splitlines()
    assert lines[0] == "alpha,gamma,visibility"
    assert len(lines) == 1 + 9


GRIDDED = [name for name, command in COMMANDS.items()
           if any(key.endswith("_grid") for key in command.params)]


@pytest.mark.parametrize("command", GRIDDED)
def test_sub_grid_writes_the_matching_rows_of_the_full_grid(tmp_path, command):
    # row locality: each CSV row depends only on its own grid point, so a run on a
    # sub-grid (every other point, from the second) writes exactly the full run's rows
    # at those points, byte for byte; the grid axes are the first columns
    params = COMMANDS[command].params
    grids = [key for key in params if key.endswith("_grid")]
    small = {"n_states": 2} if "n_states" in params else {}
    lines = {}
    for run, spec in (("full", "0.5:0.5:2"), ("sub", "1:1:2")):
        config = tmp_path / f"{run}.json"
        config.write_text(json.dumps({**small, **{key: spec for key in grids}}))
        out = tmp_path / run
        assert run_cli([command, "--config", str(config), "--format", "csv",
                        "--out-dir", str(out)]) == 0
        lines[run] = (out / f"{command}-42.csv").read_text().splitlines()
    header, *full = lines["full"]
    assert lines["sub"][0] == header
    sub = lines["sub"][1:]
    points = {tuple(row.split(",")[:len(grids)]) for row in sub}
    assert len(sub) == 2 ** len(grids) and len(full) == 4 ** len(grids)
    assert [row for row in full if tuple(row.split(",")[:len(grids)]) in points] == sub


def test_parse_grid_values_are_clean():
    grid = parse_grid("0:0.1:3")
    assert grid.size == 31
    assert grid[3] == 0.3
    assert grid[-1] == 3.0


@pytest.mark.parametrize("command", list(COMMANDS))
def test_parser_and_manifest_follow_table(tmp_path, capsys, monkeypatch, command):
    params = {**COMMANDS[command].params, **cli.COMMON}
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--help"])
    assert exc.value.code == 0
    # one entry per option: "--flag METAVAR help (default value)", whatever the line wrapping
    options = " ".join(capsys.readouterr().out.split("options:")[1].split())
    entries = {e.split()[0]: e for e in re.split(r" (?=--?[a-z])", options)}
    for key, (default, text) in params.items():
        flag = "--n" if key == "n_trials" else "--" + key.replace("_", "-")
        shown = ",".join(map(str, default)) if isinstance(default, list) else str(default)
        assert entries[flag].endswith(f"{text} (default {shown})"), entries[flag]

    monkeypatch.chdir(tmp_path)
    manifest = tmp_path / f"{command}-42.manifest.json"
    assert run_cli([command]) == 0
    plain = json.loads(manifest.read_text())["config"]
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps({key: default for key, (default, _) in params.items()}))
    assert run_cli([command, "--config", str(cfg)]) == 0
    assert json.loads(manifest.read_text())["config"] == plain


def test_reproduce_script_runs_every_command(tmp_path):
    # the script takes its list from COMMANDS; a stand-in python3 logs each CLI run
    root = Path(__file__).resolve().parents[1]
    log, fake = tmp_path / "runs.log", tmp_path / "bin" / "python3"
    fake.parent.mkdir()
    fake.write_text(f'#!/bin/sh\nif [ "$1" = -m ]; then echo "$*" >> "{log}"; exit 0; fi\n'
                    f'exec "{sys.executable}" "$@"\n')
    fake.chmod(0o755)
    env = dict(os.environ, FAST="1", PATH=f"{fake.parent}{os.pathsep}{os.environ['PATH']}",
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    subprocess.run(["bash", str(root / "scripts" / "reproduce_all.sh"), str(tmp_path), "7"],
                   env=env, check=True, capture_output=True, timeout=60)
    runs = [line.split() for line in log.read_text().splitlines()]
    assert [run[2] for run in runs] == list(COMMANDS)
    assert all(("--fast" in run) == (run[2] == "fidelity-contour") for run in runs)

"""Tests of the benchmark's own code: python -m pytest benchmarks"""

from __future__ import annotations

import shutil
import sys
import textwrap

import pytest

import checks
import tracing
from tracing import Span
from workloads import run_pass


def test_self_time_of_nested_spans():
    a = Span("a", 0.0, 10.0)
    b = Span("b", 1.0, 6.0, a)
    c = Span("c", 2.0, 3.0, b)
    assert tracing.self_times([a, b, c]) == pytest.approx({"a": 5.0, "b": 4.0, "c": 1.0})


def test_self_time_of_sibling_spans():
    a = Span("a", 0.0, 10.0)
    b = Span("b", 1.0, 3.0, a)
    c = Span("c", 4.0, 8.0, a)
    assert tracing.self_times([a, b, c]) == pytest.approx({"a": 4.0, "b": 2.0, "c": 4.0})


def test_self_time_counts_overlapping_children_once():
    # children from two threads may overlap; the parent loses their union
    a = Span("a", 0.0, 10.0)
    kids = [Span("k", 1.0, 5.0, a), Span("k", 3.0, 7.0, a)]
    assert tracing.self_times([a, *kids])["a"] == pytest.approx(4.0)


def test_wrapped_calls_record_parents_and_counts():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert all(s.parent is tracer.spans[0] for s in tracer.spans[1:])
    assert all(s.end >= s.start for s in tracer.spans)


@pytest.fixture
def fake_package(tmp_path):
    """A package 'fakepkg' whose module b re-binds a.f, as bornsim's modules do."""
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("def f(x):\n    return 2 * x\n")

    def make(b_source: str):
        (pkg / "b.py").write_text(textwrap.dedent(b_source))
        sys.path.insert(0, str(tmp_path))
        import fakepkg.a  # noqa: F401
        import fakepkg.b
        return fakepkg.b

    yield make
    sys.path.remove(str(tmp_path))
    for name in [n for n in sys.modules if n == "fakepkg" or n.startswith("fakepkg.")]:
        del sys.modules[name]


def test_install_rewraps_sibling_bindings(fake_package):
    b = fake_package("""
        from .a import f

        def g(x):
            return f(x) + 1
    """)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, package="fakepkg", layers=("a", "b"),
                              extra_functions={}, methods={})
    assert b.g(3) == 7
    restore()
    assert [s.name for s in tracer.spans] == ["b.g", "a.f"]
    assert b.g(3) == 7 and len(tracer.spans) == 2


def test_missed_binding_fails_loudly(fake_package):
    b = fake_package("""
        from .a import f

        TABLE = {"double": (f, 2)}
    """)
    original = b.TABLE["double"][0]
    with pytest.raises(RuntimeError, match="missed bindings"):
        tracing.install(tracing.Tracer(), package="fakepkg", layers=("a",),
                        extra_functions={}, methods={})
    assert b.f is original  # the failed install undid itself


REF = checks.REFERENCE_DIR
SEED = checks.REFERENCE_SEED


def _rewrite(path, column, row, fn):
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    i = lines[0].split(",").index(column)
    cells[i] = repr(fn(float(cells[i])))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _copy(tmp_path, command, seed=SEED):
    dst = tmp_path / f"{command}-{seed}.csv"
    shutil.copy(REF / f"{command}-{SEED}.csv", dst)
    return dst


def test_reference_matches_itself(tmp_path):
    for command in checks.RULES:
        path = _copy(tmp_path, command)
        assert checks.check_csv(command, path, REF / path.name, SEED, 200000) == []


def test_perturbed_analytic_value_is_rejected(tmp_path):
    path = _copy(tmp_path, "visibility-contour")
    _rewrite(path, "visibility", 1234, lambda v: v * (1 + 1e-9))
    errors = checks.check_csv("visibility-contour", path, REF / path.name, SEED)
    assert len(errors) == 1 and "row 1234" in errors[0]


def test_last_digit_drift_is_accepted(tmp_path):
    path = _copy(tmp_path, "antibunch")
    _rewrite(path, "R", 10, lambda v: v * (1 + 4e-16))
    assert checks.check_csv("antibunch", path, REF / path.name, SEED) == []


def test_tomography_tolerance_admits_closed_form_drift_only(tmp_path):
    path = _copy(tmp_path, "fidelity-contour")
    _rewrite(path, "mean_fidelity", 5, lambda v: v - 6.1e-8)
    assert checks.check_csv("fidelity-contour", path, REF / path.name, SEED) == []
    _rewrite(path, "mean_fidelity", 5, lambda v: v - 2e-7)
    assert checks.check_csv("fidelity-contour", path, REF / path.name, SEED)


def test_seeded_columns_checked_by_range_for_other_seeds(tmp_path):
    path = _copy(tmp_path, "fidelity-mle", seed=7)
    _rewrite(path, "fid_state_00", 3, lambda v: v - 0.1)
    assert checks.check_csv("fidelity-mle", path, REF / "fidelity-mle-42.csv", 7) == []
    _rewrite(path, "frac_invalid", 3, lambda v: 1.5)
    errors = checks.check_csv("fidelity-mle", path, REF / "fidelity-mle-42.csv", 7)
    assert errors and "leaves [0, 1]" in errors[0]


def test_counts_exact_for_reference_seed_and_binomial_otherwise(tmp_path):
    path = _copy(tmp_path, "counts")
    _rewrite(path, "counts", 90, lambda v: int(v) + 1)
    assert checks.check_csv("counts", path, REF / path.name, SEED, 200000)
    assert checks.check_csv("counts", path, REF / path.name, 7, 200000) == []
    _rewrite(path, "counts", 90, lambda v: int(v) + 2000)  # about 13 standard errors
    errors = checks.check_csv("counts", path, REF / path.name, 7, 200000)
    assert errors and "standard errors" in errors[0]


def test_missing_output_file_is_rejected(tmp_path):
    errors = checks.check_command(["hyper"], tmp_path, SEED)
    assert any("hyper-42.csv: missing" in e for e in errors)
    assert any("hyper-42.json" in e for e in errors)


def test_nonzero_exit_counts_as_failed(tmp_path):
    result = run_pass([["counts", "--gamma", "-1"]], SEED, tmp_path / "pass")
    assert result.attempted == 1
    assert len(result.failures) == 1 and "exit code 1" in result.failures[0]
    assert len(result.failures) / result.attempted == 1.0

"""Spans around bornsim's layer boundaries, installed from outside the package.

``install`` wraps every public function of each layer module (plus the
private functions named in ``EXTRA_FUNCTIONS``) and the methods named in
``METHODS``. A wrapper replaces the module attribute and every other binding
of the same function object in the package, such as the copy a sibling made
with ``from .detection import marcum_q1``. Afterwards ``verify_bindings``
walks every module, class and module-level container of the package and
raises if any reference to an unwrapped original is left, so a missed
binding fails loudly instead of undercounting.

Each call records one span (name, start, end, parent span). Spans stay in
memory; ``layer_metrics`` reduces them to self times and counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("field", "optics", "detection", "experiments", "tomography", "cli")
EXTRA_FUNCTIONS = {
    "tomography": ("_measure_batch",),
    "cli": ("_run_scenario", "_write_visibility_contour"),
}
METHODS = {
    ("field", "RngStream"): ("substream", "uniforms", "standard_normals", "complex_normals"),
    ("experiments", "ScenarioResult"): ("to_csv", "to_json"),
    ("tomography", "SweepResult"): ("to_csv", "to_json"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float = 0.0, parent: "Span | None" = None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent


class Tracer:
    """Collects spans and named counts; one call stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        """``fn`` recording a span per call; ``counter(tracer, args, result, parent)``."""
        spans, perf = self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(name, perf(), 0.0, parent)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = perf()
            if counter is not None:
                counter(self, args, result, parent)
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index (-1: none)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                parent = index[id(s.parent)] if s.parent is not None else -1
                fh.write(json.dumps([s.name, s.start, s.end, parent]) + "\n")


# ---------------------------------------------------------------------------
# Counters: work done, read from call arguments and return values
# ---------------------------------------------------------------------------

def _count_draws(t, args, result, parent):
    t.counts["field.complex_normals.draws"] += result.size


def _count_marcum(t, args, result, parent):
    t.counts["detection.marcum_q1.elements"] += getattr(result, "size", 1)


def _count_trials(t, args, result, parent):
    t.counts["detection.detect_batch.trials"] += result.shape[0] if result.ndim > 1 else 1


def _count_batch_states(t, args, result, parent):
    t.counts["tomography.measure.states"] += result.shape[0]


def _count_scalar_measure(t, args, result, parent):
    if parent is not None and parent.name == "tomography._measure_batch":
        t.counts["tomography.measure.fallback_calls"] += 1
    else:
        t.counts["tomography.measure.states"] += 1


def _count_fit(t, args, result, parent):
    t.counts["tomography.mle_qst.iters"] += result.n_iter
    t.counts["tomography.mle_qst.converged"] += int(result.converged)


def _count_written(t, args, result, parent):
    # to_csv(self, path) / to_json(self, path)
    t.counts["cli.write.bytes"] += Path(args[1]).stat().st_size


def _count_contour_written(t, args, result, parent):
    # _write_visibility_contour(rows, base, fmt) -> file names beside base
    base = Path(args[1])
    t.counts["cli.write.bytes"] += sum((base.parent / name).stat().st_size for name in result)


COUNTERS = {
    "field.RngStream.complex_normals": _count_draws,
    "detection.marcum_q1": _count_marcum,
    "detection.detect_batch": _count_trials,
    "tomography._measure_batch": _count_batch_states,
    "tomography.measure_expectations": _count_scalar_measure,
    "tomography.mle_qst": _count_fit,
    "experiments.ScenarioResult.to_csv": _count_written,
    "experiments.ScenarioResult.to_json": _count_written,
    "tomography.SweepResult.to_csv": _count_written,
    "tomography.SweepResult.to_json": _count_written,
    "cli._write_visibility_contour": _count_contour_written,
}


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

def _targets(module, extra: tuple[str, ...]) -> list[str]:
    names = [name for name, obj in vars(module).items()
             if inspect.isfunction(obj) and obj.__module__ == module.__name__
             and not name.startswith("_")]
    return names + list(extra)


def _package_modules(package: str) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def install(tracer: Tracer, package: str = "bornsim", layers=LAYERS,
            extra_functions=None, methods=None):
    """Wrap the layer functions and methods; return a function that undoes it."""
    extra_functions = EXTRA_FUNCTIONS if extra_functions is None else extra_functions
    methods = METHODS if methods is None else methods
    modules = _package_modules(package)
    wrappers: dict[int, tuple] = {}
    for layer in layers:
        module = sys.modules[f"{package}.{layer}"]
        for name in _targets(module, extra_functions.get(layer, ())):
            fn = getattr(module, name)
            span = f"{layer}.{name}"
            wrappers[id(fn)] = (fn, tracer.wrap(span, fn, COUNTERS.get(span)))
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
    for (layer, cls_name), names in methods.items():
        cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
        for name in names:
            fn = cls.__dict__[name]
            span = f"{layer}.{cls_name}.{name}"
            setattr(cls, name, tracer.wrap(span, fn, COUNTERS.get(span)))
            undo.append((cls, name, fn))
            wrappers[id(fn)] = (fn, None)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    try:
        verify_bindings(modules, {id(fn): fn for fn, _ in wrappers.values()})
    except RuntimeError:
        restore()
        raise
    return restore


def _references(obj, depth: int = 3):
    """Objects reachable from a module-level value through containers."""
    yield obj
    if depth == 0:
        return
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    elif inspect.isfunction(obj):
        children = list(obj.__defaults__ or ()) + list((obj.__kwdefaults__ or {}).values())
    else:
        return
    for child in children:
        yield from _references(child, depth - 1)


def verify_bindings(modules, originals: dict[int, object]) -> None:
    """Raise if any module, class or container still refers to an unwrapped original."""
    missed = []
    for module in modules:
        for attr, value in vars(module).items():
            owners = [(f"{module.__name__}.{attr}", value)]
            if inspect.isclass(value) and value.__module__ == module.__name__:
                owners += [(f"{module.__name__}.{attr}.{k}", v) for k, v in vars(value).items()]
            for where, root in owners:
                for ref in _references(root):
                    if id(ref) in originals and originals[id(ref)] is ref:
                        missed.append(f"{where} -> {ref.__qualname__}")
    if missed:
        raise RuntimeError("tracing missed bindings (would undercount): " + ", ".join(missed))


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - _covered(children[id(s)], s.start, s.end)
    return dict(out)


def _total_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration of its outermost spans (no double counting)."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        p = s.parent
        while p is not None and p.name != s.name:
            p = p.parent
        if p is None:
            out[s.name] += s.end - s.start
    return dict(out)


WRITERS = ("experiments.ScenarioResult.to_csv", "experiments.ScenarioResult.to_json",
           "tomography.SweepResult.to_csv", "tomography.SweepResult.to_json",
           "cli._write_visibility_contour")
PARSERS = ("cli.main", "cli.build_parser", "cli.resolve_config", "cli.parse_grid")
NOT_SCENARIOS = ("experiments.conditional_mode_probs", "experiments.ScenarioResult.to_csv",
                 "experiments.ScenarioResult.to_json")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics (value, unit) from the recorded spans and counts."""
    own = self_times(tracer.spans)
    total = _total_times(tracer.spans)
    calls = Counter(s.name for s in tracer.spans)
    counts = tracer.counts

    def self_s(*names: str) -> float:
        return sum(own.get(n, 0.0) for n in names)

    scenarios = [n for n in own if n.startswith("experiments.") and n not in NOT_SCENARIOS]
    draws = counts["field.complex_normals.draws"]
    elements = counts["detection.marcum_q1.elements"]
    fits = calls["tomography.mle_qst"]
    written = counts["cli.write.bytes"]
    return {
        "field.complex_normals.self_s": (self_s("field.RngStream.complex_normals"), "s"),
        "field.complex_normals.draws": (draws, "count"),
        "field.draws_per_s": (_ratio(draws, total.get("field.RngStream.complex_normals", 0)), "1/s"),
        "field.realize_batch.self_s": (self_s("field.realize_batch"), "s"),
        "field.substream.self_s": (self_s("field.RngStream.substream"), "s"),
        "optics.haar_unitary.calls": (calls["optics.haar_unitary"], "count"),
        "optics.haar_unitary.self_s": (self_s("optics.haar_unitary"), "s"),
        "detection.marcum_q1.calls": (calls["detection.marcum_q1"], "count"),
        "detection.marcum_q1.elements": (elements, "count"),
        "detection.marcum_q1.self_s": (self_s("detection.marcum_q1"), "s"),
        "detection.marcum_q1.us_per_element":
            (1e6 * _ratio(self_s("detection.marcum_q1"), elements), "us"),
        "detection.detect_batch.self_s": (self_s("detection.detect_batch"), "s"),
        "detection.detect_batch.trials": (counts["detection.detect_batch.trials"], "count"),
        "experiments.scenarios.self_s": (self_s(*scenarios), "s"),
        "experiments.conditional_mode_probs.calls":
            (calls["experiments.conditional_mode_probs"], "count"),
        "tomography.measure.self_s":
            (self_s("tomography._measure_batch", "tomography.measure_expectations"), "s"),
        "tomography.measure.states": (counts["tomography.measure.states"], "count"),
        "tomography.measure.fallback_calls":
            (counts["tomography.measure.fallback_calls"], "count"),
        "tomography.linear_qst.self_s": (self_s("tomography.linear_qst"), "s"),
        "tomography.mle_qst.calls": (fits, "count"),
        "tomography.mle_qst.self_s": (self_s("tomography.mle_qst"), "s"),
        "tomography.mle_qst.iters": (counts["tomography.mle_qst.iters"], "count"),
        "tomography.mle_qst.converged_ratio":
            (_ratio(counts["tomography.mle_qst.converged"], fits), "ratio"),
        "tomography.fits_per_s": (_ratio(fits, total.get("tomography.mle_qst", 0)), "1/s"),
        "tomography.ppt_witness.self_s": (self_s("tomography.ppt_witness"), "s"),
        "cli.parse_s": (self_s(*PARSERS), "s"),
        "cli.write.self_s": (self_s(*WRITERS), "s"),
        "cli.write.bytes": (written, "byte"),
        "cli.write.mib_per_s":
            (_ratio(written / 2**20, sum(total.get(n, 0.0) for n in WRITERS)), "MiB/s"),
    }

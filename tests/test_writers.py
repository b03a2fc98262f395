"""The streaming writers: json's sorted indent-2 bytes and csv.writer's rows, in bounded
memory."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornsim import cli, experiments, tomography

C = experiments._CHUNK_VALUES
LENGTHS = [0, 1, 2, C - 1, C, C + 1]


class Rows(list):
    """A list that the writer receives as a one-pass iterator of its rows."""


def for_writer(o):
    if isinstance(o, Rows):
        return (for_writer(v) for v in o)
    if isinstance(o, dict):
        return {k: for_writer(v) for k, v in o.items()}
    if isinstance(o, list):
        return [for_writer(v) for v in o]
    return o


def to_lists(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, dict):
        return {k: to_lists(v) for k, v in o.items()}
    if isinstance(o, list):
        return [to_lists(v) for v in o]
    return o


@st.composite
def arrays(draw):
    """Float (with NaN and +-inf) or int arrays of rank 0-3; the leading axis holds about
    one chunk of rows (C values, or one row where a row is longer) or a few rows."""
    rank = draw(st.integers(0, 3))
    row = [draw(st.integers(0, 3)) for _ in range(rank - 1)]
    rows = C // max(1, math.prod(row))
    lengths = [0, 1, 2, rows - 1, rows, rows + 1, 2 * rows + 1]
    shape = tuple([draw(st.sampled_from(lengths))] * (rank > 0) + row)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return rng.integers(-2 ** 62, 2 ** 62, size=shape)
    values = rng.standard_normal(shape) * 10.0 ** draw(st.integers(-300, 300))
    flat = values.reshape(-1)
    flat[rng.integers(0, 4, size=flat.size) == 0] = rng.choice([np.nan, np.inf, -np.inf])
    return values


texts = st.text(st.sampled_from('a"\\/\n\t\x00é☃\U0001f600'), max_size=6) | st.text(max_size=6)
scalars = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | texts
           | st.floats() | st.floats().map(np.float64))
row_lists = st.builds(lambda n, row: Rows([row] * n), st.sampled_from(LENGTHS),
                      st.dictionaries(texts, scalars, max_size=3) | st.lists(scalars, max_size=3))
payloads = st.recursive(
    scalars | arrays() | row_lists,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4)
    | st.lists(inner, max_size=3).map(Rows),
    max_leaves=8)


@given(payload=payloads)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_json_writer_gives_json_dumps_bytes(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "out.json"
    experiments._write_json(path, for_writer(payload))
    expected = json.dumps(to_lists(payload), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode()


def test_array_rows_longer_than_a_chunk_go_one_at_a_time():
    rows = np.arange(3 * (C + 1)).reshape(3, C + 1)
    assert [len(chunk) for chunk in experiments._chunks(rows)] == [1, 1, 1]
    # rows of 3 values go C // 3 at a time
    n, step = C + 1, C // 3
    assert [len(chunk) for chunk in experiments._chunks(rows.reshape(n, 3))] == \
        [min(step, n - start) for start in range(0, n, step)]


def test_json_writer_spells_edge_values_as_json():
    pieces = "".join(experiments._json_pieces(
        {"b": [np.float64(np.nan), np.inf, -np.inf, np.float64(0.1)], "a": {}, "c": [],
         "d": np.zeros((0, 2)), "e": np.array(3), "f": iter([]), "g": 'q"\\é'},
        ""))
    assert pieces == ('{\n  "a": {},\n  "b": [\n    NaN,\n    Infinity,\n    -Infinity,\n'
                      '    0.1\n  ],\n  "c": [],\n  "d": [],\n  "e": 3,\n  "f": [],\n'
                      '  "g": "q\\"\\\\\\u00e9"\n}')


def csv_by_whole_lists(path, columns):
    """The CSV writer before row chunks: every column one Python list."""
    cells = []
    for column in map(np.asarray, columns.values()):
        if not np.issubdtype(column.dtype, np.integer):
            column = column.astype(float, copy=False)
        cells.append(map(repr, column.tolist()))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells))


# visibility's column labels, vis_alpha_{a:g}, for the amplitudes -0.5, -0.0, 1e-300 and 1e300
LABELS = ["gamma", "vis_alpha_-0.5", "vis_alpha_-0", "vis_alpha_1e-300", "vis_alpha_1e+300"]


@pytest.fixture(scope="module")
def command_headers(tmp_path_factory):
    """The column names each command passes to the CSV writer at its defaults, and
    visibility's for --alphas=-0.0,1e-300,1e300 (it refuses a negative amplitude)."""
    out, headers, write = tmp_path_factory.mktemp("commands"), [], experiments._write_csv

    def spy(path, columns):
        headers.append(list(columns))
        write(path, columns)

    with pytest.MonkeyPatch.context() as mp:
        for module in (experiments, tomography, cli):
            mp.setattr(module, "_write_csv", spy)
        for argv in [[c] for c in cli.COMMANDS] + [["visibility", "--alphas=-0.0,1e-300,1e300"]]:
            assert cli.main(argv + ["--format", "csv", "--out-dir", str(out)]) == 0
    assert len(headers) == len(cli.COMMANDS) + 1
    assert headers[-1] == LABELS[:1] + LABELS[2:]
    return headers + [LABELS]


@pytest.mark.parametrize("n", LENGTHS + [2 * C + 1])
def test_csv_writer_gives_whole_list_bytes(tmp_path, n, command_headers):
    rng = np.random.default_rng(n)
    floats = rng.standard_normal(n) * 1e-3
    floats[::7] = np.inf
    floats[3::11] = np.nan
    columns = {"x": np.arange(n) / 3.0, "count": rng.integers(-10 ** 12, 10 ** 12, size=n),
               "f32": floats.astype(np.float32), "y": floats, "flag": np.arange(n) % 2 == 0}
    # the writer joins cells without quoting: no number and no command's column name needs it
    for columns in [columns] + [dict.fromkeys(names, floats) for names in command_headers]:
        experiments._write_csv(tmp_path / "chunked.csv", columns)
        csv_by_whole_lists(tmp_path / "listed.csv", columns)
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "listed.csv").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_visibility_contour_writes_in_bounded_memory(tmp_path, fmt):
    # listing whole columns and 3,600 row dicts peaked at 502 KiB (csv) and 992 KiB (json)
    _, values = cli.resolve_config(cli.build_parser().parse_args(["visibility-contour"]))
    rows = cli.COMMANDS["visibility-contour"].run(values)
    assert rows.shape == (3600, 3)
    tracemalloc.start()
    try:
        cli._write_visibility_contour(rows, tmp_path / "contour", fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, f"{fmt}: {peak / 1024:.0f} KiB"

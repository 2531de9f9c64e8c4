"""The column-wise renderers against per-cell reference renderers.

The reference below formats one cell at a time and lets ``json.dumps``
lay the records out; the CLI's renderers format each column once and write
the JSON layout from a template.  Both must give the same bytes.
"""

import csv
import io
import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonloss import cli
from noonloss.cli import Table, render_csv, render_json, render_text

json_float = cli._json_float


def _cell_text(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    return str(value)


def _cell_json(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return float(f"{value:.12g}")
    return value


def ref_csv(names, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        writer.writerow([_cell_text(v) for v in row])
    return buf.getvalue()


def ref_json(names, rows, json_object_if_single):
    records = [dict(zip(names, (_cell_json(v) for v in row))) for row in rows]
    doc = records[0] if len(records) == 1 and json_object_if_single else records
    return json.dumps(doc, indent=2) + "\n"


def ref_text(names, rows):
    if len(rows) == 1:
        width = max(len(c) for c in names)
        lines = [f"{name:<{width}} = {_cell_text(v)}" for name, v in zip(names, rows[0])]
        return "\n".join(lines) + "\n"
    cells = [[_cell_text(v) for v in row] for row in rows]
    widths = [max(len(name), max(len(row[i]) for row in cells)) for i, name in enumerate(names)]
    out = ["  ".join(c.ljust(w) for c, w in zip(names, widths)).rstrip()]
    for row in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"


SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -2.5e-320, sys.float_info.min,
                  sys.float_info.max, 1e12, 123456789012.5, 999999999999.5, 1.5e12, 1e15 + 0.5,
                  9999999999999998.0, 1e16, 3.0, -7.0, 1e100, 2.0 ** 60]
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e12, max_value=1e16),
    st.floats(min_value=-1e16, max_value=-1e12),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.integers(min_value=-2 ** 60, max_value=2 ** 60).map(float),
    st.sampled_from(SPECIAL_FLOATS),
)
ints = st.one_of(st.integers(), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
strings = st.one_of(st.text(), st.text(alphabet=',"≈ \n\\x%').filter(bool),
                    st.sampled_from(["L > L_c: precision nondecreasing in N", "a,b", 'say "hi"', "≈"]))
COLUMN_KINDS = [st.booleans(), ints, floats, strings]


@st.composite
def tables(draw, rows=None):
    names = draw(st.lists(st.text(alphabet='abcN_φ≈,"% ', min_size=1, max_size=8),
                          min_size=1, max_size=6, unique=True))
    n_rows = draw(st.integers(0, 6)) if rows is None else rows
    kinds = [draw(st.sampled_from(COLUMN_KINDS)) for _ in names]
    columns = [draw(st.lists(kind, min_size=n_rows, max_size=n_rows)) for kind in kinds]
    single_object = draw(st.booleans())
    return names, columns, single_object


def rows_of(columns):
    return [list(row) for row in zip(*columns)]


def check(names, columns, single_object):
    table = Table(names, columns, json_object_if_single=single_object)
    rows = rows_of(columns)
    assert render_csv(table) == ref_csv(names, rows)
    assert render_json(table) == ref_json(names, rows, single_object)
    if rows:
        assert render_text(table) == ref_text(names, rows)
    else:
        # the per-cell renderer raised on an empty table; this one prints the header
        assert render_text(table) == "  ".join(names).rstrip() + "\n"


@settings(max_examples=200, deadline=None)
@given(tables())
def test_renderers_match_the_per_cell_reference(table):
    check(*table)


@settings(max_examples=100, deadline=None)
@given(tables(rows=1))
def test_single_row_object_and_list_layouts(table):
    check(*table)


@settings(max_examples=200, deadline=None)
@given(st.lists(floats, min_size=1, max_size=50))
def test_float_column_matches_reference(values):
    check(["x"], [values], False)


def test_special_floats_and_empty_sweep():
    check(["v", "w"], [SPECIAL_FLOATS, [str(v) for v in SPECIAL_FLOATS]], False)
    check(["N", "delta_phi_min"], [[], []], False)
    assert render_json(Table(["N"], [[]], json_object_if_single=False)) == "[]\n"


def _column_kinds(rows):
    """One column of each numeric kind, ``rows`` long, cycling through edge values."""
    def cycle(values):
        return [values[k % len(values)] for k in range(rows)]
    return {
        "bool": cycle([True, False, False]),
        "int64": cycle([np.int64(v) for v in (0, -1, 7, 2 ** 63 - 1, -2 ** 63, 123456789012345)]),
        "bigint": cycle([2 ** 63, -2 ** 63 - 1, 2 ** 64 + 5, -(10 ** 30), 10 ** 400, 3]),
        "special": cycle(SPECIAL_FLOATS),
        "float": [(-1.0) ** k * 10.0 ** (k % 37 - 18) * (1.0 + k / 7.0) for k in range(rows)],
    }


# chunk boundaries of a renderer that formats rows in blocks of 1,000
@pytest.mark.parametrize("rows", [0, 1, 999, 1000, 1001, 2345])
def test_long_numeric_and_mixed_tables_match_the_reference(rows):
    kinds = _column_kinds(rows)
    check(list(kinds), list(kinds.values()), False)
    labels = [["x", "a,b", 'say "hi"', "≈", ""][k % 5] for k in range(rows)]
    check(["label", *kinds], [labels, *kinds.values()], False)
    check(["N", "bigint", "text"], [kinds["int64"], kinds["bigint"], labels], False)


# ---------------------------------------------------------------------------
# the chunked JSON template and its re-encode rule

def _ordinary_floats(rows, seed):
    """Floats from 1e-39 to 1e10 whose 12-digit text keeps its "." and no
    exponent that _json_float rewrites, mean-like e-31 normals among them:
    11 significant digits, the last nonzero, and at most 10 before the point."""
    rng = random.Random(seed)
    values = [rng.choice((-1, 1)) * (10 * rng.randrange(10 ** 9, 10 ** 10) + rng.randint(1, 9))
              * 10.0 ** rng.randint(-49, -1) for _ in range(rows)]
    values[::7] = [1.234567e-31 * (1.0 + k / 1e4) for k in range(0, rows, 7)]
    return values


# one float cell per case of the rule: no "." (integral, inf, -inf, nan, a
# one-digit mantissa), an exponent of 12 to 15, and e-308 to e-324
REENCODED = [1.0, 0.0, -0.0, 350000000000.0, -7.0, math.inf, -math.inf, math.nan, 1e20, 2e-31,
             1.5e12, -123456789012345.6, 9.99999999999e15, 2.3e-308, 1e-309, -2.5e-320, 5e-324]


def _fast_path_table(rows):
    names = ["x.y", "100%", "e+12", "N", "flag", "mean"]
    columns = [_ordinary_floats(rows, 1), _ordinary_floats(rows, 2), _ordinary_floats(rows, 3),
               [np.int64(k * 37 - 500) if k % 2 else k * 37 - 500 for k in range(rows)],
               [k % 3 == 0 for k in range(rows)], _ordinary_floats(rows, 4)]
    return names, columns


@pytest.fixture
def reencoded_calls(monkeypatch):
    """The %.12g texts that reach _reencoded, the one per-cell re-encoder."""
    calls = []
    reencoded = cli._reencoded

    def counted(text):
        calls.append(text)
        return reencoded(text)

    monkeypatch.setattr(cli, "_reencoded", counted)
    return calls


@pytest.mark.parametrize("rows", [999, 1000, 1001, 2345])
def test_clean_numeric_table_is_not_re_encoded(rows, reencoded_calls):
    names, columns = _fast_path_table(rows)
    for column in columns[:3] + columns[5:]:
        assert all("." in text and not cli._REENCODE.search(text) for text in map("%.12g".__mod__, column))
    assert render_json(Table(names, columns, json_object_if_single=False)) == ref_json(names, rows_of(columns), False)
    assert reencoded_calls == []


@pytest.mark.parametrize("rows", [999, 1000, 1001, 2345])
@pytest.mark.parametrize("bad", REENCODED, ids=repr)
def test_one_bad_cell_in_a_middle_chunk_is_re_encoded_alone(rows, bad, reencoded_calls):
    names, columns = _fast_path_table(rows)
    columns[-1][rows // 2] = bad
    out = render_json(Table(names, columns, json_object_if_single=False))
    assert out == ref_json(names, rows_of(columns), False)
    assert reencoded_calls == ["%.12g" % bad]


@pytest.mark.parametrize("rows", [1000, 2345])
def test_dense_bad_cells_in_several_columns_are_re_encoded_alone(rows, reencoded_calls):
    names, columns = _fast_path_table(rows)
    float_columns = [columns[j] for j in (0, 1, 2, 5)]
    for j, column in enumerate(float_columns):
        for k in range(j, rows, 3 + j):
            column[k] = REENCODED[(k + j) % len(REENCODED)]
    out = render_json(Table(names, columns, json_object_if_single=False))
    assert out == ref_json(names, rows_of(columns), False)
    texts = ["%.12g" % value for row in rows_of(float_columns) for value in row]
    assert reencoded_calls == [text for text in texts if "." not in text or cli._REENCODE.search(text)]


@settings(max_examples=2000, deadline=None)
@given(st.one_of(floats, st.floats(min_value=1e-40, max_value=1e-28), st.floats(min_value=1e100, max_value=1e200),
                 st.floats(min_value=1e11, max_value=1e17).map(lambda v: float("%.12g" % v))))
def test_the_re_encode_rule_misses_no_float(value):
    # render_json keeps the %.12g text of a whole chunk when it finds no cell
    # without a "." and no match of _REENCODE: that text must be _json_float's
    text = "%.12g" % value
    if "." in text and not cli._REENCODE.search(text):
        assert json_float(value) == text


class _Recorder(io.StringIO):
    """A text stream that keeps the length of each write."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("length", [0, 1, cli.WRITE_CHARS - 1, cli.WRITE_CHARS, 2 * cli.WRITE_CHARS + 7])
def test_write_splits_the_payload_and_keeps_every_character(length):
    text = "".join(random.Random(length).choices("abéη\n", k=length))
    stream = _Recorder()
    cli._write(stream, text)
    assert stream.getvalue() == text
    assert all(0 < n <= cli.WRITE_CHARS for n in stream.lengths)
    assert len(stream.lengths) == -(-length // cli.WRITE_CHARS)


@pytest.mark.parametrize("fmt, renderer", [("json", render_json), ("csv", render_csv), ("text", render_text)])
def test_emit_writes_a_payload_of_several_writes_unchanged(tmp_path, capsys, fmt, renderer):
    rows = cli.WRITE_CHARS // 8
    table = Table(["N", "eta", "label"], [list(range(rows)), [k / 7 for k in range(rows)], ["η"] * rows],
                  json_object_if_single=False)
    payload = renderer(table)
    assert len(payload) > 2 * cli.WRITE_CHARS
    target = tmp_path / f"out.{fmt}"
    cli.emit(table, fmt, str(target))
    assert target.read_text(encoding="utf-8") == payload
    cli.emit(table, fmt, None)
    assert capsys.readouterr().out == payload

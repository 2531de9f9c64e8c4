"""The column-wise renderers against per-cell reference renderers.

The reference below formats one cell at a time and lets ``json.dumps``
lay the records out; the CLI's renderers format each column once and write
the JSON layout from a template.  Both must give the same bytes.
"""

import csv
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonloss.cli import Table, render_csv, render_json, render_text


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

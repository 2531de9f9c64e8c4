"""The block-wise renderers against per-cell reference renderers.

The references below format one cell at a time, a JSON float as its
``%.12g`` text with ".0" after an integral one; the CLI's renderers format
each column of a block once and write the JSON layout from a template.  Both must give
the same bytes, and each JSON document must read back as the one that
``json.dumps`` writes for the float of each ``%.12g`` text
(``_helpers.json_dumps_reference``), down to the bits of every float.
"""

import csv
import io
import json
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonloss import cli
from noonloss.cli import Table, render_csv, render_json, render_text

from _helpers import json_document, json_dumps_reference

json_float = cli._json_float


def blocks_of(columns, size=cli.CHUNK_ROWS):
    """``columns`` cut into blocks of ``size`` rows, the last one shorter."""
    return [[column[k:k + size] for column in columns] for k in range(0, len(columns[0]), size)]


def rendered(renderer, table) -> str:
    """The text that ``renderer`` writes for ``table``."""
    buf = io.StringIO()
    renderer(table, buf)
    return buf.getvalue()


def _cell_text(value) -> str:
    if isinstance(value, int):  # bools too
        return str(int(value))
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    return str(value)


def _cell_json(value) -> str:
    """A float as its CSV text, ".0" after one with neither "." nor "e",
    and "inf", "-inf", "nan" as strings; ints as digits, strings as
    json.dumps writes them."""
    if isinstance(value, float):
        text = _cell_text(value)
        if not math.isfinite(value):
            return f'"{text}"'
        return text if "." in text or "e" in text else text + ".0"
    if isinstance(value, int):
        return str(int(value))
    return json.dumps(value)


def ref_csv(names, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        writer.writerow([_cell_text(v) for v in row])
    return buf.getvalue()


def ref_json(names, rows, json_object_if_single):
    """The layout of json.dumps(..., indent=2), cells by _cell_json."""
    records = [[f"{json.dumps(name)}: {_cell_json(v)}" for name, v in zip(names, row)] for row in rows]
    if len(records) == 1 and json_object_if_single:
        return "{\n" + ",\n".join(f"  {field}" for field in records[0]) + "\n}\n"
    if not records:
        return "[]\n"
    return "[\n" + ",\n".join("  {\n" + ",\n".join(f"    {field}" for field in record) + "\n  }"
                              for record in records) + "\n]\n"


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
ints = st.integers()
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


def check_json(names, columns, single_object):
    """render_json's bytes against ref_json, and its document against
    json_dumps_reference: the same keys in order, types, float bits and
    signs of zero, the same strings; json.dumps lays it out the same."""
    out = rendered(render_json, Table(names, blocks_of(columns), json_object_if_single=single_object))
    rows = rows_of(columns)
    assert out == ref_json(names, rows, single_object)
    reference = json_dumps_reference(names, rows, single_object)
    assert json_document(out) == json_document(reference)
    assert json.dumps(json.loads(out), indent=2) + "\n" == reference


def check(names, columns, single_object):
    table = Table(names, blocks_of(columns), json_object_if_single=single_object)
    rows = rows_of(columns)
    assert rendered(render_csv, table) == ref_csv(names, rows)
    check_json(names, columns, single_object)
    if rows:
        assert rendered(render_text, table) == ref_text(names, rows)
    else:
        # the per-cell renderer raised on an empty table; this one prints the header
        assert rendered(render_text, table) == "  ".join(names).rstrip() + "\n"


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
    assert rendered(render_json, Table(["N"], [], json_object_if_single=False)) == "[]\n"


@settings(max_examples=200, deadline=None)
@given(tables(), st.lists(st.integers(1, 4), min_size=1, max_size=6))
def test_every_cut_into_blocks_renders_as_one_block(table, sizes):
    # blocks of any lengths, a one-row first block among them, read as their concatenation;
    # blocks from a generator are read once
    names, columns, single_object = table
    whole = Table(names, blocks_of(columns), json_object_if_single=single_object)
    cuts, start = [], 0
    while columns[0][start:]:
        size = sizes[len(cuts) % len(sizes)]
        cuts.append([column[start:start + size] for column in columns])
        start += size
    for renderer in (render_csv, render_json, render_text):
        cut = Table(names, iter(cuts), json_object_if_single=single_object)
        assert rendered(renderer, cut) == rendered(renderer, whole)


def _column_kinds(rows):
    """One column of each numeric kind, ``rows`` long, cycling through edge values."""
    def cycle(values):
        return [values[k % len(values)] for k in range(rows)]
    return {
        "bool": cycle([True, False, False]),
        "int": cycle([0, -1, 7, 2 ** 63 - 1, -2 ** 63, 123456789012345]),
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
    check(["N", "bigint", "text"], [kinds["int"], kinds["bigint"], labels], False)


# ---------------------------------------------------------------------------
# the chunked JSON template and the cells it mends

def _ordinary_floats(rows, seed):
    """Floats from 1e-39 to 1e10 whose 12-digit text has a ".", mean-like
    e-31 normals among them: 11 significant digits, the last nonzero, and
    at most 10 before the point."""
    rng = random.Random(seed)
    values = [rng.choice((-1, 1)) * (10 * rng.randrange(10 ** 9, 10 ** 10) + rng.randint(1, 9))
              * 10.0 ** rng.randint(-49, -1) for _ in range(rows)]
    values[::7] = [1.234567e-31 * (1.0 + k / 1e4) for k in range(0, rows, 7)]
    return values


# float cells with no "." in their 12-digit text (integral, inf, -inf, nan, a
# one-digit mantissa), which _mended spells, and cells with one whose
# spelling json.dumps would change (an exponent of 12 to 15, and e-308 to
# e-324), which keep their text
EDGE_FLOATS = [1.0, 0.0, -0.0, 350000000000.0, 999768412082.0, -7.0, math.inf, -math.inf, math.nan, 1e20,
               2e-31, 1.5e12, -123456789012345.6, 9.99999999999e15, 2.3e-308, 1e-309, -2.5e-320, 5e-324]


def _dotless(values):
    """The 12-digit texts of ``values`` that have no "."."""
    return [text for text in map("%.12g".__mod__, values) if "." not in text]


def _fast_path_table(rows):
    names = ["x.y", "100%", "e+12", "N", "flag", "mean"]
    columns = [_ordinary_floats(rows, 1), _ordinary_floats(rows, 2), _ordinary_floats(rows, 3),
               [k * 37 - 500 for k in range(rows)], [k % 3 == 0 for k in range(rows)], _ordinary_floats(rows, 4)]
    return names, columns


@pytest.fixture
def mended_calls(monkeypatch):
    """The %.12g texts that reach _mended, the one per-cell function."""
    calls = []
    mended = cli._mended

    def counted(text):
        calls.append(text)
        return mended(text)

    monkeypatch.setattr(cli, "_mended", counted)
    return calls


@pytest.mark.parametrize("rows", [999, 1000, 1001, 2345])
def test_clean_numeric_table_is_written_as_formatted(rows, mended_calls):
    names, columns = _fast_path_table(rows)
    for column in columns[:3] + columns[5:]:
        assert _dotless(column) == []
    check_json(names, columns, False)
    assert mended_calls == []


@pytest.mark.parametrize("rows", [999, 1000, 1001, 2345])
@pytest.mark.parametrize("edge", EDGE_FLOATS, ids=repr)
def test_one_dotless_cell_in_a_middle_chunk_is_mended_alone(rows, edge, mended_calls):
    names, columns = _fast_path_table(rows)
    columns[-1][rows // 2] = edge
    check_json(names, columns, False)
    assert mended_calls == _dotless([edge])


@pytest.mark.parametrize("rows", [1000, 2345])
def test_dense_dotless_cells_in_several_columns_are_mended_alone(rows, mended_calls):
    names, columns = _fast_path_table(rows)
    float_columns = [columns[j] for j in (0, 1, 2, 5)]
    for j, column in enumerate(float_columns):
        for k in range(j, rows, 3 + j):
            column[k] = EDGE_FLOATS[(k + j) % len(EDGE_FLOATS)]
    check_json(names, columns, False)
    # each chunk is mended column by column, so only the multiset is the table's
    assert sorted(mended_calls) == sorted(_dotless(value for row in rows_of(float_columns) for value in row))


@settings(max_examples=2000, deadline=None)
@given(st.one_of(floats, st.floats(min_value=1e-40, max_value=1e-28), st.floats(min_value=1e100, max_value=1e200),
                 st.floats(min_value=1e11, max_value=1e17).map(lambda v: float("%.12g" % v))))
def test_every_float_keeps_its_value_and_is_a_json_float(value):
    # a chunk whose float cells all have a "." is written as formatted, so
    # each such %.12g text must already be the JSON cell
    text = "%.12g" % value
    if "." in text:
        assert json_float(value) == text
    cell = json.loads(json_float(value))
    if math.isfinite(value):
        assert type(cell) is float and cell.hex() == float(text).hex()
    else:
        assert cell == text


class _Recorder(io.StringIO):
    """A text stream that keeps the length of each write."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return super().write(text)


def _longest_chunk(payload, fmt, width):
    """The length of the longest run of CHUNK_ROWS rows in ``payload``, a
    table of ``width`` columns rendered in ``fmt``, with its line ends and
    the separators between its records."""
    lines = payload.splitlines(keepends=True)
    body, per_row = (lines[1:-1], width + 2) if fmt == "json" else (lines[1:], 1)
    step = cli.CHUNK_ROWS * per_row
    return max(sum(map(len, body[start:start + step])) for start in range(0, len(body), step))


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize("rows, label", [(100_000, None), (10_007, "η, \"x\"")], ids=["numeric", "with-text"])
def test_emit_writes_no_more_than_one_chunk_at_a_time(tmp_path, monkeypatch, fmt, rows, label):
    names = ["N", "eta", "special"]
    columns = [list(range(rows)), [k / 7 for k in range(rows)],
               [SPECIAL_FLOATS[k % len(SPECIAL_FLOATS)] for k in range(rows)]]
    if label is not None:
        names[-1], columns[-1] = "label", [label] * rows
    table = Table(names, blocks_of(columns), json_object_if_single=False)
    reference = {"csv": ref_csv, "json": lambda *table: ref_json(*table, False), "text": ref_text}[fmt](
        names, rows_of(columns))
    target = tmp_path / f"out.{fmt}"
    cli.emit(table, fmt, str(target))
    assert target.read_text(encoding="utf-8") == reference
    stdout = _Recorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    cli.emit(table, fmt, None)
    assert stdout.getvalue() == reference
    assert max(stdout.lengths) <= _longest_chunk(reference, fmt, len(names)) < len(reference) // 9

"""Column-wise report emission against the former per-cell conversion."""

import argparse
import contextlib
import csv
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ifsconj import cli

SPECIALS = np.array([np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e308, 0.1, -2.5])


def jsonable_per_cell(obj):
    """The conversion reports used before they were emitted a column at a time."""
    if isinstance(obj, dict):
        return {k: jsonable_per_cell(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable_per_cell(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable_per_cell(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def csv_per_cell(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([jsonable_per_cell(v) for v in row])
    return buf.getvalue()


def emitted(fmt, report=None, csv_table=None):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(argparse.Namespace(format=fmt, output=None), "test", {}, report, csv_table)
    return buf.getvalue()


def assert_same_json(value):
    # nan != nan, so compare the encoded text, which is what reports hold; it
    # also tells 1 from 1.0 and true from 1
    assert json.dumps(cli._jsonable(value)) == json.dumps(jsonable_per_cell(value))


def test_float_specials_json():
    assert_same_json(SPECIALS)
    assert_same_json(SPECIALS[3:])  # finite: the one-tolist path


def test_integer_and_bool_arrays_json():
    assert_same_json(np.array([-(2**63), 0, 7, 2**63 - 1], dtype=np.int64))
    assert_same_json(np.array([True, False, True]))


def test_two_dimensional_array_with_one_inf_json():
    a = np.arange(12, dtype=float).reshape(3, 4)
    a[1, 2] = np.inf
    assert cli._jsonable(a) == jsonable_per_cell(a)
    assert cli._jsonable(a)[1][2] == "inf"


def test_empty_array_json():
    assert cli._jsonable(np.array([])) == jsonable_per_cell(np.array([])) == []


def test_report_envelope_bytes():
    report = {"values": SPECIALS, "counts": np.array([1, 2], dtype=np.int64),
              "scalar": np.float64(-np.inf), "nested": [SPECIALS[:2], (np.int64(3),)]}
    text = emitted("json", report)
    ref = {"version": cli.__version__, "schema_version": cli.SCHEMA_VERSION,
           "command": "test", "config": {}, "report": jsonable_per_cell(report)}
    assert text == json.dumps(ref, sort_keys=True, indent=2) + "\n"


def test_csv_columns_match_per_cell_rows():
    n = len(SPECIALS)
    steps = range(1, n + 1)
    symbols = np.arange(n, dtype=np.int64) % 2 + 1
    flags = np.arange(n) % 3 == 0
    verdicts = ["hyperbolic", "non-hyperbolic"] * (n // 2)
    columns = (steps, symbols, SPECIALS, flags, verdicts, SPECIALS[::-1])
    header = ["step", "symbol", "value", "flag", "verdict", "reversed"]
    # the handlers used to zip the arrays, which yields numpy scalars
    assert emitted("csv", csv_table=(header, columns)) == csv_per_cell(
        header, list(zip(*columns))
    )


def test_csv_empty_audit_table_is_header_only():
    header = ["map", "fixed_point", "derivative", "margin", "verdict"]
    text = emitted("csv", csv_table=(header, list(zip(*[]))))
    assert text == csv_per_cell(header, []) == "map,fixed_point,derivative,margin,verdict\r\n"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    values=hnp.arrays(
        np.float64,
        st.integers(0, 40),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
)
def test_float_columns_property(values):
    assert_same_json(values)
    columns = (range(len(values)), values)
    assert emitted("csv", csv_table=(["i", "v"], columns)) == csv_per_cell(
        ["i", "v"], list(zip(*columns))
    )

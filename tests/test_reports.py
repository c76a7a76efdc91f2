"""Serialization round trips and formatting rules."""

import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmjones.cli import main
from mmjones.knots import BraidWord, catalog_lookup, default_catalog
from mmjones.mmexpand import DTable, LineTable, build_dtable, to_z_lines
from mmjones.reports import (
    dump_json,
    dtable_doc,
    frac_str,
    linetable_doc,
    linetable_tsv,
    parse_dtable,
    parse_frac,
    parse_linetable,
    parse_linetable_tsv,
)


@pytest.fixture(scope="module")
def sample():
    d = build_dtable(BraidWord(3, [-1, -1, -1, -2, 1, -2]), 3)
    return d, to_z_lines(d)


def test_frac_strings():
    assert frac_str(Fraction(3)) == "3"
    assert frac_str(Fraction(-7, 2)) == "-7/2"
    assert parse_frac("-7/2") == Fraction(-7, 2)
    assert parse_frac("42") == Fraction(42)


def test_no_floats_anywhere(sample):
    d, lines = sample
    doc = dtable_doc(d)
    assert all(isinstance(c, str) for row in doc["rows"] for c in row)
    ldoc = linetable_doc(lines)
    assert all(isinstance(v, str) for row in ldoc["lines"] for v in row["values"])


def test_dtable_round_trip(sample):
    d, _ = sample
    assert parse_dtable(dtable_doc(d)).entries == d.entries


def test_linetable_round_trip(sample):
    _, lines = sample
    parsed = parse_linetable(linetable_doc(lines))
    assert parsed.rows == lines.rows and parsed.tag == lines.tag


def test_tsv_round_trip(sample):
    _, lines = sample
    text = linetable_tsv(lines)
    assert text.splitlines()[0] == "n\tm\tvalue"
    parsed = parse_linetable_tsv(text, lines.N, lines.tag)
    assert parsed.rows == lines.rows


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_frac("1/0")


@pytest.mark.parametrize("n", [-1, 7])
def test_line_outside_budget_is_a_value_error(sample, n):
    _, lines = sample
    doc = linetable_doc(lines)
    doc["lines"][0]["n"] = n
    with pytest.raises(ValueError, match="outside"):
        parse_linetable(doc)
    text = linetable_tsv(lines) + f"{n}\t0\t1\n"
    with pytest.raises(ValueError, match="outside"):
        parse_linetable_tsv(text, lines.N, lines.tag)


def test_json_round_trip_of_a_report(capsys):
    assert main(["expand", "--knot", "4_1", "--order", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    lines = to_z_lines(build_dtable(catalog_lookup(default_catalog(), "4_1"), 3))
    assert parse_linetable(doc["lines"]) == lines
    assert linetable_doc(parse_linetable(doc["lines"])) == doc["lines"]


def _doc(N, lines):
    return {"parameter": "h", "N": N, "lines": [{"n": n, "values": v} for n, v in lines]}


@pytest.mark.parametrize("lines, match", [
    ([(0, ["7", "1", "5", "9"]), (0, ["3"])], "has 4 values, expected 2"),
    ([(0, ["7", "1"]), (0, ["3", "2"]), (1, ["1"]), (2, ["1"])], "duplicate line n=0"),
    ([(0, ["7"]), (1, ["1"]), (2, ["1"])], "has 1 values, expected 2"),
    ([(0, ["7", "1"]), (1, ["1", "2"]), (2, ["1"])], "has 2 values, expected 1"),
    ([(0, ["7", "1"]), (2, ["1"])], "line n=1 is missing"),
    ([], "line n=0 is missing"),
    ([(0, ["7", "1"]), (True, ["3"]), (2, ["5"])], "line index n must be an int, got True"),
    ([(0, ["7", "1"]), (1.0, ["3"]), (2, ["5"])], "line index n must be an int, got 1.0"),
    ([(0, [7, "1"]), (1, ["3"]), (2, ["5"])], "must be a string 'p' or 'p/q', got 7"),
    ([(0, ["7", "1"]), (1, "3"), (2, ["5"])], "line n=1 values must be a list, got '3'"),
])
def test_json_line_errors(lines, match):
    with pytest.raises(ValueError, match=match):
        parse_linetable(_doc(1, lines))


def test_json_lines_of_a_huge_budget_fail_in_little_memory():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="line n=0 is missing"):
            parse_linetable({"N": 10 ** 12, "parameter": "h", "lines": []})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tsv_lines_of_a_huge_budget_fail_in_little_memory():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="line n=0 misses column m=0"):
            parse_linetable_tsv("", 10 ** 5, "h")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_json_lines_in_any_order():
    doc = _doc(1, [(2, ["5"]), (0, ["7", "2"]), (1, ["3"])])
    assert parse_linetable(doc).rows == ((Fraction(7), Fraction(2)), (Fraction(3),), (Fraction(5),))


def test_tsv_places_values_by_column(sample):
    _, lines = sample
    header, *body = linetable_tsv(lines).splitlines()
    shuffled = "\n".join([header] + body[::-1]) + "\n"
    assert parse_linetable_tsv(shuffled, lines.N, lines.tag).rows == lines.rows
    assert parse_linetable_tsv("0\t1\t2\n0\t0\t7\n1\t0\t3\n2\t0\t5\n", 1, "h").rows == (
        (Fraction(7), Fraction(2)), (Fraction(3),), (Fraction(5),))


@pytest.mark.parametrize("text, match", [
    ("0\t2\t7\n", "outside line n=0"),
    ("0\t0\t7\n0\t0\t7\n0\t1\t1\n1\t0\t1\n2\t0\t1\n", "duplicate column m=0"),
    ("0\t1\t7\n1\t0\t1\n2\t0\t1\n", "misses column m=0"),
    ("0\t0\t7\n0\t1\t1\n1\t0\t1\n", "line n=2 misses"),
])
def test_tsv_column_errors(text, match):
    with pytest.raises(ValueError, match=match):
        parse_linetable_tsv(text, 1, "h")


@pytest.mark.parametrize("doc, match", [
    ({"N": 5, "rows": [["1"]]}, "D-table has 1 rows, expected N \\+ 1 = 6"),
    ({"N": 1, "rows": [["1", "0", "0"], ["0", "0"]]}, "row m=1 has 2 values, expected 2N \\+ 1 = 3"),
    ({"N": -1, "rows": []}, "non-negative int, got -1"),
    ({"N": True, "rows": [["1"], ["0", "0", "0"]]}, "non-negative int, got True"),
    ({"N": 0, "rows": [[1]]}, "must be a string 'p' or 'p/q', got 1"),
    ({"N": 1, "rows": ["123", "456"]}, "D-table row m=0 must be a list, got '123'"),
    ({"N": 0, "rows": "1"}, "D-table rows must be a list, got '1'"),
], ids=["too-few-rows", "short-row", "negative-N", "bool-N", "int-value", "string-row",
        "string-rows"])
def test_dtable_shape_errors(doc, match):
    with pytest.raises(ValueError, match=match):
        parse_dtable(doc)


@pytest.mark.parametrize("parse, doc, match", [
    (parse_linetable, {"N": 1, "parameter": "h"}, "line table misses the field 'lines'"),
    (parse_linetable, {"N": 1, "lines": []}, "line table misses the field 'parameter'"),
    (parse_linetable, {"parameter": "h", "N": 0, "lines": ["x"]}, "line must be an object, not str"),
    (parse_linetable, {"parameter": "h", "N": 0, "lines": [{"values": ["7"]}]},
     "line misses the field 'n'"),
    (parse_linetable, {"parameter": "h", "N": 0, "lines": [{"n": 0}]},
     "line n=0 misses the field 'values'"),
    (parse_linetable, ["x"], "line table must be an object, not list"),
    (parse_dtable, {"rows": []}, "D-table misses the field 'N'"),
    (parse_dtable, {"N": 0}, "D-table misses the field 'rows'"),
    (parse_dtable, [1], "D-table must be an object, not list"),
], ids=["no-lines", "no-parameter", "string-line", "no-n", "no-values", "list-table",
        "no-N", "no-rows", "list-dtable"])
def test_malformed_documents_raise_value_error(parse, doc, match):
    with pytest.raises(ValueError, match=match):
        parse(doc)


def test_dtable_of_budget_zero_round_trips():
    d = DTable(0, ((Fraction(1),),))
    assert parse_dtable(dtable_doc(d)) == d


@pytest.mark.parametrize("N, parameter, match", [
    (-1, "h", "non-negative int, got -1"),
    (True, "h", "non-negative int, got True"),
    ("1", "h", "non-negative int, got '1'"),
    (1, "zz", "parameter must be 'h' or 'ht', got 'zz'"),
], ids=["negative-N", "bool-N", "str-N", "unknown-parameter"])
def test_line_table_header_errors(N, parameter, match):
    doc = {"parameter": parameter, "N": N, "lines": [
        {"n": 0, "values": ["7", "2"]}, {"n": 1, "values": ["3"]}, {"n": 2, "values": ["5"]}]}
    with pytest.raises(ValueError, match=match):
        parse_linetable(doc)
    with pytest.raises(ValueError, match=match):
        parse_linetable_tsv("0\t0\t7\n0\t1\t2\n1\t0\t3\n2\t0\t5\n", N, parameter)


@st.composite
def line_tables(draw):
    """A line table of random exact values: line n has N - (n+1)//2 + 1 of them."""
    N = draw(st.integers(0, 5))
    values = st.fractions(max_denominator=10**12).filter(lambda x: abs(x) < 10**30)
    rows = tuple(tuple(draw(st.lists(values, min_size=N - (n + 1) // 2 + 1,
                                     max_size=N - (n + 1) // 2 + 1)))
                 for n in range(2 * N + 1))
    return LineTable(N, draw(st.sampled_from(("h", "ht"))), rows)


@given(lines=line_tables())
@settings(max_examples=60, deadline=None)
def test_random_line_tables_round_trip(lines):
    doc = linetable_doc(lines)
    assert parse_linetable(doc) == lines
    assert parse_linetable(json.loads(dump_json(doc))) == lines
    assert parse_linetable_tsv(linetable_tsv(lines), lines.N, lines.tag) == lines

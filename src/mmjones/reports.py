"""Report documents and their JSON/TSV serialization.

Rationals serialize as decimal strings "p/q" (bare integer strings when the
denominator is 1); floats never appear.  Documents are built with fixed key
order so identical runs produce byte-identical output, and a parsed report
reconstructs the exact in-memory tables.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Dict

from .exactalg import QPoly

# The table types are imported where a table is built, so that the torus
# and catalog commands, which serialize no table, do not load the braid
# pipeline.
if TYPE_CHECKING:
    from .mmexpand import (
        ApproxPoly,
        BottomLineReport,
        DTable,
        IntegralityReport,
        LineTable,
    )


def frac_str(x) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_frac(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string 'p' or 'p/q', got {s!r}")
    s = s.strip()
    if "/" in s:
        num, den = (int(part) for part in s.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in rational {s!r}")
        return Fraction(num, den)
    return Fraction(int(s))


def qpoly_doc(p: QPoly) -> list:
    """Even-power coefficients of a polynomial in z^2, as strings."""
    if not p.only_even_powers():
        raise ValueError("expected a polynomial in z^2")
    return [frac_str(c) for c in p.even_part_coeffs()]


def dtable_doc(d: DTable) -> dict:
    return {
        "index": "rows are m = 0..N, columns n = 0..2N",
        "N": d.N,
        "rows": [[frac_str(c) for c in row] for row in d.entries],
    }


def _budget(N) -> int:
    """The order budget N of a parsed table: a non-negative int, not a bool."""
    if not isinstance(N, int) or isinstance(N, bool) or N < 0:
        raise ValueError(f"budget N must be a non-negative int, got {N!r}")
    return N


def _parameter(tag) -> str:
    if tag not in ("h", "ht"):
        raise ValueError(f"parameter must be 'h' or 'ht', got {tag!r}")
    return tag


def _list(value, what: str) -> list:
    """A JSON array, not a string or other sequence."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def _field(obj, key: str, what: str):
    """``obj[key]`` of a JSON object, a ValueError if obj is no object or lacks key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, not {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{what} misses the field {key!r}")
    return obj[key]


def parse_dtable(doc: dict) -> DTable:
    """D-table from its JSON document: N + 1 rows m of 2N + 1 values n each."""
    from .mmexpand import DTable

    N = _budget(_field(doc, "N", "D-table"))
    rows = _list(_field(doc, "rows", "D-table"), "D-table rows")
    if len(rows) != N + 1:
        raise ValueError(f"D-table has {len(rows)} rows, expected N + 1 = {N + 1}")
    for m, row in enumerate(rows):
        if len(_list(row, f"D-table row m={m}")) != 2 * N + 1:
            raise ValueError(f"D-table row m={m} has {len(row)} values, expected 2N + 1 = {2 * N + 1}")
    return DTable(N, tuple(tuple(parse_frac(c) for c in row) for row in rows))


def linetable_doc(lines: LineTable) -> dict:
    return {
        "parameter": lines.tag,
        "N": lines.N,
        "index": "row objects carry the line index n; values are m = 0..",
        "lines": [
            {"n": n, "values": [frac_str(c) for c in lines.row(n)]}
            for n in range(2 * lines.N + 1)
        ],
    }


def _line_index(n: int, N: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"line index n must be an int, got {n!r}")
    if not 0 <= n <= 2 * N:
        raise ValueError(f"line n={n} outside 0..2N = {2 * N}")
    return n


def parse_linetable(doc: dict) -> LineTable:
    """Line table from its JSON document.

    ``parameter`` is 'h' or 'ht' and N a non-negative int; every line
    n = 0..2N must appear exactly once, with ``LineTable.width(N, n)``
    values m = 0..N - ceil(n/2).  Lines are held by index as they are read,
    so memory follows the document, not N.
    """
    from .mmexpand import LineTable

    N = _budget(_field(doc, "N", "line table"))
    tag = _parameter(_field(doc, "parameter", "line table"))
    rows: Dict[int, tuple] = {}
    for row in _list(_field(doc, "lines", "line table"), "lines"):
        n = _line_index(_field(row, "n", "line"), N)
        if n in rows:
            raise ValueError(f"duplicate line n={n}")
        values = _list(_field(row, "values", f"line n={n}"), f"line n={n} values")
        size = LineTable.width(N, n)
        if len(values) != size:
            raise ValueError(f"line n={n} has {len(values)} values, expected {size}")
        rows[n] = tuple(parse_frac(c) for c in values)
    missing = next((n for n in range(2 * N + 1) if n not in rows), None)
    if missing is not None:
        raise ValueError(f"line n={missing} is missing")
    return LineTable(N, tag, tuple(rows[n] for n in range(2 * N + 1)))


def bottom_line_doc(report: BottomLineReport) -> dict:
    return {
        "order": report.order,
        "passed": report.passed,
        "line_route_failures": list(report.line_route_failures),
        "substitution_route_failures": list(report.substitution_route_failures),
    }


def integrality_doc(report: IntegralityReport) -> dict:
    return {
        "parameter": report.tag,
        "all_integer": report.all_integer,
        "informational": report.informational,
        "violations": [
            {"n": n, "m": m, "value": frac_str(v)} for (n, m, v) in report.violations
        ],
    }


def approx_doc(ap: ApproxPoly) -> dict:
    return {
        "n": ap.n,
        "exponent": ap.exponent,
        "head": [frac_str(c) for c in ap.head],
        "residual_window": [frac_str(c) for c in ap.residual_window],
        "guaranteed_order": ap.guaranteed_order,
        "stabilized": ap.stabilized,
    }


def linetable_tsv(lines: LineTable) -> str:
    out = ["n\tm\tvalue"]
    for n in range(2 * lines.N + 1):
        for m, value in enumerate(lines.row(n)):
            out.append(f"{n}\t{m}\t{frac_str(value)}")
    return "\n".join(out) + "\n"


def parse_linetable_tsv(text: str, N: int, tag: str) -> LineTable:
    """Line table from ``n<TAB>m<TAB>value`` rows, each value placed by its (n, m).

    ``tag`` is 'h' or 'ht' and N a non-negative int; line n must give every
    column m = 0..N - ceil(n/2) exactly once, in any order.  Lines are held
    by index as they are read, so memory follows the text, not N.
    """
    from .mmexpand import LineTable

    N, tag = _budget(N), _parameter(tag)
    rows: Dict[int, dict] = {}
    body = text.strip().splitlines()
    if body and body[0].startswith("n\t"):
        body = body[1:]
    for line in body:
        n_text, m_text, value = line.split("\t")
        n, m = _line_index(int(n_text), N), int(m_text)
        row, size = rows.setdefault(n, {}), LineTable.width(N, n)
        if not 0 <= m < size:
            raise ValueError(f"column m={m} outside line n={n} (0..{size - 1})")
        if m in row:
            raise ValueError(f"duplicate column m={m} in line n={n}")
        row[m] = parse_frac(value)

    def placed(n: int, m: int) -> Fraction:
        if m not in rows.get(n, ()):
            raise ValueError(f"line n={n} misses column m={m}")
        return rows[n][m]

    return LineTable.build(N, tag, placed)


def dump_json(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=False)

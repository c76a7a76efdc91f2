"""Output checks for benchmark jobs, run outside the timed region.

A report passes when

* its sha256 digest equals the reference digest recorded for the job's
  report key in ``reference.json`` (report bytes must not change);
* every line entry that ``golden.LINE_TABLES`` holds within the job's
  budget matches, and so do the ``golden.APPROX_HEADS`` heads and the
  ``golden.TORUS_NUMERATORS`` numerators where they apply;
* the 3_1 lines (parameter h) match the closed-form torus generator
  ``toruslines.torus_line_series`` for the (2, 3) torus knot;
* a JSON expand report carries a passing bottom line;
* a catalog listing names the default entries with their Conway
  polynomials;
* a torus report's numerators equal those of the same torus knot with p
  and q swapped.

The golden checks do not depend on the digests, so they also hold a report
to account when the reference is rebuilt.  Requires ``src`` on sys.path.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

from inputs import CATALOG
from mmjones import golden, reports
from mmjones.knots import TorusParams
from mmjones.toruslines import torus_line_series

REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Lines of 3_1 checked against the torus generator.  Its cost grows fast
# with the line index (line 6: 0.3 s, line 10: 2 s on a 2-core VM).
TREFOIL_LINES = 6


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def numerators_digest(doc: dict) -> str:
    """Digest of a torus report's numerators, the same for (p, q) and (q, p)."""
    nums = [line["numerator"] for line in doc["lines"]]
    return digest(json.dumps(nums).encode())


def torus_pair_key(p: int, q: int, lines: int) -> str:
    a, b = sorted((abs(p), abs(q)))
    return f"torus/{a},{b}/L={lines}"


def load_reference() -> Dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


class Checker:
    """Checks reports; holds the reference and the torus-generator oracle."""

    def __init__(self, reference: Dict):
        self.reference = reference
        self._trefoil: Dict[int, List[Fraction]] = {}

    def check(self, job: Dict, data: bytes) -> List[str]:
        """Failures of one job's report, empty when it passes."""
        fails = self.golden_failures(job, data)
        ref = self.reference["reports"].get(job["ref"])
        if ref is None:
            fails.append(f"no reference digest for {job['ref']}")
        elif digest(data) != ref["sha256"]:
            fails.append(f"digest differs from the reference for {job['ref']}")
        return fails

    def golden_failures(self, job: Dict, data: bytes) -> List[str]:
        try:
            if job["kind"] == "catalog":
                return self._catalog(json.loads(data))
            if job["kind"] == "torus":
                return self._torus(job, json.loads(data))
            if job["format"] == "tsv":
                lines = reports.parse_linetable_tsv(
                    data.decode("utf-8"), job["order"], job["parameter"])
                return self._lines(job["knot"], lines)
            return self._expand_json(job, json.loads(data))
        except (ArithmeticError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"report does not parse: {exc!r}"]

    def _catalog(self, doc: dict) -> List[str]:
        got = [(e["name"], e["conway"]) for e in doc["entries"]]
        expected = [(r["name"], [str(c) for c in r["conway"]]) for r in CATALOG]
        return [] if got == expected else [f"catalog lists {got}, expected {expected}"]

    def _expand_json(self, job: Dict, doc: dict) -> List[str]:
        fails = []
        for field in ("knot", "order", "parameter"):
            if doc[field] != job[field]:
                fails.append(f"{field} is {doc[field]!r}, expected {job[field]!r}")
        if doc["bottom_line"]["passed"] is not True:
            fails.append("bottom line failed")
        lines = reports.parse_linetable(doc["lines"])
        if lines.tag != job["parameter"] or lines.N != job["order"]:
            fails.append("line table parameter or budget differs from the request")
        fails += self._lines(job["knot"], lines)
        fails += self._approx(job["knot"], job["parameter"], doc["approx"])
        return fails

    def _lines(self, knot: str, lines) -> List[str]:
        fails = []
        if knot in golden.LINE_TABLES and golden.LINE_TABLES[knot][0] == lines.tag:
            for n, row in golden.LINE_TABLES[knot][1].items():
                if n > 2 * lines.N:
                    continue
                got = lines.row(n)
                for m, value in enumerate(row[: len(got)]):
                    if got[m] != value:
                        fails.append(f"{knot} d^({n})_{m} = {got[m]}, golden {value}")
        if knot == "3_1" and lines.tag == "h":
            for n in range(min(TREFOIL_LINES, 2 * lines.N) + 1):
                got = lines.row(n)
                expected = self._trefoil_line(n, len(got))
                for m, value in enumerate(got):
                    if value != expected[m]:
                        fails.append(f"3_1 d^({n})_{m} = {value}, torus generator {expected[m]}")
        return fails

    def _trefoil_line(self, n: int, terms: int) -> List[Fraction]:
        """The first ``terms`` even coefficients of the (2, 3) torus line n."""
        row = self._trefoil.get(n, [])
        if len(row) < terms:
            series = torus_line_series(TorusParams(2, 3), n, 2 * terms)
            row = self._trefoil[n] = series[::2]
        return row

    def _approx(self, knot: str, parameter: str, approx: list) -> List[str]:
        if knot not in golden.APPROX_HEADS or golden.LINE_TABLES[knot][0] != parameter:
            return []
        fails = []
        by_line = {(a["n"], a["exponent"]): a["head"] for a in approx}
        for n, exponent, head in golden.APPROX_HEADS[knot]:
            got = by_line.get((n, exponent))
            if got is None:
                continue
            got = [reports.parse_frac(c) for c in got]
            extra = got[len(head):]
            if got[: len(head)] != head[: len(got)] or any(extra):
                fails.append(f"{knot} approximant head n={n}: {got}, golden {head}")
        return fails

    def _torus(self, job: Dict, doc: dict) -> List[str]:
        fails = []
        if (doc["p"], doc["q"]) != (job["p"], job["q"]) or len(doc["lines"]) != job["lines"] + 1:
            fails.append("torus parameters or line count differ from the request")
        pair = tuple(sorted((abs(job["p"]), abs(job["q"]))))
        for n, coeffs in golden.TORUS_NUMERATORS.get(pair, {}).items():
            if n < len(doc["lines"]):
                got = [reports.parse_frac(c) for c in doc["lines"][n]["numerator"]]
                if got != coeffs:
                    fails.append(f"torus {pair} numerator n={n}: {got}, golden {coeffs}")
        key = torus_pair_key(job["p"], job["q"], job["lines"])
        if numerators_digest(doc) != self.reference["torus_numerators"].get(key):
            fails.append(f"numerators differ from the swapped-order reference {key}")
        return fails

"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Every criterion runs in the default suite, criterion 4 (every tabulated
entry at the full per-knot budget) included.  Each test prints one
PASS/FAIL line; all assertions are exact equalities.
"""

import time

from mmjones import golden
from mmjones.cjones import _operator_pair, colored_jones, jones_h_series
from mmjones.exactalg import LaurentPoly
from mmjones.knots import BraidWord, TorusParams, conway_poly, conway_torus
from mmjones.mmexpand import approx_poly, bottom_line_check, integrality_report
from mmjones.toruslines import apply_D, torus_lines
from mmjones.verify import suite_cross, suite_tables
from oracle_algebra import (
    QPoly,
    RationalFn,
    apply_crossings,
    basis_state,
    conjugated,
    only_odd_powers,
    poly_exact_div,
    stabilized,
)


def report(criterion, passed, note=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {note}")
    assert passed, f"criterion {criterion} failed: {note}"


class TestAcceptance:
    def test_criterion_1_torus_numerators(self):
        t0 = time.time()
        ok = True
        for (p, q), rows in golden.TORUS_NUMERATORS.items():
            lines = torus_lines(TorusParams(p, q), max(rows))
            for n, coeffs in rows.items():
                if (p, q, n) == (2, 3, 2):
                    continue  # handled separately below
                ok = ok and lines[n].numerator == LaurentPoly.from_z2_coeffs(coeffs)
        # the (2,3) second line: printed source has an odd power; the value
        # must be even, match the printed z^0/z^2 terms, and equal the
        # frozen double-computed polynomial
        p2 = torus_lines(TorusParams(2, 3), 2)[2].numerator
        ok = ok and p2.exponents_divisible_by(2)
        ok = ok and p2.coeff(0) == 1 and p2.coeff(2) == -3
        ok = ok and p2 == LaurentPoly.from_z2_coeffs(golden.TORUS_NUMERATORS[(2, 3)][2])
        elapsed = time.time() - t0
        report(1, ok and elapsed < 10, f"(torus numerators, {elapsed:.1f}s < 10s)")

    def test_criterion_2_alexander(self, pipeline):
        t0 = time.time()
        ok = True
        expected = {"5_2": [1, 2], "6_1": [1, -2], "4_1": [1, -1], "8_3": [1, -4]}
        for name, coeffs in expected.items():
            got = conway_poly(pipeline.record(name).braid)
            ok = ok and got == LaurentPoly.from_z2_coeffs(coeffs)
        for (p, q), coeffs in golden.TORUS_CONWAY.items():
            ok = ok and conway_torus(TorusParams(p, q)) == LaurentPoly.from_z2_coeffs(coeffs)
        elapsed = time.time() - t0
        report(2, ok and elapsed < 1, f"(Conway polynomials, {elapsed:.2f}s < 1s)")

    def test_criterion_3_tables_small(self, pipeline):
        t0 = time.time()
        results = suite_tables("small", pipeline)
        bad = [r for r in results if not r.passed]
        elapsed = time.time() - t0
        report(
            3,
            not bad and elapsed < 300,
            f"({len(results)} entries, {elapsed:.1f}s < 300s)"
            + (f" first failure {bad[0].name}" if bad else ""),
        )

    def test_criterion_4_tables_full(self, pipeline):
        t0 = time.time()
        results = suite_tables("full", pipeline)
        bad = [r for r in results if not r.passed]
        report(
            4,
            not bad,
            f"({len(results)} entries at full budget, {time.time()-t0:.0f}s)"
            + (f" first failure {bad[0].name}" if bad else ""),
        )

    def test_criterion_5_vanishing_and_bottom_line(self, pipeline):
        ok = True
        for name in ("unknot", "3_1", "4_1", "5_2", "6_1", "8_3"):
            d = pipeline.dtable(name, 5)
            for m in range(6):
                for n in range(11):
                    if 2 * m > n:
                        ok = ok and d.entry(m, n) == 0
            ok = ok and bottom_line_check(d, pipeline.record(name).conway).passed
        report(5, ok, "(vanishing + bottom line through z^10, N=5, all knots)")

    def test_criterion_6_stabilization(self, pipeline):
        ok = True
        notes = []
        for name in ("5_2", "6_1"):
            rec = pipeline.record(name)
            lines = pipeline.lines(name, 9, "h")
            for n in (1, 2, 3):
                ap = approx_poly(lines, rec.conway, n, 2 * n + 1)
                ok = ok and ap.stabilized is True
            for (n, exponent, head) in golden.APPROX_HEADS[name]:
                ap = approx_poly(lines, rec.conway, n, exponent)
                match = list(ap.head) == head
                ok = ok and match
                if not match:
                    notes.append(f"{name}/n={n}")
        report(6, ok, "(zero windows + printed heads, n<=3)" + " ".join(notes))

    def test_criterion_7_amphicheiral(self, pipeline):
        ok = True
        # each head runs to (4 - 1) deg(Conway) = z^6
        heads = {"4_1": [-1, -1, 0, 0], "8_3": [-4, -12, 11, -4]}
        for name in ("4_1", "8_3"):
            rec = pipeline.record(name)
            tl = pipeline.lines(name, 5, "ht")
            for n in range(1, 11, 2):
                ok = ok and all(c == 0 for c in tl.row(n))
            ap = approx_poly(tl, rec.conway, 2, 4)
            ok = ok and ap.stabilized is True
            ok = ok and list(ap.head) == heads[name]
        report(7, ok, "(odd rows vanish; degree-2 reparametrized heads)")

    def test_criterion_8_two_path(self, pipeline):
        t0 = time.time()
        results = suite_cross(pipeline)
        bad = [r for r in results if not r.passed]
        elapsed = time.time() - t0
        report(8, not bad and elapsed < 300, f"(two-path oracle, {elapsed:.1f}s < 300s)")

    def test_criterion_9_property_suites(self, pipeline):
        ok = True
        # crossing inverse + Yang-Baxter, alpha <= 4
        from itertools import product

        for alpha in (2, 3, 4):
            plus, minus = _operator_pair(alpha)
            for idx in product(range(alpha), repeat=2):
                v = basis_state(idx)
                ok = ok and apply_crossings(v, (plus, 0), (minus, 0)) == v
            for idx in product(range(alpha), repeat=3):
                v = basis_state(idx)
                lhs = apply_crossings(v, (plus, 0), (plus, 1), (plus, 0))
                rhs = apply_crossings(v, (plus, 1), (plus, 0), (plus, 1))
                ok = ok and lhs == rhs
        # Markov invariance spot-checks
        base = pipeline.record("5_2").braid
        for alpha in (2, 3):
            v = colored_jones(base, alpha)
            ok = ok and colored_jones(conjugated(base, 1), alpha) == v
            ok = ok and colored_jones(stabilized(base, -1), alpha) == v
        # integrality of all emitted line coefficients, four catalog knots
        for name in ("4_1", "5_2", "6_1", "8_3"):
            rep = integrality_report(pipeline.lines(name, 5, "h"))
            ok = ok and rep.all_integer
        # oddness and denominator divisibility of the derivative chain: each
        # integer rung over nabla^(2m+1) is odd, and one ladder step equals
        # z g' + (z^2 + 4) g'' by quotient-rule derivatives
        ints = conway_torus(TorusParams(2, 5))
        nabla = QPoly.from_laurent(ints)
        rung = LaurentPoly.monomial("z", 1)

        for m in range(4):
            g = RationalFn(QPoly.from_laurent(rung), nabla ** (2 * m + 1))
            ok = ok and only_odd_powers(g.num)
            poly_exact_div(nabla ** (2 * m + 1), g.den)
            d1 = g.derivative()
            rung = apply_D(rung, 2 * m + 1, ints)
            step = RationalFn(QPoly.from_laurent(rung), nabla ** (2 * m + 3), reduce=False)
            ok = ok and step == d1 * QPoly([0, 1]) + d1.derivative() * QPoly([4, 0, 1])
        report(9, ok, "(Yang-Baxter, inverses, Markov, integrality, derivative chain)")

    def test_criterion_10_fractional_flag(self, pipeline):
        rep = integrality_report(pipeline.lines("6_1", 5, "ht"), amphicheiral=False)
        ok = (not rep.all_integer) and rep.informational and len(rep.violations) >= 1
        sample = rep.violations[0] if rep.violations else None
        report(10, ok, f"(6_1 reparametrized expansion flags {sample})")

"""Tests for the closed-form torus line generator.

The reduced route the generator used before its integer ladder is the
oracle: every rung D^m(z / nabla) is a gcd-reduced ``RationalFn`` (see
``oracle_algebra``) from the quotient rule, and every line a reduced sum
certified against nabla^(2n+1).
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from mmjones import toruslines
from mmjones.exactalg import LaurentPoly, TruncSeries, series_log1p, series_pow1p
from mmjones.knots import TorusParams, conway_torus
from mmjones.mmexpand import build_dtable, to_z_lines
from mmjones.toruslines import (
    LineConsistencyError,
    apply_D,
    certify_numerator,
    torus_line_series,
    torus_lines,
)
from oracle_algebra import QPoly, RationalFn, only_odd_powers, poly_derivative, poly_exact_div


def zpoly(coeffs) -> LaurentPoly:
    """Integer polynomial in z from its coefficients of z^0, z^1, ..."""
    return LaurentPoly("z", dict(enumerate(coeffs)))


def over_power(rung: LaurentPoly, nabla: QPoly, k: int) -> RationalFn:
    """rung / nabla^k, not reduced."""
    return RationalFn(QPoly.from_laurent(rung), nabla ** k, reduce=False)


def oracle_apply_D(f: RationalFn) -> RationalFn:
    """z f' + (z^2 + 4) f'' through reduced quotient-rule derivatives."""
    d1 = f.derivative()
    d2 = d1.derivative()
    return (d1 * QPoly([0, 1]) + d2 * QPoly([4, 0, 1])).reduce()


ORACLE_RUNGS = 5


@lru_cache(maxsize=None)
def oracle_chain(p: int, q: int):
    """Reduced g_0..g_5 = D^m(z / nabla); depends on |p|, |q| only."""
    g = RationalFn(QPoly([0, 1]), QPoly.from_laurent(conway_torus(TorusParams(p, q))))
    chain = [g]
    for _ in range(ORACLE_RUNGS):
        g = oracle_apply_D(g)
        chain.append(g)
    return tuple(chain)


@lru_cache(maxsize=None)
def oracle_lines(p: int, q: int, n_max: int):
    """(numerator, value) per line by the reduced route.

    The closed form is symmetric in p and q, so callers pass one order of
    each knot or mirror.
    """
    pq = p * q
    c = (Fraction(pq) - Fraction(p, q) - Fraction(q, p)) / 4
    prefactor = series_pow1p(c, n_max)
    logf = series_log1p(n_max) * Fraction(1, 4 * pq)
    chain = oracle_chain(*sorted((abs(p), abs(q))))
    odd_over_z = []
    for g in chain[: n_max + 1]:
        assert only_odd_powers(g.num) and g.den.only_even_powers()
        odd_over_z.append(RationalFn(QPoly(g.num.coeffs[1:]), g.den, reduce=False))
    weights, log_pow = [], TruncSeries.constant("h", n_max, 1)
    for m in range(n_max + 1):
        if m > 0:
            log_pow = log_pow * logf
        weights.append(prefactor * log_pow * Fraction(1, factorial(m)))
    nabla = QPoly.from_laurent(conway_torus(TorusParams(p, q)))
    out = []
    for n in range(n_max + 1):
        acc = RationalFn.zero()
        for m in range(n + 1):
            w = weights[m].coeff(n)
            if w:
                acc = acc + odd_over_z[m] * w
        numerator = acc.numerator_against(nabla ** (2 * n + 1))
        assert numerator.only_even_powers() and all(c.denominator == 1 for c in numerator.coeffs)
        out.append((numerator, acc))
    return tuple(out)


class TestApplyD:
    def test_on_z(self):
        assert apply_D(zpoly([0, 1]), 0, zpoly([1])) == zpoly([0, 1])

    def test_on_z_squared(self):
        assert apply_D(zpoly([0, 0, 1]), 0, zpoly([1])) == zpoly([8, 0, 4])

    def test_quotient_rule_oracle(self):
        # independent oracle: symbolic quotient-rule derivative at small degree
        f = RationalFn(QPoly([0, 1]), QPoly([1, 0, 1]))

        def oracle_derivative(fn):
            num = poly_derivative(fn.num) * fn.den - fn.num * poly_derivative(fn.den)
            return RationalFn(num, fn.den * fn.den)

        d1 = oracle_derivative(f)
        d2 = oracle_derivative(d1)
        expected = d1 * QPoly([0, 1]) + d2 * QPoly([4, 0, 1])
        got = apply_D(zpoly([0, 1]), 1, zpoly([1, 0, 1]))
        assert over_power(got, QPoly([1, 0, 1]), 3) == expected
        assert all(e % 2 for e in got.terms)
        assert expected.den == QPoly([1, 0, 1]) ** 3


class TestLadder:
    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (-2, 3), (2, -5)])
    def test_matches_reduced_chain(self, p, q):
        t = TorusParams(p, q)
        nabla = conway_torus(t)
        ladder = toruslines._ladder(nabla, ORACLE_RUNGS)
        chain = oracle_chain(*sorted((abs(p), abs(q))))
        for m, (rung, g) in enumerate(zip(ladder, chain)):
            assert all(type(c) is int for c in rung.terms.values())
            assert over_power(rung, QPoly.from_laurent(nabla), 2 * m + 1) == g

    def test_parity_gate(self, monkeypatch):
        original = toruslines.apply_D

        def corrupted(num, k, nabla):
            return original(num, k, nabla) + LaurentPoly.one("z")

        monkeypatch.setattr(toruslines, "apply_D", corrupted)
        with pytest.raises(LineConsistencyError, match="lost its parity"):
            torus_lines(TorusParams(2, 3), 2)

    def test_apply_D_called_once_per_rung(self, monkeypatch):
        calls = []
        original = toruslines.apply_D

        def counted(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(toruslines, "apply_D", counted)
        torus_lines(TorusParams(3, 5), 4)
        assert calls == [1, 3, 5, 7]


@pytest.mark.parametrize("p,q", [
    (a, b)
    for base in ((2, 7), (3, 4), (3, 5))
    for a, b in (base, base[::-1], (-base[0], base[1]), (base[1], -base[0]))
])
def test_lines_match_oracle_route(p, q):
    lines = torus_lines(TorusParams(p, q), 4)
    key = sorted((abs(p), abs(q)))
    if p * q < 0:
        key[0] = -key[0]
    expected = oracle_lines(*key, 4)
    assert len(lines) == len(expected) == 5
    for lf, (numerator, value) in zip(lines, expected):
        assert QPoly.from_laurent(lf.numerator) == numerator
        assert lf.series_coeffs(16) == list(value.series(16).coeffs)


class TestTorusLines:
    def test_2_3_line_zero(self):
        lines = torus_lines(TorusParams(2, 3), 0)
        assert lines[0].numerator == LaurentPoly.one("z")
        assert lines[0].denominator == zpoly([1, 0, 1])

    @pytest.mark.parametrize(
        "p,q,n,coeffs",
        [
            (2, 3, 1, [0, 2, 1]),
            (2, 5, 1, [0, 10, 21, 12, 2]),
            (2, 7, 1, [0, 28, 126, 180, 110, 30, 3]),
            (3, 5, 1, [0, 40, 314, 908, 1224, 846, 308, 56, 4]),
            (2, 5, 2, [3, -19, -24, 58, 145, 128, 56, 12, 1]),
            (2, 7, 2, [6, -66, -138, 1398, 7248, 15747, 19635, 15360, 7776, 2544, 519, 60, 3]),
            (2, 3, 3, [-3, 13, 0, -1]),
        ],
    )
    def test_golden_numerators(self, p, q, n, coeffs):
        lines = torus_lines(TorusParams(p, q), n)
        assert lines[n].numerator == LaurentPoly.from_z2_coeffs(coeffs)

    def test_2_3_second_line_is_even(self):
        # the printed source carries an odd power here; the computed value is
        # frozen after double-computation through both routes
        lines = torus_lines(TorusParams(2, 3), 2)
        numerator = lines[2].numerator
        assert numerator.exponents_divisible_by(2)
        assert numerator == LaurentPoly.from_z2_coeffs([1, -3, -1])

    def test_symmetry_in_p_q(self):
        a = torus_lines(TorusParams(2, 5), 2)
        b = torus_lines(TorusParams(5, 2), 2)
        for la, lb in zip(a, b):
            assert la.numerator == lb.numerator

    def test_oddness_and_denominator_growth(self):
        ints = conway_torus(TorusParams(2, 5))
        nabla = QPoly.from_laurent(ints)
        g, rung = RationalFn(QPoly([0, 1]), nabla), zpoly([0, 1])
        for m in range(4):
            assert all(e % 2 for e in rung.terms)
            assert over_power(rung, nabla, 2 * m + 1) == g
            assert only_odd_powers(g.num)
            assert g.den.only_even_powers()
            # reduced denominator divides nabla^(2m+1)
            poly_exact_div(nabla ** (2 * m + 1), g.den)
            g, rung = oracle_apply_D(g), apply_D(rung, 2 * m + 1, ints)

    def test_certify_rejects_non_integral_sum(self):
        assert certify_numerator(1, zpoly([0, 4, 0, -6]), 2) == zpoly([2, 0, -3])
        with pytest.raises(LineConsistencyError, match="not integral"):
            certify_numerator(1, zpoly([0, 4, 0, 3]), 2)

    def test_certify_rejects_even_sum(self):
        with pytest.raises(LineConsistencyError, match="odd powers"):
            certify_numerator(1, zpoly([0, 4, 2, 6]), 2)
        with pytest.raises(LineConsistencyError, match="odd powers"):
            certify_numerator(0, zpoly([1, 1]), 1)


class TestTorusLineSeries:
    def test_geometric_bottom(self):
        coeffs = torus_line_series(TorusParams(2, 3), 0, 8)
        assert coeffs == [Fraction(x) for x in [1, 0, -1, 0, 1, 0, -1, 0, 1]]

    def test_first_line_leading(self):
        coeffs = torus_line_series(TorusParams(2, 3), 1, 4)
        assert coeffs[2] == 2

    def test_second_line_constant(self):
        coeffs = torus_line_series(TorusParams(2, 5), 2, 2)
        assert coeffs[0] == 3

    def test_two_path_agreement_small(self):
        # the braid pipeline and the closed form agree entry by entry
        t = TorusParams(2, 3)
        zl = to_z_lines(build_dtable(t.braid(), 4))
        for n in range(3):
            series = torus_line_series(t, n, 6)
            for m in range(4):
                assert series[2 * m] == zl.entry(n, m)

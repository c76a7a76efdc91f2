"""Tests for the exact arithmetic kernel."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmjones.exactalg import (
    CompositionError,
    ExactAlgError,
    InexactDivisionError,
    LaurentPoly,
    TruncSeries,
    int_series_mul,
    over_common_den,
    series_compose,
    series_log1p,
    series_pow1p,
    series_powers,
    series_two_arcsinh_half,
    solve_linear_system,
)
from oracle_algebra import QPoly, RationalFn, compose_by_horner, invert_variable, poly_divmod, poly_gcd

F = Fraction


def exp_minus_one(cap):
    """Independent oracle: exp(h) - 1 from factorials."""
    from math import factorial

    return TruncSeries("h", cap, [0] + [F(1, factorial(n)) for n in range(1, cap + 1)])


def arcsinh_by_integration(cap):
    """Independent oracle for 2*arcsinh(z/2): integrate (1+x^2)^(-1/2) at x=z/2 term-wise."""
    # (1+t)^(-1/2) with t = x^2, then integrate in x, then x = z/2, doubled
    binom = series_pow1p(F(-1, 2), cap)
    coeffs = [F(0)] * (cap + 1)
    for k in range(0, cap // 2 + 1):
        # term binom[k] * x^{2k} integrates to binom[k]/(2k+1) x^{2k+1}
        if 2 * k + 1 <= cap:
            coeffs[2 * k + 1] = binom.coeffs[k] / (2 * k + 1)
    # x = z/2: multiply coefficient of x^j by 2^(-j); then double the series
    out = [2 * c / F(2) ** j for j, c in enumerate(coeffs)]
    return TruncSeries("z", cap, out)


class TestLaurentPoly:
    def test_mul_and_pow(self):
        t = LaurentPoly.monomial("t", 1)
        p = t + LaurentPoly.monomial("t", -1) - 2 * LaurentPoly.one("t")
        q = p * p
        assert q.coeff(2) == 1 and q.coeff(0) == 6 and q.coeff(-2) == 1
        assert q.coeff(1) == -4 and q.coeff(-1) == -4

    def test_exact_div(self):
        def x(e):
            return LaurentPoly.monomial("x", e)

        num = x(7) - x(5) - x(-5) + x(-7)
        den = x(5) - x(1) - x(-1) + x(-5)
        q = num.exact_div(den)
        assert q == x(2) - x(0) + x(-2)

    def test_exact_div_rejects_remainder(self):
        x = LaurentPoly.monomial("x", 1)
        with pytest.raises(InexactDivisionError):
            (LaurentPoly.monomial("x", 2) + LaurentPoly.one("x")).exact_div(x + LaurentPoly.one("x"))

    def test_symmetry_and_inversion(self):
        t = LaurentPoly.monomial("t", 1)
        p = 2 * t - 3 * LaurentPoly.one("t") + 2 * LaurentPoly.monomial("t", -1)
        assert p.is_symmetric()
        assert invert_variable(p) == p
        assert not (p + t).is_symmetric()


class TestQPoly:
    """The oracle's dense rational polynomial, under its Euclidean division."""

    def test_divmod(self):
        p = QPoly([0, 0, 1, 0, 1])  # z^2 + z^4
        d = QPoly([1, 0, 1])  # 1 + z^2
        q, r = poly_divmod(p, d)
        assert r.is_zero() and q == QPoly([0, 0, 1])
        q, r = poly_divmod(QPoly([1, 2, 3]), QPoly([1, 1]))
        assert q == QPoly([-1, 3]) and r == QPoly([2])

    def test_gcd(self):
        a = QPoly([1, 0, 1]) * QPoly([1, 2])
        b = QPoly([1, 0, 1]) * QPoly([3, 0, 0, 1])
        g = poly_gcd(a, b)
        assert g == QPoly([1, 0, 1])


class TestSeriesKernels:
    def test_log1p_examples(self):
        assert series_log1p(0) == TruncSeries("h", 0)
        s = series_log1p(3)
        assert list(s.coeffs) == [0, 1, F(-1, 2), F(1, 3)]
        assert series_log1p(5).coeff(5) == F(1, 5)

    def test_pow1p_examples(self):
        assert list(series_pow1p(1, 5).coeffs) == [1, 1, 0, 0, 0, 0]
        assert list(series_pow1p(-1, 3).coeffs) == [1, -1, 1, -1]
        assert list(series_pow1p(F(1, 2), 2).coeffs) == [1, F(1, 2), F(-1, 8)]

    def test_two_arcsinh_half_against_integration_oracle(self):
        for cap in (1, 3, 5, 9):
            assert series_two_arcsinh_half(cap) == arcsinh_by_integration(cap)

    def test_two_arcsinh_half_small(self):
        assert list(series_two_arcsinh_half(1).coeffs) == [0, 1]
        s = series_two_arcsinh_half(5)
        assert s.coeff(3) == F(-1, 24)
        assert s.coeff(5) == F(3, 640)

    def test_compose_identity_and_constant(self):
        ident = TruncSeries.identity("h", 6)
        s = TruncSeries("h", 6, [0, 2, 3, 0, 5])
        assert series_compose(ident, s) == s
        const = TruncSeries("h", 6, [7, 1])
        zero = TruncSeries("h", 6)
        assert series_compose(const, zero).coeff(0) == 7

    def test_compose_log_exp_inverse(self):
        for cap in (4, 8):
            got = series_compose(series_log1p(cap), exp_minus_one(cap))
            assert got == TruncSeries.identity("h", cap)

    @given(
        outer=st.lists(st.fractions(max_denominator=9), min_size=1, max_size=10),
        inner=st.lists(st.fractions(max_denominator=9), max_size=9),
        caps=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    )
    @settings(max_examples=40, deadline=None)
    def test_compose_equals_horner(self, outer, inner, caps):
        outer_s = TruncSeries("x", caps[0], outer)
        inner_s = TruncSeries("h", caps[1], [0] + inner)
        got = series_compose(outer_s, inner_s)
        assert got == compose_by_horner(outer_s, inner_s)
        assert got.var == "h" and got.cap == min(caps)

    def test_compose_rejects_constant_term(self):
        with pytest.raises(CompositionError):
            series_compose(series_log1p(4), TruncSeries("h", 4, [1, 1]))

    def test_mixed_cap_shrinks(self):
        a = TruncSeries("h", 5, [1, 1, 1, 1, 1, 1])
        b = TruncSeries("h", 3, [1, 2])
        assert (a * b).cap == 3
        assert (a + b).cap == 3

    def test_invert(self):
        s = series_pow1p(1, 6)  # 1 + h
        assert s.invert() == series_pow1p(-1, 6)

    @given(
        a=st.fractions(max_denominator=12),
        b=st.fractions(max_denominator=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_pow1p_additivity(self, a, b):
        cap = 6
        lhs = series_pow1p(a, cap) * series_pow1p(b, cap)
        assert lhs == series_pow1p(a + b, cap)


class TestIntegerSeries:
    """The one power table and the one truncated product every substitution reads."""

    @given(
        coeffs=st.lists(st.fractions(max_denominator=9), min_size=1, max_size=10),
        cap=st.integers(0, 9),
        count=st.integers(0, 7),
    )
    @settings(max_examples=60, deadline=None)
    def test_powers_equal_repeated_products(self, coeffs, cap, count):
        # the constant term is drawn too: lfac^2, whose powers the bi-series reads, has 1
        s = TruncSeries("h", cap, coeffs)
        den, powers = series_powers(s, count)
        assert len(powers) == count + 1
        for k, power in enumerate(powers):
            assert TruncSeries("h", cap, [F(c, den) for c in power]) == s ** k

    def test_powers_keep_a_constant_term(self):
        den, powers = series_powers(TruncSeries("h", 3, [F(1, 2), 1]), 3)
        assert den == 8
        assert powers == ((8, 0, 0, 0), (4, 8, 0, 0), (2, 8, 8, 0), (1, 6, 12, 8))

    def test_common_den_and_truncated_product(self):
        assert over_common_den([F(1, 2), F(-2, 3), F(0), F(5)]) == (6, [3, -4, 0, 30])
        assert int_series_mul([1, 2, 3], [4, 5], 2) == [4, 13, 22]
        assert int_series_mul([1, 1], [1, 1], 4) == [1, 2, 1, 0, 0]


class TestRationalFn:
    """The reduced route the torus tests use as their oracle."""

    def test_reduce_examples(self):
        f = RationalFn(QPoly([0, 0, 1, 0, 1]), QPoly([1, 0, 1]))
        assert f.num == QPoly([0, 0, 1]) and f.den == QPoly.one()
        g = RationalFn(QPoly([0, 1]), QPoly.one())
        assert g.num == QPoly([0, 1])
        h = RationalFn(QPoly([0, 0, 2]), QPoly([2]))
        assert h.num == QPoly([0, 0, 1]) and h.den == QPoly.one()

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalFn(QPoly.one(), QPoly())
        with pytest.raises(ZeroDivisionError):
            RationalFn(QPoly.one(), QPoly([0, 1]))

    def test_derivative_examples(self):
        z = QPoly([0, 1])
        assert RationalFn(z, QPoly.one()).derivative() == RationalFn(QPoly.one(), QPoly.one())
        f = RationalFn(QPoly.one(), QPoly([1, 0, 1]))
        df = f.derivative()
        assert df == RationalFn(QPoly([0, -2]), QPoly([1, 0, 1]) ** 2)
        g = RationalFn(z, QPoly([1, 0, 1]))
        dg = g.derivative()
        assert dg == RationalFn(QPoly([1, 0, -1]), QPoly([1, 0, 1]) ** 2)

    def test_reduce_idempotent(self):
        f = RationalFn(QPoly([0, 2, 0, 4]), QPoly([2, 0, 2]), reduce=False)
        once = f.reduce()
        twice = once.reduce()
        assert once.num == twice.num and once.den == twice.den

    def test_series_expansion(self):
        f = RationalFn(QPoly.one(), QPoly([1, 0, 1]))
        s = f.series(6)
        assert list(s.coeffs) == [1, 0, -1, 0, 1, 0, -1]


class TestLinearSolve:
    def test_vandermonde(self):
        nodes = [1, 4, 9]
        mat = [[F(x) ** m for m in range(3)] for x in nodes]
        rhs = [sum(F(x) ** m * F(m + 1) for m in range(3)) for x in nodes]
        (sol,) = solve_linear_system(mat, [rhs])
        assert sol == [F(1), F(2), F(3)]

    def test_singular_detected(self):
        with pytest.raises(ExactAlgError):
            solve_linear_system([[1, 1], [2, 2]], [[1, 2]])


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_laurent_hom_under_products(coeffs):
    # multiplicativity of variable inversion as a spot ring-hom check
    p = LaurentPoly("t", {i - 2: c for i, c in enumerate(coeffs)})
    q = LaurentPoly("t", {2 - i: c for i, c in enumerate(coeffs)})
    assert invert_variable(p * q) == invert_variable(p) * invert_variable(q)

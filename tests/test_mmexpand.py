"""Tests for the D-table solve and the line re-expansions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmjones import cjones, mmexpand
from mmjones.cjones import ConventionViolationError, jones_h_series
from mmjones.exactalg import LaurentPoly, series_compose, series_pow1p
from mmjones.knots import BraidWord, NotAKnotError, catalog_lookup, default_catalog
from mmjones.mmexpand import (
    LineTable,
    ModelViolationError,
    OutOfRangeError,
    approx_poly,
    bottom_line_check,
    build_dtable,
    integrality_report,
    reparam_series,
    to_htilde_lines,
    to_z_lines,
    z_lines_by_basis_change,
)
from oracle_algebra import (
    TruncSeries,
    approx_product_by_repeats,
    htilde_rows_by_composition,
    mirror,
    z_h_biseries_by_terms,
)

CATALOG = default_catalog()
UNKNOT = BraidWord(1, [])


def knot(name):
    return catalog_lookup(CATALOG, name)


@pytest.fixture(scope="module")
def d52():
    return build_dtable(knot("5_2"), 3)


@pytest.fixture(scope="module")
def d61():
    return build_dtable(knot("6_1"), 3)


@pytest.fixture(scope="module")
def d41():
    return build_dtable(knot("4_1"), 3)


class TestBiSeriesSharing:
    def test_built_once_per_dtable(self, monkeypatch):
        calls = []
        original = mmexpand._z_h_biseries

        def counted(d):
            calls.append(d.N)
            return original(d)

        monkeypatch.setattr(mmexpand, "_z_h_biseries", counted)
        d = build_dtable(knot("4_1"), 2)
        to_z_lines(d)
        to_htilde_lines(d)
        assert bottom_line_check(d, knot("4_1").conway).passed
        assert calls == [2]

    def test_z_powers_built_once_per_dtable(self, monkeypatch):
        # the bi-series and the bottom-line check share one s(z) and its powers
        calls = []
        original = mmexpand.series_two_arcsinh_half

        def counted(cap):
            calls.append(cap)
            return original(cap)

        monkeypatch.setattr(mmexpand, "series_two_arcsinh_half", counted)
        d = build_dtable(knot("5_2"), 3)
        to_z_lines(d)
        to_htilde_lines(d)
        assert bottom_line_check(d, knot("5_2").conway).passed
        assert calls == [6]


# (knot, N): every catalog knot at N = 1..5 and the two narrow golden budgets
ORACLE_TABLES = [(rec.name, N) for rec in CATALOG for N in range(1, 6)]
ORACLE_TABLES += [("3_1", 12), ("4_1", 10)]


@pytest.fixture(scope="module")
def oracle_dtables():
    return {key: build_dtable(knot(key[0]), key[1]) for key in ORACLE_TABLES}


class TestLineRouteOracles:
    """Each line route against the collection it replaced, entry by entry."""

    @pytest.mark.parametrize("key", ORACLE_TABLES, ids=[f"{k}-N{N}" for k, N in ORACLE_TABLES])
    def test_biseries_equals_termwise_collection(self, oracle_dtables, key):
        d = oracle_dtables[key]
        assert d.biseries == z_h_biseries_by_terms(d)

    @pytest.mark.parametrize("key", ORACLE_TABLES, ids=[f"{k}-N{N}" for k, N in ORACLE_TABLES])
    def test_htilde_rows_equal_rowwise_composition(self, oracle_dtables, key):
        d = oracle_dtables[key]
        assert to_htilde_lines(d).rows == htilde_rows_by_composition(d)

    @pytest.mark.parametrize("key", ORACLE_TABLES, ids=[f"{k}-N{N}" for k, N in ORACLE_TABLES])
    def test_approximants_equal_repeated_products(self, oracle_dtables, key):
        d = oracle_dtables[key]
        conway = knot(key[0]).conway
        for lines in (to_z_lines(d), to_htilde_lines(d)):
            for n in range(2 * d.N + 1):
                for exponent in mmexpand._allowed_exponents(n):
                    ap = approx_poly(lines, conway, n, exponent)
                    prod = approx_product_by_repeats(lines, conway, n, exponent)
                    assert list(ap.head + ap.residual_window) == list(prod.coeffs[::2])


class TestBuildDTable:
    def test_unknot(self):
        d = build_dtable(UNKNOT, 2)
        for m in range(3):
            for n in range(5):
                expected = 1 if (m, n) == (0, 0) else 0
                assert d.entry(m, n) == expected

    def test_5_2_examples(self, d52):
        assert d52.entry(1, 2) == -2
        assert d52.entry(0, 0) == 1

    def test_4_1_bottom_entry(self, d41):
        assert d41.entry(1, 2) == 1

    def test_vanishing_region(self, d52):
        for m in range(d52.N + 1):
            for n in range(2 * d52.N + 1):
                if 2 * m > n:
                    assert d52.entry(m, n) == 0

    def test_overdetermined_consistency(self):
        # the solved polynomial in alpha^2 fits the colors after the N + 1 it is solved from
        N = 2
        for name, extra in (("4_1", 2), ("5_2", 1)):
            d = build_dtable(knot(name), N)
            for alpha in range(N + 2, N + 2 + extra):
                fit = [sum(d.entry(m, n) * alpha ** (2 * m) for m in range(N + 1))
                       for n in range(2 * N + 1)]
                assert fit == jones_h_series(knot(name).braid, alpha, 2 * N)

    def test_gate_error_names_a_bare_braid_word(self, monkeypatch):
        # a failing gate inside the solve names the word, not only the color
        def failing(operators):
            raise ConventionViolationError(f"tampered at alpha={operators[0].alpha}")

        monkeypatch.setattr(cjones, "_markov_data", failing)
        with pytest.raises(ConventionViolationError,
                           match=r"^BraidWord\(strands=2, letters=\(1, 1, 1\)\): tampered at alpha=2$"):
            build_dtable(BraidWord(2, (1, 1, 1)), 2)

    @pytest.mark.parametrize("b, components", [(BraidWord(2, (1, 1)), 2),
                                                (BraidWord(3, (1, 1, 2, 2)), 3)])
    def test_link_is_rejected_before_the_cut_search(self, b, components, monkeypatch):
        # and named like a gate error
        def no_search(word):
            raise AssertionError(f"the cut search ran on {word!r}")

        monkeypatch.setattr(mmexpand, "_closure_cut", no_search)
        with pytest.raises(NotAKnotError) as info:
            build_dtable(b, 4)
        assert str(info.value) == f"{b!r}: closure has {components} components, expected 1"

    def test_one_cut_per_dtable(self, monkeypatch):
        # the D-table searches its closure cut once and runs every color at it
        b = knot("5_2").braid
        chosen = mmexpand._closure_cut(b)
        assert chosen != (0, 0)
        searched, cuts = [], []
        original_cut, original_series = mmexpand._closure_cut, mmexpand.jones_h_series

        def closure_cut(word):
            searched.append(word)
            return original_cut(word)

        def h_series(word, alpha, cap, cut=(0, 0)):
            cuts.append((alpha, cut))
            return original_series(word, alpha, cap, cut)

        monkeypatch.setattr(mmexpand, "_closure_cut", closure_cut)
        monkeypatch.setattr(mmexpand, "jones_h_series", h_series)
        build_dtable(b, 3)
        assert searched == [b]
        assert cuts == [(alpha, chosen) for alpha in (1, 2, 3, 4)]

    def test_range_errors(self, d52):
        with pytest.raises(OutOfRangeError):
            d52.entry(0, 7)


class TestZLines:
    def test_unknot(self):
        zl = to_z_lines(build_dtable(UNKNOT, 2))
        assert zl.entry(0, 0) == 1
        assert all(c == 0 for n in range(1, 5) for c in zl.row(n))
        assert all(c == 0 for c in zl.row(0)[1:])

    def test_5_2_golden_entries(self, d52):
        zl = to_z_lines(d52)
        assert list(zl.row(0)) == [1, -2, 4, -8]
        assert list(zl.row(1)) == [0, -6, 31]
        assert list(zl.row(2)) == [2, -27, 226]
        assert list(zl.row(3)) == [4, -139]

    def test_6_1_golden_entries(self, d61):
        zl = to_z_lines(d61)
        assert list(zl.row(1)) == [0, 2, 11]
        assert list(zl.row(2)) == [-2, -19, -93]
        assert zl.entry(3, 1) == -35

    def test_routes_agree(self, d52, d61, d41):
        for d in (d52, d61, d41):
            assert to_z_lines(d).rows == z_lines_by_basis_change(d).rows

    def test_odd_z_gate_names_degree_and_budget(self, d52, monkeypatch):
        # s(z) + 1 is not odd, so s(z)^2 gains odd z-powers from z^1 on
        original = mmexpand.series_two_arcsinh_half
        monkeypatch.setattr(mmexpand, "series_two_arcsinh_half",
                            lambda cap: (original(cap)[0] + 1, *original(cap)[1:]))
        tampered = mmexpand.DTable(d52.N, d52.entries)
        with pytest.raises(ModelViolationError, match="odd z-powers .*: z\\^1 at N=3"):
            to_z_lines(tampered)

    def test_emission_ranges(self, d52):
        zl = to_z_lines(d52)
        for n in range(2 * d52.N + 1):
            assert len(zl.row(n)) == d52.N - (n + 1) // 2 + 1
        with pytest.raises(OutOfRangeError):
            zl.entry(0, d52.N + 1)
        with pytest.raises(OutOfRangeError, match="outside the truncation"):
            zl.entry(0, -1)


class TestHtildeLines:
    def test_reparam_series_closed_form(self):
        # the reparametrization squares to sum (-1)^k h^k starting at k=2
        cap = 10
        h_of_t = reparam_series(cap)
        # build t(h) = (1+h)^(1/2) - (1+h)^(-1/2) and check round trip
        t_of_h = (TruncSeries("h", cap, series_pow1p(Fraction(1, 2), cap))
                  - TruncSeries("h", cap, series_pow1p(Fraction(-1, 2), cap)))
        round_trip = series_compose(h_of_t, t_of_h.coeffs)
        assert round_trip == TruncSeries.identity("h", cap).coeffs
        sq = t_of_h * t_of_h
        assert list(sq.coeffs) == [0, 0] + [(-1) ** k for k in range(2, cap + 1)]

    def test_4_1_golden(self, d41):
        tl = to_htilde_lines(d41)
        assert list(tl.row(0)) == [1, 1, 1, 1]
        assert list(tl.row(2)) == [-1, -5, -14]
        assert list(tl.row(4)) == [4, 48]
        assert all(c == 0 for c in tl.row(1))
        assert all(c == 0 for c in tl.row(3))

    def test_8_3_golden_small(self):
        d = build_dtable(knot("8_3"), 3)
        tl = to_htilde_lines(d)
        assert list(tl.row(0)) == [1, 4, 16, 64]
        assert list(tl.row(2)) == [-4, -76, -821]
        assert list(tl.row(4)) == [60, 2746]

    def test_mirror_sign_map(self):
        rec = knot("5_2")
        tl = to_htilde_lines(build_dtable(rec, 2))
        tl_mirror = to_htilde_lines(build_dtable(mirror(rec.braid), 2))
        # the mirror maps d^(n)_m to (-1)^n d^(n)_m
        assert tl_mirror.rows == tuple(
            tuple((-1) ** n * c for c in row) for n, row in enumerate(tl.rows))

    @given(b=st.lists(st.sampled_from((1, -1, 2, -2)), max_size=8)
           .map(lambda letters: BraidWord(3, letters))
           .filter(lambda b: b.is_knot()))
    @settings(max_examples=15, deadline=None)
    def test_mirror_sign_map_on_random_words(self, b):
        tl = to_htilde_lines(build_dtable(b, 2))
        tl_mirror = to_htilde_lines(build_dtable(mirror(b), 2))
        assert tl_mirror.rows == tuple(
            tuple((-1) ** n * c for c in row) for n, row in enumerate(tl.rows))


class TestBottomLine:
    def test_catalog_knots(self, d52, d61, d41):
        for d, name in [(d52, "5_2"), (d61, "6_1"), (d41, "4_1")]:
            report = bottom_line_check(d, knot(name).conway)
            assert report.passed, (name, report)

    def test_unknot(self):
        report = bottom_line_check(build_dtable(UNKNOT, 2), LaurentPoly.one("z"))
        assert report.passed

    def test_detects_wrong_conway(self, d52):
        report = bottom_line_check(d52, knot("6_1").conway)
        assert not report.passed


class TestIntegrality:
    def test_5_2_h_lines_integral(self, d52):
        report = integrality_report(to_z_lines(d52))
        assert report.all_integer and not report.informational

    def test_6_1_htilde_fractional(self, d61):
        report = integrality_report(to_htilde_lines(d61), amphicheiral=False)
        assert not report.all_integer
        assert report.informational

    def test_4_1_htilde_integral(self, d41):
        report = integrality_report(to_htilde_lines(d41), amphicheiral=True)
        assert report.all_integer


class TestApproxPoly:
    def test_5_2_first_line(self):
        d = build_dtable(knot("5_2"), 5)
        lines = to_z_lines(d)
        ap = approx_poly(lines, knot("5_2").conway, 1, 3)
        assert list(ap.head) == [0, -6, -5]
        assert ap.stabilized is True

    def test_4_1_htilde_line(self):
        d = build_dtable(knot("4_1"), 5)
        lines = to_htilde_lines(d)
        ap = approx_poly(lines, knot("4_1").conway, 2, 4)
        assert list(ap.head) == [-1, -1, 0, 0]
        assert ap.stabilized is True

    def test_unknot_lines_vanish(self):
        d = build_dtable(UNKNOT, 3)
        lines = to_z_lines(d)
        for n in (1, 2, 3):
            ap = approx_poly(lines, LaurentPoly.one("z"), n, 2 * n + 1)
            assert not any(ap.head)
            assert all(c == 0 for c in ap.residual_window)

    def test_exponent_validation(self, d52):
        lines = to_z_lines(d52)
        with pytest.raises(ValueError):
            approx_poly(lines, knot("5_2").conway, 1, 4)
        with pytest.raises(OutOfRangeError):
            approx_poly(lines, knot("5_2").conway, 99, 199)

    def test_inconclusive_when_no_window(self):
        # N=2, n=2, exponent 5: head bound 2*4*... exceeds the guarantee
        d = build_dtable(knot("5_2"), 2)
        lines = to_z_lines(d)
        ap = approx_poly(lines, knot("5_2").conway, 2, 5)
        assert ap.stabilized is None

"""Gates for the braiding operators and the colored Jones evaluation."""

import pytest

from mmjones import cjones
from mmjones.cjones import (
    ColorDimension,
    ConventionViolationError,
    TensorVector,
    colored_jones,
    crossing_operator,
    jones_h_expansion,
    jones_h_series,
)
from mmjones.exactalg import LaurentPoly, laurent_to_hseries
from mmjones.knots import BraidWord, NotAKnotError

TREFOIL = BraidWord(2, [1, 1, 1])
FIG8 = BraidWord(3, [1, -2, 1, -2])
K5_2 = BraidWord(3, [-1, -1, -1, -2, 1, -2])
K6_1 = BraidWord(4, [1, 1, 2, -1, -3, 2, -3])
K8_3 = BraidWord(5, [1, 1, 2, -1, -3, 2, -3, -4, 3, -4])


def basis_vectors(alpha, strands):
    from itertools import product

    for idx in product(range(alpha), repeat=strands):
        yield TensorVector.basis(alpha, strands, idx)


class TestCrossingOperator:
    def test_alpha_one_is_scalar_unit(self):
        op = crossing_operator(1, 1)
        assert op.entries(0, 0) == [(0, 0, LaurentPoly.one("u"))]

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_inverse_pair_on_basis(self, alpha):
        plus = crossing_operator(alpha, 1)
        minus = crossing_operator(alpha, -1)
        for vec in basis_vectors(alpha, 2):
            roundtrip = vec.apply_crossing(plus, 0).apply_crossing(minus, 0)
            assert roundtrip == vec

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_yang_baxter(self, alpha):
        plus = crossing_operator(alpha, 1)
        for vec in basis_vectors(alpha, 3):
            lhs = (
                vec.apply_crossing(plus, 0)
                .apply_crossing(plus, 1)
                .apply_crossing(plus, 0)
            )
            rhs = (
                vec.apply_crossing(plus, 1)
                .apply_crossing(plus, 0)
                .apply_crossing(plus, 1)
            )
            assert lhs == rhs

    @pytest.mark.parametrize("alpha", [2, 3])
    def test_distant_crossings_commute(self, alpha):
        plus = crossing_operator(alpha, 1)
        minus = crossing_operator(alpha, -1)
        for vec in basis_vectors(alpha, 4):
            ab = vec.apply_crossing(plus, 0).apply_crossing(minus, 2)
            ba = vec.apply_crossing(minus, 2).apply_crossing(plus, 0)
            assert ab == ba


class TestColoredJones:
    def test_alpha_one_trivial(self):
        for braid in (TREFOIL, FIG8, K5_2):
            assert colored_jones(braid, 1) == LaurentPoly.one("q")
            assert colored_jones(braid, ColorDimension(1)) == LaurentPoly.one("q")

    def test_unknot_any_alpha(self):
        for alpha in (1, 2, 3, 4, 5):
            assert colored_jones(BraidWord(1, []), alpha) == LaurentPoly.one("q")
        assert colored_jones(BraidWord(2, [1]), 3) == LaurentPoly.one("q")
        assert colored_jones(BraidWord(3, [1, 2]), 2) == LaurentPoly.one("q")

    def test_trefoil_jones(self):
        v = colored_jones(TREFOIL, 2)
        assert v == LaurentPoly("q", {-4: -1, -3: 1, -1: 1})

    def test_figure_eight_jones(self):
        v = colored_jones(FIG8, 2)
        assert v == LaurentPoly("q", {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1})

    def test_amphicheiral_palindromic(self):
        for braid in (FIG8, K8_3):
            for alpha in (2, 3):
                v = colored_jones(braid, alpha)
                assert v == v.invert_variable()

    def test_markov_conjugation(self):
        for alpha in (2, 3):
            base = colored_jones(K5_2, alpha)
            assert colored_jones(K5_2.conjugated(2), alpha) == base
            assert colored_jones(K5_2.conjugated(-1), alpha) == base

    def test_markov_stabilization(self):
        for alpha in (2, 3):
            base = colored_jones(FIG8, alpha)
            assert colored_jones(FIG8.stabilized(1), alpha) == base
            assert colored_jones(FIG8.stabilized(-1), alpha) == base

    def test_integrality_certificate(self):
        for braid in (TREFOIL, FIG8, K5_2):
            for alpha in (2, 3, 4):
                v = colored_jones(braid, alpha)
                assert all(isinstance(c, int) for c in v.terms.values())
                assert v.evaluate_at_one() == 1

    def test_rejects_links(self):
        with pytest.raises(NotAKnotError):
            colored_jones(BraidWord(2, [1, 1]), 2)

    def test_rejects_sign_flipped_invariant(self, monkeypatch):
        # a flipped stabilization sign negates the invariant of an odd word;
        # V(1) = -1 must then fail the gate whatever the constant term is
        original = cjones._markov_data

        def flipped(alpha):
            a, f_sign, f_exp = original(alpha)
            return a, -f_sign, f_exp

        monkeypatch.setattr(cjones, "_markov_data", flipped)
        with pytest.raises(ConventionViolationError):
            colored_jones(FIG8.stabilized(1), 2)


class TestHExpansion:
    def test_unknot_series(self):
        s = jones_h_expansion(BraidWord(1, []), 4, 10)
        assert s.coeff(0) == 1 and all(s.coeff(k) == 0 for k in range(1, 11))

    def test_h0_is_one(self):
        for braid in (TREFOIL, FIG8, K5_2, K6_1):
            assert jones_h_series(braid, 3, 4)[0] == 1

    def test_matches_exact_path(self):
        for braid in (TREFOIL, FIG8, K5_2, K6_1, K8_3):
            for alpha in (2, 3):
                exact = laurent_to_hseries(colored_jones(braid, alpha), 8)
                fast = jones_h_expansion(braid, alpha, 8)
                assert exact == fast
        for braid in (K5_2, K6_1):
            exact = laurent_to_hseries(colored_jones(braid, 4), 6)
            assert exact == jones_h_expansion(braid, 4, 6)

    def test_laurent_to_hseries_examples(self):
        q = LaurentPoly.monomial("q", 1)
        assert list(laurent_to_hseries(q, 3).coeffs) == [1, 1, 0, 0]
        assert list(laurent_to_hseries(q ** -1, 2).coeffs) == [1, -1, 1]
        p = q - 2 * LaurentPoly.one("q") + q ** -1
        assert list(laurent_to_hseries(p, 3).coeffs) == [0, 0, 1, -1]

"""Gates for the braiding operators and the colored Jones evaluation."""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmjones import cjones, golden, mmexpand
from mmjones.cjones import (
    ConventionViolationError,
    colored_jones,
    jones_h_series,
)
from mmjones.exactalg import LaurentPoly, TruncSeries, series_pow1p
from mmjones.knots import BraidWord, NotAKnotError, default_catalog
from mmjones.mmexpand import build_dtable
from oracle_algebra import (
    apply_crossings,
    basis_state,
    compose_by_horner,
    conjugated,
    gseries_entry_tables,
    invert_variable,
    laurent_to_hseries,
    mirror,
    pinned_by_filter,
    stabilized,
)

TREFOIL = BraidWord(2, [1, 1, 1])
FIG8 = BraidWord(3, [1, -2, 1, -2])
K5_2 = BraidWord(3, [-1, -1, -1, -2, 1, -2])
K6_1 = BraidWord(4, [1, 1, 2, -1, -3, 2, -3])
K8_3 = BraidWord(5, [1, 1, 2, -1, -3, 2, -3, -4, 3, -4])

# 3-strand words of at most 8 letters whose closure is a knot
KNOT_WORDS = (
    st.lists(st.sampled_from((1, -1, 2, -2)), max_size=8)
    .map(lambda letters: BraidWord(3, letters))
    .filter(lambda b: b.is_knot())
)


def _qint(k):
    return LaurentPoly("u", {2 * (k - 1 - 2 * i): 1 for i in range(k)})


def _qprod(lo, hi):
    """[lo] [lo+1] ... [hi] as a product of quantum integers."""
    out = LaurentPoly.one("u")
    for l in range(lo, hi + 1):
        out = out * _qint(l)
    return out


def oracle_braiding_table(alpha, sign):
    """The operator entries by the rising products and a division by [n]!."""
    N = alpha - 1
    qdiff = LaurentPoly("u", {2: 1, -2: -1})
    qdiffs = [LaurentPoly.one("u")]  # qdiffs[n] = qdiff^n
    for _ in range(N):
        qdiffs.append(qdiffs[-1] * qdiff)
    table = {}
    for i in range(alpha):
        for j in range(alpha):
            entries = []
            if sign > 0:
                for n in range(min(i, N - j) + 1):
                    weight = n * (n - 1) + (N - 2 * (i - n)) * (N - 2 * (j + n))
                    num = (LaurentPoly.monomial("u", weight) * qdiffs[n]
                           * _qprod(i - n + 1, i) * _qprod(N - j - n + 1, N - j))
                    entries.append((j + n, i - n, num.exact_div(_qprod(1, n))))
            else:
                for n in range(min(j, N - i) + 1):
                    weight = -(n * (n - 1)) - (N - 2 * i) * (N - 2 * j)
                    num = (LaurentPoly.monomial("u", weight) * qdiffs[n]
                           * _qprod(j - n + 1, j) * _qprod(N - i - n + 1, N - i))
                    coeff = num.exact_div(_qprod(1, n))
                    entries.append((j - n, i + n, -coeff if n % 2 else coeff))
            table[(i, j)] = entries
    return table


def compose_paths(plus, minus):
    """Every path product c * c' and every entry of plus after minus, exactly.

    Both tables are expanded: (i, j) -> [(k, l, c)].
    """
    products, composed = [], {}
    for key, entries in minus.items():
        acc = composed[key] = {}
        for (k, l, c) in entries:
            for (k2, l2, c2) in plus[(k, l)]:
                prod = c * c2
                products.append(prod)
                acc[(k2, l2)] = acc.get((k2, l2), LaurentPoly.zero("u")) + prod
    return products, composed


TAMPERS = ("weight", "sign")


def tamper_minus(table, how):
    """The factored table with its (0, 0) entry's weight raised by 2 or its sign flipped."""
    (k, l, w, s, b, sgn), = table[(0, 0)]
    entry = (k, l, w + 2, s, b, sgn) if how == "weight" else (k, l, w, s, b, -sgn)
    return {**table, (0, 0): [entry]}


def path_bound(plus, minus):
    """The largest path sum of |S|_1 |B|_1 products over the source keys of minus."""
    def norm(e):
        return (sum(map(abs, cjones._scaled_qbinom(*e[3]).terms.values()))
                * sum(map(abs, cjones._qbinom(*e[4]).terms.values())))

    return max(sum(norm(e) * norm(e2) for e in entries for e2 in plus[e[:2]])
               for entries in minus.values())


def framing(alpha):
    return cjones._markov_data(cjones._operator_pair(alpha))


def gseries_tables(alpha, length):
    return cjones._gseries_entry_tables(cjones._operator_pair(alpha), length, (1, -1))


def a_priori_bits(b, alpha, length):
    """The former packing width, from (m_entry * length * alpha) ** letters."""
    tables, _ = gseries_tables(alpha, length)
    m_entry = max(abs(v) for table in tables.values() for entries in table.values()
                  for (_, _, c) in entries for v in c)
    letters = max(1, len(b.letters))
    amp_bound = (m_entry * length * alpha) ** letters
    wmax = 2 * (b.strands - 1) * (alpha - 1) + abs(framing(alpha) * b.writhe()) + 4
    total = amp_bound * comb(wmax + length, length) * length * alpha ** b.strands * 4
    return total.bit_length() + 4


def abs_mul(x, y):
    """|x| |y| for two coefficient lists, truncated to len(x) terms."""
    return [sum(abs(x[i] * y[k - i]) for i in range(k + 1)) for k in range(len(x))]


def brute_majorant(b, alpha, length):
    """The width majorant with the start vectors enumerated one by one."""
    N = alpha - 1
    f_exp = framing(alpha)
    _, majorants = gseries_tables(alpha, length)
    bound = [0] * length
    for rest in product(range(alpha), repeat=b.strands - 1):
        charge = cjones._binom_row(2 * sum(N - 2 * i for i in rest), length)
        bound = [x + abs(c) for x, c in zip(bound, charge)]
    bound = abs_mul(bound, cjones._binom_row(-f_exp * b.writhe(), length))
    for k in b.letters:
        bound = abs_mul(bound, majorants[1 if k > 0 else -1])
    return bound


def packed_gseries(b, alpha, length):
    """The packed ring and the g-series its state sum unpacks to."""
    ring = cjones._PackedRing(b, alpha, length)
    return ring, ring.unpack(cjones._state_sum(b, alpha, ring))


def exact_gseries(b, alpha, length):
    """The g-series of the exact ring's framed invariant."""
    return cjones._laurent_to_gseries(
        cjones._state_sum(b, alpha, cjones._ExactRing(alpha)), length, {})


def gate_chain(gate, *args):
    """The (chain, expected, pairs) that ``gate`` hands to the one chain check."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cjones, "_check_chain", lambda *call: calls.append(call[:3]))
        gate(*args)
    (call,) = calls
    return call


def factor_pairs(*tables):
    return cjones._FactorPairs(cjones._entries(*tables))


def basis_vectors(alpha, strands):
    for idx in product(range(alpha), repeat=strands):
        yield basis_state(idx)


class TestCrossingOperator:
    def test_alpha_one_is_scalar_unit(self):
        op, _ = cjones._operator_pair(1)
        assert cjones._expand_table(op.table)[(0, 0)] == [(0, 0, LaurentPoly.one("u"))]

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_inverse_pair_on_basis(self, alpha):
        plus, minus = cjones._operator_pair(alpha)
        for vec in basis_vectors(alpha, 2):
            assert apply_crossings(vec, (plus, 0), (minus, 0)) == vec

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_yang_baxter(self, alpha):
        plus, _ = cjones._operator_pair(alpha)
        for vec in basis_vectors(alpha, 3):
            lhs = apply_crossings(vec, (plus, 0), (plus, 1), (plus, 0))
            rhs = apply_crossings(vec, (plus, 1), (plus, 0), (plus, 1))
            assert lhs == rhs

    @pytest.mark.parametrize("alpha", [2, 3])
    def test_distant_crossings_commute(self, alpha):
        plus, minus = cjones._operator_pair(alpha)
        for vec in basis_vectors(alpha, 4):
            ab = apply_crossings(vec, (plus, 0), (minus, 2))
            ba = apply_crossings(vec, (minus, 2), (plus, 0))
            assert ab == ba


class TestOperatorTables:
    @pytest.mark.parametrize("alpha", range(1, 10))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_division_free_build_matches_oracle(self, alpha, sign):
        table = cjones._expand_table(cjones._braiding_table(alpha, sign))
        assert table == oracle_braiding_table(alpha, sign)

    @pytest.mark.parametrize("alpha", [2, 3, 5])
    def test_tampered_minus_table_fails_gate(self, alpha, monkeypatch):
        original = cjones._braiding_table
        for how in TAMPERS:
            def tampered(a, sign, how=how):
                table = original(a, sign)
                return tamper_minus(table, how) if sign < 0 else table

            monkeypatch.setattr(cjones, "_braiding_table", tampered)
            with pytest.raises(ConventionViolationError, match=f"alpha={alpha}"):
                cjones._operator_pair(alpha)

    @pytest.mark.parametrize("alpha", range(1, 8))
    def test_gate_width_covers_exact_composition(self, alpha):
        # the width is a sign bit over the |S|_1 |B|_1 path bound, and that
        # bound covers every coefficient of the exact products and composition
        plus = cjones._braiding_table(alpha, 1)
        true_minus = cjones._braiding_table(alpha, -1)
        for minus in (true_minus, *(tamper_minus(true_minus, how) for how in TAMPERS)):
            chain, expected, pairs = gate_chain(cjones._check_inverse, plus, minus,
                                                factor_pairs(plus, minus), alpha)
            assert chain == [minus, plus]
            width, step, los = cjones._chain_layout(chain, expected, pairs)
            bound = path_bound(plus, minus)
            assert width == bound.bit_length() + 1
            products, composed = compose_paths(cjones._expand_table(plus),
                                               cjones._expand_table(minus))
            polys = products + [p for acc in composed.values() for p in acc.values()]
            assert max(abs(c) for p in polys for c in p.terms.values()) <= bound
            assert all((e - sum(los)) % step == 0 for p in products for e in p.terms)
            assert all(m - sum(los) >= 0 and (m - sum(los)) % step == 0
                       for _, m in expected.values())

    @pytest.mark.parametrize("alpha", range(1, 8))
    def test_packed_gate_verdict_matches_exact(self, alpha):
        plus = cjones._braiding_table(alpha, 1)
        true_minus = cjones._braiding_table(alpha, -1)
        for minus in (true_minus, *(tamper_minus(true_minus, how) for how in TAMPERS)):
            _, composed = compose_paths(cjones._expand_table(plus), cjones._expand_table(minus))
            identity = all({tgt: p for tgt, p in acc.items() if p} == {key: LaurentPoly.one("u")}
                           for key, acc in composed.items())
            try:
                cjones._check_inverse(plus, minus, factor_pairs(plus, minus), alpha)
                packed_identity = True
            except ConventionViolationError:
                packed_identity = False
            assert packed_identity == identity == (minus is true_minus)

    @pytest.mark.parametrize("alpha", [2, 5, 9])
    def test_gate_and_gseries_tables_multiply_no_laurent_poly(self, alpha, monkeypatch):
        # warm the process-wide factor caches, then count products
        cjones._operator_pair(alpha)
        products = []
        original = LaurentPoly.__mul__

        def counted(self, other):
            products.append(other)
            return original(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counted)
        cjones._gseries_entry_tables(cjones._operator_pair(alpha), 11, (1, -1))
        assert products == []

    @pytest.mark.parametrize("alpha", [2, 5, 9])
    def test_markov_data_expands_no_entry(self, alpha, monkeypatch):
        # warm the process-wide factor caches, then count expansions and products
        operators = cjones._operator_pair(alpha)
        cjones._markov_data(operators)
        expanded, products = [], []
        original_entry, original_mul = cjones._entry_poly, LaurentPoly.__mul__

        def counted_entry(entry):
            expanded.append(entry)
            return original_entry(entry)

        def counted_mul(self, other):
            products.append(other)
            return original_mul(self, other)

        monkeypatch.setattr(cjones, "_entry_poly", counted_entry)
        monkeypatch.setattr(LaurentPoly, "__mul__", counted_mul)
        cjones._markov_data(operators)
        assert expanded == [] and products == []


def oracle_markov_data(alpha):
    """(a, f_sign, f_exp) from the expanded diagonal entries, row by row."""
    N = alpha - 1
    diagonals = [
        {key: cjones._entry_poly(e) for key, entries in op.table.items()
         for e in entries if e[:2] == key}
        for op in cjones._operator_pair(alpha)
    ]
    for a in (1, -1):
        scalars = []
        for entries in diagonals:
            rows = [sum((c.shift(2 * a * (N - 2 * j)) for (i, j), c in entries.items() if i == row),
                        LaurentPoly.zero("u")) for row in range(alpha)]
            if any(r != rows[0] for r in rows) or len(rows[0].terms) != 1:
                break
            scalars.append(rows[0])
        else:
            if scalars[0] * scalars[1] == LaurentPoly.one("u"):
                ((e, c),) = scalars[0].terms.items()
                return (a, c, e)
    return None


def tampered_pair(alpha, how):
    """The operator pair with the plus table's (0, 0) diagonal entry tampered."""
    plus, minus = cjones._operator_pair(alpha)
    (k, l, w, s, b, sgn), *rest = plus.table[(0, 0)]
    entry = (k, l, w + 2, s, b, sgn) if how == "weight" else (k, l, w, s, b, -sgn)
    table = {**plus.table, (0, 0): [entry, *rest]}
    return cjones.CrossingOperator(alpha, 1, table, plus.pairs), minus


class TestMarkovData:
    @pytest.mark.parametrize("alpha", range(2, 14))
    def test_packed_rows_match_expanded_oracle(self, alpha):
        # the closed form, the ribbon twist u^(alpha^2 - 1), is what the oracle reads off
        assert oracle_markov_data(alpha) == (1, 1, alpha * alpha - 1)
        assert framing(alpha) == alpha * alpha - 1

    @pytest.mark.parametrize("alpha", range(2, 10))
    def test_width_covers_every_row(self, alpha):
        # a sign bit over the largest row sum of |S|_1 |B|_1, a bound on every
        # coefficient of the rows, for both charge signs, true and tampered
        N = alpha - 1
        for operators in (cjones._operator_pair(alpha), *(tampered_pair(alpha, how) for how in TAMPERS)):
            chain, expected, pairs = gate_chain(cjones._markov_data, operators)
            width, step, (lo,) = cjones._chain_layout(chain, expected, pairs)
            diagonals = [[(i, j, e) for (i, j), entries in op.table.items()
                          for e in entries if e[:2] == (i, j)] for op in operators]
            norm = {id(e): sum(map(abs, cjones._scaled_qbinom(*e[3]).terms.values()))
                    * sum(map(abs, cjones._qbinom(*e[4]).terms.values()))
                    for diagonal in diagonals for (_, _, e) in diagonal}
            bound = max(sum(norm[id(e)] for (i, _, e) in diagonal if i == row)
                        for diagonal in diagonals for row in range(alpha))
            assert width == bound.bit_length() + 1
            for a in (1, -1):
                for diagonal in diagonals:
                    for row in range(alpha):
                        poly = sum((cjones._entry_poly(e).shift(2 * a * (N - 2 * j))
                                    for (i, j, e) in diagonal if i == row), LaurentPoly.zero("u"))
                        assert max(map(abs, poly.terms.values()), default=0) <= bound
            # a path of the one-table chain is one charged diagonal entry
            (table,) = chain
            assert all((e - lo) % step == 0 for es in table.values() for entry in es
                       for e in cjones._entry_poly(entry).terms)
            assert all(m - lo >= 0 and (m - lo) % step == 0 for _, m in expected.values())

    @pytest.mark.parametrize("alpha", [2, 3, 6])
    def test_tampered_diagonal_raises(self, alpha, monkeypatch):
        for how in TAMPERS:
            pair = tampered_pair(alpha, how)
            monkeypatch.setattr(cjones, "_operator_pair", lambda a, pair=pair: pair)
            assert oracle_markov_data(alpha) is None
            with pytest.raises(ConventionViolationError, match=f"alpha={alpha}"):
                cjones._markov_data(pair)
            monkeypatch.undo()


class TestGToH:
    @staticmethod
    def reference(gcoeffs, cap):
        # Horner's rule builds no power table, so it shares none with the columns
        g_of_h = series_pow1p(Fraction(1, 4), cap) - 1
        return list(compose_by_horner(TruncSeries("_g", cap, gcoeffs[: cap + 1]), g_of_h).coeffs)

    @pytest.mark.parametrize("cap", range(1, 25))
    def test_matches_series_compose(self, cap):
        inputs = [cjones._laurent_to_gseries(LaurentPoly.monomial("u", 4 * m), cap + 1, {})
                  for m in (-3, 0, 1, 5)]
        for braid, alpha in ((TREFOIL, 2), (FIG8, 3), (K5_2, 4)):
            v = colored_jones(braid, alpha)
            u_poly = LaurentPoly("u", {4 * e: c for e, c in v.terms.items()})
            inputs.append(cjones._laurent_to_gseries(u_poly, cap + 1, {}))
        for gcoeffs in inputs:
            assert cjones._gseries_to_hseries(gcoeffs, 2, cap) == self.reference(gcoeffs, cap)

    def test_rejects_non_integer_and_bad_constant(self):
        quarter = cjones._laurent_to_gseries(LaurentPoly.monomial("u", 1), 5, {})
        with pytest.raises(ConventionViolationError, match="non-integer coefficient at alpha=5, h\\^1"):
            cjones._gseries_to_hseries(quarter, 5, 4)
        doubled = cjones._laurent_to_gseries(LaurentPoly.monomial("u", 4, 2), 5, {})
        with pytest.raises(ConventionViolationError,
                           match="start at 1 at alpha=7: its h\\^0 coefficient is 2"):
            cjones._gseries_to_hseries(doubled, 7, 4)


# Largest N per catalog knot: colors 2..N+1 at cap 2N.
WIDTH_ORDERS = {"unknot": 8, "3_1": 8, "4_1": 8, "5_2": 6, "6_1": 5, "8_3": 4}


class TestPackingWidth:
    @pytest.mark.parametrize("record", default_catalog(), ids=lambda r: r.name)
    def test_width_holds_every_coefficient(self, record, monkeypatch):
        # Rotations are conjugates, so they share the exact invariant of the
        # unrotated word (the exact path's conjugation invariance is tested
        # in TestColoredJones).  The rings of one color share its operator pair.
        monkeypatch.setattr(cjones, "_operator_pair", lru_cache(maxsize=1)(cjones._operator_pair))
        N = WIDTH_ORDERS[record.name]
        for word in (record.braid, mirror(record.braid)):
            letters = word.letters
            for alpha in range(2, N + 2):
                exact = exact_gseries(word, alpha, 2 * N + 1)
                for i in range(max(1, len(letters))):
                    rotated = BraidWord(word.strands, letters[i:] + letters[:i])
                    ring, got = packed_gseries(rotated, alpha, 2 * N + 1)
                    assert got == exact
                    assert ring.bits >= max(abs(c) for c in got).bit_length() + 1
                    assert 2 * ring.bits <= a_priori_bits(rotated, alpha, 2 * N + 1)

    @pytest.mark.parametrize("alpha", range(2, 8))
    def test_row_majorant_is_largest_one_letter_image(self, alpha):
        # each basis vector's image under one letter, summed in absolute value
        # over output keys, has the row majorant as coefficientwise max
        length = 9
        _, majorants = gseries_tables(alpha, length)
        for op in cjones._operator_pair(alpha):
            images = []
            for vec in basis_vectors(alpha, 2):
                amps = apply_crossings(vec, (op, 0)).values()
                rows = [cjones._laurent_to_gseries(c, length, {}) for c in amps]
                images.append([sum(abs(r[k]) for r in rows) for k in range(length)])
            assert majorants[op.sign] == tuple(map(max, *images))

    @pytest.mark.parametrize("record", default_catalog(), ids=lambda r: r.name)
    def test_majorant_matches_start_vector_enumeration(self, record):
        for word in (record.braid, mirror(record.braid)):
            for alpha in (2, 3, 4):
                _, majorants = gseries_tables(alpha, 9)
                assert (cjones._majorant_series(word, alpha, 9, majorants, framing(alpha))
                        == brute_majorant(word, alpha, 9))

    def test_one_bit_short_breaks_the_sum(self, monkeypatch):
        exact = exact_gseries(K6_1, 6, 11)
        observed = max(abs(c) for c in exact).bit_length()
        assert packed_gseries(K6_1, 6, 11)[1] == exact
        # a majorant of bit length observed - 1 sets the width to observed
        monkeypatch.setattr(cjones, "_majorant_series", lambda *args: [1 << (observed - 2)])
        ring, got = packed_gseries(K6_1, 6, 11)
        assert ring.bits == observed and got != exact


class TestGSeriesTables:
    @pytest.mark.parametrize("alpha", range(2, 14))
    def test_factored_tables_match_term_by_term(self, alpha):
        # and the digit width is a sign bit over max |S|_1 |B|_1 times the
        # largest binomial row at the extreme exponents, which bounds every
        # coefficient of the tables
        operators = cjones._operator_pair(alpha)
        factored = {op.sign: op.table for op in operators}
        expanded = {sign: cjones._expand_table(table) for sign, table in factored.items()}
        entries = [e for table in factored.values() for es in table.values() for e in es]
        norm = max(sum(map(abs, cjones._scaled_qbinom(*e[3]).terms.values()))
                   * sum(map(abs, cjones._qbinom(*e[4]).terms.values())) for e in entries)
        exps = [x for table in expanded.values() for es in table.values()
                for (_, _, c) in es for x in c.terms]
        for length in (11, 17, 21, 25):
            tables, majorants = gseries_entry_tables(expanded, length)
            assert cjones._gseries_entry_tables(operators, length, (1, -1)) == (tables, majorants)
            rows = cjones._binom_row(min(exps), length) + cjones._binom_row(max(exps), length)
            bound = norm * max(map(abs, rows))
            assert max(abs(x) for table in tables.values() for es in table.values()
                       for (_, _, c) in es for x in c) <= bound
            assert (cjones._gseries_width(entries, factor_pairs(*factored.values()), length)
                    >= bound.bit_length() + 1)

    def test_factor_cache_keeps_one_length(self):
        for length in (11, 17, 11):
            gseries_tables(4, length)
            assert cjones._factor_gseries.cache_info().currsize == 1
            cache = cjones._factor_gseries(length)
            for factor in (cjones._scaled_qbinom(3, 2), cjones._qbinom(3, 2)):
                assert cache[factor] == tuple(cjones._laurent_to_gseries(factor, length, {}))


class TestOneSignTables:
    def test_ring_builds_only_its_word_signs(self):
        positive = BraidWord(2, (1, 1, 1))
        assert set(cjones._PackedRing(positive, 4, 9).tables) == {1}
        assert set(cjones._PackedRing(mirror(positive), 4, 9).tables) == {-1}
        assert set(cjones._PackedRing(FIG8, 4, 9).tables) == {1, -1}

    @pytest.mark.parametrize("alpha", [2, 5, 9])
    def test_one_sign_is_that_sign_of_both(self, alpha):
        operators = cjones._operator_pair(alpha)
        tables, majorants = cjones._gseries_entry_tables(operators, 11, (1, -1))
        for sign in (1, -1):
            assert (cjones._gseries_entry_tables(operators, 11, (sign,))
                    == ({sign: tables[sign]}, {sign: majorants[sign]}))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_sign_word_converts_only_its_entries(self, sign, monkeypatch):
        # each converted entry is unpacked once, and the ring unpacks nothing else
        alpha, unpacked = 6, []
        original = cjones._unpack
        monkeypatch.setattr(cjones, "_unpack",
                            lambda *args: unpacked.append(args) or original(*args))
        cjones._PackedRing(BraidWord(2, (sign,) * 3), alpha, 13)
        assert len(unpacked) == len(cjones._entries(cjones._braiding_table(alpha, sign)))

    def test_trefoil_widths_at_order_12(self):
        # the widths of both-sign tables: the width reads only the word's signs
        assert [cjones._PackedRing(TREFOIL, alpha, 25).bits for alpha in range(2, 14)] == [
            42, 69, 89, 106, 121, 134, 145, 154, 163, 171, 178, 185]

    def test_unknot_builds_no_table(self):
        ring = cjones._PackedRing(BraidWord(1, []), 4, 9)
        assert ring.tables == {}
        assert ring.unpack(cjones._state_sum(BraidWord(1, []), 4, ring)) == [1] + [0] * 8


class TestPinnedTables:
    @pytest.mark.parametrize("alpha", range(2, 9))
    def test_index_picker_matches_filter(self, alpha):
        rings = (cjones._ExactRing(alpha), cjones._PackedRing(FIG8, alpha, 5),
                 cjones._CountingRing(alpha))
        wanted = (None, *range(alpha))
        for ring in rings:
            for sign in (1, -1):
                table = ring.tables[sign]
                for want_k, want_l in product(wanted, wanted):
                    picked = cjones._pinned(table, sign, want_k, want_l)
                    assert ({key: tuple(es) for key, es in picked.items()}
                            == pinned_by_filter(table, want_k, want_l))


class TestColoredJones:
    def test_alpha_one_trivial(self):
        for braid in (TREFOIL, FIG8, K5_2):
            assert colored_jones(braid, 1) == LaurentPoly.one("q")

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
                assert v == invert_variable(v)

    def test_markov_conjugation(self):
        for alpha in (2, 3):
            base = colored_jones(K5_2, alpha)
            assert colored_jones(conjugated(K5_2, 2), alpha) == base
            assert colored_jones(conjugated(K5_2, -1), alpha) == base

    def test_markov_stabilization(self):
        for alpha in (2, 3):
            base = colored_jones(FIG8, alpha)
            assert colored_jones(stabilized(FIG8, 1), alpha) == base
            assert colored_jones(stabilized(FIG8, -1), alpha) == base

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
        # a negated framed invariant has V(1) = -1, which must fail the gate
        # whatever the constant term is
        original = cjones._state_sum
        monkeypatch.setattr(cjones, "_state_sum", lambda *args: -original(*args))
        with pytest.raises(ConventionViolationError, match="does not evaluate to 1 .* at alpha=2"):
            colored_jones(stabilized(FIG8, 1), 2)

    def test_rejects_fractional_powers(self, monkeypatch):
        original = cjones._state_sum
        monkeypatch.setattr(cjones, "_state_sum", lambda *args: original(*args).shift(1))
        with pytest.raises(ConventionViolationError, match="fractional powers of q-hat at alpha=3"):
            colored_jones(FIG8, 3)


class TestHExpansion:
    def test_unknot_series(self):
        assert jones_h_series(BraidWord(1, []), 4, 10) == [1] + [0] * 10

    def test_h0_is_one(self):
        for braid in (TREFOIL, FIG8, K5_2, K6_1):
            assert jones_h_series(braid, 3, 4)[0] == 1

    def test_matches_exact_path(self):
        for braid in (TREFOIL, FIG8, K5_2, K6_1, K8_3):
            for alpha in (2, 3):
                exact = laurent_to_hseries(colored_jones(braid, alpha), 8)
                assert list(exact.coeffs) == jones_h_series(braid, alpha, 8)
        for braid in (K5_2, K6_1):
            exact = laurent_to_hseries(colored_jones(braid, 4), 6)
            assert list(exact.coeffs) == jones_h_series(braid, 4, 6)

    def test_laurent_to_hseries_examples(self):
        q = LaurentPoly.monomial("q", 1)
        assert list(laurent_to_hseries(q, 3).coeffs) == [1, 1, 0, 0]
        q_inv = LaurentPoly.monomial("q", -1)
        assert list(laurent_to_hseries(q_inv, 2).coeffs) == [1, -1, 1]
        p = q - 2 * LaurentPoly.one("q") + q_inv
        assert list(laurent_to_hseries(p, 3).coeffs) == [0, 0, 1, -1]

    @given(b=KNOT_WORDS)
    @settings(max_examples=12, deadline=None)
    def test_packed_matches_exact_on_random_words(self, b):
        # the majorant width on words nobody tuned it for, and Markov moves
        for alpha in (2, 3):
            series = jones_h_series(b, alpha, 8)
            assert series == list(laurent_to_hseries(colored_jones(b, alpha), 8).coeffs)
            for moved in (conjugated(b, 1), conjugated(b, -1), stabilized(b, 1), stabilized(b, -1)):
                assert jones_h_series(moved, alpha, 8) == series


class TestColorCaches:
    def test_each_color_built_once_per_dtable(self, monkeypatch):
        built = []
        original = cjones._braiding_table

        def counted(alpha, sign):
            built.append((alpha, sign))
            return original(alpha, sign)

        monkeypatch.setattr(cjones, "_braiding_table", counted)
        build_dtable(FIG8, 4)
        assert sorted(built) == [(alpha, sign) for alpha in range(2, 6) for sign in (-1, 1)]

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_closure_cut_gate_reuses_the_color_2_pair(self, N, monkeypatch):
        # 5_2 moves its cut, so the gate runs and needs the alpha = 2 pair:
        # the one pair a D-table builds twice, and only when it searches
        word = BraidWord(3, [-1, -1, -1, -2, 1, -2])
        pairs, searched = [], []
        original_pair, original_cut = cjones._operator_pair, mmexpand._closure_cut

        def counted_pair(alpha):
            pairs.append(alpha)
            return original_pair(alpha)

        def counted_cut(b):
            searched.append(b)
            return original_cut(b)

        monkeypatch.setattr(cjones, "_operator_pair", counted_pair)
        monkeypatch.setattr(mmexpand, "_closure_cut", counted_cut)
        build_dtable(word, N)
        # colors below 4 run at the given cut and search none
        assert searched == ([] if N < 3 else [word])
        gate = [2] if N >= 3 else []
        assert sorted(pairs) == sorted(list(range(2, N + 2)) + gate)
        if N >= 3:
            assert original_cut(word) != (0, 0)


# 3- and 4-strand words of at most 8 letters whose closure is a knot
CUT_WORDS = st.one_of(
    KNOT_WORDS,
    st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), max_size=8)
    .map(lambda letters: BraidWord(4, letters))
    .filter(lambda b: b.is_knot()),
)


def every_cut(b):
    return [(r, f) for r in range(max(1, len(b.letters))) for f in range(b.strands)]


def cut_word(b, cut):
    """A cut by what it does: (pinned slot, rotated word)."""
    r, f = cut
    return f, b.letters[r:] + b.letters[:r]


def packed_products(b, alpha, cut, monkeypatch):
    """The products the packed state sum runs at ``cut``, counted at each letter."""
    products = []
    original = cjones._apply_letter

    def counted(state, table, pos, reduce):
        products.append(sum(len(table[key[pos:pos + 2]]) for key in state))
        return original(state, table, pos, reduce)

    with monkeypatch.context() as patch:
        patch.setattr(cjones, "_apply_letter", counted)
        cjones._state_sum(b, alpha, cjones._PackedRing(b, alpha, 5), cut)
    return sum(products)


def catalog_words():
    return {r.name: r.braid for r in default_catalog() if r.braid.letters}


class TestClosureCut:
    @given(b=CUT_WORDS)
    @settings(max_examples=12, deadline=None)
    def test_every_cut_gives_the_invariant(self, b):
        # the pinned slot's left neighbours carry mu^-1; with mu there this fails
        for alpha in (2, 3):
            ring = cjones._ExactRing(alpha)
            invariant = colored_jones(b, alpha)
            exact = cjones._laurent_to_gseries(cjones._state_sum(b, alpha, ring), 7, {})
            for cut in every_cut(b):
                framed = cjones._state_sum(b, alpha, ring, cut)
                assert framed.compress_exponents(4, "q") == invariant
                packed = cjones._PackedRing(b, alpha, 7)
                assert packed.unpack(cjones._state_sum(b, alpha, packed, cut)) == exact

    def test_wrong_left_charge_fails_the_gate(self, monkeypatch):
        def mu_everywhere(alpha, strands, f):
            for start, _ in original(alpha, strands, f):
                yield start, sum(alpha - 1 - 2 * i for slot, i in enumerate(start) if slot != f)

        # each of these words moves its pinned slot off slot 0
        original = cjones._start_vectors
        monkeypatch.setattr(cjones, "_start_vectors", mu_everywhere)
        for b in (K5_2, catalog_words()["6_1"], K8_3):
            with pytest.raises(ConventionViolationError, match="alpha=2"):
                cjones._closure_cut(b)

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_counting_ring_counts_packed_products(self, alpha, monkeypatch):
        for b in (K5_2, K6_1):
            ring = cjones._CountingRing(alpha)
            for cut in every_cut(b):
                assert ring.count(b, cut) == packed_products(b, alpha, cut, monkeypatch)

    def test_count_stops_past_its_budget(self):
        ring = cjones._CountingRing(3)
        full = ring.count(K6_1, (0, 0))
        assert ring.count(K6_1, (0, 0), full) == full
        assert ring.count(K6_1, (0, 0), full - 1) == float("inf")

    @pytest.mark.parametrize("name", ["3_1", "4_1", "5_2", "6_1", "8_3"])
    def test_catalog_cuts(self, name):
        b = catalog_words()[name]
        cut = cjones._closure_cut(b)
        chosen = cut_word(b, cut)
        count = {alpha: cjones._CountingRing(alpha).count for alpha in (5, golden.TABLE_BUDGET.get(name, 12) + 1)}
        for r in range(len(b.letters)):
            rotated = BraidWord(b.strands, b.letters[r:] + b.letters[:r])
            rotated_cut = cjones._closure_cut(rotated)
            assert cut_word(rotated, rotated_cut) == chosen
            assert count[5](rotated, rotated_cut) <= count[5](rotated, (0, 0))
        for alpha, counted in count.items():
            assert counted(b, cut) <= counted(b, (0, 0))

    def test_golden_top_color_counts(self):
        words = catalog_words()
        for name, most in (("5_2", 1905), ("6_1", 49147)):
            b = words[name]
            assert cjones._CountingRing(10).count(b, cjones._closure_cut(b)) <= most

    @pytest.mark.parametrize("name", ["3_1", "4_1", "5_2", "6_1", "8_3"])
    def test_width_is_the_same_for_every_cut(self, name):
        # the letter product commutes, and the charges of every pinned slot
        # have one distribution (N - 2s and its negative are both charges)
        b = catalog_words()[name]
        for alpha in (2, 3, 5):
            charges = sorted(c for _, c in cjones._start_vectors(alpha, b.strands, 0))
            for f in range(b.strands):
                assert sorted(c for _, c in cjones._start_vectors(alpha, b.strands, f)) == charges
            bits = cjones._PackedRing(b, alpha, 9).bits
            for r in range(len(b.letters)):
                rotated = BraidWord(b.strands, b.letters[r:] + b.letters[:r])
                assert cjones._PackedRing(rotated, alpha, 9).bits == bits

    def test_small_colors_keep_the_given_cut(self, monkeypatch):
        # a D-table whose colors stop at 3 runs them at the given cut
        def no_search(b):
            raise AssertionError("cut search at a small color")

        monkeypatch.setattr(mmexpand, "_closure_cut", no_search)
        build_dtable(K8_3, 2)
        with pytest.raises(AssertionError, match="small color"):
            build_dtable(K8_3, 3)

    def test_search_builds_tables_only_for_its_gate(self, monkeypatch):
        # the counts read the table shapes; only the alpha = 2 gate builds
        # coefficient tables, and only when the cut changes
        built = []
        original = cjones._braiding_table

        def counted(alpha, sign):
            built.append((alpha, sign))
            return original(alpha, sign)

        monkeypatch.setattr(cjones, "_braiding_table", counted)
        assert cjones._closure_cut(FIG8) == (0, 0) and built == []
        assert cjones._closure_cut(K5_2) != (0, 0)
        assert sorted(built) == [(2, -1), (2, 1)]

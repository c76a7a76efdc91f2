"""Gates for the braiding operators and the colored Jones evaluation."""

import gc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmjones import cjones, golden, mmexpand
from mmjones.cjones import ConventionViolationError, jones_h_series
from mmjones.exactalg import LaurentPoly, series_pow1p
from mmjones.knots import BraidWord, NotAKnotError, default_catalog
from mmjones.mmexpand import build_dtable
from oracle_algebra import (
    TruncSeries,
    apply_crossings,
    basis_state,
    colored_jones,
    compose_by_horner,
    conjugated,
    flip_entry,
    gseries_entry_tables,
    invert_variable,
    laurent_to_hseries,
    mirror,
    stabilized,
    start_vectors,
    state_sum_by_starts,
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


def keyed_tables(operators, coeffs, signs=(1, -1)):
    """sign -> (i, j) -> ((k, l, g-series), ...), each entry's series read from the
    distinct coefficients of ``_gseries_entry_tables`` by its coefficient key."""
    return {op.sign: {key: tuple((e[0], e[1], coeffs[cjones._coefficient_key(e)]) for e in es)
                      for key, es in op.table.items()}
            for op in operators if op.sign in signs}


EVERY_ENTRY = {1: None, -1: None}


def gseries_tables(alpha, length):
    """Both signs' g-series tables, keyed per entry, and their row majorants."""
    operators = cjones._operator_pair(alpha)
    coeffs, majorants = cjones._gseries_entry_tables(operators, length, EVERY_ENTRY)
    return keyed_tables(operators, coeffs), majorants


def read_entries(closure, alpha):
    """(sign, i, j, t) of every entry the walk of ``closure`` reads at this color."""
    operators = cjones._operator_pair(alpha)
    reads = cjones._read_entries(closure, alpha, {op.sign: op.table for op in operators})
    out = set()
    for op in operators:
        if op.sign not in reads:
            continue
        read = reads[op.sign]
        pairs, singles = (op.table, ()) if read is None else read
        out |= {(op.sign, i, j, t) for (i, j) in pairs for t in range(len(op.table[(i, j)]))}
        out |= {(op.sign, i, j, t) for (i, j, t) in singles}
    return out


def full_table_bits(closure, alpha, length, majorants):
    """The ring width with every entry read, the width before the walk; ``majorants``
    are the full tables' row majorants (:func:`gseries_tables`)."""
    bound = cjones._majorant_series(closure, alpha, length, majorants, framing(alpha))
    return max(bound).bit_length() + 1


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
    closure = cjones._Closure.of(b)
    ring = cjones._PackedRing(closure, alpha, length)
    return ring, ring.unpack(cjones._state_sum(closure, alpha, ring))


def exact_gseries(b, alpha, length):
    """The g-series of the exact ring's framed invariant."""
    return cjones._laurent_to_gseries(
        cjones._state_sum(cjones._Closure.of(b), alpha, cjones._ExactRing(alpha)), length, {})


def gate_chain(gate, *args):
    """The (chain, expected, pairs) that ``gate`` hands to the one chain check,
    run with the color-free memo empty; the memo is restored after."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cjones, "_check_chain", lambda *call: calls.append(call[:3]))
        mp.setattr(cjones._COLOR_FREE, "N", -1)
        gate(*args)
    (call,) = calls
    return call


def per_color_chain_holds(plus, minus, alpha):
    """R^- R^+ = I at one color, checked directly: the chain minus then plus,
    from every key of the built tables, is the identity."""
    try:
        cjones._check_chain([minus, plus], {key: (key, 0) for key in minus},
                            factor_pairs(plus, minus), ConventionViolationError)
    except ConventionViolationError:
        return False
    return True


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
    def test_gate_width_covers_exact_composition(self, alpha, monkeypatch):
        # the inverse gate's one chain is the color-free pair A then B, from
        # the keys a <= b <= N = alpha - 1; the width is a sign bit over the
        # |S|_1 |B|_1 path bound, and that bound covers every coefficient of
        # the exact products and composition, true and tampered; every term
        # of a path's product lies at base + (its offset's residue) + step d,
        # d >= 0
        N = alpha - 1
        true_a, table_b = cjones._color_free_tables(N)
        for table_a in (true_a, *(tamper_minus(true_a, how) for how in TAMPERS)):
            monkeypatch.setattr(cjones, "_color_free_tables", lambda n, pair=(table_a, table_b): pair)
            chain, expected, pairs = gate_chain(cjones._check_color_free, N)
            assert chain == [table_a, table_b]
            assert expected == {(a, b): ((a, b), 0) for b in range(alpha) for a in range(b + 1)}
            width, step, los = cjones._chain_layout(chain, expected, pairs)
            bound = path_bound(table_b, table_a)
            assert width == bound.bit_length() + 1
            assert step == (4 if alpha > 1 else 1)
            products, composed = compose_paths(cjones._expand_table(table_b),
                                               cjones._expand_table(table_a))
            polys = products + [p for acc in composed.values() for p in acc.values()]
            assert max(abs(c) for p in polys for c in p.terms.values()) <= bound
            base = sum(los)
            for key in expected:
                for e in table_a[key]:
                    for e2 in table_b[e[:2]]:
                        offset = e[2] + pairs.lo(e) + e2[2] + pairs.lo(e2) - base
                        terms = (cjones._entry_poly(e) * cjones._entry_poly(e2)).terms
                        assert offset >= 0 and min(terms) == base + offset
                        assert all((x - base) % step == offset % step for x in terms)
            assert all(m - base >= 0 for _, m in expected.values())

    @pytest.mark.parametrize("alpha", range(1, 8))
    def test_packed_gate_verdict_matches_exact(self, alpha):
        plus = cjones._braiding_table(alpha, 1)
        true_minus = cjones._braiding_table(alpha, -1)
        for minus in (true_minus, *(tamper_minus(true_minus, how) for how in TAMPERS)):
            _, composed = compose_paths(cjones._expand_table(plus), cjones._expand_table(minus))
            identity = all({tgt: p for tgt, p in acc.items() if p} == {key: LaurentPoly.one("u")}
                           for key, acc in composed.items())
            try:
                cjones._check_inverse(plus, minus, alpha)
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
        cjones._gseries_entry_tables(cjones._operator_pair(alpha), 11, EVERY_ENTRY)
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
            # a path of the one-table chain is one charged diagonal entry: its
            # terms lie on the residue class of its lowest exponent mod step
            (table,) = chain
            assert step == 4
            for es in table.values():
                for entry in es:
                    terms = cjones._entry_poly(entry).terms
                    assert min(terms) - lo >= 0
                    assert all((x - min(terms)) % step == 0 for x in terms)
            assert all(m - lo >= 0 for _, m in expected.values())

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
        g_of_h = TruncSeries("h", cap, series_pow1p(Fraction(1, 4), cap)) - 1
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
                assert (cjones._majorant_series(cjones._Closure.of(word), alpha, 9, majorants,
                                                framing(alpha))
                        == brute_majorant(word, alpha, 9))

    @pytest.mark.parametrize("strands", range(1, 7))
    def test_start_weights_count_the_start_vectors(self, strands):
        for alpha in range(1, 8):
            for f in range(strands):
                closure = cjones._Closure.of(BraidWord(strands, ()), (0, f))
                assert (closure.start_weights(alpha)
                        == Counter(weight for _, weight in start_vectors(closure, alpha)))

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
            coeffs, got_majorants = cjones._gseries_entry_tables(operators, length, EVERY_ENTRY)
            assert set(coeffs) == set(map(cjones._coefficient_key, entries))
            assert (keyed_tables(operators, coeffs), got_majorants) == (tables, majorants)
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

    @pytest.mark.parametrize("sign", [1, -1])
    def test_tables_are_flip_symmetric(self, sign):
        # entry n of (N - j, N - i) is entry n of (i, j) with target (N - l, N - k),
        # the same w and sign, and the factors S(b, n) B(a, n) for S(a, n) B(b, n)
        for alpha in range(2, 26):
            N = alpha - 1
            table = cjones._braiding_table(alpha, sign)
            for (i, j), entries in table.items():
                mirrored = table[(N - j, N - i)]
                assert len(mirrored) == len(entries)
                for (k, l, w, s, b, sgn), other in zip(entries, mirrored):
                    assert other == (N - l, N - k, w, (b[0], s[1]), (s[0], b[1]), sgn)
                    if alpha <= 8:
                        assert (cjones._scaled_qbinom(*s) * cjones._qbinom(*b)
                                == cjones._scaled_qbinom(*other[3]) * cjones._qbinom(*other[4]))

    @pytest.mark.parametrize("alpha", [2, 5, 9])
    def test_mirrored_entries_share_one_coefficient(self, alpha):
        # one tuple per coefficient in the g-series tables, one int in the
        # ring for a read entry and its mirror, when the word reads both
        N = alpha - 1
        tables, _ = gseries_tables(alpha, 11)
        for sign in (1, -1):
            for (i, j), entries in tables[sign].items():
                for entry, other in zip(entries, tables[sign][(N - j, N - i)]):
                    assert other[2] is entry[2]
        for word in (FIG8, K6_1):
            closure = cjones._Closure.of(word)
            ring = cjones._PackedRing(closure, alpha, 11)
            read = read_entries(closure, alpha)
            for (sign, i, j, t) in read:
                c = ring.tables[sign][(i, j)][t][2]
                assert isinstance(c, int)
                if (sign, N - j, N - i, t) in read:
                    assert ring.tables[sign][(N - j, N - i)][t][2] is c


class TestOneSignTables:
    def test_ring_builds_only_its_word_signs(self):
        positive = BraidWord(2, (1, 1, 1))
        assert set(cjones._PackedRing(cjones._Closure.of(positive), 4, 9).tables) == {1}
        assert set(cjones._PackedRing(cjones._Closure.of(mirror(positive)), 4, 9).tables) == {-1}
        assert set(cjones._PackedRing(cjones._Closure.of(FIG8), 4, 9).tables) == {1, -1}

    @pytest.mark.parametrize("alpha", [2, 5, 9])
    def test_one_sign_is_that_sign_of_both(self, alpha):
        operators = cjones._operator_pair(alpha)
        coeffs, majorants = cjones._gseries_entry_tables(operators, 11, EVERY_ENTRY)
        tables = keyed_tables(operators, coeffs)
        for op in operators:
            sign = op.sign
            one_coeffs, one_majorants = cjones._gseries_entry_tables(operators, 11, {sign: None})
            assert ((keyed_tables(operators, one_coeffs, (sign,)), one_majorants)
                    == ({sign: tables[sign]}, {sign: majorants[sign]}))
            assert one_coeffs == {ck: coeffs[ck]
                                  for ck in map(cjones._coefficient_key, cjones._entries(op.table))}

    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_sign_word_converts_only_its_entries(self, sign, monkeypatch):
        # each distinct coefficient the word reads is unpacked once, and the
        # ring unpacks nothing else: for the positive trefoil, fewer than the
        # sign's table holds (its mirror's reads cover every coefficient)
        alpha, unpacked = 6, []
        closure = cjones._Closure.of(BraidWord(2, (sign,) * 3))
        table = cjones._braiding_table(alpha, sign)
        read = {cjones._coefficient_key(table[(i, j)][t])
                for (s, i, j, t) in read_entries(closure, alpha)}
        original = cjones._unpack
        monkeypatch.setattr(cjones, "_unpack",
                            lambda *args: unpacked.append(args) or original(*args))
        cjones._PackedRing(closure, alpha, 13)
        assert len(unpacked) == len(read)
        every = {cjones._coefficient_key(e) for e in cjones._entries(table)}
        assert read < every if sign > 0 else read == every

    def test_trefoil_widths_at_order_12(self):
        # the widths of both-sign tables: the width reads only the word's signs
        assert [cjones._PackedRing(cjones._Closure.of(TREFOIL), alpha, 25).bits
                for alpha in range(2, 14)] == [
            42, 69, 89, 106, 121, 134, 145, 154, 163, 171, 178, 185]

    def test_unknot_builds_no_table(self):
        closure = cjones._Closure.of(BraidWord(1, []))
        ring = cjones._PackedRing(closure, 4, 9)
        assert ring.tables == {}
        assert ring.unpack(cjones._state_sum(closure, 4, ring)) == [1] + [0] * 8


def mutated_minus(table, key, how, N):
    """The factored minus table with entry 1 of ``key`` mutated: its w raised by 4,
    its sign flipped, or its first factor index moved by one."""
    k, l, w, (a, n), b, sgn = table[key][1]
    entry = {"weight": (k, l, w + 4, (a, n), b, sgn),
             "sign": (k, l, w, (a, n), b, -sgn),
             "factor": (k, l, w, (a - 1 if a - 1 >= n else a + 1, n), b, sgn)}[how]
    return {**table, key: [table[key][0], entry, *table[key][2:]]}


MUTATIONS = ("weight", "sign", "factor")


class TestGateMutations:
    """One minus entry of a key i + j <= N or of its mirror, i + j > N, is
    mutated in the table built, or one entry of the color-free pair A, B.
    The premise catches the first kind at the key, the color-free chain the
    second; the per-color chain over every key rejects every mutated table
    too, so each one is a true fault of R^- R^+ = I."""

    @staticmethod
    def build(alpha, mutate, monkeypatch):
        original = cjones._braiding_table

        def mutated(a, sign):
            table = original(a, sign)
            return mutate(table) if sign < 0 else table

        monkeypatch.setattr(cjones, "_braiding_table", mutated)
        with pytest.raises(ConventionViolationError, match=f"alpha={alpha}[,:]") as caught:
            cjones._operator_pair(alpha)
        assert not per_color_chain_holds(mutated(alpha, 1), mutated(alpha, -1), alpha)
        return str(caught.value)

    @pytest.mark.parametrize("alpha", [8, 13])
    @pytest.mark.parametrize("how", MUTATIONS)
    def test_checked_key_fails_the_chain(self, alpha, how, monkeypatch):
        # a key i + j <= N: the closed-form premise names it
        N = alpha - 1
        message = self.build(alpha, lambda t: mutated_minus(t, (0, 1), how, N), monkeypatch)
        assert "not inverse" in message and "basis (0, 1)" in message

    @pytest.mark.parametrize("alpha", [8, 13])
    @pytest.mark.parametrize("how", MUTATIONS)
    def test_mirrored_mutation_fails_the_chain(self, alpha, how, monkeypatch):
        # the same mutation at the key and, flipped, at its mirror keeps the
        # tables flip-symmetric; the closed-form premise still names the key
        N = alpha - 1

        def both(table):
            table = mutated_minus(table, (0, 1), how, N)
            return {**table, (N - 1, N): [flip_entry(e, N) for e in table[(0, 1)]]}

        message = self.build(alpha, both, monkeypatch)
        assert "not inverse" in message and "basis (0, 1)" in message

    @pytest.mark.parametrize("alpha", [8, 13])
    @pytest.mark.parametrize("how", MUTATIONS)
    def test_unchecked_key_fails_the_flip_premise(self, alpha, how, monkeypatch):
        # a key i + j > N: the closed-form premise, which implies the flip
        # symmetry, names it
        N = alpha - 1
        message = self.build(alpha, lambda t: mutated_minus(t, (N - 1, N), how, N), monkeypatch)
        assert "not the closed form" in message and f"basis {(N - 1, N)}" in message

    @pytest.mark.parametrize("alpha", [8, 13])
    @pytest.mark.parametrize("how", MUTATIONS)
    @pytest.mark.parametrize("which", [0, 1])
    def test_color_free_table_fails_the_chain(self, alpha, how, which, monkeypatch):
        # entry 1 of the key (1, 2) in A (which = 0) or in B (which = 1); the
        # chain from (1, 2) is the first to reach it, and (1, 2) is the
        # basis (N - 2, 1) of the color asked for
        N = alpha - 1
        original = cjones._color_free_tables

        def mutated(n):
            tables = list(original(n))
            tables[which] = mutated_minus(tables[which], (1, 2), how, n)
            return tuple(tables)

        monkeypatch.setattr(cjones, "_color_free_tables", mutated)
        monkeypatch.setattr(cjones._COLOR_FREE, "N", -1)
        with pytest.raises(ConventionViolationError, match=f"alpha={alpha}[,:]") as caught:
            cjones._operator_pair(alpha)
        message = str(caught.value)
        assert "not inverse" in message and f"basis {(N - 2, 1)}" in message
        assert "color-free chain fails at key (1, 2)" in message
        assert cjones._COLOR_FREE.N == -1


class TestInverseGate:
    @pytest.mark.parametrize("alpha", range(2, 14))
    def test_per_color_chain_over_every_key_holds(self, alpha):
        # the oracle of the color-free reduction: the two-table chain at this
        # color, from every key
        plus, minus = cjones._operator_pair(alpha)
        assert per_color_chain_holds(plus.table, minus.table, alpha)

    def test_color_free_chain_runs_once_per_dtable(self, monkeypatch):
        # a D-table at N runs it once, for its top color; the colors up to
        # N + 1 run none after it, and none on their own pair; a higher
        # color runs it from the keys past N alone; the memo is N
        N = 6
        monkeypatch.setattr(cjones._COLOR_FREE, "N", -1)
        checked, chains = [], []
        original_tables, original_chain = cjones._color_free_tables, cjones._check_chain
        monkeypatch.setattr(cjones, "_color_free_tables",
                            lambda n: checked.append(n) or original_tables(n))
        monkeypatch.setattr(cjones, "_check_chain",
                            lambda chain, expected, *rest: chains.append((chain, expected))
                            or original_chain(chain, expected, *rest))
        build_dtable(TREFOIL, N)
        assert checked == [N]
        (two_table,) = [(chain, expected) for chain, expected in chains if len(chain) == 2]
        assert all(a <= b for table in two_table[0] for (a, b) in table)
        chains.clear()
        for alpha in range(1, N + 2):
            cjones._operator_pair(alpha)
        assert checked == [N] and chains == []
        cjones._operator_pair(N + 3)
        assert checked == [N, N + 2]
        ((chain, expected),) = chains
        assert set(expected) == {(a, b) for b in (N + 1, N + 2) for a in range(b + 1)}
        assert vars(cjones._COLOR_FREE) == {"N": N + 2}


class TestFactorMemos:
    @pytest.mark.parametrize("alpha", [2, 6, 11])
    def test_factor_pairs_read_the_memo_once_per_factor(self, alpha, monkeypatch):
        calls = []
        original = cjones._factor_bounds
        monkeypatch.setattr(cjones, "_factor_bounds",
                            lambda *args: calls.append(args) or original(*args))
        plus, minus = (cjones._braiding_table(alpha, sign) for sign in (1, -1))
        pairs = factor_pairs(plus, minus)
        assert len(calls) == len(pairs.s) + len(pairs.b) < len(cjones._entries(plus, minus))
        for factors, build in ((pairs.s, cjones._scaled_qbinom), (pairs.b, cjones._qbinom)):
            for (m, n), bounds in factors.items():
                terms = build(m, n).terms
                low = min(terms)
                assert bounds == (sum(map(abs, terms.values())), low, max(terms),
                                  gcd(*(x - low for x in terms)))


class ReadCoefficient(int):
    """A table coefficient that records where it was read when multiplied."""

    read = set()

    def __new__(cls, value, where):
        obj = int.__new__(cls, value)
        obj.where = where
        return obj

    def __mul__(self, other):
        ReadCoefficient.read.add(self.where)
        return int(self) * int(other)

    __rmul__ = __mul__


# 2- to 4-strand words of at most 6 letters whose closure is a knot
SMALL_KNOT_WORDS = st.integers(2, 4).flatmap(
    lambda n: st.lists(st.sampled_from([k for i in range(1, n) for k in (i, -i)]), max_size=6)
    .map(lambda letters: BraidWord(n, letters))).filter(lambda b: b.is_knot())


class TestReadEntries:
    @given(b=SMALL_KNOT_WORDS)
    @settings(max_examples=15, deadline=None)
    def test_packed_ring_reads_only_what_it_built(self, b):
        # at every cut: the kernel multiplies exactly the entries the walk
        # reads (or some of them, when a sign's reads saturate), the packed
        # result is the exact ring's g-series, and the width is at most the
        # full-table width
        for alpha in range(2, 6):
            exact = exact_gseries(b, alpha, 7)
            operators = cjones._operator_pair(alpha)
            _, majorants = gseries_tables(alpha, 7)
            for cut in every_cut(b):
                closure = cjones._Closure.of(b, cut)
                reads = cjones._read_entries(closure, alpha, {op.sign: op.table for op in operators})
                walked = read_entries(closure, alpha)
                ring = cjones._PackedRing(closure, alpha, 7)
                ring.tables = {sign: {(i, j): tuple((k, l, c if c is None else
                                                     ReadCoefficient(c, (sign, i, j, t)))
                                                    for t, (k, l, c) in enumerate(entries))
                                      for (i, j), entries in table.items()}
                               for sign, table in ring.tables.items()}
                ReadCoefficient.read = set()
                assert ring.unpack(cjones._state_sum(closure, alpha, ring)) == exact
                assert ReadCoefficient.read <= walked
                assert ({r for r in ReadCoefficient.read if reads[r[0]] is not None}
                        == {r for r in walked if reads[r[0]] is not None})
                assert ring.bits <= full_table_bits(closure, alpha, 7, majorants)

    def test_walk_stops_when_every_entry_is_read(self):
        # the first letter of 6_1's chosen cut opens both its slots, so its
        # sign is read whole at once; a trefoil reads a few keys of one sign
        b = catalog_words()["6_1"]
        closure = cjones._Closure.of(b, cjones._closure_cut(b))
        operators = cjones._operator_pair(6)
        tables = {op.sign: op.table for op in operators}
        assert cjones._read_entries(closure, 6, tables) == {1: None, -1: None}
        pairs, singles = cjones._read_entries(cjones._Closure.of(TREFOIL), 6, tables)[1]
        assert pairs == {(0, j) for j in range(6)} | {(i, 0) for i in range(6)}
        assert singles == set()

    @pytest.mark.parametrize("name", ["3_1", "4_1"])
    def test_narrow_knots_convert_a_fraction_of_the_coefficients(self, name, monkeypatch):
        b = catalog_words()[name]
        alpha = 13 if name == "3_1" else 11
        closure = cjones._Closure.of(b, cjones._closure_cut(b))
        operators = cjones._operator_pair(alpha)
        reads = cjones._read_entries(closure, alpha, {op.sign: op.table for op in operators})
        coeffs, _ = cjones._gseries_entry_tables(operators, 2 * alpha - 1, reads)
        every, _ = cjones._gseries_entry_tables(operators, 2 * alpha - 1, dict.fromkeys(reads))
        assert 4 * len(coeffs) < len(every)

    def test_ring_keeps_only_its_tables(self, monkeypatch):
        # no operator pair, factored table or digit tuple outlives the set-up
        built = []
        original = cjones._operator_pair
        monkeypatch.setattr(cjones, "_operator_pair", lambda a: built.append(original(a)) or built[-1])
        for word in (TREFOIL, FIG8, K6_1):
            ring = cjones._PackedRing(cjones._Closure.of(word), 5, 9)
            assert set(vars(ring)) == {"framing", "length", "bits", "mask", "tables", "_monomials"}
            for table in ring.tables.values():
                for entries in table.values():
                    assert all(len(e) == 3 and type(e[2]) in (int, type(None)) for e in entries)
            gc.collect()
            for op in built.pop():
                assert not any(r is ring.tables or r is vars(ring)
                               for r in gc.get_referrers(op.table))


class TestClosingIndex:
    @pytest.mark.parametrize("alpha", range(2, 9))
    def test_entry_t_targets_j_plus_sign_t(self, alpha):
        # a closing letter picks entry t of (i, j) by this rule alone, so every
        # ring's table lists t = 0, 1, ... in order and no t is missing
        N = alpha - 1
        rings = (cjones._ExactRing(alpha), cjones._PackedRing(cjones._Closure.of(FIG8), alpha, 5),
                 cjones._CountingRing(alpha))
        for ring in rings:
            for sign in (1, -1):
                for (i, j), entries in ring.tables[sign].items():
                    count = 1 + (min(i, N - j) if sign > 0 else min(j, N - i))
                    assert ([(k, l) for (k, l, _) in entries]
                            == [(j + sign * t, i - sign * t) for t in range(count)])


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


def words_on(strands):
    letters = [k for i in range(1, strands) for k in (i, -i)]
    return st.lists(st.sampled_from(letters), max_size=6) if letters else st.just([])


# words of 1 to 5 strands, both signs, knots or not
ANY_WORDS = st.integers(1, 5).flatmap(lambda n: words_on(n).map(lambda ls: BraidWord(n, ls)))


def every_cut(b):
    return [(r, f) for r in range(max(1, len(b.letters))) for f in range(b.strands)]


def cut_word(b, cut):
    """A cut by what it does: (pinned slot, rotated word)."""
    r, f = cut
    return f, b.letters[r:] + b.letters[:r]


class CountedCoefficient(int):
    """A table coefficient that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        CountedCoefficient.products += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def packed_products(b, alpha, cut):
    """The letter products ``amp * c`` the packed state sum runs at ``cut``, counted
    by the table coefficients themselves."""
    closure = cjones._Closure.of(b, cut)
    ring = cjones._PackedRing(closure, alpha, 5)
    ring.tables = {sign: {key: tuple((k, l, c if c is None else CountedCoefficient(c))
                                     for k, l, c in entries)
                          for key, entries in table.items()}
                   for sign, table in ring.tables.items()}
    CountedCoefficient.products = 0
    cjones._state_sum(closure, alpha, ring)
    return CountedCoefficient.products


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
            framed = cjones._state_sum(cjones._Closure.of(b), alpha, ring)
            exact = cjones._laurent_to_gseries(framed, 7, {})
            for cut in every_cut(b):
                closure = cjones._Closure.of(b, cut)
                framed = cjones._state_sum(closure, alpha, ring)
                assert framed.compress_exponents(4, "q") == invariant
                packed = cjones._PackedRing(closure, alpha, 7)
                assert packed.unpack(cjones._state_sum(closure, alpha, packed)) == exact

    @given(b=ANY_WORDS)
    @settings(max_examples=15, deadline=None)
    def test_merged_kernel_matches_the_start_vectors(self, b):
        # one merged state per color gives the per-start sum at every cut,
        # exactly at alpha <= 4 and as packed g-series at alpha <= 5
        for alpha in (2, 3, 4, 5):
            exact = cjones._ExactRing(alpha) if alpha <= 4 else None
            for cut in every_cut(b):
                closure = cjones._Closure.of(b, cut)
                if exact is not None:
                    assert (cjones._state_sum(closure, alpha, exact)
                            == state_sum_by_starts(closure, alpha, exact))
                packed = cjones._PackedRing(closure, alpha, 7)
                assert (packed.unpack(cjones._state_sum(closure, alpha, packed))
                        == packed.unpack(state_sum_by_starts(closure, alpha, packed)))

    def test_wrong_left_charge_fails_the_gate(self, monkeypatch):
        def mu_everywhere(b, cut=(0, 0)):
            # a slot left of the pinned one closes with mu, not mu^-1
            def side(s):
                return None if s is None else abs(s)

            closure = original(b, cut)
            return closure._replace(steps=tuple((pos, sign, opens, side(k), side(l))
                                                for pos, sign, opens, k, l in closure.steps))

        # each of these words moves its pinned slot off slot 0
        original = cjones._Closure.of
        monkeypatch.setattr(cjones._Closure, "of", mu_everywhere)
        for b in (K5_2, catalog_words()["6_1"], K8_3):
            with pytest.raises(ConventionViolationError, match="alpha=2"):
                cjones._closure_cut(b)

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_counting_ring_counts_packed_products(self, alpha):
        for b in (K5_2, K6_1):
            ring = cjones._CountingRing(alpha)
            for cut in every_cut(b):
                closure = cjones._Closure.of(b, cut)
                assert ring.count(closure) == packed_products(b, alpha, cut)

    def test_count_stops_past_its_budget(self):
        ring = cjones._CountingRing(3)
        closure = cjones._Closure.of(K6_1)
        full = ring.count(closure)
        assert ring.count(closure, full) == full
        assert ring.count(closure, full - 1) == float("inf")

    @pytest.mark.parametrize("name", ["3_1", "4_1", "5_2", "6_1", "8_3"])
    def test_catalog_cuts(self, name):
        b = catalog_words()[name]
        cut = cjones._closure_cut(b)
        chosen = cut_word(b, cut)
        closed = cjones._Closure.of
        count = {alpha: cjones._CountingRing(alpha).count for alpha in (5, golden.TABLE_BUDGET.get(name, 12) + 1)}
        for r in range(len(b.letters)):
            rotated = BraidWord(b.strands, b.letters[r:] + b.letters[:r])
            rotated_cut = cjones._closure_cut(rotated)
            assert cut_word(rotated, rotated_cut) == chosen
            assert count[5](closed(rotated, rotated_cut)) <= count[5](closed(rotated, (0, 0)))
        for alpha, counted in count.items():
            assert counted(closed(b, cut)) <= counted(closed(b, (0, 0)))

    def test_golden_top_color_counts(self):
        words = catalog_words()
        for name, alpha, most in (("5_2", 10, 1230), ("6_1", 10, 5905), ("8_3", 9, 9750)):
            b = words[name]
            closure = cjones._Closure.of(b, cjones._closure_cut(b))
            assert cjones._CountingRing(alpha).count(closure) <= most

    @pytest.mark.parametrize("name", ["3_1", "4_1", "5_2", "6_1", "8_3"])
    def test_width_is_the_same_for_every_cut(self, name):
        # The full-table width is the same at every cut: the letter product
        # commutes, and the charges of every pinned slot have one distribution
        # (N - 2s and its negative are both charges).  A cut reads its own
        # entries, so its width may be less, never more, and still holds
        # every coefficient of the invariant.
        b = catalog_words()[name]
        for alpha in (2, 3, 5):
            charges = sorted(c for _, c in start_vectors(cjones._Closure.of(b), alpha))
            exact = exact_gseries(b, alpha, 9)
            _, majorants = gseries_tables(alpha, 9)
            full = full_table_bits(cjones._Closure.of(b), alpha, 9, majorants)
            for cut in every_cut(b):
                closure = cjones._Closure.of(b, cut)
                assert sorted(c for _, c in start_vectors(closure, alpha)) == charges
                assert full_table_bits(closure, alpha, 9, majorants) == full
                ring = cjones._PackedRing(closure, alpha, 9)
                assert ring.bits <= full
                assert ring.bits >= max(abs(c) for c in exact).bit_length() + 1

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

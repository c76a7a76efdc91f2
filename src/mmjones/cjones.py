"""Exact colored Jones polynomial of a braid closure.

The invariant is evaluated through the braiding operator of the
alpha-dimensional irreducible representation of the rank-one quantum group.
All arithmetic is done in a root variable u with q-hat = u**4 (q-hat is the
Jones variable), so that every half- and quarter-integer power arising in
operator entries and framing corrections is an honest Laurent monomial.

The ribbon/mirror convention is not transcribed on faith; it is pinned by
runtime gates: the sign-flipped operator is verified to be the exact inverse
at construction, the Markov partial trace is verified to be a monomial
multiple of the identity (which fixes the charge weights), and the torus
cross-path suite in the tests fixes the global mirror.

The operator entries come from the q-binomial closed form
u^w (q - 1/q)^n [n]! [i choose n] [N-j choose n] of the R-matrix and are
kept factored, as sgn u^w S B with S = prod_{k=1..n} (q^k - q^-k)
[i choose n] and B = [N-j choose n], symmetric q-binomials from Pascal's
rule: no polynomial is divided, and the factors, which do not depend on the
color, number only O(alpha^2).  Both table consumers on the h-series path
multiply Kronecker-packed factors instead of Laurent polynomials, one
big-integer product per factor pair and per entry:

* The inverse gate packs u -> 2^width and checks plus after minus against
  the identity with one big-integer product per path.  Its width is a sign
  bit over the largest path sum of |S|_1 |B|_1 |S'|_1 |B'|_1, which bounds
  every coefficient of the composition since the 1-norm is
  submultiplicative, so equal packed integers mean equal polynomials (see
  :func:`_gate_packing`).
* The g-series tables compute each entry as row(w) gS gB mod g**length,
  (1+g)**w times the factor g-series, packed g -> 2**W mod 2**(W length).
  W is a sign bit over max |S|_1 |B|_1 times the largest coefficient of
  (1+g)**lo and (1+g)**hi, lo and hi the extreme exponents: the g**k
  coefficient of sum_e c_e u^e is at most |c|_1 max_e |binom(e, k)|, and
  |binom(e, k)| grows with |e| on each side of 0 (see
  :func:`_gseries_entry_tables`).

The Markov data packs its diagonal rows the same way (see
:func:`_markov_data`); only the exact ring expands entries, whole tables,
for the test oracle.

One state-sum kernel, :func:`_state_sum`, evaluates the invariant over
either of two coefficient rings; only the table coefficients, the weight
monomials and the reduction after each letter depend on the ring:

* the exact ring of integer Laurent polynomials in u, which returns the
  invariant itself (:func:`colored_jones`, the reference the tests check
  against);
* the ring of integer series in g = u - 1 truncated at a fixed order and
  packed into single big integers (Kronecker substitution), which gives
  h-expansions (h = q-hat - 1) at large colors (:func:`jones_h_series`).

The kernel cuts the closure open at a cut (r, f): the word rotated by r,
slot f pinned, charge mu on the slots right of f and mu^-1 on those left
of it.  Every cut gives the invariant (the proof is in :func:`_state_sum`)
but the products it runs depend on the cut: from 4,416 to 47,545 over the
cuts of 6_1 at alpha = 6.  From alpha = 4 on, :func:`jones_h_series` uses
the cut that :func:`_closure_cut` picks once per word by running the
kernel's per-start loop over a third, key-only ring that counts products
(:class:`_CountingRing`), with a runtime gate at alpha = 2.

Packing g -> 2**bits modulo 2**(bits * length) is a ring homomorphism, so
the packed state sum is the image of the exact truncated g-series however
much wraps around in between; only the final coefficients must fit.  Their
width comes from a truncated majorant series: the product over the letters
of each table's row majorant, times the charge and framing monomials in
absolute value (see :class:`_PackedRing`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, inf, lcm
from operator import itemgetter, mul
from typing import Dict, Iterable, List, Tuple

from .exactalg import GateError, LaurentPoly, TruncSeries, series_pow1p
from .knots import BraidWord, NotAKnotError


class ConventionViolationError(GateError):
    """An operator gate failed or normalization left fractional powers."""


# Positive braid letters act by the braiding operator with this sign; the
# choice makes the positive trefoil braid match the torus-knot line
# generator (see the cross-path tests).
POSITIVE_CROSSING_SIGN = 1


@lru_cache(maxsize=None)
def _qbinom(m: int, k: int) -> LaurentPoly:
    """Symmetric q-binomial [m choose k] with q = u**2, 0 <= k <= m.

    Pascal's rule [m, k] = q^-k [m-1, k] + q^(m-k) [m-1, k-1] builds it from
    shifts and sums alone.
    """
    if k == 0 or k == m:
        return LaurentPoly.one("u")
    return _qbinom(m - 1, k).shift(-2 * k) + _qbinom(m - 1, k - 1).shift(2 * (m - k))


@lru_cache(maxsize=None)
def _scaled_qbinom(m: int, n: int) -> LaurentPoly:
    """(q - 1/q)^n [n]! [m choose n] = prod_{k=1..n} (q^k - q^-k) * [m choose n]."""
    out = _qbinom(m, n)
    for k in range(1, n + 1):
        out = out * LaurentPoly("u", {2 * k: 1, -2 * k: -1})
    return out


def _braiding_shape(alpha: int, sign: int) -> Dict[Tuple[int, int], List[Tuple[int, int, int]]]:
    """Which basis pairs the braiding operator (sign=+1) or its inverse connects.

    Maps (i, j) to its terms (k, l, n): term n sends (i, j) to
    (k, l) = (j + n, i - n) for sign=+1, n <= min(i, N - j), and to
    (j - n, i + n) for sign=-1, n <= min(j, N - i); N = alpha - 1.
    """
    N = alpha - 1
    if sign > 0:
        return {(i, j): [(j + n, i - n, n) for n in range(min(i, N - j) + 1)]
                for i in range(alpha) for j in range(alpha)}
    return {(i, j): [(j - n, i + n, n) for n in range(min(j, N - i) + 1)]
            for i in range(alpha) for j in range(alpha)}


def _braiding_table(alpha: int, sign: int) -> Dict[Tuple[int, int], List[tuple]]:
    """Factored entries of the braiding operator (sign=+1) or its inverse (sign=-1).

    Basis vectors are indexed 0..alpha-1 with weights N-2i, N = alpha-1.
    Output maps (i, j) -> list of entries (k, l, w, s, b, sgn), one per term
    of :func:`_braiding_shape`: the entry sends (i, j) to (k, l) with
    coefficient sgn u^w S(s) B(b) in Z[u, u^-1],
    where S(m, n) = prod_{k=1..n} (q^k - q^-k) [m choose n] and
    B(m, n) = [m choose n] (:func:`_scaled_qbinom`, :func:`_qbinom`).  This
    is the q-binomial closed form u^w (q - 1/q)^n [n]! [i choose n]
    [N-j choose n] of the R-matrix: s = (i, n), b = (N-j, n), sgn = 1, and
    for sign=-1 s = (j, n), b = (N-i, n), sgn = (-1)^n.  No polynomial is
    divided, and none is multiplied until a consumer expands an entry
    (:func:`_entry_poly`); the packed consumers multiply packed factors.
    """
    N = alpha - 1
    if sign > 0:
        return {(i, j): [(k, l, n * (n - 1) + (N - 2 * l) * (N - 2 * k), (i, n), (N - j, n), 1)
                         for (k, l, n) in terms]
                for (i, j), terms in _braiding_shape(alpha, 1).items()}
    return {(i, j): [(k, l, -(n * (n - 1)) - (N - 2 * i) * (N - 2 * j), (j, n), (N - i, n),
                      -1 if n % 2 else 1)
                     for (k, l, n) in terms]
            for (i, j), terms in _braiding_shape(alpha, -1).items()}


def _entry_poly(entry: tuple) -> LaurentPoly:
    """The coefficient sgn u^w S(s) B(b) of a factored entry, expanded."""
    _, _, w, s, b, sgn = entry
    return (_scaled_qbinom(*s) * _qbinom(*b)).shift(w) * sgn


def _expand_table(table: dict) -> dict:
    """A factored table with every coefficient expanded: (i, j) -> [(k, l, c)]."""
    return {key: [(e[0], e[1], _entry_poly(e)) for e in entries]
            for key, entries in table.items()}


def _entries(*tables: dict) -> List[tuple]:
    """Every entry of the tables, in one list."""
    return [e for table in tables for entries in table.values() for e in entries]


def _factor_polys(entries: List[tuple]) -> Tuple[Dict[tuple, LaurentPoly], ...]:
    """The distinct factors of factored entries: ({s: S(s)}, {b: B(b)})."""
    return ({e[3]: _scaled_qbinom(*e[3]) for e in entries},
            {e[4]: _qbinom(*e[4]) for e in entries})


def _norm1(p: LaurentPoly) -> int:
    """|p|_1, the sum of the absolute coefficients."""
    return sum(map(abs, p.terms.values()))


def _gate_packing(plus: dict, minus: dict) -> Tuple[int, int, int]:
    """Kronecker layout (width, step, lo) of the inverse gate.

    An entry c = sum c_e u^e of either table is packed as the integer
    sum c_e 2^(width * (e - lo) / step), where lo is the lowest exponent of
    both tables or 0 if that is lower, and step divides every offset e - lo
    and 2 lo.  Packing is a ring map, so the packed product of two entries
    is the packed exact product at offset 2 lo, where the identity packs to
    2^(width * -2 lo / step).  A factored entry sgn u^w S B has lowest
    exponent w + lo(S) + lo(B) (the lowest terms of a product multiply), so
    it packs as sgn pack(S) pack(B) shifted by w + lo(S) + lo(B) - lo, with
    each factor packed from its own lowest exponent: one big-integer product
    per factor pair, and step divides the offsets of each piece.

    Width: a coefficient of the exact composition at a source key is a sum,
    over the paths through an intermediate key, of products c c' of a minus
    and a plus entry, so its absolute value is at most
    sum_paths |c|_1 |c'|_1 (|.|_1 the sum of absolute coefficients).  The
    1-norm is submultiplicative, so |c|_1 <= |S|_1 |B|_1 for c = +-u^w S B.
    Let M be the largest over source keys of
    sum_paths |S|_1 |B|_1 |S'|_1 |B'|_1, which bounds every coefficient of
    the composition.  With width = bits(M) + 1 (a sign bit on top of M), a
    coefficient of the composition minus the identity is at most
    M + 1 <= 2^(width-1) < 2^width in absolute value.  Such a difference
    vector packs to zero only if every coefficient is zero (the lowest
    nonzero one would have to be a multiple of 2^width), so within the
    bound equal packed integers mean equal polynomials.
    """
    entries = _entries(plus, minus)
    factors = _factor_polys(entries)
    s_norm, b_norm = ({key: _norm1(p) for key, p in polys.items()} for polys in factors)
    s_low, b_low = ({key: min(p.terms) for key, p in polys.items()} for polys in factors)

    def norm(e: tuple) -> int:
        return s_norm[e[3]] * b_norm[e[4]]

    row = {key: sum(map(norm, es)) for key, es in plus.items()}
    bound = max(sum(norm(e) * row[e[:2]] for e in es) for es in minus.values())
    lows = [e[2] + s_low[e[3]] + b_low[e[4]] for e in entries]
    lo = min(0, *lows)
    spans = [x - min(p.terms) for polys in factors for p in polys.values() for x in p.terms]
    return bound.bit_length() + 1, gcd(2 * lo, *(x - lo for x in lows), *spans) or 1, lo


def _pack_factor(p: LaurentPoly, width: int, step: int = 1) -> Tuple[int, int]:
    """p packed u^step -> 2^width from its lowest exponent, and that exponent.

    That is (u^-low p)(2^(width/step)) for exponents low + step k, a ring
    map on such polynomials.
    """
    low = min(p.terms)
    return sum(c << (width * ((e - low) // step)) for e, c in p.terms.items()), low


def _check_inverse(plus: dict, minus: dict, alpha: int) -> None:
    """Raise unless plus after minus is the identity, one big-int product per path.

    Entries are packed from their packed factors, one product per factor
    pair; no Laurent polynomial is multiplied.  See :func:`_gate_packing`
    for the layout and for why comparing packed integers is exact.
    """
    width, step, lo = _gate_packing(plus, minus)
    packed_s, packed_b = ({key: _pack_factor(p, width, step) for key, p in polys.items()}
                          for polys in _factor_polys(_entries(plus, minus)))
    pairs: Dict[Tuple[tuple, tuple], Tuple[int, int]] = {}

    def pack(table: dict) -> dict:
        out = {}
        for key, entries in table.items():
            row = []
            for (k, l, w, s, b, sgn) in entries:
                pair = pairs.get((s, b))
                if pair is None:
                    (xs, ls), (xb, lb) = packed_s[s], packed_b[b]
                    pair = pairs[(s, b)] = (xs * xb, ls + lb)
                row.append((k, l, (sgn * pair[0]) << (width * ((w + pair[1] - lo) // step))))
            out[key] = row
        return out

    packed_plus = pack(plus)
    one = 1 << (width * (-2 * lo // step))
    for key, entries in pack(minus).items():
        acc: Dict[Tuple[int, int], int] = {}
        for (k, l, x) in entries:
            for (k2, l2, y) in packed_plus[(k, l)]:
                acc[(k2, l2)] = acc.get((k2, l2), 0) + x * y
        if {tgt: v for tgt, v in acc.items() if v} != {key: one}:
            raise ConventionViolationError(
                f"crossing operators are not inverse at alpha={alpha}, basis {key}"
            )


@dataclass(frozen=True)
class CrossingOperator:
    """Braiding operator on two adjacent tensor slots, entries factored exactly.

    ``table`` maps (i, j) to the entries (k, l, w, s, b, sgn) of
    :func:`_braiding_table`.
    """

    alpha: int
    sign: int
    table: dict


@lru_cache(maxsize=1)
def _operator_pair(alpha: int) -> Tuple[CrossingOperator, CrossingOperator]:
    """Both braiding operators, verified to be exact mutual inverses.

    Only the color in flight is kept: colors run one after another, and each
    is built once (its tables, both signs and :func:`_markov_data` all read
    the one entry).
    """
    plus = _braiding_table(alpha, 1)
    minus = _braiding_table(alpha, -1)
    _check_inverse(plus, minus, alpha)
    return (
        CrossingOperator(alpha, 1, plus),
        CrossingOperator(alpha, -1, minus),
    )


def crossing_operator(alpha: int, sign: int) -> CrossingOperator:
    """The braiding operator for the alpha-dimensional coloring.

    ``sign=+1`` gives the operator used for positive braid letters under the
    package convention; ``sign=-1`` its exact inverse (verified on basis
    vectors at construction).
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    plus, minus = _operator_pair(alpha)
    if sign * POSITIVE_CROSSING_SIGN > 0:
        return plus
    return minus


def _diagonals(operators) -> List[List[tuple]]:
    """Per operator, its diagonal entries (i, j, entry): those sending (i, j) to itself."""
    return [[(i, j, e) for (i, j), entries in op.table.items() for e in entries if e[:2] == (i, j)]
            for op in operators]


def _diagonal_width(diagonals: List[List[tuple]]) -> int:
    """One sign bit over the largest row sum of |S|_1 |B|_1 (see :func:`_markov_data`)."""
    s_norm, b_norm = ({key: _norm1(p) for key, p in polys.items()} for polys in
                      _factor_polys([e for diagonal in diagonals for (_, _, e) in diagonal]))
    row_norms: Dict[Tuple[int, int], int] = {}
    for side, diagonal in enumerate(diagonals):
        for (i, _, e) in diagonal:
            row_norms[(side, i)] = row_norms.get((side, i), 0) + s_norm[e[3]] * b_norm[e[4]]
    return max(row_norms.values()).bit_length() + 1


@lru_cache(maxsize=None)
def _markov_data(alpha: int) -> Tuple[int, int, int]:
    """Charge-weight sign and the stabilization monomial.

    Returns (a, f_sign, f_exp) such that with mu_j = u^(2a(N-2j)) the
    partial trace over the second slot of (1 x mu) Rhat equals
    f_sign * u^f_exp times the identity, and the sign-flipped operator
    gives the inverse monomial.

    Row i of the partial trace is sum_j c_ij u^(2a(N-2j)) over the diagonal
    entries c_ij = sgn u^w S B, those that send (i, j) to itself
    (n = i - j for the plus table, j - i for the minus table).  Each row is
    packed, without expanding an entry, as its value at u = 2^width times
    2^(-width lo) (lo the lowest exponent of every row of both tables and
    both signs a): a sum of one product pack(S) pack(B) per entry, each
    factor packed from its own lowest exponent (:func:`_pack_factor`) and
    the product shifted to its entry's lowest exponent.  Evaluation at
    2^width is a ring map, so this is the packed row.

    Width (:func:`_diagonal_width`): a coefficient of row i is at most
    M_i = sum_j |S_ij|_1 |B_ij|_1 in absolute value (|.|_1, the sum of
    absolute coefficients, is submultiplicative).  With M the largest M_i
    and width = bits(M) + 1, a coefficient of the difference of two rows is
    at most 2M < 2^width, so two packed rows are equal only if the rows are
    (the lowest nonzero coefficient of the difference would have to be a
    multiple of 2^width); and every coefficient of a row is below
    2^(width - 1), so the signed width-bit digits of a packed row are its
    coefficients, and a row is a monomial c u^e exactly when one digit, c,
    is nonzero.
    """
    N = alpha - 1
    diagonals = _diagonals(_operator_pair(alpha))
    width = _diagonal_width(diagonals)
    entries = [e for diagonal in diagonals for (_, _, e) in diagonal]
    factors = _factor_polys(entries)
    s_span, b_span = ({key: (min(p.terms), max(p.terms)) for key, p in polys.items()}
                      for polys in factors)
    reach = 2 * N  # |2a(N - 2j)| <= 2N
    lo = min(e[2] + s_span[e[3]][0] + b_span[e[4]][0] for e in entries) - reach
    hi = max(e[2] + s_span[e[3]][1] + b_span[e[4]][1] for e in entries) + reach
    packed_s, packed_b = ({key: _pack_factor(p, width) for key, p in polys.items()}
                          for polys in factors)
    pairs = {}
    for (_, _, _, s, b, _) in entries:
        if (s, b) not in pairs:
            (xs, ls), (xb, lb) = packed_s[s], packed_b[b]
            pairs[(s, b)] = (xs * xb, ls + lb)
    for a in (1, -1):
        scalars = []
        for diagonal in diagonals:
            rows = [0] * alpha
            for (i, j, (_, _, w, s, b, sgn)) in diagonal:
                x, low = pairs[(s, b)]
                rows[i] += (sgn * x) << (width * (w + low + 2 * a * (N - 2 * j) - lo))
            if any(row != rows[0] for row in rows):
                break
            nonzero = [(t, d) for t, d in enumerate(_unpack(rows[0], width, hi - lo + 1)) if d]
            if len(nonzero) != 1:
                break
            ((t, c),) = nonzero
            scalars.append((c, lo + t))
        else:
            (cp, ep), (cm, em) = scalars
            if cp * cm == 1 and ep + em == 0:
                return (a, cp, ep)
    raise ConventionViolationError(
        f"no charge weight makes the partial trace scalar at alpha={alpha}"
    )


# ---------------------------------------------------------------------------
# The state sum and its two coefficient rings
# ---------------------------------------------------------------------------


def _apply_letter(state: dict, table: dict, pos: int, reduce) -> dict:
    """One braid letter on tensor slots (pos, pos+1), 0-based, of a sparse state.

    ``table`` maps a slot pair (i, j) to its (k, l, coefficient) entries;
    ``reduce`` normalizes the accumulated amplitudes once per letter.
    """
    new: dict = {}
    get = new.get
    end = pos + 2
    for key, amp in state.items():
        pre = key[:pos]
        post = key[end:]
        for (k, l, c) in table[key[pos:end]]:
            nk = pre + (k, l) + post
            prev = get(nk)
            new[nk] = amp * c if prev is None else prev + amp * c
    return reduce(new)


def _drop_zeros(state: dict) -> dict:
    return {key: amp for key, amp in state.items() if amp}


def _pinned(table: dict, want_k, want_l) -> dict:
    """The entries of ``table`` whose output slots take the wanted values."""
    return {
        key: tuple(
            e for e in entries
            if (want_k is None or e[0] == want_k) and (want_l is None or e[1] == want_l)
        )
        for key, entries in table.items()
    }


def _closure_steps(letters: tuple) -> List[Tuple[int, int, bool, bool]]:
    """(pos, sign, pin_k, pin_l) per letter: its slots, its sign, and whether
    it is the last letter to touch slot pos (pin_k) or pos + 1 (pin_l)."""
    steps = []
    touched: set = set()
    for k in reversed(letters):
        pos = abs(k) - 1
        steps.append((pos, 1 if k > 0 else -1, pos not in touched, pos + 1 not in touched))
        touched.update((pos, pos + 1))
    steps.reverse()
    return steps


def _start_vectors(alpha: int, strands: int, f: int):
    """Each start vector with slot f at index 0, and its charge
    sum_(i>f) (N - 2s_i) - sum_(i<f) (N - 2s_i), s_i the index of slot i."""
    N = alpha - 1
    for rest in product(range(alpha), repeat=strands - 1):
        charge = sum(N - 2 * i for i in rest[f:]) - sum(N - 2 * i for i in rest[:f])
        yield rest[:f] + (0,) + rest[f:], charge


def _diagonal_amplitude(steps: list, start: tuple, ring):
    """The amplitude of ``start`` after the letters act on it, or None.

    Only the diagonal amplitude counts, so the last letter to touch a slot
    keeps only the entries that put the slot back at its start index;
    states that cannot contribute are never built.
    """
    pinned, reduce = ring.pinned, ring.reduce
    state = {start: ring.one}
    for pos, sign, pin_k, pin_l in steps:
        key = (sign, start[pos] if pin_k else None, start[pos + 1] if pin_l else None)
        table = pinned.get(key)
        if table is None:
            table = pinned[key] = _pinned(ring.tables[sign], key[1], key[2])
        state = _apply_letter(state, table, pos, reduce)
    return state.get(start)


def _state_sum(b: BraidWord, alpha: int, ring, cut: Tuple[int, int] = (0, 0)):
    """Framed Markov trace of the braiding operators of ``b``, in ``ring``.

    ``cut`` = (r, f) says where the closure is cut open: the letters are
    rotated by r (``b.letters[r:] + b.letters[:r]``) and slot f is pinned.
    The closure is the sum, over start vectors with slot f fixed to index 0,
    of each start vector's diagonal amplitude (:func:`_diagonal_amplitude`)
    times its charge weight u^(2a charge), where charge is
    sum_(i>f) (N - 2s_i) - sum_(i<f) (N - 2s_i) over the indices s_i of the
    other slots (:func:`_start_vectors`); the framing monomial and, for an
    odd word, the stabilization sign then remove the writhe dependence.

    Every cut gives the same value.  A rotation is a conjugation, and the
    trace is cyclic.  For the slot: mu = u^(2a(N - 2s)) on index s is the
    charge of :func:`_markov_data`, the pivotal weight that makes the right
    partial trace of the crossing a scalar.  Closing a slot to the right
    of slot f is that right quantum trace (weight mu), and closing a slot to
    its left is the left quantum trace (weight mu^-1).  Closing every slot
    but f leaves the partial quantum trace of the braid operator, an
    operator on the open copy of V_alpha.  The braid operator commutes with
    the quantum-group action and both quantum traces keep that property, so
    by Schur's lemma on the irreducible V_alpha the operator is a scalar,
    read off at index 0.  It is the invariant of the (1,1)-tangle left by
    opening the closure at slot f, and a knot cut open anywhere gives one
    (1,1)-tangle up to isotopy.  With mu on the left slots as well, the
    value changes (the tests and the gate of :func:`_closure_cut` check
    this).

    ``ring`` supplies ``zero``, ``one``, ``tables`` (braid sign -> operator
    table with ring coefficients), ``monomial(exp)`` for u**exp,
    ``reduce(state)``, applied after each letter, and ``pinned``, a dict
    that keeps the tables filtered for finished slots across the sums the
    ring runs.
    """
    a, f_sign, f_exp = _markov_data(alpha)
    r, f = cut
    steps = _closure_steps(b.letters[r:] + b.letters[:r])
    total = ring.zero
    for start, charge in _start_vectors(alpha, b.strands, f):
        amp = _diagonal_amplitude(steps, start, ring)
        if amp is not None:
            total = total + amp * ring.monomial(2 * a * charge)
    framed = total * ring.monomial(-f_exp * b.writhe())
    if f_sign == -1 and len(b.letters) % 2 == 1:
        framed = -framed
    return framed


class _ExactRing:
    """Integer Laurent polynomials in u: the invariant itself."""

    zero = LaurentPoly.zero("u")
    one = LaurentPoly.one("u")
    reduce = staticmethod(_drop_zeros)

    def __init__(self, alpha: int):
        self.tables = {sgn: _expand_table(crossing_operator(alpha, sgn).table) for sgn in (1, -1)}
        self.pinned: dict = {}

    @staticmethod
    def monomial(exp: int) -> LaurentPoly:
        return LaurentPoly.monomial("u", exp)


class _CountingRing:
    """Keys only: every coefficient and amplitude is 1, and products are counted.

    The states hold the same keys as in :class:`_PackedRing` (neither drops
    a key), and each product ``amp * c`` of :func:`_apply_letter` adds 1 to
    its target key, so the amplitudes after a letter sum to the products it
    ran; :meth:`reduce` adds them to ``products`` and resets them to 1.
    """

    one = 1

    def __init__(self, alpha: int):
        self.alpha = alpha
        self.tables = {
            sgn: {key: tuple((k, l, 1) for (k, l, _) in terms) for key, terms in
                  _braiding_shape(alpha, sgn * POSITIVE_CROSSING_SIGN).items()}
            for sgn in (1, -1)
        }
        self.pinned: dict = {}
        self.products = 0
        # (rotated word, start vector) -> products of its diagonal amplitude
        self._per_start: Dict[Tuple[tuple, tuple], int] = {}

    def reduce(self, state: dict) -> dict:
        self.products += sum(state.values())
        return dict.fromkeys(state, 1)

    def count(self, b: BraidWord, cut: Tuple[int, int], budget: float = inf) -> float:
        """The products :func:`_state_sum` runs for ``b`` at ``cut`` in this color.

        The start vectors of one rotated word are the same for every pinned
        slot, so each one's count is kept and shared by the cuts of that
        word.  A count that passes ``budget`` stops and reads ``inf``.
        """
        r, f = cut
        word = b.letters[r:] + b.letters[:r]
        steps = _closure_steps(word)
        total = 0
        for start, _ in _start_vectors(self.alpha, b.strands, f):
            n = self._per_start.get((word, start))
            if n is None:
                self.products = 0
                _diagonal_amplitude(steps, start, self)
                n = self._per_start[(word, start)] = self.products
            total += n
            if total > budget:
                return inf
        return total


@lru_cache(maxsize=1)
def _closure_cut(b: BraidWord) -> Tuple[int, int]:
    """The cut (r, f) of :func:`_state_sum` with the fewest products at large colors.

    The product count of a cut grows with the color at a rate set by the
    word, so the counts at small colors rank the cuts.  Stage 1 counts every
    cut at alpha = 2 in :class:`_CountingRing`; stage 2 counts, at
    alpha = 3, the cuts at most an eighth above the least stage-1 count
    and the given cut (0, 0).  Stage 1 alone can
    mislead: two cuts of 8_3 tie at alpha = 2 and differ by 1.8x at
    alpha = 9.  The least (alpha = 3 count, alpha = 2 count, f, rotated
    word) wins.  A cut is known by its pinned slot and its rotated word,
    never by r, so every rotation of a word picks the same cut.

    Gate: the chosen cut must give the given cut's exact invariant at
    alpha = 2 (:class:`ConventionViolationError` otherwise); a wrong charge
    on the slots left of the pinned one fails it.
    """
    letters = b.letters
    cuts: Dict[Tuple[int, tuple], Tuple[int, int]] = {}
    for r in range(max(1, len(letters))):
        for f in range(b.strands):
            cuts.setdefault((f, letters[r:] + letters[:r]), (r, f))
    given = (0, letters)
    if len(cuts) == 1:
        return cuts[given]
    counting = _CountingRing(2)
    first = {key: counting.count(b, cut) for key, cut in cuts.items()}
    least = min(first.values())
    near = {key for key, n in first.items() if 8 * n <= 9 * least} | {given}
    # a count above the least one so far cannot win, so it stops there
    counting = _CountingRing(3)
    second: Dict[Tuple[int, tuple], float] = {}
    for key in sorted(near, key=lambda key: (first[key], key)):
        second[key] = counting.count(b, cuts[key], min(second.values(), default=inf))
    best = min(near, key=lambda key: (second[key], first[key], key))
    cut = cuts[best]
    if best != given:
        exact = _ExactRing(2)
        if _state_sum(b, 2, exact, cut) != _state_sum(b, 2, exact):
            raise ConventionViolationError(
                f"the closure cut {cut} changes the invariant at alpha=2"
            )
    return cut


def _binom_row(exp: int, length: int) -> Tuple[int, ...]:
    """Coefficients of (1+g)**exp mod g**length; exp may be negative."""
    out = [1] * length
    acc = 1
    for k in range(1, length):
        acc = acc * (exp - k + 1) // k
        out[k] = acc
    return tuple(out)


def _laurent_to_gseries(p: LaurentPoly, length: int, rows: dict) -> List[int]:
    """Series of p(u) in g = u - 1, truncated to ``length`` coefficients.

    ``rows`` caches :func:`_binom_row` at this length by exponent.
    """
    for e in p.terms.keys() - rows.keys():
        rows[e] = _binom_row(e, length)
    coeffs = list(p.terms.values())
    picked = [rows[e] for e in p.terms]
    return [sum(map(mul, coeffs, map(itemgetter(k), picked))) for k in range(length)]


@lru_cache(maxsize=1)
def _factor_gseries(length: int) -> Tuple[dict, dict]:
    """The g-series of the factors at ``length``: ({s: S(s)}, {b: B(b)}), filled on demand.

    The factors do not depend on the color, and the colors of one D-table
    share one length, so each factor is converted once per D-table; only
    the current length is kept.
    """
    return {}, {}


def _pack(coeffs: Iterable[int], bits: int) -> int:
    """sum_k coeffs[k] 2**(bits k), the exact integer (not reduced)."""
    x = 0
    for c in reversed(tuple(coeffs)):
        x = (x << bits) + c
    return x


def _unpack(x: int, bits: int, length: int) -> List[int]:
    """The ``length`` signed ``bits``-wide digits of x mod 2**(bits length), lowest first."""
    out = []
    dm = (1 << bits) - 1
    half = 1 << (bits - 1)
    for _ in range(length):
        d = x & dm
        if d >= half:
            d -= dm + 1
        out.append(d)
        x = (x - d) >> bits
    return out


def _gseries_width(entries: List[tuple], length: int) -> int:
    """The digit width W of :func:`_gseries_entry_tables` (see there for the proof).

    One sign bit over max |S|_1 |B|_1 * max(|row(lo)|_inf, |row(hi)|_inf),
    lo and hi the lowest and highest exponents of the entries.
    """
    s_polys, b_polys = factors = _factor_polys(entries)
    s_norm, b_norm = ({key: _norm1(p) for key, p in polys.items()} for polys in factors)
    norm = max(s_norm[e[3]] * b_norm[e[4]] for e in entries)
    lo = min(e[2] + min(s_polys[e[3]].terms) + min(b_polys[e[4]].terms) for e in entries)
    hi = max(e[2] + max(s_polys[e[3]].terms) + max(b_polys[e[4]].terms) for e in entries)
    peak = max(map(abs, _binom_row(lo, length) + _binom_row(hi, length)))
    return (norm * peak).bit_length() + 1


def _gseries_entry_tables(alpha: int, length: int):
    """Crossing tables as truncated g-series coefficient tuples, both signs.

    Built once per color, by :class:`_PackedRing`, and not kept after it.

    An entry c = sgn u^w S B has the g-series sgn row(w) gS gB mod
    g**length, where row(w) = (1+g)**w (:func:`_binom_row`) and gS, gB are
    the factor g-series (:func:`_factor_gseries`).  Packed with g -> 2**W,
    that is one big-integer product per entry, (sgn row(w) (gS gB)) mod
    2**(W length), with gS gB one product per factor pair, shared by both
    signs; the signed W-bit digits are the coefficients.

    Width: c_k, the g**k coefficient of c = sum_e c_e u^e, is
    sum_e c_e C(e, k) with C(e, k) that of (1+g)**e, so
    |c_k| <= |c|_1 max_e |C(e, k)|, and |c|_1 <= |S|_1 |B|_1 (|.|_1 the
    sum of absolute coefficients, which is submultiplicative).
    |C(e, k)| is binom(e, k) for e >= 0 and binom(-e + k - 1, k) for e < 0,
    nondecreasing in |e| on each side of 0, so for every exponent e of
    every entry, lo <= e <= hi (the lowest and highest over both tables),
    |C(e, k)| <= max(|C(lo, k)|, |C(hi, k)|).  Hence every coefficient is
    at most P = max |S|_1 |B|_1 * max(|row(lo)|_inf, |row(hi)|_inf) in
    absolute value, and W = bits(P) + 1 leaves a sign bit.  As in
    :class:`_PackedRing`, g -> 2**W mod 2**(W length) is a ring map from
    Z[g]/(g**length), so the reduced product is the image of the true
    truncated series whatever its factors wrap, and the digits recover it.

    Returns (tables, majorants): ``majorants[sign]`` is the row majorant of
    that sign's table, the coefficientwise max over source keys of the sum
    of |c| over the key's entries (see :class:`_PackedRing`).
    """
    factored = {sgn: crossing_operator(alpha, sgn).table for sgn in (1, -1)}
    entries = _entries(*factored.values())
    width = _gseries_width(entries, length)
    mask = (1 << (width * length)) - 1

    rows: Dict[int, Tuple[int, ...]] = {}
    packed_s, packed_b = {}, {}
    for cache, polys, packed in zip(_factor_gseries(length), _factor_polys(entries),
                                    (packed_s, packed_b)):
        for key, p in polys.items():
            series = cache.get(key)
            if series is None:
                series = cache[key] = tuple(_laurent_to_gseries(p, length, rows))
            packed[key] = _pack(series, width)
    pairs: Dict[Tuple[tuple, tuple], int] = {}
    packed_rows: Dict[int, int] = {}
    tables, majorants = {}, {}
    for sgn, table in factored.items():
        tbl = tables[sgn] = {}
        for key, es in table.items():
            out = []
            for (k, l, w, s, b, esgn) in es:
                pair = pairs.get((s, b))
                if pair is None:
                    pair = pairs[(s, b)] = (packed_s[s] * packed_b[b]) & mask
                row = packed_rows.get(w)
                if row is None:
                    row = packed_rows[w] = _pack(_binom_row(w, length), width)
                out.append((k, l, tuple(_unpack((esgn * row * pair) & mask, width, length))))
            tbl[key] = tuple(out)
        key_sums = [tuple(map(sum, zip(*(map(abs, c) for (_, _, c) in es))))
                    for es in tbl.values()]
        majorants[sgn] = tuple(map(max, zip(*key_sums)))
    return tables, majorants


def _truncated_mul(x, y) -> List[int]:
    """Product of two coefficient sequences, truncated to len(x) terms."""
    return [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(len(x))]


def _majorant_series(b: BraidWord, alpha: int, length: int, majorants: dict) -> List[int]:
    """The truncated majorant series of :class:`_PackedRing` for ``b`` at this color.

    prod_letters R_sign * sum_start |u^charge| * |u^(-f_exp writhe)| mod
    g**length, which bounds every coefficient of the framed g-series.
    """
    N = alpha - 1
    a, _, f_exp = _markov_data(alpha)
    # counts[s]: start vectors whose free slots have index sum s
    counts = [1]
    for _ in range(b.strands - 1):
        counts = [sum(counts[max(0, s - N) : s + 1]) for s in range(len(counts) + N)]
    bound = [0] * length
    for s, count in enumerate(counts):
        row = _binom_row(2 * a * ((b.strands - 1) * N - 2 * s), length)
        bound = [x + count * abs(r) for x, r in zip(bound, row)]
    bound = _truncated_mul(bound, [abs(r) for r in _binom_row(-f_exp * b.writhe(), length)])
    for k in b.letters:
        bound = _truncated_mul(bound, majorants[1 if k > 0 else -1])
    return bound


class _PackedRing:
    """Integer series in g = u - 1 mod g**length, Kronecker-packed into one int.

    Each coefficient takes ``bits`` bits in two's complement, and arithmetic
    is integer arithmetic mod 2**(bits * length).

    Only the final coefficients must fit.  The map Z[g]/(g**length) ->
    Z/2**(bits * length), g -> 2**bits, is a ring homomorphism, because
    (2**bits)**length = 0 there; u -> 1 + g is one from Z[u, 1/u] to
    Z[g]/(g**length), since 1 + g is a unit.  Table entries and monomials
    are packed as images under the composite, and the per-letter masking,
    the sums, the products and the final negation of :func:`_state_sum` are
    ring operations on those images.  So the packed state sum is the image
    of the true truncated g-series F of the framed invariant, whatever
    wrapped around in between, and :meth:`unpack` recovers F exactly when
    every |F_k| < 2**(bits - 1).

    The width bounds |F| by a truncated majorant series.  Write |s| for the
    coefficientwise absolute value of a series and compare series
    coefficient by coefficient; |x y| <= |x| |y| for truncated series.  A
    letter of sign s maps a state x to x' with
    sum_keys |x'| <= (sum_keys |x|) * R_s, where R_s is the row majorant of
    :func:`_gseries_entry_tables`, which bounds the sum of |c| over the
    entries of every source key; pinned tables are subsets of the full
    ones, so R_s bounds them too.  A start vector begins at 1 and its
    diagonal amplitude is one term of the final state, so

        |F| <= prod_letters R_sign * sum_start |u^charge| * |u^(-f_exp writhe)|

    truncated at g**length.  :func:`_majorant_series` evaluates this
    series, and the width is one sign bit over the bit length of its
    largest coefficient.

    The bound, and so the width, is the same at every cut (r, f) of
    :func:`_state_sum`.  The series R_sign commute, so a rotation leaves
    their product alone.  The charges of the start vectors pinned at slot f
    sum N - 2s_i over the slots right of f and -(N - 2s_i) over those left
    of it, each s_i running over 0..N; s -> N - s maps N - 2s to its
    negative and permutes 0..N, so every pinned slot gives one multiset of
    charges, that of slot 0.
    """

    zero = 0
    one = 1

    def __init__(self, b: BraidWord, alpha: int, length: int):
        raw_tables, majorants = _gseries_entry_tables(alpha, length)
        self.length = length
        self.bits = max(_majorant_series(b, alpha, length, majorants)).bit_length() + 1
        self.mask = (1 << (self.bits * length)) - 1
        self.tables = {
            sgn: {
                key: tuple((k, l, self.pack(c)) for (k, l, c) in entries)
                for key, entries in tbl.items()
            }
            for sgn, tbl in raw_tables.items()
        }
        self._monomials: Dict[int, int] = {}
        self.pinned: dict = {}

    def pack(self, coeffs: Iterable[int]) -> int:
        return _pack(coeffs, self.bits) & self.mask

    def monomial(self, exp: int) -> int:
        v = self._monomials.get(exp)
        if v is None:
            v = self._monomials[exp] = self.pack(_binom_row(exp, self.length))
        return v

    def reduce(self, state: dict) -> dict:
        mask = self.mask
        return {key: amp & mask for key, amp in state.items()}

    def unpack(self, x: int) -> List[int]:
        return _unpack(x & self.mask, self.bits, self.length)


# ---------------------------------------------------------------------------
# The exact invariant
# ---------------------------------------------------------------------------


def _knot_color(b: BraidWord, alpha: int) -> int:
    """The color, after checking it and that ``b`` closes to a knot."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if not b.is_knot():
        raise NotAKnotError(
            f"closure has {b.closure_component_count()} components, expected 1"
        )
    return alpha


def colored_jones(b: BraidWord, alpha: int) -> LaurentPoly:
    """V_alpha of the closure of ``b`` as a Laurent polynomial in q-hat.

    Normalized so the unknot gives 1 for every color; the writhe dependence
    is removed by the framing monomial.  The result is certified to lie in
    Z[q-hat, q-hat^-1] (all root-variable exponents must be divisible by 4)
    and to evaluate to 1 at q-hat = 1.
    """
    alpha = _knot_color(b, alpha)
    if alpha == 1:
        return LaurentPoly.one("q")
    framed = _state_sum(b, alpha, _ExactRing(alpha))
    if not framed.exponents_divisible_by(4):
        raise ConventionViolationError(
            "normalized invariant has fractional powers of q-hat"
        )
    result = framed.compress_exponents(4, "q")
    if result.evaluate_at_one() != 1:
        raise ConventionViolationError("invariant does not evaluate to 1 at q-hat=1")
    return result


# ---------------------------------------------------------------------------
# Truncated h-expansion
# ---------------------------------------------------------------------------


def jones_h_series(b: BraidWord, alpha: int, cap: int) -> List[Fraction]:
    """Coefficients of the h-expansion of V_alpha(closure of b) through h**cap.

    Same invariant as :func:`colored_jones`, evaluated in the packed
    truncated ring so large colors stay tractable.  Coefficients are
    certified integers (returned as Fractions for uniformity downstream).
    """
    alpha = _knot_color(b, alpha)
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if alpha == 1:
        return [Fraction(1)] + [Fraction(0)] * cap
    # the cut search costs more than it saves below alpha = 4
    cut = _closure_cut(b) if alpha > 3 else (0, 0)
    ring = _PackedRing(b, alpha, cap + 1)
    return _gseries_to_hseries(ring.unpack(_state_sum(b, alpha, ring, cut)), cap)


@lru_cache(maxsize=None)
def _g_to_h_columns(cap: int) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """The substitution g = (1+h)^(1/4) - 1 through h**cap, as integers.

    Returns (den, columns): columns[j][k] / den is the h**j coefficient of
    ((1+h)^(1/4) - 1)**k, for k = 0..cap.
    """
    g_of_h = series_pow1p(Fraction(1, 4), cap) - 1
    powers = [TruncSeries.constant("h", cap, 1)]
    for _ in range(cap):
        powers.append(powers[-1] * g_of_h)
    den = lcm(*(c.denominator for p in powers for c in p.coeffs))
    columns = tuple(
        tuple(int(p.coeffs[j] * den) for p in powers) for j in range(cap + 1)
    )
    return den, columns


def _gseries_to_hseries(gcoeffs: List[int], cap: int) -> List[Fraction]:
    """The h-series through h**cap of a g-series, certified integral and 1 at h = 0."""
    den, columns = _g_to_h_columns(cap)
    coeffs = []
    for column in columns:
        value, rest = divmod(sum(map(mul, gcoeffs, column)), den)
        if rest:
            raise ConventionViolationError(
                "h-expansion produced a non-integer coefficient"
            )
        coeffs.append(Fraction(value))
    if coeffs[0] != 1:
        raise ConventionViolationError("h-expansion does not start at 1")
    return coeffs


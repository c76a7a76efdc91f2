"""Exact colored Jones polynomial of a braid closure.

The invariant is evaluated through the braiding operator of the
alpha-dimensional irreducible representation of the rank-one quantum group.
All arithmetic is done in a root variable u with q-hat = u**4 (q-hat is the
Jones variable), so that every half- and quarter-integer power arising in
operator entries and framing corrections is an honest Laurent monomial.

The ribbon/mirror convention is not transcribed on faith; it is pinned by
runtime gates: the sign-flipped operator is verified to be the exact inverse
at construction, the Markov partial trace with charge u^(2(N-2j)) is
verified to be the closed-form framing monomial u^(alpha^2 - 1), the ribbon
twist of V_alpha, times the identity, and the torus cross-path suite in the
tests fixes the global mirror.

The operator entries come from the q-binomial closed form
u^w (q - 1/q)^n [n]! [i choose n] [N-j choose n] of the R-matrix and are
kept factored, as sgn u^w S B with S = prod_{k=1..n} (q^k - q^-k)
[i choose n] and B = [N-j choose n], symmetric q-binomials from Pascal's
rule: no polynomial is divided, and the factors, which do not depend on the
color, number only O(alpha^2).  Both gates are calls of one packed
identity check, :func:`_check_chain`: a chain of factored tables must send
each source key to an expected monomial.  The inverse gate
(:func:`_check_inverse`) is a tuple comparison at every color, the premise
that both tables built are the closed form, and one chain per process on
the color-free pair the closed form reduces to, from the keys a <= b <= N
of the largest N asked for so far; the Markov gate (:func:`_markov_data`)
is the one table of charged diagonal entries, picked by index.  The check
and the g-series tables (:func:`_gseries_entry_tables`) multiply
Kronecker-packed factors, not Laurent polynomials: pack(S) pack(B) once per
factor pair (:func:`_pair_products`), then one big-integer product per
entry (check) or distinct coefficient (tables), at a width each proves
exact from the factor-pair layer (:class:`_FactorPairs`).  The check packs
each factor u^4 -> 2^width, multiplies unshifted packed entries and shifts
each path product once, into the accumulator of its target and of its
lowest exponent's residue mod 4.  The tables hold only the entries the
word's state sum reads, found by one key-only walk of the closure per
color (:func:`_read_entries`); when the walk has read every entry, every
entry is converted.  Only the exact ring expands entries, whole tables,
for the test oracle.

Flip symmetry: under omega (i, j) -> (N - j, N - i), entry n of omega(i, j)
of the closed form has entry n of (i, j)'s w and sgn, the target
omega(k, l) and the factors S(b, n) B(a, n) for S(a, n) B(b, n), the same
polynomial.  Proof: omega maps (i, j, k, l) to (N - j, N - i, N - l, N - k):
n, its range and w keep their values, and the factor indices swap;
S(a, n) B(b, n) is S(n, n) [a choose n] [b choose n].  So only about half
the entries' coefficients are distinct.  The inverse gate's premise shows
that the tables built are the closed form, so they have this symmetry.

One state-sum kernel, :func:`_state_sum`, evaluates the invariant over
three coefficient rings; only the table coefficients, the charges and the
reduction after each letter depend on the ring:

* the exact ring of integer Laurent polynomials in u, which returns the
  framed invariant itself (the reference the tests check against, and the
  alpha = 2 gate of the cut search);
* the ring of integer series in g = u - 1 truncated at a fixed order and
  packed into single big integers (Kronecker substitution), which gives
  h-expansions (h = q-hat - 1) at large colors (:func:`jones_h_series`);
* a key-only ring that counts products (:class:`_CountingRing`).

The kernel contracts the closure slot by slot, transfer-matrix style: one
state per color, keyed by the current index of every open slot and the
start index of every open slot but the pinned one.  A slot opens at its
first letter and closes at its last, where a key keeps only the entry
that returns the slot to the key's start index (:func:`_apply_letter`);
its charge is multiplied in there and its indices leave the key, so
states that differ only in finished slots merge.

The kernel reads the closure cut open at (r, f) from one value, the one
owner of the rotation by r, the pinned slot f, the charges and the writhe
(:class:`_Closure`).  Every cut gives the invariant, but the products it
runs depend on the cut: from 1,027 to 44,640 over the cuts of 6_1 at
alpha = 6.  :func:`jones_h_series` runs at the cut it is given;
:func:`_closure_cut` picks one per word from the counting ring's counts,
with a runtime gate at alpha = 2.

Packing g -> 2**bits modulo 2**(bits * length) is a ring map, so only the
final coefficients must fit; their width comes from a truncated majorant
series (see :class:`_PackedRing`).

State is passed, not cached.  A ring owns its color's operator pair and
framing: :class:`_ExactRing` and :class:`_PackedRing` each build the pair
once, hand it to its consumers and keep the framing exponent as
``ring.framing``; the packed ring keeps its packed tables and nothing of
the pair.  The caller owns the cut (``mmexpand._jones_rows`` picks one per
D-table).  The only process caches are the color-independent memos
:func:`_qbinom`, :func:`_qdiff_product`, :func:`_scaled_qbinom`,
:func:`_factor_bounds`, :func:`_factor_gseries` and
:func:`_g_to_h_columns`, and the largest N whose color-free chain the
inverse gate has checked (:func:`_check_color_free`), an integer; a
color's coefficient table is not one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, inf
from operator import itemgetter, mul
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .exactalg import GateError, LaurentPoly, int_series_mul, series_pow1p, series_powers
from .knots import BraidWord, NotAKnotError


class ConventionViolationError(GateError):
    """An operator gate failed or normalization left fractional powers."""


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
def _qdiff_product(n: int) -> LaurentPoly:
    """prod_{k=1..n} (q^k - q^-k) with q = u**2, one factor more than n - 1's."""
    if n == 0:
        return LaurentPoly.one("u")
    return _qdiff_product(n - 1) * LaurentPoly("u", {2 * n: 1, -2 * n: -1})


@lru_cache(maxsize=None)
def _scaled_qbinom(m: int, n: int) -> LaurentPoly:
    """(q - 1/q)^n [n]! [m choose n] = prod_{k=1..n} (q^k - q^-k) * [m choose n]."""
    return _qbinom(m, n) * _qdiff_product(n)


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


def _coefficient_key(entry: tuple) -> tuple:
    """(w, n, sgn, min(a, b), max(a, b)) of sgn u^w S(a, n) B(b, n): equal keys, equal coefficients."""
    _, _, w, (a, n), (b, _), sgn = entry
    return w, n, sgn, min(a, b), max(a, b)


def _expand_table(table: dict) -> dict:
    """A factored table with every coefficient expanded: (i, j) -> [(k, l, c)]."""
    return {key: [(e[0], e[1], _entry_poly(e)) for e in entries]
            for key, entries in table.items()}


def _entries(*tables: dict) -> List[tuple]:
    """Every entry of the tables, in one list."""
    return [e for table in tables for entries in table.values() for e in entries]


@lru_cache(maxsize=None)
def _factor_bounds(factor: Callable[[int, int], LaurentPoly], m: int, n: int) -> Tuple[int, int, int, int]:
    """(|p|_1, lowest exponent, highest exponent, gcd of the exponents' offsets
    from the lowest) of the factor p = factor(m, n), which no color changes."""
    p = factor(m, n)
    low = min(p.terms)
    return sum(map(abs, p.terms.values())), low, max(p.terms), gcd(*(x - low for x in p.terms))


class _FactorPairs:
    """The factor-pair layer of a set of entries: one color's, built once with
    its operator pair, or the color-free pair's.

    For the factor pair (s, b) of an entry e, :meth:`norm` is
    |S|_1 |B|_1 >= |S B|_1 (|.|_1, the sum of absolute coefficients, is
    submultiplicative), and :meth:`lo` and :meth:`hi` are the lowest and
    highest exponents of S B (the extreme terms of a product multiply).
    ``step`` divides every exponent's offset from its factor's lowest
    exponent, in every factor.  Only the bounds of the distinct factors are
    kept, O(alpha^2) of them; the pairs number O(alpha^3).
    """

    def __init__(self, entries: List[tuple]):
        self.s = {s: _factor_bounds(_scaled_qbinom, *s) for s in {e[3] for e in entries}}
        self.b = {b: _factor_bounds(_qbinom, *b) for b in {e[4] for e in entries}}
        self.step = gcd(*(f[3] for f in (*self.s.values(), *self.b.values())))

    def norm(self, e: tuple) -> int:
        return self.s[e[3]][0] * self.b[e[4]][0]

    def lo(self, e: tuple) -> int:
        return self.s[e[3]][1] + self.b[e[4]][1]

    def hi(self, e: tuple) -> int:
        return self.s[e[3]][2] + self.b[e[4]][2]


def _pair_products(entries: Iterable[tuple], pack: Callable[[LaurentPoly], int],
                   mask: int = -1) -> Dict[Tuple[tuple, tuple], int]:
    """pack(S) pack(B) & mask per distinct factor pair (s, b) of the entries.

    Each distinct factor is packed once; ``mask`` reduces each product as it
    is made.
    """
    keys = {e[3:5] for e in entries}
    packed_s = {s: pack(_scaled_qbinom(*s)) for s in {s for s, _ in keys}}
    packed_b = {b: pack(_qbinom(*b)) for b in {b for _, b in keys}}
    return {(s, b): (packed_s[s] * packed_b[b]) & mask for s, b in keys}


def _pack_factor(p: LaurentPoly, width: int, step: int = 1) -> int:
    """p packed u^step -> 2^width from its lowest exponent low.

    That is (u^-low p)(2^(width/step)) for exponents low + step k, a ring
    map on such polynomials.
    """
    low = min(p.terms)
    return sum(c << (width * ((e - low) // step)) for e, c in p.terms.items())


def _chain_layout(chain: List[dict], expected: dict,
                  pairs: _FactorPairs) -> Tuple[int, int, List[int]]:
    """Kronecker layout (width, step, los) of :func:`_check_chain`, proved there.

    width is one sign bit over the largest path sum, over the source keys
    in ``expected``, of prod |S|_1 |B|_1, summed backwards over the chain,
    one pass per table.  los[t] is the lowest entry exponent of table t
    (of the checked keys' entries, for the first table), the first one
    lowered until every expected monomial's offset is >= 0;
    step, the factor step, divides the offsets within every factor.
    """
    first, *rest = chain
    onwards: Dict[tuple, int] = {}  # each key's path sum to the end; 1 past the last table
    for table in reversed(rest):
        onwards = {key: sum(pairs.norm(e) * onwards.get(e[:2], 1) for e in es)
                   for key, es in table.items()}
    bound = max(sum(pairs.norm(e) * onwards.get(e[:2], 1) for e in first[key]) for key in expected)
    los = [min(e[2] + pairs.lo(e) for e in entries) for entries in
           ([e for key in expected for e in first[key]], *map(_entries, rest))]
    los[0] = min(los[0], *(m - sum(los[1:]) for _, m in expected.values()))
    return bound.bit_length() + 1, pairs.step or 1, los


def _check_chain(chain: List[dict], expected: dict, pairs: _FactorPairs,
                 error: Callable[[tuple], Exception]) -> None:
    """Raise ``error(key)`` unless the chain sends each source key to its expected monomial.

    ``chain`` is a list of factored tables (key -> entries
    (k, l, w, s, b, sgn), each entry's (k, l) a key of the next table);
    the chain sends a source key of the first table to the sum, over its
    paths through the tables, of the products of the entries' coefficients
    sgn u^w S B.  ``expected`` maps each source key checked to (target, m):
    the sum must be u^m at the target and zero at every other key.  No
    Laurent polynomial is multiplied.

    Layout (:func:`_chain_layout`): every factor's exponents lie on one
    class mod step, its lowest plus multiples of step, so a factor packs
    by the ring map u^step -> 2^width from its own lowest exponent, and an
    entry c = sgn u^w S B as sgn pack(S) pack(B) (one big-integer product
    per factor pair, :func:`_pair_products`) with its lowest exponent
    w + lo(S B) kept beside it.  A path's product is u^(base + o) P(u^step),
    base = sum(los) and o >= 0 the sum of its entries' lowest exponents
    less base, and P(u^step) packs as the product of the entries' packed
    values.  So the path adds that
    product, shifted by width (o // step), to the accumulator of its target
    and its residue class o mod step: the class (target, r) holds the sum of
    the terms u^(base + r + step d) at the target, packed d -> 2^(width d).
    Exponents of different classes differ, so the sum is u^m at the target
    and zero elsewhere iff the class (target, (m - base) mod step) packs to
    2^(width ((m - base) // step)) and every other class to zero; los[0] is
    lowered until m - base >= 0.  The unshifted products are multiplied and
    each path shifted once: the low zeros are never multiplied.

    Width: a coefficient of the chain's sum at a source key is a sum over
    paths of products of entry coefficients, so its absolute value is at
    most the path sum of prod |c|_1 (|.|_1 the sum of absolute
    coefficients), and |c|_1 <= |S|_1 |B|_1 for c = +-u^w S B (the 1-norm
    is submultiplicative).  Let M be the largest such path sum of
    prod |S|_1 |B|_1 over the checked source keys.  A class's coefficients
    are some of the sum's, so with width = bits(M) + 1 (a sign bit on top
    of M), a coefficient of a class minus its expected part is at most
    M + 1 <= 2^(width-1) < 2^width in absolute value.  Such a difference
    packs to zero only if every coefficient is zero (the lowest nonzero one
    would have to be a multiple of 2^width), so within the bound equal
    packed integers mean equal polynomials.
    """
    width, step, los = _chain_layout(chain, expected, pairs)
    first, *rest = chain
    sources = {key: first[key] for key in expected}
    products = _pair_products(_entries(sources, *rest), lambda p: _pack_factor(p, width, step))
    # each entry as (target, unshifted value, lowest exponent w + lo(S B))
    *head, last = [{key: [(e[:2], e[5] * products[e[3:5]], e[2] + pairs.lo(e)) for e in es]
                    for key, es in table.items()} for table in (sources, *rest)]
    base = sum(los)
    for key, (target, m) in expected.items():
        # the key's paths up to the last table, as (key reached, unshifted value, exponent)
        paths = head[0][key] if head else [(key, 1, 0)]
        for table in head[1:]:
            paths = [(tgt, x * y, ex + ey) for (src, x, ex) in paths for (tgt, y, ey) in table[src]]
        acc: Dict[tuple, int] = {}
        for (src, x, ex) in paths:
            for (tgt, y, ey) in last[src]:
                d, r = divmod(ex + ey - base, step)
                acc[tgt, r] = acc.get((tgt, r), 0) + ((x * y) << (width * d))
        d, r = divmod(m - base, step)
        if {cls: v for cls, v in acc.items() if v} != {(target, r): 1 << (width * d)}:
            raise error(key)


def _check_inverse(plus: dict, minus: dict, alpha: int) -> None:
    """Raise unless plus after minus is the identity: a premise at this color,
    then the color-free chain through N = alpha - 1 (:func:`_check_color_free`).

    Premise, a tuple comparison: both tables are the closed form of
    :func:`_braiding_table` at every key (i, j) of [0, N]^2.  Plus entry n
    of (i, j), n = 0..min(i, N - j), is (j + n, i - n, n(n - 1) +
    (N - 2l)(N - 2k), (i, n), (N - j, n), 1), (k, l) its target; minus entry
    n, n = 0..min(j, N - i), is (j - n, i + n, -n(n - 1) - (N - 2i)(N - 2j),
    (j, n), (N - i, n), (-1)^n).

    Given the premise, the chain minus then plus sends (i, j) by the path
    (n, m), minus entry n then plus entry m of (j - n, i + n), to
    (i + d, j - d), d = n + m, with the coefficient
    (-1)^n u^(-n(n - 1) + m(m - 1) + E) S(j, n) B(N - i, n)
    S(j - n, m) B(N - i - n, m), where
    E = (N - 2j + 2d)(N - 2i - 2d) - (N - 2i)(N - 2j) is the two entries'
    (N - 2.)(N - 2.) terms and depends on (i, j, d) alone; at d = 0, E = 0.
    In (a, b) = (j, N - i) the ranges are n <= min(a, b) and
    m <= min(a - n, b - n), and the coefficient is u^E times the product
    along the path (n, m) of the color-free pair A, B
    (:func:`_color_free_tables`) from (a, b) to (a - d, b - d): A sends
    (a, b) to (a - n, b - n) with (-1)^n u^(-n(n - 1)) S(a, n) B(b, n), and B
    sends (a, b) to (a - m, b - m) with u^(m(m - 1)) S(a, m) B(b, m).
    Grouping the paths by d, the sum at (i + d, j - d) is u^E times the
    color-free chain's sum at (a - d, b - d), and u^E is a unit.  So the
    chain is u^0 at (i, j) and zero elsewhere if and only if the color-free
    chain is u^0 at (a, b) and zero elsewhere.  (i, j) -> (j, N - i) maps
    [0, N]^2 onto itself, and A, B do not depend on N, so R^- R^+ = I holds
    at every key of every color <= N + 1 if and only if the color-free
    chain is the identity on [0, N]^2.

    The color-free chain runs from the keys a <= b alone.
    S(a, n) B(b, n) = S(b, n) B(a, n) by the definition of
    :func:`_scaled_qbinom`: both are prod_{k=1..n} (q^k - q^-k)
    [a choose n] [b choose n].  So A and B give the entries of (b, a) the
    coefficients of those of (a, b) and the swapped targets, the paths from
    (b, a) have the products of those from (a, b), and the chain's sum at
    (b, a) is its sum at (a, b) with every target swapped.  The swap is the
    flip omega of the module docstring, which the premise implies.  Paths
    from a <= b keep a - d <= b - d, so the tables need only those keys.
    """
    N = alpha - 1
    for table, closed_form in (
            (plus, lambda i, j: [(j + n, i - n, n * (n - 1) + (N - 2 * (i - n)) * (N - 2 * (j + n)),
                                  (i, n), (N - j, n), 1) for n in range(min(i, N - j) + 1)]),
            (minus, lambda i, j: [(j - n, i + n, -(n * (n - 1)) - (N - 2 * i) * (N - 2 * j),
                                   (j, n), (N - i, n), -1 if n % 2 else 1)
                                  for n in range(min(j, N - i) + 1)])):
        if len(table) != alpha * alpha:
            raise ConventionViolationError(
                f"crossing operators are not inverse at alpha={alpha}: a table has {len(table)} keys")
        for i in range(alpha):
            for j in range(alpha):
                if table.get((i, j)) != closed_form(i, j):
                    raise ConventionViolationError(
                        f"crossing operators are not inverse at alpha={alpha}, basis {(i, j)}: "
                        f"its entries are not the closed form")
    _check_color_free(N)


def _color_free_tables(N: int) -> Tuple[dict, dict]:
    """The color-free pair A, B of :func:`_check_inverse` on the keys a <= b <= N,
    as factored tables."""
    keys = [(a, b) for b in range(N + 1) for a in range(b + 1)]
    A = {(a, b): [(a - n, b - n, -(n * (n - 1)), (a, n), (b, n), -1 if n % 2 else 1)
                  for n in range(a + 1)] for (a, b) in keys}
    B = {(a, b): [(a - m, b - m, m * (m - 1), (a, m), (b, m), 1) for m in range(a + 1)]
         for (a, b) in keys}
    return A, B


# the process memo of the color-free chain: the largest N checked so far
_COLOR_FREE = SimpleNamespace(N=-1)


def _check_color_free(N: int) -> None:
    """Raise unless the color-free chain A then B (:func:`_check_inverse`) is the
    identity on the keys a <= b <= N.

    Runs once per process for each N above the memo's, from the keys with
    b above it (those below are checked), and keeps only N.  One
    :func:`_check_chain` on the tables of :func:`_color_free_tables`; a
    failure names the color alpha = N + 1, the basis (N - b, a) of the
    failing key (a, b) and the key.
    """
    done = _COLOR_FREE.N
    if N <= done:
        return
    A, B = _color_free_tables(N)
    _check_chain([A, B], {key: (key, 0) for key in A if key[1] > done},
                 _FactorPairs(_entries(A, B)),
                 lambda key: ConventionViolationError(
                     f"crossing operators are not inverse at alpha={N + 1}, basis {(N - key[1], key[0])}: "
                     f"the color-free chain fails at key {key}"))
    _COLOR_FREE.N = N


class CrossingOperator(NamedTuple):
    """Braiding operator on two adjacent tensor slots, entries factored exactly.

    ``table`` maps (i, j) to the entries (k, l, w, s, b, sgn) of
    :func:`_braiding_table`; ``pairs``, the color's :class:`_FactorPairs`,
    is shared by both signs.
    """

    alpha: int
    sign: int
    table: dict
    pairs: _FactorPairs


def _operator_pair(alpha: int) -> Tuple[CrossingOperator, CrossingOperator]:
    """Both braiding operators, verified to be exact mutual inverses.

    Built once per ring, which passes the pair to every consumer of the
    color; nothing keeps it after the ring is built.
    """
    plus = _braiding_table(alpha, 1)
    minus = _braiding_table(alpha, -1)
    _check_inverse(plus, minus, alpha)
    pairs = _FactorPairs(_entries(plus, minus))
    return CrossingOperator(alpha, 1, plus, pairs), CrossingOperator(alpha, -1, minus, pairs)


def _markov_data(operators: Tuple[CrossingOperator, CrossingOperator]) -> int:
    """The framing exponent alpha^2 - 1, checked against a color's operator pair.

    The ribbon twist of V_alpha is q-hat^((alpha^2 - 1)/4) = u^(alpha^2 - 1)
    (Kirby-Melvin).  Gate: with the charge mu_j = u^(2(N-2j)) on index j,
    the partial trace over the second slot of (1 x mu) Rhat must be
    u^(alpha^2 - 1) times the identity, and that of the sign-flipped
    operator u^-(alpha^2 - 1) times it; ConventionViolationError otherwise.

    Row i of the partial trace is sum_j c_ij u^(2(N-2j)) over the diagonal
    entries c_ij = sgn u^w S B, those that send (i, j) to itself: entry
    n = i - j of the plus table's key, j - i of the minus table's, picked by
    index (entry t of (i, j) goes to (j + sign t, i - sign t)).  The charge
    goes into each entry's w, so the rows of both signs are one table,
    keyed (sign, i), and the gate is a one-table :func:`_check_chain`.
    """
    alpha = operators[0].alpha
    N, f_exp = alpha - 1, alpha * alpha - 1
    trace = {(op.sign, i): [] for op in operators for i in range(alpha)}
    for op in operators:
        for (i, j), entries in op.table.items():
            n = op.sign * (i - j)
            if 0 <= n < len(entries):
                _, _, w, s, b, sgn = entries[n]
                trace[(op.sign, i)].append((op.sign, i, w + 2 * (N - 2 * j), s, b, sgn))
    _check_chain([trace], {key: (key, key[0] * f_exp) for key in trace}, operators[0].pairs,
                 lambda key: ConventionViolationError(
                     f"the partial trace is not u^{key[0] * f_exp} times the identity at alpha={alpha}"))
    return f_exp


# ---------------------------------------------------------------------------
# The state sum and its three coefficient rings
# ---------------------------------------------------------------------------


class _Closure(NamedTuple):
    """A braid closure cut open at (r, f), the one owner of its rotation,
    pinned slot, charges and writhe.  ``word`` is the letters rotated by r;
    ``steps`` holds (pos, sign, opens, close_k, close_l) per letter: its
    slots pos and pos + 1, its sign, the slots other than f it touches
    first, and for slot pos (close_k) and pos + 1 (close_l) None unless the
    letter is the last to touch it, else the slot's side: +1 right of f,
    -1 left of it, 0 for f.  ``idle`` counts the slots other than f that no
    letter touches (none in a knot's braid on two or more strands).

    The value is the sum, over the start vectors with slot f at index 0
    (the other slots at indices s_i in 0..N), of each one's diagonal
    amplitude times u^(2 charge), charge = sum_(i>f) (N - 2s_i) -
    sum_(i<f) (N - 2s_i), framed by u^(-(alpha^2 - 1) writhe).
    :func:`_state_sum` contracts that sum slot by slot.

    Every cut gives the same value.  A rotation is a conjugation, and the
    trace is cyclic.  For the slot: mu = u^(2(N - 2s)) on index s is the
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
    """

    strands: int
    cut: Tuple[int, int]
    word: tuple
    writhe: int
    steps: Tuple[tuple, ...]
    idle: int

    @classmethod
    def of(cls, b: BraidWord, cut: Tuple[int, int] = (0, 0)) -> _Closure:
        r, f = cut
        word = b.letters[r:] + b.letters[:r]
        first, last = {}, {}  # slot -> its first and its last letter
        for t, k in enumerate(word):
            for slot in (abs(k) - 1, abs(k)):
                first.setdefault(slot, t)
                last[slot] = t

        def close(slot: int, t: int):
            return (slot > f) - (slot < f) if last[slot] == t else None

        steps = tuple((abs(k) - 1, 1 if k > 0 else -1,
                       tuple(s for s in (abs(k) - 1, abs(k)) if first[s] == t and s != f),
                       close(abs(k) - 1, t), close(abs(k), t))
                      for t, k in enumerate(word))
        idle = sum(1 for s in range(b.strands) if s not in first and s != f)
        return cls(b.strands, cut, word, b.writhe(), steps, idle)

    def start_weights(self, alpha: int) -> Dict[int, int]:
        """weight -> count of the start vectors: every pinned slot has slot 0's charges
        (:class:`_PackedRing`), so the terms of (sum_s u^(2(N - 2s)))^(strands - 1)."""
        counts = LaurentPoly.one("u")
        for _ in range(self.strands - 1):
            counts = counts * _qbinom(alpha, 1)
        return counts.terms


def _apply_letter(state: dict, step: tuple, n: int, alpha: int, ring) -> dict:
    """One letter of :func:`_state_sum` on a merged state, which it consumes.

    A key is (current index of each slot, start index of each slot), 2n
    indices; a slot that is not open holds 0 in both.  The letter acts on
    the current indices (i, j) of slots (pos, pos + 1).  A slot it closes
    keeps the one entry that returns it to the key's start index (sk, sl):
    entry t goes to (j + sign t, i - sign t) (:func:`_braiding_shape`), so
    t = sign (sk - j), or sign (i - sl) if slot pos stays open; none if t
    is out of range or, both slots closing, the entry's l is not sl.  Its
    charge u^(side 2(N - 2s)) is multiplied in once per source key, and
    both its indices leave the key, so keys that differ only there merge.
    """
    pos, sign, _, close_k, close_l = step
    end = pos + 2
    new: dict = {}
    get = new.get
    table = ring.tables[sign]
    if close_k is None and close_l is None:
        while state:
            key, amp = state.popitem()
            pre, post = key[:pos], key[end:]
            for (k, l, c) in table[key[pos:end]]:
                nk = pre + (k, l) + post
                prev = get(nk)
                new[nk] = amp * c if prev is None else prev + amp * c
        return ring.reduce(new)
    N, charge = alpha - 1, ring.charge
    both = close_k is not None and close_l is not None
    while state:
        key, amp = state.popitem()
        i, j = key[pos], key[pos + 1]
        sk, sl = key[n + pos], key[n + pos + 1]
        entries = table[(i, j)]
        t = sign * (sk - j if close_k is not None else i - sl)
        if not 0 <= t < len(entries):
            continue
        k, l, c = entries[t]
        if both and l != sl:
            continue
        exp = 2 * ((close_k or 0) * (N - 2 * sk) + (close_l or 0) * (N - 2 * sl))
        if exp:
            amp = charge(amp, exp)
        k, sk = (k, sk) if close_k is None else (0, 0)  # a closed slot leaves the key
        l, sl = (l, sl) if close_l is None else (0, 0)
        nk = key[:pos] + (k, l) + key[end:n + pos] + (sk, sl) + key[n + end:]
        prev = get(nk)
        new[nk] = amp * c if prev is None else prev + amp * c
    return ring.reduce(new)


def _state_sum(closure: _Closure, alpha: int, ring):
    """Framed Markov trace of the braiding operators of ``closure``, in ``ring``.

    One merged state (:func:`_apply_letter`).  A slot opens at its first
    letter at every index 0..N, current and start alike (slot f at 0 alone).
    Once every slot has closed, one key is left, holding the sum over the
    start vectors of :class:`_Closure`; an untouched slot adds its charges.

    ``ring`` supplies ``zero``, ``one``, ``tables`` (braid sign -> operator
    table with ring coefficients), ``framing`` (the exponent alpha^2 - 1 of
    :func:`_markov_data`), ``charge(amp, exp)`` for amp u**exp,
    and ``reduce(state)``, applied after each letter.  A table lists each
    key's entries in the order of :func:`_braiding_shape`.
    """
    n, N = closure.strands, alpha - 1
    state = {(0,) * (2 * n): ring.one}
    for step in closure.steps:
        for s in step[2]:
            state = {key[:s] + (i,) + key[s + 1:n + s] + (i,) + key[n + s + 1:]: amp
                     for key, amp in state.items() for i in range(alpha)}
        state = _apply_letter(state, step, n, alpha, ring)
    total = state.popitem()[1] if state else ring.zero
    for _ in range(closure.idle):
        total = sum((ring.charge(total, 2 * (N - 2 * i)) for i in range(alpha)), ring.zero)
    return ring.charge(total, -ring.framing * closure.writhe)


def _read_entries(closure: _Closure, alpha: int, tables: Dict[int, dict]) -> Dict[int, Optional[tuple]]:
    """The table entries :func:`_state_sum` reads for ``closure`` at this color.

    One key-only walk: the keys of the merged state, no coefficients, moved
    as :func:`_apply_letter` moves them.  A letter that closes no slot
    reads every entry of the key (i, j) a state key holds at its slots; a
    closing letter reads entry t of it, and nothing when t is out of range
    or, both slots closing, entry t's l is not sl.  ``tables`` maps each
    sign to its table (entries (k, l, ...) in the order of
    :func:`_braiding_shape`).  The walk stops once every entry of every
    sign of the word has been read, so a word that reads them all early
    walks only its first letters.

    A key is one integer here, index x of its field f (slot s current at
    f = s, start at f = n + s) at bits b f..b f + b - 1, b the bit length
    of N: a letter that closes no slot adds (code(k, l) - code(i, j)) << b pos
    for each entry, code(i, j) = i + (j << b), and a closing letter
    rewrites the four fields of its slots.

    Returns sign -> None when every entry of that sign is read, else
    (pairs, singles): the keys (i, j) read whole by letters that close no
    slot, and the (i, j, t) read alone by closing letters, their (i, j) not
    among the pairs.
    """
    n, b = closure.strands, max(1, (alpha - 1).bit_length())
    m, mm = (1 << b) - 1, (1 << 2 * b) - 1
    signs = {step[1] for step in closure.steps}
    codes = {sign: {i + (j << b): es for (i, j), es in tables[sign].items()} for sign in signs}
    moves: Dict[Tuple[int, int], dict] = {}  # (sign, pos) -> pair code -> the key's shifts
    whole: Dict[int, set] = {sign: set() for sign in signs}  # pair codes
    alone: Dict[int, set] = {sign: set() for sign in signs}
    unread = set(signs)
    total = {sign: len(_entries(tables[sign])) for sign in signs}

    def all_read(sign: int, singles: set) -> bool:
        table, pairs = codes[sign], whole[sign]
        return (sum(len(table[p]) for p in pairs)
                + sum(1 for (i, j, _) in singles if i + (j << b) not in pairs)) == total[sign]

    state = {0}
    for pos, sign, opens, close_k, close_l in closure.steps:
        for s in opens:
            unit = (1 << b * s) + (1 << b * (n + s))
            state = {key + i * unit for key in state for i in range(alpha)}
        at = b * pos
        if close_k is None and close_l is None:
            if sign in unread:
                whole[sign].update({key >> at & mm for key in state})
                if all_read(sign, alone[sign]):
                    unread.discard(sign)
                    if not unread:
                        break
            move = moves.get((sign, pos))
            if move is None:
                move = moves[sign, pos] = {p: [((e[0] + (e[1] << b)) - p) << at for e in es]
                                          for p, es in codes[sign].items()}
            state = {key + d for key in state for d in move[key >> at & mm]}
            continue
        new, read, record, table = set(), alone[sign], sign in unread, codes[sign]
        at_l, at_sk, at_sl = at + b, b * (n + pos), b * (n + pos + 1)
        for key in state:
            i, j = key >> at & m, key >> at_l & m
            sk, sl = key >> at_sk & m, key >> at_sl & m
            entries = table[i + (j << b)]
            t = sign * (sk - j if close_k is not None else i - sl)
            if not 0 <= t < len(entries):
                continue
            k, l = entries[t][:2]
            if close_k is not None and close_l is not None and l != sl:
                continue
            if record:
                read.add((i, j, t))
            # a closed slot leaves the key: both its fields go to 0
            k, drop_k = (k, 0) if close_k is None else (0, sk)
            l, drop_l = (l, 0) if close_l is None else (0, sl)
            new.add(key + ((k - i) << at) + ((l - j) << at_l) - (drop_k << at_sk) - (drop_l << at_sl))
        state = new
        if record and all_read(sign, read):
            unread.discard(sign)
            if not unread:
                break
    return {sign: ({(p & m, p >> b) for p in whole[sign]},
                   {r for r in alone[sign] if r[0] + (r[1] << b) not in whole[sign]})
            if sign in unread else None for sign in signs}


class _ExactRing:
    """Integer Laurent polynomials in u: the invariant itself."""

    zero = LaurentPoly.zero("u")
    one = LaurentPoly.one("u")
    reduce = staticmethod(lambda state: {key: amp for key, amp in state.items() if amp})

    def __init__(self, alpha: int):
        operators = _operator_pair(alpha)
        self.framing = _markov_data(operators)
        self.tables = {op.sign: _expand_table(op.table) for op in operators}

    @staticmethod
    def charge(amp: LaurentPoly, exp: int) -> LaurentPoly:
        return amp.shift(exp)


class _CountingRing:
    """Keys only: every coefficient and amplitude is 1, and products are counted.

    The states hold the same keys as in :class:`_PackedRing` (neither drops
    a key), and each product ``amp * c`` of :func:`_apply_letter` adds 1 to
    its target key, so the amplitudes after a letter sum to the products it
    ran; :meth:`reduce` adds them to ``products`` and resets them to 1.
    The charges, at most one per source key of a closing letter, are not
    counted: they grow with the keys, the letter products with the entries.
    """

    zero = 0
    one = 1
    framing = 0

    def __init__(self, alpha: int):
        self.alpha = alpha
        self.tables = {sgn: {key: tuple((k, l, 1) for (k, l, _) in terms)
                             for key, terms in _braiding_shape(alpha, sgn).items()}
                       for sgn in (1, -1)}
        self.products = 0
        self.budget = inf

    def reduce(self, state: dict) -> dict:
        self.products += sum(state.values())
        return dict.fromkeys(state, 1) if self.products <= self.budget else {}

    @staticmethod
    def charge(amp: int, exp: int) -> int:
        return amp

    def count(self, closure: _Closure, budget: float = inf) -> float:
        """The products :func:`_state_sum` runs for ``closure`` in this color;
        past ``budget``, the state empties, the count stops and reads ``inf``."""
        self.products, self.budget = 0, budget
        _state_sum(closure, self.alpha, self)
        return self.products if self.products <= budget else inf


def _closure_cut(b: BraidWord) -> Tuple[int, int]:
    """The cut (r, f) of :class:`_Closure` with the fewest products at large colors.

    The product count of a cut grows with the color at a rate set by the
    word, so the counts at small colors rank the cuts.  Stage 1 counts every
    cut at alpha = 2 in :class:`_CountingRing`; stage 2 counts, at
    alpha = 3, the cuts at most an eighth above the least stage-1 count
    and the given cut (0, 0).  Stage 1 alone can mislead: three cuts of 6_1
    tie at alpha = 2 and differ by 2.1x at alpha = 10.  The least
    (alpha = 3 count, alpha = 2 count, f, rotated word) wins.  A cut is
    known by its pinned slot and its rotated word, never by r, so every
    rotation of a word picks the same cut.

    Gate: the chosen cut must give the given cut's exact invariant at
    alpha = 2 (:class:`ConventionViolationError` otherwise); a wrong charge
    on the slots left of the pinned one fails it.
    """
    cuts: Dict[Tuple[int, tuple], _Closure] = {}
    for r in range(max(1, len(b.letters))):
        for f in range(b.strands):
            closure = _Closure.of(b, (r, f))
            cuts.setdefault((f, closure.word), closure)
    given = (0, b.letters)
    counting = _CountingRing(2)
    first = {key: counting.count(closure) for key, closure in cuts.items()}
    least = min(first.values())
    near = {key for key, n in first.items() if 8 * n <= 9 * least} | {given}
    # a count above the least one so far cannot win, so it stops there
    counting = _CountingRing(3)
    second: Dict[Tuple[int, tuple], float] = {}
    for key in sorted(near, key=lambda key: (first[key], key)):
        second[key] = counting.count(cuts[key], min(second.values(), default=inf))
    best = min(near, key=lambda key: (second[key], first[key], key))
    cut = cuts[best].cut
    if best != given:
        exact = _ExactRing(2)
        if _state_sum(cuts[best], 2, exact) != _state_sum(cuts[given], 2, exact):
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
def _factor_gseries(length: int) -> Dict[LaurentPoly, Tuple[int, ...]]:
    """The g-series of the factors S and B at ``length``, by factor, filled on demand.

    The factors do not depend on the color, and the colors of one D-table
    share one length, so each factor is converted once per D-table; only
    the current length is kept.
    """
    return {}


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


def _gseries_width(entries: List[tuple], pairs: _FactorPairs, length: int) -> int:
    """The digit width W of :func:`_gseries_entry_tables` (see there for the proof).

    One sign bit over max |S|_1 |B|_1 * max(|row(lo)|_inf, |row(hi)|_inf),
    lo and hi the lowest and highest exponents of the entries.
    """
    norm = max(map(pairs.norm, entries))
    lo = min(e[2] + pairs.lo(e) for e in entries)
    hi = max(e[2] + pairs.hi(e) for e in entries)
    peak = max(map(abs, _binom_row(lo, length) + _binom_row(hi, length)))
    return (norm * peak).bit_length() + 1


def _gseries_entry_tables(operators: Sequence[CrossingOperator], length: int,
                          reads: Dict[int, Optional[tuple]]):
    """The distinct coefficients a color's state sum reads, as g-series.

    Built once per color, by :class:`_PackedRing` for the entries its
    word reads (:func:`_read_entries`), and not kept after it; an entry
    that is not read is not converted, and a sign without letters has none.
    ``reads`` maps each sign of the word to None (every entry) or to
    (pairs, singles), the keys read whole and the (i, j, t) read alone.

    An entry c = sgn u^w S B has the g-series sgn row(w) gS gB mod
    g**length, where row(w) = (1+g)**w (:func:`_binom_row`) and gS, gB are
    the factor g-series (:func:`_factor_gseries`).  Packed with g -> 2**W,
    that is one big-integer product, (sgn row(w) (gS gB)) mod 2**(W length),
    and one unpack per distinct coefficient (:func:`_coefficient_key`), from
    one entry of that key; the entries with one key, flip mirrors (module
    docstring) among them, share it.

    Width: c_k, the g**k coefficient of c = sum_e c_e u^e, is
    sum_e c_e C(e, k) with C(e, k) that of (1+g)**e, so
    |c_k| <= |c|_1 max_e |C(e, k)|, and |c|_1 <= |S|_1 |B|_1 (|.|_1 the
    sum of absolute coefficients, which is submultiplicative).
    |C(e, k)| is binom(e, k) for e >= 0 and binom(-e + k - 1, k) for e < 0,
    nondecreasing in |e| on each side of 0, so for every exponent e of
    every entry converted, lo <= e <= hi (the lowest and highest over those
    entries), |C(e, k)| <= max(|C(lo, k)|, |C(hi, k)|).  Hence every
    coefficient is at most P = max |S|_1 |B|_1 * max(|row(lo)|_inf,
    |row(hi)|_inf) in absolute value, and W = bits(P) + 1 leaves a sign
    bit.  As in :class:`_PackedRing`, g -> 2**W mod 2**(W length) is a ring
    map from Z[g]/(g**length), so the reduced product is the image of the
    true truncated series whatever its factors wrap, and the digits
    recover it.

    Returns (coeffs, majorants): ``coeffs`` maps the
    :func:`_coefficient_key` of each entry read to its g-series tuple, and
    ``majorants[sign]`` is the row majorant of that sign (see
    :class:`_PackedRing`), the coefficientwise max of the sum of |c| over
    the entries of each read row: a key read whole, or one entry read
    alone.  With every entry read, the rows are the keys with i + j <= N:
    the flip mirror (N - j, N - i) of a key has the same coefficients
    (module docstring; the premise of :func:`_check_inverse` shows that
    the tables are the closed form, which is flip-symmetric).
    """
    rows = {}  # sign -> the read rows, each a list of (coefficient key, entry)
    for op in operators:
        if op.sign in reads:
            read, N = reads[op.sign], op.alpha - 1
            entry_rows = ([es for (i, j), es in op.table.items() if i + j <= N] if read is None else
                          [op.table[key] for key in read[0]]
                          + [[op.table[(i, j)][t]] for (i, j, t) in read[1]])
            rows[op.sign] = [[(_coefficient_key(e), e) for e in row] for row in entry_rows]
    reps = {ckey: e for sign_rows in rows.values() for row in sign_rows for ckey, e in row}
    if not reps:
        return {}, {}
    pairs = operators[0].pairs
    width = _gseries_width(list(reps.values()), pairs, length)
    mask = (1 << (width * length)) - 1

    binom_rows: Dict[int, Tuple[int, ...]] = {}
    cache = _factor_gseries(length)

    def pack(p: LaurentPoly) -> int:
        series = cache.get(p)
        if series is None:
            series = cache[p] = tuple(_laurent_to_gseries(p, length, binom_rows))
        return _pack(series, width)

    products = _pair_products(reps.values(), pack, mask)
    packed_rows = {w: _pack(_binom_row(w, length), width) for w in {e[2] for e in reps.values()}}
    coeffs = {ckey: tuple(_unpack((esgn * packed_rows[w] * products[s, b]) & mask, width, length))
              for ckey, (_, _, w, s, b, esgn) in reps.items()}
    absolute = {ckey: tuple(map(abs, c)) for ckey, c in coeffs.items()}
    majorants = {}
    for sgn, sign_rows in rows.items():
        majorant = (0,) * length
        for row in sign_rows:
            sums = map(sum, zip(*(absolute[ckey] for ckey, _ in row)))
            majorant = tuple(map(max, majorant, sums))
        majorants[sgn] = majorant
    return coeffs, majorants


def _majorant_series(closure: _Closure, alpha: int, length: int, majorants: dict,
                     framing: int) -> List[int]:
    """The truncated majorant series of :class:`_PackedRing` for ``closure`` at this color.

    prod_letters R_sign * sum_start |u^weight| * |u^(-framing writhe)|
    mod g**length, which bounds every coefficient of the framed g-series.
    """
    bound = [0] * length
    for weight, count in closure.start_weights(alpha).items():
        bound = [x + count * abs(r) for x, r in zip(bound, _binom_row(weight, length))]
    bound = int_series_mul(bound, [abs(r) for r in _binom_row(-framing * closure.writhe, length)],
                           length - 1)
    for step in closure.steps:
        bound = int_series_mul(bound, majorants[step[1]], length - 1)
    return bound


class _PackedRing:
    """Integer series in g = u - 1 mod g**length, Kronecker-packed into one int.

    Each coefficient takes ``bits`` bits in two's complement, and arithmetic
    is integer arithmetic mod 2**(bits * length).

    Only the final coefficients must fit.  The map Z[g]/(g**length) ->
    Z/2**(bits * length), g -> 2**bits, is a ring homomorphism, because
    (2**bits)**length = 0 there; u -> 1 + g is one from Z[u, 1/u] to
    Z[g]/(g**length), since 1 + g is a unit.  Table entries and charge
    monomials are packed as images under the composite, and the masking,
    the sums and the products of :func:`_state_sum` are ring operations on
    those images.  So the packed state sum is the image of the true
    truncated g-series F of the framed invariant, whatever wrapped around
    in between (merged intermediates included), and :meth:`unpack`
    recovers F exactly when every |F_k| < 2**(bits - 1).

    The width bounds F itself by a truncated majorant series over the
    entries the state sum reads.  Write |s| for the coefficientwise
    absolute value of a series and compare series coefficient by
    coefficient; |x y| <= |x| |y| for truncated series.  F is the sum over
    the start vectors of :class:`_Closure` of each one's diagonal amplitude
    times u^weight, framed.  A diagonal amplitude is a sum over paths, one
    entry per letter, that return every slot to its start index.  The
    merged state holds every key such a path passes (a packed state drops
    no key), and at each letter the path takes an entry that
    :func:`_apply_letter` reads at that key: any entry of the key (i, j)
    at a letter that closes no slot, and at a closing letter the one entry
    t that returns the slot, which the walk of :func:`_read_entries`
    records.  Let R_s be the row majorant of :func:`_gseries_entry_tables`,
    the coefficientwise max, over the keys the state holds at a letter of
    sign s, of the sum of |c| over the entries read there.  Then one letter
    multiplies the sum over keys of |path prefixes| by at most R_s.  A start
    vector begins at 1, so

        |F| <= prod_letters R_sign * sum_start |u^weight| * |u^(-framing writhe)|

    truncated at g**length, the weights counted by
    :meth:`_Closure.start_weights`.
    :func:`_majorant_series` evaluates this series, and the width is one
    sign bit over the bit length of its largest coefficient.  It reads R_s
    only for the signs of the word's letters, so the ring converts and
    packs the read entries of those signs alone, and none for a word
    without letters.  The ring packs each distinct coefficient once, keyed
    by :func:`_coefficient_key`, so flip mirrors share one int; an entry
    whose coefficient no read entry has holds None.

    This is the full-table argument over fewer keys and entries: each R_s
    is a max over some of the sums the full table's R_s maxes over, or over
    single entries of them, so no width grows; once the walk has read every
    entry of a sign, that sign's R_s is the full table's.  The full-table
    bound is the same at every cut.  Its series R_sign commute, so a
    rotation leaves their product alone.  The charges pinned at slot f sum
    N - 2s_i over the slots right of f and -(N - 2s_i) over those left of
    it, each s_i in 0..N; s -> N - s maps N - 2s to its negative and
    permutes 0..N, so every pinned slot has slot 0's charges.  The reads,
    and so the width, may differ between cuts, never above that bound.
    """

    zero = 0
    one = 1

    def __init__(self, closure: _Closure, alpha: int, length: int):
        operators = _operator_pair(alpha)
        self.framing = _markov_data(operators)
        signs = {step[1] for step in closure.steps}
        # after the gates, only the word's signs are kept: a one-sign word frees the other table
        operators = [op for op in operators if op.sign in signs]
        reads = _read_entries(closure, alpha, {op.sign: op.table for op in operators})
        coeffs, majorants = _gseries_entry_tables(operators, length, reads)
        self.length = length
        self.bits = max(_majorant_series(closure, alpha, length, majorants, self.framing)).bit_length() + 1
        self.mask = (1 << (self.bits * length)) - 1
        packed = {ckey: self.pack(c) for ckey, c in coeffs.items()}
        self.tables = {op.sign: {key: tuple((e[0], e[1], packed.get(_coefficient_key(e))) for e in es)
                                 for key, es in op.table.items()}
                       for op in operators}
        self._monomials: Dict[int, int] = {}

    def pack(self, coeffs: Iterable[int]) -> int:
        return _pack(coeffs, self.bits) & self.mask

    def charge(self, amp: int, exp: int) -> int:
        v = self._monomials.get(exp)
        if v is None:
            v = self._monomials[exp] = self.pack(_binom_row(exp, self.length))
        return (amp * v) & self.mask

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


# ---------------------------------------------------------------------------
# Truncated h-expansion
# ---------------------------------------------------------------------------


def jones_h_series(b: BraidWord, alpha: int, cap: int,
                   cut: Tuple[int, int] = (0, 0)) -> List[Fraction]:
    """Coefficients of the h-expansion of V_alpha(closure of b) through h**cap.

    The invariant of the exact ring (:class:`_ExactRing`), evaluated in
    the packed truncated ring so large colors stay tractable, by the state
    sum cut open at ``cut`` (see :class:`_Closure`; :func:`_closure_cut`
    picks the cheapest).  Coefficients are certified integers (returned as Fractions
    for uniformity downstream).
    """
    alpha = _knot_color(b, alpha)
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if alpha == 1:
        return [Fraction(1)] + [Fraction(0)] * cap
    closure = _Closure.of(b, cut)
    ring = _PackedRing(closure, alpha, cap + 1)
    return _gseries_to_hseries(ring.unpack(_state_sum(closure, alpha, ring)), alpha, cap)


@lru_cache(maxsize=None)
def _g_to_h_columns(cap: int) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """The substitution g = (1+h)^(1/4) - 1 through h**cap, as integers.

    Returns (den, columns): columns[j][k] / den is the h**j coefficient of
    ((1+h)^(1/4) - 1)**k, for k = 0..cap.
    """
    den, powers = series_powers((0,) + series_pow1p(Fraction(1, 4), cap)[1:], cap)
    return den, tuple(zip(*powers))


def _gseries_to_hseries(gcoeffs: List[int], alpha: int, cap: int) -> List[Fraction]:
    """The h-series through h**cap of color alpha's g-series, certified integral and 1 at h = 0."""
    den, columns = _g_to_h_columns(cap)
    coeffs = []
    for j, column in enumerate(columns):
        value, rest = divmod(sum(map(mul, gcoeffs, column)), den)
        if rest:
            raise ConventionViolationError(
                f"h-expansion produced a non-integer coefficient at alpha={alpha}, h^{j}"
            )
        coeffs.append(Fraction(value))
    if coeffs[0] != 1:
        raise ConventionViolationError(
            f"h-expansion does not start at 1 at alpha={alpha}: its h^0 coefficient is {coeffs[0]}"
        )
    return coeffs


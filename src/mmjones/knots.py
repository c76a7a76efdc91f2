"""Braid words, the knot catalog, and exact Alexander-Conway polynomials.

The Conway polynomial of a braid closure is computed through the reduced
Burau representation: det(Burau(b) - Id) over Z[t, t^-1], divided by
1 + t + ... + t^(s-1), with the unit ambiguity resolved by forcing symmetry
under t -> 1/t and value 1 at t = 1.  The Burau product takes one row
update per letter, and no generator matrix is built.  The result is
rewritten as a polynomial in z by peeling powers of z^2 = t - 2 + 1/t off
the top.  Every Conway polynomial is a ``LaurentPoly`` in z with even
exponents and integer coefficients.

Torus knots additionally get a closed-form Conway polynomial from the
quotient of quantum integers x^k - x^-k, computed by exact Laurent division
in x = t^(1/2).
"""

from __future__ import annotations

import json
import os
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .exactalg import InexactDivisionError, LaurentPoly


class KnotError(Exception):
    """Base class for presentation/catalog failures."""


class NotAKnotError(KnotError):
    """The braid closure has more than one component."""


class PresentationError(KnotError):
    """The Burau determinant could not be unit-normalized as a knot polynomial."""


class InvalidTorusParametersError(KnotError):
    """Torus parameters must be coprime and both of magnitude >= 2."""


class CatalogError(KnotError):
    """Catalog schema violation or a failed validation gate."""


# ---------------------------------------------------------------------------
# Braid words
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    """An ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


class _BraidFields(NamedTuple):
    strands: int
    letters: tuple = ()


class BraidWord(_BraidFields):
    """A word in the braid group B_strands.

    Letter k (nonzero) means the generator with index |k| and sign sign(k);
    generators are 1-based, so 1 <= |k| <= strands - 1.
    """

    __slots__ = ()

    def __new__(cls, strands: int, letters=()) -> BraidWord:
        if not _is_int(strands):
            raise ValueError(f"strands must be an integer, not {strands!r}")
        if strands < 1:
            raise ValueError("strands must be >= 1")
        letters = tuple(letters)
        for k in letters:
            if not _is_int(k):
                raise ValueError(f"letter {k!r} is not an integer")
            if k == 0 or abs(k) > strands - 1:
                raise ValueError(f"letter {k} out of range for {strands} strands")
        return super().__new__(cls, strands, letters)

    def writhe(self) -> int:
        return sum(1 if k > 0 else -1 for k in self.letters)

    def permutation(self) -> list:
        """Image of each strand position under the braid (0-based)."""
        perm = list(range(self.strands))
        for k in self.letters:
            i = abs(k) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return perm

    def closure_component_count(self) -> int:
        perm = self.permutation()
        seen = [False] * self.strands
        cycles = 0
        for start in range(self.strands):
            if seen[start]:
                continue
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
        return cycles

    def is_knot(self) -> bool:
        return self.closure_component_count() == 1


# ---------------------------------------------------------------------------
# Reduced Burau representation and the Conway polynomial
# ---------------------------------------------------------------------------


def reduced_burau(b: BraidWord):
    """Reduced Burau matrix of the whole word (identity for empty words).

    Acts on column vectors of dimension strands - 1 over Z[t, t^-1].  The
    image of a letter on generator i differs from the identity only in row
    i, so each letter, taken on the left, replaces that row of the running
    product (a row outside the matrix counts as zero):

        sigma_i:     row i <- -t row i + t row (i-1) + row (i+1)
        sigma_i^-1:  row i <- -t^-1 row i + row (i-1) + t^-1 row (i+1)

    Each coefficient is a monomial, so the update is three row shifts.
    """
    n = b.strands - 1
    one = LaurentPoly.one("t")
    zero = LaurentPoly.zero("t")
    mat = [[one if r == c else zero for c in range(n)] for r in range(n)]
    for k in b.letters:
        r = abs(k) - 1
        own, prev, nxt = (1, 1, 0) if k > 0 else (-1, 0, -1)
        row = [-x.shift(own) for x in mat[r]]
        if r > 0:
            row = [x + y.shift(prev) for x, y in zip(row, mat[r - 1])]
        if r + 1 < n:
            row = [x + y.shift(nxt) for x, y in zip(row, mat[r + 1])]
        mat[r] = row
    return mat


def _determinant(mat) -> LaurentPoly:
    """Determinant over Z[t, t^-1] by fraction-free (Bareiss) elimination.

    Step k replaces each entry below and right of the pivot by
    (a_ij a_kk - a_ik a_kj) / p, p the previous pivot; Sylvester's identity
    makes that division exact.  A zero pivot is swapped with a lower row
    (negating the result), and a column with no nonzero pivot gives 0.
    """
    n = len(mat)
    if n == 0:
        return LaurentPoly.one("t")
    a = [list(row) for row in mat]
    sign = 1
    prev = LaurentPoly.one("t")
    for k in range(n - 1):
        if a[k][k].is_zero():
            swap = next((r for r in range(k + 1, n) if not a[r][k].is_zero()), None)
            if swap is None:
                return LaurentPoly.zero("t")
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]).exact_div(prev)
        prev = pivot
    return a[n - 1][n - 1] if sign == 1 else -a[n - 1][n - 1]


def symmetric_laurent_to_z2(p: LaurentPoly) -> LaurentPoly:
    """Rewrite a t<->1/t symmetric Laurent polynomial as a polynomial in z^2.

    (z^2)^d = (t - 2 + 1/t)^d is symmetric with top term t^d, so peeling
    c_d (z^2)^d off p for d = top..0, c_d the current t^d coefficient,
    clears t^d and t^-d together and gives the z^2 coefficients c_d, returned
    as a polynomial in z.  A remainder left after t^0 means a peeled power
    was not symmetric; it raises rather than return a polynomial.
    """
    if not p.is_symmetric():
        raise PresentationError("polynomial is not symmetric under t -> 1/t")
    z2 = LaurentPoly("t", {-1: 1, 0: -2, 1: 1})
    powers = [LaurentPoly.one("t")]
    for _ in range(max(p.terms, default=0)):
        powers.append(powers[-1] * z2)
    rest, coeffs = p, []
    for d in reversed(range(len(powers))):
        c = rest.coeff(d)
        if c:
            rest = rest - powers[d] * c
        coeffs.append(c)
    if rest:
        raise PresentationError(f"z^2 peeling left the remainder {rest!r}")
    return LaurentPoly.from_z2_coeffs(reversed(coeffs))


def conway_poly(b: BraidWord) -> LaurentPoly:
    """Conway-normalized Alexander polynomial of the closure of ``b``.

    The closure must be a knot.  The result is a polynomial in z^2 with
    integer coefficients and constant term 1, the value at t = 1 fixed by
    the normalization.
    """
    if not b.is_knot():
        raise NotAKnotError(
            f"closure has {b.closure_component_count()} components, expected 1"
        )
    mat = reduced_burau(b)
    n = b.strands - 1
    one = LaurentPoly.one("t")
    delta = [[mat[i][j] - (one if i == j else LaurentPoly.zero("t")) for j in range(n)] for i in range(n)]
    det = _determinant(delta)
    cyclotomic = LaurentPoly("t", {k: 1 for k in range(b.strands)})
    try:
        quot = det.exact_div(cyclotomic)
    except InexactDivisionError as exc:
        raise PresentationError(f"Burau determinant not divisible: {exc}") from exc
    if quot.is_zero():
        raise PresentationError("vanishing Alexander determinant for a knot closure")
    lo, hi = quot.min_exp(), quot.max_exp()
    if (lo + hi) % 2 != 0:
        raise PresentationError("Alexander polynomial has odd exponent span")
    centered = quot.shift(-(lo + hi) // 2)
    if not centered.is_symmetric():
        raise PresentationError("Alexander polynomial failed to symmetrize")
    at_one = centered.evaluate_at_one()
    if at_one == -1:
        centered = -centered
    elif at_one != 1:
        raise PresentationError(f"Alexander polynomial evaluates to {at_one} at t=1")
    return symmetric_laurent_to_z2(centered)


# ---------------------------------------------------------------------------
# Torus knots
# ---------------------------------------------------------------------------


class _TorusFields(NamedTuple):
    p: int
    q: int


class TorusParams(_TorusFields):
    """Parameters (p, q) of a torus knot; coprime, both of magnitude >= 2."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> TorusParams:
        if abs(p) < 2 or abs(q) < 2:
            raise InvalidTorusParametersError("|p| and |q| must be >= 2")
        if gcd(p, q) != 1:
            raise InvalidTorusParametersError(f"gcd({p},{q}) != 1")
        return super().__new__(cls, p, q)

    def braid(self) -> BraidWord:
        """The standard (sigma_1 ... sigma_(p-1))^q presentation (positive p, q)."""
        p, q = abs(self.p), abs(self.q)
        word = tuple(range(1, p)) * q
        if self.p * self.q < 0:
            word = tuple(-k for k in word)
        return BraidWord(p, word)


def conway_torus(t: TorusParams) -> LaurentPoly:
    """Closed-form Conway polynomial of the (p, q) torus knot.

    Quotient of x-quantum integers in x = t^(1/2):
    (x^pq - x^-pq)(x - x^-1) / ((x^p - x^-p)(x^q - x^-q)), then z^2 = x^2 - 2 + x^-2.
    """
    p, q = abs(t.p), abs(t.q)

    def qint(k: int) -> LaurentPoly:
        return LaurentPoly("x", {k: 1, -k: -1})

    num = qint(p * q) * qint(1)
    den = qint(p) * qint(q)
    quot = num.exact_div(den)
    if not quot.exponents_divisible_by(2):
        raise PresentationError("torus quotient has odd x-powers")
    in_t = quot.compress_exponents(2, "t")
    result = symmetric_laurent_to_z2(in_t)
    if result.coeff(0) != 1:
        raise PresentationError("torus Conway normalization failed")
    return result


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


class _RecordFields(NamedTuple):
    name: str
    braid: BraidWord
    amphicheiral: bool
    expected_conway: Optional[LaurentPoly]
    conway: LaurentPoly


class KnotRecord(_RecordFields):
    """A catalog knot; ``conway`` is computed from the braid and gated."""

    __slots__ = ()

    def __new__(cls, name: str, braid: BraidWord, amphicheiral: bool = False,
                expected_conway: Optional[LaurentPoly] = None) -> KnotRecord:
        if not braid.is_knot():
            raise NotAKnotError(
                f"{name}: braid closes to {braid.closure_component_count()} components"
            )
        computed = conway_poly(braid)
        if expected_conway is not None and computed != expected_conway:
            raise CatalogError(
                f"{name}: computed Conway polynomial {computed!r} does not "
                f"match expected {expected_conway!r}"
            )
        return super().__new__(cls, name, braid, amphicheiral, expected_conway, computed)


# Default braid words.  These are presentation data, not ground truth: the
# Conway gate above and the golden expansion tables in the verification
# suites pin down both the knot type and its chirality.
DEFAULT_CATALOG_ENTRIES = [
    {"name": "unknot", "strands": 1, "braid": [], "amphicheiral": True, "conway": [1]},
    {"name": "3_1", "strands": 2, "braid": [1, 1, 1], "amphicheiral": False, "conway": [1, 1]},
    {"name": "4_1", "strands": 3, "braid": [1, -2, 1, -2], "amphicheiral": True, "conway": [1, -1]},
    {"name": "5_2", "strands": 3, "braid": [-1, -1, -1, -2, 1, -2], "amphicheiral": False, "conway": [1, 2]},
    {"name": "6_1", "strands": 4, "braid": [-1, -1, -2, 1, 3, -2, 3], "amphicheiral": False, "conway": [1, -2]},
    {"name": "8_3", "strands": 5, "braid": [1, 1, 2, -1, -3, 2, -3, -4, 3, -4], "amphicheiral": True, "conway": [1, -4]},
]


# Ceilings on a catalog record, whose Conway gate runs at load, and on the
# records of one catalog, checked before any gate runs (README, Catalog).
STRANDS_CEILING = 32
LETTERS_CEILING = 96
RECORDS_CEILING = 256


def _record_from_dict(obj: dict) -> KnotRecord:
    try:
        name = obj["name"]
        strands = obj["strands"]
        letters = obj["braid"]
    except KeyError as exc:
        raise CatalogError(f"catalog record missing field {exc}") from exc
    if not isinstance(name, str):
        raise CatalogError("catalog 'name' must be a string")
    if not _is_int(strands):
        raise CatalogError(f"{name}: 'strands' must be an integer")
    if not isinstance(letters, list) or not all(map(_is_int, letters)):
        raise CatalogError(f"{name}: 'braid' must be a list of integers")
    # a knot's closure permutation is one strands-cycle: strands - 1 letters at least
    if strands > len(letters) + 1:
        raise CatalogError(
            f"{name}: {strands} strands need at least {strands - 1} letters to close to a knot"
        )
    for n, ceiling, what in ((strands, STRANDS_CEILING, "strands"), (len(letters), LETTERS_CEILING, "letters")):
        if n > ceiling:
            raise CatalogError(f"{name}: {n} {what} exceed the ceiling of {ceiling} {what}")
    amphicheiral = obj.get("amphicheiral", False)
    if not isinstance(amphicheiral, bool):
        raise CatalogError(f"{name}: 'amphicheiral' must be a boolean")
    expected = None
    if "conway" in obj and obj["conway"] is not None:
        coeffs = obj["conway"]
        if not isinstance(coeffs, list) or not all(map(_is_int, coeffs)):
            raise CatalogError(f"{name}: 'conway' must be a list of integers")
        expected = LaurentPoly.from_z2_coeffs(coeffs)
    try:
        braid = BraidWord(strands, tuple(letters))
    except ValueError as exc:
        raise CatalogError(f"{name}: {exc}") from exc
    return KnotRecord(name, braid, amphicheiral, expected)


def load_catalog(source) -> list:
    """Load and validate a knot catalog.

    ``source`` is a parsed list of record dicts or the path (``str`` or
    ``os.PathLike``) of a JSON file holding one; nothing else is accepted.
    A catalog holds at most ``RECORDS_CEILING`` records.  Every record is
    validated: well-formed braid within the strand and letter ceilings,
    single-component closure, and a Conway polynomial match whenever an
    expected polynomial is supplied.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                source = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CatalogError(f"catalog is not valid JSON: {exc}") from exc
        if not isinstance(source, list):
            raise CatalogError("catalog must be a top-level list of records")
    elif not isinstance(source, list):
        raise TypeError(
            f"catalog source must be a list of records or a path, not {type(source).__name__}"
        )
    if len(source) > RECORDS_CEILING:
        raise CatalogError(
            f"{len(source)} records exceed the ceiling of {RECORDS_CEILING} records"
        )
    records = []
    seen = set()
    for obj in source:
        if not isinstance(obj, dict):
            raise CatalogError("catalog records must be objects")
        rec = _record_from_dict(obj)
        if rec.name in seen:
            raise CatalogError(f"duplicate catalog entry {rec.name}")
        seen.add(rec.name)
        records.append(rec)
    return records


def default_catalog() -> list:
    return load_catalog(DEFAULT_CATALOG_ENTRIES)


def catalog_lookup(records: Sequence[KnotRecord], name: str) -> KnotRecord:
    for rec in records:
        if rec.name == name:
            return rec
    raise CatalogError(f"unknown knot {name!r}")

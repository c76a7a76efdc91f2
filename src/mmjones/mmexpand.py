"""Expansion pipeline: D-tables, z-lines, reparametrized lines, approximants.

The colored Jones polynomial of a knot expands as a double series
``sum D[m][n] alpha^(2m) h^n`` with h = q-hat - 1; the coefficients are
recovered exactly by solving, for each power of h, the Vandermonde system
in alpha^2 over the colors alpha = 1..N+1.  The table is then re-expanded
into lines ``V^(n)(z) = sum d^(n)_m z^(2m)`` in the variable
z = q-hat^(alpha/2) - q-hat^(-alpha/2), by two independent routes that must
agree entry-by-entry:

* the substitution route, which rewrites alpha*h through the inverse
  hyperbolic substitution and collects a bi-series in (z, h);
* the basis-change route, which solves the unitriangular change of basis
  between the alpha^(2m) h^n and z^(2m) h^n monomials directly.

A further reparametrization replaces h by the mirror-friendly variable
t = (1+h)^(1/2) - (1+h)^(-1/2) (written ``ht`` in tags); the substitution
series comes from the closed form h = u*t with u = t/2 + sqrt(1 + (t/2)^2),
u the square root of q-hat.

The colors of a D-table share the closure cut that
``_jones_rows`` owns: it picks one with ``cjones._closure_cut`` when some
color is above 3.  It runs the inverse gate's color-free chain for the top
color first, so a D-table runs that chain once.  Each color's ring owns
its operator pair and framing; the color-independent memos of ``cjones``
are the only process caches.

Every series here is a coefficient tuple (see ``exactalg``), and every
product is the one truncated integer product, ``exactalg.int_series_mul``.
Cost of the line routes after the solve, with cap = 2N.  Every change of
variables of the substitution route reads one integer table of the powers
of its substitution series, ``exactalg.series_powers``: O(cap^3) per table,
each power one truncated integer product from the last (the basis-change
route keeps its own power loops through ``exactalg.series_mul``, so it
stays an independent check).  Each D-table builds two tables
once, as cached properties, and every route reads them: ``DTable.z_powers``
(the table of s(z)^2, s = 2 arcsinh(z/2)), read by the bi-series and by the
second route of the bottom-line check, one dot product per z-order, and
``DTable.biseries``, read by the h lines, the ht lines and the first route
of the bottom-line check.  The bi-series is collected one m-row at a time:
D_m(h) times row m of the table of lfac(h)^2 is one truncated integer
product, and its outer product with z-row m is added into an integer grid
over one common denominator, so the collection costs O(N cap^2) products
and each entry becomes a Fraction once.  The ht lines take one dot product
per entry against the table of the substitution series, O(N cap^2) after
the table.  An approximant runs in w = z^2: its line row over one
denominator, times one Conway factor per unit of the exponent.  The
bottom-line check multiplies the integer numerators of both of its routes
by the Conway coefficients and compares each product with its denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from operator import add, mul
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .cjones import _check_color_free, _closure_cut, jones_h_series
from .exactalg import (
    GateError,
    LaurentPoly,
    int_series_mul,
    over_common_den,
    series_inverse,
    series_log1p,
    series_mul,
    series_powers,
    series_two_arcsinh_half,
    series_u,
    solve_linear_system,
)
from .knots import BraidWord, KnotRecord, NotAKnotError


class ModelViolationError(GateError):
    """The solved table violates a structural identity (vanishing, fit, parity)."""


class OutOfRangeError(ValueError):
    """A requested line or entry lies beyond what the truncation knows."""


ZERO = Fraction(0)
ONE = Fraction(1)


def _braid_of(knot: Union[KnotRecord, BraidWord]) -> BraidWord:
    return knot.braid if isinstance(knot, KnotRecord) else knot


# ---------------------------------------------------------------------------
# D-table
# ---------------------------------------------------------------------------


class _DTableFields(NamedTuple):
    N: int
    entries: tuple  # entries[m][n]


class DTable(_DTableFields):
    """Exact coefficients D[m][n] of alpha^(2m) h^n, 0 <= m <= N, 0 <= n <= 2N.

    Not slotted, so that the cached properties have an instance dict.
    """

    def entry(self, m: int, n: int) -> Fraction:
        if not (0 <= m <= self.N and 0 <= n <= 2 * self.N):
            raise OutOfRangeError(f"D[{m}][{n}] outside the (N={self.N}) budget")
        return self.entries[m][n]

    def boundary_coeffs(self) -> List[Fraction]:
        """The diagonal D[m][2m], m = 0..N."""
        return [self.entries[m][2 * m] for m in range(self.N + 1)]

    @cached_property
    def z_powers(self) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
        """(den, powers): powers[m] / den is s(z)^(2m) through z^(2N), m = 0..N.

        s = 2 arcsinh(z/2); built once and read by the bi-series and the
        bottom-line check.
        """
        s = series_two_arcsinh_half(2 * self.N)
        return series_powers(series_mul(s, s, 2 * self.N), self.N)

    @cached_property
    def biseries(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """The collected (z, h) bi-series, built once and read by every line route.

        ``biseries[zdeg][hdeg]`` is the coefficient of z^zdeg h^hdeg, both
        degrees through 2N.
        """
        return _z_h_biseries(self)


def _jones_rows(b: BraidWord, alphas: Sequence[int], cap: int):
    """The h-series of every color, all at the one closure cut of the D-table.

    The inverse gate's color-free chain runs first, for the top color, so
    the D-table runs it once and every other color reads its memo.
    """
    _check_color_free(max(alphas) - 1)
    # the cut search costs more than it saves when no color is above 3
    cut = _closure_cut(b) if max(alphas) > 3 else (0, 0)
    return [jones_h_series(b, alpha, cap, cut) for alpha in alphas]


def build_dtable(knot: Union[KnotRecord, BraidWord], N: int) -> DTable:
    """Solve for the D-table of a knot at order budget N.

    Evaluates the h-expansion of the colored Jones polynomial to order 2N
    for the colors alpha = 1..N+1, then for each h-order solves the square
    Vandermonde system in alpha^2 exactly.  Theorem-level structure is
    asserted after the solve: entries with 2m > n vanish and D[0][0] = 1.
    A gate failure names the knot, a catalog record by its name and a bare
    braid word by its repr, with its type kept.  A link is rejected, named
    the same way, before any color runs.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    b = _braid_of(knot)
    if not b.is_knot():
        raise NotAKnotError(
            f"{b!r}: closure has {b.closure_component_count()} components, expected 1")
    try:
        cap = 2 * N
        alphas = list(range(1, N + 2))
        rows = _jones_rows(b, alphas, cap)
        matrix = [[Fraction(a * a) ** m for m in range(N + 1)] for a in alphas]
        rhs = [[row[n] for row in rows] for n in range(cap + 1)]
        sols = solve_linear_system(matrix, rhs)
        entries = [[sols[n][m] for n in range(cap + 1)] for m in range(N + 1)]
        for n in range(cap + 1):
            for m in range(N + 1):
                if 2 * m > n and entries[m][n] != 0:
                    raise ModelViolationError(
                        f"vanishing violated: D[{m}][{n}] = {entries[m][n]} with 2m > n"
                    )
        if entries[0][0] != 1:
            raise ModelViolationError(f"D[0][0] = {entries[0][0]}, expected 1")
    except GateError as exc:
        name = knot.name if isinstance(knot, KnotRecord) else repr(knot)
        raise type(exc)(f"{name}: {exc}") from exc
    return DTable(N, tuple(tuple(row) for row in entries))


# ---------------------------------------------------------------------------
# Line tables
# ---------------------------------------------------------------------------


class LineTable(NamedTuple):
    """Exact line coefficients d^(n)_m, emitted only inside the valid range.

    ``tag`` is 'h' for the plain expansion variable and 'ht' for the
    mirror-friendly reparametrization.  ``width`` states the valid range
    and ``build`` lays a table out over it, for every route and parser.
    """

    N: int
    tag: str
    rows: tuple  # rows[n] = tuple of coefficients for m = 0..width(N, n) - 1

    @staticmethod
    def width(N: int, n: int) -> int:
        """The number of entries of line n at budget N: m = 0..N - ceil(n/2)."""
        return N - (n + 1) // 2 + 1

    @classmethod
    def build(cls, N: int, tag: str, value: Callable[[int, int], Fraction]) -> LineTable:
        """The table whose entry (n, m) is ``value(n, m)``, over the valid range."""
        return cls(N, tag, tuple(tuple(value(n, m) for m in range(cls.width(N, n)))
                                 for n in range(2 * N + 1)))

    def row(self, n: int) -> Tuple[Fraction, ...]:
        if not (0 <= n <= 2 * self.N):
            raise OutOfRangeError(f"line {n} outside budget 2N = {2 * self.N}")
        return self.rows[n]

    def entry(self, n: int, m: int) -> Fraction:
        row = self.row(n)
        if not 0 <= m < len(row):
            raise OutOfRangeError(
                f"d^({n})_{m} is outside the truncation (0 <= m <= {len(row) - 1})"
            )
        return row[m]


def _h_over_log1p(cap: int) -> Tuple[Fraction, ...]:
    # log(1+h)/h = sum (-1)^n h^n/(n+1); invert to get h/log(1+h)
    return series_inverse([Fraction((-1) ** n, n + 1) for n in range(cap + 1)])


def to_z_lines(d: DTable) -> LineTable:
    """Re-expand the D-table in (z, h) through the hyperbolic substitution.

    alpha*h is replaced by s(z) * h/log(1+h) with s the odd series
    2*arcsinh(z/2); the resulting bi-series is collected and read off line
    by line.  Only even z-powers may appear.
    """
    bi = d.biseries
    return LineTable.build(d.N, "h", lambda n, m: bi[2 * m][n])


def z_lines_by_basis_change(d: DTable) -> LineTable:
    """Independent route: triangular change of basis between monomial families.

    Expands z^(2m) h^n in the alpha^(2j) h^k basis using
    z = (1+h)^(alpha/2) - (1+h)^(-alpha/2) and back-solves the unitriangular
    system; serves as the oracle for :func:`to_z_lines`.
    """
    N = d.N
    cap = 2 * N

    def accumulate(table, j, term):
        table[j] = tuple(map(add, table[j], term)) if j in table else term

    half_log = tuple(c / 2 for c in series_log1p(cap))
    half_log_sq = series_mul(half_log, half_log, cap)
    # z = sum_i c_i(h) alpha^(2i+1),  c_i = 2 * half_log^(2i+1) / (2i+1)!
    c = []
    power = half_log
    for i in range(N + 1):
        c.append(tuple(x * Fraction(2, factorial(2 * i + 1)) for x in power))
        power = series_mul(power, half_log_sq, cap)
    # z^2 as a polynomial in alpha^2 with series coefficients
    z2 = {}
    for a in range(len(c)):
        for bidx in range(len(c)):
            j = a + bidx + 1
            if j <= N:
                accumulate(z2, j, series_mul(c[a], c[bidx], cap))
    # powers[m][j] = alpha^(2j)-coefficient series of z^(2m)
    powers = [{0: (ONE,) + (ZERO,) * cap}]
    for m in range(1, N + 1):
        new = {}
        for j1, s1 in powers[-1].items():
            for j2, s2 in z2.items():
                if j1 + j2 <= N:
                    accumulate(new, j1 + j2, series_mul(s1, s2, cap))
        powers.append(new)
    solved: Dict[Tuple[int, int], Fraction] = {}
    for level in range(cap + 1):  # level = n + 2m = k at the diagonal
        for j in range(min(N, level // 2) + 1):
            k = level
            n_diag = k - 2 * j
            acc = d.entries[j][k]
            for m in range(j + 1):
                pm = powers[m].get(j)
                if pm is None:
                    continue
                for n in range(0, k - 2 * j + 1):
                    if m == j and n == n_diag:
                        continue
                    val = solved.get((n, m))
                    if val is None or val == 0:
                        continue
                    acc -= val * pm[k - n]
            solved[(n_diag, j)] = acc
    return LineTable.build(N, "h", lambda n, m: solved[(n, m)])


def reparam_series(cap: int) -> Tuple[Fraction, ...]:
    """h as a series in the mirror-friendly variable t (tagged 'ht').

    From u = t/2 + sqrt(1 + (t/2)^2) = (1+h)^(1/2): h = u*t = t^2/2 + t*sqrt(1+(t/2)^2).
    """
    return (ZERO,) + series_u(cap)[:cap]


def to_htilde_lines(d: DTable) -> LineTable:
    """Re-expand the same bi-series with h written in the mirror variable.

    Each z-row of the (z, h) bi-series is only valid through h-order
    2(N - m); the substitution series has valuation 1, so validity is
    preserved row by row and the emitted ranges match the h-table's.
    Every row reads one table of the powers sub^k of the substitution,
    integers over one common denominator: the t^n coefficient of row m is
    sum_k row[k] sub^k[n], k <= n, one integer dot product per entry.
    """
    N = d.N
    cap = 2 * N
    zl = d.biseries
    den, powers = series_powers(reparam_series(cap), cap)
    # columns[n][k]: the t^n coefficient of sub^k, times den
    columns = list(zip(*powers))
    rows_by_m: List[List[Fraction]] = []
    for m in range(N + 1):
        row_den, row = over_common_den(zl[2 * m][: 2 * (N - m) + 1])
        rows_by_m.append([Fraction(sum(map(mul, row, column)), row_den * den)
                          for column in columns[: len(row)]])
    return LineTable.build(N, "ht", lambda n, m: rows_by_m[m][n])


def _z_h_biseries(d: DTable) -> Tuple[Tuple[Fraction, ...], ...]:
    """The collected (z, h) bi-series; read it through ``DTable.biseries``.

    Row m of the D-table contributes s(z)^(2m) H_m(h), with
    H_m = D_m(h) lfac(h)^(2m) and D_m(h) = sum_n D[m][n+2m] h^n: one
    truncated h-product per m, then the outer product with the shared
    z-power row ``DTable.z_powers[1][m]``.  The powers of s^2 and of
    lfac^2 are integer tables over one denominator each
    (:func:`series_powers`), D_m over its own, and the grid sums the outer
    products as integers over one common denominator, so each entry becomes
    a Fraction once.
    """
    N = d.N
    cap = 2 * N
    lfac = _h_over_log1p(cap)
    z_den, z_rows = d.z_powers
    l_den, l_rows = series_powers(series_mul(lfac, lfac, cap), N)
    d_rows = [over_common_den(d.entries[m][2 * m:]) for m in range(N + 1)]
    d_den = lcm(*(row_den for row_den, _ in d_rows))
    grid = [[0] * (cap + 1) for _ in range(cap + 1)]
    for (row_den, row), zs, ls in zip(d_rows, z_rows, l_rows):
        hs = int_series_mul(row, ls, cap)
        scale = d_den // row_den
        for grid_row, a in zip(grid, zs):
            if a:
                a *= scale
                for hd, b in enumerate(hs):
                    grid_row[hd] += a * b
    den = z_den * l_den * d_den
    for zdeg in range(1, cap + 1, 2):
        if any(grid[zdeg]):
            raise ModelViolationError(
                f"odd z-powers appeared in the line collection: z^{zdeg} at N={N}"
            )
    return tuple(tuple(Fraction(v, den) for v in row) for row in grid)


# ---------------------------------------------------------------------------
# Structure checks
# ---------------------------------------------------------------------------


class BottomLineReport(NamedTuple):
    """Result of the bottom-line identity checks against the Conway polynomial."""

    order: int
    line_route_failures: tuple
    substitution_route_failures: tuple

    @property
    def passed(self) -> bool:
        return not self.line_route_failures and not self.substitution_route_failures


def bottom_line_check(d: DTable, conway: LaurentPoly) -> BottomLineReport:
    """Verify that the bottom line is the inverse Conway polynomial.

    Two routes must both give 1 through the available order: the bottom
    line (the h^0 column of the shared bi-series) multiplied by the Conway
    polynomial, and the boundary D[m][2m] coefficients composed with the
    odd substitution series directly.
    """
    cap = 2 * d.N
    conway_coeffs = [conway.coeff(e) for e in range(cap + 1)]

    def failures(den: int, nums: Sequence[int]) -> tuple:
        # nums / den times the Conway polynomial must be 1 through z^cap
        prod = int_series_mul(nums, conway_coeffs, cap)
        return tuple(k for k, c in enumerate(prod) if c != (den if k == 0 else 0))

    z_den, z_rows = d.z_powers
    b_den, bs = over_common_den(d.boundary_coeffs())
    return BottomLineReport(
        cap,
        failures(*over_common_den([row[0] for row in d.biseries])),
        failures(b_den * z_den, [sum(map(mul, bs, column)) for column in zip(*z_rows)]),
    )


class IntegralityReport(NamedTuple):
    """Non-integer line entries, with their table position."""

    tag: str
    informational: bool
    violations: tuple  # (n, m, Fraction)

    @property
    def all_integer(self) -> bool:
        return not self.violations


def integrality_report(lines: LineTable, amphicheiral: bool = False) -> IntegralityReport:
    """List every non-integer entry of a line table.

    For the reparametrized table of a non-amphicheiral knot, fractional
    entries are expected and reported as informational rather than as
    violations of the integrality conjecture.
    """
    violations = []
    for n in range(2 * lines.N + 1):
        for m, value in enumerate(lines.row(n)):
            if value.denominator != 1:
                violations.append((n, m, value))
    informational = lines.tag == "ht" and not amphicheiral
    return IntegralityReport(lines.tag, informational, tuple(violations))


# ---------------------------------------------------------------------------
# Approximate numerator polynomials
# ---------------------------------------------------------------------------


class ApproxPoly(NamedTuple):
    """Truncated line times a Conway power, split into head and residual window.

    ``head`` covers even z-degrees up to the structural degree bound
    (exponent - 1) * deg(Conway); ``residual_window`` covers the remaining
    computable orders.  ``stabilized`` is True when the window is nonempty
    and exactly zero, False when some window entry is nonzero, and None
    (inconclusive) when the truncation leaves no window at all.
    """

    n: int
    exponent: int
    head: tuple  # coefficients of z^0, z^2, ... up to the head bound
    residual_window: tuple  # coefficients beyond the head, through the guarantee
    guaranteed_order: int

    @property
    def stabilized(self) -> Optional[bool]:
        if not self.residual_window:
            return None
        return all(c == 0 for c in self.residual_window)


def _allowed_exponents(n: int) -> list:
    """The approximant exponents of line n: 2n+1, then 3(n/2)+1 when n is even."""
    allowed = [2 * n + 1]
    if n % 2 == 0:
        allowed.append(3 * (n // 2) + 1)
    return allowed


def approx_poly(lines: LineTable, conway: LaurentPoly, n: int, exponent: int) -> ApproxPoly:
    """Multiply the truncated line n by conway**exponent and split the result.

    The product is only trustworthy through the order guaranteed by the
    truncation (twice the largest available m); coefficients beyond the
    structural degree bound but inside the guarantee form the residual
    window, which is exactly zero whenever the line is the expansion of a
    rational function with the matching denominator power.  Line and
    Conway polynomial are even, so the product runs in w = z^2: the row
    over its common denominator, times ``exponent`` Conway factors.
    """
    if n > 2 * lines.N:
        raise OutOfRangeError(f"line {n} beyond budget 2N = {2 * lines.N}")
    if exponent not in _allowed_exponents(n):
        raise ValueError(
            f"exponent {exponent} not in {{2n+1, 3(n/2)+1}} for line {n}"
        )
    row = lines.row(n)
    w_cap = len(row) - 1
    guaranteed = 2 * w_cap
    conway_w = [conway.coeff(2 * j) for j in range(w_cap + 1)]
    row_den, prod = over_common_den(row)
    for _ in range(exponent):
        prod = int_series_mul(prod, conway_w, w_cap)
    coeffs = tuple(Fraction(c, row_den) for c in prod)
    split = min((exponent - 1) * conway.max_exp(), guaranteed) // 2 + 1
    return ApproxPoly(n, exponent, coeffs[:split], coeffs[split:], guaranteed)

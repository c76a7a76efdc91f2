"""Exact scalar, Laurent polynomial and truncated-series arithmetic.

Everything here is immutable after construction and computes over exact
rationals (``fractions.Fraction``) or exact integers.  No floats anywhere.

Conventions used throughout the package:

* ``LaurentPoly`` is an integer-coefficient Laurent polynomial in a single
  formal variable identified by a short tag ('q', 'u', 't', 'x', 'z').  It
  is also the one polynomial type the package returns: a Conway polynomial
  or a torus line numerator is a ``LaurentPoly`` in z with even exponents
  (:meth:`LaurentPoly.from_z2_coeffs`).
* ``TruncSeries`` is a power series truncated at a fixed cap; arithmetic
  never reports coefficients beyond the minimum cap of its operands.
* An integer series is integers over one common denominator; every change
  of variables on the main line reads one power table (:func:`series_powers`,
  built with the one truncated integer product :func:`int_series_mul`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, List, Sequence, Tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


class GateError(Exception):
    """A runtime gate failed: an identity every correct result satisfies does not hold.

    The base of the gate failures of every layer; the CLI exits with status 3
    on it.
    """


class ExactAlgError(GateError):
    """Base class for arithmetic-layer failures."""


class CompositionError(ExactAlgError):
    """Series composition with an inner series of nonzero constant term."""


class InexactDivisionError(ExactAlgError):
    """A division that was required to be exact left a remainder."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# Laurent polynomials over Z
# ---------------------------------------------------------------------------


class LaurentPoly:
    """Finitely supported Laurent polynomial with integer coefficients.

    Stored as a map exponent -> coefficient with no zero entries.  The
    variable tag is carried along and mixed-variable arithmetic is refused.
    """

    __slots__ = ("var", "terms")

    def __init__(self, var: str, terms=None):
        self.var = var
        clean = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(c, int):
                    raise TypeError("Laurent coefficients must be int")
                if c:
                    clean[int(e)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, var: str) -> "LaurentPoly":
        return cls(var, {})

    @classmethod
    def one(cls, var: str) -> "LaurentPoly":
        return cls(var, {0: 1})

    @classmethod
    def monomial(cls, var: str, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls(var, {exp: coeff})

    @classmethod
    def from_z2_coeffs(cls, coeffs: Iterable[int]) -> "LaurentPoly":
        """The polynomial in z with coefficient coeffs[d] at z^(2d)."""
        return cls("z", {2 * d: c for d, c in enumerate(coeffs)})

    # -- predicates / accessors ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exp: int) -> int:
        return self.terms.get(exp, 0)

    def min_exp(self) -> int:
        return min(self.terms)

    def max_exp(self) -> int:
        return max(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.var == other.var
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.var, tuple(sorted(self.terms.items()))))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations ------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(self.var, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.var, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly(self.var, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly(self.var, out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by var**k."""
        return LaurentPoly(self.var, {e + k: c for e, c in self.terms.items()})

    def exponents_divisible_by(self, k: int) -> bool:
        return all(e % k == 0 for e in self.terms)

    def compress_exponents(self, k: int, var: str) -> "LaurentPoly":
        """Substitute var**k -> new variable; all exponents must be multiples of k."""
        if not self.exponents_divisible_by(k):
            raise InexactDivisionError(f"exponents not all divisible by {k}")
        return LaurentPoly(var, {e // k: c for e, c in self.terms.items()})

    def is_symmetric(self) -> bool:
        """True iff invariant under var -> var**-1."""
        return all(self.terms.get(-e, 0) == c for e, c in self.terms.items())

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in Z[var, var**-1]; raises if a remainder is left."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("Laurent division by zero")
        if self.is_zero():
            return LaurentPoly.zero(self.var)
        # shift so both are honest polynomials with nonzero constant term
        rem = dict(self.shift(-self.min_exp()).terms)
        den = other.shift(-other.min_exp())
        shift_back = self.min_exp() - other.min_exp()
        dlead = den.max_exp()
        dlc = den.terms[dlead]
        quot: dict = {}
        while rem:
            rlead = max(rem)
            if rlead < dlead:
                raise InexactDivisionError("inexact Laurent division")
            q, r = divmod(rem[rlead], dlc)
            if r:
                raise InexactDivisionError("inexact Laurent division (leading coeff)")
            qe = rlead - dlead
            quot[qe] = quot.get(qe, 0) + q
            for e, c in den.terms.items():
                ne = e + qe
                s = rem.get(ne, 0) - c * q
                if s:
                    rem[ne] = s
                else:
                    rem.pop(ne, None)
        return LaurentPoly(self.var, quot).shift(shift_back)

    def evaluate_at_one(self) -> int:
        return sum(self.terms.values())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                bits.append(f"{c}")
            elif e == 1:
                bits.append(f"{c}*{self.var}")
            else:
                bits.append(f"{c}*{self.var}^{e}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# Exact linear solving (rational Gaussian elimination)
# ---------------------------------------------------------------------------


def solve_linear_system(matrix: Sequence[Sequence], rhs_columns: Sequence[Sequence]):
    """Solve A x = b for several right-hand sides with exact rationals.

    ``matrix`` is square; ``rhs_columns`` is a list of right-hand-side
    vectors.  Returns the list of solution vectors.  Raises
    ``ExactAlgError`` on a singular matrix.
    """
    n = len(matrix)
    a = [[_frac(v) for v in row] for row in matrix]
    bs = [[_frac(v) for v in col] for col in rhs_columns]
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if any(len(col) != n for col in bs):
        raise ValueError("rhs length mismatch")
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ExactAlgError("singular linear system")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            for b in bs:
                b[col], b[piv] = b[piv], b[col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f == 0:
                continue
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
            for b in bs:
                b[r] -= f * b[col]
    sols = []
    for b in bs:
        x = [_ZERO] * n
        for r in range(n - 1, -1, -1):
            s = b[r]
            row = a[r]
            for c in range(r + 1, n):
                s -= row[c] * x[c]
            x[r] = s / row[r]
        sols.append(x)
    return sols


# ---------------------------------------------------------------------------
# Truncated power series over Q
# ---------------------------------------------------------------------------


class TruncSeries:
    """Power series truncated at ``cap`` (highest retained power).

    Arithmetic propagates the minimum cap of the operands, so an operation
    never fabricates coefficients its inputs do not know.
    """

    __slots__ = ("var", "cap", "coeffs")

    def __init__(self, var: str, cap: int, coeffs: Iterable = ()):
        if cap < 0:
            raise ValueError("cap must be >= 0")
        cs = [_frac(c) for c in coeffs]
        if len(cs) > cap + 1:
            cs = cs[: cap + 1]
        cs += [_ZERO] * (cap + 1 - len(cs))
        self.var = var
        self.cap = cap
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, var: str, cap: int, value) -> "TruncSeries":
        return cls(var, cap, (value,))

    @classmethod
    def identity(cls, var: str, cap: int) -> "TruncSeries":
        return cls(var, cap, (0, 1))

    def coeff(self, k: int) -> Fraction:
        if k < 0:
            return _ZERO
        if k > self.cap:
            raise IndexError(f"coefficient {k} beyond cap {self.cap}")
        return self.coeffs[k]

    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.var == other.var
            and self.cap == other.cap
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.cap, self.coeffs))

    def _check(self, other: "TruncSeries"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def truncate(self, cap: int) -> "TruncSeries":
        if cap > self.cap:
            raise ValueError("truncate cannot extend knowledge; use pad_exact")
        if cap == self.cap:
            return self
        return TruncSeries(self.var, cap, self.coeffs[: cap + 1])

    def pad_exact(self, cap: int) -> "TruncSeries":
        """Extend the cap, declaring the tail exactly zero.

        Only valid when the series is known to be an exact polynomial
        (e.g. a finite binomial expansion); the caller asserts that.
        """
        if cap < self.cap:
            return self.truncate(cap)
        return TruncSeries(self.var, cap, self.coeffs)

    def __add__(self, other) -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            out = list(self.coeffs)
            out[0] += _frac(other)
            return TruncSeries(self.var, self.cap, out)
        self._check(other)
        cap = min(self.cap, other.cap)
        return TruncSeries(
            self.var, cap, [self.coeffs[k] + other.coeffs[k] for k in range(cap + 1)]
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.var, self.cap, [-c for c in self.coeffs])

    def __sub__(self, other) -> "TruncSeries":
        return self + (-other if isinstance(other, TruncSeries) else -_frac(other))

    def __mul__(self, other) -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            o = _frac(other)
            return TruncSeries(self.var, self.cap, [c * o for c in self.coeffs])
        self._check(other)
        cap = min(self.cap, other.cap)
        out = [_ZERO] * (cap + 1)
        for i, a in enumerate(self.coeffs[: cap + 1]):
            if a == 0:
                continue
            for j in range(cap + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncSeries(self.var, cap, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "TruncSeries":
        if k < 0:
            return self.invert() ** (-k)
        out = TruncSeries.constant(self.var, self.cap, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ExactAlgError("cannot invert a series with zero constant term")
        inv0 = 1 / c0
        out = [inv0] + [_ZERO] * self.cap
        for k in range(1, self.cap + 1):
            s = _ZERO
            for j in range(1, k + 1):
                if self.coeffs[j]:
                    s += self.coeffs[j] * out[k - j]
            out[k] = -inv0 * s
        return TruncSeries(self.var, self.cap, out)

    def __repr__(self) -> str:
        bits = [
            f"{c}*{self.var}^{k}" for k, c in enumerate(self.coeffs) if c != 0
        ]
        body = " + ".join(bits) if bits else "0"
        return f"{body} + O({self.var}^{self.cap + 1})"


def series_log1p(cap: int, var: str = "h") -> TruncSeries:
    """log(1 + h) truncated at ``cap``."""
    coeffs = [_ZERO] + [Fraction((-1) ** (n + 1), n) for n in range(1, cap + 1)]
    return TruncSeries(var, cap, coeffs)


def series_pow1p(c, cap: int, var: str = "h") -> TruncSeries:
    """(1 + h)**c as a binomial series with rational exponent c."""
    c = _frac(c)
    coeffs = [_ONE]
    acc = _ONE
    for k in range(1, cap + 1):
        acc = acc * (c - (k - 1)) / k
        coeffs.append(acc)
    return TruncSeries(var, cap, coeffs)


def series_two_arcsinh_half(cap: int, var: str = "z") -> TruncSeries:
    """2*log(sqrt(1 + (z/2)^2) + z/2) truncated at ``cap``.

    Built from the square-root binomial series and the logarithm series,
    so it stays independent of the term-wise-integration identity used as
    an oracle in the tests.
    """
    # inner = sqrt(1 + (z/2)^2) + z/2 - 1, a series with zero constant term
    half_sq = TruncSeries(var, cap, [_ZERO, _ZERO, Fraction(1, 4)])
    root = series_compose(series_pow1p(Fraction(1, 2), cap, var="_t"), half_sq)
    inner = root + TruncSeries(var, cap, [_ZERO, Fraction(1, 2)]) - 1
    return 2 * series_compose(series_log1p(cap, var="_t"), inner)


def series_compose(outer: TruncSeries, inner: TruncSeries) -> TruncSeries:
    """Formal composition outer(inner); inner must have zero constant term.

    The n-th coefficient is one integer dot product of the outer
    coefficients with the n-th coefficients of the powers of inner
    (:func:`series_powers`).
    """
    if inner.constant_term() != 0:
        raise CompositionError("inner series must have zero constant term")
    cap = min(outer.cap, inner.cap)
    den, powers = series_powers(inner.truncate(cap), cap)
    outer_den, outs = over_common_den(outer.coeffs[: cap + 1])
    return TruncSeries(inner.var, cap, [Fraction(sum(map(mul, outs, column)), outer_den * den)
                                        for column in zip(*powers)])


def over_common_den(coeffs: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """(den, ints) with coeffs[i] = ints[i] / den, den the lcm of the denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def int_series_mul(x: Sequence[int], y: Sequence[int], cap: int) -> List[int]:
    """The integer series x * y through the power ``cap``."""
    out = [0] * (cap + 1)
    for i, a in enumerate(x[: cap + 1]):
        if a:
            for j, b in enumerate(y[: cap + 1 - i], i):
                out[j] += a * b
    return out


def series_powers(s: TruncSeries, count: int) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """(den, powers): powers[k] / den is s**k through s.cap, for k = 0..count.

    Each power is one reduced integer product from the previous one.  The
    table is immutable, so callers may cache and share it.
    """
    s_den, s_ints = over_common_den(s.coeffs)
    reduced = [(1, [1] + [0] * s.cap)]
    for _ in range(count):
        p_den, p = reduced[-1]
        out = int_series_mul(p, s_ints, s.cap)
        g = gcd(p_den * s_den, *out)
        reduced.append((p_den * s_den // g, [c // g for c in out]))
    den = lcm(*(p_den for p_den, _ in reduced))
    return den, tuple(tuple(c * (den // p_den) for c in p) for p_den, p in reduced)

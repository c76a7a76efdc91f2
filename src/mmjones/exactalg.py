"""Exact scalar, Laurent polynomial and truncated-series arithmetic.

Everything here is immutable after construction and computes over exact
rationals (``fractions.Fraction``) or exact integers.  No floats anywhere.

Conventions used throughout the package:

* ``LaurentPoly`` is an integer-coefficient Laurent polynomial in a single
  formal variable identified by a short tag ('q', 'u', 't', 'x', 'z').  It
  is also the one polynomial type the package returns: a Conway polynomial
  or a torus line numerator is a ``LaurentPoly`` in z with even exponents
  (:meth:`LaurentPoly.from_z2_coeffs`).
* A truncated power series is the tuple of its coefficients through its
  cap, so ``len(s) - 1`` is the highest power it knows.  The one truncated
  product is the integer :func:`int_series_mul`, over common denominators
  (:func:`over_common_den`); :func:`series_mul` and :func:`series_powers`
  read it.  Every change of variables on the main line reads one power
  table (:func:`series_powers`).
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


def series_mul(x: Sequence[Fraction], y: Sequence[Fraction], cap: int) -> Tuple[Fraction, ...]:
    """The series x * y through the power ``cap``: one integer product."""
    x_den, xs = over_common_den(x)
    y_den, ys = over_common_den(y)
    den = x_den * y_den
    return tuple(Fraction(c, den) for c in int_series_mul(xs, ys, cap))


def series_inverse(x: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """1 / x through the cap of x; x must have a nonzero constant term.

    With x = xs / den and a = xs[0], the k-th coefficient of 1 / x is
    den * ys[k] / a**(k+1), where ys[0] = 1 and
    ys[k] = -sum_{i=1..k} xs[i] a**(i-1) ys[k-i], all integers.
    """
    den, xs = over_common_den(x)
    a = xs[0]
    if a == 0:
        raise ExactAlgError("cannot invert a series with zero constant term")
    ys = [1]
    for k in range(1, len(xs)):
        ys.append(-sum(xs[i] * a ** (i - 1) * ys[k - i] for i in range(1, k + 1)))
    return tuple(Fraction(den * y, a ** (k + 1)) for k, y in enumerate(ys))


def series_powers(s: Sequence[Fraction], count: int) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """(den, powers): powers[k] / den is s**k through the cap of s, for k = 0..count.

    Each power is one reduced integer product from the previous one.  The
    table is immutable, so callers may cache and share it.
    """
    cap = len(s) - 1
    s_den, s_ints = over_common_den(s)
    reduced = [(1, [1] + [0] * cap)]
    for _ in range(count):
        p_den, p = reduced[-1]
        out = int_series_mul(p, s_ints, cap)
        g = gcd(p_den * s_den, *out)
        reduced.append((p_den * s_den // g, [c // g for c in out]))
    den = lcm(*(p_den for p_den, _ in reduced))
    return den, tuple(tuple(c * (den // p_den) for c in p) for p_den, p in reduced)


def series_compose(outer: Sequence[Fraction], inner: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Formal composition outer(inner); inner must have zero constant term.

    The result runs through the smaller of the two caps.  The n-th
    coefficient is one integer dot product of the outer coefficients with
    the n-th coefficients of the powers of inner (:func:`series_powers`).
    """
    if inner[0] != 0:
        raise CompositionError("inner series must have zero constant term")
    cap = min(len(outer), len(inner)) - 1
    den, powers = series_powers(inner[: cap + 1], cap)
    outer_den, outs = over_common_den(outer[: cap + 1])
    return tuple(Fraction(sum(map(mul, outs, column)), outer_den * den) for column in zip(*powers))


def series_log1p(cap: int) -> Tuple[Fraction, ...]:
    """log(1 + h) truncated at ``cap``."""
    return (_ZERO,) + tuple(Fraction((-1) ** (n + 1), n) for n in range(1, cap + 1))


def series_pow1p(c, cap: int) -> Tuple[Fraction, ...]:
    """(1 + h)**c as a binomial series with rational exponent c."""
    c = _frac(c)
    coeffs = [_ONE]
    acc = _ONE
    for k in range(1, cap + 1):
        acc = acc * (c - (k - 1)) / k
        coeffs.append(acc)
    return tuple(coeffs)


def series_u(cap: int) -> Tuple[Fraction, ...]:
    """u(x) = x/2 + sqrt(1 + (x/2)^2) through ``cap``: the root of u - 1/u = x with u(0) = 1.

    With x = z it is q-hat^(alpha/2); with x = t it is (1 + h)^(1/2), so
    h = u*t.
    """
    quarter_sq = tuple(Fraction(1, 4) if k == 2 else _ZERO for k in range(cap + 1))
    u = list(series_compose(series_pow1p(Fraction(1, 2), cap), quarter_sq))
    if cap:
        u[1] += Fraction(1, 2)
    return tuple(u)


def series_two_arcsinh_half(cap: int) -> Tuple[Fraction, ...]:
    """2*log(sqrt(1 + (z/2)^2) + z/2) truncated at ``cap``.

    Built from the square-root binomial series and the logarithm series,
    so it stays independent of the term-wise-integration identity used as
    an oracle in the tests.
    """
    u_minus_one = (_ZERO,) + series_u(cap)[1:]
    return tuple(2 * c for c in series_compose(series_log1p(cap), u_minus_one))

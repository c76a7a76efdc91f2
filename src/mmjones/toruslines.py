"""Closed-form line generator for torus knots.

For a (p, q) torus knot the whole line expansion comes from one formula:
with nabla the Conway polynomial and D the second-order operator

    D f = z f' + (z^2 + 4) f'',

the generating series is

    V(z, h) = (1/z) (1+h)^c  sum_m (1/m!) (log(1+h) / (4pq))^m  g_m(z),

where c = (pq - p/q - q/p)/4 and g_m = D^m (z / nabla).  The coefficient of
h^n is the line V^(n)(z) = sum_{m <= n} w_{m,n} g_m / z, with w_{m,n} the
h^n coefficient of the m-th weight series.  Only finitely many m contribute
per h-order because log(1+h) has valuation one, so every line is exact.

Integer ladder.  Each rung is held as an integer polynomial P_m (a
``LaurentPoly`` in z with exponents >= 0) with g_m = P_m / nabla^(2m+1).
For f = P / nabla^k the quotient rule gives

    A = P' nabla - k P nabla'           (f'  = A / nabla^(k+1))
    B = A' nabla - (k+1) A nabla'       (f'' = B / nabla^(k+2))
    D f = (z A nabla + (z^2 + 4) B) / nabla^(k+2),

so P_(m+1) comes from P_m with ring operations only.  nabla, z and D have
integer coefficients, hence every P_m lies in Z[z]; no rung is ever reduced,
so no polynomial gcd runs.  Line n is then

    V^(n) = S_n / (L_n z nabla^(2n+1)),   S_n = sum_m (L_n w_{m,n}) P_m nabla^(2(n-m)),

with L_n the lcm of the weight denominators, so S_n is an integer sum.  The
denominator nabla^(2n+1) holds by construction; what the theory promises
beyond it stays a runtime gate (``LineConsistencyError``):

* parity: every P_m is odd (g_m is odd and nabla is even);
* an odd sum, i.e. an even numerator: S_n has only odd powers, which is the
  same as S_n / z having only even powers, so one test covers both;
* integrality: L_n divides every coefficient of S_n / z, so the numerator
  S_n / (L_n z) is an integer polynomial in z^2.

nabla is :func:`knots.conway_torus` as it comes, and each numerator is a
``LaurentPoly`` in z, the package's one polynomial type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import List

from .exactalg import GateError, LaurentPoly, TruncSeries, series_log1p, series_pow1p
from .knots import TorusParams, conway_torus


class LineConsistencyError(GateError):
    """An oddness/divisibility/integrality certification failed."""


@dataclass(frozen=True)
class LineFunction:
    """Line n of a torus knot: numerator / nabla^(2n+1), not reduced."""

    n: int
    numerator: LaurentPoly  # even exponents >= 0
    denominator: LaurentPoly  # nabla^(2n+1), constant term 1

    def series_coeffs(self, z_cap: int) -> List[Fraction]:
        """z-series coefficients through z^z_cap; the denominator is a unit."""
        num = TruncSeries("z", z_cap, [self.numerator.coeff(e) for e in range(z_cap + 1)])
        den = [self.denominator.coeff(e) for e in range(z_cap + 1)]
        return list((num * TruncSeries("z", z_cap, den).invert()).coeffs)


def _derivative(p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly(p.var, {e - 1: e * c for e, c in p.terms.items() if e})


_SHIFT = LaurentPoly("z", {0: 4, 2: 1})  # z^2 + 4


def apply_D(num: LaurentPoly, k: int, nabla: LaurentPoly) -> LaurentPoly:
    """The numerator of D(num / nabla^k) over nabla^(k+2), in Z[z]."""
    dnabla = _derivative(nabla)
    a = _derivative(num) * nabla - num * dnabla * k
    b = _derivative(a) * nabla - a * dnabla * (k + 1)
    return (a * nabla).shift(1) + _SHIFT * b


def _ladder(nabla: LaurentPoly, n_max: int) -> List[LaurentPoly]:
    """P_0..P_n_max with D^m(z / nabla) = P_m / nabla^(2m+1), each checked odd."""
    rung = LaurentPoly.monomial("z", 1)
    ladder = [rung]
    for m in range(n_max):
        rung = apply_D(rung, 2 * m + 1, nabla)
        if any(e % 2 == 0 for e in rung.terms):
            raise LineConsistencyError("derivative chain lost its parity")
        ladder.append(rung)
    return ladder


def torus_lines(t: TorusParams, n_max: int) -> List[LineFunction]:
    """Lines V^(0)..V^(n_max) of the (p, q) torus knot, certified.

    The weight series run through h^n_max, the last coefficient a line reads.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    p, q = t.p, t.q
    pq = p * q
    c = (Fraction(pq) - Fraction(p, q) - Fraction(q, p)) / 4
    prefactor = series_pow1p(c, n_max)
    logf = series_log1p(n_max) * Fraction(1, 4 * pq)
    # weights[m] = (1+h)^c * (log(1+h)/(4pq))^m / m!
    weights: List[TruncSeries] = []
    log_pow = TruncSeries.constant("h", n_max, 1)
    for m in range(n_max + 1):
        if m > 0:
            log_pow = log_pow * logf
        weights.append(prefactor * log_pow * Fraction(1, factorial(m)))
    nabla = conway_torus(t)
    ladder = _ladder(nabla, n_max)
    # even_powers[j] = nabla^(2j)
    even_powers = [LaurentPoly.one("z")]
    for _ in range(n_max):
        even_powers.append(even_powers[-1] * nabla * nabla)
    lines = []
    for n in range(n_max + 1):
        ws = [weights[m].coeff(n) for m in range(n + 1)]
        scale = lcm(*(w.denominator for w in ws))
        total = LaurentPoly.zero("z")
        for m, w in enumerate(ws):
            if w:
                weight = w.numerator * (scale // w.denominator)
                total = total + ladder[m] * even_powers[n - m] * weight
        numerator = certify_numerator(n, total, scale)
        lines.append(LineFunction(n, numerator, even_powers[n] * nabla))
    return lines


def certify_numerator(n: int, total: LaurentPoly, scale: int) -> LaurentPoly:
    """Line n's numerator total / (scale z), certified even and integral."""
    if any(e % 2 == 0 for e in total.terms):
        raise LineConsistencyError(f"line {n}: numerator has odd powers")
    numerator = {}
    for e, coeff in total.terms.items():
        numerator[e - 1], rem = divmod(coeff, scale)
        if rem:
            raise LineConsistencyError(f"line {n}: numerator is not integral")
    return LaurentPoly("z", numerator)


def torus_line_series(t: TorusParams, n: int, z_cap: int) -> List[Fraction]:
    """z-power-series coefficients of the line V^(n), through z^z_cap.

    This is the bridge to the braid pipeline: the coefficient of z^(2m)
    here must equal the d^(n)_m entry computed from the torus braid.
    """
    lines = torus_lines(t, n)
    coeffs = lines[n].series_coeffs(z_cap)
    for ccoef in coeffs:
        if ccoef.denominator != 1:
            raise LineConsistencyError(
                f"line {n}: series coefficient {ccoef} is not an integer"
            )
    return coeffs

"""Reference algebra the tests check the pipeline against.

The pipeline never reduces a rational function: a torus line is an integer
numerator over nabla^(2n+1), and an h-series comes from the packed state
sum.  Its truncated series are coefficient tuples, multiplied only by the
integer product ``exactalg.int_series_mul``.  The routes here are
independent of all three, on types the package does not have: the truncated
series ``TruncSeries`` (Fraction coefficients, a variable tag, the
schoolbook product and inverse), gcd-reduced rational functions in z with
quotient-rule derivatives (Euclidean division over Q, on the dense rational
polynomial ``QPoly``), the substitution q = 1 + h term by term, exact
tensor states acted on one crossing at a time, the state sum of a cut
closure one start vector at a time, the exact colored Jones polynomial
of a closure (the exact ring's state sum, certified integral and 1 at
q-hat = 1), and g-series crossing tables
converted term by term from the expanded entries.  Next come the line
routes as they first ran: series composition by Horner's rule, the (z, h)
bi-series collected one product at a time, the ht rows by one series
composition each, and approximants by repeated multiplication.  An
oracle that reads a series of the package wraps its tuple in a
``TruncSeries``.  The reduced Burau product comes as it first ran: one
generator matrix per letter, multiplied in by a full matrix product.  The
braid and polynomial helpers at the end (mirror, conjugate, Markov
stabilization, u -> 1/u, odd parity) are what the tests use to state
invariances; the pipeline never calls them.
"""

from fractions import Fraction
from itertools import product, zip_longest

from mmjones import cjones, mmexpand
from mmjones.exactalg import LaurentPoly, series_pow1p, series_two_arcsinh_half
from mmjones.knots import BraidWord


class TruncSeries:
    """Power series in ``var`` truncated at ``cap`` (highest retained power).

    Arithmetic propagates the minimum cap of the operands, so an operation
    never fabricates coefficients its inputs do not know.
    """

    __slots__ = ("var", "cap", "coeffs")

    def __init__(self, var: str, cap: int, coeffs=()):
        cs = [Fraction(c) for c in coeffs][: cap + 1]
        self.var = var
        self.cap = cap
        self.coeffs = tuple(cs + [Fraction(0)] * (cap + 1 - len(cs)))

    @classmethod
    def constant(cls, var: str, cap: int, value) -> "TruncSeries":
        return cls(var, cap, (value,))

    @classmethod
    def identity(cls, var: str, cap: int) -> "TruncSeries":
        return cls(var, cap, (0, 1))

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if k >= 0 else Fraction(0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and (self.var, self.cap, self.coeffs) == (other.var, other.cap, other.coeffs)
        )

    def truncate(self, cap: int) -> "TruncSeries":
        assert cap <= self.cap, "truncate cannot extend knowledge"
        return TruncSeries(self.var, cap, self.coeffs)

    def __add__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return TruncSeries(self.var, self.cap, (self.coeffs[0] + other,) + self.coeffs[1:])
        assert self.var == other.var, f"variable mismatch: {self.var} vs {other.var}"
        cap = min(self.cap, other.cap)
        return TruncSeries(self.var, cap, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return self * -1

    def __sub__(self, other) -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other) -> "TruncSeries":
        """Times a TruncSeries, by the schoolbook double loop, or a scalar."""
        if not isinstance(other, TruncSeries):
            return TruncSeries(self.var, self.cap, [c * other for c in self.coeffs])
        assert self.var == other.var, f"variable mismatch: {self.var} vs {other.var}"
        cap = min(self.cap, other.cap)
        out = [Fraction(0)] * (cap + 1)
        for i in range(cap + 1):
            for j in range(cap + 1 - i):
                out[i + j] += self.coeffs[i] * other.coeffs[j]
        return TruncSeries(self.var, cap, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "TruncSeries":
        out = TruncSeries.constant(self.var, self.cap, 1)
        for _ in range(k):
            out = out * self
        return out

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse by the recurrence; requires a nonzero constant term."""
        inv0 = 1 / self.coeffs[0]
        out = [inv0]
        for k in range(1, self.cap + 1):
            out.append(-inv0 * sum(self.coeffs[j] * out[k - j] for j in range(1, k + 1)))
        return TruncSeries(self.var, self.cap, out)

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*{self.var}^{k}" for k, c in enumerate(self.coeffs) if c) or "0"
        return f"{body} + O({self.var}^{self.cap + 1})"


class QPoly:
    """Dense polynomial in z with exact rational coefficients, index = power of z."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "QPoly":
        """The dense form of a polynomial in z with no negative power."""
        return cls(p.coeff(e) for e in range(p.max_exp() + 1)) if p else cls()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def only_even_powers(self) -> bool:
        return all(c == 0 for c in self.coeffs[1::2])

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __add__(self, other: "QPoly") -> "QPoly":
        return QPoly([a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other) -> "QPoly":
        """Times a QPoly or a scalar."""
        if not isinstance(other, QPoly):
            return QPoly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    def __pow__(self, k: int) -> "QPoly":
        out = QPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self) -> str:
        return f"QPoly({[str(c) for c in self.coeffs]})"


def poly_divmod(a: QPoly, b: QPoly):
    """Euclidean division over Q."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quot = [Fraction(0)] * max(0, len(rem) - b.degree)
    while len(rem) > b.degree:
        k = len(rem) - 1 - b.degree
        quot[k] = f = rem[-1] / b.coeffs[-1]
        for i, c in enumerate(b.coeffs):
            rem[k + i] -= f * c
        rem.pop()
    return QPoly(quot), QPoly(rem)


def poly_exact_div(a: QPoly, b: QPoly) -> QPoly:
    quot, rem = poly_divmod(a, b)
    assert rem.is_zero(), f"{b} does not divide {a}"
    return quot


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic Euclidean gcd over Q."""
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    return a * (1 / a.coeffs[-1]) if a.coeffs else a


def poly_derivative(p: QPoly) -> QPoly:
    return QPoly([i * c for i, c in enumerate(p.coeffs)][1:])


class RationalFn:
    """num / den over Q, gcd-reduced unless ``reduce=False``, den(0) = 1."""

    def __init__(self, num: QPoly, den: QPoly, reduce: bool = True):
        if reduce:
            g = poly_gcd(num, den)
            num, den = poly_exact_div(num, g), poly_exact_div(den, g)
        inv = 1 / den.constant_term()  # ZeroDivisionError when den(0) = 0
        self.num, self.den = num * inv, den * inv

    @classmethod
    def zero(cls) -> "RationalFn":
        return cls(QPoly(), QPoly.one(), reduce=False)

    def __eq__(self, other) -> bool:
        return self.num * other.den == other.num * self.den

    def __add__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other) -> "RationalFn":
        """Times a QPoly (reduced) or a scalar."""
        if isinstance(other, QPoly):
            return RationalFn(self.num * other, self.den)
        return RationalFn(self.num * other, self.den, reduce=False)

    def derivative(self) -> "RationalFn":
        """Quotient rule, reduced."""
        num = poly_derivative(self.num) * self.den - self.num * poly_derivative(self.den)
        return RationalFn(num, self.den * self.den)

    def reduce(self) -> "RationalFn":
        return RationalFn(self.num, self.den)

    def series(self, cap: int) -> TruncSeries:
        """z-series through z^cap (the denominator is a unit)."""
        inverse = TruncSeries("z", cap, self.den.coeffs).invert()
        return TruncSeries("z", cap, self.num.coeffs) * inverse

    def numerator_against(self, den_power: QPoly) -> QPoly:
        """self * den_power, which must be a polynomial."""
        return poly_exact_div(self.num * den_power, self.den)


def laurent_to_hseries(p: LaurentPoly, cap: int) -> TruncSeries:
    """p(1 + h) through h^cap; negative powers expand binomially."""
    out = TruncSeries("h", cap)
    for e, c in sorted(p.terms.items()):
        out = out + TruncSeries("h", cap, series_pow1p(e, cap)) * c
    return out


def basis_state(index) -> dict:
    """The tensor basis vector ``index``, amplitudes in Z[u, 1/u]."""
    return {tuple(index): LaurentPoly.one("u")}


def apply_table(state: dict, table: dict, pos: int, keep=lambda k, l: True) -> dict:
    """``table`` ((i, j) -> [(k, l, c)]) on tensor slots (pos, pos+1), 0-based.

    Only the entries whose outputs pass ``keep(k, l)`` are applied; zero
    amplitudes are dropped.
    """
    new: dict = {}
    for key, amp in state.items():
        for (k, l, c) in table[key[pos:pos + 2]]:
            if keep(k, l):
                target = key[:pos] + (k, l) + key[pos + 2:]
                new[target] = new[target] + amp * c if target in new else amp * c
    return {key: amp for key, amp in new.items() if amp}


def apply_crossings(state: dict, *steps) -> dict:
    """Each (op, pos) in turn: ``op`` on tensor slots (pos, pos+1), 0-based."""
    expanded = {}
    for op, pos in steps:
        if id(op) not in expanded:
            expanded[id(op)] = cjones._expand_table(op.table)
        state = apply_table(state, expanded[id(op)], pos)
    return state


def start_vectors(closure, alpha: int):
    """Each start vector of a cut closure, slot f at index 0, with its weight 2 charge.

    charge = sum_(i>f) (N - 2s_i) - sum_(i<f) (N - 2s_i) over the indices
    s_i of the other slots.
    """
    N, f = alpha - 1, closure.cut[1]
    for rest in product(range(alpha), repeat=closure.strands - 1):
        charge = sum(N - 2 * i for i in rest[f:]) - sum(N - 2 * i for i in rest[:f])
        yield rest[:f] + (0,) + rest[f:], 2 * charge


def state_sum_by_starts(closure, alpha: int, ring):
    """The framed trace of a cut closure in ``ring``, one start vector at a time.

    The sum of :func:`start_vectors`, each one's diagonal amplitude times
    u^weight, framed by u^(-framing writhe).  A start's letters act on it
    in turn, and the last letter to touch a slot keeps only the entries
    that put the slot back at its start index, filtered entry by entry.
    Reads the ring's ``tables``, ``one``, ``zero``, ``framing`` and
    ``charge``; nothing of the merged kernel.
    """
    last = {}
    for t, letter in enumerate(closure.word):
        last[abs(letter) - 1] = last[abs(letter)] = t
    total = ring.zero
    for start, weight in start_vectors(closure, alpha):
        state = {start: ring.one}
        for t, letter in enumerate(closure.word):
            pos = abs(letter) - 1
            want = tuple(start[s] if last[s] == t else None for s in (pos, pos + 1))
            state = apply_table(state, ring.tables[1 if letter > 0 else -1], pos,
                                lambda k, l: want[0] in (None, k) and want[1] in (None, l))
        if start in state:
            total = total + ring.charge(state[start], weight)
    return ring.charge(total, -ring.framing * closure.writhe)


def colored_jones(b: BraidWord, alpha: int) -> LaurentPoly:
    """V_alpha of the closure of ``b`` as a Laurent polynomial in q-hat.

    The exact ring's state sum at the given cut, the reference the packed
    h-series is checked against.  Normalized so the unknot gives 1 for
    every color; the writhe dependence is removed by the framing monomial.
    The result is certified to lie in Z[q-hat, q-hat^-1] (all root-variable
    exponents must be divisible by 4) and to evaluate to 1 at q-hat = 1.
    """
    alpha = cjones._knot_color(b, alpha)
    if alpha == 1:
        return LaurentPoly.one("q")
    framed = cjones._state_sum(cjones._Closure.of(b), alpha, cjones._ExactRing(alpha))
    if not framed.exponents_divisible_by(4):
        raise cjones.ConventionViolationError(
            f"normalized invariant has fractional powers of q-hat at alpha={alpha}"
        )
    result = framed.compress_exponents(4, "q")
    if result.evaluate_at_one() != 1:
        raise cjones.ConventionViolationError(
            f"invariant does not evaluate to 1 at q-hat=1 at alpha={alpha}"
        )
    return result


def gseries_entry_tables(expanded: dict, length: int):
    """The g-series tables and row majorants, each expanded entry converted term by term.

    ``expanded`` maps sign -> expanded operator table, (i, j) -> [(k, l, c)].
    """
    tables, majorants = {}, {}
    for sign, table in expanded.items():
        tables[sign] = {
            key: tuple((k, l, tuple(cjones._laurent_to_gseries(c, length, {})))
                       for (k, l, c) in entries)
            for key, entries in table.items()
        }
        sums = [[sum(abs(c[i]) for (_, _, c) in entries) for i in range(length)]
                for entries in tables[sign].values()]
        majorants[sign] = tuple(map(max, zip(*sums)))
    return tables, majorants


def compose_by_horner(outer: TruncSeries, inner: TruncSeries) -> TruncSeries:
    """outer(inner) by Horner's rule, one full truncated product per coefficient."""
    cap = min(outer.cap, inner.cap)
    acc = TruncSeries(inner.var, cap)
    for c in reversed(outer.coeffs[: cap + 1]):
        acc = acc * inner.truncate(cap) + c
    return acc


def z_h_biseries_by_terms(d) -> tuple:
    """The (z, h) bi-series grid of a D-table, one Fraction product per term.

    Every D[m][n+2m] times every coefficient of s(z)^(2m) times every
    coefficient of lfac(h)^(2m), added into the grid: O(N cap^3) products.
    """
    cap = 2 * d.N
    s = TruncSeries("z", cap, series_two_arcsinh_half(cap))
    lfac = TruncSeries("h", cap, mmexpand._h_over_log1p(cap))
    grid = [[Fraction(0)] * (cap + 1) for _ in range(cap + 1)]
    s_pow = TruncSeries.constant("z", cap, 1)
    l_pow = TruncSeries.constant("h", cap, 1)
    for m in range(d.N + 1):
        if m > 0:
            s_pow = s_pow * s * s
            l_pow = l_pow * lfac * lfac
        for n in range(cap + 1 - 2 * m):
            coeff = d.entries[m][n + 2 * m]
            for zd, a in enumerate(s_pow.coeffs):
                if coeff and a:
                    for hd in range(cap + 1 - n):
                        grid[zd][hd + n] += coeff * a * l_pow.coeffs[hd]
    return tuple(map(tuple, grid))


def htilde_rows_by_composition(d) -> tuple:
    """The ht line rows, each z-row of the bi-series composed with the substitution."""
    N = d.N
    sub = TruncSeries("ht", 2 * N, mmexpand.reparam_series(2 * N))
    by_m = []
    for m in range(N + 1):
        valid = 2 * (N - m)
        row = TruncSeries("h", valid, d.biseries[2 * m][: valid + 1])
        by_m.append(compose_by_horner(row, sub.truncate(valid)))
    return tuple(tuple(by_m[m].coeff(n) for m in range(N - (n + 1) // 2 + 1))
                 for n in range(2 * N + 1))


def approx_product_by_repeats(lines, conway: LaurentPoly, n: int, exponent: int) -> TruncSeries:
    """Line n times the Conway series, ``exponent`` products in turn."""
    row = lines.row(n)
    guaranteed = 2 * (len(row) - 1)
    conway_series = TruncSeries("z", guaranteed, [conway.coeff(e) for e in range(guaranteed + 1)])
    # the line in z: row[m] at z^(2m), zero at the odd powers
    prod = TruncSeries("z", guaranteed, [c for m in row for c in (m, 0)])
    for _ in range(exponent):
        prod = prod * conway_series
    return prod


def burau_generator(strands: int, letter: int) -> list:
    """Reduced Burau matrix of one letter: the identity but for row |letter|."""
    n = strands - 1
    one, zero = LaurentPoly.one("t"), LaurentPoly.zero("t")
    t, tinv = LaurentPoly.monomial("t", 1), LaurentPoly.monomial("t", -1)
    mat = [[one if r == c else zero for c in range(n)] for r in range(n)]
    r = abs(letter) - 1
    own, prev, nxt = (-t, t, one) if letter > 0 else (-tinv, one, tinv)
    mat[r][r] = own
    if r > 0:
        mat[r][r - 1] = prev
    if r + 1 < n:
        mat[r][r + 1] = nxt
    return mat


def burau_by_matrix_products(b: BraidWord) -> list:
    """Reduced Burau matrix of a word, each letter's matrix multiplied in on the left."""
    n = b.strands - 1
    zero = LaurentPoly.zero("t")
    mat = [[LaurentPoly.one("t") if r == c else zero for c in range(n)] for r in range(n)]
    for k in b.letters:
        gen = burau_generator(b.strands, k)
        mat = [[sum((gen[i][j] * mat[j][c] for j in range(n)), zero) for c in range(n)]
               for i in range(n)]
    return mat


def mirror(b: BraidWord) -> BraidWord:
    """Every crossing switched."""
    return BraidWord(b.strands, tuple(-k for k in b.letters))


def conjugated(b: BraidWord, letter: int) -> BraidWord:
    """letter * b * letter^-1, the same closure."""
    return BraidWord(b.strands, (letter,) + b.letters + (-letter,))


def stabilized(b: BraidWord, sign: int) -> BraidWord:
    """Markov stabilization: one more strand and a final sign * strands letter."""
    return BraidWord(b.strands + 1, b.letters + (sign * b.strands,))


def invert_variable(p: LaurentPoly) -> LaurentPoly:
    """Substitute var -> var**-1."""
    return LaurentPoly(p.var, {-e: c for e, c in p.terms.items()})


def only_odd_powers(p: QPoly) -> bool:
    return all(c == 0 for c in p.coeffs[0::2])

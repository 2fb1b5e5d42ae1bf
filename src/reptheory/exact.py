"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Every character value handled by this package is a sum of roots of unity,
so the cyclotomic fields are enough to represent all of them exactly.
Elements are stored in the power basis 1, z, ..., z^(phi(n)-1) after
reduction modulo the n-th cyclotomic polynomial Phi_n; internally the
phi(n) rational coordinates share one positive denominator so that the
hot arithmetic paths stay in machine integers.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd

Rational = Fraction


def _divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def euler_phi(n):
    if n < 1:
        raise ValueError(f"cyclotomic order must be positive, got {n}")
    result = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod_int(num, den):
    """Exact division of integer polynomials, den monic; num is consumed."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients (ascending) of Phi_n, computed by exact division of
    x^n - 1 by the Phi_d with d | n, d < n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        if d < n:
            poly, rem = _poly_divmod_int(poly, cyclotomic_polynomial(d))
            assert not rem
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(n):
    """Representations of z^k mod Phi_n for 0 <= k <= max(n-1, 2*phi-2),
    each as an integer tuple of length phi(n)."""
    phi = euler_phi(n)
    fold = [-c for c in cyclotomic_polynomial(n)[:phi]]  # x^phi == fold
    top = max(n - 1, 2 * phi - 2)
    table = []
    cur = [0] * phi
    cur[0] = 1
    table.append(tuple(cur))
    for _ in range(top):
        lead = cur[phi - 1] if phi else 0
        nxt = [0] + cur[: phi - 1]
        if lead:
            nxt = [a + lead * b for a, b in zip(nxt, fold)]
        cur = nxt
        table.append(tuple(cur))
    return table


def _solve_int_system(columns, rhs_num, rhs_den):
    """Solve sum_j y_j * columns[j] = rhs (vectors over Q); return list of
    Fractions or None. Small dense Gaussian elimination."""
    rows = len(rhs_num)
    ncols = len(columns)
    aug = [
        [Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(rhs_num[i], rhs_den)]
        for i in range(rows)
    ]
    piv_cols = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(piv_cols):
        sol[c] = aug[i][ncols]
    return sol


class Cyclotomic:
    """An element of Q(zeta_order), immutable and canonically reduced.

    Values whose non-constant coordinates vanish collapse to order 1
    (plain rationals); any deeper subfield reduction happens only on
    demand via reduced().
    """

    __slots__ = ("order", "num", "den", "_red")

    def __init__(self, order, num, den, _normalized=False):
        if not _normalized:
            order, num, den = self._normalize(order, num, den)
        self.order = order
        self.num = num
        self.den = den
        self._red = None

    @staticmethod
    def _normalize(order, num, den):
        num = list(num)
        phi = euler_phi(order)
        assert len(num) == phi, "coefficient vector has wrong length"
        if den < 0:
            den = -den
            num = [-c for c in num]
        if order > 1 and not any(num[1:]):
            order, num = 1, [num[0]]
        if not any(num):
            return 1, (0,), 1
        g = den
        for c in num:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            den //= g
            num = [c // g for c in num]
        return order, tuple(num), den

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rational(x):
        f = Fraction(x)
        return Cyclotomic(1, (f.numerator,), f.denominator)

    @staticmethod
    def coerce(x):
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.from_rational(x)
        raise TypeError(f"cannot interpret {x!r} as a cyclotomic number")

    # -- basic properties --------------------------------------------

    @property
    def coeffs(self):
        """Coordinates in the power basis, as Fractions (length phi(order))."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def is_zero(self):
        return self.order == 1 and self.num[0] == 0

    @property
    def is_rational(self):
        return self.order == 1

    def as_fraction(self):
        if self.order != 1:
            red = self.reduced()
            if red.order != 1:
                raise ValueError(f"{self} is not rational")
            return Fraction(red.num[0], red.den)
        return Fraction(self.num[0], self.den)

    def is_integer(self):
        return self.order == 1 and self.den == 1

    # -- embedding and arithmetic ------------------------------------

    def _embed(self, n):
        """Coefficient vector of self inside Q(zeta_n); requires order | n."""
        if self.order == n:
            return self.num
        step = n // self.order
        table = _power_table(n)
        out = [0] * euler_phi(n)
        for i, c in enumerate(self.num):
            if c:
                rep = table[(i * step) % n]
                for j, r in enumerate(rep):
                    out[j] += c * r
        return out

    @staticmethod
    def _common(a, b):
        if a.order == b.order:
            return a.order, a.num, b.num
        n = a.order * b.order // gcd(a.order, b.order)
        return n, a._embed(n), b._embed(n)

    def __add__(self, other):
        try:
            other = Cyclotomic.coerce(other)
        except TypeError:
            return NotImplemented
        n, na, nb = Cyclotomic._common(self, other)
        da, db = self.den, other.den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return Cyclotomic(n, [x * ma + y * mb for x, y in zip(na, nb)], da // g * db)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self.num), self.den, _normalized=True)

    def __sub__(self, other):
        try:
            other = Cyclotomic.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return Cyclotomic.coerce(other) - self

    def __mul__(self, other):
        try:
            other = Cyclotomic.coerce(other)
        except TypeError:
            return NotImplemented
        if self.order == 1:
            if self.num[0] == 0:
                return _ZERO
            return Cyclotomic(other.order, [self.num[0] * c for c in other.num],
                              self.den * other.den)
        if other.order == 1:
            if other.num[0] == 0:
                return _ZERO
            return Cyclotomic(self.order, [other.num[0] * c for c in self.num],
                              self.den * other.den)
        n, na, nb = Cyclotomic._common(self, other)
        phi = len(na)
        conv = [0] * (2 * phi - 1)
        for i, a in enumerate(na):
            if a:
                for j, b in enumerate(nb):
                    if b:
                        conv[i + j] += a * b
        out = list(conv[:phi])
        table = _power_table(n)
        for e in range(phi, 2 * phi - 1):
            c = conv[e]
            if c:
                rep = table[e]
                for j, r in enumerate(rep):
                    out[j] += c * r
        return Cyclotomic(n, out, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        if self.order == 1:
            return Cyclotomic(1, (self.den if self.num[0] > 0 else -self.den,), abs(self.num[0]),
                              _normalized=True)
        # extended Euclid: u*a + v*Phi = 1 in Q[x], then a^-1 = u mod Phi
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        a = [Fraction(c, self.den) for c in self.num]
        r0, r1 = phi_poly, a
        s0, s1 = [], [Fraction(1)]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                break
            q, rem = _poly_divmod_frac(r0, r1)
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, rem
        c = r1[0]
        inv = [v / c for v in s1]
        return _from_fraction_vector(self.order, inv)

    def __truediv__(self, other):
        try:
            other = Cyclotomic.coerce(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic.coerce(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- conjugation, comparison, reduction --------------------------

    def conjugate(self):
        """Galois conjugation zeta -> zeta^(-1) (complex conjugation)."""
        if self.order == 1:
            return self
        n = self.order
        table = _power_table(n)
        out = [0] * len(self.num)
        for i, c in enumerate(self.num):
            if c:
                rep = table[(n - i) % n]
                for j, r in enumerate(rep):
                    out[j] += c * r
        return Cyclotomic(n, out, self.den)

    def __eq__(self, other):
        try:
            other = Cyclotomic.coerce(other)
        except TypeError:
            return NotImplemented
        if self.order == other.order:
            return self.num == other.num and self.den == other.den
        n, na, nb = Cyclotomic._common(self, other)
        return [c * other.den for c in na] == [c * self.den for c in nb]

    def __hash__(self):
        r = self.reduced()
        return hash((r.order, r.num, r.den))

    def key(self):
        """Canonical sortable key (order, numerators, denominator) of the
        reduced form; equal values always share it."""
        r = self.reduced()
        return (r.order, r.num, r.den)

    def reduced(self):
        """The same value at the smallest order m | order containing it."""
        if self.order == 1:
            return self
        if self._red is not None:
            return self._red
        result = self
        for m in _divisors(self.order)[:-1]:
            if euler_phi(m) > euler_phi(self.order):
                continue
            step = self.order // m
            table = _power_table(self.order)
            cols = [table[(i * step) % self.order] for i in range(euler_phi(m))]
            sol = _solve_int_system(cols, self.num, self.den)
            if sol is not None:
                result = _from_fraction_vector(m, sol)
                break
        self._red = result
        return result

    # -- output ------------------------------------------------------

    def numeric(self):
        """Complex float approximation (test/printing aid only)."""
        z = cmath.exp(2j * cmath.pi / self.order)
        total = 0j
        for i, c in enumerate(reversed(self.num)):
            total = total * z + c
        return total / self.den

    def __str__(self):
        r = self.reduced()
        if r.order == 1:
            return _fmt_rat(Fraction(r.num[0], r.den))
        parts = []
        for i, c in enumerate(r.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = _fmt_rat(c)
            else:
                mon = f"z{r.order}" if i == 1 else f"z{r.order}^{i}"
                if c == 1:
                    term = mon
                elif c == -1:
                    term = "-" + mon
                else:
                    term = _fmt_rat(c) + "*" + mon
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __repr__(self):
        return f"Cyclotomic({self})"


def _fmt_rat(f):
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _poly_divmod_frac(num, den):
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] / lead
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _from_fraction_vector(order, vec):
    phi = euler_phi(order)
    vec = list(vec) + [Fraction(0)] * (phi - len(vec))
    den = 1
    for v in vec:
        den = den * v.denominator // gcd(den, v.denominator)
    num = [int(v * den) for v in vec]
    return Cyclotomic(order, num, den)


_ZERO = Cyclotomic(1, (0,), 1, _normalized=True)
_ONE = Cyclotomic(1, (1,), 1, _normalized=True)


def zero():
    return _ZERO


def one():
    return _ONE


def cyc(x):
    """Coerce an int or Fraction (or Cyclotomic) to a Cyclotomic."""
    return Cyclotomic.coerce(x)


def zeta(n, k=1):
    """The root of unity zeta_n^k, canonically reduced mod Phi_n."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    k %= n
    if k == 0 or n == 1:
        return _ONE
    return Cyclotomic(n, _power_table(n)[k], 1)


def conjugate(a):
    return Cyclotomic.coerce(a).conjugate()


# -- serialization ----------------------------------------------------

def rational_to_str(f):
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def rational_from_str(s):
    if not isinstance(s, str):
        raise ValueError(f"a rational must be a string like \"-3/4\", not {s!r}")
    if "/" in s:
        p, q = s.split("/")
        return Fraction(int(p), int(q))
    return Fraction(int(s))


def cyclotomic_to_json(a):
    a = Cyclotomic.coerce(a)
    return {"order": a.order, "coeffs": [rational_to_str(c) for c in a.coeffs]}


def cyclotomic_from_json(obj):
    order = int(obj["order"])
    if not isinstance(obj["coeffs"], list):
        raise ValueError("coeffs must be a list")
    vec = [rational_from_str(s) for s in obj["coeffs"]]
    if len(vec) != euler_phi(order):
        raise ValueError("coefficient list has wrong length for the given order")
    return _from_fraction_vector(order, vec)

"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Every character value handled by this package is a sum of roots of unity,
so the cyclotomic fields are enough to represent all of them exactly.
Elements are stored in the power basis 1, z, ..., z^(phi(n)-1) after
reduction modulo the n-th cyclotomic polynomial Phi_n; internally the
phi(n) rational coordinates share one positive denominator so that the
hot arithmetic paths stay in machine integers.

One function, _fold, reduces an integer polynomial mod Phi_n: products,
the Galois substitutions z -> z^k (conjugation, and the embedding of a
subfield), the powers of z and the sums of the Gram kernel all end in it.
Inversion solves num * y = 1 with the multiplication matrix of num over
the integers, on linalg.gauss_jordan.

Reduction to the smallest subfield Q(zeta_m), m | n, stays in those
integers too: it descends from Q(zeta_n) to Q(zeta_(n/p)) one prime p at
a time, splitting the coordinates and folding the parts, for as long as
the value lies in the smaller field.
Printing and JSON conversion read the numerators and the shared
denominator directly; no arithmetic builds a Fraction. cyclotomic_from_json
parses each distinct value dict once: equal dicts give one shared value,
from a memo of at most FROM_JSON_COEFFS coefficient strings.

Sums over classes of products of values, the inner products and Gram
matrices of character theory, go through hermitian_gram. Its operands are
GramRows: a pool that holds each distinct value once and each row as
indices into it. ValuePool, the one place where values are interned,
keys a value on its stored (order, numerators, denominator).
GramRows(rows) interns rows of values through it; GramRows.over takes a
pool and an index that a table builder made, with ValuePool.slots, one
value per key of its own. The kernel reads every operand, at every
order, through one row store (GramRows.rows). An operand is one object:
it converts each pool entry once, into integers or sparse roots of unity
(the builder's root form where the builder gave one, as gl2_table does;
otherwise one or two roots where that is shorter, by _short_roots, the
floating-point search here, which tries _one_root first), and makes a
row when a call first reads it and keeps it. FieldKeys.root reads
_one_root alone. A table's columns share only the pool and its rows'
short forms. The kernel conjugates its right operand only, accumulates
integer sums of roots of unity and reduces once per entry. An operand
made for one call is freed with it.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter, mul

from .linalg import InputError, _parse_ratio, fields, gauss_jordan, short_repr

Rational = Fraction
# the fields of a value dict: cyclotomic_from_json reads them inline and
# calls fields only for the message of a dict of the wrong shape
_CYCLOTOMIC_FIELDS = {"order": int, "coeffs": list}


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


def _prime_divisors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


@lru_cache(maxsize=None)
def euler_phi(n):
    if n < 1:
        raise ValueError(f"cyclotomic order must be positive, got {short_repr(n)}")
    result = n
    for p in _prime_divisors(n):
        result -= result // p
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
            if rem:
                raise AssertionError(f"Phi_{d} does not divide x^{n} - 1")
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_fold(n):
    """x^phi(n) == sum of f * x^k mod Phi_n, as the pairs (k - phi(n), f)
    with f != 0; Phi_n is monic and sparse for the orders met here."""
    phi = euler_phi(n)
    return tuple((k - phi, -c) for k, c in enumerate(cyclotomic_polynomial(n)[:phi]) if c)


def _fold(acc, n):
    """The phi(n) power-basis coordinates of the sum of acc[e] * zeta_n^e,
    for a list acc of ints of any length, which is consumed: acc is folded
    by zeta_n^n = 1, then divided by Phi_n from the top with the few
    nonzero coefficients of _phi_fold. The one reduction mod Phi_n."""
    phi = euler_phi(n)
    if len(acc) > n:
        for e in range(n, len(acc)):
            acc[e % n] += acc[e]
        del acc[n:]
    elif len(acc) < phi:
        acc += [0] * (phi - len(acc))
    fold = _phi_fold(n)
    for e in range(len(acc) - 1, phi - 1, -1):
        c = acc[e]
        if c:
            for k, f in fold:
                acc[e + k] += c * f
    return acc[:phi]


def _substitute(num, n, step):
    """The coordinates in Q(zeta_n) of the sum of num[i] * zeta_n^(i * step):
    the Galois substitution z -> z^step for step prime to n, and for
    step = n/m the embedding of Q(zeta_m)."""
    acc = [0] * n
    for i, c in enumerate(num):
        if c:
            acc[i * step % n] += c
    return _fold(acc, n)


def _root(n, k):
    """The coordinates of zeta_n^k, 0 <= k < n: the monomial, folded."""
    acc = [0] * (k + 1)
    acc[k] = 1
    return _fold(acc, n)


def root_powers(n):
    """The coordinates of zeta_n^0, ..., zeta_n^(n-1), each a list of
    phi(n) ints made from the one before by one step of _fold: the
    coordinates move up by one and the top one folds back through
    _phi_fold."""
    phi, fold = euler_phi(n), _phi_fold(n)
    x = [1] + [0] * (phi - 1)
    out = [x]
    for _ in range(n - 1):
        top, x = x[-1], [0, *x[:-1]]
        if top:
            for k, f in fold:
                x[phi + k] += top * f
        out.append(x)
    return out


def _descend(num, n, p):
    """The coordinates in Q(zeta_m), m = n/p for a prime p | n, of the value
    with coordinates num in Q(zeta_n), or None if it does not lie there."""
    m = n // p
    if m % p == 0:
        # Phi_n(x) = Phi_m(x^p), so Q(zeta_m) is spanned by the z^(p*j)
        if any(c for i, c in enumerate(num) if i % p):
            return None
        return num[::p]
    # zeta_n = zeta_m^s * zeta_p^t for s*p + t*m = 1, so the value is the sum
    # over r < p of y_r * zeta_p^r, y_r in Q(zeta_m); 1, zeta_p, ...,
    # zeta_p^(p-2) are a basis over Q(zeta_m) and the zeta_p^r sum to 0, so
    # it lies in Q(zeta_m) exactly when y_1 = ... = y_(p-1), as y_0 - y_(p-1)
    t = pow(m, -1, p)
    s = (1 - t * m) // p
    parts = [[0] * m for _ in range(p)]
    for i, c in enumerate(num):
        if c:
            parts[t * i % p][s * i % m] += c
    last = _fold(parts[-1], m)
    if any(_fold(part, m) != last for part in parts[1:-1]):
        return None
    return [a - b for a, b in zip(_fold(parts[0], m), last)]


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
        if len(num) != euler_phi(order):
            raise ValueError(f"Q(zeta_{order}) needs {euler_phi(order)} coefficients, got {len(num)}")
        if den == 0:
            raise ValueError("cyclotomic denominator must be nonzero")
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
        return _rational(f.numerator, f.denominator)

    @staticmethod
    def coerce(x):
        if isinstance(x, Cyclotomic):
            return x
        if type(x) is int:  # stored as is
            return Cyclotomic(1, (x,), 1, _normalized=True)
        if isinstance(x, (int, Fraction)):  # a bool is stored as its int numerator
            return _rational(x.numerator, x.denominator)
        raise TypeError(f"cannot interpret {x!r} as a cyclotomic number")

    # -- basic properties --------------------------------------------

    @property
    def coeffs(self):
        """Coordinates in the power basis, as Fractions (length phi(order))."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def is_zero(self):
        return self.order == 1 and self.num[0] == 0

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
        return _substitute(self.num, n, n // self.order)

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
        da, db = self.den, other.den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        if self.order == 1 == other.order:
            return _rational(self.num[0] * ma + other.num[0] * mb, da // g * db)
        n, na, nb = Cyclotomic._common(self, other)
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
            if other.order == 1:
                return _rational(self.num[0] * other.num[0], self.den * other.den)
            return Cyclotomic(other.order, [self.num[0] * c for c in other.num],
                              self.den * other.den)
        if other.order == 1:
            if other.num[0] == 0:
                return _ZERO
            return Cyclotomic(self.order, [other.num[0] * c for c in self.num],
                              self.den * other.den)
        n, na, nb = Cyclotomic._common(self, other)
        conv = [0] * (2 * len(na) - 1)
        for i, a in enumerate(na):
            if a:
                for j, b in enumerate(nb):
                    if b:
                        conv[i + j] += a * b
        return Cyclotomic(n, _fold(conv, n), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        if self.order == 1:
            return Cyclotomic(1, (self.den if self.num[0] > 0 else -self.den,), abs(self.num[0]),
                              _normalized=True)
        # column j of the multiplication matrix M of num is num * z^j; the
        # eliminated [M | e_0] has row i = d * (e_i | y_i) for M y = e_0, and
        # the inverse of num / den is den * y
        n, columns = self.order, [list(self.num)]
        while len(columns) < len(self.num):
            columns.append(_fold([0, *columns[-1]], n))
        rows = [[*row, int(i == 0)] for i, row in enumerate(zip(*columns))]
        d = gauss_jordan(rows, len(columns))[1][-1]
        return Cyclotomic(n, [self.den * row[-1] for row in rows], d)

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
        return self.galois(-1)

    def galois(self, j):
        """The image under the field automorphism zeta -> zeta^j, for j
        prime to the order."""
        if self.order == 1:
            return self
        return Cyclotomic(self.order, _substitute(self.num, self.order, j), self.den)

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
        """The same value at the smallest order m | order containing it.

        The order descends one prime p at a time while _descend finds the
        value in Q(zeta_(order/p)). Q(zeta_a) and Q(zeta_b) meet in
        Q(zeta_gcd(a, b)), so every descent ends at the same m, and a prime
        that fails once fails at every smaller order too.
        """
        if self.order == 1:
            return self
        if self._red is not None:
            return self._red
        n, num = self.order, self.num
        for p in _prime_divisors(n):
            while n % p == 0:
                y = _descend(num, n, p)
                if y is None:
                    break
                n, num = n // p, y
        result = self
        if n != self.order:
            result = Cyclotomic(n, num, self.den)
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
        den = r.den
        if r.order == 1:
            return _fmt_ratio(r.num[0], den)
        parts = []
        for i, c in enumerate(r.num):
            if c == 0:
                continue
            if i == 0:
                term = _fmt_ratio(c, den)
            else:
                mon = f"z{r.order}" if i == 1 else f"z{r.order}^{i}"
                if c == den:
                    term = mon
                elif c == -den:
                    term = "-" + mon
                else:
                    term = _fmt_ratio(c, den) + "*" + mon
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __repr__(self):
        return f"Cyclotomic({self})"


def _rational(p, q):
    """The order-1 value p/q, for q > 0: reduced by one gcd and stored
    without _normalize, which a result known to be rational does not need."""
    g = gcd(p, q)
    if g != 1:
        p //= g
        q //= g
    return Cyclotomic(1, (p,), q, _normalized=True)


def _fmt_ratio(p, q):
    """p/q in lowest terms (q > 0), without a denominator of 1."""
    g = gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


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
    return Cyclotomic(n, _root(n, k), 1)


# -- the Gram kernel --------------------------------------------------

@lru_cache(maxsize=None)
def _unit_roots(m):
    return [cmath.exp(2j * cmath.pi * k / m) for k in range(m)]


def _unit_scaled(v):
    """(m, d, v's numerators over d, their complex value) for m the order
    of v and d the gcd of its numerators: what the root searches read."""
    d = gcd(*v.num)
    want = [c // d for c in v.num]
    return v.order, d, want, sum(c * w for c, w in zip(want, _unit_roots(v.order)))


def _one_root(m, d, want, z):
    """v, given as _unit_scaled(v), as s * zeta^a, zeta = zeta_m and
    s = +-d: (a, s), or None. A root of unity can have many power-basis
    coordinates (zeta_23^22 has 22). The complex value of v only proposes
    a; the form is taken only if its coordinates are v's exactly."""
    if abs(abs(z) - 1) < 1e-6:
        for s in (1, -1):
            a = round(cmath.phase(s * z) * m / (2 * cmath.pi)) % m
            if [s * x for x in _root(m, a)] == want:
                return a, s * d
    return None


def _short_roots(v):
    """v as one root, [(a, s)] from _one_root, or else as a sum of two,
    [(a, s), (b, t)] with s * zeta^a + t * zeta^b = v and s, t = +-d as
    there, or None. A sum of two roots (most GL2 values) can have many
    power-basis coordinates; again the complex value of v only proposes a
    and b."""
    m, d, want, z = scaled = _unit_scaled(v)
    one = _one_root(*scaled)
    if one is not None:
        return [one]
    roots = _unit_roots(m)
    for a in range(m):
        for s in (1, -1):
            r = z - s * roots[a]
            if abs(abs(r) - 1) < 1e-6:
                for t in (1, -1):
                    b = round(cmath.phase(t * r) * m / (2 * cmath.pi)) % m
                    if [s * x + t * y for x, y in zip(_root(m, a), _root(m, b))] == want:
                        return [(a, s * d), (b, t * d)]
    return None


def _root_terms(v, coords, n, right, den):
    """The terms (e, k) of v over den at order n, for v the sum of
    c * zeta_m^i over (i, c) in coords, m its order: each at e = i * n/m,
    or on the right side, conjugated, at -i * n/m mod n lowered by n."""
    step, shift = (-(n // v.order), n) if right else (n // v.order, 0)
    return [(i * step % n - shift, c * (den // v.den)) for i, c in coords]


class ValuePool:
    """Values interned once: `values` holds each distinct value once, in
    the order first met, and positions(row) gives the index in it of each
    value of a row. This is the one place where values are interned.

    A value is keyed on its stored form (order, numerators, denominator),
    which is one key per value at a fixed order and needs no reduced(). A
    value the pool holds is keyed on its identity too, so a row that
    repeats one object finds it by id. Only the pool's values take that
    key: the pool keeps them alive, so their ids are not reused, while any
    other value may be freed once its row is read.

    A builder that makes each distinct value once reads positions through
    slots(make) instead, by its own key of the value, and interns only the
    values it makes."""

    __slots__ = ("values", "_where")

    def __init__(self):
        self.values, self._where = [], {}

    def positions(self, row):
        pool, where, indices = self.values, self._where, []
        for v in row:
            x = where.get(id(v))
            if x is None:
                key = (v.order, v.num, v.den)
                x = where.get(key)
                if x is None:
                    x = where[key] = where[id(v)] = len(pool)
                    pool.append(v)
            indices.append(x)
        return indices

    def slots(self, make, twin=None):
        """A dict from a builder's keys to pool positions, filled as keys
        are first read: key's value is made by make(key) and interned, or,
        where twin(key) names a key of the same value that was read
        before, takes its position unmade."""
        return _Slots(self, make, twin)


class _Slots(dict):
    __slots__ = ("_pool", "_make", "_twin")

    def __init__(self, pool, make, twin):
        self._pool, self._make, self._twin = pool, make, twin

    def __missing__(self, key):
        x = self.get(self._twin(key)) if self._twin else None
        if x is None:
            x = self._pool.positions((self._make(key),))[0]
        self[key] = x
        return x


class GramRows:
    """Rows of Cyclotomics as hermitian_gram reads them: a pool of distinct
    values, `pool`, and `index[r][c]`, the pool index of row r at class c.
    GramRows(rows) interns rows of values (ValuePool); GramRows.over(pool,
    index) takes a pool and an index as they are, for a builder or table
    that made them, and with them, where the builder made its values
    from roots of unity (gl2_table), their root forms. `order` and `den`
    are the lcm of the pool's orders and of its denominators.

    The kernel reads an operand's rows in one way (rows): integers over
    den when every order is 1, and otherwise root terms at the lcm N of
    both operands' orders. An operand converts its pool itself, entry by
    entry as rows ask for them: `_ints`, the integers of a rational pool,
    `_sparse`, per entry the builder's root form, or else its short form
    (one or two roots, by _short_roots) or its nonzero coordinates, and
    `_terms`, per (n, right) the root terms of each entry. Only the rows
    a call reads are made; an operand keeps each form it makes (`_forms`)
    and adds rows to it as later calls read them, so a table's values are
    converted once however often it is used, and an operand made for one
    call is freed with it."""

    __slots__ = ("pool", "index", "order", "den", "_ints", "_sparse", "_terms", "_forms",
                 "_forms_by_id")

    def __init__(self, rows):
        pool = ValuePool()
        self._hold(pool.values, [pool.positions(row) for row in rows])

    @classmethod
    def over(cls, pool, index, sparse=None):
        """An operand on pool and index, which are not copied; `sparse`, if
        given, is the `_sparse` list of another operand on the same pool,
        or a builder's root forms, one entry per pool value: [(e, k), ...]
        with the value the sum of k * zeta_m^e over its den at its order
        m, or None for an entry to convert here. A GL2 table brings one,
        so none of its values is searched."""
        operand = cls.__new__(cls)
        operand._hold(pool, index, sparse)
        return operand

    def _hold(self, pool, index, sparse=None):
        self.pool, self.index = pool, index
        self.order = lcm(*{v.order for v in pool})
        self.den = lcm(*{v.den for v in pool})
        self._ints, self._terms, self._forms, self._forms_by_id = None, {}, {}, {}
        self._sparse = [None] * len(pool) if sparse is None else sparse

    def transposed(self, width):
        """The columns of these rows, `width` entries to a row: an operand
        over the same pool object that shares the rows' `_sparse` list, so
        that no entry's short form is searched for twice, and makes its
        own integers, terms and forms."""
        return GramRows.over(self.pool, tuple(zip(*self.index)) if self.index else ((),) * width,
                             self._sparse)

    def form(self, key, make):
        """make(), made once and kept under key, None too."""
        if key not in self._forms:
            self._forms[key] = make()
        return self._forms[key]

    def rows(self, n, right, weights, wanted):
        """A dict that maps each row r in wanted to row r times weights,
        weights[c] at class c. At n = 1 row r is a list of integers over
        den. Otherwise it is (the classes where row r is nonzero, terms, the
        lcm of the row's orders): row r at class c is the sum of
        k * zeta_n^e over den for (e, k) in terms[c], conjugated on the
        right side as in _root_terms, each (value, weight) pair multiplied
        out once. An entry is converted once, to its builder's root form
        where `_sparse` holds one, or else to its short form where that is
        shorter than its nonzero coordinates (_short_roots, a search over
        the roots of its order), and mapped once to each (n, right). Only
        the rows asked for, by any iterable, are made, and kept under
        (n, right, weights).

        A form is found by the identity of its weights first, so that a
        table's class sizes, one tuple, are not hashed on each call; the
        form keeps the weights it was made with, and only those take an id
        key, so their ids are not reused while the operand lives."""
        form = self._forms_by_id.get((n, right, id(weights)))
        if form is None:
            form = self._forms.setdefault((n, right, weights), ({}, {}, weights))
            if form[2] is weights:
                self._forms_by_id[n, right, id(weights)] = form
        rows, weighted = form[0], form[1]
        missing = set(wanted).difference(rows) if len(rows) < len(self.index) else ()
        if not missing:
            return rows
        if min(missing) < 0:
            # a row is kept under its index, which counts toward a full form
            raise IndexError(f"row index out of range: {min(missing)}")
        pool, index, den = self.pool, self.index, self.den
        if n == 1:
            if self._ints is None:
                self._ints = [v.num[0] * (den // v.den) for v in pool]
            read = self._ints.__getitem__
            for r in missing:
                row = map(read, index[r])
                rows[r] = list(row if weights is None else map(mul, row, weights))
            return rows
        terms, sparse = self._terms.get((n, right)), self._sparse
        if terms is None:
            terms = self._terms[n, right] = [None] * len(pool)
        for r in missing:
            for x in index[r]:
                if terms[x] is None:
                    v, coords = pool[x], sparse[x]
                    if coords is None:
                        coords = [(i, c) for i, c in enumerate(v.num) if c]
                        if len(coords) > 2:
                            coords = _short_roots(v) or coords
                        sparse[x] = coords
                    terms[x] = _root_terms(v, coords, n, right, den)
            ts = [terms[x] for x in index[r]]
            if weights is not None:
                for c, (x, w) in enumerate(zip(index[r], weights)):
                    if ts[c]:
                        t = weighted.get((x, w))
                        if t is None:
                            t = weighted[x, w] = [(e, k * w) for e, k in ts[c]]
                        ts[c] = t
            rows[r] = ([c for c, t in enumerate(ts) if t], ts,
                       lcm(*{pool[x].order for x in index[r]}))
        return rows


def unit_generators(n):
    """A few units that generate (Z/n)^*: for each prime power p^a that
    exactly divides n, generators of (Z/p^a)^*, each lifted to 1 modulo
    the rest of n. They are a primitive root mod p^a for odd p (a
    primitive root g mod p, or g + p where g^(p-1) = 1 mod p^2), and -1
    and 5 mod 2^a (-1 alone for a = 2, none for a = 1)."""
    out = []
    for p in _prime_divisors(n):
        rest, pa = n, 1
        while rest % p == 0:
            rest //= p
            pa *= p
        if p == 2:
            gens = [] if pa == 2 else [pa - 1] if pa == 4 else [pa - 1, 5]
        else:
            factors = _prime_divisors(p - 1)
            g = next(g for g in range(2, p) if all(pow(g, (p - 1) // r, p) != 1 for r in factors))
            gens = [g + p if pa > p and pow(g, p - 1, p * p) == 1 else g]
        # g mod p^a and 1 mod the rest, by the Chinese remainder theorem
        lift = rest * pow(rest, -1, pa)
        out += [(1 + (g - 1) * lift) % n for g in gens]
    return out


class FieldKeys:
    """The distinct values of a pool, each keyed on its coordinates at one
    order n, the lcm of the pool's orders, so that one value stored at
    two orders (zeta_6, and zeta_48^8 at order 48) gets one key. `ids[x]`
    is the id of pool entry x and `values[i]` a pool value of id i; a
    table's rows read through `ids` are tuples that are equal exactly when
    the rows are, so rows with their classes permuted are compared with no
    value computed. A twist (times) is exact: each product is computed
    from coordinates, by moving exponents of zeta_n, and looked up by its
    key, and is None where the pool lacks it."""

    __slots__ = ("n", "ids", "values", "_coords", "_where", "_products", "_roots", "_monomials")

    def __init__(self, pool):
        n = self.n = lcm(*{v.order for v in pool})
        self.ids, self.values, self._coords, self._where = [], [], [], {}
        for v in pool:
            coords = v._embed(n)
            key = (v.den, tuple(coords))
            x = self._where.get(key)
            if x is None:
                x = self._where[key] = len(self.values)
                self.values.append(v)
                self._coords.append(coords)
            self.ids.append(x)
        self._products, self._roots, self._monomials = {}, {}, {}

    def find(self, v):
        """The id of value v, whose order divides n, or None."""
        return self._where.get((v.den, tuple(v._embed(self.n))))

    def times(self, y, xs):
        """A dict that maps each id x in xs, among the ids met before, to the
        id of the product of the values of ids y and x, or to None; the
        value of y is a signed root s * zeta_n^e (root), so x's exponents
        move by e and its sign by s. Each product is made once, and each
        power of zeta_n folded once and kept."""
        known = self._products.setdefault(y, {})
        (s, e), n, monomials = self.root(y), self.n, self._monomials
        for x in set(xs).difference(known):
            acc = [0] * len(self._coords[x])
            for i, c in enumerate(self._coords[x]):
                if c:
                    k = (i + e) % n
                    terms = monomials.get(k)
                    if terms is None:
                        terms = monomials[k] = [(t, f) for t, f in enumerate(_root(n, k)) if f]
                    for t, f in terms:
                        acc[t] += c * f
            key = self.values[x].den, tuple(acc) if s > 0 else tuple(-a for a in acc)
            known[x] = self._where.get(key)
        return known

    def root(self, y):
        """(s, e) with the value of id y equal to s * zeta_n^e, s = 1 or -1
        (-1 only at odd n), or None: the form of _one_root, s * zeta_m^a at
        the value's order m, read at n."""
        if y not in self._roots:
            v, n, found = self.values[y], self.n, None
            form = v.den == 1 and not v.is_zero and _one_root(*_unit_scaled(v))
            if form and abs(form[1]) == 1:
                a, s = form
                e = a * (n // v.order)
                # -zeta_n^e is zeta_n^(e + n/2) at even n
                found = (1, (e + n // 2) % n) if s < 0 and n % 2 == 0 else (s, e)
            self._roots[y] = found
        return self._roots[y]


def hermitian_gram(left, right, pairs, weights=None, scale=1):
    """The exact sums sum_c w_c * a_c * conj(b_c) / scale, a = left row i
    and b = right row j, as a list of one Cyclotomic per (i, j) in pairs;
    w_c = 1 without weights. The right side is always the conjugated one:
    a sum without conjugation passes conjugated values on the right. An
    operand is a GramRows, or rows of Cyclotomics, which are interned into
    one for this call.

    Both operands give their rows through GramRows.rows, only the rows
    the pairs read, a's weights multiplied in: integers, with an integer
    dot product, when every order is 1, and otherwise sparse root terms at
    N, the lcm of both operands' orders, each value in its short form
    (one or two roots) where shorter and b conjugated by negating
    exponents. An entry then accumulates in Z[x]/(x^N - 1) and is reduced
    once by _fold, mod Phi_M for M the lcm of the two rows' orders. A row
    index outside 0..k-1 is an IndexError.
    """
    if not isinstance(left, GramRows):
        left = GramRows(left)
    if not isinstance(right, GramRows):
        right = GramRows(right)
    if weights is not None:
        weights = tuple(weights)
    n = lcm(left.order, right.order)
    a = left.rows(n, False, weights, map(itemgetter(0), pairs))
    # exponents of b in [-n, 0), so that ea + eb indexes a length-n list
    # modulo n, as Python's negative indices do
    b = right.rows(n, True, None, map(itemgetter(1), pairs))
    d = left.den * right.den * scale
    try:
        if n == 1:
            sums = (sum(map(mul, a[i], b[j])) for i, j in pairs)
            return [_rational(s, d) if s else _ZERO for s in sums]
        out = []
        for i, j in pairs:
            (cs, ta, oa), (_, tb, ob) = a[i], b[j]
            acc = [0] * n
            for c in cs:
                sb = tb[c]
                if sb:
                    for ea, ca in ta[c]:
                        for eb, cb in sb:
                            acc[ea + eb] += ca * cb
            m = lcm(oa, ob)
            num = _fold(acc[::n // m], m)
            out.append(Cyclotomic(m, num, d) if any(num) else _ZERO)
    except KeyError as exc:
        # rows() looks up no index on a full form, which holds the rows 0..k-1
        raise IndexError(f"row index out of range: {exc.args[0]}") from None
    return out


# -- serialization ----------------------------------------------------

def cyclotomic_to_json(a):
    a = Cyclotomic.coerce(a)
    den = a.den
    if den == 1:
        return {"order": a.order, "coeffs": [f"{c}/1" for c in a.num]}
    return {"order": a.order,
            "coeffs": [f"{c // g}/{den // g}" for c in a.num for g in (gcd(c, den),)]}


# The values cyclotomic_from_json has parsed, keyed on (order, *coeffs) as
# written, and the number of coefficient strings their keys hold
_FROM_JSON = {}
_from_json_coeffs = 0
# the most coefficient strings _FROM_JSON holds; it is emptied, whole, when
# a value would take it past this. GL2(F_31)'s 1032 values hold 140618
FROM_JSON_COEFFS = 1 << 18


def cyclotomic_from_json(obj):
    """The value of a dict {"order": n, "coeffs": [one "p/q" per coordinate]},
    parsed and brought to the canonical form of Cyclotomic in one pass.

    A table file spells out every entry, but a table holds few distinct
    values (GL2(F_13): 28224 entries, 195 values), so equal dicts give one
    value: once its fields, read inline, have the types they need, a dict
    is looked up once by (order, *coeffs) among the values parsed before,
    and parsed only if it is not there. A value is kept only once parsed,
    so a key holds only coefficients that parse; one that cannot be hashed
    goes to the parser, which raises. The memo holds at most
    FROM_JSON_COEFFS coefficient strings, so reading back any table this
    package writes fills it once. Each costs about 70 bytes for the short
    ratios the writers print (the string, its slot in the key and its
    numerator; 18 MB at the bound) and about 1.5 bytes more per character
    of a longer string."""
    global _from_json_coeffs
    order, coeffs = (obj.get("order"), obj.get("coeffs")) if type(obj) is dict else (None, None)
    if type(order) is not int or type(coeffs) is not list:
        fields(obj, "cyclotomic", _CYCLOTOMIC_FIELDS)  # raises the InputError of its shape
    key = (order, *coeffs)
    try:
        value = _FROM_JSON.get(key)
    except TypeError:  # a coefficient that cannot be hashed is no ratio
        return _parse_cyclotomic(order, coeffs)
    if value is None:
        value = _parse_cyclotomic(order, coeffs)
        if _from_json_coeffs + len(coeffs) > FROM_JSON_COEFFS:
            _FROM_JSON.clear()
            _from_json_coeffs = 0
        if len(coeffs) <= FROM_JSON_COEFFS:
            _FROM_JSON[key] = value
            _from_json_coeffs += len(coeffs)
    return value


def _parse_cyclotomic(order, coeffs):
    # phi(n) >= sqrt(n/2), so no order above 2 * len(coeffs)^2 fits the
    # list; checking that first keeps euler_phi from trial-dividing a huge order
    if order > 2 * len(coeffs) ** 2 or len(coeffs) != euler_phi(order):
        raise InputError("coefficient list has wrong length for the given order")
    # the zero coordinate as written, "0/1", needs no parsing
    terms, den = [], 1
    for i, s in enumerate(coeffs):
        if s != "0/1":
            p, q = _parse_ratio(s)
            if p:
                terms.append((i, p, q))
                if den % q:
                    den = lcm(den, q)
    if not terms:
        return _ZERO
    if terms[-1][0] == 0:
        order = 1  # no nonconstant part: a rational
    num = [0] * (len(coeffs) if order > 1 else 1)
    for i, p, q in terms:
        num[i] = p * (den // q)
    g = gcd(den, *num)
    if g > 1:
        den //= g
        num = [c // g for c in num]
    return Cyclotomic(order, tuple(num), den, _normalized=True)

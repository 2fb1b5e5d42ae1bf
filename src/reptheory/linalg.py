"""Exact dense linear algebra over Q and Q(zeta_n).

A Matrix is immutable: int rows num over one positive den, the lcm of
its entries' denominators, in lowest terms. Empty shapes (0 x n and
n x 0) are first-class: zero summand spaces occur all the time in quiver
representations.

One elimination kernel, gauss_jordan, does every elimination in the
package: rref, rank, inverse, det (and with it the alternants of
symgrp.schur_eval), the primitive null vectors behind the reflection
functors of quiverrep and the null root of rootsys, the classification of
a Cartan form in rootsys, and exact.Cyclotomic.inverse. It is fraction-free
Gauss-Jordan elimination after Bareiss (1968): every intermediate entry
is a minor of the input, so on integer rows each division is exact and
no Fraction is built inside the loop. Rows are scaled lazily, so a
pivot rebuilds only the rows with a nonzero entry in its column; the
result is the eager elimination's, entry for entry. rref, rank, det and
inverse hand it a Matrix's num (den scales every row alike, so it changes
neither the row space, nor the pivots, nor the rref), and rref and
inverse return its int rows over its last pivot. Cyclotomic rows run the
same loop with true division. The reflection steps of quiverrep call it
on int rows only, through integer_null_vectors, and build no Fraction.

Every command loads this module, so it also holds what the *_from_json
readers of the package share: fields, the one check of the fields of a
JSON object and of their types, and InputError, which every reader raises.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
from types import GenericAlias

_ONE = Fraction(1)


class Matrix:
    """rows x cols over Q as int rows num over den > 0 in lowest terms, so
    == compares values; entries, row and m[i, j] build Fractions per call."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ValueError(f"a matrix shape cannot be negative: {short_repr(rows)}x{short_repr(cols)}")
        entries = [[x if type(x) in (int, Fraction) else Fraction(x) for x in row] for row in entries]
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"entries do not form a {short_repr(rows)}x{short_repr(cols)} matrix")
        # no prime divides the lcm of reduced denominators and all of num.
        # Tuples made from lists are allocated once at their final size;
        # from a generator they are grown and cut back, raising peak memory
        den = lcm(*[x.denominator for row in entries for x in row])
        self.num = tuple([tuple([x.numerator * (den // x.denominator) for x in row]) for row in entries])
        self.rows, self.cols, self.den = rows, cols, den

    @staticmethod
    def _of(rows, cols, num, den=1):
        """num / den in lowest terms, for int rows num of this shape and int den != 0; unchecked."""
        g = gcd(den, *chain.from_iterable(num)) if den != 1 else 1
        if g != 1 or den < 0:
            g = g if den > 0 else -g
            num, den = [[x // g for x in row] for row in num], den // g
        m = object.__new__(Matrix)
        m.rows, m.cols, m.num, m.den = rows, cols, tuple([tuple(row) for row in num]), den
        return m

    @staticmethod
    def from_rows(rows_list):
        r = len(rows_list)
        c = len(rows_list[0]) if r else 0
        return Matrix(r, c, rows_list)

    @staticmethod
    def zeros(r, c):
        return Matrix(r, c, [[0] * c for _ in range(r)])

    @staticmethod
    def identity(n):
        return Matrix(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def entries(self):
        return tuple([self.row(i) for i in range(self.rows)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.rows, self.cols, self.num, self.den))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {[[str(x) for x in r] for r in self.entries]})"

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def row(self, i):
        return tuple([Fraction(x, self.den) for x in self.num[i]])

    def transpose(self):
        return Matrix._of(self.cols, self.rows, transpose_rows(self.num, self.cols), self.den)

    def _over(self, den):
        """num scaled to den, a multiple of self.den."""
        s = den // self.den
        return self.num if s == 1 else [[x * s for x in row] for row in self.num]

    def _entrywise(self, other, op):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} and {other.rows}x{other.cols}")
        den = lcm(self.den, other.den)
        return Matrix._of(self.rows, self.cols, [list(map(op, ra, rb)) for ra, rb in
                                                 zip(self._over(den), other._over(den))], den)

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def __neg__(self):
        return Matrix._of(self.rows, self.cols, [[-a for a in r] for r in self.num], self.den)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        cols = transpose_rows(other.num, other.cols)
        return Matrix._of(self.rows, other.cols, [[sum(map(mul, a, b)) for b in cols] for a in self.num],
                          self.den * other.den)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError(f"cannot stack {self.rows} rows beside {other.rows}")
        den = lcm(self.den, other.den)
        return Matrix._of(self.rows, self.cols + other.cols,
                          [[*ra, *rb] for ra, rb in zip(self._over(den), other._over(den))], den)

    def is_zero(self):
        return not any(chain.from_iterable(self.num))


def transpose_rows(rows, ncols):
    """The transpose of rows, a sequence of rows with ncols entries, as tuples."""
    return list(zip(*rows)) if rows else [()] * ncols


def block_diag(blocks):
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    den = lcm(*[b.den for b in blocks])
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b._over(den)):
            out[r0 + i][c0:c0 + b.cols] = row
        r0 += b.rows
        c0 += b.cols
    return Matrix._of(rows, cols, out, den)


def gauss_jordan(rows, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of rows, a
    list of equally long lists or tuples, in place on its first ncols
    columns, which replaces each row it changes; later columns ride along.

    For each pivot column c with pivot row r, every other row i, above
    and below, becomes (p * row_i - row_i[c] * row_r) / prev, where p is
    the new pivot and prev the one before it (1 at the start). Every
    entry is then a minor of the input, so on rows of ints the division
    is exact and runs as //, and ints stay ints; on any other entries
    (Fractions, Cyclotomics) it is a product with an inverse, one
    inversion per pivot. A row with row_i[c] = 0 would only be multiplied
    by p / prev, so scaling is lazy: each row is kept as it was after its
    last update, with the index s of the minor in force then, and its
    value is that row times prev / minors[s]. A nonzero scalar leaves the
    zero entries zero, so pivots are searched on the rows as kept. A row
    with row_i[c] != 0 becomes (p * row_i - row_i[c] * row_r) / minors[s]
    from its kept form, which is the eager update, so on ints the
    division is still exact; the pivot row is brought up to date before
    it is used, and a row left behind is scaled once, at the end. The
    rows, pivots, minors and swaps are the eager loop's.

    At the end each pivot row is d times its reduced row echelon row,
    where d is the last pivot (1 if there is none), so every pivot entry
    equals d; the rows past the rank are zero on the first ncols columns.
    With no row swapped and the pivots in columns 0, 1, ..., the k-th
    pivot is the leading principal minor of order k; on a square matrix
    of full rank, d is the determinant times (-1)^swaps.
    Returns (pivot columns, minors = [1, pivot 1, pivot 2, ...], swaps)."""
    integral = {int}.issuperset(map(type, chain.from_iterable(rows)))
    prev = 1 if integral else _ONE  # ints never become floats
    pivots, minors = [], [prev]
    # a row stamped s is divided by minors[s]: by[s] is minors[s] itself
    # on ints, for //, and its inverse otherwise, for a product
    by = minors if integral else [prev]
    n = len(rows)
    stamps = [0] * n
    swaps = r = 0
    for c in range(ncols):
        if r == n:
            break
        for pr in range(r, n):
            if rows[pr][c] != 0:
                break
        else:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            stamps[r], stamps[pr] = stamps[pr], stamps[r]
            swaps += 1
        if minors[stamps[r]] != prev:
            rows[r] = _rescaled(rows[r], integral, prev, by[stamps[r]])
        top = rows[r]
        p = top[c]
        k = len(minors)
        for i, row in enumerate(rows):
            f = row[c]
            if f != 0 and i != r:
                m = by[stamps[i]]
                rows[i] = ([(p * x - f * y) // m for x, y in zip(row, top)] if integral
                           else [(p * x - f * y) * m for x, y in zip(row, top)])
                stamps[i] = k
        stamps[r] = k
        pivots.append(c)
        minors.append(p)
        if not integral:
            by.append(_ONE / p)
        prev = p
        r += 1
    for i, s in enumerate(stamps):
        if minors[s] != prev:
            rows[i] = _rescaled(rows[i], integral, prev, by[s])
    return pivots, minors, swaps


def _rescaled(row, integral, d, by):
    """A row of gauss_jordan kept at the minor m, brought up to the pivot
    d: row * d / m, for by = m on ints and by = 1 / m otherwise."""
    if integral:
        return [x * d // by for x in row]
    ratio = d * by
    return [x * ratio for x in row]


def rref(m):
    """Reduced row echelon form with exact pivots; returns (echelon, pivot columns)."""
    rows = list(m.num)
    pivots, minors, _ = gauss_jordan(rows, m.cols)
    return Matrix._of(m.rows, m.cols, rows, minors[-1]), tuple(pivots)


def rank(m):
    """The number of pivots gauss_jordan finds in the int rows of m."""
    return len(gauss_jordan(list(m.num), m.cols)[0])


def integer_null_vectors(rows, ncols):
    """A basis of the null space of rows, a list of lists of ints, which
    gauss_jordan eliminates in place; read off by eliminated_null_vectors."""
    pivots, minors, _ = gauss_jordan(rows, ncols)
    return eliminated_null_vectors(rows, ncols, pivots, minors[-1])


def eliminated_null_vectors(rows, ncols, pivots, d):
    """A basis of the null space of int rows that gauss_jordan has
    eliminated, with these pivot columns and last pivot d: for each free
    column f, the rref null vector e_f - sum_i rref[i][f] e_{p_i} over the
    pivots p_i, cleared of denominators. Each pivot row is d times its rref
    row, so that is d e_f - sum_i rows[i][f] e_{p_i} over its gcd, signed
    so that v_f > 0."""
    out, pivotal = [], set(pivots)
    for f in (c for c in range(ncols) if c not in pivotal):
        v = [0] * ncols
        v[f] = d
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        g = gcd(*v) if v[f] > 0 else -gcd(*v)
        out.append([x // g for x in v])
    return out


def det(m):
    """Exact determinant of a square Matrix or a square sequence of rows of
    ints, Fractions or Cyclotomics: the last pivot of gauss_jordan, signed
    by the row swaps. Rational rows are eliminated as int rows num over
    den, so the determinant is that pivot over den ** n."""
    if isinstance(m, Matrix):
        if m.rows != m.cols:
            raise ValueError(f"determinant of a non-square {m.rows}x{m.cols} matrix")
    elif any(len(row) != len(m) for row in m):
        raise ValueError("determinant of a non-square matrix")
    elif all(isinstance(x, (int, Fraction)) for row in m for x in row):
        m = Matrix(len(m), len(m), m)
    rational = isinstance(m, Matrix)
    rows = list(m.num) if rational else [list(row) for row in m]
    pivots, minors, swaps = gauss_jordan(rows, len(rows))
    if len(pivots) < len(rows):
        return Fraction(0)
    d = -minors[-1] if swaps % 2 else minors[-1]
    return Fraction(d, m.den ** m.rows) if rational else d


def inverse(m):
    """The inverse of a square m: the right half of the rref of [m | I],
    read off one gauss_jordan on the int rows [num | den I]."""
    if m.rows != m.cols:
        raise ValueError(f"inverse of a non-square {m.rows}x{m.cols} matrix")
    n, d = m.rows, m.den
    rows = [[*row, *[d if c == r else 0 for c in range(n)]] for r, row in enumerate(m.num)]
    pivots, minors, _ = gauss_jordan(rows, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return Matrix._of(n, n, [row[n:] for row in rows], minors[-1])


# -- serialization ----------------------------------------------------

class InputError(ValueError):
    """A JSON artifact of the wrong shape, or a value in it that does not parse."""


def short_repr(value, limit=60):
    """repr(value), or its first limit characters and "..." when it is
    longer: an error message quotes a value read from a file, which may be
    megabytes long, in one short line."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


_JSON_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object",
               list[int]: "a list of integers", list[list]: "a list of lists"}


def fields(obj, kind, spec):
    """The values of the fields of obj, a JSON object, that spec names, in its
    order. spec maps each field to its type: a type, which the value's type
    must be exactly (so a bool is not an int), list[t] for a list of items of
    type t, or None for any value. Anything else is an InputError."""
    if type(obj) is not dict:
        raise InputError(f"a {kind} is a JSON object with the fields {', '.join(spec)}")
    values = []
    for field in spec:
        value, want = obj.get(field), spec[field]
        if type(value) is not want and not (
                want is None and field in obj
                or type(want) is GenericAlias and type(value) is list
                and all(type(x) is want.__args__[0] for x in value)):
            wanted = f" to be {_JSON_NAMES[want]}" if field in obj else ""
            raise InputError(f'a {kind} needs the field "{field}"{wanted}')
        values.append(value)
    return values


# the most digits a number read from text may have: int() reads no more
# than sys.get_int_max_str_digits(), 4300 by default, and says so in its
# own words
MAX_DIGITS = 4300
# an optional sign and ASCII digits; int() alone also takes the digits of
# other scripts and "_" separators, and int() on each side of a "/" takes
# spaces inside a ratio
_DIGITS = rf"[0-9]{{1,{MAX_DIGITS}}}"
_INTEGER = rf"[+-]?{_DIGITS}"
_INTEGER_TEXT = re.compile(rf"\s*({_INTEGER})\s*", re.ASCII)
_RATIO_TEXT = re.compile(rf"\s*({_INTEGER})(?:/({_INTEGER}))?\s*", re.ASCII)
_RATIONAL_TEXT = re.compile(rf"\s*({_INTEGER})(?:/({_DIGITS})|\.({_DIGITS}))?\s*", re.ASCII)
_TOO_LONG = re.compile(rf"[0-9]{{{MAX_DIGITS + 1}}}", re.ASCII)


def _unread(s, wanted, error=ValueError):
    """The error for s, which is not what `wanted` says: a number too long
    to read is named as such."""
    if isinstance(s, str) and _TOO_LONG.search(s):
        return error(f"a number has at most {MAX_DIGITS} digits here: {short_repr(s)}")
    return error(f"{wanted}{short_repr(s)}")


def parse_integer(s):
    """The integer written as s: an optional sign, then at most MAX_DIGITS
    ASCII digits, with whitespace only around them; anything else is a
    ValueError."""
    m = _INTEGER_TEXT.fullmatch(s) if isinstance(s, str) else None
    if m is None:
        raise _unread(s, "not an integer: ")
    return int(m[1])


def parse_rational(s):
    """The rational written as s: an optional sign and ASCII digits, then
    optionally "/" or "." and ASCII digits ("2/3", "-1.5"), each run of
    digits at most MAX_DIGITS long, with whitespace only around them;
    anything else is a ValueError. Fraction alone also reads other
    scripts' digits, "_" separators and exponents, and spends minutes
    expanding one like 1e1000000."""
    m = _RATIONAL_TEXT.fullmatch(s)
    if m is None:
        raise _unread(s, "not a rational: ")
    if m[3]:
        # the digits on either side of the point are read apart, so that
        # each is within MAX_DIGITS
        q, frac = 10 ** len(m[3]), int(m[3])
        p = int(m[1]) * q + (-frac if m[1][0] == "-" else frac)
    else:
        p, q = int(m[1]), int(m[2] or 1)
    if q == 0:
        raise ValueError(f"zero denominator in {short_repr(s)}")
    return Fraction(p, q)


def _parse_ratio(s):
    """Integers (p, q), q > 0, with p/q the value of "p/q" or "p", p and q
    read as parse_integer reads them."""
    m = _RATIO_TEXT.fullmatch(s) if isinstance(s, str) else None
    if m is None:
        raise _unread(s, 'a rational must be a string like "-3/4", not ', InputError)
    p, q = int(m[1]), int(m[2] or 1)
    if q == 0:
        raise InputError(f"zero denominator in {short_repr(s)}")
    return (p, q) if q > 0 else (-p, -q)


def rational_from_str(s):
    return Fraction(*_parse_ratio(s))


def matrix_to_json(m):
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[f"{x.numerator}/{x.denominator}" for x in row] for row in m.entries]}


def matrix_from_json(obj):
    rows, cols, entries = fields(obj, "matrix", {"rows": int, "cols": int, "entries": list[list]})
    entries = [[rational_from_str(s) for s in row] for row in entries]
    try:
        return Matrix(rows, cols, entries)
    except ValueError as exc:
        raise InputError(str(exc)) from None

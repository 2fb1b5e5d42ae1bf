"""Exact dense linear algebra over the rationals.

Matrices are immutable, stored row-major as Fractions. Empty shapes
(0 x n and n x 0) are first-class: zero summand spaces occur all the
time in quiver representations.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import rational_from_str


class Matrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"entries do not form a {rows}x{cols} matrix")
        self.rows = rows
        self.cols = cols
        self.entries = entries

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

    @staticmethod
    def from_columns(cols_list, rows=None):
        c = len(cols_list)
        r = len(cols_list[0]) if c else (rows if rows is not None else 0)
        return Matrix(r, c, [[cols_list[j][i] for j in range(c)] for i in range(r)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {[[str(x) for x in r] for r in self.entries]})"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def transpose(self):
        return Matrix(self.cols, self.rows,
                      [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __add__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return Matrix(self.rows, self.cols,
                      [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return Matrix(self.rows, self.cols,
                      [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.rows, self.cols, [[-a for a in r] for r in self.entries])

    def scale(self, c):
        c = Fraction(c)
        return Matrix(self.rows, self.cols, [[c * a for a in r] for r in self.entries])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        bt = other.transpose().entries
        return Matrix(self.rows, other.cols,
                      [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.entries])

    def hstack(self, other):
        assert self.rows == other.rows
        return Matrix(self.rows, self.cols + other.cols,
                      [ra + rb for ra, rb in zip(self.entries, other.entries)])

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)


def block_diag(blocks):
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[Fraction(0)] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            out[r0 + i][c0:c0 + b.cols] = b.entries[i]
        r0 += b.rows
        c0 += b.cols
    return Matrix(rows, cols, out)


def rref(m):
    """Reduced row echelon form with exact pivots; returns (echelon, pivot columns)."""
    a = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix(m.rows, m.cols, a), tuple(pivots)


def rank(m):
    return len(rref(m)[1])


def kernel_basis(m):
    """Matrix whose columns are a basis of ker m (cols x nullity)."""
    echelon, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    cols = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -echelon.entries[i][f]
        cols.append(v)
    return Matrix.from_columns(cols, rows=m.cols)


def cokernel_projection(m):
    """Projection of the target space of m onto a complement of its image.

    The complement is spanned by the standard vectors at the coordinates
    that are not pivots of the echelonized image, the rref of m^T with rows
    img_i and pivots p_i. Its row for such a coordinate j is
    e_j - sum_i img_i[j] e_{p_i}: it kills the image and is the identity on
    the complement. Shape (m.rows - rank m) x m.rows.
    """
    echelon, pivots = rref(m.transpose())
    image = echelon.entries[:len(pivots)]
    out = []
    for j in range(m.rows):
        if j in pivots:
            continue
        row = [Fraction(0)] * m.rows
        row[j] = Fraction(1)
        for p, img in zip(pivots, image):
            row[p] = -img[j]
        out.append(row)
    return Matrix(len(out), m.rows, out)


def solve(m, rhs):
    """One exact solution X of m*X = rhs, or None if the system is unsolvable."""
    if rhs.rows != m.rows:
        raise ValueError(f"dimension mismatch: lhs has {m.rows} rows, rhs has {rhs.rows}")
    aug = m.hstack(rhs)
    echelon, pivots = rref(aug)
    pivots_m = [p for p in pivots if p < m.cols]
    if len(pivots_m) < len(pivots):
        return None
    nrows = len(pivots_m)
    out = [[Fraction(0)] * rhs.cols for _ in range(m.cols)]
    for i in range(nrows):
        for k in range(rhs.cols):
            out[pivots_m[i]][k] = echelon.entries[i][m.cols + k]
    return Matrix(m.cols, rhs.cols, out)


def det(m):
    """Exact determinant by fraction Gaussian elimination."""
    assert m.rows == m.cols
    n = m.rows
    a = [list(r) for r in m.entries]
    result = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            result = -result
        result *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


def inverse(m):
    assert m.rows == m.cols
    x = solve(m, Matrix.identity(m.rows))
    if x is None:
        raise ValueError("matrix is singular")
    return x


# -- serialization ----------------------------------------------------

def matrix_to_json(m):
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[f"{x.numerator}/{x.denominator}" for x in row] for row in m.entries]}


def matrix_from_json(obj):
    if not (isinstance(obj, dict) and isinstance(obj.get("rows"), int)
            and isinstance(obj.get("cols"), int)):
        raise ValueError('a matrix is {"rows": r, "cols": c, "entries": [[...], ...]}')
    rows, cols = obj["rows"], obj["cols"]
    if not (isinstance(obj["entries"], list) and all(isinstance(row, list) for row in obj["entries"])):
        raise ValueError("entries must be a list of rows")
    return Matrix(rows, cols, [[rational_from_str(s) for s in row] for row in obj["entries"]])

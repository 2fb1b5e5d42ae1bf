import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import floordiv, mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reptheory
from reptheory.exact import Cyclotomic, cyc, zeta
from reptheory.linalg import (MAX_DIGITS, InputError, Matrix, block_diag, det, gauss_jordan,
                              integer_null_vectors, inverse, matrix_from_json, matrix_to_json,
                              parse_integer, parse_rational, rank, rational_from_str, rref,
                              short_repr)
from reptheory.quiverrep import Quiver, QuiverRep, _sink_step, reflect_source
from reptheory.symgrp import frobenius_character, partitions_of, power_sum_value, schur_eval


@st.composite
def matrices(draw, max_dim=8):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    entries = [[draw(st.integers(min_value=-4, max_value=4)) for _ in range(c)]
               for _ in range(r)]
    return Matrix(r, c, entries)


@st.composite
def rational_matrices(draw, max_dim=6):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    return Matrix(r, c, [[draw(entry) for _ in range(c)] for _ in range(r)])


def test_rref_examples():
    i2 = Matrix.identity(2)
    e, p = rref(i2)
    assert e == i2 and p == (0, 1)
    e, p = rref(Matrix.from_rows([[1, 2], [2, 4]]))
    assert e == Matrix.from_rows([[1, 2], [0, 0]]) and p == (0,)
    z = Matrix.zeros(0, 3)
    e, p = rref(z)
    assert e == z and p == ()


def test_kernel_examples():
    # the fold map (id, id): k + k -> k
    assert integer_null_vectors([[1, 1]], 2) == [[-1, 1]]
    assert integer_null_vectors([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == []
    # the rref null vector (1/2, 1) with its denominator cleared; the
    # elimination gives d = 2 times it
    assert integer_null_vectors([[2, -1]], 2) == [[1, 2]]
    # d = 2 times (-2, 1), divided by the gcd 2
    assert integer_null_vectors([[2, 4]], 2) == [[-2, 1]]
    # d = -4 times (1/2, 1), divided by -2 so that the free coordinate is positive
    assert integer_null_vectors([[-4, 2]], 2) == [[1, 2]]
    assert integer_null_vectors([], 2) == [[1, 0], [0, 1]]


def test_short_repr():
    assert short_repr([0, 1, 2]) == "[0, 1, 2]"
    assert short_repr("1/0") == "'1/0'"
    assert short_repr("x" * 58) == "'" + "x" * 58 + "'"
    assert short_repr("x" * 59) == "'" + "x" * 59 + "..."
    assert short_repr(list(range(10 ** 5)), limit=10) == "[0, 1, 2, ..."


def cokernel_projection(m):
    """The projection onto the cokernel of m that the source reflection
    builds at vertex 0 of the quiver 0 -> 1 with the map m."""
    return reflect_source(QuiverRep(Quiver(2, [(0, 1)]), (m.cols, m.rows), [m]), 0).maps[0]


def test_cokernel_projection_examples():
    assert cokernel_projection(Matrix.from_rows([[1], [0]])) == Matrix.from_rows([[0, 1]])
    assert cokernel_projection(Matrix.identity(2)).rows == 0
    m = Matrix.from_rows([[1, 1], [1, 1]])
    p = cokernel_projection(m)
    assert p == Matrix.from_rows([[-1, 1]]) and (p * m).is_zero()
    assert cokernel_projection(Matrix.zeros(2, 0)) == Matrix.identity(2)
    assert cokernel_projection(Matrix.zeros(0, 2)) == Matrix.zeros(0, 0)
    # the source step is the sink step of the dual, on int rows: psi^T =
    # (-4, 2) has the rref null vector (1/2, 1), which integer_null_vectors
    # gives as (1, 2); its transpose is the projection
    dims, arrows, maps = [1, 2], [(1, 0)], [[[-4, 2]]]
    _sink_step(dims, arrows, maps, 0)
    assert (dims, arrows, maps) == ([1, 2], [(0, 1)], [[(1,), (2,)]])
    assert cokernel_projection(Matrix.from_rows([[-4], [2]])) == Matrix.from_rows([[1, 2]])


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_nullity(m):
    rows = [[int(x) for x in row] for row in m.entries]
    vectors = integer_null_vectors(rows, m.cols)
    assert rank(m) + len(vectors) == m.cols
    if vectors:
        assert (m * Matrix(len(vectors), m.cols, vectors).transpose()).is_zero()


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_null_vectors_are_primitive_with_a_positive_free_coordinate(m):
    vectors = integer_null_vectors([[int(x) for x in row] for row in m.entries], m.cols)
    _, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    assert len(vectors) == len(free)
    for v, f in zip(vectors, free):
        assert all(type(x) is int for x in v) and reduce(gcd, v) == 1
        # v is the rref null vector of f: positive at f, zero at the other free columns
        assert v[f] > 0 and all(v[c] == 0 for c in free if c != f)


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_cokernel_projection_splits_target(m):
    p = cokernel_projection(m)
    assert p.rows == m.rows - rank(m) and p.cols == m.rows
    assert (p * m).is_zero()
    # row j is the rref null vector e_j - sum_r img_r[j] e_{p_r} of m^T for
    # the free coordinate j, times the least positive integer that clears it
    echelon, pivots = rref(m.transpose())
    free = [j for j in range(m.rows) if j not in pivots]
    for row, j in zip(p.entries, free):
        want = [Fraction(int(c == j)) for c in range(m.rows)]
        for r, c in enumerate(pivots):
            want[c] = -echelon[r, j]
        assert all(type(x) is Fraction and x.denominator == 1 for x in row)
        assert row[j] > 0 and [x / row[j] for x in row] == want
        assert reduce(gcd, [int(x) for x in row]) == 1


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    e, p = rref(m)
    e2, p2 = rref(e)
    assert e2 == e and p2 == p


def test_inverse_examples():
    b = Matrix.from_rows([[3, 1], [4, 2]])
    assert inverse(Matrix.identity(2)) == Matrix.identity(2)
    assert b * inverse(b) == Matrix.identity(2) == inverse(b) * b
    assert inverse(Matrix.from_rows([[Fraction(1, 2)]])) == Matrix.from_rows([[2]])
    assert inverse(Matrix.zeros(0, 0)) == Matrix.zeros(0, 0)
    for singular in (Matrix.from_rows([[0]]), Matrix.zeros(2, 2), Matrix.from_rows([[1, 1], [2, 2]])):
        with pytest.raises(ValueError):
            inverse(singular)
    with pytest.raises(ValueError):
        inverse(Matrix.zeros(2, 3))
    with pytest.raises(ValueError):
        Matrix.zeros(2, 3) * Matrix.zeros(2, 3)


@given(st.one_of(matrices(max_dim=5), rational_matrices(max_dim=5)))
@settings(max_examples=80, deadline=None)
def test_inverse_by_substitution(m):
    if m.rows != m.cols or det(m) == 0:
        with pytest.raises(ValueError):
            inverse(m)
        return
    x = inverse(m)
    assert m * x == Matrix.identity(m.rows) == x * m


def test_det_and_inverse():
    m = Matrix.from_rows([[2, 1], [1, 2]])
    assert det(m) == 3
    assert m * inverse(m) == Matrix.identity(2)
    assert det(Matrix.from_rows([[1, 2], [2, 4]])) == 0
    with pytest.raises(ValueError):
        inverse(Matrix.from_rows([[1, 2], [2, 4]]))


def test_block_diag_and_stacks():
    a = Matrix.identity(2)
    b = Matrix.from_rows([[5]])
    d = block_diag([a, b])
    assert d.rows == 3 and d.cols == 3 and d[2, 2] == 5 and d[0, 2] == 0
    assert block_diag([Matrix.zeros(0, 2), b]).rows == 1


def test_serialization():
    m = Matrix.from_rows([[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
    blob = json.dumps(matrix_to_json(m))
    assert matrix_from_json(json.loads(blob)) == m


def reference_matmul(a, b):
    """The product summed one Fraction product at a time."""
    bt = b.transpose().entries
    return Matrix(a.rows, b.cols, [[sum(x * y for x, y in zip(row, col)) for col in bt]
                                   for row in a.entries])


# small and large ints and small fractions, mixed within one matrix
ENTRIES = st.one_of(st.integers(min_value=-4, max_value=4),
                    st.integers(min_value=-10**12, max_value=10**12),
                    st.fractions(min_value=-4, max_value=4, max_denominator=12))


@st.composite
def product_pairs(draw, max_dim=6):
    r, k, c = (draw(st.integers(min_value=0, max_value=max_dim)) for _ in range(3))
    return (Matrix(r, k, [[draw(ENTRIES) for _ in range(k)] for _ in range(r)]),
            Matrix(k, c, [[draw(ENTRIES) for _ in range(c)] for _ in range(k)]))


@st.composite
def operand_triples(draw, max_dim=5):
    """(a, b, c) for a product pair (a, b) and c of a's shape."""
    a, b = draw(product_pairs(max_dim))
    return a, b, Matrix(a.rows, a.cols, [[draw(ENTRIES) for _ in range(a.cols)] for _ in range(a.rows)])


@given(product_pairs())
@settings(max_examples=200, deadline=None)
@example((Matrix.zeros(0, 3), Matrix.zeros(3, 2)))
@example((Matrix.zeros(2, 3), Matrix.zeros(3, 0)))
@example((Matrix.zeros(2, 0), Matrix.zeros(0, 3)))
@example((Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]]),
          Matrix.from_rows([[Fraction(2, 5)], [Fraction(-3, 7)]])))
def test_product_matches_the_fraction_loop(pair):
    a, b = pair
    assert a * b == reference_matmul(a, b)


def assert_holds(m, cols, want):
    """m has the Fraction rows want, with cols columns, as int rows over a
    positive denominator in lowest terms, so it equals and hashes as the
    matrix built from want."""
    assert (m.rows, m.cols) == (len(want), cols) and m.entries == tuple(map(tuple, want))
    assert all(type(x) is int for row in m.num for x in row) and type(m.den) is int
    assert m.den > 0 and gcd(m.den, *itertools.chain.from_iterable(m.num)) == 1
    built = Matrix(len(want), cols, want)
    assert m == built and hash(m) == hash(built)


@given(operand_triples())
@settings(max_examples=150, deadline=None)
@example((Matrix.zeros(0, 3), Matrix.zeros(3, 2), Matrix.zeros(0, 3)))
@example((Matrix.zeros(2, 0), Matrix.zeros(0, 3), Matrix.zeros(2, 0)))
@example((Matrix.from_rows([[Fraction(1, 2), 3]]), Matrix.from_rows([[4], [Fraction(-1, 6)]]),
          Matrix.from_rows([[Fraction(1, 2), Fraction(-1, 3)]])))
def test_operations_match_the_fraction_reference(triple):
    a, b, c = triple
    ra, rb, rc = ([list(row) for row in m.entries] for m in triple)
    assert_holds(a, a.cols, ra)
    assert_holds(a + c, a.cols, [[x + y for x, y in zip(u, v)] for u, v in zip(ra, rc)])
    assert_holds(a - c, a.cols, [[x - y for x, y in zip(u, v)] for u, v in zip(ra, rc)])
    assert_holds(a * b, b.cols, reference_matmul(a, b).entries)
    assert_holds(a.transpose(), a.rows, [list(col) for col in zip(*ra)] or [[]] * a.cols)
    assert_holds(a.hstack(c), 2 * a.cols, [u + v for u, v in zip(ra, rc)])
    assert_holds(block_diag([a, b]), a.cols + b.cols,
                 [u + [Fraction(0)] * b.cols for u in ra] + [[Fraction(0)] * a.cols + v for v in rb])
    echelon, pivots = reference_rref(a)
    assert rref(a)[1] == pivots
    assert_holds(rref(a)[0], a.cols, echelon.entries)
    assert matrix_to_json(a)["entries"] == [[f"{x.numerator}/{x.denominator}" for x in u] for u in ra]
    assert_holds(matrix_from_json(json.loads(json.dumps(matrix_to_json(a)))), a.cols, ra)
    # the same values reached another way
    for same in (a + c - c, -(-a), a.transpose().transpose(), a * Matrix.identity(a.cols),
                 Matrix(a.rows, a.cols, [[Fraction(2 * x, 2) for x in u] for u in ra])):
        assert same == a and hash(same) == hash(a)
    if a.rows == a.cols <= 4:
        assert det(a) == leibniz_det(ra) == det(ra)
        if len(pivots) == a.rows:
            n = a.rows
            right = reference_rref(Matrix(n, 2 * n, [u + [Fraction(int(i == j)) for j in range(n)]
                                                     for i, u in enumerate(ra)]))[0].entries
            assert_holds(inverse(a), n, [u[n:] for u in right])


# -- oracles for the elimination kernel -------------------------------------

def reference_rref(m):
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


@given(st.one_of(matrices(), rational_matrices()))
@settings(max_examples=200, deadline=None)
@example(Matrix.zeros(0, 0))
@example(Matrix.zeros(0, 4))
@example(Matrix.zeros(4, 0))
@example(Matrix.zeros(3, 3))
@example(Matrix.from_rows([[0, 0, 1], [0, 2, 0], [3, 0, 0]]))
def test_rref_matches_reference(m):
    assert rref(m) == reference_rref(m)


@st.composite
def large_entry_matrices(draw, max_dim=7):
    """Entries 0 or +-10^6 / (1..10^4); in half the cases a product of two
    thin random factors, so of rank at most the inner width."""
    entry = st.one_of(st.just(0), st.builds(Fraction, st.sampled_from([-10**6, 10**6]),
                                             st.integers(1, 10**4)))
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    if draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=min(r, c)))
        a = Matrix(r, k, [[draw(entry) for _ in range(k)] for _ in range(r)])
        b = Matrix(k, c, [[draw(entry) for _ in range(c)] for _ in range(k)])
        return a * b
    return Matrix(r, c, [[draw(entry) for _ in range(c)] for _ in range(r)])


@given(large_entry_matrices())
@settings(max_examples=60, deadline=None)
def test_large_entries_match_the_oracles(m):
    echelon, pivots = reference_rref(m)
    assert rref(m) == (echelon, pivots) and rank(m) == len(pivots)
    p = cokernel_projection(m)
    assert p.rows == m.rows - rank(m) and (p * m).is_zero()
    if m.rows == m.cols:
        if len(pivots) < m.rows:
            with pytest.raises(ValueError):
                inverse(m)
        else:
            assert m * inverse(m) == Matrix.identity(m.rows)
    if m.rows == m.cols <= 5:
        assert det(m) == leibniz_det(m.entries)


def test_gauss_jordan_reports_pivots_values_and_swaps():
    # fraction-free: each pivot row ends as d times its rref row, d the last
    # pivot; the minors are 1 and then each pivot, those of the swapped rows
    rows = [[0, 2, 4], [3, 1, 0]]
    pivots, minors, swaps = gauss_jordan(rows, 2)
    assert pivots == [0, 1] and minors == [1, 3, 6] and swaps == 1
    assert rows == [[6, 0, -4], [0, 6, 12]]
    # integer input stays integer: never a float, never a Fraction
    assert all(type(x) is int for row in rows for x in row)
    # columns past ncols ride along unreduced
    rows = [[1, 5], [1, 7]]
    assert gauss_jordan(rows, 1) == ([0], [1, 1], 0) and rows == [[1, 5], [0, 2]]
    # Cyclotomic rows divide with /; d is the determinant
    rows = [[zeta(5), 1], [0, zeta(5, 2)]]
    pivots, minors, swaps = gauss_jordan(rows, 2)
    d = minors[-1]
    assert pivots == [0, 1] and minors == [1, zeta(5), zeta(5, 3)] and swaps == 0
    assert rows == [[d, 0], [0, d]]
    # with no swap and the pivots in order, the leading principal minors
    assert gauss_jordan([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 3)[1] == [1, 2, 3, 4]
    # the swaps are counted: two swaps have even parity, and the minors are
    # then not the leading principal minors (here 0, -1, 0, 1)
    rows = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    assert gauss_jordan(rows, 4) == ([0, 1, 2, 3], [1, 1, 1, 1, 1], 2)


@given(matrices(max_dim=5))
@settings(max_examples=80, deadline=None)
def test_gauss_jordan_minors_are_the_minors_of_the_swapped_rows(m):
    rows = [[int(x) for x in row] for row in m.entries]
    pivots, minors, swaps = gauss_jordan([list(row) for row in rows], m.cols)
    assert len(minors) == len(pivots) + 1 and minors[0] == 1
    for k in range(1, len(pivots) + 1):
        # the k-th pivot is, up to the order of the rows, a k x k minor on
        # the first k pivot columns
        assert any(abs(minors[k]) == abs(leibniz_det([[row[c] for c in pivots[:k]] for row in chosen]))
                   for chosen in itertools.combinations(rows, k))
    if not swaps and pivots == list(range(len(pivots))):
        for k in range(1, len(pivots) + 1):
            assert minors[k] == leibniz_det([row[:k] for row in rows[:k]])


def reference_gauss_jordan(rows, ncols):
    """The eager form of gauss_jordan: each pivot rebuilds every other row,
    also a row with a zero in its column whenever p != prev, only to
    multiply it by p / prev. gauss_jordan must return what this returns and
    leave the same rows."""
    integral = all(type(x) is int for row in rows for x in row)
    scale, prev = (floordiv, 1) if integral else (mul, Fraction(1))
    pivots, minors = [], [prev]
    swaps = r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            swaps += 1
        top = rows[r]
        p = top[c]
        by = prev if integral else Fraction(1) / prev
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and (f != 0 or p != prev):
                rows[i] = [scale(p * x - f * y, by) for x, y in zip(row, top)]
        pivots.append(c)
        minors.append(p)
        prev = p
        r += 1
    return pivots, minors, swaps


@st.composite
def sparse_rows(draw, entry, max_rows=7, max_cols=7):
    """(rows, ncols): mostly zero entries, some columns zero throughout,
    some rows repeated, and up to three ride-along columns past ncols."""
    ncols = draw(st.integers(min_value=0, max_value=max_cols))
    width = ncols + draw(st.integers(min_value=0, max_value=3))
    zero = draw(st.sets(st.integers(min_value=0, max_value=max(width - 1, 0))))
    value = st.one_of(st.just(0), st.just(0), entry)
    rows = [[0 if c in zero else draw(value) for c in range(width)]
            for _ in range(draw(st.integers(min_value=0, max_value=max_rows)))]
    for i, j in draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=3)):
        if i < len(rows) and j < len(rows):
            rows[j] = list(rows[i])
    return rows, ncols


def assert_same_elimination(rows, ncols):
    lazy, eager = [list(row) for row in rows], [list(row) for row in rows]
    assert gauss_jordan(lazy, ncols) == reference_gauss_jordan(eager, ncols)
    assert lazy == eager
    return lazy


@given(sparse_rows(st.integers(min_value=-10**6, max_value=10**6)))
@settings(max_examples=300, deadline=None)
@example(([], 4))
@example(([[], [], []], 0))
@example(([[1, 2], [3, 4]], 0))
@example(([[0, 5, 7], [0, 5, 7], [0, 0, 3]], 2))
@example(([[2, 0, 0, 1], [0, 3, 0, 1], [0, 0, 5, 1]], 3))
@example(([[2, 0, 0], [0, 3, 1], [0, 5, 7]], 3))  # row 2 is updated while stale
def test_lazy_scaling_matches_the_eager_loop_on_ints(case):
    rows = assert_same_elimination(*case)
    assert all(type(x) is int for row in rows for x in row)


@st.composite
def cyclotomic_entries(draw, order):
    value = cyc(0)
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        k = draw(st.integers(min_value=0, max_value=order - 1))
        value = value + draw(st.integers(min_value=-2, max_value=2)) * zeta(order, k)
    return value


@pytest.mark.parametrize("order", [5, 12], ids=["Q(zeta_5)", "Q(zeta_12)"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_lazy_scaling_matches_the_eager_loop_on_cyclotomics(order, data):
    rows, ncols = data.draw(sparse_rows(cyclotomic_entries(order), max_rows=4, max_cols=4))
    assert_same_elimination(rows, ncols)


class RecordedRows(list):
    """Rows that log every (index, row object) stored into them."""

    def __init__(self, rows):
        super().__init__(rows)
        self.stored = []

    def __setitem__(self, i, row):
        self.stored.append((i, row))
        super().__setitem__(i, row)


def test_a_pivot_rebuilds_only_the_rows_it_changes():
    # diag(2, 3, 5) has no entry off the diagonal, so no pivot changes
    # another row: the eager loop rebuilds the two other rows at each of
    # its three pivots, only to scale them
    eager = RecordedRows([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    assert reference_gauss_jordan(eager, 3) == ([0, 1, 2], [1, 2, 6, 30], 0)
    assert len({id(row) for _, row in eager.stored}) == 6
    # the lazy loop rebuilds two rows during the pivots, each when it
    # becomes the pivot row (as 3 * 2 and 5 * 6), then scales the two
    # rows left behind once, to the last pivot
    lazy = RecordedRows([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    assert gauss_jordan(lazy, 3) == ([0, 1, 2], [1, 2, 6, 30], 0)
    assert lazy == eager == [[30, 0, 0], [0, 30, 0], [0, 0, 30]]
    assert [(i, row) for i, row in lazy.stored] == [
        (1, [0, 6, 0]), (2, [0, 0, 30]), (0, [30, 0, 0]), (1, [0, 30, 0])]
    assert len({id(row) for _, row in lazy.stored}) == 4
    # a row whose entry in the pivot column is nonzero is still rebuilt
    lazy = RecordedRows([[2, 1], [4, 3]])
    assert gauss_jordan(lazy, 2) == ([0, 1], [1, 2, 2], 0)
    assert [i for i, _ in lazy.stored] == [1, 0] and lazy == [[2, 0], [0, 2]]


def leibniz_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def _random_entry(rng, order):
    if order == 1:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.8 else Fraction(0)
    value = cyc(0)
    for k in rng.sample(range(order), 2):
        value = value + rng.randint(-2, 2) * zeta(order, k)
    return value


@pytest.mark.parametrize("order", [1, 5, 12], ids=["Q", "Q(zeta_5)", "Q(zeta_12)"])
def test_det_matches_leibniz(order):
    rng = random.Random(order)
    for n in range(6):
        for trial in range(12 if n < 4 else 4):
            rows = [[_random_entry(rng, order) for _ in range(n)] for _ in range(n)]
            if n > 1 and trial % 3 == 0:
                rows[-1] = [2 * x for x in rows[0]]  # singular
            assert cyc(det(rows)) == cyc(leibniz_det(rows)), rows
            if order == 1:
                assert det(Matrix(n, n, rows)) == leibniz_det(rows)


def test_det_of_integer_rows_is_a_fraction():
    assert det([[2, 1], [1, 2]]) == 3 and isinstance(det([[2, 1], [1, 2]]), Fraction)
    assert det([[1, 2], [2, 4]]) == 0 and isinstance(det([[1, 2], [2, 4]]), Fraction)
    assert det([]) == 1 and det(Matrix.zeros(0, 0)) == 1


def test_schur_eval_at_roots_of_unity_matches_power_sums():
    # p_t = sum over lambda of chi_lambda(t) s_lambda, with s_lambda = 0 in
    # fewer variables than parts
    for pts in ([zeta(5), zeta(5, 2), zeta(5, 4)], [1, zeta(12), zeta(12, 5)],
                [zeta(3), zeta(4), zeta(12, 7), -1]):
        for n in range(1, 5):
            for t in partitions_of(n):
                rhs = cyc(0)
                for lam in partitions_of(n):
                    if len(lam) <= len(pts):
                        rhs = rhs + frobenius_character(lam, t) * schur_eval(lam, pts)
                assert isinstance(rhs, Cyclotomic) and power_sum_value(pts, t) == rhs, (pts, t)


BAD_SHAPES = {
    "det of a 2x3 matrix": "det(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))",
    "det of ragged rows": "det([[1, 2], [3]])",
    "inverse of a 2x3 matrix": "inverse(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))",
    "hstack of 2 rows beside 3": "Matrix.zeros(2, 1).hstack(Matrix.zeros(3, 1))",
    "sum of 2x2 and 3x2": "Matrix.zeros(2, 2) + Matrix.zeros(3, 2)",
    "difference of 2x2 and 3x2": "Matrix.zeros(2, 2) - Matrix.zeros(3, 2)",
    "sum of 2x2 and 2x3": "Matrix.zeros(2, 2) + Matrix.zeros(2, 3)",
    "a 0x-5 matrix": "Matrix(0, -5, [])",
    "a -1x0 matrix": "Matrix.zeros(-1, 0)",
}


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_shape_mismatch_is_a_value_error(case, optimize):
    code = ("from reptheory.linalg import Matrix, det, inverse\n"
            f"try:\n    {BAD_SHAPES[case]}\n"
            "except ValueError:\n    pass\n"
            "else:\n    raise SystemExit('accepted')\n")
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_numbers_of_up_to_max_digits_are_read():
    # MAX_DIGITS is int()'s own default limit, so that every number the
    # parsers take, int() reads; on each side of a point or a slash
    digits = "7" * MAX_DIGITS
    big = int(digits)
    assert parse_integer(f" -{digits} ") == -big
    assert parse_rational(f"{digits}/{digits}") == 1
    assert parse_rational(f"-{digits}.{digits}") == -(big + Fraction(big, 10 ** MAX_DIGITS))
    assert parse_rational("-0.5") == Fraction(-1, 2) and parse_rational("+0.25") == Fraction(1, 4)
    assert rational_from_str(f"-{digits}/{digits}") == -1


@pytest.mark.parametrize("parse, text", [
    (parse_integer, "1" * (MAX_DIGITS + 1)),
    (parse_integer, "-" + "0" * (MAX_DIGITS + 1)),
    (parse_rational, "1/" + "1" * (MAX_DIGITS + 1)),
    (parse_rational, "1." + "1" * (MAX_DIGITS + 1)),
    (rational_from_str, "1" * (MAX_DIGITS + 1) + "/1"),
])
def test_a_number_past_max_digits_is_named_as_such(parse, text):
    error = InputError if parse is rational_from_str else ValueError
    with pytest.raises(error) as info:
        parse(text)
    assert str(info.value) == f"a number has at most {MAX_DIGITS} digits here: {short_repr(text)}"

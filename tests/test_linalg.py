import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reptheory.linalg import (Matrix, block_diag, cokernel_projection, det,
                              inverse, kernel_basis, matrix_from_json,
                              matrix_to_json, rank, rref, solve)


@st.composite
def matrices(draw, max_dim=8):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    entries = [[draw(st.integers(min_value=-4, max_value=4)) for _ in range(c)]
               for _ in range(r)]
    return Matrix(r, c, entries)


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
    k = kernel_basis(Matrix.from_rows([[1, 1]]))
    assert k.cols == 1 and k.column(0) in ((Fraction(-1), Fraction(1)),
                                           (Fraction(1), Fraction(-1)))
    assert kernel_basis(Matrix.identity(3)).cols == 0
    # the fold map (id, id): k + k -> k
    assert kernel_basis(Matrix.from_rows([[1, 1]])).cols == 1


def test_cokernel_projection_examples():
    assert cokernel_projection(Matrix.from_rows([[1], [0]])) == Matrix.from_rows([[0, 1]])
    assert cokernel_projection(Matrix.identity(2)).rows == 0
    m = Matrix.from_rows([[1, 1], [1, 1]])
    p = cokernel_projection(m)
    assert p == Matrix.from_rows([[-1, 1]]) and (p * m).is_zero()
    assert cokernel_projection(Matrix.zeros(2, 0)) == Matrix.identity(2)


def test_solve_examples():
    b = Matrix.from_rows([[3], [4]])
    assert solve(Matrix.identity(2), b) == b
    m = Matrix.from_rows([[1, 1]])
    rhs = Matrix.from_rows([[2]])
    x = solve(m, rhs)
    assert m * x == rhs
    assert solve(Matrix.from_rows([[0]]), Matrix.from_rows([[1]])) is None
    with pytest.raises(ValueError):
        solve(Matrix.zeros(2, 2), Matrix.zeros(3, 1))
    with pytest.raises(ValueError):
        Matrix.zeros(2, 3) * Matrix.zeros(2, 3)


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).cols == m.cols
    k = kernel_basis(m)
    if k.cols:
        assert (m * k).is_zero()


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_cokernel_projection_splits_target(m):
    p = cokernel_projection(m)
    assert p.rows == m.rows - rank(m) and p.cols == m.rows
    assert (p * m).is_zero()
    pivots = rref(m.transpose())[1]
    free = [j for j in range(m.rows) if j not in pivots]
    on_free = Matrix(p.rows, len(free), [[p[r, j] for j in free] for r in range(p.rows)])
    assert on_free == Matrix.identity(len(free))


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    e, p = rref(m)
    e2, p2 = rref(e)
    assert e2 == e and p2 == p


@given(matrices(max_dim=5), st.integers(min_value=0, max_value=3))
@settings(max_examples=50, deadline=None)
def test_solve_by_substitution(m, width):
    rng = random.Random(7)
    x_true = Matrix(m.cols, width,
                    [[rng.randint(-3, 3) for _ in range(width)] for _ in range(m.cols)])
    rhs = m * x_true
    x = solve(m, rhs)
    assert x is not None
    assert m * x == rhs


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

"""The exact Gram kernel against the Cyclotomic loop it replaced, and the
pooled kernel against the per-call kernel before it.

`reference_inner_product` is that loop, one conjugate, one product and one
sum per class; the kernel must agree with it value for value and string for
string, and verify reports built on either must be entry for entry equal,
also on tables that are wrong on purpose. `reference_hermitian_gram` is the
kernel that converted every value of its rows on each call; the kernel on
rows of values and on a table's kept rows and columns must give
the same stored values, and decompose and tensor_multiplicities the same
results as on it.
"""

import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from operator import mul
from pathlib import Path

import pytest

import reptheory
from reptheory import chartab, exact
from reptheory.chartab import (BUILTIN_TABLE_NAMES, CharacterTable, ClassFunction, TableRow,
                               VerifyReport, abelian_dual_table, builtin_table, class_sizes,
                               decompose, dihedral_semidirect, heisenberg_semidirect,
                               inner_product, semidirect_table, table_from_json, table_to_json,
                               tensor_multiplicities, transfer_table, verify_table)
from reptheory.exact import (Cyclotomic, GramRows, _fold, _short_roots, cyc, hermitian_gram,
                             one, zero, zeta)
from reptheory.gl2fq import GL2Class, gl2_table, gl2_table_to_json, gl2_verify
from reptheory.permgroup import builtin_group, cyclic_group, from_cycles
from reptheory.symgrp import sn_table


def reference_inner_product(sizes, order, v1, v2):
    total = zero()
    for size, a, b in zip(sizes, v1, v2):
        total = total + size * (a * b.conjugate())
    return total / order


def reference_orthonormality(rep, label, rows, sizes, order):
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            got = reference_inner_product(sizes, order, rows[i][1], rows[j][1])
            want = one() if i == j else zero()
            rep.add(f"{label} ({rows[i][0]},{rows[j][0]})", got == want,
                    "" if got == want else f"got {got}")


def reference_gl2_verify(table):
    rep = VerifyReport()
    order = table.group.order
    reference_orthonormality(rep, "row orthonormality", [(r.name, r.values) for r in table.rows],
                             [c.size for c in table.classes], order)
    ssq = sum(r.degree ** 2 for r in table.rows)
    rep.add("sum of squares", ssq == order, f"{ssq} vs |G|={order}")
    rep.add("row count equals class count", len(table.rows) == len(table.classes),
            f"{len(table.rows)} vs {len(table.classes)}")
    return rep


def reference_verify_table(table):
    rep = VerifyReport()
    g = table.group
    rows = table.rows
    reference_orthonormality(rep, "row orthonormality",
                             [(r.name, r.function.values) for r in rows], class_sizes(g), g.order)
    _reference_census(rep, g, rows)
    k = len(g.classes)
    for c1 in range(k):
        for c2 in range(c1, k):
            total = zero()
            for row in rows:
                total = total + row.function.values[c1] * row.function.values[c2].conjugate()
            want = cyc(g.classes[c1].centralizer_order) if c1 == c2 else zero()
            ok = total == want
            rep.add(f"column orthogonality ({g.class_label(c1)},{g.class_label(c2)})", ok,
                    "" if ok else f"got {total}, want {want}")
    return _reference_degrees(rep, g, rows)


def _reference_census(rep, g, rows):
    ssq = sum(row.degree ** 2 for row in rows)
    rep.add("sum of squares", ssq == g.order, f"{ssq} vs |G|={g.order}")
    rep.add("row count equals class count", len(rows) == len(g.classes),
            f"{len(rows)} vs {len(g.classes)}")


def _reference_degrees(rep, g, rows):
    for row in rows:
        rep.add(f"degree divides |G| ({row.name})", g.order % row.degree == 0,
                f"degree {row.degree}")
    return rep


def integer_reference_verify_table(table):
    """The entries of reference_verify_table for a table of integer values,
    as an S_n table is, from the same sums in Python ints: on S15 the
    Cyclotomic loop takes about half a minute."""
    rep, g, rows = VerifyReport(), table.group, table.rows
    assert all(v.is_integer() for row in rows for v in row.values)
    values = [[int(v.as_fraction()) for v in row.values] for row in rows]
    sizes = class_sizes(g)
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            total = sum(s * a * b for s, a, b in zip(sizes, values[i], values[j]))
            ok = total == (g.order if i == j else 0)
            rep.add(f"row orthonormality ({rows[i].name},{rows[j].name})", ok,
                    "" if ok else f"got {cyc(Fraction(total, g.order))}")
    _reference_census(rep, g, rows)
    k = len(g.classes)
    for c1 in range(k):
        for c2 in range(c1, k):
            total = sum(row[c1] * row[c2] for row in values)
            want = g.classes[c1].centralizer_order if c1 == c2 else 0
            rep.add(f"column orthogonality ({g.class_label(c1)},{g.class_label(c2)})",
                    total == want, "" if total == want else f"got {cyc(total)}, want {cyc(want)}")
    return _reference_degrees(rep, g, rows)


def assert_same(got, want):
    assert got == want and str(got) == str(want), (str(got), str(want))


# -- inner products --------------------------------------------------------------

def test_every_gl2_5_row_pair_matches_the_reference():
    table = gl2_table(5)
    sizes = [c.size for c in table.classes]
    order = table.group.order
    rows = [r.values for r in table.rows]
    pairs = [(i, j) for i in range(len(rows)) for j in range(len(rows))]
    # all pairs in one call read repeated rows in their two-root forms
    gram = hermitian_gram(rows, rows, pairs, sizes, order)
    for (i, j), got in zip(pairs, gram):
        want = reference_inner_product(sizes, order, rows[i], rows[j])
        assert_same(got, want)
        assert_same(table.inner_product(rows[i], rows[j]), want)


@pytest.mark.parametrize("q", [7, 11])
def test_seeded_gl2_row_pairs_match_the_reference(q):
    table = gl2_table(q)
    sizes = [c.size for c in table.classes]
    rng = random.Random(f"gram:{q}")
    for _ in range(40):
        v1 = rng.choice(table.rows).values
        v2 = v1 if rng.random() < 0.25 else rng.choice(table.rows).values
        assert_same(table.inner_product(v1, v2),
                    reference_inner_product(sizes, table.group.order, v1, v2))


SMALL_TABLES = {
    "S3": lambda: builtin_table("S3"),
    "A5": lambda: builtin_table("A5"),
    "Q8": lambda: builtin_table("Q8"),
    "Z7": lambda: abelian_dual_table(cyclic_group(7)),
    "D8": lambda: semidirect_table(dihedral_semidirect(8)),
}


def _seeded_class_function(rng, table, den):
    """A random cyclotomic class function with denominators dividing den:
    an integer combination of the rows plus a root of unity per class."""
    k = len(table.group.classes)
    values = [zero()] * k
    for row in table.rows:
        c = rng.randrange(-3, 4)
        values = [v + c * x for v, x in zip(values, row.function.values)]
    e = table.group.exponent
    values = [(v + rng.randrange(-2, 3) * zeta(e, rng.randrange(e))) / den for v in values]
    return ClassFunction(table.group, values)


@pytest.mark.parametrize("name", sorted(SMALL_TABLES))
def test_fractional_class_functions_match_the_reference(name):
    table = SMALL_TABLES[name]()
    g = table.group
    rng = random.Random(f"gram:{name}")
    for den in (1, 3, 6):
        f1 = _seeded_class_function(rng, table, den)
        f2 = _seeded_class_function(rng, table, 6 // den)
        assert_same(inner_product(f1, f2),
                    reference_inner_product(class_sizes(g), g.order, f1.values, f2.values))
        want = [reference_inner_product(class_sizes(g), g.order, f1.values, row.function.values)
                for row in table.rows]
        got = decompose(f1, table)
        for a, b in zip(got, want):
            assert_same(a, b)


def test_rational_tables_match_the_reference():
    table = sn_table(5)
    g = table.group
    rows = [row.function.values for row in table.rows]
    halves = [v / 2 for v in rows[3]]
    for v1 in rows + [halves]:
        for v2 in rows + [halves]:
            assert_same(hermitian_gram([v1], [v2], [(0, 0)], class_sizes(g),
                                       g.order)[0],
                        reference_inner_product(class_sizes(g), g.order, v1, v2))


@pytest.mark.parametrize("m", [7, 8, 12, 24, 48, 120, 168])
def test_two_root_forms_are_exact(m):
    rng = random.Random(f"two roots:{m}")
    for _ in range(30):
        a, b = rng.randrange(m), rng.randrange(m)
        d, s, t = rng.choice([1, 2, 13]), rng.choice([1, -1]), rng.choice([1, -1])
        v = d * (s * zeta(m, a) + t * zeta(m, b))
        if v.order != m or sum(1 for c in v.num if c) < 3:
            continue
        form = _short_roots(v)
        assert form is not None, (m, a, b, s, t)
        assert sum((k * zeta(m, e) for e, k in form), zero()) == v
        # a two-root sum that is one root, as 1 + zeta_3 = -zeta_3^2, is one term
        assert len(form) == (1 if abs(abs(v.numeric()) - d) < 1e-9 else 2), (m, a, b, s, t)
    # three independent roots are no two-root sum
    assert _short_roots(2 + zeta(7) + 3 * zeta(7, 2)) is None
    assert _short_roots(zeta(7) + zeta(7, 2) + zeta(7, 4)) is None


def test_a_root_of_unity_is_one_term():
    for m in range(1, 61):
        for k in range(m):
            for s in (1, -1):
                v = s * zeta(m, k)
                form = _short_roots(v)
                assert form is not None and len(form) == 1, (m, k, s)
                (e, c), = form
                assert c in (1, -1) and 0 <= e < v.order, (m, k, s)
                assert c * zeta(v.order, e) == v, (m, k, s)
                assert _short_roots(3 * v) == [(e, 3 * c)], (m, k, s)


def test_gram_kernel_options():
    a = [zeta(3), cyc(Fraction(1, 2)), zeta(4) / 3]
    b = [zeta(6), zeta(4), cyc(-2)]
    bilinear = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    # the right side is the conjugated one: a bilinear sum conjugates b first
    assert_same(hermitian_gram([a], [[y.conjugate() for y in b]], [(0, 0)])[0], bilinear)
    hermitian = sum((x * y.conjugate() for x, y in zip(a, b)), zero())
    assert_same(hermitian_gram([a], [b], [(0, 0)])[0], hermitian)
    assert_same(hermitian_gram([a], [b], [(0, 0)], [2, 0, 5], 7)[0],
                (2 * a[0] * b[0].conjugate() + 5 * a[2] * b[2].conjugate()) / 7)
    # an operand whose pool holds values its row does not use, and an
    # operand built once and read twice, from the rows it kept, read the same
    both = GramRows([a, b])
    assert len(both.pool) == 6 and both.index == [[0, 1, 2], [3, 4, 5]]
    kept = GramRows([b])
    for _ in range(2):
        assert_same(hermitian_gram(both, kept, [(0, 0)], [2, 0, 5], 7)[0],
                    (2 * a[0] * b[0].conjugate() + 5 * a[2] * b[2].conjugate()) / 7)
    assert hermitian_gram([[]], [[]], [(0, 0)])[0] == 0


# -- verify reports --------------------------------------------------------------

def _with_row(table, index, values):
    rows = list(table.rows)
    old = rows[index]
    rows[index] = TableRow(old.name, old.degree, ClassFunction(table.group, values))
    return CharacterTable(table.group, rows, table.name)


def _with_class_size(table, index, size):
    """The same rows on a copy of the group whose class `index` has the
    given size."""
    group = copy.copy(table.group)
    group.classes = list(group.classes)
    c = group.classes[index]
    group.classes[index] = GL2Class(c.family, c.params, size, c.centralizer_order, c.rep)
    rows = [TableRow(r.name, r.degree, ClassFunction(group, r.values)) for r in table.rows]
    return CharacterTable(group, rows, table.name)


def _sabotaged_gl2_5():
    table = gl2_table(5)
    perturbed = list(table.rows[7].values)
    perturbed[9] = perturbed[9] + zeta(24, 5)
    x = next(i for i, r in enumerate(table.rows) if r.name.startswith("X["))
    return {
        "perturbed value": _with_row(table, 7, perturbed),
        "conjugated row": _with_row(table, x, [v.conjugate() for v in table.rows[x].values]),
        "wrong class size": _with_class_size(table, 6, table.classes[6].size + 1),
    }


@pytest.mark.parametrize("kind", ["perturbed value", "conjugated row", "wrong class size"])
def test_sabotaged_gl2_tables_fail_like_the_reference(kind):
    table = _sabotaged_gl2_5()[kind]
    report = gl2_verify(table)
    assert not report.ok
    assert report.entries == reference_gl2_verify(table).entries
    assert verify_table(table).entries == reference_verify_table(table).entries


def test_gl2_tables_verify_like_the_reference():
    table = gl2_table(3)
    assert gl2_verify(table).entries == reference_gl2_verify(table).entries


def test_gl2_13_verifies():
    report = gl2_verify(gl2_table(13))
    assert report.ok
    assert sum(1 for check, _, _ in report.entries if check.startswith("row orthonormality")) == 14196
    assert len(report.entries) == 14198


def _a4_with_row(values):
    table = builtin_table("A4")
    rows = list(table.rows)
    old = rows[1]
    rows[1] = TableRow(old.name, old.degree, ClassFunction(table.group, values))
    return CharacterTable(table.group, rows, table.name, table.display_classes, table.class_labels)


def _sabotaged_a4(kind):
    values = list(builtin_table("A4").rows[1].function.values)
    if kind == "perturbed value":
        values[3] = values[3] + zeta(3)
    elif kind == "conjugated row":
        values = [v.conjugate() for v in values]
    else:
        values = values[:1] + [v / 3 for v in values[1:]]
    return _a4_with_row(values)


@pytest.mark.parametrize("kind", ["perturbed value", "conjugated row", "fractional row"])
def test_sabotaged_character_tables_fail_like_the_reference(kind):
    table = _sabotaged_a4(kind)
    report = verify_table(table)
    assert not report.ok
    assert report.entries == reference_verify_table(table).entries


@pytest.mark.parametrize("name", sorted(SMALL_TABLES))
def test_small_tables_verify_like_the_reference(name):
    table = SMALL_TABLES[name]()
    assert verify_table(table).entries == reference_verify_table(table).entries


# -- decompose keeps its reconstruction check --------------------------------------

# S3 with C- replaced by the trivial row: complete, but not orthonormal
NON_ORTHONORMAL_DECOMPOSE = """
from reptheory.chartab import CharacterTable, builtin_table, decompose, regular_character
t = builtin_table("S3")
rows = [t.rows[0], t.rows[0], t.rows[2]]
bad = CharacterTable(t.group, rows, "S3", t.display_classes, t.class_labels)
try:
    decompose(regular_character(t.group), bad)
except ValueError as exc:
    print(exc)
else:
    print("accepted")
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_decompose_rejects_a_non_orthonormal_table(optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-c", NON_ORTHONORMAL_DECOMPOSE],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "reconstruction failed: table is not orthonormal\n"


# -- the pooled kernel against the per-call kernel ---------------------------------

def reference_int_row(row, weights):
    den = lcm(*{v.den for v in row})
    return [w * v.num[0] * (den // v.den) for v, w in zip(row, weights)], den


def reference_root_row(row, n, weights, sign, shift, memo, short):
    den = lcm(*{v.den for v in row})
    terms = []
    for v, w in zip(row, weights):
        key = (v.order, v.num, w * (den // v.den))
        t = memo.get(key)
        if t is None:
            step, f = sign * (n // v.order), key[2]
            roots = [(i, c) for i, c in enumerate(v.num) if c]
            if short and len(roots) > 2:
                roots = _short_roots(v) or roots
            t = memo[key] = [(i * step % n - shift, c * f) for i, c in roots]
        terms.append(t)
    return terms, den, lcm(*{v.order for v in row})


def reference_hermitian_gram(left, right, pairs, weights=None, scale=1, conjugate=True):
    """The kernel on rows of values, converting every row on each call."""
    n = lcm(*{v.order for rows in (left, right) for row in rows for v in row})
    if weights is None:
        weights = [1] * max((len(row) for row in left), default=0)
    ones = [1] * len(weights)
    if n == 1:
        a = [reference_int_row(row, weights) for row in left]
        b = [reference_int_row(row, ones) for row in right]
        sums = ((sum(map(mul, a[i][0], b[j][0])), a[i][1] * b[j][1] * scale) for i, j in pairs)
        return [Cyclotomic(1, (s,), d) if s else zero() for s, d in sums]
    a, memo = [], {}
    for row in left:
        terms, den, order = reference_root_row(row, n, weights, 1, 0, memo, len(pairs) > len(left))
        nonzero = [c for c, sa in enumerate(terms) if sa]
        a.append((nonzero, [terms[c] for c in nonzero], den, order))
    memo = {}
    b = [reference_root_row(row, n, ones, -1 if conjugate else 1, n, memo, len(pairs) > len(right))
         for row in right]
    out = []
    for i, j in pairs:
        (cs, ta, da, oa), (tb, db, ob) = a[i], b[j]
        acc = [0] * n
        for c, sa in zip(cs, ta):
            sb = tb[c]
            if sb:
                for ea, ca in sa:
                    for eb, cb in sb:
                        acc[ea + eb] += ca * cb
        m = lcm(oa, ob)
        num = _fold(acc[::n // m], m)
        out.append(Cyclotomic(m, num, da * db * scale) if any(num) else zero())
    return out


def reference_decompose(f, table):
    g = f.group
    rows = [row.function.values for row in table.rows]
    mults = reference_hermitian_gram([f.values], rows, [(0, i) for i in range(len(rows))],
                                     class_sizes(g), g.order)
    columns = [[*col, v] for col, v in zip(zip(*rows), f.values)]
    residual = reference_hermitian_gram([mults + [cyc(-1)]], columns,
                                        [(0, c) for c in range(len(columns))], conjugate=False)
    if not all(r.is_zero for r in residual):
        raise ValueError("reconstruction failed: table is not orthonormal")
    return mults


def reference_tensor(table, i, j):
    mults = reference_decompose(table.rows[i].function * table.rows[j].function, table)
    fractions = [m.as_fraction() for m in mults]
    assert all(x >= 0 and x.denominator == 1 for x in fractions)
    return [int(x) for x in fractions]


def stored(values):
    return [(v.order, v.num, v.den) for v in values]


def _dihedral(n):
    return lambda: semidirect_table(dihedral_semidirect(n))


SMALL_TABLE_BUILDERS = {
    **{name: (lambda name=name: builtin_table(name)) for name in BUILTIN_TABLE_NAMES},
    "Z7": lambda: abelian_dual_table(cyclic_group(7)),
    "D8": _dihedral(8),
    "heisenberg": lambda: semidirect_table(heisenberg_semidirect()),
    "GL2(3)": lambda: gl2_table(3),
}

GRAM_TABLES = {
    **SMALL_TABLE_BUILDERS,
    **{f"D{n}": _dihedral(n) for n in range(3, 31)},
    **{f"S{n}": (lambda n=n: sn_table(n)) for n in range(1, 11)},
    "GL2(5)": lambda: gl2_table(5),
    "GL2(7)": lambda: gl2_table(7),
    **{f"GL2(5) {kind}": (lambda kind=kind: _sabotaged_gl2_5()[kind])
       for kind in ("perturbed value", "conjugated row", "wrong class size")},
    **{f"A4 {kind}": (lambda kind=kind: _sabotaged_a4(kind))
       for kind in ("perturbed value", "conjugated row", "fractional row")},
}


def _pairs(k):
    return [(i, j) for i in range(k) for j in range(i, k)]


@pytest.mark.parametrize("name", list(GRAM_TABLES))
def test_every_row_and_column_pair_matches_the_reference_kernel(name):
    table = GRAM_TABLES[name]()
    g = table.group
    rows = [row.values for row in table.rows]
    columns = [[row[c] for row in rows] for c in range(len(g.classes))]
    sizes = class_sizes(g)
    want = stored(reference_hermitian_gram(rows, rows, _pairs(len(rows)), sizes, g.order))
    for operand in (table.gram_rows, table.gram_rows, rows):
        assert stored(hermitian_gram(operand, operand, _pairs(len(rows)), sizes, g.order)) == want
    # unconjugated sums pass conjugated columns on the right
    conjugated = [[v.conjugate() for v in column] for column in columns]
    for conjugate in (True, False):
        want = stored(reference_hermitian_gram(columns, columns, _pairs(len(columns)),
                                               conjugate=conjugate))
        for operand in (table.gram_columns, columns):
            right = operand if conjugate else conjugated
            got = hermitian_gram(operand, right, _pairs(len(columns)))
            assert stored(got) == want
    # a row used in one pair is weighted in the sum, not in its terms
    i, j = len(rows) // 2, len(rows) - 1
    assert stored([table.inner_product(rows[i], rows[j])]) == \
        stored(reference_hermitian_gram([rows[i]], [rows[j]], [(0, 0)], sizes, g.order))


def _lifting_order(table):
    """The smallest prime from 7 on that does not divide the table's conductor."""
    return next(p for p in (7, 11, 13) if table.gram_rows.order % p)


@pytest.mark.parametrize("name", list(SMALL_TABLE_BUILDERS) + ["S5", "GL2(5)"])
def test_decompose_lifts_class_functions_like_the_reference(name):
    table = GRAM_TABLES[name]()
    g = table.group
    rng = random.Random(f"lift:{name}")
    for m in (_lifting_order(table), table.gram_rows.order):
        for _ in range(3):
            f = ClassFunction(g, [rng.randrange(-3, 4) * zeta(m, rng.randrange(m))
                                  + Fraction(rng.randrange(-2, 3), rng.choice((1, 2, 3)))
                                  for _ in g.classes])
            want = stored(reference_decompose(f, table))
            assert stored(decompose(f, table)) == want
            assert stored(decompose(f, table)) == want  # on the kept lifted forms


TENSOR_TABLES = [name for name in GRAM_TABLES
                 if name in SMALL_TABLE_BUILDERS or name in {f"S{n}" for n in range(1, 9)}]


@pytest.mark.parametrize("name", TENSOR_TABLES)
def test_every_tensor_product_matches_the_reference(name):
    table = GRAM_TABLES[name]()
    k = len(table.rows)
    for i in range(k):
        for j in range(i, k):
            assert tensor_multiplicities(table, i, j) == reference_tensor(table, i, j), (i, j)


# -- rational tables: tensor products on ints ----------------------------------------

# the builtin and dihedral tables whose pool is rational, and S1-S10: their
# tensor products run on ints, and decompose of a rational class function
# runs hermitian_gram's int branch
RATIONAL_TABLES = {
    **{f"builtin {name}": SMALL_TABLE_BUILDERS[name] for name in ("S3", "S4", "Q8")},
    **{f"D{n}": _dihedral(n) for n in (3, 4, 6)},
    **{f"S{n}": (lambda n=n: sn_table(n)) for n in range(1, 11)},
}


def test_the_rational_tables_are_every_rational_builtin_and_dihedral_table():
    builders = {**{f"builtin {name}": SMALL_TABLE_BUILDERS[name] for name in BUILTIN_TABLE_NAMES},
                **{f"D{n}": _dihedral(n) for n in range(3, 31)}}
    assert [name for name, build in builders.items() if build().gram_rows.order == 1] == \
        [name for name in RATIONAL_TABLES if name in builders]


def _rational_class_functions(table, rng):
    """The regular and permutation characters, every row, and seeded
    rational class functions: sums of rows, and virtual ones of fractions
    with denominators up to 6."""
    g, k = table.group, len(table.rows)
    rows = [row.function for row in table.rows]
    yield chartab.regular_character(g)
    yield chartab.permutation_character(g)
    yield from rows
    for _ in range(4):
        total = rows[0]
        for _ in range(3):
            total = total + rows[rng.randrange(k)]
        yield total
        yield ClassFunction(g, [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                                for _ in range(k)])
        yield rows[rng.randrange(k)] * Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))


@pytest.mark.parametrize("name", list(RATIONAL_TABLES))
def test_rational_class_functions_match_the_reference(name):
    table = RATIONAL_TABLES[name]()
    assert table.gram_rows.order == 1
    rng = random.Random(f"rational:{name}")
    for f in _rational_class_functions(table, rng):
        want = stored(reference_decompose(f, table))
        assert stored(decompose(f, table)) == want, [str(v) for v in f.values]


def test_an_sn_table_interns_nothing_for_a_tensor_product(monkeypatch):
    # a rational table's products and multiplicities stay ints: no value
    # is interned, no operand made and no Cyclotomic product formed
    table = sn_table(7)
    want = [reference_tensor(table, i, j) for i, j in ((1, 2), (3, 3), (0, 14))]

    def forbidden(*args, **kwargs):
        raise AssertionError("called on the int path")
    monkeypatch.setattr(exact.ValuePool, "positions", forbidden)
    monkeypatch.setattr(GramRows, "__init__", forbidden)
    monkeypatch.setattr(ClassFunction, "__mul__", forbidden)
    monkeypatch.setattr(chartab, "hermitian_gram", forbidden)
    assert [tensor_multiplicities(table, i, j) for i, j in ((1, 2), (3, 3), (0, 14))] == want
    # rows are indexed as a tuple is: from the end, and never past it
    k = len(table.rows)
    assert tensor_multiplicities(table, -k + 1, -1) == tensor_multiplicities(table, 1, k - 1)
    for i, j in ((k, 0), (0, -k - 1)):
        with pytest.raises(IndexError):
            tensor_multiplicities(table, i, j)


def test_a_negative_row_index_is_refused_and_kept_nowhere():
    # a row kept under -1 would count toward a full form, which looks up no
    # index: a later row 6 of S5 was then missing from it
    table = sn_table(5)
    op, sizes, order = table.gram_rows, table.class_sizes, table.group.order
    with pytest.raises(IndexError):
        hermitian_gram(op, op, [(-1, 0)], sizes, order)
    assert hermitian_gram(op, op, [(i, 0) for i in range(6)], sizes, order) == [1] + [0] * 5
    assert hermitian_gram(op, op, [(6, 0)], sizes, order) == [0]
    # on full forms, of int rows and of root terms, an index out of range
    # is refused too
    for table in (table, abelian_dual_table(cyclic_group(5))):
        op, k, sizes, order = table.gram_rows, len(table.rows), table.class_sizes, table.group.order
        assert hermitian_gram(op, op, [(i, i) for i in range(k)], sizes, order) == [1] * k
        for pair in ((-1, 0), (0, -1), (k, 0), (0, k)):
            with pytest.raises(IndexError):
                hermitian_gram(op, op, [pair], sizes, order)


# S5 with one value of row 3 raised by 1, and S4 with its trivial and sign
# rows turned by the rational rotation (3/5, 4/5): the first fails the
# reconstruction, the second passes it, being orthonormal, but its
# multiplicities are fractions. A tensor product takes the int path and the
# regular character hermitian_gram's; both give the same errors
SABOTAGED_RATIONAL_TABLES = """
from fractions import Fraction
from reptheory.chartab import (CharacterTable, ClassFunction, TableRow, decompose,
                               regular_character, tensor_multiplicities)
from reptheory.symgrp import sn_table

def with_rows(table, changes):
    rows = list(table.rows)
    for i, degree, values in changes:
        rows[i] = TableRow(rows[i].name, degree, ClassFunction(table.group, values))
    return CharacterTable(table.group, rows, table.name)

s5 = sn_table(5)
raised = list(s5.rows[3].values)
raised[-1] = raised[-1] + 1
perturbed = with_rows(s5, [(3, s5.rows[3].degree, raised)])
s4 = sn_table(4)
a, b = s4.rows[0].values, s4.rows[-1].values
turned = with_rows(s4, [(0, Fraction(7, 5), [(3 * x + 4 * y) / 5 for x, y in zip(a, b)]),
                        (4, Fraction(-1, 5), [(3 * y - 4 * x) / 5 for x, y in zip(a, b)])])
for table, call in [(perturbed, lambda t: tensor_multiplicities(t, 1, 1)),
                    (perturbed, lambda t: decompose(regular_character(t.group), t)),
                    (turned, lambda t: tensor_multiplicities(t, 1, 1)),
                    (turned, lambda t: [str(m) for m in decompose(regular_character(t.group), t)])]:
    assert table.gram_rows.order == 1
    try:
        print(call(table))
    except ValueError as exc:
        print(exc)
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_sabotaged_rational_tables_are_rejected(optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-c", SABOTAGED_RATIONAL_TABLES],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "reconstruction failed: table is not orthonormal",
        "reconstruction failed: table is not orthonormal",
        "tensor product decomposed with non-integer multiplicities",
        "['7/5', '3', '2', '3', '-1/5']"]


# -- interned tables -----------------------------------------------------------------

def _transferred_s3():
    s4 = builtin_table("S4").group
    s3sub = s4.subgroup([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2)])])
    return transfer_table(builtin_table("S3"), s3sub.group)


def _read_back(table, group_name=None):
    return lambda: table_from_json(json.loads(json.dumps(table_to_json(table(), group_name))))


POOL_BUILDERS = {
    **{f"builtin {name}": (lambda name=name: builtin_table(name)) for name in BUILTIN_TABLE_NAMES},
    **{f"sn_table {n}": (lambda n=n: sn_table(n)) for n in range(1, 9)},
    **{f"gl2_table {q}": (lambda q=q: gl2_table(q)) for q in (3, 5, 7, 11)},
    **{f"semidirect D{n}": _dihedral(n) for n in (3, 8, 15)},
    "semidirect heisenberg": lambda: semidirect_table(heisenberg_semidirect()),
    "abelian_dual Z1": lambda: abelian_dual_table(cyclic_group(1)),
    "abelian_dual Z12": lambda: abelian_dual_table(cyclic_group(12)),
    "abelian_dual klein": lambda: abelian_dual_table(builtin_group("D2")),
    "transfer_table S3": _transferred_s3,
    "table_from_json A5": _read_back(lambda: builtin_table("A5"), "A5"),
    "table_from_json S5": _read_back(lambda: sn_table(5), "S5"),
    "table_from_json D7": _read_back(_dihedral(7), "D7"),
    "_with_row GL2(5)": lambda: _sabotaged_gl2_5()["perturbed value"],
    "_with_class_size GL2(5)": lambda: _sabotaged_gl2_5()["wrong class size"],
    "_a4_with_row": lambda: _sabotaged_a4("fractional row"),
}


@pytest.mark.parametrize("name", list(POOL_BUILDERS))
def test_pool_holds_each_table_value_once(name):
    table = POOL_BUILDERS[name]()
    pool, index = table.pool, table.index
    assert len(set(stored(pool))) == len(pool)
    assert len(index) == len(table.rows)
    for row, indices in zip(table.rows, index):
        assert stored(pool[x] for x in indices) == stored(row.values), row.name
    assert {x for indices in index for x in indices} == set(range(len(pool)))
    # the table's kernel operands read the same pool, the columns by the
    # transposed index
    assert table.gram_rows.pool is pool and table.gram_columns.pool is pool
    assert table.gram_rows.index == index
    assert table.gram_columns.index == tuple(zip(*index))


def reference_intern(rows):
    """The interning loop every table ran on its rows before builders
    handed a table a pool and an index: each distinct stored form once, in
    the order first met row by row, found by identity first."""
    pool, where, index = [], {}, []
    for row in rows:
        indices = []
        for v in row:
            x = where.get(id(v))
            if x is None:
                key = (v.order, v.num, v.den)
                x = where.get(key)
                if x is None:
                    x = where[key] = where[id(v)] = len(pool)
                    pool.append(v)
            indices.append(x)
        index.append(indices)
    return pool, index


# table_to_json writes classes by permutation representatives, which the
# GL2 class data lacks
READ_BACK_BUILDERS = [name for name in POOL_BUILDERS if "GL2" not in name.upper()]


@pytest.mark.parametrize("table", [pytest.param(lambda q=q: gl2_table(q), id=f"gl2_table {q}")
                                   for q in (3, 5, 7, 11, 13)]
                         + [pytest.param(lambda n=n: sn_table(n), id=f"sn_table {n}")
                            for n in range(1, 11)]
                         + [pytest.param(_read_back(POOL_BUILDERS[name]), id=f"read back {name}")
                            for name in READ_BACK_BUILDERS])
def test_a_built_pool_is_the_interned_pool(table):
    # the builders that hand the table a pool and an index make the pool
    # and the index that interning the table's rows makes, in its order
    table = table()
    pool, index = reference_intern(row.values for row in table.rows)
    assert stored(table.pool) == stored(pool)
    assert [list(indices) for indices in table.index] == index


@pytest.mark.parametrize("name", READ_BACK_BUILDERS)
def test_a_read_back_pool_is_the_written_tables_pool(name):
    # a read-back table interns the file's rows in the group's class order,
    # so it has the pool and the index of the table that was written
    table = POOL_BUILDERS[name]()
    back = _read_back(lambda: table)()
    assert stored(back.pool) == stored(table.pool)
    assert back.index == [list(indices) for indices in table.index]


def test_a_pool_and_index_are_checked_once():
    table = sn_table(4)
    names, degrees = [r.name for r in table.rows], [r.degree for r in table.rows]
    pool, index = list(table.pool), [list(indices) for indices in table.index]
    built = CharacterTable.from_pool(table.group, names, degrees, pool, index)
    assert [r.values for r in built.rows] == [r.values for r in table.rows]
    assert built.pool is pool and built.index is index
    with pytest.raises(TypeError):
        CharacterTable.from_pool(table.group, names, degrees, pool[:-1] + [1], index)
    with pytest.raises(ValueError, match="one value per conjugacy class"):
        CharacterTable.from_pool(table.group, names, degrees, pool, index[:-1] + [index[-1][:-1]])
    with pytest.raises(ValueError):
        CharacterTable.from_pool(table.group, names, degrees, pool, index[:-1])
    with pytest.raises(ValueError, match="identity value differs"):
        CharacterTable.from_pool(table.group, names, degrees[1:] + degrees[:1], pool, index)


class _CountedHash(tuple):
    hashed = 0

    def __hash__(self):
        _CountedHash.hashed += 1
        return super().__hash__()


def test_a_form_is_found_by_the_identity_of_its_weights(monkeypatch):
    # integer rows of a rational table and root terms of a cyclotomic one
    for table in (sn_table(5), gl2_table(5)):
        n, sizes = table.gram_rows.order, _CountedHash(table.class_sizes)
        operand = GramRows(row.values for row in table.rows)
        _CountedHash.hashed = 0
        first = operand.rows(n, False, sizes, [0, 1])
        assert _CountedHash.hashed == 1
        assert operand.rows(n, False, sizes, [2]) is first
        assert operand.rows(n, False, sizes, [0, 1, 2]) is first
        assert _CountedHash.hashed == 1
        # an equal tuple, another object, finds the same form by value
        assert operand.rows(n, False, tuple(sizes), [3]) is first
        assert _CountedHash.hashed == 1 and set(first) == {0, 1, 2, 3}
    # a product with the table passes the table's own class sizes to the
    # kernel, so every product after the first finds its form by identity
    table, seen = gl2_table(5), []
    rows = GramRows.rows

    def recording(operand, n, right, weights, wanted):
        seen.append(weights)
        return rows(operand, n, right, weights, wanted)
    monkeypatch.setattr(GramRows, "rows", recording)
    for i, j in ((0, 1), (2, 2), (3, 7)):
        table.inner_product(table.rows[i].values, table.rows[j].values)
    assert len(seen) == 6 and all(w is table.class_sizes for w in seen[::2])


@pytest.mark.parametrize("name", ["S7", "A5", "D8", "GL2(5)"])
def test_a_table_converts_its_values_once(name, monkeypatch):
    table = GRAM_TABLES[name]()
    converted = []
    rows = GramRows.rows

    def filled(operand):
        return len(operand._ints or ()) + sum(t is not None for terms in operand._terms.values()
                                              for t in terms)

    def counting_rows(operand, *args):
        before = filled(operand)
        out = rows(operand, *args)
        if operand.pool is table.pool and filled(operand) > before:
            converted.append(filled(operand) - before)
        return out
    monkeypatch.setattr(GramRows, "rows", counting_rows)
    tensor_multiplicities(table, 1, 2)
    verify_table(table)
    assert converted
    converted.clear()
    tensor_multiplicities(table, 1, 2)
    tensor_multiplicities(table, 2, 3)
    verify_table(table)
    assert converted == []


def test_columns_reuse_the_rows_two_root_forms(monkeypatch):
    # read back from JSON, the table carries no builder forms, so its
    # operand searches its long values itself
    table = table_from_json(json.loads(json.dumps(gl2_table_to_json(gl2_table(7)))))
    long = [v for v in table.pool if sum(map(bool, v.num)) > 2]
    assert len(long) == 10
    searched = []

    def counting(v):
        if any(v is u for u in table.pool):
            searched.append(v)
        return _short_roots(v)
    monkeypatch.setattr(exact, "_short_roots", counting)
    # decompose reads the rows and then the columns; the orbit search of
    # verify reads one-root forms only, through _one_root
    f = chartab.regular_character(table.group)
    decompose(f, table)
    verify_table(table)
    assert table._gram_columns is not None
    # one search per long entry, none for the columns
    assert sorted(map(id, searched)) == sorted(map(id, long))
    searched.clear()
    decompose(f, table)
    verify_table(table)
    assert searched == []


@pytest.mark.parametrize("q", [3, 7, 11, 13])
def test_a_built_gl2_table_searches_no_value(q, monkeypatch):
    # gl2_table hands its values' root forms to its operand, so neither the
    # rows nor the columns search one
    table = gl2_table(q)
    searched = []

    def counting(v):
        searched.append(v)
        return _short_roots(v)
    monkeypatch.setattr(exact, "_short_roots", counting)
    f = chartab.regular_character(table.group)
    assert decompose(f, table) == [row.degree for row in table.rows]
    assert verify_table(table).ok
    rows = table.rows
    for i, j in [(0, 0), (1, len(rows) - 1), (len(rows) - 1, len(rows) - 1), (2, 3)]:
        assert table.inner_product(rows[i].values, rows[j].values) == int(i == j)
    assert searched == []


def test_a_tables_own_row_is_not_searched_again(monkeypatch):
    # decompose reads a class function whose values are a row's own tuple
    # from the table's operand, as CharacterTable.inner_product does
    table = gl2_table(7)
    f = ClassFunction(table.group, table.rows[-1].values)
    assert f.values is table.rows[-1].values
    searched = []

    def counting(v):
        searched.append(v)
        return _short_roots(v)
    monkeypatch.setattr(exact, "_short_roots", counting)
    decompose(f, table)
    searched.clear()
    mults = decompose(f, table)
    assert searched == []
    assert mults == [0] * (len(table.rows) - 1) + [1]


def _held_rows(operand):
    """The rows each root form (n, right, weights), n > 1, of an operand
    holds, by side: False for left operands, True for conjugated right
    ones."""
    return {key[1]: set(form[0]) for key, form in operand._forms.items()
            if isinstance(key, tuple) and key[0] > 1}


def test_a_lasting_operand_holds_only_the_rows_it_was_asked_for():
    table = gl2_table(11)
    rows, sizes = table.rows, class_sizes(table.group)
    got = table.inner_product(rows[3].values, rows[50].values)
    assert got == reference_inner_product(sizes, table.group.order, rows[3].values,
                                          rows[50].values) == 0
    assert _held_rows(table.gram_rows) == {False: {3}, True: {50}}
    # the orbit path reads only the rows of its representative pairs, and a
    # second verify reads them from the forms the first one kept
    table = gl2_table(7)
    want = reference_gl2_verify(table).entries
    assert gl2_verify(table).entries == want
    reps = table.gram_rows._forms["orbits"]
    held = _held_rows(table.gram_rows)
    assert held == {False: {i for i, _ in reps}, True: {j for _, j in reps}}
    assert len(held[False]) < len(table.rows)
    assert gl2_verify(table).entries == want
    assert _held_rows(table.gram_rows) == held


def test_a_rational_operand_holds_only_the_rows_it_was_asked_for():
    table = sn_table(15)
    rows, sizes = table.rows, class_sizes(table.group)
    got = table.inner_product(rows[3].values, rows[50].values)
    assert got == reference_inner_product(sizes, table.group.order, rows[3].values,
                                          rows[50].values) == 0
    # the weighted left form and the conjugated right form, each as integer
    # rows over the pool's denominator
    assert {key: set(form[0]) for key, form in table.gram_rows._forms.items()} == {
        (1, False, tuple(sizes)): {3}, (1, True, None): {50}}
    # verify adds the other rows to the same forms
    assert verify_table(table).entries == integer_reference_verify_table(table).entries
    assert set(table.gram_rows._forms[1, False, tuple(sizes)][0]) == set(range(len(rows)))
    # the integer reference reads as reference_verify_table does, also on a
    # table that is wrong on purpose
    small = sn_table(6)
    perturbed = list(small.rows[3].values)
    perturbed[-1] = perturbed[-1] + 1
    for t in (small, _with_row(small, 3, perturbed)):
        assert integer_reference_verify_table(t).entries == reference_verify_table(t).entries


# -- columns by duality ------------------------------------------------------------

def _column_pairs(table, monkeypatch):
    """The number of column pairs each hermitian_gram call of verify_table
    reads from the table's columns, and the report."""
    calls = []

    def counting(left, right, pairs, *args, **kwargs):
        calls.append((left, right, len(pairs)))
        return hermitian_gram(left, right, pairs, *args, **kwargs)
    monkeypatch.setattr(chartab, "hermitian_gram", counting)
    report = verify_table(table)
    monkeypatch.undo()
    columns = table._gram_columns
    return [n for left, right, n in calls if columns is not None and columns in (left, right)], report


@pytest.mark.parametrize("name", ["A5", "S8", "D10", "GL2(5)"])
def test_a_passing_complete_table_computes_no_column_product(name, monkeypatch):
    table = GRAM_TABLES[name]()
    counted, report = _column_pairs(table, monkeypatch)
    assert counted == []
    assert report.ok
    reference = integer_reference_verify_table if name == "S8" else reference_verify_table
    assert report.entries == reference(table).entries


def _dropped_last_row(table):
    return CharacterTable(table.group, table.rows[:-1], table.name)


@pytest.mark.parametrize("name", ["A5", "S6", "D10"])
@pytest.mark.parametrize("fault", ["one value", "last row dropped"])
def test_a_failing_table_computes_every_column_pair(name, fault, monkeypatch):
    table = GRAM_TABLES[name]()
    if fault == "one value":
        values = list(table.rows[2].values)
        values[-1] = values[-1] + 1
        table = _with_row(table, 2, values)
    else:
        table = _dropped_last_row(table)
    k = len(table.group.classes)
    counted, report = _column_pairs(table, monkeypatch)
    assert sum(counted) == k * (k + 1) // 2
    assert not report.ok
    assert report.entries == reference_verify_table(table).entries


@pytest.mark.parametrize("build", [lambda: sn_table(5), _dihedral(8)], ids=["S5", "D8"])
def test_a_wrong_centralizer_order_fails_its_column_entry(build, monkeypatch):
    table = build()
    c = 2
    group = copy.copy(table.group)
    group.classes = list(group.classes)
    cl = group.classes[c] = copy.copy(group.classes[c])
    size = cl.size
    cl.centralizer_order += 1
    assert cl.size == size
    rows = [TableRow(r.name, r.degree, ClassFunction(group, r.values)) for r in table.rows]
    table = CharacterTable(group, rows, table.name)
    counted, report = _column_pairs(table, monkeypatch)
    assert counted == []
    want = reference_verify_table(table)
    assert report.entries == want.entries
    label = group.class_label(c)
    assert report.failures() == want.failures() == [
        (f"column orthogonality ({label},{label})",
         f"got {group.order // size}, want {group.order // size + 1}")]

"""Verification by power-map and twist orbits against the full Gram matrix.

`orbit_gram` computes one Hermitian product per orbit of row pairs under
the exact symmetries of a table. Every report it feeds must equal, entry
for entry, the report from the full Gram matrix, which `full_gram` forces
by raising `chartab.ORBIT_ROWS` above every table; `all_orbits` lowers it
to 1 so that small tables take the orbit path too.
"""

import copy
import gc
import json
import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import reptheory
from reptheory import chartab, exact
from reptheory.chartab import (BUILTIN_TABLE_NAMES, CharacterTable, ClassFunction,
                               SemidirectProduct, TableRow, abelian_dual_table, builtin_table,
                               class_sizes, dihedral_semidirect, heisenberg_semidirect,
                               orbit_gram, semidirect_table, verify_table)
from reptheory.exact import FieldKeys, hermitian_gram, one, unit_generators, zero, zeta
from reptheory.gl2fq import GL2Class, GL2Group, gl2_table, gl2_verify
from reptheory.permgroup import SymmetricGroup, cyclic_group


def doubling_action(m, p):
    # Z_m acting on Z_p by k -> 2k, for 2 of order m mod p
    return SemidirectProduct(cyclic_group(m), cyclic_group(p), [tuple(2 * k % p for k in range(p))])


TABLES = {
    **{name: (lambda name=name: builtin_table(name)) for name in BUILTIN_TABLE_NAMES},
    **{f"Z{n}": (lambda n=n: abelian_dual_table(cyclic_group(n))) for n in range(1, 21)},
    **{f"D{n}": (lambda n=n: semidirect_table(dihedral_semidirect(n))) for n in range(1, 21)},
    "Z8 on Z17": lambda: semidirect_table(doubling_action(8, 17)),
    "heisenberg": lambda: semidirect_table(heisenberg_semidirect()),
    **{f"GL2({q})": (lambda q=q: gl2_table(q)) for q in (3, 5, 7, 11, 13)},
}


@pytest.fixture
def full_gram(monkeypatch):
    monkeypatch.setattr(chartab, "ORBIT_ROWS", float("inf"))


@pytest.fixture
def all_orbits(monkeypatch):
    monkeypatch.setattr(chartab, "ORBIT_ROWS", 1)


def _reports(build, monkeypatch):
    """(default, orbits everywhere, full Gram) reports of verify_table and,
    for GL2, gl2_verify, each on a freshly built table."""
    checks = [verify_table] + ([gl2_verify] if build().name.startswith("GL2") else [])
    out = []
    for rows in (chartab.ORBIT_ROWS, 1, float("inf")):
        monkeypatch.setattr(chartab, "ORBIT_ROWS", rows)
        out.append([check(build()).entries for check in checks])
    return out


@pytest.mark.parametrize("name", list(TABLES))
def test_orbit_reports_equal_the_full_gram(name, monkeypatch):
    default, orbits, full = _reports(TABLES[name], monkeypatch)
    assert default == full
    assert orbits == full
    assert all(ok for entries in full for _, ok, _ in entries)


# orbits of row pairs under power maps and twists; the row pairs number 36,
# 300, 1176, 7260 and 14196
GL2_ORBITS = {3: 19, 5: 55, 7: 95, 11: 188, 13: 260}


@pytest.mark.parametrize("q", sorted(GL2_ORBITS))
def test_gl2_orbit_counts(q, monkeypatch, all_orbits):
    table = gl2_table(q)
    counted = []

    def counting(left, right, pairs, *args, **kwargs):
        counted.append(len(pairs))
        return hermitian_gram(left, right, pairs, *args, **kwargs)
    monkeypatch.setattr(chartab, "hermitian_gram", counting)
    assert orbit_gram(table) is None
    assert counted == [GL2_ORBITS[q]]
    # without twists (no value is read as a root of unity) the orbits of
    # the power maps alone are more
    counted.clear()
    monkeypatch.setattr(FieldKeys, "root", lambda keys, y: None)
    assert orbit_gram(gl2_table(q)) is None
    assert counted[0] > GL2_ORBITS[q]


@pytest.mark.parametrize("name", list(TABLES))
def test_a_passing_table_is_proven_without_its_products(name, all_orbits):
    table = TABLES[name]()
    got = orbit_gram(table)
    if table.gram_rows.order > 1:
        assert got is None
    else:
        # a rational table has no orbit search: every product is computed
        k = len(table.rows)
        assert got == [int(i == j) for i in range(k) for j in range(i, k)]


def test_the_search_holds_a_bounded_number_of_coordinates(monkeypatch):
    want = gl2_verify(gl2_table(5)).entries
    table = gl2_table(5)
    assert len(table.pool) * 8 == 232  # phi(24) = 8 coordinates per value
    monkeypatch.setattr(chartab, "KEY_COORDINATES", 231)
    monkeypatch.setattr(chartab, "_pair_orbits", None)  # a search would raise
    assert gl2_verify(table).entries == want


def test_every_builtin_irrational_table_has_symmetries(all_orbits):
    for name in ("A4", "A5", "D5", "Z7", "heisenberg", "Z8 on Z17"):
        table = TABLES[name]()
        assert chartab._row_symmetries(table), name


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_every_row_map_is_kept_once(q):
    # on GL2(F_5) the lifted unit generators 13 and 17 give one class permutation
    maps = chartab._row_symmetries(gl2_table(q))
    assert maps and len(set(map(tuple, maps))) == len(maps)


def test_the_sign_row_of_an_odd_dihedral_group_twists():
    # D15: every value has order 15, so the sign row's -1 is no power of
    # zeta_15, and is read as -zeta_15^0
    table = semidirect_table(dihedral_semidirect(15))
    values = [list(row.values) for row in table.rows]
    sign = next(v for v in values if v[0] == 1 and any(x == -1 for x in v))
    twist = [values.index([s * x for s, x in zip(sign, v)]) for v in values]
    assert chartab._row_symmetries(table).count(twist) == 1


# -- broken tables ------------------------------------------------------------

def _with_values(table, i, values):
    rows = list(table.rows)
    rows[i] = TableRow(rows[i].name, rows[i].degree, ClassFunction(table.group, values))
    return CharacterTable(table.group, rows, table.name, table.display_classes, table.class_labels)


def broken_gl2_5(c=13):
    # class 13 is fixed by the power maps of 13 and 17, which keep the
    # table's rows; class 17 is moved by every power map, so none is kept
    table = gl2_table(5)
    values = list(table.rows[9].values)
    values[c] = values[c] + zeta(24, 7)
    return _with_values(table, 9, values)


def swapped_a5():
    # the golden-ratio values swapped in row C3+ only: C3+ now equals C3-,
    # and sqrt 5 -> -sqrt 5 maps it to no row
    table = builtin_table("A5")
    i = table.row_index("C3+")
    values = list(table.rows[i].values)
    c1, c2 = table.display_classes[3], table.display_classes[4]
    values[c1], values[c2] = values[c2], values[c1]
    return _with_values(table, i, values)


def gl2_5_with_a_wrong_class_size():
    # the rows keep every symmetry, so whole orbits fail and are computed
    table = gl2_table(5)
    group = copy.copy(table.group)
    group.classes = list(group.classes)
    c = group.classes[6]
    group.classes[6] = GL2Class(c.family, c.params, c.size + 1, c.centralizer_order, c.rep)
    rows = [TableRow(r.name, r.degree, ClassFunction(group, r.values)) for r in table.rows]
    return CharacterTable(group, rows, table.name)


BROKEN = {"GL2(5) one value": broken_gl2_5, "A5 swapped": swapped_a5,
          "GL2(5) class size": gl2_5_with_a_wrong_class_size}


@pytest.mark.parametrize("name", list(BROKEN))
def test_broken_tables_report_like_the_full_gram(name, monkeypatch):
    (default, orbits, full) = _reports(BROKEN[name], monkeypatch)
    assert default == full
    assert orbits == full
    assert any(not ok for entries in full for _, ok, _ in entries)


@pytest.mark.parametrize("name", list(BROKEN))
def test_a_broken_table_reads_the_full_gram(name, all_orbits):
    table = BROKEN[name]()
    g = table.group
    k = len(table.rows)
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    want = hermitian_gram(table.gram_rows, table.gram_rows, pairs, class_sizes(g), g.order)
    got = orbit_gram(table)
    assert [(v.order, v.num, v.den) for v in got] == [(v.order, v.num, v.den) for v in want]


def test_a_power_map_onto_a_class_of_another_size_is_refused(monkeypatch):
    # the power map of 7 swaps classes 5 and 6 of GL2(F_5) and keeps the
    # rows; with class 6 one larger, it keeps them still but moves class 6
    # onto one of another size
    p = gl2_table(5).group.power_class_map(7)
    table = gl2_5_with_a_wrong_class_size()
    assert p[6] == 5 and table.class_sizes[5] != table.class_sizes[6]
    rows = {tuple(v.key() for v in row.values) for row in table.rows}
    assert {tuple(key[c] for c in p) for key in rows} == rows
    monkeypatch.setattr(GL2Group, "power_class_map", lambda group, k: p)
    with monkeypatch.context() as no_twists:
        no_twists.setattr(FieldKeys, "root", lambda keys, y: None)
        assert chartab._row_symmetries(table) == []
        assert chartab._row_symmetries(gl2_table(5))  # kept where the sizes are true
    default, orbits, full = _reports(gl2_5_with_a_wrong_class_size, monkeypatch)
    assert default == full and orbits == full
    assert any(not ok for entries in full for _, ok, _ in entries)


def test_a_wrong_class_size_fails_whole_orbits(all_orbits):
    table = gl2_5_with_a_wrong_class_size()
    assert chartab._row_symmetries(table)
    assert len(gl2_verify(table).failures()) > GL2_ORBITS[5]


def test_a_table_with_no_symmetry_searches_once(monkeypatch):
    table = broken_gl2_5(17)
    searches = []
    search = chartab._row_symmetries

    def counting(*args):
        searches.append(args)
        return search(*args)
    monkeypatch.setattr(chartab, "_row_symmetries", counting)
    want = gl2_verify(table).entries
    assert gl2_verify(table).entries == want
    assert len(searches) == 1
    assert table.gram_rows._forms["orbits"] is None


def test_the_orbit_search_keeps_no_field_keys():
    table = gl2_table(7)
    assert gl2_verify(table).ok
    gc.collect()
    assert not any(isinstance(x, FieldKeys) for x in gc.get_objects())
    assert table.gram_rows._forms["orbits"] is not None


def test_swapped_a5_keeps_no_galois_symmetry(all_orbits, monkeypatch):
    table = swapped_a5()
    # 2, the one generator of the units mod 5, lifts to 7, prime to 60: its
    # power map swaps the two classes of 5-cycles and keeps their size,
    # but takes row C3+ to no row
    p = table.group.power_class_map(7)
    assert sorted(p) == list(range(5)) and p != list(range(5))
    assert [table.class_sizes[c] for c in p] == list(table.class_sizes)
    monkeypatch.setattr(FieldKeys, "root", lambda keys, y: None)  # no twists
    assert chartab._row_symmetries(table) == []


def _mutated(table, rng):
    """The table with one seeded fault: a value moved, a row repeated,
    conjugated or scaled by a root of unity, two values of a row or two
    columns swapped. None where the fault breaks a row's stated degree."""
    rows = [list(r.values) for r in table.rows]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    a, b = rng.randrange(len(rows[0])), rng.randrange(len(rows[0]))
    kind = rng.randrange(6)
    if kind == 0:
        rows[i][a] = rows[i][a] + zeta(rng.choice([3, 4, 8, 24]), rng.randrange(1, 24))
    elif kind == 1:
        rows[i] = list(rows[j])
    elif kind == 2:
        rows[i] = [v.conjugate() for v in rows[i]]
    elif kind == 3:
        rows[i] = [v * zeta(rng.choice([3, 4, 6])) for v in rows[i]]
    else:
        for row in rows if kind == 4 else [rows[i]]:
            row[a], row[b] = row[b], row[a]
    if any(row[0] != old.degree for row, old in zip(rows, table.rows)):
        return None
    return CharacterTable(table.group, [TableRow(old.name, old.degree, ClassFunction(table.group, row))
                                        for row, old in zip(rows, table.rows)],
                          table.name, table.display_classes, table.class_labels)


def test_seeded_faults_report_like_the_full_gram(monkeypatch):
    rng = random.Random("orbit faults")
    checked = 0
    for _ in range(120):
        name = rng.choice(["A5", "D8", "heisenberg", "Z12", "GL2(5)"])
        table = _mutated(TABLES[name](), rng)
        if table is None:
            continue
        checked += 1
        default, orbits, full = _reports(lambda: _mutated_copy(table), monkeypatch)
        assert default == full and orbits == full, name
    assert checked >= 60


def _mutated_copy(table):
    # a fresh table over the same rows, so that no kept orbits are reused
    return CharacterTable(table.group, [TableRow(r.name, r.degree, r.function) for r in table.rows],
                          table.name, table.display_classes, table.class_labels)


BROKEN_UNDER_O = """
import json
from reptheory.gl2fq import gl2_table, gl2_verify
from reptheory.chartab import CharacterTable, ClassFunction, TableRow
from reptheory.exact import zeta
table = gl2_table(5)
values = list(table.rows[9].values)
values[13] = values[13] + zeta(24, 7)
rows = list(table.rows)
rows[9] = TableRow(rows[9].name, rows[9].degree, ClassFunction(table.group, values))
print(json.dumps(gl2_verify(CharacterTable(table.group, rows, table.name)).failures()))
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_broken_table_fails_under_optimize(optimize, full_gram):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-c", BROKEN_UNDER_O], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = [list(failure) for failure in gl2_verify(broken_gl2_5()).failures()]
    assert want and json.loads(proc.stdout) == want


# -- the maps themselves --------------------------------------------------------

@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_galois_action_is_the_power_map(q):
    """sigma_j(chi)(c) = chi(c^j) for every unit j mod n = q^2 - 1, read
    with power_class_map(j') for j' = j mod n and prime to q: an exact
    check of the power maps, values compared by their reduced keys."""
    table = gl2_table(q)
    group, pool, index = table.group, table.pool, table.index
    n = q * q - 1
    assert table.gram_rows.order == n
    key = [v.key() for v in pool]
    for j in range(1, n):
        if gcd(j, n) != 1:
            continue
        image = [v.galois(j).key() for v in pool]
        pmap = group.power_class_map(j if j % q else j + n)
        for row in index:
            assert [image[x] for x in row] == [key[row[c]] for c in pmap], (q, j)


def _lifted(j, n, order):
    # the least j + tn prime to the group order
    while gcd(j, order) > 1:
        j += n
    return j


def test_lifted_power_maps_are_size_keeping_bijections():
    # every unit j mod N, N the conductor of an irrational table (GL2(F_q)
    # for q <= 13 among them) or the exponent of S_n for n <= 8
    groups = [(table.group, table.gram_rows.order)
              for table in (build() for build in TABLES.values()) if table.gram_rows.order > 1]
    groups += [(SymmetricGroup(n), SymmetricGroup(n).exponent) for n in range(1, 9)]
    assert len(groups) >= 40
    for group, n in groups:
        sizes = [cl.size for cl in group.classes]
        for j in range(1, n + 1):
            if gcd(j, n) == 1:
                p = group.power_class_map(_lifted(j, n, group.order))
                assert sorted(p) == list(range(len(sizes))), (group, j)
                assert [sizes[c] for c in p] == sizes, (group, j)


def _galois_row_maps(table):
    """For each generator j of the units mod N, the row map of sigma_j:
    zeta_N -> zeta_N^j, read off the values: row r goes to the first row
    whose reduced keys are those of sigma_j of row r's values. Identity
    maps and repeats are left out."""
    pool, index = table.pool, table.index
    key = [v.key() for v in pool]
    where = {}
    for i, row in enumerate(index):
        where.setdefault(tuple(key[x] for x in row), i)
    out = []
    for j in unit_generators(table.gram_rows.order):
        image = [v.galois(j).key() for v in pool]
        m = [where[tuple(image[x] for x in row)] for row in index]
        if m != list(range(len(index))) and m not in out:
            out.append(m)
    return out


@pytest.mark.parametrize("name", list(TABLES))
def test_power_map_row_maps_are_the_galois_row_maps(name, monkeypatch):
    table = TABLES[name]()
    monkeypatch.setattr(FieldKeys, "root", lambda keys, y: None)  # no twists
    assert chartab._row_symmetries(table) == _galois_row_maps(table)


def test_unit_generators_generate_the_units():
    for n in range(1, 1000):
        gens = unit_generators(n)
        units = {j % n for j in range(1, n + 1) if gcd(j, n) == 1}
        assert set(g % n for g in gens) <= units, n
        reached, todo = {1 % n}, [1 % n]
        for x in todo:
            for g in gens:
                if x * g % n not in reached:
                    reached.add(x * g % n)
                    todo.append(x * g % n)
        assert reached == units, n


def test_field_keys_merge_one_value_stored_at_two_orders():
    a, b = zeta(6), zeta(48, 8)
    assert (a.order, b.order) == (6, 48) and a == b
    keys = FieldKeys([a, b, zeta(48), one()])
    assert keys.n == 48 and keys.ids == [0, 0, 1, 2]
    assert keys.find(zeta(3, 1) * zeta(6, 1) * zeta(6, 1).conjugate() * zeta(2)) is None
    assert [keys.root(x) for x in range(3)] == [(1, 8), (1, 1), (1, 0)]
    assert keys.times(1, [0, 1, 2]) == {0: None, 1: None, 2: 1}
    assert keys.times(1, [2]) == {0: None, 1: None, 2: 1}


def test_field_keys_read_signed_roots():
    # N = 12: -1 and i are powers of zeta_12
    keys = FieldKeys([zeta(12, 5), -one(), zeta(4), (3 + 4 * zeta(4)) / 5, 2 * zeta(12), zero()])
    assert keys.n == 12
    assert [keys.root(x) for x in range(6)] == [(1, 5), (1, 6), (1, 3), None, None, None]
    # N = 15: -1 is not, and is read with the sign
    keys = FieldKeys([zeta(15, 2), -one(), -zeta(15, 4), 2 * zeta(15), zero(), one()])
    assert keys.n == 15
    assert [keys.root(x) for x in range(6)] == [(1, 2), (-1, 0), (-1, 4), None, None, (1, 0)]
    # a twist by -1 moves signs: -1 * -zeta_15^4 is not in the pool, -1 * -1 is 1
    assert keys.times(1, [1, 2]) == {1: 5, 2: None}


def test_field_keys_root_runs_no_two_root_search(monkeypatch):
    # zeta_7 + zeta_7^2 (six coordinates) is a sum of two roots and no one
    # root; root reads None from the one-root test alone
    searched = []
    monkeypatch.setattr(exact, "_short_roots", lambda v: searched.append(v))
    keys = FieldKeys([zeta(7) + zeta(7, 2), -zeta(7, 3), zeta(7, 4) - zeta(7, 5)])
    assert [keys.root(x) for x in range(3)] == [None, (-1, 3), None]
    assert searched == []


# -- rows of the table read through its pool -----------------------------------------

def test_inner_product_reads_rows_through_the_pool(monkeypatch):
    table = gl2_table(11)
    rows = table.rows
    sizes, order = class_sizes(table.group), table.group.order

    def want(v1, v2):
        return hermitian_gram([v1], [v2], [(0, 0)], sizes, order)[0]
    converted = []
    original = exact._root_terms

    def counting(*args):
        converted.append(args[0])
        return original(*args)
    monkeypatch.setattr(exact, "_root_terms", counting)
    pairs = [(3, 3), (3, 50), (50, 119), (0, 7)]
    for i, j in pairs:
        got = table.inner_product(rows[i].values, rows[j].values)
        assert (got.order, got.num, got.den) == (one() if i == j else zero()).key()
    # each value those rows use converted once for each side of the product
    assert 0 < len(converted) <= 2 * len(table.pool)
    converted.clear()
    for i, j in pairs:
        table.inner_product(rows[i].values, rows[j].values)
    assert converted == []
    # a sequence that is not a row of the table, also one equal to a row
    monkeypatch.undo()
    values = list(rows[5].values)
    for v1, v2 in [(values, rows[5].values), (rows[7].values, [2 * v for v in values])]:
        got, ref = table.inner_product(v1, v2), want(v1, v2)
        assert (got.order, got.num, got.den) == (ref.order, ref.num, ref.den)

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reptheory
from reptheory import chartab
from reptheory.chartab import (BUILTIN_TABLE_NAMES, CharacterTable, ClassFunction,
                               TableRow, abelian_dual_table, builtin_table,
                               decompose, dihedral_semidirect, frobenius_schur,
                               heisenberg_semidirect, induce, inner_product,
                               integer_multiplicities, permutation_character,
                               regular_character, render_table, restrict,
                               semidirect_table, table_from_json, table_to_json,
                               tensor_multiplicities, transfer_table, verify_rows,
                               verify_table)
from reptheory.exact import (Cyclotomic, cyc, cyclotomic_from_json, cyclotomic_to_json, zeta,
                            zero)
from reptheory.gl2fq import gl2_table, gl2_table_to_json
from reptheory.permgroup import (PermGroup, builtin_group, cyclic_group, from_cycles, p_inv,
                                 p_mul, p_order)
from reptheory.symgrp import MAX_TABLE_N, sn_table


def trivial_character(group):
    return ClassFunction(group, [1] * len(group.classes))


def test_class_function_values():
    g = builtin_table("S3").group
    mixed = ClassFunction(g, [1, Fraction(1, 2), zeta(3)])
    assert all(type(v) is Cyclotomic for v in mixed.values)
    assert mixed.values == (cyc(1), cyc(Fraction(1, 2)), zeta(3))
    # Cyclotomic values are kept as the same objects
    values = [zeta(3), zeta(3, 2), cyc(-1)]
    assert all(a is b for a, b in zip(ClassFunction(g, values).values, values))
    for bad in ([1.0, 1, 1], [zeta(3), zeta(3), "1"]):
        with pytest.raises(TypeError):
            ClassFunction(g, bad)


def test_inner_products_on_s3():
    t = builtin_table("S3")
    c2 = t.row_by_name("C2").function
    assert inner_product(c2, c2) == 1
    plus = t.row_by_name("C+").function
    minus = t.row_by_name("C-").function
    assert inner_product(plus, minus) == 0
    assert inner_product(trivial_character(t.group), trivial_character(t.group)) == 1
    # Hermitian symmetry on a complex-valued table
    a4 = builtin_table("A4")
    f1 = a4.row_by_name("Ce").function
    f2 = a4.row_by_name("C3").function
    assert inner_product(f1, f2) == inner_product(f2, f1).conjugate()


def test_group_mismatch_is_an_error():
    t = builtin_table("S3")
    other = builtin_table("S4")
    with pytest.raises(ValueError):
        inner_product(t.rows[0].function, other.rows[0].function)


def test_verify_all_builtins():
    for name in BUILTIN_TABLE_NAMES:
        report = verify_table(builtin_table(name))
        assert report.ok, (name, report.failures()[:3])


def test_column_orthogonality_value():
    # the column at the transposition class of S3 has squared norm |Z| = 2
    t = builtin_table("S3")
    g = t.group
    two = next(i for i, c in enumerate(g.classes) if c.element_order == 2)
    total = zero()
    for row in t.rows:
        v = row.function.values[two]
        total = total + v * v.conjugate()
    assert total == g.classes[two].centralizer_order == 2


def test_verify_flags_a_perturbed_entry():
    t = builtin_table("S3")
    g = t.group
    rows = [TableRow(r.name, r.degree, r.function) for r in t.rows]
    vals = list(rows[1].function.values)
    vals[1] = -vals[1]  # sign flip in one entry
    rows[1] = TableRow(rows[1].name, rows[1].degree, ClassFunction(g, vals))
    bad = CharacterTable(g, rows)
    report = verify_table(bad)
    assert not report.ok
    assert any("column orthogonality" in name for name, _ in report.failures())


def test_gl2_verify_is_the_row_half_of_verify_table():
    # one body: gl2fq binds the row half that verify_table runs first
    from reptheory import gl2fq
    assert reptheory.gl2_verify is gl2fq.gl2_verify is verify_rows


ROW_HALF_TABLES = {
    **{f"GL2(F_{q})": (lambda q=q: gl2_table(q)) for q in (3, 5, 7)},
    **{name: (lambda name=name: builtin_table(name)) for name in BUILTIN_TABLE_NAMES},
    "S6": lambda: sn_table(6),
    "D10": lambda: semidirect_table(dihedral_semidirect(10)),
    "Heisenberg": lambda: semidirect_table(heisenberg_semidirect()),
}


@pytest.mark.parametrize("name", ROW_HALF_TABLES)
def test_the_row_half_leads_verify_table(name):
    # k(k+1)/2 row pairs, the sum of squares and the row count, then
    # k(k+1)/2 column pairs and k degrees
    table = ROW_HALF_TABLES[name]()
    k = len(table.rows)
    rows, full = verify_rows(table), verify_table(table)
    assert rows.ok and full.ok
    assert len(rows.entries) == k * (k + 1) // 2 + 2
    assert len(full.entries) == k * (k + 1) + k + 2
    assert full.entries[:len(rows.entries)] == rows.entries


def test_an_incomplete_table_fails_its_census_and_sums_its_columns():
    # A5 without its last row: its rows are orthonormal, but the row half
    # fails on the sum of squares and the row count, so the columns are
    # summed, and the identity column comes short
    t = builtin_table("A5")
    table = CharacterTable(t.group, t.rows[:-1], display_classes=t.display_classes)
    rows, full = verify_rows(table), verify_table(table)
    assert rows.failures() == [("sum of squares", "35 vs |G|=60"),
                               ("row count equals class count", "4 vs 5")]
    assert full.entries[:len(rows.entries)] == rows.entries
    assert ("column orthogonality (Id,Id)", "got 35, want 60") in full.failures()


def test_decompose_examples():
    t = builtin_table("S3")
    g = t.group
    assert integer_multiplicities(decompose(regular_character(g), t)) == [1, 1, 2]
    assert integer_multiplicities(decompose(t.rows[2].function, t)) == [0, 0, 1]
    # fixed-point character of the natural action: values 3, 1, 0
    perm = permutation_character(g)
    disp = [perm.values[c] for c in t.display_classes]
    assert disp == [cyc(3), cyc(1), cyc(0)]
    assert integer_multiplicities(decompose(perm, t)) == [1, 0, 1]


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_decompose_inverts_assembly(coeffs):
    t = builtin_table("S3")
    f = ClassFunction(t.group, [zero()] * 3)
    for m, row in zip(coeffs, t.rows):
        f = f + m * row.function
    mults = decompose(f, t)
    assert [v.as_fraction() for v in mults] == [Fraction(m) for m in coeffs]


def test_tensor_examples():
    s3 = builtin_table("S3")
    assert tensor_multiplicities(s3, 2, 2) == [1, 1, 1]
    s4 = builtin_table("S4")
    got = tensor_multiplicities(s4, s4.row_index("C2"), s4.row_index("C3+"))
    assert got == [0, 0, 0, 1, 1]
    a5 = builtin_table("A5")
    got = tensor_multiplicities(a5, a5.row_index("C5"), a5.row_index("C5"))
    assert got == [1, 1, 1, 2, 2]


def test_dual_character():
    # the character of the dual representation is the entrywise conjugate
    s4 = builtin_table("S4")
    for row in s4.rows:  # all rows real-valued
        assert row.function.conjugate() == row.function
    a4 = builtin_table("A4")
    assert a4.row_by_name("Ce").function.conjugate() == a4.row_by_name("Ce2").function
    g = a4.group
    assert trivial_character(g).conjugate() == trivial_character(g)
    # involution permuting the rows of a complete table
    names = set()
    for row in a4.rows:
        d = row.function.conjugate()
        assert d.conjugate() == row.function
        match = [r.name for r in a4.rows if r.function == d]
        assert len(match) == 1
        names.add(match[0])
    assert names == {r.name for r in a4.rows}


def test_restriction_values():
    s3 = builtin_table("S3")
    z2 = s3.group.subgroup([from_cycles(3, [(0, 1)])])
    res = restrict(z2, s3.row_by_name("C2").function)
    assert list(res.values) == [cyc(2), cyc(0)]
    assert restrict(z2, trivial_character(s3.group)) == trivial_character(z2.group)


def test_induction_dimension_and_vanishing():
    s3 = builtin_table("S3")
    z3 = s3.group.subgroup([from_cycles(3, [(0, 1, 2)])])
    z3t = abelian_dual_table(z3.group)
    ind = induce(z3, z3t.rows[1].function)
    assert ind.at_identity() == 2  # dim multiplies by the index
    two = next(i for i, c in enumerate(s3.group.classes) if c.element_order == 2)
    assert ind.values[two] == 0    # classes not meeting H vanish


def test_frobenius_reciprocity_random_pairs():
    s3 = builtin_table("S3")
    z3 = s3.group.subgroup([from_cycles(3, [(0, 1, 2)])])
    z3t = abelian_dual_table(z3.group)
    rng = random.Random(11)
    for _ in range(100):
        f = ClassFunction(z3.group, [zero()] * 3)
        for row in z3t.rows:
            f = f + rng.randint(-2, 2) * row.function
        chi = s3.rows[rng.randrange(3)].function
        assert inner_product(induce(z3, f), chi) == inner_product(f, restrict(z3, chi))


def test_induction_in_stages():
    # inducing Z2 -> S3 -> S4 agrees with inducing Z2 -> S4 directly
    s4t = builtin_table("S4")
    s4 = s4t.group
    s3sub = s4.subgroup([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2)])])
    z2_in_s3 = s3sub.group.subgroup([from_cycles(4, [(0, 1)])])
    z2_in_s4 = s4.subgroup([from_cycles(4, [(0, 1)])])
    z2t = abelian_dual_table(z2_in_s3.group)
    for k in range(2):
        f = z2t.rows[k].function
        staged = induce(s3sub, induce(z2_in_s3, f))
        # the same class function lives on z2_in_s4.group: same degree-4
        # permutations, same classes
        direct = induce(z2_in_s4, ClassFunction(z2_in_s4.group, f.values))
        assert staged.values == direct.values, k


def reference_induce(sub, f):
    """The previous release's induce, kept as the oracle: the Mackey sum
    runs literally over every element x of an enumerated G. The map from
    G-element indices to H-classes, which SubgroupView no longer carries,
    is built here."""
    if f.group is not sub.group:
        raise ValueError("class function does not live on the subgroup")
    g = sub.supergroup
    g_member_class = {g.index[x]: sub.group.class_of[hi] for hi, x in enumerate(sub.group.elements)}
    h_order = sub.group.order
    values = []
    for cl in g.classes:
        rep = cl.representative
        counts = [0] * len(sub.group.classes)
        for x in g.elements:
            y = p_mul(p_mul(x, rep), p_inv(x))
            hc = g_member_class.get(g.index[y])
            if hc is not None:
                counts[hc] += 1
        total = zero()
        for hc, n in enumerate(counts):
            if n:
                total = total + n * f.values[hc]
        values.append(total / h_order)
    return ClassFunction(g, values)


@pytest.mark.parametrize("name", BUILTIN_TABLE_NAMES)
def test_induce_matches_reference_on_cyclic_subgroups(name):
    g = builtin_table(name).group
    for cl in g.classes:
        sub = g.subgroup([cl.representative])
        for row in abelian_dual_table(sub.group).rows:
            assert induce(sub, row.function) == reference_induce(sub, row.function), \
                (name, cl, row.name)


def test_induce_matches_reference_through_transfer_table():
    s4 = builtin_table("S4").group
    s3sub = s4.subgroup([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2)])])
    s3t = transfer_table(builtin_table("S3"), s3sub.group)
    for row in s3t.rows:
        assert induce(s3sub, row.function) == reference_induce(s3sub, row.function), row.name


def test_induce_matches_reference_on_virtual_class_functions():
    rng = random.Random(29)
    cases = [("S4", [from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(1, 2, 3)])]),  # A4
             ("S4", [from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(0, 2)])]),  # D4
             ("A5", [from_cycles(5, [(0, 1, 2)]), from_cycles(5, [(1, 2, 3)])]),  # A4
             ("A5", [from_cycles(5, [(0, 1, 2, 3, 4)]), from_cycles(5, [(1, 4), (2, 3)])]),
             ("Q8", [builtin_table("Q8").group.generators[0]])]
    for name, gens in cases:
        sub = builtin_table(name).group.subgroup(gens)
        for _ in range(10):
            f = ClassFunction(sub.group, [rng.randint(-3, 3)
                                          + rng.randint(-2, 2) * zeta(12, rng.randrange(12))
                                          for _ in sub.group.classes])
            assert induce(sub, f) == reference_induce(sub, f), (name, f)


def test_frobenius_schur_examples():
    q8 = builtin_table("Q8")
    assert frobenius_schur(q8.row_by_name("C2").function) == -1
    s4 = builtin_table("S4")
    assert all(frobenius_schur(r.function) == 1 for r in s4.rows)
    z3t = abelian_dual_table(cyclic_group(3))
    assert frobenius_schur(z3t.rows[1].function) == 0
    # cyclic groups: trivial and (for even order) the sign row are real,
    # everything else complex
    z4t = abelian_dual_table(cyclic_group(4))
    indicators = sorted(str(frobenius_schur(r.function)) for r in z4t.rows)
    assert indicators == ["0", "0", "1", "1"]
    with pytest.raises(ValueError):
        reducible = s4.rows[0].function + s4.rows[1].function
        frobenius_schur(reducible)


def test_abelian_dual_tables():
    z4 = cyclic_group(4)
    t = abelian_dual_table(z4)
    assert len(t.rows) == 4
    assert verify_table(t).ok
    # chi_k(m) = zeta_4^(km) with the standard generator
    gen_idx = z4.index[z4.generators[0]]
    gen_class = z4.class_of[gen_idx]
    assert [r.function.values[gen_class] for r in t.rows] == \
        [zeta(4, k) for k in range(4)]
    klein = builtin_group("D2")
    t = abelian_dual_table(klein)
    assert verify_table(t).ok
    assert all(v in (cyc(1), cyc(-1)) for r in t.rows for v in r.function.values)
    assert verify_table(abelian_dual_table(cyclic_group(6))).ok
    with pytest.raises(ValueError):
        abelian_dual_table(builtin_group("S3"))


def test_semidirect_d4():
    table = semidirect_table(dihedral_semidirect(4))
    assert verify_table(table).ok
    assert sorted(r.degree for r in table.rows) == [1, 1, 1, 1, 2]
    assert sum(r.degree ** 2 for r in table.rows) == 8


def test_semidirect_heisenberg():
    table = semidirect_table(heisenberg_semidirect())
    assert table.group.order == 27
    assert verify_table(table).ok
    assert sorted(r.degree for r in table.rows) == [1] * 9 + [3, 3]


def test_semidirect_s3_match():
    table = semidirect_table(dihedral_semidirect(3))
    ref = builtin_table("S3")
    assert verify_table(table).ok

    def keyed(t):
        order = sorted(range(len(t.group.classes)),
                       key=lambda ci: (t.group.classes[ci].element_order,
                                       t.group.classes[ci].size))
        return sorted((tuple(r.function.values[c] for c in order) for r in t.rows),
                      key=lambda tup: [v.key() for v in tup])

    assert keyed(table) == keyed(ref)


def test_semidirect_count_identity():
    for n in (3, 4, 5, 6):
        table = semidirect_table(dihedral_semidirect(n))
        assert sum(r.degree ** 2 for r in table.rows) == 2 * n


def doubling_action(m, p):
    # Z_m acting on Z_p by k -> 2k, for 2 of order m mod p; element k of
    # Z_p has index k (BFS order from the p-cycle)
    return chartab.SemidirectProduct(cyclic_group(m), cyclic_group(p),
                                     [tuple(2 * k % p for k in range(p))])


def frobenius_group_20():
    # Z_4 acting on Z_5 by an order-4 automorphism (multiplication by 2)
    return doubling_action(4, 5)


def proper_stabilizer_example():
    # Z_4 acting on Z_2 x Z_2 through its order-2 quotient (swap the two
    # factors): the swapped pair of characters has stabilizer 2Z_4, a
    # proper nontrivial subgroup
    z4 = cyclic_group(4)
    klein = builtin_group("D2")
    sigma = (2, 3, 0, 1)  # exchanges the point pairs {0,1} and {2,3}
    swap = tuple(klein.index[tuple(sigma[p[sigma[i]]] for i in range(4))]
                 for p in klein.elements)
    return chartab.SemidirectProduct(z4, klein, [swap])


def test_semidirect_frobenius_group_20():
    # four linear characters and one of degree 4
    table = semidirect_table(frobenius_group_20())
    assert table.group.order == 20
    assert verify_table(table).ok
    assert sorted(r.degree for r in table.rows) == [1, 1, 1, 1, 4]


def test_semidirect_proper_stabilizer():
    # the swapped pair of characters gives two rows of degree 2
    table = semidirect_table(proper_stabilizer_example())
    assert table.group.order == 16
    assert verify_table(table).ok
    assert sorted(r.degree for r in table.rows) == [1] * 8 + [2, 2]


def test_semidirect_rejects_bad_action():
    z4 = cyclic_group(4)
    z5 = cyclic_group(5)
    with pytest.raises(ValueError):
        chartab.SemidirectProduct(z4, z5, [(0, 2, 1, 3, 4)])  # not multiplicative
    with pytest.raises(ValueError):
        chartab.SemidirectProduct(z4, builtin_group("S3"), [tuple(range(6))])


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_semidirect_generator_count_is_a_value_error(optimize):
    # Z2 has one generator, so an action needs one automorphism of Z5
    code = ("from reptheory.chartab import SemidirectProduct\n"
            "from reptheory.permgroup import cyclic_group\n"
            "try:\n    SemidirectProduct(cyclic_group(2), cyclic_group(5), [])\n"
            "except ValueError:\n    pass\n"
            "else:\n    raise SystemExit('accepted')\n")
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def reference_dual_table(group):
    """The previous release's abelian_dual_table, kept as the oracle: each
    character is found by brute force over generator images, checked with
    group products and kept unless an equal exponent list was seen."""
    if any(cl.size > 1 for cl in group.classes):
        raise ValueError("dual table requires an abelian group")
    e = group.exponent
    gens = group.generators
    gen_orders = [p_order(p) for p in gens]
    seen = {}
    hom_exponents = []
    for combo in itertools.product(*(range(o) for o in gen_orders)):
        gen_exps = [c * (e // o) for c, o in zip(combo, gen_orders)]
        exps = group.extend_hom(gen_exps, mul=lambda a, b: (a + b) % e, one=0)
        good = all(exps[group.mul(i, group.index[p])] == (exps[i] + gen_exps[k]) % e
                   for i in range(group.order) for k, p in enumerate(gens))
        if good and tuple(exps) not in seen:
            seen[tuple(exps)] = True
            hom_exponents.append(exps)
    assert len(hom_exponents) == group.order
    rows = [TableRow(f"chi{k}", 1, ClassFunction(group, [zeta(e, exps[cl.members[0]])
                                                         for cl in group.classes]))
            for k, exps in enumerate(hom_exponents)]
    return CharacterTable(group, rows, name="dual")


def reference_semidirect_table(sd):
    """The previous release's semidirect_table, kept as the oracle: the
    dual rows are tuples of cyclotomics, orbits are grown breadth-first and
    the Mackey-type sum conjugates g by every h of G."""
    g, a = sd.acting, sd.abelian
    dual = reference_dual_table(a)
    dual_elem = [tuple(row.function.values[a.class_index(x)] for x in a.elements)
                 for row in dual.rows]
    row_lookup = {vals: i for i, vals in enumerate(dual_elem)}

    def g_on_row(gi, ri):
        inv = g.inv(gi)
        return row_lookup[tuple(dual_elem[ri][sd.act[inv][ai]] for ai in range(a.order))]

    unassigned = set(range(len(dual_elem)))
    orbits = []
    while unassigned:
        start = min(unassigned)
        orbit, frontier = {start}, [start]
        while frontier:
            r = frontier.pop()
            for gi in range(g.order):
                r2 = g_on_row(gi, r)
                if r2 not in orbit:
                    orbit.add(r2)
                    frontier.append(r2)
        unassigned -= orbit
        orbits.append(sorted(orbit))
    product = sd.group
    rows = []
    for orbit in orbits:
        x_row = orbit[0]
        x_vals = dual_elem[x_row]
        stab_indices = [gi for gi in range(g.order) if g_on_row(gi, x_row) == x_row]
        stab = PermGroup(g.degree, [g.elements[i] for i in stab_indices])
        if not stab.is_abelian():
            raise ValueError("no character table available for a non-abelian stabilizer")
        stab_table = reference_dual_table(stab)
        for srow in stab_table.rows:
            vals = {gi: srow.function.values[stab.class_index(g.elements[gi])]
                    for gi in stab_indices}
            values = []
            for cl in product.classes:
                ai, gi = sd.pair_of[cl.members[0]]
                total = zero()
                for hi in range(g.order):
                    y = g.mul(g.mul(hi, gi), g.inv(hi))
                    if y in vals:
                        total = total + x_vals[sd.act[hi][ai]] * vals[y]
                values.append(total / len(stab_indices))
            rows.append(TableRow(f"(O{x_row},{srow.name})", len(orbit) * srow.degree,
                                 ClassFunction(product, values)))
    return CharacterTable(product, rows, name="semidirect")


SEMIDIRECT_CASES = {**{f"D{n}": (lambda n=n: dihedral_semidirect(n)) for n in (*range(1, 31), 100)},
                    "heisenberg": heisenberg_semidirect,
                    "frobenius 20": frobenius_group_20,
                    "proper stabilizer": proper_stabilizer_example,
                    "Z8 on Z17": lambda: doubling_action(8, 17)}
DUAL_CASES = {**{f"Z{n}": (lambda n=n: cyclic_group(n)) for n in (*range(1, 31), 100)},
              "klein": lambda: builtin_group("D2")}


def _stored_rows(table):
    """Names, degrees and every value as stored: (order, numerators, denominator)."""
    return [(r.name, r.degree, [(v.order, v.num, v.den) for v in r.values]) for r in table.rows]


@pytest.mark.parametrize("name", list(SEMIDIRECT_CASES))
def test_semidirect_table_matches_reference(name):
    sd = SEMIDIRECT_CASES[name]()
    assert _stored_rows(semidirect_table(sd)) == _stored_rows(reference_semidirect_table(sd))


def test_semidirect_stabilizers_take_restricted_characters():
    # enumerating the characters of the stabilizer Z_10 over its 10
    # elements as generators would try 10^4 * 5^4 * 2 combinations
    start = time.perf_counter()
    table = semidirect_table(doubling_action(10, 11))
    assert verify_table(table).ok
    assert sorted(r.degree for r in table.rows) == [1] * 10 + [10]
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("name", list(DUAL_CASES))
def test_abelian_dual_table_matches_reference(name):
    group = DUAL_CASES[name]()
    assert _stored_rows(abelian_dual_table(group)) == _stored_rows(reference_dual_table(group))


def test_dual_and_semidirect_tables_make_no_reduction(monkeypatch):
    products = [build() for build in SEMIDIRECT_CASES.values()]
    groups = [build() for build in DUAL_CASES.values()]
    calls = []
    original = Cyclotomic.reduced
    monkeypatch.setattr(Cyclotomic, "reduced", lambda self: calls.append(1) or original(self))
    for sd in products:
        semidirect_table(sd)
    for group in groups:
        abelian_dual_table(group)
    assert calls == []


def test_class_labels_are_formatted_on_first_read(monkeypatch):
    # building a table formats no label; verify_table names each class
    # once, and the table's labels, read twice, are formatted once
    sd, group = dihedral_semidirect(100), cyclic_group(100)
    calls = []
    original = PermGroup.class_label
    monkeypatch.setattr(PermGroup, "class_label", lambda g, c: calls.append(c) or original(g, c))
    tables = [semidirect_table(sd), abelian_dual_table(group)]
    assert calls == []
    for table in tables:
        k = len(table.classes)
        assert verify_table(table).ok and len(calls) == k
        calls.clear()
        labels = [original(table.group, c) for c in table.display_classes]
        assert table.class_labels == tuple(labels) and table.class_labels is table.class_labels
        assert len(calls) == k
        assert render_table(table).splitlines()[0].split()[1:] == labels
        calls.clear()


def reference_orbit_value(e, e_u, size, c, ks):
    """The per-term sum the previous release made for a semidirect value."""
    total = zero()
    for k in ks:
        total = total + zeta(e, k) * zeta(e_u, c)
    return total / size


def test_orbit_values_are_stored_as_the_per_term_sum_stores_them():
    # a rational partial sum resets the order of the running sum: with
    # 1 + z3 + z3^2 = 0 first, z4 (1 + z3 + z3^2 + 1) is stored at order 4
    cases = [(3, 4, 1, 1, (0, 1, 2, 0)), (3, 4, 2, 1, (1, 2, 0, 2)), (5, 4, 4, 0, (0,) * 4),
             (4, 5, 1, 2, (2, 1, 3)), (6, 4, 2, 3, (3, 0, 2, 4, 0))]
    rng = random.Random(46)
    for _ in range(3000):
        e, e_u = rng.randint(1, 12), rng.randint(1, 12)
        cases.append((e, e_u, rng.randint(1, 6), rng.randrange(e_u),
                      tuple(rng.choice([0, e // 2, rng.randrange(e)]) for _ in range(rng.randint(1, 8)))))
    for case in cases:
        got, want = chartab._orbit_value(*case), reference_orbit_value(*case)
        assert (got.order, got.num, got.den) == (want.order, want.num, want.den), case


POOL_BUILDERS = {
    **{f"GL2(F_{q})": (lambda q=q: gl2_table(q)) for q in (3, 5, 7)},
    **{f"S{n}": (lambda n=n: sn_table(n)) for n in range(1, 9)},
    "GL2(F_5) read back": lambda: table_from_json(json.loads(json.dumps(gl2_table_to_json(gl2_table(5))))),
    "D12 read back": lambda: table_from_json(json.loads(json.dumps(table_to_json(
        semidirect_table(dihedral_semidirect(12)))))),
    **{f"dual {name}": (lambda name=name: abelian_dual_table(DUAL_CASES[name]())) for name in DUAL_CASES},
    **{f"semidirect {name}": (lambda name=name: semidirect_table(SEMIDIRECT_CASES[name]()))
       for name in SEMIDIRECT_CASES},
}


@pytest.mark.parametrize("name", list(POOL_BUILDERS))
def test_from_pool_builders_hand_over_distinct_stored_values(name, monkeypatch):
    # from_pool takes the pool as it is: a stored form held twice would be
    # two values to hermitian_gram's operands and FieldKeys
    pools = []
    original = CharacterTable.from_pool.__func__

    def spy(cls, group, names, degrees, pool, *args, **kwargs):
        pools.append(pool)
        return original(cls, group, names, degrees, pool, *args, **kwargs)
    monkeypatch.setattr(CharacterTable, "from_pool", classmethod(spy))
    # a table read back is written from one that was built first
    assert POOL_BUILDERS[name]().pool is pools[-1]
    for pool in pools:
        assert len({(v.order, v.num, v.den) for v in pool}) == len(pool)


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_semidirect_non_abelian_stabilizer_is_a_value_error(optimize):
    # S3 acting trivially on Z2: the trivial character's stabilizer is S3
    code = ("from reptheory.chartab import SemidirectProduct, semidirect_table\n"
            "from reptheory.permgroup import cyclic_group, symmetric_group\n"
            "sd = SemidirectProduct(symmetric_group(3), cyclic_group(2), [(0, 1), (0, 1)])\n"
            "try:\n    semidirect_table(sd)\n"
            "except ValueError as exc:\n    print(exc)\n"
            "else:\n    raise SystemExit('accepted')\n")
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0 and proc.stdout == \
        "no character table available for a non-abelian stabilizer\n", proc.stdout + proc.stderr


def test_builtin_table_unknown_name():
    with pytest.raises(ValueError):
        builtin_table("S7")


def test_render_golden_s3():
    expected = (
        "S3  Id  (12)  (123)\n"
        "#   1   3     2\n"
        "C+  1   1     1\n"
        "C-  1   -1    1\n"
        "C2  2   0     -1"
    )
    assert render_table(builtin_table("S3")) == expected


def _refuse_enumeration(*args, **kwargs):
    raise AssertionError("a group was enumerated")


@pytest.mark.parametrize("n", [1, 2, 5, 9, 12, MAX_TABLE_N])
def test_sn_table_files_read_back_as_class_data(n, monkeypatch):
    table = sn_table(n)
    blob = json.dumps(table_to_json(table, group_name=f"S{n}"))
    monkeypatch.setattr(PermGroup, "__init__", _refuse_enumeration)
    back = table_from_json(json.loads(blob))
    assert back.display_classes == table.display_classes
    assert [(r.name, r.degree, r.values) for r in back.rows] == \
        [(r.name, r.degree, r.values) for r in table.rows]
    if n <= 9:
        assert verify_table(back).ok


def test_table_json_roundtrip():
    t = builtin_table("A5")
    blob = json.dumps(table_to_json(t, group_name="A5"))
    back = table_from_json(json.loads(blob))
    for r1, r2 in zip(t.rows, back.rows):
        assert r1.name == r2.name and r1.degree == r2.degree
        assert r1.function.values == r2.function.values
    assert verify_table(back).ok


# -- conversions once per value ------------------------------------------------

def per_entry_render(table, numeric=False):
    """render_table as it was before its value memo: one format per entry."""
    grid = [[table.name or "G"] + list(table.class_labels),
            ["#"] + [str(table.classes[c].size) for c in table.display_classes]]
    grid += [[row.name] + [chartab.format_value(row.values[c], numeric)
                           for c in table.display_classes] for row in table.rows]
    widths = [max(len(r[j]) for r in grid) for j in range(len(grid[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
                     for r in grid)


def _tables_by_name():
    from reptheory.cli import _get_table
    names = list(BUILTIN_TABLE_NAMES) + [f"S{n}" for n in range(1, 7)] \
        + [f"{f}{n}" for f in "ZD" for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 24)]
    return [(name, lambda name=name: _get_table(name)) for name in names] \
        + [("heisenberg", lambda: semidirect_table(heisenberg_semidirect()))]


@pytest.mark.parametrize("name, build", _tables_by_name(), ids=[n for n, _ in _tables_by_name()])
def test_table_conversions_equal_per_entry_conversion(name, build):
    table = build()
    for numeric in (False, True):
        assert render_table(table, numeric) == per_entry_render(table, numeric)
    obj = table_to_json(table)
    assert obj["rows"] == [{"name": r.name, "degree": r.degree,
                            "values": [cyclotomic_to_json(r.values[c]) for c in table.display_classes]}
                           for r in table.rows]
    obj = json.loads(json.dumps(obj))
    back = table_from_json(obj)
    assert [r.values for r in back.rows] == \
        [tuple(cyclotomic_from_json(v) for v in _canonical(r["values"], back.display_classes))
         for r in obj["rows"]]


def _canonical(values, display):
    out = [None] * len(values)
    for c, v in zip(display, values):
        out[c] = v
    return out


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_gl2_conversions_equal_per_entry_conversion(q):
    table = gl2_table(q)
    for numeric in (False, True):
        assert render_table(table, numeric) == per_entry_render(table, numeric)
    assert [r["values"] for r in gl2_table_to_json(table)["rows"]] == \
        [[cyclotomic_to_json(v) for v in r.values] for r in table.rows]


def test_table_reader_still_types_every_value():
    obj = table_to_json(builtin_table("S3"), group_name="S3")
    for bad in (5, {"order": True, "coeffs": ["1/1"]}, {"order": 1, "coeffs": [["1/1"]]},
                {"order": 1, "coeffs": "1/1"}, {"order": 1, "coeffs": ["\u0661/1"]}):
        obj["rows"][-1]["values"][-1] = bad
        with pytest.raises(ValueError):
            table_from_json(json.loads(json.dumps(obj)))

import json
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reptheory import permgroup
from reptheory.chartab import dihedral_semidirect, heisenberg_semidirect
from reptheory.permgroup import (EnumerationBound, PermGroup, alternating_group,
                                 builtin_group, cycle_lengths, cycle_notation,
                                 cyclic_group, dihedral_group, from_cycles,
                                 group_from_json, group_to_json, p_mul,
                                 parse_group_name, quaternion_group, symmetric_group)
from reptheory.symgrp import SymmetricGroup, partitions_of

from conftest import p_inv, p_order


def test_s3_classes():
    g = symmetric_group(3)
    assert g.order == 6
    assert [c.size for c in g.classes] == [1, 3, 2]
    assert [c.element_order for c in g.classes] == [1, 2, 3]


def test_z4_abelian():
    g = cyclic_group(4)
    assert g.order == 4
    assert all(c.size == 1 for c in g.classes)
    assert g.is_abelian()
    assert g.exponent == 4


def test_a5_classes():
    g = alternating_group(5)
    assert g.order == 60
    assert sorted(c.size for c in g.classes) == [1, 12, 12, 15, 20]


def test_class_equation_and_centralizers():
    for name in ("S3", "S4", "A4", "A5", "Q8", "D5"):
        g = builtin_group(name)
        assert sum(c.size for c in g.classes) == g.order
        for c in g.classes:
            assert g.order % c.centralizer_order == 0
            assert c.size * c.centralizer_order == g.order


def test_power_class_map():
    g = symmetric_group(3)
    pm = g.power_class_map(2)
    three = next(i for i, c in enumerate(g.classes) if c.element_order == 3)
    two = next(i for i, c in enumerate(g.classes) if c.element_order == 2)
    assert pm[three] == three     # (123)^2 is conjugate to (123)
    assert pm[two] == 0           # transposition squared is the identity
    assert g.power_class_map(1) == list(range(len(g.classes)))


@pytest.mark.parametrize("name", ["S5", "A7", "Q8", "D15", "D100", "Z12", "heisenberg"])
def test_power_class_map_by_squaring_is_the_repeated_product(name):
    special = {"S5": lambda: symmetric_group(5), "heisenberg": lambda: heisenberg_semidirect().group}
    g = special.get(name, lambda: builtin_group(name))()
    for k in [0, 1, 2, 3, 7, 11, 13, g.exponent - 1, g.exponent + 5, 2 * g.exponent + 3]:
        want = []
        for cl in g.classes:
            y = tuple(range(g.degree))
            for _ in range(k % cl.element_order):
                y = p_mul(y, cl.representative)
            want.append(g.class_of[g.index[y]])
        assert g.power_class_map(k) == want, (name, k)


def test_subgroup_views():
    s3 = symmetric_group(3)
    z2 = s3.subgroup([from_cycles(3, [(0, 1)])])
    assert z2.index_in_supergroup == 3
    assert len(z2.group.classes) == 2
    z3 = s3.subgroup([from_cycles(3, [(0, 1, 2)])])
    assert z3.index_in_supergroup == 2
    s4 = symmetric_group(4)
    s3sub = s4.subgroup([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2)])])
    assert s3sub.index_in_supergroup == 4
    # class containment map lands on classes of the same element order
    for hc, gc in enumerate(s3sub.class_to_gclass):
        assert (s3sub.group.classes[hc].element_order
                == s4.classes[gc].element_order)
    with pytest.raises(ValueError):
        s3.subgroup([(1, 0, 2, 3)])  # wrong degree / not in G


def test_sn_classes_are_cycle_types():
    for n in range(2, 7):
        g = symmetric_group(n)
        types = {cycle_lengths(c.representative) for c in g.classes}
        assert types == set(partitions_of(n))
        by_type = SymmetricGroup(n)
        for c in g.classes:
            t = cycle_lengths(c.representative)
            assert c.size == by_type.classes[by_type.type_index[t]].size


def test_named_groups():
    assert builtin_group("S5").order == 120
    assert builtin_group("A4").order == 12
    assert builtin_group("Z12").order == 12
    assert builtin_group("Z_6").order == 6
    assert builtin_group("D4").order == 8
    assert builtin_group("D2").order == 4
    assert builtin_group("Q8").order == 8
    with pytest.raises(ValueError):
        builtin_group("M11")


@pytest.mark.parametrize("forms", [
    ("S9", "s9", "S_9", "s_9", " S09 "),
    ("D4", "d4", "D_4", "d_4"),
    ("Z6", "z6", "Z_6"),
    ("A3", "a3", "A_3"),
    ("Q8", "q8", "Q_8", "q_8"),
])
def test_name_forms_resolve_to_one_group(forms):
    family, n = parse_group_name(forms[0])
    assert forms[0] == f"{family}{n}"
    assert all(parse_group_name(name) == (family, n) for name in forms)
    groups = [builtin_group(name) for name in forms]
    assert len({(g.degree, tuple((c.representative, c.size) for c in g.classes))
                for g in groups}) == 1


@pytest.mark.parametrize("name, message", [
    ("Z0", "n must be >= 1"),
    ("D0", "n must be >= 1"),
    ("A0", "n must be >= 1"),
    ("S0", "n must be >= 1"),
    ("S16", "only up to S15"),
    ("A8", "only up to A7"),
    ("S\u0663", "unknown group name"),  # an Arabic-Indic three
    ("\u017f3", "unknown group name"),  # a long s, which folds to s
    ("Q4", "unknown group name"),
    ("S__3", "unknown group name"),
    ("", "unknown group name"),
])
def test_bad_group_names_are_value_errors(name, message):
    with pytest.raises(ValueError, match=message):
        builtin_group(name)


@pytest.mark.parametrize("n", range(3, 19))
def test_dihedral_group_is_the_semidirect_product(n):
    assert dihedral_group(n).elements == dihedral_semidirect(n).group.elements


def test_quaternion_group_structure():
    q8 = quaternion_group()
    assert q8.order == 8
    assert [c.size for c in q8.classes] == [1, 1, 2, 2, 2]
    assert q8.involution_count() == 2
    assert q8.exponent == 4


def test_involution_counts():
    assert symmetric_group(3).involution_count() == 4
    assert symmetric_group(4).involution_count() == 10
    assert alternating_group(5).involution_count() == 16


def test_enumeration_bound(monkeypatch):
    monkeypatch.setattr(permgroup, "MAX_ELEMENTS", 100)
    with pytest.raises(EnumerationBound):
        PermGroup(6, symmetric_group(6).generators)


def test_extend_hom():
    g = cyclic_group(6)
    exps = g.extend_hom([1], mul=lambda a, b: (a + b) % 6, one=0)
    gen_idx = g.index[g.generators[0]]
    assert exps[0] == 0 and exps[gen_idx] == 1
    assert sorted(exps) == list(range(6))


def test_cycle_notation():
    assert cycle_notation((1, 0, 2)) == "(12)"
    assert cycle_notation((0, 1, 2)) == "Id"
    assert cycle_notation(from_cycles(4, [(0, 1), (2, 3)])) == "(12)(34)"
    assert cycle_notation(from_cycles(5, [(4, 2, 3), (1, 0)])) == "(12)(345)"


@given(st.integers(min_value=1, max_value=9).flatmap(lambda n: st.permutations(range(n))))
@settings(max_examples=200, deadline=None)
def test_cycles_open_at_their_least_point_in_ascending_order(p):
    # cycle_notation prints each cycle as it comes, so its labels rest on this
    cs = permgroup.cycles(tuple(p))
    assert all(c[0] == min(c) for c in cs)
    assert [c[0] for c in cs] == sorted(c[0] for c in cs)
    assert sorted(x for c in cs for x in c) == list(range(len(p)))
    assert all(p[a] == b for c in cs for a, b in zip(c, c[1:] + c[:1]))


S5 = symmetric_group(5)


@given(st.permutations(list(range(5))))
@settings(max_examples=50, deadline=None)
def test_inverse_and_order(p):
    # the group's inverse and its class's element order, on products of the group
    i = S5.by_perm[bytes(p)]
    assert S5.mul(i, S5.inv(i)) == 0 and S5.inv(i) == S5.index[p_inv(tuple(p))]
    k = S5.classes[S5.class_of[i]].element_order
    x, powers = 0, []
    for _ in range(k):
        x = S5.mul(x, i)
        powers.append(x)
    assert powers.index(0) == k - 1


def test_class_index_matches_enumeration():
    for n in range(1, 6):
        g, data = symmetric_group(n), SymmetricGroup(n)
        assert data.generators == g.generators
        for x in g.elements:
            assert data.class_index(x) == g.class_index(x) == g.class_of[g.index[x]]
    with pytest.raises(ValueError):
        SymmetricGroup(3).class_index((0, 0, 1))
    with pytest.raises(ValueError):
        SymmetricGroup(3).class_index((1, 0))
    with pytest.raises(ValueError):
        builtin_group("A4").class_index((1, 0, 2, 3))


def _refuse_enumeration(*args, **kwargs):
    raise AssertionError("a group was enumerated")


def test_sn_names_resolve_to_class_data(monkeypatch):
    monkeypatch.setattr(PermGroup, "__init__", _refuse_enumeration)
    g = group_from_json("S12")
    assert g.order == factorial(12) and len(g.classes) == 77 and g.exponent == 27720
    assert g.class_index(tuple(range(1, 12)) + (0,)) == g.type_index[(12,)]
    for name in ("S0", "S16"):
        with pytest.raises(ValueError):
            group_from_json(name)


def test_group_serialization():
    g = symmetric_group(3)
    blob = json.dumps(group_to_json(g))
    h = group_from_json(json.loads(blob))
    assert h.elements == g.elements
    assert group_from_json("S4").order == 24


def reference_enumeration(group):
    """The p_mul-based enumeration and class building on tuples that
    PermGroup's bytes products must match: BFS by y = x*g, classes as orbits of
    x -> g x g^-1, both on the group's own generators."""
    ident = tuple(range(group.degree))
    elements, index, parent, frontier = [ident], {ident: 0}, [None], [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, g in enumerate(group.generators):
                y = p_mul(x, g)
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    parent.append((index[x], gi))
                    nxt.append(y)
        frontier = nxt
    inverse_index = tuple(index[p_inv(x)] for x in elements)
    assigned = [False] * len(elements)
    classes = []
    for start in range(len(elements)):
        if assigned[start]:
            continue
        assigned[start] = True
        orbit, queue = [start], [elements[start]]
        while queue:
            x = queue.pop()
            for g in group.generators:
                yi = index[p_mul(p_mul(g, x), p_inv(g))]
                if not assigned[yi]:
                    assigned[yi] = True
                    orbit.append(yi)
                    queue.append(elements[yi])
        members = tuple(sorted(orbit))
        classes.append((min(elements[i] for i in members), members, len(members)))
    classes.sort(key=lambda c: (p_order(c[0]), c[2], c[0]))
    return tuple(elements), parent, inverse_index, classes


GOLDEN_GROUPS = {
    **{f"S{n}": (lambda n=n: symmetric_group(n)) for n in range(1, 8)},
    **{f"A{n}": (lambda n=n: alternating_group(n)) for n in range(3, 8)},
    "Q8": quaternion_group,
    **{f"Z{n}": (lambda n=n: cyclic_group(n)) for n in (1, 2, 7)},
    **{f"D{n}": (lambda n=n: dihedral_group(n)) for n in range(1, 7)},
    "D8 semidirect": lambda: dihedral_semidirect(8).group,
    "Heisenberg semidirect": lambda: heisenberg_semidirect().group,
    "degree 0": lambda: PermGroup(0, []),
    # Z60 on 12 points, cycles of lengths 3, 4 and 5: element orders up to
    # five times the degree
    "Z60 on 12 points": lambda: PermGroup(12, [from_cycles(12, [(0, 1, 2), (3, 4, 5, 6),
                                                                (7, 8, 9, 10, 11)])]),
    # degree 200 = MAX_DEGREE: D100, and D3 on the points 0, 1, 2 and
    # 197, 198, 199 read from a file's JSON (i -> 199 - i conjugates the
    # 3-cycle to its inverse)
    "D100 semidirect": lambda: dihedral_semidirect(100).group,
    "degree 200 from JSON": lambda: group_from_json(json.loads(json.dumps({
        "degree": 200, "generators": [list(range(199, -1, -1)),
                                      from_cycles(200, [(0, 1, 2), (197, 198, 199)])]}))),
}


@pytest.mark.parametrize("name", list(GOLDEN_GROUPS))
def test_enumeration_matches_reference(name):
    g = GOLDEN_GROUPS[name]()
    elements, parent, inverse_index, classes = reference_enumeration(g)
    assert g.elements == elements
    assert g._parent == parent
    assert g.inverse_index == inverse_index
    assert [(c.representative, c.members, c.size) for c in g.classes] == classes


@pytest.mark.parametrize("name", ["S4", "Q8", "D8 semidirect", "Heisenberg semidirect"])
def test_mul_is_the_product_of_the_elements(name):
    g = GOLDEN_GROUPS[name]()
    assert [[g.mul(i, j) for j in range(g.order)] for i in range(g.order)] == \
        [[g.index[p_mul(x, y)] for y in g.elements] for x in g.elements]


@pytest.mark.parametrize("name", list(GOLDEN_GROUPS))
def test_element_orders_from_bytes_are_the_cycle_lengths(name):
    g = GOLDEN_GROUPS[name]()
    assert [c.element_order for c in g.classes] == [p_order(c.representative) for c in g.classes]
    assert all(p_order(g.elements[i]) == c.element_order for c in g.classes for i in c.members)


@pytest.mark.parametrize("name", list(GOLDEN_GROUPS))
def test_tuple_forms_are_built_on_first_read_as_the_eager_ones(name):
    g = GOLDEN_GROUPS[name]()
    assert "elements" not in vars(g) and "index" not in vars(g)
    elements = reference_enumeration(g)[0]
    assert g.index == {x: i for i, x in enumerate(elements)}
    assert g.elements == elements
    assert g.elements is g.elements


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_tables_read_no_tuple_forms(n):
    from reptheory.chartab import abelian_dual_table, semidirect_table
    sd = dihedral_semidirect(n)
    groups = [sd.acting, sd.abelian, sd.group]
    semidirect_table(sd)
    z = cyclic_group(n)
    abelian_dual_table(z)
    h = heisenberg_semidirect()
    semidirect_table(h)
    for g in groups + [z, h.acting, h.abelian, h.group]:
        assert "elements" not in vars(g) and "index" not in vars(g)


CLASS_INDEX_GROUPS = {name: GOLDEN_GROUPS[name]() for name in ("S4", "Z7", "Q8", "degree 0")}


def reference_class_index(g, perm):
    """The tuple lookup that class_index made before it read bytes, on a
    list of ints; a list with any other entry is no element."""
    i = None
    if all(isinstance(x, int) for x in perm):
        i = {x: i for i, x in enumerate(reference_enumeration(g)[0])}.get(tuple(perm))
    if i is None:
        raise ValueError(f"not an element of the group: {permgroup.short_repr(list(perm))}")
    return g.class_of[i]


def outcome(f, *args):
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


ENTRIES = st.one_of(st.integers(min_value=-3, max_value=9), st.sampled_from([255, 256, -1, 2 ** 70]),
                    st.floats(allow_nan=True), st.sampled_from([1.0, 2.0, 0.0]), st.booleans(),
                    st.text(max_size=2), st.none(), st.lists(st.integers(0, 3), max_size=2))


@given(st.sampled_from(sorted(CLASS_INDEX_GROUPS)), st.data())
@settings(max_examples=400, deadline=None)
def test_class_index_of_any_list_is_the_tuple_lookup(name, data):
    g = CLASS_INDEX_GROUPS[name]
    perm = data.draw(st.one_of(
        st.lists(ENTRIES, max_size=10),
        st.sampled_from(g.elements).map(list),
        st.sampled_from(g.elements).flatmap(lambda x: st.lists(ENTRIES, min_size=len(x),
                                                               max_size=len(x)).map(
            lambda junk: [j if k % 2 else p for k, (p, j) in enumerate(zip(x, junk))]))))
    assert outcome(g.class_index, perm) == outcome(reference_class_index, g, perm)


def test_class_index_refuses_what_bytes_refuses_as_no_element():
    g = symmetric_group(3)
    for perm in ([0, 1, 256], [0, 1, -1], [0, 1, "2"], [0.0, 1, 2.5], [0.0, 1, 2],
                 [[0], 1, 2], (0, 1, 2, 3), [], [0, 1, 2 ** 80]):
        with pytest.raises(ValueError, match="^not an element of the group: "):
            g.class_index(perm)
    assert g.class_index([True, False, 2]) == g.class_index(b"\x01\x00\x02") == 1


def test_max_degree_fits_in_bytes():
    # PermGroup composes its elements as bytes, one byte per point, through
    # 256-byte translate tables, so every point must be below 256
    assert permgroup.MAX_DEGREE < 256

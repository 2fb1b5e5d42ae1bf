import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reptheory import linalg, rootsys
from reptheory.exact import cyclotomic_polynomial
from reptheory.linalg import InputError, Matrix, det
from reptheory.rootsys import (MAX_VERTICES, Graph, GraphError, _definiteness, affine_graph,
                               bilinear, cartan_matrix, classify, coxeter_element,
                               cycle_graph, dynkin_graph, enumerate_roots,
                               graph_from_json, graph_to_json, path_graph,
                               reflect, weyl_count)


def reference_weyl_elements(a, max_elements=300000):
    """Breadth-first closure of the simple reflections as integer
    matrices, multiplying every element by every generator; None once
    there are more than max_elements."""
    n = len(a)
    gens = [tuple(tuple((1 if r == c else 0) - (a[i][c] if r == i else 0) for c in range(n))
                  for r in range(n)) for i in range(n)]
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                w = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*g)) for row in m)
                if w not in seen:
                    seen.add(w)
                    if len(seen) > max_elements:
                        return None
                    nxt.append(w)
        frontier = nxt
    return seen


def reference_roots_by_reflection(a):
    """All roots of a Dynkin form as the closure of the simple roots under
    the simple reflections, each checked to have norm 2; (positive,
    negative) sorted by (height, coordinates)."""
    n = len(a)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                w = reflect(a, i, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    positive = sorted((v for v in seen if all(c >= 0 for c in v)), key=lambda v: (sum(v), v))
    assert 2 * len(positive) == len(seen)
    assert all(bilinear(a, v, v) == 2 for v in seen)
    return positive, [tuple(-c for c in v) for v in positive]


def reference_roots_by_box_search(a, bound):
    """All integer vectors with |x_i| <= bound and B(x,x) = 2 (exponential
    in the rank)."""
    n = len(a)
    out = []
    vec = [0] * n

    def rec(i):
        if i == n:
            v = tuple(vec)
            if any(v) and bilinear(a, v, v) == 2:
                out.append(v)
            return
        for c in range(-bound, bound + 1):
            vec[i] = c
            rec(i + 1)

    rec(0)
    return set(out)


def reference_classify(graph):
    """(kind, determinant) by Sylvester: definite iff every leading
    principal minor is positive, semidefinite iff every one of the 2^n
    principal minors is nonnegative."""
    a = cartan_matrix(graph)
    n = graph.n

    def minor(subset):
        return det(Matrix(len(subset), len(subset), [[Fraction(a[i][j]) for j in subset] for i in subset]))

    full = minor(list(range(n)))
    if all(minor(list(range(k + 1))) > 0 for k in range(n)):
        return "dynkin", full
    for mask in range(1, 1 << n):
        if minor([i for i in range(n) if mask >> i & 1]) < 0:
            return "indefinite", full
    return "affine", full


def test_paths_classify_as_a_n():
    for n in range(1, 9):
        c = classify(path_graph(n))
        assert c.kind == "dynkin"
        assert c.name == f"A_{n}"
        assert c.determinant == n + 1


def test_determinant_recursion_oracle():
    # det A_(A_n) satisfies d_n = 2 d_(n-1) - d_(n-2), d_0 = 1, d_1 = 2
    d = [1, 2]
    for n in range(2, 9):
        d.append(2 * d[-1] - d[-2])
    for n in range(1, 9):
        assert classify(path_graph(n)).determinant == d[n]


def test_d_and_e_classify():
    for n in range(4, 9):
        assert classify(dynkin_graph(f"D{n}")).name == f"D_{n}"
    assert classify(dynkin_graph("E6")).name == "E6"
    assert classify(dynkin_graph("E7")).name == "E7"
    assert classify(dynkin_graph("E8")).name == "E8"
    assert classify(dynkin_graph("E8")).determinant == 1


def test_cycles_and_star_are_affine():
    for n in range(3, 8):
        c = classify(cycle_graph(n))
        assert c.kind == "affine" and c.determinant == 0
    star = Graph.from_edges(5, [(4, 0), (4, 1), (4, 2), (4, 3)])
    c = classify(star)
    assert c.kind == "affine" and c.name == "affine (D~4)"


def test_forbidden_diagrams_are_affine():
    for name in ("A~1", "A~4", "D~4", "D~5", "D~7", "E~6", "E~7", "E~8"):
        c = classify(affine_graph(name))
        assert c.kind == "affine" and c.determinant == 0, name


@pytest.mark.parametrize("name", ["", " ", "~", "A", "A~", "A٣", "A~٣", "E٨",
                                  "A-1", "A 3", "A~0", "E9", "D3~"])
def test_bad_diagram_names_are_graph_errors(name):
    with pytest.raises(GraphError):
        affine_graph(name)
    if "~" not in name:
        with pytest.raises(GraphError):
            dynkin_graph(name)


def test_indefinite():
    g = Graph.from_edges(2, [(0, 1, 3)])
    assert classify(g).kind == "indefinite"


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(GraphError):
        classify(Graph.from_edges(3, [(0, 1)]))  # disconnected


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_form_takes_even_values(x):
    a = cartan_matrix(dynkin_graph("D4"))
    assert bilinear(a, tuple(x), tuple(x)) % 2 == 0


def test_positive_root_counts():
    for n in range(1, 9):
        a = cartan_matrix(dynkin_graph(f"A{n}"))
        assert len(enumerate_roots(a)[0]) == n * (n + 1) // 2
    for n in range(4, 9):
        a = cartan_matrix(dynkin_graph(f"D{n}"))
        assert len(enumerate_roots(a)[0]) == n * (n - 1)
    assert len(enumerate_roots(cartan_matrix(dynkin_graph("E6")))[0]) == 36
    assert len(enumerate_roots(cartan_matrix(dynkin_graph("E7")))[0]) == 63
    assert len(enumerate_roots(cartan_matrix(dynkin_graph("E8")))[0]) == 120


def test_roots_have_a_sign():
    for name in ("A3", "D4", "E6"):
        a = cartan_matrix(dynkin_graph(name))
        pos, neg = enumerate_roots(a)
        for v in pos:
            assert all(c >= 0 for c in v)
        for v in neg:
            assert all(c <= 0 for c in v)
        assert len(pos) == len(neg)


def test_roots_equal_box_search():
    for name in ("A2", "A3", "A4", "D4"):
        a = cartan_matrix(dynkin_graph(name))
        pos, neg = enumerate_roots(a)
        closure = set(pos) | set(neg)
        bound = max(abs(c) for v in closure for c in v)
        assert reference_roots_by_box_search(a, bound + 1) == closure


ADE_UP_TO_10 = [f"A{n}" for n in range(1, 11)] + [f"D{n}" for n in range(4, 11)] + ["E6", "E7", "E8"]


@pytest.mark.parametrize("name", ADE_UP_TO_10)
def test_roots_by_height_match_the_reflection_closure(name):
    # the same two lists in the same order, on the diagram as built, on a
    # seeded relabeling and in block sums with A1 and D4 on either side
    graph = dynkin_graph(name)
    a = cartan_matrix(graph)
    forms = [a, cartan_matrix(_relabeled(graph, random.Random(name)))]
    for other in (cartan_matrix(path_graph(1)), cartan_matrix(dynkin_graph("D4"))):
        forms += [_block_sum(a, other), _block_sum(other, a)]
    for form in forms:
        assert enumerate_roots(form) == reference_roots_by_reflection(form), form


@pytest.mark.parametrize("name", ["A8", "D8", "E8"])
def test_roots_by_height_neither_reflect_nor_pair(name, monkeypatch):
    # each root's pairings come from its parent's, one row of A added, so
    # the enumeration calls neither reflect nor the O(n^2) bilinear
    calls = []

    def counted(f):
        return lambda *args: calls.append(f.__name__) or f(*args)

    monkeypatch.setattr(rootsys, "reflect", counted(reflect))
    monkeypatch.setattr(rootsys, "bilinear", counted(bilinear))
    positive, _ = enumerate_roots(cartan_matrix(dynkin_graph(name)))
    assert len(positive) == {"A8": 36, "D8": 56, "E8": 120}[name]
    assert calls == []


@pytest.mark.parametrize("a", [((2, 1), (1, 2)), ((4,),), ((2, 0), (0, 3)), ((2, -1, 1), (-1, 2, 0), (1, 0, 2))],
                         ids=["positive A2", "diagonal 4", "diagonal 3", "positive edge"])
def test_definite_forms_that_are_not_cartan_matrices_are_graph_errors(a):
    assert _definiteness(a)[0] == 1
    with pytest.raises(GraphError):
        enumerate_roots(a)
    with pytest.raises(GraphError):
        weyl_count(a)


def test_simple_reflections():
    a = cartan_matrix(dynkin_graph("A2"))
    assert reflect(a, 0, (1, 0)) == (-1, 0)
    assert reflect(a, 0, (0, 1)) == (1, 1)
    rng = random.Random(2)
    for name in ("A3", "D4"):
        a = cartan_matrix(dynkin_graph(name))
        n = len(a)
        for _ in range(30):
            u = tuple(rng.randint(-4, 4) for _ in range(n))
            v = tuple(rng.randint(-4, 4) for _ in range(n))
            i = rng.randrange(n)
            assert reflect(a, i, reflect(a, i, u)) == u
            assert bilinear(a, reflect(a, i, u), reflect(a, i, v)) == bilinear(a, u, v)


def reference_coxeter_element(a, labeling):
    """The product of full reflection matrices, c = s_l1 ... s_lr, its
    order by repeated matrix products, and det(c - Id)."""
    n = len(a)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    def mat_mul(x, y):
        return tuple(tuple(sum(p * q for p, q in zip(row, col)) for col in zip(*y)) for row in x)
    c = ident
    for i in labeling:
        c = mat_mul(c, tuple(tuple(int(r == k) - (a[i][k] if r == i else 0) for k in range(n))
                             for r in range(n)))
    power, order = c, 1
    while power != ident:
        power, order = mat_mul(power, c), order + 1
    return c, order, det([[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(c)])


ADE_UP_TO_8 = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]


@pytest.mark.parametrize("name", ADE_UP_TO_8)
def test_coxeter_element_matches_matrix_products(name):
    a = cartan_matrix(dynkin_graph(name))
    rng = random.Random(name)
    labelings = [list(range(len(a)))] + [rng.sample(range(len(a)), len(a)) for _ in range(4)]
    for labeling in labelings:
        want = reference_coxeter_element(a, labeling)
        got = coxeter_element(a, labeling=None if labeling == sorted(labeling) else labeling)
        assert got == want, (name, labeling)


@pytest.mark.parametrize("labeling", [[0, 0, 1], [0, 1], [0, 1, 3], [-1, 0, 1]])
def test_coxeter_labeling_lists_each_vertex_once(labeling):
    with pytest.raises(ValueError):
        coxeter_element(cartan_matrix(dynkin_graph("A3")), labeling=labeling)


def test_coxeter_orders():
    for name, want in (("A2", 3), ("A3", 4), ("D4", 6)):
        a = cartan_matrix(dynkin_graph(name))
        c, order, d = coxeter_element(a)
        assert order == want
        assert d != 0


def test_coxeter_no_fixed_vector_all_ade():
    names = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + \
        ["E6", "E7", "E8"]
    for name in names:
        a = cartan_matrix(dynkin_graph(name))
        _, _, d = coxeter_element(a)
        assert d != 0, name


def test_coxeter_respects_labeling():
    a = cartan_matrix(dynkin_graph("A3"))
    c1, o1, _ = coxeter_element(a, labeling=[0, 1, 2])
    c2, o2, _ = coxeter_element(a, labeling=[2, 1, 0])
    assert o1 == o2 == 4  # conjugate elements share the order


def test_weyl_counts():
    for n in range(1, 5):
        assert weyl_count(cartan_matrix(path_graph(n))) == math.factorial(n + 1)
    assert weyl_count(cartan_matrix(dynkin_graph("D4"))) == 192
    assert weyl_count(cartan_matrix(dynkin_graph("D5"))) == 1920
    # no bound on the group size; E7 and E8 are in the invariant-degree test
    assert weyl_count(cartan_matrix(dynkin_graph("D7"))) == 322560


def test_weyl_elements_act_on_roots():
    a = cartan_matrix(dynkin_graph("A3"))
    elements = reference_weyl_elements(a)
    assert len(elements) == 24 == weyl_count(a)
    pos, neg = enumerate_roots(a)
    roots = set(pos) | set(neg)
    alpha = (1, 0, 0)
    for w in elements:
        image = tuple(sum(w[i][j] * alpha[j] for j in range(3)) for i in range(3))
        assert image in roots


def test_weyl_e6():
    assert weyl_count(cartan_matrix(dynkin_graph("E6"))) == 51840


@pytest.mark.parametrize("family", ["A", "D"])
def test_weyl_count_closed_forms_up_to_50(family):
    # (n+1)! on A_n and 2^(n-1) n! on D_n, each within 1 s: no orbit is
    # walked, not even that of the spin weight of D_n, with 2^(n-1) points
    for n in range(1 if family == "A" else 4, 51):
        a = cartan_matrix(dynkin_graph(f"{family}{n}"))
        start = time.perf_counter()
        want = math.factorial(n + 1) if family == "A" else 2 ** (n - 1) * math.factorial(n)
        assert weyl_count(a) == want, n
        assert time.perf_counter() - start < 1.0, n


DOUBLE_EDGE = Graph.from_edges(3, [(0, 1, 2), (1, 2)])


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "double edge"])
def test_weyl_matches_matrix_closure(name):
    graph = DOUBLE_EDGE if name == "double edge" else dynkin_graph(name)
    a = cartan_matrix(graph)
    # |W(D5)| = 1920; a double edge is affine A~1 (m = infinity), so that
    # group is infinite
    elements = reference_weyl_elements(a, 2000)
    assert (elements is None) == (name == "double edge")
    assert weyl_count(a) == (None if elements is None else len(elements))


@pytest.mark.parametrize("name", ["A~2", "D~4", "E~6", "E~8"])
def test_affine_weyl_groups_pass_every_bound(name):
    a = cartan_matrix(affine_graph(name))
    assert weyl_count(a) is None
    assert reference_weyl_elements(a, 1000) is None


@pytest.mark.parametrize("parts", [("A2", "A1"), ("A1", "A1", "A1"), ("D4", "E6"), ("E8", "A1", "D5")],
                         ids="+".join)
def test_weyl_count_of_block_sums_is_the_product(parts):
    # the height counts add over the components, and the dual partition
    # of their sum is the union of the components' exponents
    a = cartan_matrix(dynkin_graph(parts[0]))
    for name in parts[1:]:
        a = _block_sum(a, cartan_matrix(dynkin_graph(name)))
    assert weyl_count(a) == math.prod(weyl_count(cartan_matrix(dynkin_graph(name))) for name in parts)
    if len(a) <= 3:
        assert weyl_count(a) == len(reference_weyl_elements(a))


@pytest.mark.parametrize("name", ["A5", "D4", "E8"])
@pytest.mark.parametrize("call", ["enumerate_roots", "weyl_count", "enumerate_indecomposables"])
def test_each_root_call_eliminates_the_form_once(monkeypatch, call, name):
    # the roots are grown from a form found definite by the caller's own
    # elimination, which is not run a second time
    from reptheory import quiverrep
    calls = []
    definiteness = rootsys._definiteness
    monkeypatch.setattr(rootsys, "_definiteness", lambda a: calls.append(a) or definiteness(a))
    g = dynkin_graph(name)
    if call == "enumerate_indecomposables":
        quiverrep.enumerate_indecomposables(quiverrep.Quiver(g.n, [(i, j) for i, j, _ in g.edges()]))
    else:
        getattr(rootsys, call)(cartan_matrix(g))
    assert len(calls) == 1


@pytest.mark.parametrize("name,order", [("E6", 51840), ("E7", 2903040), ("E8", 696729600)])
def test_e_series_orders_are_invariant_degree_products(name, order):
    degrees = {"E6": (2, 5, 6, 8, 9, 12), "E7": (2, 6, 8, 10, 12, 14, 18),
               "E8": (2, 8, 12, 14, 18, 20, 24, 30)}[name]
    assert math.prod(degrees) == order
    start = time.perf_counter()
    assert weyl_count(cartan_matrix(dynkin_graph(name))) == order
    assert time.perf_counter() - start < 1.0


def test_weyl_count_ignores_the_labeling():
    # the count reads only how many positive roots there are of each
    # height, and relabeling the vertices permutes coordinates, which keeps
    # every height
    graph = dynkin_graph("E8")
    rng = random.Random(8)
    start = time.perf_counter()
    for _ in range(10):
        perm = list(range(8))
        rng.shuffle(perm)
        relabeled = Graph.from_edges(8, [(perm[i], perm[j]) for i, j, _ in graph.edges()])
        assert weyl_count(cartan_matrix(relabeled)) == 696729600
    assert time.perf_counter() - start < 1.0


def _random_connected_graph(rng, n):
    """A random tree (each vertex joined to one of the two before it, so
    long arms are common) plus up to two more edges, relabeled; edge
    multiplicities 1-3 on half of the graphs and 1 on the rest."""
    mults = (1, 1, 2, 3) if rng.random() < 0.5 else (1,)
    edges = [(rng.randrange(max(0, v - 2), v), v, rng.choice(mults)) for v in range(1, n)]
    for _ in range(rng.choice((0, 0, 1, 2)) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        edges.append((i, j, rng.choice(mults)))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[i], perm[j], m) for i, j, m in edges])


AFFINE_UP_TO_8 = [f"A~{n}" for n in range(1, 9)] + [f"D~{n}" for n in range(4, 9)] + ["E~6", "E~7", "E~8"]


def _relabeled(graph, rng):
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return Graph.from_edges(graph.n, [(perm[i], perm[j], m) for i, j, m in graph.edges()])


def _characteristic_polynomial(c):
    """det(xI - c), coefficients ascending, interpolated from linalg.det at
    x = 0, ..., n: each value times its Lagrange basis polynomial,
    multiplied out one linear factor at a time."""
    n = len(c)
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        y = det([[k * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(c)])
        basis, scale = [1], 1
        for j in range(n + 1):
            if j != k:
                basis = [p - j * q for p, q in zip([0] + basis, basis + [0])]
                scale *= k - j
        for i, b in enumerate(basis):
            coeffs[i] += y * b / scale
    assert all(f.denominator == 1 for f in coeffs)
    return [int(f) for f in coeffs]


def _divide_exactly(p, q):
    """p / q for integer polynomials (ascending), q monic, or None if q
    does not divide p."""
    p, quot = list(p), []
    while len(p) >= len(q):
        c = p[-1]
        quot.append(c)
        for i, x in enumerate(q):
            p[len(p) - len(q) + i] -= c * x
        p.pop()
    return None if any(p) else quot[::-1]


def _coxeter_exponents(c, h):
    """The exponents m_i of a Coxeter element c of order h: its eigenvalues
    are the zeta_h^m_i. Phi_d divides det(xI - c) exactly k_d times for
    each d | h, and its roots are the zeta_h^m for m = j * h / d, j prime
    to d; nothing may be left over."""
    poly, exponents = _characteristic_polynomial(c), []
    for d in (d for d in range(1, h + 1) if h % d == 0):
        while (quot := _divide_exactly(poly, cyclotomic_polynomial(d))) is not None:
            poly = quot
            exponents += [j * (h // d) for j in range(1, d + 1) if math.gcd(j, d) == 1]
    assert poly == [1]
    return exponents


@pytest.mark.parametrize("name", ADE_UP_TO_8)
def test_coxeter_exponents_give_the_weyl_order_and_the_root_count(name):
    # |W| = prod (m_i + 1) and |positive roots| = n h / 2 (Humphreys,
    # Reflection Groups and Coxeter Groups, ch. 3): checks weyl_count,
    # enumerate_roots and coxeter_element against each other
    graph, rng = dynkin_graph(name), random.Random(name)
    relabeled = _relabeled(graph, rng)
    for a, labeling in ((cartan_matrix(graph), None),
                        (cartan_matrix(relabeled), rng.sample(range(graph.n), graph.n))):
        c, h, _ = coxeter_element(a, labeling)
        exponents = _coxeter_exponents(c, h)
        assert len(exponents) == len(a)
        assert weyl_count(a) == math.prod(m + 1 for m in exponents)
        assert len(enumerate_roots(a)[0]) * 2 == len(a) * h


def _constructed(name):
    """The graph a classification name stands for, built by dynkin_graph
    or affine_graph."""
    if name.startswith("affine ("):
        return affine_graph(name[len("affine ("):-1])
    return dynkin_graph(name)


@pytest.mark.parametrize("name", ADE_UP_TO_8 + AFFINE_UP_TO_8)
def test_names_match_the_constructors_under_relabeling(name):
    # the name a constructor was called with, in classify's spelling
    if "~" in name:
        graph, want = affine_graph(name), f"affine ({name})"
    else:
        graph, want = dynkin_graph(name), name if name[0] == "E" else f"{name[0]}_{name[1:]}"
    rng = random.Random(name)
    for _ in range(20):
        assert classify(_relabeled(graph, rng)).name == want
    assert classify(graph).name == want


def test_classify_matches_principal_minors():
    rng = random.Random(5)
    named = [affine_graph(x) for x in ("A~1", "A~2", "A~6", "D~4", "D~5", "D~6", "E~6")]
    kinds = set()
    for graph in named + [_random_connected_graph(rng, rng.randint(1, 7)) for _ in range(400)]:
        c = classify(graph)
        want = reference_classify(graph)
        assert (c.kind, c.determinant) == want, graph.adjacency
        kinds.add(c.kind)
        if c.kind != "indefinite":
            # the named diagram has the same vertex count and degree sequence
            built = _constructed(c.name)
            assert sorted(map(sum, built.adjacency)) == sorted(map(sum, graph.adjacency)), (c.name, graph.adjacency)
    assert kinds == {"dynkin", "affine", "indefinite"}


def _principal_minor(a, subset):
    return det(Matrix(len(subset), len(subset), [[Fraction(a[i][j]) for j in subset] for i in subset]))


def _random_symmetric(rng, n):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = rng.choice((0, 1, 2, 2, 2, 3))
        for j in range(i):
            a[i][j] = a[j][i] = rng.choice((0, 0, 0, -1, -1, -2, 1))
    return a


def _block_sum(a, b):
    n, m = len(a), len(b)
    return [list(row) + [0] * m for row in a] + [[0] * n + list(row) for row in b]


def test_definiteness_is_sylvesters_criterion():
    # one elimination pass, against every leading principal minor, on
    # random symmetric integer matrices and on block sums of two of them
    rng = random.Random(27)
    mats = [_random_symmetric(rng, rng.randint(1, 6)) for _ in range(300)]
    mats += [_block_sum(_random_symmetric(rng, rng.randint(1, 3)), _random_symmetric(rng, rng.randint(1, 3)))
             for _ in range(200)]
    mats += [_block_sum(cartan_matrix(x), cartan_matrix(y)) for x, y in
             [(path_graph(1), path_graph(1)), (affine_graph("A~1"), path_graph(1)),
              (path_graph(2), affine_graph("A~2")), (dynkin_graph("D4"), dynkin_graph("E6"))]]
    signs = set()
    for a in mats:
        n = len(a)
        leading = [_principal_minor(a, list(range(k))) for k in range(1, n + 1)]
        if all(m > 0 for m in leading):
            want = 1
        elif all(m > 0 for m in leading[:-1]) and leading[-1] == 0:
            want = 0
        else:
            want = -1
        sign, d, delta = _definiteness(a)
        assert (sign, d) == (want, leading[-1]) and type(d) is int, a
        assert (delta is None) == (sign != 0), a
        if sign == 0:
            # semidefinite: every principal minor is nonnegative, and the
            # null space is spanned by one primitive vector
            assert all(_principal_minor(a, [i for i in range(n) if mask >> i & 1]) >= 0
                       for mask in range(1, 1 << n)), a
            assert all(sum(x * y for x, y in zip(row, delta)) == 0 for row in a), a
            assert delta[-1] > 0 and math.gcd(*delta) == 1, a
        signs.add(sign)
    assert signs == {1, 0, -1}


def test_roots_of_block_sums():
    a1 = cartan_matrix(path_graph(1))
    positive, negative = enumerate_roots(_block_sum(a1, a1))
    assert positive == [(0, 1), (1, 0)] and negative == [(0, -1), (-1, 0)]
    # A~1 + A1 is semidefinite, not definite, and has infinitely many roots
    with pytest.raises(GraphError):
        enumerate_roots(_block_sum(cartan_matrix(affine_graph("A~1")), a1))


@pytest.mark.parametrize("graph", [dynkin_graph("E8"), path_graph(5), cycle_graph(4),
                                   Graph.from_edges(3, [(0, 1, 3), (1, 2)])],
                         ids=["E8", "A5", "A~3", "indefinite"])
def test_determinant_is_an_int(graph):
    d = classify(graph).determinant
    assert type(d) is int and d == det(Matrix.from_rows(cartan_matrix(graph)))


@pytest.mark.parametrize("graph", [affine_graph("A~2"), affine_graph("D~5"), affine_graph("E~8"),
                                   cycle_graph(60), dynkin_graph("E8"), path_graph(30),
                                   Graph.from_edges(2, [(0, 1, 3)])],
                         ids=["A~2", "D~5", "E~8", "A~59", "E8", "A30", "indefinite"])
def test_classify_eliminates_once(graph, monkeypatch):
    # the null root of an affine form is read off the rows that decided
    # its sign, so every graph costs one gauss_jordan pass
    calls = []

    def counted(rows, ncols):
        calls.append(ncols)
        return eliminate(rows, ncols)

    eliminate = linalg.gauss_jordan
    monkeypatch.setattr(linalg, "gauss_jordan", counted)
    monkeypatch.setattr(rootsys, "gauss_jordan", counted)
    classify(graph)
    assert calls == [graph.n]


def test_large_classification_is_fast():
    star = Graph.from_edges(30, [(0, i) for i in range(1, 30)])
    start = time.perf_counter()
    assert classify(cycle_graph(40)).name == "affine (A~39)"
    assert classify(affine_graph("D~30")).name == "affine (D~30)"
    assert classify(star).kind == "indefinite"
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("graph", [cycle_graph(3), affine_graph("D~4"), Graph.from_edges(2, [(0, 1, 3)])],
                         ids=["A~2", "D~4", "triple edge"])
def test_non_dynkin_roots_and_coxeter_are_graph_errors(graph):
    a = cartan_matrix(graph)
    with pytest.raises(GraphError):
        enumerate_roots(a)
    with pytest.raises(GraphError):
        coxeter_element(a)


def test_graph_serialization():
    g = dynkin_graph("D5")
    blob = json.dumps(graph_to_json(g))
    assert graph_from_json(json.loads(blob)).adjacency == g.adjacency


@pytest.mark.parametrize("obj", [{"vertices": None, "edges": []}, {"vertices": "3", "edges": []},
                                 {"vertices": 3.0, "edges": []}, {"vertices": 3}, [3]])
def test_graph_from_json_rejects_wrong_types(obj):
    with pytest.raises(InputError):
        graph_from_json(obj)


def test_vertex_count_is_bounded():
    path = [(i, i + 1) for i in range(MAX_VERTICES - 1)]
    assert Graph.from_edges(MAX_VERTICES, path).n == MAX_VERTICES
    for n in (0, -1, MAX_VERTICES + 1, 10 ** 9):
        with pytest.raises(GraphError):
            Graph.from_edges(n, [])
        with pytest.raises(GraphError):
            Graph(n, [])

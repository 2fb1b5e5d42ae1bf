import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from operator import add
from pathlib import Path

import pytest

import reptheory
from reptheory import linalg, quiverrep
from reptheory.linalg import Matrix
from reptheory.quiverrep import (Quiver, QuiverError, QuiverRep,
                                 admissible_labels, decompose, direct_sum,
                                 enumerate_indecomposables, hom_dim,
                                 indecomposable_for_root, reflect_sink,
                                 reflect_source, rep_from_json, rep_to_json)
from reptheory.rootsys import (bilinear, cartan_matrix, dynkin_graph, enumerate_roots,
                               reflect)

A2 = Quiver(2, [(0, 1)])
A3_LINE = Quiver(3, [(0, 1), (1, 2)])
A3_IN = Quiver(3, [(0, 1), (2, 1)])
D4 = Quiver(4, [(0, 1), (2, 1), (3, 1)])


def identity_rep(q, dims):
    maps = []
    for s, t in q.arrows:
        maps.append(Matrix(dims[t], dims[s],
                           [[1 if i == j else 0 for j in range(dims[s])]
                            for i in range(dims[t])]))
    return QuiverRep(q, dims, maps)


def zero_rep(q):
    return QuiverRep(q, (0,) * q.n, [Matrix.zeros(0, 0) for _ in q.arrows])


def simple_rep(q, i):
    dims = tuple(int(v == i) for v in range(q.n))
    return QuiverRep(q, dims, [Matrix.zeros(dims[t], dims[s]) for s, t in q.arrows])


def test_rep_validation():
    with pytest.raises(QuiverError):
        QuiverRep(A2, (1, 1), [Matrix.zeros(2, 1)])
    with pytest.raises(QuiverError):
        Quiver(2, [(0, 0)])
    with pytest.raises(QuiverError):
        QuiverRep(A2, (1,), [Matrix.zeros(1, 1)])


def test_direct_sum():
    a = identity_rep(A2, (1, 1))
    z = zero_rep(A2)
    s = direct_sum(a, z)
    assert s.dims == (1, 1) and s.maps[0] == a.maps[0]
    two = direct_sum(simple_rep(A2, 0), simple_rep(A2, 1))
    assert two.dims == (1, 1)
    assert two.maps[0].is_zero()
    with pytest.raises(QuiverError):
        direct_sum(a, simple_rep(A3_LINE, 0))
    rng = random.Random(0)
    for _ in range(50):
        d1 = [rng.randint(0, 3) for _ in range(2)]
        d2 = [rng.randint(0, 3) for _ in range(2)]
        r1 = identity_rep(A2, (min(d1), min(d1)))
        r2 = identity_rep(A2, (min(d2), min(d2)))
        assert direct_sum(r1, r2).dims == tuple(x + y for x, y in zip(r1.dims, r2.dims))


def test_hom_dims():
    for i in range(3):
        for j in range(3):
            got = hom_dim(simple_rep(A3_LINE, i), simple_rep(A3_LINE, j))
            assert got == (1 if i == j else 0)
    for _, rep in enumerate_indecomposables(A3_LINE):
        assert hom_dim(rep, rep) == 1
    a = identity_rep(A2, (1, 1))
    assert hom_dim(direct_sum(a, a), direct_sum(a, a)) == 4


def test_reflect_sink_examples():
    v = identity_rep(A2, (1, 1))
    w = reflect_sink(v, 1)
    assert w.dims == (1, 0)
    assert w.quiver == Quiver(2, [(1, 0)])
    assert reflect_sink(simple_rep(A2, 1), 1).dims == (0, 0)
    with pytest.raises(QuiverError):
        reflect_sink(v, 0)


def test_reflect_source_examples():
    assert reflect_source(simple_rep(A2, 0), 0).dims == (0, 0)
    r = reflect_source(simple_rep(A2, 1), 0)
    assert r.dims == (1, 1)
    with pytest.raises(QuiverError):
        reflect_source(simple_rep(A2, 0), 1)


def test_reflect_round_trip_when_surjective():
    v = identity_rep(A2, (2, 2))
    w = reflect_sink(v, 1)
    back = reflect_source(w, 1)
    assert back.dims == v.dims
    assert hom_dim(back, v) == hom_dim(v, v)
    assert decompose(back) == decompose(v)


def test_dimension_relation_at_sink():
    a = cartan_matrix(A3_IN.underlying_graph())
    rng = random.Random(1)
    done = 0
    while done < 50:
        dims = [rng.randint(0, 3) for _ in range(3)]
        maps = [Matrix(dims[t], dims[s],
                       [[rng.randint(-2, 2) for _ in range(dims[s])]
                        for _ in range(dims[t])]) for s, t in A3_IN.arrows]
        v = QuiverRep(A3_IN, dims, maps)
        phi = Matrix.zeros(dims[1], 0)
        for k in A3_IN.arrows_into(1):
            phi = phi.hstack(v.maps[k])
        if len(linalg.rref(phi)[1]) != dims[1]:
            continue
        assert reflect_sink(v, 1).dims == reflect(a, 1, v.dims)
        done += 1


def test_admissible_labels():
    assert admissible_labels(A3_LINE) == (1, 2, 3)
    assert admissible_labels(A3_IN)[1] == 3
    assert admissible_labels(D4)[1] == 4
    with pytest.raises(QuiverError):
        admissible_labels(Quiver(3, [(0, 1), (1, 2), (2, 0)]))


def test_indecomposable_for_simple_roots():
    for q in (A2, A3_LINE, A3_IN, D4):
        for i in range(q.n):
            alpha = tuple(1 if v == i else 0 for v in range(q.n))
            rep = indecomposable_for_root(q, alpha)
            assert rep.dims == alpha
            assert hom_dim(rep, rep) == 1


def test_indecomposable_full_support_a3():
    rep = indecomposable_for_root(A3_LINE, (1, 1, 1))
    assert rep.dims == (1, 1, 1)
    # isomorphic to the identity-maps representation
    ref = identity_rep(A3_LINE, (1, 1, 1))
    assert hom_dim(rep, ref) == 1 and hom_dim(ref, rep) == 1
    with pytest.raises(QuiverError):
        indecomposable_for_root(A3_LINE, (1, 0, 1))


def test_triple_subspace_rep():
    rep = indecomposable_for_root(D4, (1, 2, 1, 1))
    assert rep.dims == (1, 2, 1, 1)
    assert hom_dim(rep, rep) == 1
    # the three maps into the middle must be injective with distinct images
    for k, (s, t) in enumerate(D4.arrows):
        assert linalg.rank(rep.maps[k]) == 1


def test_enumerations():
    assert len(enumerate_indecomposables(Quiver(1, []))) == 1
    assert len(enumerate_indecomposables(A2)) == 3
    assert len(enumerate_indecomposables(A3_LINE)) == 6
    assert len(enumerate_indecomposables(A3_IN)) == 6
    assert len(enumerate_indecomposables(D4)) == 12
    with pytest.raises(QuiverError):
        enumerate_indecomposables(Quiver(3, [(0, 1), (1, 2), (2, 0)]))


def test_enumerated_roots_and_norms():
    for q in (A2, A3_LINE, A3_IN, D4):
        a = cartan_matrix(q.underlying_graph())
        pos, _ = enumerate_roots(a)
        objs = enumerate_indecomposables(q)
        assert {root for root, _ in objs} == set(pos)
        for root, rep in objs:
            assert bilinear(a, root, root) == 2
            assert rep.dims == root


def test_reflection_preserves_indecomposability():
    # F+ of an indecomposable is indecomposable or zero
    for q in (A2, A3_LINE, A3_IN, D4):
        sinks = [v for v in range(q.n) if q.is_sink(v) and q.arrows_into(v)]
        for root, rep in enumerate_indecomposables(q):
            for i in sinks:
                w = reflect_sink(rep, i)
                assert w.is_zero() or hom_dim(w, w) == 1


def test_decompose_examples():
    total = reduce(direct_sum, [rep for _, rep in enumerate_indecomposables(A2)])
    assert decompose(total) == [((0, 1), 1), ((1, 0), 1), ((1, 1), 1)]
    for q in (A2, A3_LINE, A3_IN, D4):
        for root, rep in enumerate_indecomposables(q):
            assert decompose(rep) == [(root, 1)]
    assert decompose(zero_rep(A2)) == []


def test_decompose_additive():
    rng = random.Random(4)
    for q in (A3_LINE, D4):
        objs = enumerate_indecomposables(q)
        for _ in range(20):
            a = rng.choice(objs)[1]
            b = rng.choice(objs)[1]
            got = decompose(direct_sum(a, b))
            combined = {}
            for root, m in decompose(a) + decompose(b):
                combined[root] = combined.get(root, 0) + m
            assert got == sorted(combined.items())


def test_decompose_refuses_a_total_dimension_past_its_bound():
    # dims (N, 0) on 0 -> 1: the first sink step would build the N x N
    # identity, so past the bound decompose refuses before the walk
    bound = quiverrep.MAX_DECOMPOSE_DIM
    assert decompose(QuiverRep(A2, (bound, 0), [Matrix.zeros(0, bound)])) == [((1, 0), bound)]
    with pytest.raises(QuiverError, match=f"at most {bound}, not {bound + 1}$"):
        decompose(QuiverRep(A2, (bound + 1, 0), [Matrix.zeros(0, bound + 1)]))


def test_the_walks_build_no_fraction(monkeypatch):
    # maps are int rows over one denominator, so enumerate_indecomposables
    # and decompose (of maps with denominators) run on ints alone
    q = Quiver(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    want = enumerate_indecomposables(q)
    v = _rational_base_changed(reduce(direct_sum, [rep for _, rep in want[::7]]), random.Random(5))
    assert any(m.den > 1 for m in v.maps)
    expected = decompose(v)

    def no_fraction(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    got = enumerate_indecomposables(q)
    assert decompose(v) == expected
    monkeypatch.undo()
    assert [(root, rep.maps) for root, rep in got] == [(root, rep.maps) for root, rep in want]


def _random_invertible(n, rng):
    while True:
        m = Matrix(n, n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if n == 0 or linalg.det(m) != 0:
            return m


def _base_changed(v, rng):
    """v conjugated by a random invertible matrix at every vertex."""
    ps = [_random_invertible(d, rng) for d in v.dims]
    inv = [linalg.inverse(p) if p.rows else p for p in ps]
    maps = [ps[t] * m * inv[s] for (s, t), m in zip(v.quiver.arrows, v.maps)]
    return QuiverRep(v.quiver, v.dims, maps)


def test_decompose_round_trip_under_base_change():
    rng = random.Random(9)
    for q in (A2, A3_IN, D4):
        objs = enumerate_indecomposables(q)
        for _ in range(15):
            chosen = [rng.choice(objs) for _ in range(rng.randint(1, 4))]
            expected = {}
            for root, _ in chosen:
                expected[root] = expected.get(root, 0) + 1
            total = reduce(direct_sum, [rep for _, rep in chosen])
            assert decompose(_base_changed(total, rng)) == sorted(expected.items())


def test_round_trip_on_larger_quivers():
    # beyond the classified small cases: D5 and linear A5
    rng = random.Random(13)
    d5 = Quiver(5, [(0, 1), (1, 2), (4, 2), (2, 3)])
    a5 = Quiver(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    for q, want in ((d5, 20), (a5, 15)):
        objs = enumerate_indecomposables(q)
        assert len(objs) == want
        for _ in range(5):
            chosen = [rng.choice(objs) for _ in range(rng.randint(2, 4))]
            expected = {}
            for root, _ in chosen:
                expected[root] = expected.get(root, 0) + 1
            total = reduce(direct_sum, [rep for _, rep in chosen])
            assert decompose(_base_changed(total, rng)) == sorted(expected.items())


# -- references for the echelon-form reflection steps -------------------------

def reference_reflect_source(v, i):
    """Source reflection by basis inversion: invert an image|complement basis
    of the sum space and compose with the 0/1 inclusion of each target."""
    q = v.quiver
    arrow_idx = q.arrows_out_of(i)
    rows = [r for k in arrow_idx for r in v.maps[k].entries]
    psi = Matrix(len(rows), v.dims[i], rows)
    echelon, pivots = linalg.rref(psi.transpose())
    image = [echelon.row(r) for r in range(len(pivots))]
    complement = [[int(r == j) for r in range(psi.rows)]
                  for j in range(psi.rows) if j not in pivots]
    basis = Matrix(len(image) + len(complement), psi.rows, image + complement).transpose()
    coords = linalg.inverse(basis) if basis.cols else Matrix.zeros(0, 0)
    proj = Matrix(len(complement), psi.rows, coords.entries[len(image):])
    maps = list(v.maps)
    offset = 0
    for k in arrow_idx:
        width = v.dims[q.arrows[k][1]]
        inclusion = Matrix(psi.rows, width, [[int(r - offset == c) for c in range(width)]
                                             for r in range(psi.rows)])
        maps[k] = proj * inclusion
        offset += width
    dims = tuple(len(complement) if x == i else d for x, d in enumerate(v.dims))
    return QuiverRep(q.reversed_at(i), dims, maps)


def reference_decompose(v):
    """The decomposition walk with the cokernel multiplicity at each sink
    taken from the rank of the stacked incoming map."""
    q = v.quiver
    a = cartan_matrix(q.underlying_graph())
    labels = admissible_labels(q)
    seq = sorted(range(q.n), key=lambda x: -labels[x])
    counts = {}
    rep, applied = v, []
    while not rep.is_zero():
        j = seq[len(applied) % len(seq)]
        blocks = [rep.maps[k] for k in rep.quiver.arrows_into(j)]
        phi = Matrix(rep.dims[j], sum(b.cols for b in blocks),
                     [[x for b in blocks for x in b.row(r)] for r in range(rep.dims[j])])
        mult = rep.dims[j] - linalg.rank(phi)
        if mult:
            root = tuple(int(x == j) for x in range(q.n))
            for k in reversed(applied):
                root = reflect(a, k, root)
            counts[root] = counts.get(root, 0) + mult
        rep = reflect_sink(rep, j)
        applied.append(j)
    return sorted(counts.items())


def _two_orientations(name):
    """The diagram with every edge i -> j (i < j), and with every other
    edge reversed."""
    g = dynkin_graph(name)
    edges = [(i, j) for i, j, _ in g.edges()]
    mixed = [(j, i) if k % 2 else (i, j) for k, (i, j) in enumerate(edges)]
    return Quiver(g.n, edges), Quiver(g.n, mixed)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "D4"])
def test_the_root_check_agrees_with_the_root_list(name):
    # indecomposable_for_root takes alpha >= 0 with B(alpha, alpha) = 2 for
    # a positive root, with no list of the roots
    q, _ = _two_orientations(name)
    positive = set(enumerate_roots(cartan_matrix(dynkin_graph(name)))[0])
    for alpha in itertools.product(range(-1, 4), repeat=q.n):
        if alpha in positive:
            assert indecomposable_for_root(q, alpha).dims == alpha
        else:
            with pytest.raises(QuiverError):
                indecomposable_for_root(q, alpha)


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_each_root_alone_gives_the_enumerated_indecomposable(name):
    for q in _two_orientations(name):
        for root, rep in enumerate_indecomposables(q):
            alone = indecomposable_for_root(q, root)
            assert alone.dims == root and alone.maps == rep.maps, (name, root)


def test_the_root_check_refuses_floats_and_wrong_lengths():
    q, _ = _two_orientations("D4")
    assert indecomposable_for_root(q, (1, 1, 1, 1)).dims == (1, 1, 1, 1)
    for alpha in [(1.0, 1, 1, 1), (1, 1, 1, 1.5), (1, 1, 1), (1, 1, 1, 1, 0), (), (0, 0, 0, 0)]:
        with pytest.raises(QuiverError):
            indecomposable_for_root(q, alpha)


@pytest.mark.parametrize("name", ["A5", "D4", "D5", "D6", "E6"])
def test_indecomposables_match_reference_reflection(name):
    for q in _two_orientations(name):
        got = enumerate_indecomposables(q)
        want = reference_indecomposables(q, reference_reflect_source)
        assert [root for root, _ in got] == [root for root, _ in want]
        for (root, rep), (_, ref) in zip(got, want):
            assert rep.quiver == ref.quiver and rep.dims == ref.dims == root
            assert rep.maps == ref.maps, (q, root)


def test_decompose_matches_rank_count():
    rng = random.Random(21)
    for name in ("A5", "D5", "E6"):
        for q in _two_orientations(name):
            objs = enumerate_indecomposables(q)
            for _ in range(4):
                chosen = [rng.choice(objs)[1] for _ in range(rng.randint(2, 4))]
                mixed = _base_changed(reduce(direct_sum, chosen), rng)
                assert decompose(mixed) == reference_decompose(mixed)


# -- the integer decomposition walk and the shared Gabriel chains -------------

ALL_TYPES = ["A5", "D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8"]
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _rational_base_changed(v, rng):
    """v conjugated at every vertex x by a random invertible matrix with
    rational entries, divided by the x-th prime, so that the maps of arrows
    into different vertices have different denominators."""
    ps = []
    for x, d in enumerate(v.dims):
        while True:
            m = Matrix(d, d, [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) / PRIMES[x]
                               for _ in range(d)] for _ in range(d)])
            if d == 0 or linalg.det(m) != 0:
                break
        ps.append(m)
    inv = [linalg.inverse(m) if m.rows else m for m in ps]
    maps = [ps[t] * m * inv[s] for (s, t), m in zip(v.quiver.arrows, v.maps)]
    return QuiverRep(v.quiver, v.dims, maps)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_integer_walk_matches_fraction_oracle(name):
    rng = random.Random(17)
    for q in _two_orientations(name):
        objs = [rep for _, rep in enumerate_indecomposables(q)]
        # the indecomposables that vanish at vertex 0, so their sums do too
        off_zero = [rep for rep in objs if rep.dims[0] == 0]
        cases = [zero_rep(q),
                 reduce(direct_sum, [simple_rep(q, x) for x in range(q.n) for _ in range(x % 3)]),
                 reduce(direct_sum, [rng.choice(off_zero) for _ in range(3)])]
        cases += [reduce(direct_sum, [rng.choice(objs) for _ in range(rng.randint(2, 5))])
                  for _ in range(3)]
        for v in cases:
            mixed = _rational_base_changed(v, rng)
            assert decompose(mixed) == reference_decompose(mixed), (q, v.dims)
        assert decompose(cases[0]) == []
        assert cases[2].dims[0] == 0


def reference_indecomposables(q, source_reflection):
    """Gabriel's enumeration with nothing shared between roots: each root's
    reflection word walked down to a simple root, and the simple pulled back
    through its own chain of source reflections, each a QuiverRep."""
    a = cartan_matrix(q.underlying_graph())
    positive, _ = enumerate_roots(a)
    labels = admissible_labels(q)
    seq = sorted(range(q.n), key=lambda x: -labels[x])
    out = []
    for alpha in positive:
        beta, applied, cur_q = alpha, [], q
        while True:
            j = seq[len(applied) % len(seq)]
            nxt = reflect(a, j, beta)
            if all(c <= 0 for c in nxt) and any(c < 0 for c in nxt):
                break
            beta = nxt
            applied.append(j)
            cur_q = cur_q.reversed_at(j)
        rep = simple_rep(cur_q, j)
        for k in reversed(applied):
            rep = source_reflection(rep, k)
        out.append((alpha, rep))
    return out


def walk_states(q):
    """The distinct states (position mod n, beta) that the reflection walks
    of all positive roots pass through before the simple root each ends at,
    walked on dimension vectors alone."""
    a = cartan_matrix(q.underlying_graph())
    labels = admissible_labels(q)
    seq = sorted(range(q.n), key=lambda x: -labels[x])
    states = set()
    for beta in enumerate_roots(a)[0]:
        p = 0
        while True:
            nxt = reflect(a, seq[p % q.n], beta)
            if all(c <= 0 for c in nxt) and any(c < 0 for c in nxt):
                break
            states.add((p % q.n, beta))
            beta, p = nxt, p + 1
    return states


# the same in both orientations of each diagram
WALK_STATE_COUNTS = {"A5": 60, "D6": 159, "E6": 195, "E7": 413, "E8": 924}


@pytest.mark.parametrize("name", ALL_TYPES)
def test_shared_chains_match_unshared_walk(name, monkeypatch):
    # every walk state is one _sink_step on the dual representation, and a
    # chain climbed past its top root would take more
    real = quiverrep._sink_step
    for q in _two_orientations(name):
        want = reference_indecomposables(q, reflect_source)
        calls = []

        def counted(dims, arrows, maps, i):
            calls.append(i)
            return real(dims, arrows, maps, i)

        with monkeypatch.context() as patch:
            patch.setattr(quiverrep, "_sink_step", counted)
            got = enumerate_indecomposables(q)
        assert [root for root, _ in got] == [root for root, _ in want]
        for (root, rep), (_, ref) in zip(got, want):
            assert rep.quiver == ref.quiver == q and rep.dims == ref.dims == root
            assert rep.maps == ref.maps, (q, root)
        states = len(walk_states(q))
        assert len(calls) == states == WALK_STATE_COUNTS.get(name, states), (q, len(calls))


GABRIEL_MAPS = json.loads((Path(__file__).parent / "golden" / "gabriel_maps.json").read_text())


def rep_digest(rep):
    return hashlib.sha256(json.dumps(rep_to_json(rep), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", GABRIEL_MAPS, ids=lambda c: f"{c['name']}-{c['orientation']}")
def test_gabriel_maps_match_golden(case):
    # sha256 of rep_to_json of every indecomposable, in enumeration order
    q = Quiver(case["vertices"], case["arrows"])
    got = [[list(root), rep_digest(rep)] for root, rep in enumerate_indecomposables(q)]
    assert got == case["indecomposables"]


# -- the public functors on quivers that are not trees ------------------------

def reference_reflect_sink(v, i):
    """Sink reflection with the kernel of the stacked incoming map read off
    its Fraction rref: column e_f - sum_r rref[r][f] e_{p_r} per free f."""
    q = v.quiver
    into = q.arrows_into(i)
    rows = [[x for k in into for x in v.maps[k].row(r)] for r in range(v.dims[i])]
    width = sum(v.dims[q.arrows[k][0]] for k in into)
    echelon, pivots = linalg.rref(Matrix(v.dims[i], width, rows))
    kernel = []
    for f in (c for c in range(width) if c not in pivots):
        col = [Fraction(int(c == f)) for c in range(width)]
        for r, p in enumerate(pivots):
            col[p] = -echelon[r, f]
        kernel.append(col)
    maps = list(v.maps)
    offset = 0
    for k in into:
        height = v.dims[q.arrows[k][0]]
        maps[k] = Matrix(height, len(kernel), [[col[r] for col in kernel]
                                               for r in range(offset, offset + height)])
        offset += height
    dims = tuple(len(kernel) if x == i else d for x, d in enumerate(v.dims))
    return QuiverRep(q.reversed_at(i), dims, maps)


KRONECKER = Quiver(2, [(0, 1), (0, 1)])
A2_TILDE = Quiver(3, [(0, 1), (1, 2), (0, 2)])


def _random_rational_rep(q, dims, rng):
    """Maps with entries p / q for small p and q, q from a different pool of
    primes on each arrow, so that no one scalar per arrow clears them all."""
    maps = []
    for k, (s, t) in enumerate(q.arrows):
        dens = (1, PRIMES[k], PRIMES[k + 3])
        maps.append(Matrix(dims[t], dims[s], [[Fraction(rng.randint(-3, 3), rng.choice(dens))
                                               for _ in range(dims[s])] for _ in range(dims[t])]))
    return QuiverRep(q, dims, maps)


@pytest.mark.parametrize("q", [KRONECKER, A2_TILDE], ids=["Kronecker", "A~2"])
def test_functors_on_non_tree_quivers(q):
    rng = random.Random(23)
    a = cartan_matrix(q.underlying_graph())
    sink = next(v for v in range(q.n) if q.is_sink(v))
    source = next(v for v in range(q.n) if q.is_source(v))
    checked = {sink: 0, source: 0}
    for _ in range(30):
        dims = [rng.randint(1, 3) for _ in range(q.n)]
        v = _random_rational_rep(q, dims, rng)
        for i, functor, reference in ((sink, reflect_sink, reference_reflect_sink),
                                      (source, reflect_source, reference_reflect_source)):
            w, ref = functor(v, i), reference(v, i)
            assert w.quiver == ref.quiver == q.reversed_at(i)
            assert w.dims == ref.dims and hom_dim(w, ref) == hom_dim(ref, ref), (i, dims)
            if i == sink:  # phi K = 0: the stacked incoming map after the kernel basis
                arrows = q.arrows_into(i)
                composite = reduce(add, [v.maps[k] * w.maps[k] for k in arrows])
            else:  # P psi = 0: the stacked outgoing map followed by the projection
                arrows = q.arrows_out_of(i)
                composite = reduce(add, [w.maps[k] * v.maps[k] for k in arrows])
            assert composite.is_zero(), (i, dims)
            # phi surjective, or psi injective: rank phi (or psi) is dims[i]
            if sum(dims[x] for k in arrows for x in q.arrows[k] if x != i) - w.dims[i] == dims[i]:
                assert w.dims == reflect(a, i, v.dims), (i, dims)
                checked[i] += 1
    assert min(checked.values()) >= 10, checked


REFLECTION_FUNCTORS = json.loads((Path(__file__).parent / "golden" / "reflection_functors.json").read_text())


@pytest.mark.parametrize("case", REFLECTION_FUNCTORS,
                         ids=[f"{c['quiver']}-{c['functor']}{c['vertex']}-{k}"
                              for k, c in enumerate(REFLECTION_FUNCTORS)])
def test_functors_match_golden(case):
    # the exact maps of reflect_sink and reflect_source at every sink and
    # source of the Kronecker, A~2 and D4 quivers, on eight representations
    # each with maps p / q drawn as in _random_rational_rep (random.Random(31),
    # dimensions 0 to 3), recorded before reflect_source ran on the dual
    functor = {"sink": reflect_sink, "source": reflect_source}[case["functor"]]
    got = functor(rep_from_json(case["input"]), case["vertex"])
    assert rep_to_json(got) == case["output"]


def test_rep_serialization():
    rep = indecomposable_for_root(D4, (1, 2, 1, 1))
    blob = json.dumps(rep_to_json(rep))
    back = rep_from_json(json.loads(blob))
    assert back.quiver == rep.quiver
    assert back.dims == rep.dims
    assert all(a == b for a, b in zip(back.maps, rep.maps))


# Each sabotage breaks one of the four consistency checks of decompose and
# _indecomposables; they must raise QuiverError also where `assert` is off.
# The last leaves the reflection step of the Gabriel walk doing nothing.
# The Gabriel walk takes its roots from rootsys.reflect; decompose carries
# its Weyl word as a matrix built from the Cartan matrix of the quiver.
SABOTAGED_REFLECTIONS = """
from reptheory import quiverrep, rootsys
from reptheory.quiverrep import (Quiver, QuiverError, decompose, enumerate_indecomposables,
                                 indecomposable_for_root)

q = Quiver(3, [(0, 1), (1, 2)])
full = indecomposable_for_root(q, (1, 1, 1))


def attempt(label, call):
    try:
        call()
    except QuiverError as exc:
        print(f"{label}: {exc}")
    else:
        print(f"{label}: no error")


real = rootsys.reflect
quiverrep.reflect = lambda a, i, v: tuple(-abs(c) for c in real(a, i, v))
attempt("walk", lambda: indecomposable_for_root(q, (1, 1, 1)))
quiverrep.reflect = real
real_cartan = quiverrep.cartan_matrix
quiverrep.cartan_matrix = lambda g: [[-x for x in row] for row in real_cartan(g)]
attempt("nonnegative", lambda: decompose(full))
quiverrep.cartan_matrix = lambda g: [[0] * g.n for _ in range(g.n)]
attempt("add up", lambda: decompose(full))
quiverrep.cartan_matrix = real_cartan
real_positive = quiverrep._positive_roots
quiverrep._positive_roots = lambda a: real_positive(a)[:-1]
attempt("enumeration", lambda: enumerate_indecomposables(q))
quiverrep._positive_roots = real_positive
quiverrep._sink_step = lambda dims, arrows, maps, j: None
attempt("functors", lambda: indecomposable_for_root(q, (1, 1, 1)))
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_consistency_checks_survive_optimize(optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-c", SABOTAGED_REFLECTIONS],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "walk: reflection walk of (1, 1, 1) ends at (1, 1, 1), not a simple root",
        "nonnegative: summand root (1, -1, 1) is not nonnegative",
        "add up: summand dimension vectors do not add up",
        "enumeration: the reflection chains reach 6 roots, not each of the 5 positive roots once",
        "functors: reflection functors built dimension vector (1, 0, 0), not (1, 1, 1)",
    ]

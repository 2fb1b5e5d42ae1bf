"""Graphs, Cartan matrices, ADE classification, roots, Weyl groups and
Coxeter elements.

Everything is integer arithmetic on tuples. One gauss_jordan pass on the
form 2*Id - R tells definite, semidefinite and indefinite apart by its
leading principal minors in O(n^3), and its eliminated rows give the
null root of a semidefinite form. A diagram is named by its invariants,
not by its shape: a Dynkin diagram by its determinant, an affine one by
the largest coordinate of its primitive null root delta. Positive roots
are grown by height from the simple roots, and the order of the Weyl
group is read off how many there are of each height.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from operator import add, mul, neg

from .linalg import (det, eliminated_null_vectors, fields, gauss_jordan, parse_integer,
                     short_repr)


class GraphError(ValueError):
    pass


# Graphs are stored as a dense adjacency matrix and classified by O(n^3)
# elimination, so the vertex count is bounded before anything is allocated.
MAX_VERTICES = 200


def _check_vertex_count(n):
    if not 1 <= n <= MAX_VERTICES:
        raise GraphError(f"a graph has 1 to {MAX_VERTICES} vertices, got {short_repr(n)}")


class Graph:
    """Undirected multigraph without self-loops on 1 to MAX_VERTICES
    vertices: a symmetric nonnegative edge-multiplicity matrix with zero
    diagonal."""

    __slots__ = ("n", "adjacency")

    def __init__(self, n, adjacency):
        _check_vertex_count(n)
        adjacency = tuple(tuple(int(x) for x in row) for row in adjacency)
        if len(adjacency) != n or any(len(r) != n for r in adjacency):
            raise GraphError(f"adjacency matrix must be {n}x{n}")
        for i in range(n):
            if adjacency[i][i]:
                raise GraphError("self-loops are not allowed")
            for j in range(n):
                if adjacency[i][j] != adjacency[j][i] or adjacency[i][j] < 0:
                    raise GraphError("adjacency matrix must be symmetric and nonnegative")
        self.n = n
        self.adjacency = adjacency

    @staticmethod
    def from_edges(n, edges):
        _check_vertex_count(n)
        adj = [[0] * n for _ in range(n)]
        for e in edges:
            if not (isinstance(e, (list, tuple)) and len(e) in (2, 3)
                    and all(type(x) is int for x in e)):
                raise GraphError(f"edge {short_repr(e)} is not two endpoints and an optional multiplicity")
            i, j = e[0], e[1]
            m = e[2] if len(e) > 2 else 1
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"edge ({i}, {j}) has an endpoint outside 0..{n - 1}")
            if i == j:
                raise GraphError("self-loops are not allowed")
            adj[i][j] += m
            adj[j][i] += m
        return Graph(n, adj)

    def edges(self):
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.adjacency[i][j]:
                    out.append((i, j, self.adjacency[i][j]))
        return out

    def is_connected(self):
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in range(self.n):
                if self.adjacency[v][w] and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n


def cartan_matrix(graph):
    """2*Id minus the adjacency matrix, as an integer tuple matrix."""
    return tuple(tuple((2 if i == j else 0) - graph.adjacency[i][j]
                       for j in range(graph.n)) for i in range(graph.n))


def bilinear(a, x, y):
    """B(x, y) = x^T A y for the Cartan matrix A."""
    return sum(x[i] * sum(a[i][j] * y[j] for j in range(len(y))) for i in range(len(x)))


def reflect(a, i, v):
    """Simple reflection s_i(v) = v - B(v, alpha_i) alpha_i."""
    b = sum(a[i][j] * v[j] for j in range(len(v)))
    return tuple(v[j] - (b if j == i else 0) for j in range(len(v)))


def _definiteness(a):
    """(sign, determinant, delta) of the symmetric integer form a, off one
    gauss_jordan pass: sign 1 if the n pivots are positive leading principal
    minors (columns 0..n-1, no swap; Sylvester), 0 if the first n - 1 are
    and the rank is n - 1, else -1: indefinite on a connected graph, as
    every proper principal submatrix of an affine diagram is Dynkin. At
    sign 0, delta is the primitive null vector with delta_n > 0, read off
    the same eliminated rows; otherwise it is None."""
    n = len(a)
    rows = [list(row) for row in a]
    pivots, minors, swaps = gauss_jordan(rows, n)
    r = len(pivots)
    leading = not swaps and pivots == list(range(r)) and all(m > 0 for m in minors)
    if r < n:
        if leading and r == n - 1:
            return 0, 0, eliminated_null_vectors(rows, n, pivots, minors[-1])[0]
        return -1, 0, None
    return (1 if leading else -1), (-minors[-1] if swaps % 2 else minors[-1]), None


def _require_definite(a):
    if _definiteness(a)[0] <= 0:
        raise GraphError("the form 2*Id - R is not positive definite: not a Dynkin diagram")


class Classification:
    __slots__ = ("kind", "name", "determinant")

    def __init__(self, kind, name, determinant):
        self.kind = kind          # "dynkin" | "affine" | "indefinite"
        self.name = name          # e.g. "A_3", "E8", "affine (A~2)", "indefinite"
        self.determinant = determinant

    def __repr__(self):
        return f"Classification({self.kind}, {self.name}, det={self.determinant})"


def classify(graph):
    """Decide by one exact elimination whether the form 2*Id - R is
    positive definite (simply laced Dynkin: one of A_n, D_n, E6, E7, E8),
    positive semidefinite (affine) or indefinite, and name the diagram by
    its invariants. A definite connected graph is an ADE tree, named by its
    determinant: n + 1 for A_n (tested first, so A_3 is not D_3), then 4,
    3, 2, 1 for D_n, E6, E7, E8. A semidefinite one is an extended ADE
    diagram, whose null space is spanned by the primitive null root delta,
    read off the same elimination; its largest coordinate, 1, 2, 3, 4 or
    6, names A~(n-1), D~(n-1), E~6, E~7 or E~8."""
    if not graph.is_connected():
        raise GraphError("classification requires a connected graph")
    a = cartan_matrix(graph)
    sign, d, delta = _definiteness(a)
    n = graph.n
    if sign > 0:
        name = f"A_{n}" if d == n + 1 else {4: f"D_{n}", 3: "E6", 2: "E7", 1: "E8"}[d]
        return Classification("dynkin", name, d)
    if sign < 0:
        return Classification("indefinite", "indefinite", d)
    name = {1: f"A~{n - 1}", 2: f"D~{n - 1}", 3: "E~6", 4: "E~7", 6: "E~8"}[max(delta)]
    return Classification("affine", f"affine ({name})", d)


# -- named diagrams -------------------------------------------------------

def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _diagram_name(name, dropped):
    """(family letter, n) of a diagram name like "E8", "d_4" or "A~3", after
    removing the characters in dropped; n is read from ASCII digits only."""
    key = name.strip().upper()
    for ch in dropped:
        key = key.replace(ch, "")
    family, num = key[:1], key[1:]
    if not (family and num.isascii() and num.isdigit()):
        raise GraphError(f"cannot parse diagram name {short_repr(name)}")
    return family, parse_integer(num)


def dynkin_graph(name):
    """ADE diagrams by name ("A5", "D4", "E8"). D_n carries the fork at
    the last two vertices; E_n has the short arm attached to vertex 2 of
    the path (so vertex order matches the usual pictures)."""
    family, n = _diagram_name(name, "_")
    if family == "A" and n >= 1:
        return path_graph(n)
    if family == "D" and n >= 3:
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
        return Graph.from_edges(n, edges)
    if family == "E" and n in (6, 7, 8):
        edges = [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
        return Graph.from_edges(n, edges)
    raise GraphError(f"not an ADE diagram: {name!r}")


def affine_graph(name):
    """The affine (positive semidefinite) diagrams: A~n (cycle), D~n,
    E~6, E~7, E~8 and the doubled edge A~1."""
    family, n = _diagram_name(name, "~_")
    if family == "A" and n >= 1:
        if n == 1:
            return Graph.from_edges(2, [(0, 1, 2)])
        return cycle_graph(n + 1)
    if family == "D" and n >= 4:
        # central path 2..(n-2), two leaves attached at each end
        edges = [(0, 2), (1, 2), (n - 1, n - 2), (n, n - 2)]
        edges += [(i, i + 1) for i in range(2, n - 2)]
        return Graph.from_edges(n + 1, edges)
    if family == "E" and n in (6, 7, 8):
        base = dynkin_graph(f"E{n}")
        edges = base.edges()
        if n == 6:
            edges.append((base.n - 1, base.n))      # extend the short arm
        elif n == 7:
            edges.append((0, base.n))               # extend a long arm to length 3+1
        else:
            edges.append((6, base.n))               # E8: extend the long arm
        return Graph.from_edges(base.n + 1, edges)
    raise GraphError(f"not an affine diagram name: {name!r}")


# -- roots ----------------------------------------------------------------

def enumerate_roots(a):
    """All roots (B(x,x) = 2) of a positive definite Cartan matrix A, as
    (positive, negative) lists, each sorted by (height, coordinates). Any
    other form has infinitely many roots and raises GraphError, as does a
    matrix that is not a Cartan matrix (2 on the diagonal, nothing
    positive off it).

    The positive roots are grown by height from the simple roots. A
    definite A is simply laced, since its 2 x 2 principal minors
    4 - a_ij^2 are positive, so the alpha_i-string through a positive root
    beta != alpha_i has length at most 2, and beta + alpha_i is a root
    exactly when B(beta, alpha_i) = -1 (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 9.4 and 10.1): its norm is
    4 + 2 B(beta, alpha_i). Every positive root gamma of height h + 1 comes
    so from one of height h: sum_i gamma_i B(gamma, alpha_i) = 2 gives an i
    with gamma_i > 0 and B(gamma, alpha_i) > 0, and gamma - alpha_i, of
    norm 4 - 2 B(gamma, alpha_i) <= 2, is then a root, as a definite even
    form takes no smaller positive value. Each root carries its
    pairings B(beta, alpha_j), row i of A for alpha_i plus row i for each
    step along alpha_i, so a root costs O(n), the check of its norm
    sum_j beta_j B(beta, alpha_j) = 2 included: O(|Phi+| n) in all."""
    _require_definite(a)
    positive = _positive_roots(a)
    return positive, [tuple(map(neg, v)) for v in positive]


def _positive_roots(a):
    """The positive roots of a form the caller has found positive definite."""
    n = len(a)
    if any(x != 2 if i == j else x > 0 for i, row in enumerate(a) for j, x in enumerate(row)):
        raise GraphError("a Cartan matrix has 2 on the diagonal and no positive entry off it")
    layer = {tuple(int(j == i) for j in range(n)): a[i] for i in range(n)}
    positive = []
    while layer:
        nxt = {}
        for beta in sorted(layer):
            pairing = layer[beta]
            if sum(map(mul, beta, pairing)) != 2:
                raise AssertionError(f"{beta} has left the root sphere")
            positive.append(beta)
            for i, p in enumerate(pairing):
                if p == -1:
                    gamma = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if gamma not in nxt:
                        nxt[gamma] = tuple(map(add, pairing, a[i]))
        layer = nxt
    return positive


# -- Weyl groups and Coxeter elements --------------------------------------

def _mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def coxeter_element(a, labeling=None):
    """The product s_1 s_2 ... s_r in the simple root basis, its
    multiplicative order, and det(c - Id) (nonzero on Dynkin types: 1 is
    never an eigenvalue of a Coxeter element). Only Dynkin types have a
    Coxeter element of finite order; any other form raises GraphError.
    A labeling, the order of the factors, must list each vertex once."""
    _require_definite(a)
    labels = list(labeling) if labeling is not None else list(range(len(a)))
    if sorted(labels) != list(range(len(a))):
        raise ValueError(f"a labeling lists each of the {len(a)} vertices once, not {labels}")
    ident = _mat_identity(len(a))

    def times_c(m):  # c * m = s_1 (s_2 (... (s_r * m)))
        for i in reversed(labels):
            m = _reflect_rows(a, i, m)
        return m
    c = power = times_c(ident)
    order = 1
    while power != ident:
        power = times_c(power)
        order += 1
        if order > 10000:
            raise AssertionError("Coxeter element order did not close")
    return c, order, det([[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(c)])


def _reflect_rows(a, i, m):
    """s_i * m: reflecting every column of m changes its row i alone."""
    row = m[i]
    for k, aik in enumerate(a[i]):
        if aik:
            row = tuple(x - aik * y for x, y in zip(row, m[k]))
    return m[:i] + (row,) + m[i + 1:]


def weyl_count(a):
    """Order of the Weyl group of a positive definite Cartan matrix, read
    off the heights of its positive roots; None for any other form, whose
    group is infinite. A definite matrix that is not a Cartan matrix
    raises GraphError, as in enumerate_roots. With k_h positive roots of
    height h, the exponents m_1, ..., m_n are the dual partition of
    (k_1, k_2, ...), m_j = #{h : k_h >= j}, and |W| = prod (m_j + 1)
    (Kostant 1959; Humphreys, Reflection Groups and Coxeter Groups, ch. 3).
    A reducible form needs no split: its height counts add over the
    components, and the dual of a sum of partitions is their union, so the
    product is that of the components' orders."""
    if _definiteness(a)[0] <= 0:
        return None
    heights = Counter(map(sum, _positive_roots(a)))
    return prod(1 + sum(k >= j for k in heights.values()) for j in range(1, len(a) + 1))


# -- serialization ----------------------------------------------------------

def graph_to_json(graph):
    return {"vertices": graph.n, "edges": [list(e) for e in graph.edges()]}


def graph_from_json(obj):
    return Graph.from_edges(*fields(obj, "graph", {"vertices": int, "edges": list}))

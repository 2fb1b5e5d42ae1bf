"""Quiver representations over Q: reflection functors, Gabriel
enumeration and exact decomposition into indecomposables.

A representation assigns a rational matrix to every arrow; zero
dimensional vertex spaces are first-class (0 x n matrices), since every
simple representation has them. Decomposition walks an admissible vertex
ordering, splitting off the cokernel at the current sink (so many copies
of the current simple) and reflecting the remainder, until nothing is
left; the recorded dimension vectors determine the isomorphism class of
the decomposition by Krull-Schmidt uniqueness.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .linalg import Matrix
from .rootsys import Graph, cartan_matrix, classify, enumerate_roots, reflect


class QuiverError(ValueError):
    pass


class Quiver:
    __slots__ = ("n", "arrows")

    def __init__(self, n, arrows):
        arrows = tuple((int(s), int(t)) for s, t in arrows)
        for s, t in arrows:
            if not (0 <= s < n and 0 <= t < n):
                raise QuiverError("arrow endpoint out of range")
            if s == t:
                raise QuiverError("self-loops are outside the finite-type theory")
        self.n = n
        self.arrows = arrows

    def underlying_graph(self):
        return Graph.from_edges(self.n, [(s, t, 1) for s, t in self.arrows])

    def is_sink(self, i):
        return all(s != i for s, _ in self.arrows)

    def is_source(self, i):
        return all(t != i for _, t in self.arrows)

    def arrows_into(self, i):
        return [k for k, (_, t) in enumerate(self.arrows) if t == i]

    def arrows_out_of(self, i):
        return [k for k, (s, _) in enumerate(self.arrows) if s == i]

    def reversed_at(self, i):
        """All arrows incident to i flipped."""
        flipped = tuple((t, s) if s == i or t == i else (s, t) for s, t in self.arrows)
        return Quiver(self.n, flipped)

    def __eq__(self, other):
        return isinstance(other, Quiver) and self.n == other.n and self.arrows == other.arrows

    def __hash__(self):
        return hash((self.n, self.arrows))

    def __repr__(self):
        return f"Quiver({self.n}, {list(self.arrows)})"


class QuiverRep:
    __slots__ = ("quiver", "dims", "maps")

    def __init__(self, quiver, dims, maps):
        dims = tuple(int(d) for d in dims)
        maps = tuple(maps)
        if len(dims) != quiver.n or any(d < 0 for d in dims):
            raise QuiverError("one nonnegative dimension per vertex required")
        if len(maps) != len(quiver.arrows):
            raise QuiverError("one matrix per arrow required")
        for (s, t), m in zip(quiver.arrows, maps):
            if m.rows != dims[t] or m.cols != dims[s]:
                raise QuiverError(
                    f"map for arrow {s}->{t} has shape {m.rows}x{m.cols}, "
                    f"wanted {dims[t]}x{dims[s]}")
        self.quiver = quiver
        self.dims = dims
        self.maps = maps

    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return all(d == 0 for d in self.dims)

    def __repr__(self):
        return f"QuiverRep(dims={self.dims})"


def zero_rep(quiver):
    return QuiverRep(quiver, (0,) * quiver.n,
                     [Matrix.zeros(0, 0) for _ in quiver.arrows])


def simple_rep(quiver, i):
    dims = tuple(1 if v == i else 0 for v in range(quiver.n))
    maps = [Matrix.zeros(dims[t], dims[s]) for s, t in quiver.arrows]
    return QuiverRep(quiver, dims, maps)


def direct_sum(a, b):
    if a.quiver != b.quiver:
        raise QuiverError("direct sum requires the same quiver")
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    maps = []
    for (s, t), ma, mb in zip(a.quiver.arrows, a.maps, b.maps):
        maps.append(linalg.block_diag([ma, mb]))
    return QuiverRep(a.quiver, dims, maps)


def hom_dim(a, b):
    """Dimension of Hom(a, b): solution space of the per-arrow commuting
    conditions y_h phi_src = phi_tgt x_h, by exact kernel computation."""
    if a.quiver != b.quiver:
        raise QuiverError("hom requires the same quiver")
    n = a.quiver.n
    offsets = []
    total = 0
    for v in range(n):
        offsets.append(total)
        total += a.dims[v] * b.dims[v]
    if total == 0:
        return 0
    rows = []
    for (s, t), x, y in zip(a.quiver.arrows, a.maps, b.maps):
        # unknown phi_v is a b.dims[v] x a.dims[v] matrix, row-major
        for r in range(b.dims[t]):
            for c in range(a.dims[s]):
                row = [Fraction(0)] * total
                # (y * phi_s)[r, c] = sum_k y[r, k] phi_s[k, c]
                for k in range(b.dims[s]):
                    row[offsets[s] + k * a.dims[s] + c] += y.entries[r][k]
                # (phi_t * x)[r, c] = sum_k phi_t[r, k] x[k, c]
                for k in range(a.dims[t]):
                    row[offsets[t] + r * a.dims[t] + k] -= x.entries[k][c]
                rows.append(row)
    if not rows:
        return total
    system = Matrix(len(rows), total, rows)
    return total - len(linalg.rref(system)[1])


# -- reflection functors ----------------------------------------------------

def _stack_into(v, i):
    """The combined map from the direct sum of the spaces at arrow sources
    into V_i, blocks in arrow order; returns (matrix, arrow indices)."""
    idx = v.quiver.arrows_into(i)
    cols = sum(v.maps[k].cols for k in idx)
    rows = [[x for k in idx for x in v.maps[k].entries[r]] for r in range(v.dims[i])]
    return Matrix(v.dims[i], cols, rows), idx


def reflect_sink(v, i):
    """Reflection at a sink: the space at i is replaced by the kernel of
    the combined incoming map, the incident arrows are reversed, and the
    new outgoing maps are kernel-inclusion followed by block projection.

    Applied to a representation that is not surjective at i, this is the
    "pre-split" kernel construction: the cokernel summands (copies of the
    simple at i) are silently annihilated.
    """
    q = v.quiver
    if not q.is_sink(i):
        raise QuiverError(f"vertex {i} is not a sink")
    phi, arrow_idx = _stack_into(v, i)
    kernel = linalg.kernel_basis(phi)  # (sum of source dims) x new_dim
    new_dim = kernel.cols
    new_q = q.reversed_at(i)
    dims = tuple(new_dim if x == i else d for x, d in enumerate(v.dims))
    maps = list(v.maps)
    offset = 0
    for k in arrow_idx:
        height = v.dims[q.arrows[k][0]]
        maps[k] = Matrix(height, new_dim, kernel.entries[offset:offset + height])
        offset += height
    return QuiverRep(new_q, dims, maps)


def reflect_source(v, i):
    """Reflection at a source: the space at i becomes the cokernel of the
    combined outgoing map psi, realized on the standard vectors at the
    non-pivot coordinates of psi's echelonized image, so repeated runs are
    bit-identical. The new map from each target is the block of columns of
    the cokernel projection that belongs to it."""
    q = v.quiver
    if not q.is_source(i):
        raise QuiverError(f"vertex {i} is not a source")
    arrow_idx = q.arrows_out_of(i)
    rows = [r for k in arrow_idx for r in v.maps[k].entries]
    proj = linalg.cokernel_projection(Matrix(len(rows), v.dims[i], rows))
    new_dim = proj.rows
    new_q = q.reversed_at(i)
    dims = tuple(new_dim if x == i else d for x, d in enumerate(v.dims))
    maps = list(v.maps)
    offset = 0
    for k in arrow_idx:
        width = v.dims[q.arrows[k][1]]
        maps[k] = Matrix(new_dim, width, [r[offset:offset + width] for r in proj.entries])
        offset += width
    return QuiverRep(new_q, dims, maps)


# -- admissible orderings and Gabriel ---------------------------------------

def admissible_labels(q):
    """Labels 1..n such that the vertex labeled n is a sink of q, the one
    labeled n-1 is a sink after removing it, and so on (lowest-index sink
    first at every step). Raises on directed cycles."""
    remaining = set(range(q.n))
    arrows = list(q.arrows)
    labels = [0] * q.n
    for label in range(q.n, 0, -1):
        sinks = sorted(v for v in remaining
                       if all(s != v for s, t in arrows))
        if not sinks:
            raise QuiverError("directed cycle found: no admissible ordering")
        v = sinks[0]
        labels[v] = label
        remaining.discard(v)
        arrows = [(s, t) for s, t in arrows if s != v and t != v]
    return tuple(labels)


def _sink_sequence(q):
    """Vertices in descending label order: the functor application order."""
    labels = admissible_labels(q)
    return sorted(range(q.n), key=lambda v: -labels[v])


def require_dynkin(q):
    cls = classify(q.underlying_graph())
    if cls.kind != "dynkin":
        raise QuiverError(f"not finite type: underlying graph is {cls.name}")
    return cartan_matrix(q.underlying_graph())


def indecomposable_for_root(q, alpha):
    """The unique indecomposable representation with dimension vector the
    given positive root."""
    a = require_dynkin(q)
    positive, _ = enumerate_roots(a)
    alpha = tuple(alpha)
    if alpha not in positive:
        raise QuiverError(f"{alpha} is not a positive root of the underlying diagram")
    return _indecomposable(q, a, _sink_sequence(q), len(positive), alpha)


def _indecomposable(q, a, seq, n_positive, alpha):
    """Walk the reflection word of the positive root alpha down to a simple
    root, then pull the simple representation back through the reverse
    chain of source reflections."""
    beta = alpha
    applied = []
    cur_q = q
    while True:
        j = seq[len(applied) % len(seq)]
        nxt = reflect(a, j, beta)
        if all(c <= 0 for c in nxt) and any(c < 0 for c in nxt):
            if beta != tuple(1 if v == j else 0 for v in range(q.n)):
                raise QuiverError(f"reflection walk of {alpha} ends at {beta}, not a simple root")
            stop_vertex = j
            break
        beta = nxt
        applied.append(j)
        cur_q = cur_q.reversed_at(j)
        if len(applied) > 4 * n_positive * len(seq):
            raise AssertionError("reflection walk failed to terminate")
    rep = simple_rep(cur_q, stop_vertex)
    for j in reversed(applied):
        rep = reflect_source(rep, j)
    if rep.quiver != q or rep.dims != alpha:
        raise QuiverError(f"reflection functors built dimension vector {rep.dims}, not {alpha}")
    return rep


def enumerate_indecomposables(q):
    """One indecomposable representation per positive root (Gabriel)."""
    a = require_dynkin(q)
    positive, _ = enumerate_roots(a)
    seq = _sink_sequence(q)
    return [(alpha, _indecomposable(q, a, seq, len(positive), alpha)) for alpha in positive]


def decompose(v):
    """Multiset of indecomposable summands of v, as a sorted list of
    (positive root, multiplicity) pairs with sum mult * root = dims.

    The cokernel at sink j has dimension dims[j] - rank(phi), that is
    dims[j] - (source dims) + the kernel dimension reflect_sink returns.
    """
    q = v.quiver
    a = require_dynkin(q)
    seq = _sink_sequence(q)
    counts = {}
    rep = v
    applied = []
    while not rep.is_zero():
        j = seq[len(applied) % len(seq)]
        source_dims = sum(rep.dims[s] for s, t in rep.quiver.arrows if t == j)
        nxt = reflect_sink(rep, j)
        coker_mult = rep.dims[j] - source_dims + nxt.dims[j]
        if coker_mult:
            root = tuple(1 if x == j else 0 for x in range(q.n))
            for k in reversed(applied):
                root = reflect(a, k, root)
            if any(c < 0 for c in root):
                raise QuiverError(f"summand root {root} is not nonnegative")
            counts[root] = counts.get(root, 0) + coker_mult
        rep = nxt
        applied.append(j)
        if len(applied) > 1000 * (q.n + v.total_dim()):
            raise AssertionError("decomposition did not terminate")
    check = [0] * q.n
    for root, mult in counts.items():
        check = [c + mult * r for c, r in zip(check, root)]
    if tuple(check) != v.dims:
        raise QuiverError("summand dimension vectors do not add up")
    return sorted(counts.items())


# -- serialization ------------------------------------------------------------

def quiver_to_json(q):
    return {"vertices": q.n, "arrows": [list(x) for x in q.arrows]}


def quiver_from_json(obj):
    if not (isinstance(obj, dict) and isinstance(obj.get("vertices"), int)
            and isinstance(obj.get("arrows"), list)
            and all(isinstance(x, list) and len(x) == 2 and all(isinstance(v, int) for v in x)
                    for x in obj["arrows"])):
        raise QuiverError('a quiver is {"vertices": n, "arrows": [[source, target], ...]}')
    return Quiver(obj["vertices"], [tuple(x) for x in obj["arrows"]])


def rep_to_json(v):
    return {"quiver": quiver_to_json(v.quiver), "dims": list(v.dims),
            "maps": [linalg.matrix_to_json(m) for m in v.maps]}


def rep_from_json(obj):
    q = quiver_from_json(obj["quiver"])
    if not (isinstance(obj["dims"], list) and all(isinstance(d, int) for d in obj["dims"])
            and isinstance(obj["maps"], list)):
        raise QuiverError("dims must be a list of integers and maps a list of matrices")
    dims = obj["dims"]
    maps = [linalg.matrix_from_json(m) for m in obj["maps"]]
    return QuiverRep(q, dims, maps)

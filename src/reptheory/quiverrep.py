"""Quiver representations over Q: reflection functors, Gabriel
enumeration and exact decomposition into indecomposables.

A representation assigns a rational matrix to every arrow; zero
dimensional vertex spaces are first-class (0 x n matrices), since every
simple representation has them. Decomposition walks an admissible vertex
ordering, splitting off the cokernel at the current sink (so many copies
of the current simple) and reflecting the remainder, until nothing is
left; the recorded dimension vectors determine the isomorphism class of
the decomposition by Krull-Schmidt uniqueness.

The reflection functors of Bernstein, Gelfand and Ponomarev are one sink
step, in place on lists of int rows: V_j becomes the kernel of the
stacked incoming map, with the basis integer_null_vectors gives (primitive
vectors, free coordinate positive: the rref null vector with its
denominators cleared). A source reflection, where V_i becomes the
cokernel of the stacked outgoing map, is that step on the dual
representation (every arrow reversed, every map transposed), since the
cokernel of a map is dual to the kernel of its transpose. decompose,
Gabriel's enumeration and the public reflect_sink and reflect_source all
go through it. The public functors clear denominators by one scalar per
coordinate of V_i, a base change at i on any quiver; decompose by one
scalar per arrow, a base change at the vertices only on a tree, which a
Dynkin quiver is.

Gabriel's enumeration pulls each simple back through source reflections.
A full cycle of the admissible sequence flips every arrow twice, so the
representation reached at walk state (position mod n, root) is the same
for every root whose walk passes through it; one enumeration builds each
state once, as a dimension vector and int maps of the dual, at most n *
|positive roots| sink steps (924 on E8, where walking every root on its
own takes 7140), and refuses a type with more than MAX_WALK_STATES. Only
the representations returned are transposed back and become QuiverReps.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import linalg
from .linalg import Matrix, fields, short_repr
from .rootsys import Graph, _positive_roots, bilinear, cartan_matrix, classify, reflect


class QuiverError(ValueError):
    pass


class Quiver:
    __slots__ = ("n", "arrows")

    def __init__(self, n, arrows):
        arrows = tuple(arrows)
        for arrow in arrows:
            if not (isinstance(arrow, (list, tuple)) and len(arrow) == 2
                    and all(type(v) is int and 0 <= v < n for v in arrow)):
                raise QuiverError(f"arrow {short_repr(arrow)} is not a source and a target in 0..{n - 1}")
            if arrow[0] == arrow[1]:
                raise QuiverError("self-loops are outside the finite-type theory")
        self.n = n
        self.arrows = tuple(map(tuple, arrows))

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
    return total - linalg.rank(Matrix(len(rows), total, rows))


# -- reflection functors ----------------------------------------------------

def _transpose(rows, ncols):
    """The transpose of int rows with ncols columns."""
    return list(zip(*rows)) if rows else [()] * ncols


def _sink_step(dims, arrows, maps, j):
    """Reflection at the sink j, in place on int rows: V_j becomes the
    kernel of the stacked incoming map phi, the arrows into j turn round,
    and each new map is the block of the kernel basis at the arrow's other
    end. Returns dims[j] - rank(phi), the number of copies of the simple
    at j that the step annihilates (the cokernel of phi)."""
    into = [k for k, (_, t) in enumerate(arrows) if t == j]
    width = sum(dims[arrows[k][0]] for k in into)
    phi = [[x for k in into for x in maps[k][r]] for r in range(dims[j])]
    kernel = linalg.integer_null_vectors(phi, width)
    coker = dims[j] - width + len(kernel)
    rows = _transpose(kernel, width)
    offset = 0
    for k in into:
        s = arrows[k][0]
        maps[k] = rows[offset:offset + dims[s]]
        arrows[k] = (j, s)
        offset += dims[s]
    dims[j] = len(kernel)
    return coker


def _rep(q, dims, maps):
    """The representation of q with the given maps, one list of rows per arrow."""
    return QuiverRep(q, dims, [Matrix(dims[t], dims[s], m) for (s, t), m in zip(q.arrows, maps)])


def _dual(v):
    """The dual representation: every arrow reversed, every map transposed."""
    q = Quiver(v.quiver.n, [(t, s) for s, t in v.quiver.arrows])
    return QuiverRep(q, v.dims, [m.transpose() for m in v.maps])


def reflect_sink(v, i):
    """Reflection at a sink: _sink_step, after row r of the stacked
    incoming map is scaled by the lcm of its denominators (a base change at
    i, which keeps the kernel).

    Applied to a representation that is not surjective at i, this is the
    "pre-split" kernel construction: the cokernel summands (copies of the
    simple at i) are silently annihilated.
    """
    q = v.quiver
    if not q.is_sink(i):
        raise QuiverError(f"vertex {i} is not a sink")
    into = q.arrows_into(i)
    scales = [lcm(*[x.denominator for k in into for x in v.maps[k].entries[r]])
              for r in range(v.dims[i])]
    maps = [m.entries for m in v.maps]
    for k in into:
        maps[k] = [[x.numerator * (c // x.denominator) for x in row]
                   for row, c in zip(maps[k], scales)]
    dims, arrows = list(v.dims), list(q.arrows)
    _sink_step(dims, arrows, maps, i)
    return _rep(Quiver(q.n, arrows), dims, maps)


def reflect_source(v, i):
    """Reflection at a source: reflect_sink on the dual, where i is a sink,
    dualized back. The rows it scales are the columns of the stacked
    outgoing map (a base change at i, which keeps the image)."""
    if not v.quiver.is_source(i):
        raise QuiverError(f"vertex {i} is not a source")
    return _dual(reflect_sink(_dual(v), i))


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
    """The name classify gives the underlying graph of q, which must be a
    Dynkin diagram, and its Cartan matrix."""
    graph = q.underlying_graph()
    cls = classify(graph)
    if cls.kind != "dynkin":
        raise QuiverError(f"not finite type: underlying graph is {cls.name}")
    return cls.name, cartan_matrix(graph)


def indecomposable_for_root(q, alpha):
    """The unique indecomposable representation with dimension vector the
    given positive root. On a Dynkin form the positive roots are exactly
    the integer vectors alpha >= 0 with B(alpha, alpha) = 2."""
    _, a = require_dynkin(q)
    alpha = tuple(alpha)
    if (len(alpha) != len(a) or not all(type(c) is int and c >= 0 for c in alpha)
            or bilinear(a, alpha, alpha) != 2):
        raise QuiverError(f"{alpha} is not a positive root of the underlying diagram")
    return _indecomposables(q, a, [alpha])[0]


def _indecomposables(q, a, alphas):
    """The indecomposable for each positive root in alphas: walk its
    reflection word down to a simple root, then pull the simple
    representation back through the reverse chain of source reflections,
    each a _sink_step on the dual representation. So the walk keeps duals
    on the opposite quivers, and transposes only the representations it
    returns.

    A full cycle of the admissible sequence flips every arrow twice, so the
    quiver at walk position p is that at p mod n, and the representation
    reached at state (p mod n, beta) is the same for every root whose walk
    passes through it. Each state is built once, by one _sink_step (or as
    a simple), so there are at most n * |positive roots| of them, and a
    walk that meets one of its own states again would never end. A state
    is its dimension vector and int maps on the opposite quiver at its
    position; only the representations returned become QuiverReps."""
    n = len(a)
    seq = _sink_sequence(q)
    opposite = [Quiver(n, [(t, s) for s, t in q.arrows])]
    for j in seq[:-1]:
        opposite.append(opposite[-1].reversed_at(j))
    built = {}
    out = []
    for alpha in alphas:
        beta, p, path = alpha, 0, {}
        while (p % n, beta) not in built:
            j = seq[p % n]
            nxt = reflect(a, j, beta)
            if all(c <= 0 for c in nxt) and any(c < 0 for c in nxt):
                if beta != tuple(1 if v == j else 0 for v in range(n)):
                    raise QuiverError(f"reflection walk of {alpha} ends at {beta}, not a simple root")
                built[p % n, beta] = beta, [[[0] * beta[s] for _ in range(beta[t])]
                                            for s, t in opposite[p % n].arrows]
                break
            if (p % n, beta) in path:
                raise AssertionError("reflection walk failed to terminate")
            path[p % n, beta] = None
            beta = nxt
            p += 1
        dims, maps = built[p % n, beta]
        for state in reversed(path):
            dims, maps = list(dims), list(maps)
            _sink_step(dims, list(opposite[(state[0] + 1) % n].arrows), maps, seq[state[0]])
            built[state] = dims, maps
        if tuple(dims) != alpha:
            raise QuiverError(f"reflection functors built dimension vector {tuple(dims)}, not {alpha}")
        out.append(_rep(q, dims, [_transpose(m, dims[t]) for m, (_, t) in zip(maps, q.arrows)]))
    return out


# The Gabriel walk keeps up to n * |positive roots| states, each with its
# own list of n - 1 maps, so its time and memory grow as about n^4 on A_n
# and D_n. Measured end to end (`quiver indecomposables --type`, Python
# 3.11, 2 vCPUs, peak RSS from ru_maxrss): A40 1.0 s / 66 MB, A60 5.3 s /
# 237 MB, D50 5.8 s / 258 MB, D60 12.0 s / 470 MB. The largest types this
# bound takes, A58 (99238 states) and D46 (95220), take 4.3-5.3 s / 213 MB
# and 4.0-4.4 s / 185 MB.
MAX_WALK_STATES = 100_000


def enumerate_indecomposables(q):
    """One indecomposable representation per positive root (Gabriel), while
    n * |positive roots| is at most MAX_WALK_STATES. The count is read off
    the name of the type, n(n+1)/2 on A_n and n(n-1) on D_n, so a type
    above the bound is refused before its roots are enumerated."""
    name, a = require_dynkin(q)
    count = {"E6": 36, "E7": 63, "E8": 120}.get(name) or (
        q.n * (q.n + 1) // 2 if name.startswith("A") else q.n * (q.n - 1))
    if q.n * count > MAX_WALK_STATES:
        raise QuiverError(f"Gabriel's enumeration walks n * |positive roots| states, at most "
                          f"{MAX_WALK_STATES} here; {name} has {q.n} * {count} = {q.n * count}")
    positive = _positive_roots(a)
    return list(zip(positive, _indecomposables(q, a, positive)))


def _integer_map(m):
    """The entries of m times the lcm of their denominators, as int rows."""
    s = lcm(*[x.denominator for row in m.entries for x in row])
    return [[x.numerator * (s // x.denominator) for x in row] for row in m.entries]


def decompose(v):
    """Multiset of indecomposable summands of v, as a sorted list of
    (positive root, multiplicity) pairs with sum mult * root = dims.

    The walk runs on int rows, as the module docstring says. The cokernel
    at the sink j has dimension dims[j] - rank(phi) for the stacked
    incoming map phi; after the reflections s_k1 ... s_km its root is
    w e_j for w = s_k1 ... s_km.
    """
    q = v.quiver
    _, a = require_dynkin(q)
    seq = _sink_sequence(q)
    n = q.n
    neighbours = [[(i, a[j][i]) for i in range(n) if i != j and a[j][i]] for j in range(n)]
    dims = list(v.dims)
    arrows = list(q.arrows)
    maps = [_integer_map(m) for m in v.maps]
    w = [[int(i == j) for i in range(n)] for j in range(n)]  # column j is w e_j
    counts = {}
    steps = 0
    while any(dims):
        j = seq[steps % n]
        coker_mult = _sink_step(dims, arrows, maps, j)
        if coker_mult:
            root = tuple(w[j])
            if any(c < 0 for c in root):
                raise QuiverError(f"summand root {root} is not nonnegative")
            counts[root] = counts.get(root, 0) + coker_mult
        # w s_j e_i = w e_i - a[j][i] w e_j
        wj = w[j]
        for i, c in neighbours[j]:
            w[i] = [x - c * y for x, y in zip(w[i], wj)]
        w[j] = [-y for y in wj]
        steps += 1
        if steps > 1000 * (n + v.total_dim()):
            raise AssertionError("decomposition did not terminate")
    check = [0] * n
    for root, mult in counts.items():
        check = [c + mult * r for c, r in zip(check, root)]
    if tuple(check) != v.dims:
        raise QuiverError("summand dimension vectors do not add up")
    return sorted(counts.items())


# -- serialization ------------------------------------------------------------

def quiver_to_json(q):
    return {"vertices": q.n, "arrows": [list(x) for x in q.arrows]}


def quiver_from_json(obj):
    return Quiver(*fields(obj, "quiver", {"vertices": int, "arrows": list}))


def rep_to_json(v):
    return {"quiver": quiver_to_json(v.quiver), "dims": list(v.dims),
            "maps": [linalg.matrix_to_json(m) for m in v.maps]}


def rep_from_json(obj):
    quiver, dims, maps = fields(obj, "quiver representation",
                                {"quiver": None, "dims": list[int], "maps": list})
    return QuiverRep(quiver_from_json(quiver), dims, [linalg.matrix_from_json(m) for m in maps])

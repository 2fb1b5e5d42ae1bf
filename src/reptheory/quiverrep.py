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
go through it, on the int rows num of each map num / den, and wrap the
int rows they build with no conversion. The public functors clear den by
one scalar per coordinate of V_i, a base change at i on any quiver;
decompose drops it, one scalar per arrow, a base change at the vertices
only on a tree, which a Dynkin quiver is.

Gabriel's enumeration pulls each simple back through source reflections.
A full cycle of the admissible sequence flips every arrow twice, so the
quiver at walk position p is that at p mod n. A root's walk steps from
state (p, beta) to (p + 1, s_j beta), j = seq[p mod n]; s_j is an
involution, so the states form disjoint chains, one ending at the simple
e_seq[r] at each position r < n, and the roots whose walks end there are
the vectors at the multiples of n above it. Each chain is climbed once, in
place, one sink step per state (924 on E8; walking each root alone: 7140).
"""

from __future__ import annotations

from math import gcd, lcm

from . import linalg
from .linalg import Matrix, fields, short_repr, transpose_rows
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
    return QuiverRep(a.quiver, dims, [linalg.block_diag([ma, mb]) for ma, mb in zip(a.maps, b.maps)])


def hom_dim(a, b):
    """Dimension of Hom(a, b): solution space of the per-arrow commuting
    conditions y_h phi_src = phi_tgt x_h, by exact kernel computation."""
    if a.quiver != b.quiver:
        raise QuiverError("hom requires the same quiver")
    offsets = []
    total = 0
    for v in range(a.quiver.n):
        offsets.append(total)
        total += a.dims[v] * b.dims[v]
    rows = []
    for (s, t), x, y in zip(a.quiver.arrows, a.maps, b.maps):
        # unknown phi_v is a b.dims[v] x a.dims[v] matrix, row-major; rows times x.den * y.den
        for r in range(b.dims[t]):
            for c in range(a.dims[s]):
                row = [0] * total
                # (y * phi_s)[r, c] = sum_k y[r, k] phi_s[k, c]
                for k in range(b.dims[s]):
                    row[offsets[s] + k * a.dims[s] + c] += y.num[r][k] * x.den
                # (phi_t * x)[r, c] = sum_k phi_t[r, k] x[k, c]
                for k in range(a.dims[t]):
                    row[offsets[t] + r * a.dims[t] + k] -= x.num[k][c] * y.den
                rows.append(row)
    return total - len(linalg.gauss_jordan(rows, total)[0])


# -- reflection functors ----------------------------------------------------

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
    rows = transpose_rows(kernel, width)
    offset = 0
    for k in into:
        s = arrows[k][0]
        maps[k] = rows[offset:offset + dims[s]]
        arrows[k] = (j, s)
        offset += dims[s]
    dims[j] = len(kernel)
    return coker


def _dual(v):
    """The dual representation: every arrow reversed, every map transposed."""
    q = Quiver(v.quiver.n, [(t, s) for s, t in v.quiver.arrows])
    return QuiverRep(q, v.dims, [m.transpose() for m in v.maps])


def reflect_sink(v, i):
    """Reflection at a sink: _sink_step, after row r of the stacked
    incoming map is scaled by the lcm of its denominators (a base change at
    i, which keeps the kernel). In row r of a map num / den that lcm is den
    over the gcd of den and the row.

    Applied to a representation that is not surjective at i, this is the
    "pre-split" kernel construction: the cokernel summands (copies of the
    simple at i) are silently annihilated.
    """
    q = v.quiver
    if not q.is_sink(i):
        raise QuiverError(f"vertex {i} is not a sink")
    into = q.arrows_into(i)
    maps = list(v.maps)
    scales = [lcm(*[maps[k].den // gcd(maps[k].den, *maps[k].num[r]) for k in into])
              for r in range(v.dims[i])]
    for k in into:
        m = maps[k]
        maps[k] = [[x * c // m.den for x in row] for row, c in zip(m.num, scales)]
    dims, arrows = list(v.dims), list(q.arrows)
    _sink_step(dims, arrows, maps, i)
    return QuiverRep(Quiver(q.n, arrows), dims,
                     [Matrix._of(dims[t], dims[s], maps[k]) if k in into else maps[k]
                      for k, (s, t) in enumerate(arrows)])


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


def _positive_root_count(name, n):
    """|positive roots| of the Dynkin type with the name classify gives."""
    return {"E6": 36, "E7": 63, "E8": 120}.get(name) or (
        n * (n + 1) // 2 if name.startswith("A") else n * (n - 1))


def _climb(q, seq, bottom, roots):
    """The chain of walk states that ends at the simple e_seq[bottom] at
    position bottom, climbed in place on one list of dims and int maps of
    the dual: the state at p is that at p + 1 after one _sink_step at seq[p
    mod n]. roots maps positions, multiples of n, to the dimension vectors
    the walk found there; yields each and the representation of q there."""
    n = q.n
    opposite = Quiver(n, [(t, s) for s, t in q.arrows])
    for j in seq[:bottom % n]:
        opposite = opposite.reversed_at(j)
    arrows = list(opposite.arrows)
    dims = [int(v == seq[bottom % n]) for v in range(n)]
    maps = [[[0] * dims[s] for _ in range(dims[t])] for s, t in arrows]
    for p in range(bottom, min(roots) - 1, -1):
        if p < bottom:
            _sink_step(dims, arrows, maps, seq[p % n])
        if p in roots:
            if tuple(dims) != roots[p]:
                raise QuiverError(f"reflection functors built dimension vector {tuple(dims)}, not {roots[p]}")
            yield roots[p], QuiverRep(q, dims, [Matrix._of(dims[t], dims[s], transpose_rows(m, dims[t]))
                                                for m, (s, t) in zip(maps, q.arrows)])


def indecomposable_for_root(q, alpha):
    """The unique indecomposable representation with dimension vector the
    given positive root. On a Dynkin form the positive roots are exactly
    the integer vectors alpha >= 0 with B(alpha, alpha) = 2. Its reflection
    word is walked down to a simple root on dimension vectors alone, and
    that simple's chain climbed back up to alpha."""
    name, a = require_dynkin(q)
    alpha = tuple(alpha)
    if (len(alpha) != len(a) or not all(type(c) is int and c >= 0 for c in alpha)
            or bilinear(a, alpha, alpha) != 2):
        raise QuiverError(f"{alpha} is not a positive root of the underlying diagram")
    n, seq, states = q.n, _sink_sequence(q), q.n * _positive_root_count(name, q.n)
    beta, p = alpha, 0
    while max(nxt := reflect(a, seq[p % n], beta)) > 0:
        beta, p = nxt, p + 1
        if p > states:  # a state (p mod n, beta) came back
            raise AssertionError("reflection walk failed to terminate")
    if beta != tuple(int(v == seq[p % n]) for v in range(n)):
        raise QuiverError(f"reflection walk of {alpha} ends at {beta}, not a simple root")
    return next(_climb(q, seq, p, {0: alpha}))[1]


# Gabriel's enumeration climbs its chains in place, so it keeps only the
# representations it returns; this bounds its time. Measured end to end
# (`quiver indecomposables --type`, Python 3.11, 2 vCPUs, ru_maxrss): A58
# (99238 states) 2.0-3.4 s / 30 MB, D46 (95220) 2.0-2.6 s / 34 MB, the
# largest taken; past it A60 2.4-3.1 s / 31 MB, D50 2.6-2.9 s / 41 MB.
MAX_WALK_STATES = 100_000


def enumerate_indecomposables(q):
    """One indecomposable representation per positive root (Gabriel), while
    n * |positive roots|, read off the name of the type, is at most
    MAX_WALK_STATES. Each simple's chain is walked up on dimension vectors
    while they stay positive, and climbed to the last root on the way."""
    name, a = require_dynkin(q)
    n, count = q.n, _positive_root_count(name, q.n)
    if n * count > MAX_WALK_STATES:
        raise QuiverError(f"Gabriel's enumeration walks n * |positive roots| states, at most "
                          f"{MAX_WALK_STATES} here; {name} has {n} * {count} = {n * count}")
    seq, found = _sink_sequence(q), []
    for r in range(n):
        beta, p, roots = tuple(int(v == seq[r]) for v in range(n)), r, {}
        while max(beta) > 0:
            if p % n == 0:
                roots[p] = beta
            p -= 1
            beta = reflect(a, seq[p % n], beta)
            if r - p > n * count:
                raise AssertionError("reflection walk failed to terminate")
        found += _climb(q, seq, r, roots)
    positive, reps = _positive_roots(a), dict(found)
    if len(found) != len(positive) or reps.keys() != set(positive):
        raise QuiverError(f"the reflection chains reach {len(found)} roots, not each of the "
                          f"{len(positive)} positive roots once")
    return [(alpha, reps[alpha]) for alpha in positive]


# decompose's time grows with about the cube of the total dimension, and a
# short file can ask for a large one: dims (N, 0) on 0 -> 1 make the first
# sink step build the N x N identity. Measured end to end (`quiver
# decompose`, Python 3.11, 2 vCPUs, ru_maxrss): seeded base-changed E8 sums
# took 0.7 s / 18 MB at total dimension 411, 2.1 s / 19 MB at 502 and
# 5.7 s / 24 MB at 801; the (N, 0) file 0.11 s / 19 MB at N = 500, 0.33 s /
# 31 MB at 1000 and 0.78 s / 77 MB at 2000.
MAX_DECOMPOSE_DIM = 500


def decompose(v):
    """Multiset of indecomposable summands of v, as a sorted list of
    (positive root, multiplicity) pairs with sum mult * root = dims, for a
    total dimension of at most MAX_DECOMPOSE_DIM.

    The walk runs on int rows, as the module docstring says. The cokernel
    at the sink j has dimension dims[j] - rank(phi) for the stacked
    incoming map phi; after the reflections s_k1 ... s_km its root is
    w e_j for w = s_k1 ... s_km.
    """
    if v.total_dim() > MAX_DECOMPOSE_DIM:
        raise QuiverError(f"decompose takes a total dimension of at most {MAX_DECOMPOSE_DIM}, "
                          f"not {v.total_dim()}")
    q = v.quiver
    _, a = require_dynkin(q)
    seq = _sink_sequence(q)
    n = q.n
    neighbours = [[(i, a[j][i]) for i in range(n) if i != j and a[j][i]] for j in range(n)]
    dims = list(v.dims)
    arrows = list(q.arrows)
    maps = [m.num for m in v.maps]
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

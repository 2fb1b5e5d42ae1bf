"""Finite groups as permutation groups, with full class data.

Enumerated groups are small (the largest named one is A7, of order
2520), so the whole element set is enumerated breadth-first and classes
are computed as conjugation orbits; no stabilizer-chain machinery.
SymmetricGroup holds S_n up to S_15 as class data instead: one class per
cycle type, with no element listed. A SubgroupView embeds an enumerated
subgroup H in either kind of group through the group's `class_index`, so
induction and restriction list the elements of H only. A
SemidirectProduct realizes G x| A (A abelian) on the pairs (a, g); D_n
for n >= 3 is the one of Z_2 acting on Z_n by inversion, and its
character table is built from it by `chartab.semidirect_table`.

A permutation on m points is a plain tuple of 0-based images. Inside
PermGroup every element is kept as `bytes` (`perms`, with the bytes-keyed
`by_perm`), and products run on those: q.translate(p.ljust(256)) is
p_mul(p, q) in one C-level call, an inverse is one bytes.maketrans, and a
conjugate is two translates. A class's representative is its least
member's bytes, as bytes order is tuple order for points below 256. Its
element order is the number of such products that bring it back to the
identity when the group is no larger than its degree, so that no order
exceeds the degree, and the lcm of its cycle lengths otherwise. The
tuple forms `elements` and `index` are built from the bytes when
something first reads them; the package's own readers (power maps, class
indices, SemidirectProduct, the abelian and semidirect tables of chartab
and the roundtrip check) read `perms` and `by_perm` instead.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cached_property
from math import factorial, gcd, lcm

from .linalg import fields, parse_integer, short_repr


class EnumerationBound(ValueError):
    pass


# -- permutation helpers -----------------------------------------------

def p_identity(degree):
    return tuple(range(degree))


def p_mul(p, q):
    """Composition: apply q first, then p."""
    return tuple(p[x] for x in q)


def cycles(p):
    """The cycles of p, each a tuple that opens at its least point, in the
    order of those points: the points are scanned in ascending order and
    each cycle is opened at the least point not yet seen."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if not seen[i]:
            cyc = [i]
            seen[i] = True
            j = p[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = p[j]
            out.append(tuple(cyc))
    return out


def cycle_lengths(p):
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def cycle_notation(p):
    parts = []
    for c in cycles(p):
        if len(c) > 1:
            parts.append("(" + "".join(str(x + 1) for x in c) + ")")
    return "".join(parts) if parts else "Id"


def from_cycles(degree, cycle_list):
    images = list(range(degree))
    for c in cycle_list:
        for a, b in zip(c, c[1:] + (c[0],) if isinstance(c, tuple) else c[1:] + [c[0]]):
            images[a] = b
    return tuple(images)


def is_bijection(p):
    return all(type(x) is int for x in p) and sorted(p) == list(range(len(p)))


# -- groups ------------------------------------------------------------

def class_order_key(cl):
    """The canonical class order, (element order, size, representative):
    the identity class comes first. Every group with permutation
    representatives sorts its classes by this key."""
    return (cl.element_order, cl.size, cl.representative)


class ConjugacyClass:
    __slots__ = ("representative", "size", "members", "centralizer_order", "element_order")

    def __init__(self, representative, members, group_order, element_order):
        self.representative = representative
        self.members = tuple(members)
        self.size = len(members)
        self.centralizer_order = group_order // self.size
        self.element_order = element_order

    def __repr__(self):
        return f"ConjugacyClass({cycle_notation(self.representative)}, size={self.size})"


# Every element of a PermGroup is a tuple of `degree` points, so the degree
# is bounded before anything is allocated. It stays below 256 so that an
# element fits in `bytes`, on which PermGroup composes. The largest group
# the package builds is D100, the regular action of dihedral_semidirect(100)
# on its 200 elements; no named group or table needs more points.
MAX_DEGREE = 200
# the most elements a PermGroup enumerates before it stops (EnumerationBound)
MAX_ELEMENTS = 200000


class PermGroup:
    """A fully enumerated permutation group on 0 to MAX_DEGREE points.

    Element 0 is the identity; elements follow BFS order from the
    generators, so generator k is element k + 1. `perms[i]` is element i
    as bytes and `by_perm` maps those bytes back to i; `elements` and
    `index` are the same as tuples, and `inverse_index` gives the index of
    each inverse, all built on first read. Classes are
    sorted by (element order, size, lexicographic representative), so the
    identity class is always class 0.
    """

    def __init__(self, degree, generators):
        if not 0 <= degree <= MAX_DEGREE:
            raise ValueError(f"a permutation group has degree 0 to {MAX_DEGREE}, got {short_repr(degree)}")
        self.degree = degree
        gens = []
        for g in generators:
            g = tuple(g)
            if not is_bijection(g) or len(g) != degree:
                raise ValueError(f"not a permutation of 0..{degree - 1}: {short_repr(g)}")
            if g != p_identity(degree) and g not in gens:
                gens.append(g)
        self.generators = tuple(gens)
        # products run on bytes: q.translate(p.ljust(256)) is p_mul(p, q)
        ident = bytes(range(degree))
        perms, by_perm, frontier = [ident], {ident: 0}, [ident]
        parent = [None]  # (parent element index, generator index)
        gen_perms = [bytes(g) for g in self.generators]
        while frontier:
            nxt = []
            for x in frontier:
                xi, table = by_perm[x], x.ljust(256)
                for gi, g in enumerate(gen_perms):
                    y = g.translate(table)
                    if y not in by_perm:
                        by_perm[y] = len(perms)
                        perms.append(y)
                        parent.append((xi, gi))
                        nxt.append(y)
                        if len(perms) > MAX_ELEMENTS:
                            raise EnumerationBound(
                                f"group enumeration exceeded bound {MAX_ELEMENTS}")
            frontier = nxt
        self.perms, self.by_perm, self._parent = perms, by_perm, parent
        self._build_classes()
        self.exponent = lcm(*(cl.element_order for cl in self.classes))

    def _build_classes(self):
        perms, by_perm = self.perms, self.by_perm
        n, identity = len(perms), perms[0]
        assigned = [-1] * n
        raw_classes = []
        # g x g^-1 = p_mul(g, p_mul(x, g^-1)): g^-1 through x's table, then g's
        pairs = [(bytes.maketrans(g, identity)[:self.degree], g.ljust(256))
                 for g in perms[1:len(self.generators) + 1]]
        for start in range(n):
            if assigned[start] != -1:
                continue
            orbit = [start]
            assigned[start] = len(raw_classes)
            queue = [perms[start]]
            while queue:
                table = queue.pop().ljust(256)
                for g_inv, g_table in pairs:
                    yi = by_perm[g_inv.translate(table).translate(g_table)]
                    if assigned[yi] == -1:
                        assigned[yi] = len(raw_classes)
                        orbit.append(yi)
                        queue.append(perms[yi])
            raw_classes.append(sorted(orbit))
        # An element order is read off the powers of the representative when
        # no order exceeds the degree (n <= degree, as in the regular actions
        # of Z_n and D_n), so at most `degree` translates; otherwise it is the
        # lcm of the cycle lengths, one walk over the points, as an order can
        # be far above the degree (Z_180180 on 49 points)
        classes, powers = [], n <= self.degree
        for members in raw_classes:
            rep = min(map(perms.__getitem__, members))
            if powers:
                table, y, order = rep.ljust(256), rep, 1
                while y != identity:
                    y, order = y.translate(table), order + 1
            else:
                order = lcm(*map(len, cycles(rep)))
            classes.append(ConjugacyClass(tuple(rep), members, n, order))
        classes.sort(key=class_order_key)
        self.classes = tuple(classes)
        self.class_of = [0] * n
        for ci, cl in enumerate(self.classes):
            for ei in cl.members:
                self.class_of[ei] = ci

    @cached_property
    def elements(self):
        """The elements as tuples, in index order."""
        return tuple(map(tuple, self.perms))

    @cached_property
    def inverse_index(self):
        """The index of each element's inverse, in index order."""
        ident, by_perm = self.perms[0], self.by_perm
        return tuple(by_perm[bytes.maketrans(x, ident)[:self.degree]] for x in self.perms)

    @cached_property
    def index(self):
        """The index of each element, keyed by its tuple."""
        return dict(zip(self.elements, range(len(self.perms))))

    @property
    def order(self):
        return len(self.perms)

    def __len__(self):
        return len(self.perms)

    def is_abelian(self):
        return all(c.size == 1 for c in self.classes)

    def mul(self, i, j):
        return self.by_perm[self.perms[j].translate(self.perms[i].ljust(256))]

    def inv(self, i):
        return self.inverse_index[i]

    def power_class_map(self, k):
        """For each class, the index of the class of the k-th power of a
        member, by squaring on the member's bytes."""
        out, identity = [], self.perms[0]
        for c, cl in enumerate(self.classes):
            y, e = identity, k % cl.element_order
            if e == 1:  # x^1 is x
                out.append(c)
                continue
            base = self.perms[cl.members[0]]
            while e:
                table = base.ljust(256)
                if e & 1:
                    y = y.translate(table)
                base, e = base.translate(table), e >> 1
            out.append(self.class_of[self.by_perm[y]])
        return out

    def extend_hom(self, gen_images, mul, one):
        """Extend a map on the generators to the whole group along the BFS
        tree; the caller supplies the target multiplication. Returns the
        image list indexed by element index (not verified to be a
        homomorphism)."""
        if len(gen_images) != len(self.generators):
            raise ValueError(f"need one image per generator: {len(self.generators)}, "
                             f"got {len(gen_images)}")
        images = [None] * len(self.perms)
        images[0] = one
        for i in range(1, len(self.perms)):
            pi, gi = self._parent[i]
            images[i] = mul(images[pi], gen_images[gi])
        return images

    def subgroup(self, h_gens):
        return SubgroupView(self, h_gens)

    def to_json(self):
        return {"degree": self.degree, "generators": [list(p) for p in self.generators]}

    def involution_count(self):
        """Number of elements with g^2 = identity (identity included)."""
        return sum(cl.size for cl in self.classes if cl.element_order <= 2)

    def class_label(self, ci):
        return cycle_notation(self.classes[ci].representative)

    def class_index(self, perm):
        """The index of the class of an element given as a permutation.
        Its bytes are looked up, so a sequence that bytes() refuses (an
        entry that is no int, or one outside 0..255) is no element."""
        perm = tuple(perm)
        try:
            i = self.by_perm.get(bytes(perm))
        except (TypeError, ValueError):
            i = None
        if i is None:
            raise ValueError(f"not an element of the group: {short_repr(list(perm))}")
        return self.class_of[i]


class SubgroupView:
    """A subgroup H of G with the embedding data needed for induction and
    restriction: H's own class structure and the map from H-classes to
    G-classes. G is read only through `class_index`, so G may be class
    data; H is enumerated."""

    def __init__(self, g, h_gens):
        self.supergroup = g
        for gen in h_gens:
            g.class_index(gen)  # a ValueError unless gen is an element of G
        self.group = PermGroup(g.degree, h_gens)
        if g.order % self.group.order:
            raise AssertionError("subgroup order does not divide group order")
        self.index_in_supergroup = g.order // self.group.order
        self.class_to_gclass = tuple(g.class_index(cl.representative) for cl in self.group.classes)


# -- named groups -------------------------------------------------------

def _sn_generators(n):
    """The transposition (0 1) and the n-cycle (0 1 ... n-1), without
    repeats; none for n = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return ()
    return tuple(dict.fromkeys((from_cycles(n, [(0, 1)]), tuple(range(1, n)) + (0,))))


def symmetric_group(n):
    return PermGroup(n, _sn_generators(n))


def alternating_group(n):
    if n < 3:
        return PermGroup(max(n, 1), [])
    three = from_cycles(n, [(0, 1, 2)])
    if n == 3:
        return PermGroup(3, [three])
    if n % 2:
        rot = tuple(list(range(1, n)) + [0])
    else:
        rot = tuple([0] + list(range(2, n)) + [1])
    return PermGroup(n, [three, rot])


def cyclic_group(n):
    if n == 1:
        return PermGroup(1, [])
    return PermGroup(n, [tuple(list(range(1, n)) + [0])])


class SemidirectProduct:
    """G acting on an abelian group A; the product is realized as a
    permutation group by its left regular action on the (a, g) pairs, pair
    (a, g) the point a * |G| + g, with multiplication
    (a1, g1)(a2, g2) = (a1 g1(a2), g1 g2). `act[g]` is the permutation of
    the element indices of A by which g acts, and `pair_of[i]` the pair of
    the product's element i."""

    def __init__(self, g, a, generator_actions):
        if any(cl.size > 1 for cl in a.classes):
            raise ValueError("the normal factor must be abelian")
        self.acting = g
        self.abelian = a
        generator_actions = [tuple(x) for x in generator_actions]
        for auto in generator_actions:
            _check_automorphism(a, auto)
        self.act = g.extend_hom(generator_actions, mul=p_mul, one=p_identity(a.order))
        na, ng = a.order, g.order

        def left_mul(ai, gi):
            # (b, h) -> (ai act_gi(b), gi h), read off one row of A's products
            # and one of G's
            row_a, row_g = [a.mul(ai, b) for b in range(na)], [g.mul(gi, h) for h in range(ng)]
            return tuple(row_a[x] * ng + y for x in self.act[gi] for y in row_g)

        # generator k of a group is its element k + 1
        self.group = PermGroup(na * ng, [left_mul(k, 0) for k in range(1, len(a.generators) + 1)]
                               + [left_mul(0, k) for k in range(1, len(g.generators) + 1)])
        if self.group.order != na * ng:
            raise ValueError("the generator actions do not define an action of the acting group")
        self.pair_of = [divmod(perm[0], ng) for perm in self.group.perms]


def _check_automorphism(a, auto):
    """A bijection f of A with f(xs) = f(x) f(s) for every x and every
    generator s is an automorphism: f(1) = 1, and f(xy) = f(x) f(y) follows
    along a word in the generators for y."""
    if sorted(auto) != list(range(a.order)):
        raise ValueError("action is not a bijection of the abelian group")
    for s in range(1, len(a.generators) + 1):  # generator k is element k + 1
        if any(auto[a.mul(x, s)] != a.mul(auto[x], auto[s]) for x in range(a.order)):
            raise ValueError("action is not an automorphism")


def dihedral_semidirect(n):
    """D_n as Z_2 acting on Z_n by inversion."""
    zn = cyclic_group(n)
    return SemidirectProduct(cyclic_group(2), zn, [zn.inverse_index])


def dihedral_group(n):
    """D_n of order 2n: the group of `dihedral_semidirect(n)`, the left
    regular action on the elements r^a s^e, point 2a + e, generated by the
    rotation r and the reflection s. D_1 is Z_2; D_2 is the Klein
    four-group on 4 points."""
    if n == 2:
        return PermGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)])
    return dihedral_semidirect(n).group


# quaternion axis products, axes 1, i, j, k: (axis, axis) -> (sign, axis)
_Q8_AXES = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def _q8_mul(e1, e2):
    """The product of two of the units 1, -1, i, -i, j, -j, k, -k, which
    are numbered 0..7 as 2 * axis + (1 if negative)."""
    (a1, neg1), (a2, neg2) = divmod(e1, 2), divmod(e2, 2)
    sign, axis = _Q8_AXES[(a1, a2)]
    return 2 * axis + (neg1 ^ neg2 ^ (sign < 0))


def quaternion_group():
    """Q_8 realized by its left regular action on the 8 units
    1, -1, i, -i, j, -j, k, -k (in that point order), generated by
    left multiplication by i and by j."""
    return PermGroup(8, [tuple(_q8_mul(u, x) for x in range(8)) for u in (2, 4)])


# -- S_n as class data ------------------------------------------------

# The largest n whose table `symgrp.sn_table` builds and whose name S<n>
# resolves (S_15 has 176 classes). End to end on a 2-vCPU Xeon VM with
# Python 3.11.7, three fresh processes, `sn table n` / `chartab verify Sn`
# take 0.19-0.26 / 0.46-0.51 s at n = 15, 0.22-0.31 / 0.92-0.93 s at 16
# and 0.26-0.40 / 1.3-1.7 s at 17 (bound raised); 15 keeps both under 1 s.
MAX_TABLE_N = 15


def partitions_of(n, max_part=None):
    """All partitions of n in reverse lexicographic order, as tuples."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return out


class CycleTypeClass:
    """The permutations of cycle type t: n!/z_t of them, each of order
    lcm(t), where z_t = prod_m m^(i_m) i_m! is the centralizer order.
    The representative puts the fixed points first, then the cycles by
    increasing length, each on consecutive points; it is the
    lexicographically least element of the class."""

    __slots__ = ("cycle_type", "size", "centralizer_order", "element_order", "representative")

    def __init__(self, t, group_order):
        self.cycle_type = t
        self.centralizer_order = 1
        for m, im in Counter(t).items():
            self.centralizer_order *= m ** im * factorial(im)
        self.size = group_order // self.centralizer_order
        self.element_order = lcm(*t)
        images = []
        for m in reversed(t):
            start = len(images)
            images += range(start + 1, start + m)
            images.append(start)
        self.representative = tuple(images)


class SymmetricGroup:
    """S_n as class data, for the group contract of `chartab`: one class
    per cycle type, in the canonical order of `class_order_key`, with
    power maps and class indices computed on cycle types. No element is
    listed; a subgroup is enumerated on its own (`subgroup()`)."""

    def __init__(self, n):
        self.generators = _sn_generators(n)
        self.degree = n
        self.order = factorial(n)
        self.classes = tuple(sorted((CycleTypeClass(t, self.order) for t in partitions_of(n)),
                                    key=class_order_key))
        self.type_index = {cl.cycle_type: i for i, cl in enumerate(self.classes)}
        self.exponent = lcm(*range(1, n + 1))

    class_label = PermGroup.class_label
    subgroup = PermGroup.subgroup

    def class_index(self, perm):
        """The index of the class of a permutation of 0..n-1: its cycle type."""
        if len(perm) != self.degree or not is_bijection(perm):
            raise ValueError(f"not a permutation of 0..{self.degree - 1}: {short_repr(list(perm))}")
        return self.type_index[cycle_lengths(perm)]

    def power_class_map(self, k):
        """For each class, the index of the class of its k-th powers: an
        m-cycle to the k-th power splits into gcd(m, k) cycles of length
        m / gcd(m, k)."""
        out = []
        for cl in self.classes:
            t = []
            for m in cl.cycle_type:
                d = gcd(m, k)
                t += [m // d] * d
            out.append(self.type_index[tuple(sorted(t, reverse=True))])
        return out

    def to_json(self):
        """The name S<n>, which group_from_json reads back as class data; the
        generators of S_9 and up do not enumerate within PermGroup's bound."""
        return f"S{self.degree}"


# -- names and JSON ---------------------------------------------------

# The largest n whose names Z<n> and D<n> resolve, and the largest
# `semidirect table dn --n`. Their tables are n x n and about n/2 x n/2
# cyclotomics over enumerated groups: measured end to end on a 2-vCPU
# machine with Python 3.11, `chartab show D<n>` takes 0.3 s at n = 100,
# 0.45 s at n = 150 and 0.9 s at n = 200 (as text and with --json alike),
# and `chartab show Z<n>` 0.2 s at n = 100 and 0.7 s at n = 300. Both
# families stay under 1 s up to 100 with room for a slower machine.
MAX_CYCLIC_DIHEDRAL_N = 100

# S<n>, A<n>, Z<n>, D<n> or Q8, in either case, with an optional underscore
_GROUP_NAME = re.compile(r"([SAZD])_?([0-9]+)|(Q)_?(8)", re.ASCII | re.IGNORECASE)


def parse_group_name(name):
    """The family letter and n of a group name: S<n> for n <= MAX_TABLE_N,
    A<n> for n <= 7, Z<n> and D<n> for n <= MAX_CYCLIC_DIHEDRAL_N, each for
    n >= 1, and Q8. This is the grammar every command and every file reads
    a name by."""
    m = _GROUP_NAME.fullmatch(name.strip())
    if m is None:
        raise ValueError(f"unknown group name: {short_repr(name)}")
    family = (m[1] or m[3]).upper()
    return family, check_name_range(family, parse_integer(m[2] or m[4]))


def check_name_range(family, n):
    """n, if the name <family><n> is in the range parse_group_name takes;
    otherwise the ValueError that name raises."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if family == "S" and n > MAX_TABLE_N:
        raise ValueError(f"symmetric groups only up to S{MAX_TABLE_N} here")
    if family == "A" and n > 7:
        raise ValueError("alternating groups only up to A7 here")
    if family in ("Z", "D") and n > MAX_CYCLIC_DIHEDRAL_N:
        raise ValueError(f"cyclic and dihedral groups only up to {family}{MAX_CYCLIC_DIHEDRAL_N} here")
    return n


_NAMED_GROUPS = {"S": SymmetricGroup, "A": alternating_group, "Z": cyclic_group,
                 "D": dihedral_group, "Q": lambda n: quaternion_group()}


def builtin_group(name):
    """The group a name resolves to: S<n> the class data SymmetricGroup(n),
    the others enumerated."""
    family, n = parse_group_name(name)
    return _NAMED_GROUPS[family](n)


def group_to_json(g):
    return g.to_json()


def group_from_json(obj):
    """A group from its JSON form: {"degree": n, "generators": [...]} or a
    name, which builtin_group resolves."""
    if isinstance(obj, str):
        return builtin_group(obj)
    degree, generators = fields(obj, "group", {"degree": int, "generators": list[list]})
    return PermGroup(degree, [tuple(p) for p in generators])

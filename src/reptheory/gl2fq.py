"""The complete character table of GL_2(F_q) for odd primes q.

Conjugacy classes come in four families (scalar, parabolic = nontrivial
Jordan block, hyperbolic = distinct eigenvalues in F_q, elliptic =
irreducible characteristic polynomial, i.e. eigenvalues in the quadratic
extension), and the irreducible characters in three series on top of the
one-dimensional det-pullbacks: principal (degree q+1), the degree-q
complements W of the one-dimensionals inside the reducible principal
series, and the complementary/discrete series (degree q-1) indexed by
characters of the quadratic extension's multiplicative group modulo the
Frobenius twist.

Multiplicative characters are indexed through discrete logarithms with
respect to fixed deterministic generators, so every value is an exact
root of unity in Q(zeta_(q^2-1)). Each generator is the first candidate
whose powers run through the whole multiplicative group, and the list of
its powers is both the logarithm table and its inverse.
"""

from __future__ import annotations

from .chartab import CharacterTable, verify_rows
from .exact import Cyclotomic, ValuePool, cyc, cyclotomic_to_json, root_powers, zero, zeta
from .linalg import short_repr


def is_odd_prime(q):
    if q < 3 or q % 2 == 0:
        return False
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


def _check_q(q):
    # the range first: trial division of a huge q would not end
    if q > 31:
        raise ValueError("q is limited to 31 (discrete logarithm tables)")
    if not is_odd_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")


def _cyclic_powers(candidates, mul, one, order):
    """The powers one, g, g^2, ..., g^(order - 1) of the first candidate g
    of multiplicative order `order`. Each candidate's powers are walked
    until they return to one, or for at most `order` steps: the list is
    both the discrete logarithm table of g (k -> g^k) and its inverse."""
    for g in candidates:
        powers, x = [one], g
        while x != one and len(powers) < order:
            powers.append(x)
            x = mul(x, g)
        if x == one and len(powers) == order:
            return powers
    raise AssertionError(f"no element of order {order} found")


def smallest_nonresidue(q):
    residues = {x * x % q for x in range(1, q)}
    for e in range(2, q):
        if e not in residues:
            return e
    raise AssertionError("no quadratic non-residue found")


class GL2Class:
    __slots__ = ("family", "params", "size", "centralizer_order", "rep")

    def __init__(self, family, params, size, centralizer_order, rep):
        self.family = family
        self.params = params
        self.size = size
        self.centralizer_order = centralizer_order
        self.rep = rep  # 2x2 integer matrix mod q

    def __repr__(self):
        return f"GL2Class({self.family}, {self.params}, size={self.size})"


class GL2Group:
    """GL_2(F_q) as class data, for the group contract of `chartab`: the
    q^2 - 1 conjugacy classes, the order and the class labels, together
    with the arithmetic and discrete logarithms of F_q and F_q(sqrt(eps))
    the character values are computed from.

    The classes come in a deterministic order: scalars, parabolics,
    hyperbolics, elliptics, each family ordered by its parameters. The
    identity class comes first.

    A class is fixed by its two eigenvalues in F_q(sqrt(eps)) and by
    whether it is a Jordan block: xI and [[x, 1], [0, x]] (x twice),
    diag(x, y) (x and y) and [[x, eps y], [y, x]] (u = x + y sqrt(eps)
    and its conjugate u^q). Its key is the sorted pair of the
    eigenvalues' discrete logarithms to gen2, and the Jordan flag; both
    class_index and power_class_map answer from it."""

    def __init__(self, q):
        _check_q(q)
        self.q = q
        self.eps = smallest_nonresidue(q)
        powers_q = _cyclic_powers(range(2, q), lambda x, y: x * y % q, 1, q - 1)
        self.dlog_q = {x: k for k, x in enumerate(powers_q)}
        # the nonzero a + b sqrt(eps) of F_q(sqrt(eps)) as pairs (a, b), in
        # the order (0, 1), (0, 2), ..., (1, 0), (1, 1), ...
        self.powers_q2 = _cyclic_powers(((a, b) for a in range(q) for b in range(q) if a or b),
                                        self.ext_mul, (1, 0), q * q - 1)
        self.gen2 = self.powers_q2[1]
        self.dlog_q2 = {u: k for k, u in enumerate(self.powers_q2)}
        self.order = (q * q - 1) * (q * q - q)
        self.classes = []

        def add(family, params, size, rep):
            self.classes.append(GL2Class(family, params, size, self.order // size, rep))

        for x in range(1, q):
            add("scalar", (x,), 1, ((x, 0), (0, x)))
        for x in range(1, q):
            add("parabolic", (x,), q * q - 1, ((x, 1), (0, x)))
        for x in range(1, q):
            for y in range(x + 1, q):
                add("hyperbolic", (x, y), q * q + q, ((x, 0), (0, y)))
        for x in range(q):
            for y in range(1, (q - 1) // 2 + 1):
                add("elliptic", (x, y), q * q - q, ((x, self.eps * y % q), (y, x)))
        if len(self.classes) != q * q - 1 or sum(c.size for c in self.classes) != self.order:
            raise AssertionError(f"GL2(F_{q}) classes do not partition the group")
        self._keys = [self._key(cl.rep) for cl in self.classes]
        self._index = {key: i for i, key in enumerate(self._keys)}

    def class_label(self, c):
        cl = self.classes[c]
        return f"{cl.family[:4]}({','.join(str(p) for p in cl.params)})"

    def class_index(self, matrix):
        """The index of the class of an invertible 2x2 matrix over F_q,
        given as two rows of integers in 0..q-1, from its eigenvalue key.
        Anything else is a ValueError."""
        q = self.q
        if (type(matrix) not in (list, tuple) or len(matrix) != 2
                or any(type(row) not in (list, tuple) or len(row) != 2
                       or any(type(x) is not int or not 0 <= x < q for x in row) for row in matrix)):
            raise ValueError(f"not a 2x2 matrix over F_{q}: {short_repr(matrix)}")
        return self._index[self._key(matrix)]

    def _key(self, matrix):
        """The class key of a matrix of trace t and determinant d: the
        sorted logarithms of its eigenvalues (t +- s)/2, where s^2 =
        t^2 - 4d in F_q(sqrt(eps)) (every element of F_q is a square there,
        and its logarithm, a multiple of q + 1, halves exactly), and
        whether it is a Jordan block: not scalar, with the one eigenvalue
        t/2."""
        (a, b), (c, d) = matrix
        q, half = self.q, (self.q + 1) // 2
        t, det = (a + d) % q, (a * d - b * c) % q
        if det == 0:
            raise ValueError(f"not an invertible matrix: {short_repr(matrix)}")
        disc = (t * t - 4 * det) % q
        s, r = self.powers_q2[self.dlog_q2[disc, 0] // 2] if disc else (0, 0)
        x = self.dlog_q2[(t + s) * half % q, r * half % q]
        y = self.dlog_q2[(t - s) * half % q, -r * half % q]
        return min(x, y), max(x, y), disc == 0 and not (b == c == 0 and a == d)

    def power_class_map(self, k):
        """For each class, the index of the class of its k-th powers: the
        eigenvalues' logarithms times k, and a Jordan block stays one
        exactly when q does not divide k, as (x + N)^k = x^k + k x^(k-1) N
        for N^2 = 0."""
        n, stays = self.q * self.q - 1, k % self.q != 0
        return [self._index[(*sorted((x * k % n, y * k % n)), jordan and stays)]
                for x, y, jordan in self._keys]

    def ext_mul(self, u, v):
        a, b = u
        c, d = v
        q, e = self.q, self.eps
        return ((a * c + e * b * d) % q, (a * d + b * c) % q)

    def norm(self, u):
        """Norm to F_q of a + b sqrt(eps): a^2 - eps b^2."""
        a, b = u
        return (a * a - self.eps * b * b) % self.q


def gl2_classes(q):
    """All q^2 - 1 conjugacy classes, in the order of `GL2Group`."""
    return GL2Group(q).classes


def _complementary_parameters(q):
    """Canonical indices t of characters of the quadratic extension with
    nu^q != nu, one per Frobenius pair {t, tq}."""
    n = q * q - 1
    out = []
    for t in range(1, n):
        if t % (q + 1) == 0:
            continue  # fixed by the Frobenius twist: restriction of F_q line
        if t <= (t * q) % n:
            out.append(t)
    if len(out) != q * (q - 1) // 2:
        raise AssertionError(f"wrong number of complementary parameters for q = {q}")
    return out


def gl2_table(q):
    """The full character table: q-1 one-dimensional rows, (q-1)(q-2)/2
    principal rows of degree q+1, q-1 rows of degree q, and q(q-1)/2
    complementary rows of degree q-1.

    Every value is c * zeta_n^a or c * (zeta_n^a + zeta_n^b), n = q - 1 or
    q^2 - 1, with a and b sums of multiples of discrete logarithms. The
    table is built straight into a value pool and an index
    (CharacterTable.from_pool): each entry's pool position is looked up by
    its exponent mod n, in one lazily filled table per (n, c), or by its
    exponent pair, and each value is made and interned once, when its key
    is first met: the 28224 entries of GL2(F_13) take 195 distinct values.
    A value is c times the sum of its roots' coordinates, read off one
    table of the powers of zeta_n per order (exact.root_powers), and
    normalised once. The rows are filled row by row, class by class, so
    the pool is in the order its values are first met.

    Each pool value at its order n also keeps the root form it was made
    from, [(a, c)] or [(a, c), (b, c)], which the table's Gram operand
    reads instead of searching the value's coordinates for it."""
    group = GL2Group(q)
    n1, n2 = q - 1, q * q - 1
    dlog, dlog2 = group.dlog_q, group.dlog_q2
    pool = ValuePool()
    powers = {n1: root_powers(n1), n2: root_powers(n2)}
    # (slots, n, the root form of a key's value at order n), per lookup table
    formed = []

    def root_slots(n, c, exponents, twin=None):
        """Pool positions by a key whose value is c times the sum of
        zeta_n^e over e in exponents(key)."""
        p = powers[n]

        def make(key):
            a, *b = exponents(key)
            coords = map(int.__add__, p[a], p[b[0]]) if b else p[a]
            return Cyclotomic(n, [c * x for x in coords], 1)
        table = pool.slots(make, twin)
        formed.append((table, n, lambda key: [(e, c) for e in exponents(key)]))
        return table

    def roots(n, c):
        return root_slots(n, c, lambda e: (e,))

    one, minus, zeros = roots(n1, 1), roots(n1, -1), pool.slots(lambda _: zero())
    # zeta_(q-1)^a + zeta_(q-1)^b by a * (q - 1) + b, made once for both orders
    pairs = root_slots(n1, 1, lambda key: divmod(key, n1), lambda key: key % n1 * n1 + key // n1)
    # -(nu(u) + nu(u)^q) by the exponent a of nu(u) = zeta_(q^2-1)^a,
    # made once for a and its Frobenius twin qa
    frobenius = root_slots(n2, -1, lambda a: (a, a * q % n2), lambda a: a * q % n2)
    # the classes come family by family (GL2Group); per family the
    # discrete logarithms of each class's determinant and of its
    # parameters: x in F_q* and in F_q(sqrt(eps))* (scalar, parabolic), x
    # and y (hyperbolic), or the eigenvalue x + y sqrt(eps) (elliptic)
    params = {}
    for cl in group.classes:
        params.setdefault(cl.family, []).append(cl.params)
    scalar, parabolic = ([(dlog[x * x % q], dlog[x], dlog2[(x, 0)]) for (x,) in params[f]]
                         for f in ("scalar", "parabolic"))
    hyperbolic = [(dlog[x * y % q], dlog[x], dlog[y]) for x, y in params["hyperbolic"]]
    elliptic = [(dlog[group.norm(u)], dlog2[u]) for u in params["elliptic"]]
    dets = [cl[0] for family in (scalar, parabolic, hyperbolic, elliptic) for cl in family]

    names, degrees, index = [], [], []

    def row(name, degree, indices):
        names.append(name)
        degrees.append(degree)
        index.append(indices)

    # one-dimensional series: xi(det g)
    for k in range(q - 1):
        row(f"xi[{k}]", 1, [one[k * d % n1] for d in dets])
    # principal series, lambda1 != lambda2 up to swap
    principal_scalar = roots(n1, q + 1)
    for k1 in range(q - 1):
        for k2 in range(k1 + 1, q - 1):
            s = k1 + k2
            row(f"V[{k1},{k2}]", q + 1,
                [principal_scalar[s * x % n1] for _, x, _ in scalar]
                + [one[s * x % n1] for _, x, _ in parabolic]
                + [pairs[(k1 * x + k2 * y) % n1 * n1 + (k1 * y + k2 * x) % n1]
                   for _, x, y in hyperbolic]
                + [zeros[0]] * len(elliptic))
    # degree-q series: W_mu = Ind_B(mu,mu) - (mu o det), that is q, 0, 1
    # and -1 on the four families, times mu(det g)
    w_scalar = roots(n1, q)
    for k in range(q - 1):
        row(f"W[{k}]", q,
            [w_scalar[k * d % n1] for d, _, _ in scalar]
            + [zeros[0]] * len(parabolic)
            + [one[k * d % n1] for d, _, _ in hyperbolic]
            + [minus[k * d % n1] for d, _ in elliptic])
    # complementary series
    x_scalar, x_parabolic = roots(n2, q - 1), roots(n2, -1)
    for t in _complementary_parameters(q):
        row(f"X[{t}]", q - 1,
            [x_scalar[t * x % n2] for _, _, x in scalar]
            + [x_parabolic[t * x % n2] for _, _, x in parabolic]
            + [zeros[0]] * len(hyperbolic)
            + [frobenius[t * u % n2] for _, u in elliptic])
    if len(index) != q * q - 1:
        raise AssertionError(f"GL2(F_{q}) table has {len(index)} rows, not q^2 - 1")
    # a value that collapsed to a rational is read from its one coordinate
    values, sparse = pool.values, [None] * len(pool.values)
    for table, n, form in formed:
        for key, x in table.items():
            if sparse[x] is None and values[x].order == n:
                sparse[x] = form(key)
    return CharacterTable.from_pool(group, names, degrees, values, index, name=f"GL2(F_{q})",
                                    sparse=sparse)


# row orthonormality, the sum of squares and the row count: the row half
# of chartab.verify_table
gl2_verify = verify_rows


def complementary_virtual_values(group, t):
    """The virtual character W_triv (x) V_(alpha,triv) - V_(alpha,triv)
    - Ind_K(nu) recomputed from its three constituents, where alpha is
    the restriction of nu = (index t) to the scalars. Its norm must be 1
    and its degree q-1: that is the complementary-series existence
    argument, rerun symbolically."""
    q = group.q
    n2 = q * q - 1

    def nu(u):
        return zeta(n2, t * group.dlog_q2[u])

    def alpha(x):
        return nu((x % q, 0))

    values = []
    for cl in group.classes:
        # W_triv on the four families: q, 0, 1, -1
        # V_(alpha,triv): (q+1)alpha(x), alpha(x), alpha(x)+alpha(y), 0
        # Ind_K(nu): q(q-1)nu(x), 0, 0, nu(u)+nu^q(u)
        if cl.family == "scalar":
            x = cl.params[0]
            v_al = (q + 1) * alpha(x)
            values.append(cyc(q) * v_al - v_al - q * (q - 1) * nu((x, 0)))
        elif cl.family == "parabolic":
            values.append(-alpha(cl.params[0]))
        elif cl.family == "hyperbolic":
            values.append(zero())
        else:
            u = cl.params
            values.append(-(nu(u) + zeta(n2, t * q * group.dlog_q2[u])))
    return values


_SERIES = {"xi": "one-dimensional", "V": "principal", "W": "cuspidal-W", "X": "complementary"}


def row_series(name):
    """The series of the row of gl2_table named name, from its prefix, or
    None for a name gl2_table gives no row."""
    return _SERIES.get(name.split("[")[0])


def gl2_table_to_json(table):
    """The table with its class parameters and representatives, in its
    display order; each row's series is read from its name prefix. Each
    value of the pool is converted once. chartab.table_from_json reads it
    back."""
    values = [cyclotomic_to_json(v) for v in table.pool]
    display = table.display_classes
    return {
        "q": table.group.q,
        "group_order": table.group.order,
        "classes": [{"family": c.family, "params": list(c.params), "size": c.size,
                     "rep": [list(r) for r in c.rep]} for c in map(table.classes.__getitem__, display)],
        "rows": [{"name": r.name, "series": row_series(r.name), "degree": r.degree,
                  "values": [values[index[c]] for c in display]}
                 for r, index in zip(table.rows, table.index)],
    }

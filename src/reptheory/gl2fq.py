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
root of unity in Q(zeta_(q^2-1)).
"""

from __future__ import annotations

from fractions import Fraction

from .exact import cyc, cyclotomic_to_json, hermitian_gram, zero, zeta


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
    if not is_odd_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    if q > 31:
        raise ValueError("q is limited to 31 (discrete logarithm tables)")


def smallest_primitive_root(q):
    for g in range(2, q):
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = x * g % q
            seen.add(x)
        if len(seen) == q - 1:
            return g
    raise AssertionError("no primitive root found")


def smallest_nonresidue(q):
    residues = {x * x % q for x in range(1, q)}
    for e in range(2, q):
        if e not in residues:
            return e
    raise AssertionError("no quadratic non-residue found")


class FqData:
    """Arithmetic and discrete logarithms for F_q and F_q(sqrt(eps))."""

    def __init__(self, q):
        _check_q(q)
        self.q = q
        self.eps = smallest_nonresidue(q)
        self.g = smallest_primitive_root(q)
        self.dlog_q = {}
        x = 1
        for k in range(q - 1):
            self.dlog_q[x] = k
            x = x * self.g % q
        self.gen2 = self._find_ext_generator()
        self.dlog_q2 = {}
        x = (1, 0)
        for k in range(q * q - 1):
            self.dlog_q2[x] = k
            x = self.ext_mul(x, self.gen2)

    def ext_mul(self, u, v):
        a, b = u
        c, d = v
        q, e = self.q, self.eps
        return ((a * c + e * b * d) % q, (a * d + b * c) % q)

    def _find_ext_generator(self):
        n = self.q * self.q - 1
        prime_divs = []
        m = n
        p = 2
        while p * p <= m:
            if m % p == 0:
                prime_divs.append(p)
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            prime_divs.append(m)

        def power(u, k):
            result = (1, 0)
            base = u
            while k:
                if k & 1:
                    result = self.ext_mul(result, base)
                base = self.ext_mul(base, base)
                k >>= 1
            return result

        for a in range(self.q):
            for b in range(self.q):
                u = (a, b)
                if u == (0, 0):
                    continue
                if all(power(u, n // p) != (1, 0) for p in prime_divs):
                    return u
        raise AssertionError("no generator of the quadratic extension found")

    def norm(self, u):
        """Norm to F_q of a + b sqrt(eps): a^2 - eps b^2."""
        a, b = u
        return (a * a - self.eps * b * b) % self.q


class GL2Class:
    __slots__ = ("family", "params", "size", "rep")

    def __init__(self, family, params, size, rep):
        self.family = family
        self.params = params
        self.size = size
        self.rep = rep  # 2x2 integer matrix mod q

    def __repr__(self):
        return f"GL2Class({self.family}, {self.params}, size={self.size})"


def gl2_classes(q):
    """All q^2 - 1 conjugacy classes in a deterministic order: scalars,
    parabolics, hyperbolics, elliptics, each family ordered by its
    parameters. The identity class comes first."""
    _check_q(q)
    data = FqData(q)
    classes = []
    for x in range(1, q):
        classes.append(GL2Class("scalar", (x,), 1, ((x, 0), (0, x))))
    for x in range(1, q):
        classes.append(GL2Class("parabolic", (x,), q * q - 1, ((x, 1), (0, x))))
    for x in range(1, q):
        for y in range(x + 1, q):
            classes.append(GL2Class("hyperbolic", (x, y), q * q + q, ((x, 0), (0, y))))
    for x in range(q):
        for y in range(1, (q - 1) // 2 + 1):
            classes.append(GL2Class("elliptic", (x, y), q * q - q,
                                    ((x, data.eps * y % q), (y, x))))
    order = (q * q - 1) * (q * q - q)
    assert len(classes) == q * q - 1
    assert sum(c.size for c in classes) == order
    return classes


class GL2Row:
    __slots__ = ("name", "series", "degree", "values")

    def __init__(self, name, series, degree, values):
        self.name = name
        self.series = series
        self.degree = degree
        self.values = tuple(values)

    def __repr__(self):
        return f"GL2Row({self.name}, degree={self.degree})"


class GL2Table:
    def __init__(self, q, classes, rows, data):
        self.q = q
        self.classes = classes
        self.rows = rows
        self.data = data
        self.order = (q * q - 1) * (q * q - q)

    def inner_product(self, v1, v2):
        sizes = [cl.size for cl in self.classes]
        return hermitian_gram([v1], [v2], [(0, 0)], sizes, self.order)[0]


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
    assert len(out) == q * (q - 1) // 2
    return out


def gl2_table(q):
    """The full character table: q-1 one-dimensional rows, (q-1)(q-2)/2
    principal rows of degree q+1, q-1 rows of degree q, and q(q-1)/2
    complementary rows of degree q-1."""
    _check_q(q)
    data = FqData(q)
    classes = gl2_classes(q)
    n1 = q - 1
    n2 = q * q - 1

    def chi_small(k, x):
        return zeta(n1, k * data.dlog_q[x % q])

    def chi_big(t, u):
        return zeta(n2, t * data.dlog_q2[u])

    rows = []
    dets = []
    for cl in classes:
        if cl.family in ("scalar", "parabolic"):
            dets.append(cl.params[0] ** 2 % q)
        elif cl.family == "hyperbolic":
            dets.append(cl.params[0] * cl.params[1] % q)
        else:
            dets.append(data.norm(cl.params))
    # one-dimensional series: xi(det g)
    for k in range(q - 1):
        values = [chi_small(k, d) for d in dets]
        rows.append(GL2Row(f"xi[{k}]", "one-dimensional", 1, values))
    # principal series, lambda1 != lambda2 up to swap
    for k1 in range(q - 1):
        for k2 in range(k1 + 1, q - 1):
            values = []
            for cl in classes:
                if cl.family == "scalar":
                    x = cl.params[0]
                    values.append((q + 1) * chi_small(k1 + k2, x))
                elif cl.family == "parabolic":
                    x = cl.params[0]
                    values.append(chi_small(k1 + k2, x))
                elif cl.family == "hyperbolic":
                    x, y = cl.params
                    values.append(chi_small(k1, x) * chi_small(k2, y)
                                  + chi_small(k1, y) * chi_small(k2, x))
                else:
                    values.append(zero())
            rows.append(GL2Row(f"V[{k1},{k2}]", "principal", q + 1, values))
    # degree-q series: W_mu = Ind_B(mu,mu) - (mu o det)
    for k in range(q - 1):
        values = []
        for cl, d in zip(classes, dets):
            if cl.family == "scalar":
                values.append(q * chi_small(k, d))
            elif cl.family == "parabolic":
                values.append(zero())
            elif cl.family == "hyperbolic":
                values.append(chi_small(k, d))
            else:
                values.append(-chi_small(k, d))
        rows.append(GL2Row(f"W[{k}]", "cuspidal-W", q, values))
    # complementary series
    for t in _complementary_parameters(q):
        values = []
        for cl in classes:
            if cl.family == "scalar":
                x = cl.params[0]
                values.append((q - 1) * chi_big(t, (x, 0)))
            elif cl.family == "parabolic":
                x = cl.params[0]
                values.append(-chi_big(t, (x, 0)))
            elif cl.family == "hyperbolic":
                values.append(zero())
            else:
                u = cl.params
                values.append(-chi_big(t, u) - chi_big(t * q % n2, u))
        rows.append(GL2Row(f"X[{t}]", "complementary", q - 1, values))
    assert len(rows) == q * q - 1
    return GL2Table(q, classes, rows, data)


def gl2_verify(table):
    """Row orthonormality under the class-weighted Hermitian product, the
    sum-of-squares count, and the row/class census."""
    from .chartab import VerifyReport, check_orthonormality
    rep = VerifyReport()
    rows = table.rows
    check_orthonormality(rep, "orthonormality", [r.name for r in rows], [r.values for r in rows],
                         [cl.size for cl in table.classes], table.order)
    ssq = sum(r.degree ** 2 for r in rows)
    rep.add("sum of squares", ssq == table.order, f"{ssq} vs {table.order}")
    rep.add("row count equals class count",
            len(rows) == len(table.classes),
            f"{len(rows)} vs {len(table.classes)}")
    return rep


def complementary_virtual_values(q, t, data=None, classes=None):
    """The virtual character W_triv (x) V_(alpha,triv) - V_(alpha,triv)
    - Ind_K(nu) recomputed from its three constituents, where alpha is
    the restriction of nu = (index t) to the scalars. Its norm must be 1
    and its degree q-1: that is the complementary-series existence
    argument, rerun symbolically."""
    data = data or FqData(q)
    classes = classes or gl2_classes(q)
    n2 = q * q - 1

    def nu(u):
        return zeta(n2, t * data.dlog_q2[u])

    def alpha(x):
        return nu((x % q, 0))

    values = []
    for cl in classes:
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
            values.append(-(nu(u) + zeta(n2, t * q * data.dlog_q2[u])))
    return values


def gl2_table_to_json(table):
    return {
        "q": table.q,
        "group_order": table.order,
        "classes": [{"family": c.family, "params": list(c.params), "size": c.size,
                     "rep": [list(r) for r in c.rep]} for c in table.classes],
        "rows": [{"name": r.name, "series": r.series, "degree": r.degree,
                  "values": [cyclotomic_to_json(v) for v in r.values]}
                 for r in table.rows],
    }

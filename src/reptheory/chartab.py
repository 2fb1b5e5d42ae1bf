"""Class functions and character tables.

Values are exact cyclotomics throughout. A ClassFunction stores one value
per conjugacy class in the group's canonical class order; a
CharacterTable additionally carries a display layout (column order and
labels) so the classical tables can be printed exactly as usually
typeset, with a representative row and a class-size row on top.

The group contract. ClassFunction, CharacterTable, inner_product,
decompose, tensor_multiplicities, verify_table, frobenius_schur and
render_table read only this much of a group:

- `classes`: the conjugacy classes in canonical order, identity first;
  each class has `size` and `centralizer_order`;
- `order`: the group order;
- `class_label(c)`: the display label of class index c;
- `power_class_map(k)`: for each class, the index of the class holding
  the k-th powers of its elements.

A `permgroup.PermGroup` provides it, and so does the class data of
`permgroup.SymmetricGroup` and `gl2fq.GL2Group`, which list no elements.
Permutation characters and the JSON format also read each class's
`representative`, a permutation, and transfer_table its
`element_order`; PermGroup and SymmetricGroup classes carry both.
Wherever an element is given as a permutation, its class comes from the
group's `class_index(perm)`: in the JSON reader, the classical tables and
the subgroup embedding `subgroup(generators)` that induction and
restriction use. Only the subgroup is enumerated. A GL2 table file gives
each class by a matrix, which `GL2Group.class_index` places.

Abelian duals and semidirect tables work on characters of an abelian
group as lists of integer exponents mod its exponent e, one per element,
and turn them into zeta_e powers only as table values, each made once
for CharacterTable.from_pool. The product itself, `SemidirectProduct`,
and `dihedral_semidirect` live in permgroup beside the named groups;
chartab names them too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter, mul

from .exact import (Cyclotomic, FieldKeys, GramRows, ValuePool, _fold, cyc, cyclotomic_from_json,
                    cyclotomic_to_json, euler_phi, hermitian_gram, one, unit_generators, zero,
                    zeta)
from .linalg import InputError, fields, short_repr
from .permgroup import (PermGroup, SemidirectProduct, alternating_group, cyclic_group,
                        dihedral_semidirect, from_cycles, group_from_json, group_to_json,
                        p_identity, p_mul, p_order, parse_group_name, quaternion_group,
                        symmetric_group)

class ClassFunction:
    __slots__ = ("group", "values")

    def __init__(self, group, values):
        values = tuple(values)
        if set(map(type, values)) != {Cyclotomic}:
            values = tuple(map(Cyclotomic.coerce, values))
        if len(values) != len(group.classes):
            raise ValueError("one value per conjugacy class required")
        self.group = group
        self.values = values

    @classmethod
    def _of(cls, group, values):
        """The class function of values, a tuple of Cyclotomics, one per
        class, taken as it is."""
        f = cls.__new__(cls)
        f.group, f.values = group, values
        return f

    def __eq__(self, other):
        return (isinstance(other, ClassFunction) and self.group is other.group
                and self.values == other.values)

    def __hash__(self):
        return hash(self.values)

    def __add__(self, other):
        self._same_group(other)
        return ClassFunction(self.group, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._same_group(other)
        return ClassFunction(self.group, [a - b for a, b in zip(self.values, other.values)])

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            self._same_group(other)
            return ClassFunction(self.group, [a * b for a, b in zip(self.values, other.values)])
        return ClassFunction(self.group, [a * cyc(other) for a in self.values])

    __rmul__ = __mul__

    def _same_group(self, other):
        if self.group is not other.group:
            raise ValueError("class functions live on different groups")

    def at_identity(self):
        return self.values[0]

    def conjugate(self):
        return ClassFunction(self.group, [v.conjugate() for v in self.values])

    def __repr__(self):
        return f"ClassFunction({[str(v) for v in self.values]})"


class TableRow:
    __slots__ = ("name", "degree", "function")

    def __init__(self, name, degree, function):
        self.name = name
        self.degree = degree
        self.function = function

    @property
    def values(self):
        return self.function.values

    def __repr__(self):
        return f"TableRow({self.name}, degree={self.degree})"


class CharacterTable:
    """A tuple of (purported) irreducible characters plus class metadata.

    A table holds its values once: `pool` is its distinct values, in the
    order first met reading the rows row by row, and `index[i][c]` the pool
    index of row i at class c. `gram_rows` is the rows as an operand of
    `exact.hermitian_gram` on that pool and index, and `gram_columns` the
    columns over the same pool. Both keep the rows they convert, so every
    product with the table converts its values once.

    There are two ways in. CharacterTable(group, rows), which builtin_table
    and transfer_table take, interns the rows' values, made per entry,
    through `exact.GramRows`. A builder that makes each distinct value
    once (the abelian dual, semidirect, S_n, GL2 and JSON tables) calls
    CharacterTable.from_pool with its pool and index instead, and nothing
    is interned again. `class_sizes` is the weights of every product with
    the table, one tuple, so that a product neither rebuilds, copies nor
    hashes them."""

    def __init__(self, group, rows, name="", display_classes=None, class_labels=None):
        rows = tuple(rows)
        self._hold(group, rows, GramRows(row.values for row in rows), name, display_classes,
                   class_labels)

    @classmethod
    def from_pool(cls, group, names, degrees, pool, index, name="", display_classes=None,
                  class_labels=None, sparse=None):
        """The table whose row i is named names[i], of degree degrees[i],
        and takes the value pool[index[i][c]] at class c. The pool holds
        Cyclotomics, each distinct value once in the order the index first
        meets it; each row's values are read off it, so rows and index
        agree, and the pool's types are checked once, not per entry.

        A builder that made each value from roots of unity (GL2) passes
        their forms as `sparse`, one entry per pool value: [(e, k), ...]
        with the value the sum of k * zeta_m^e over its den at its order m,
        or None. The table's operand reads a value's form from there and
        searches (exact._short_roots) only values that come with none."""
        if any(type(v) is not Cyclotomic for v in pool):
            raise TypeError("a table's pool holds Cyclotomic values")
        k, read = len(group.classes), pool.__getitem__
        rows = []
        for row_name, degree, indices in zip(names, degrees, index, strict=True):
            if len(indices) != k:
                raise ValueError("one value per conjugacy class required")
            rows.append(TableRow(row_name, degree,
                                 ClassFunction._of(group, tuple(map(read, indices)))))
        table = cls.__new__(cls)
        table._hold(group, tuple(rows), GramRows.over(pool, index, sparse), name,
                    display_classes, class_labels)
        return table

    def _hold(self, group, rows, gram_rows, name, display_classes, class_labels):
        self.group = group
        self.rows = rows
        self.name = name
        k = len(group.classes)
        self.display_classes = tuple(display_classes) if display_classes else tuple(range(k))
        self._class_labels = tuple(class_labels) if class_labels else None
        for row in self.rows:
            if row.function.at_identity() != row.degree:
                raise ValueError(f"row {row.name}: identity value differs from stated degree")
        self.class_sizes = tuple(class_sizes(group))
        self.gram_rows = gram_rows
        self.pool = gram_rows.pool
        self.index = gram_rows.index
        self._gram_columns = None
        self._row_of = None

    @property
    def class_labels(self):
        """The display classes' labels: the builder's, or else the group's,
        formatted on first read."""
        if self._class_labels is None:
            self._class_labels = tuple(map(self.group.class_label, self.display_classes))
        return self._class_labels

    @property
    def gram_columns(self):
        if self._gram_columns is None:
            self._gram_columns = self.gram_rows.transposed(len(self.group.classes))
        return self._gram_columns

    @property
    def classes(self):
        return self.group.classes

    @property
    def complete(self):
        return len(self.rows) == len(self.group.classes)

    def inner_product(self, v1, v2):
        """(v1, v2) for two value sequences in the group's class order. A
        row's own value tuple is read as that row of the table's operand,
        which converts only the rows it is asked for, each once, at every
        order; any other sequence is interned for the call."""
        (a, i), (b, j) = self._operand(v1), self._operand(v2)
        return hermitian_gram(a, b, [(i, j)], self.class_sizes, self.group.order)[0]

    def _operand(self, values):
        # the table holds its rows' value tuples, so no other live object
        # shares their ids
        if self._row_of is None:
            self._row_of = {id(row.values): i for i, row in enumerate(self.rows)}
        i = self._row_of.get(id(values))
        return ([values], 0) if i is None else (self.gram_rows, i)

    def row_by_name(self, name):
        return self.rows[self.row_index(name)]

    def row_index(self, name):
        for i, row in enumerate(self.rows):
            if row.name == name:
                return i
        raise ValueError(f"no row {name!r} in the {self.name or 'unnamed'} table")

    def __repr__(self):
        return f"CharacterTable({self.name or 'table'}, {len(self.rows)} rows)"


def regular_character(group):
    vals = [zero()] * len(group.classes)
    vals[0] = cyc(group.order)
    return ClassFunction(group, vals)


def permutation_character(group):
    """Fixed-point count of the natural action on 0..degree-1."""
    vals = []
    for cl in group.classes:
        rep = cl.representative
        vals.append(cyc(sum(1 for i, x in enumerate(rep) if x == i)))
    return ClassFunction(group, vals)


def inner_product(f1, f2):
    """(f1, f2) = |G|^-1 sum_g f1(g) conj(f2(g)), summed classwise."""
    f1._same_group(f2)
    g = f1.group
    return hermitian_gram([f1.values], [f2.values], [(0, 0)], class_sizes(g), g.order)[0]


def class_sizes(group):
    """The class sizes, in the group's class order: the weights of (f1, f2)."""
    return [cl.size for cl in group.classes]


def decompose(f, table):
    """Multiplicities (f, chi_i) against every row of a complete table. The
    reconstruction sum_i m_i chi_i = f is checked exactly, by the same
    kernel on the table's columns; a table that fails it is not
    orthonormal (ValueError)."""
    _check_decomposable(table, f.group)
    g = f.group
    a, i = table._operand(f.values)
    mults = hermitian_gram(a, table.gram_rows, [(i, k) for k in range(len(table.rows))],
                           table.class_sizes, g.order)
    # sum_i chi_i(c) m_i, one entry per class c: the columns against the
    # conjugated multiplicities
    if hermitian_gram(table.gram_columns, [[m.conjugate() for m in mults]],
                      [(c, 0) for c in range(len(g.classes))]) != list(f.values):
        raise ValueError("reconstruction failed: table is not orthonormal")
    return mults


def _check_decomposable(table, group):
    if not table.complete:
        raise ValueError("cannot decompose against an incomplete table")
    if group is not table.group:
        raise ValueError("class functions live on different groups")


def _rational_sums(table, f, den):
    """(sums, scale), ints in lowest terms with (f, chi_i) = sums[i] /
    scale, for the class function of value f[c] / den at class c, f a list
    of ints, and a complete table whose operand has order 1. Its rows and
    columns are the int lists over their den D that its forms keep
    (GramRows.rows; a rational row is its own conjugate), and f takes the
    class sizes, so that rows and reduced sums stay small ints, which
    multiply faster than big ones. The reconstruction
    sum_i (sums[i] / scale) (column c)_i / D = f[c] / den is checked at
    every class c with the denominators cleared (ValueError).

    This is an int dot product beside hermitian_gram's own n == 1 branch,
    kept apart because hermitian_gram's operands are pools of Cyclotomics:
    handing it the product would intern it again."""
    k, d = len(f), table.gram_rows.den
    rows = table.gram_rows.rows(1, True, None, range(k))
    weighted = list(map(mul, f, table.class_sizes))
    sums = [sum(map(mul, weighted, rows[i])) for i in range(k)]
    scale = den * d * table.group.order
    g = gcd(scale, *sums)
    scale, sums = scale // g, [s // g for s in sums]
    columns = table.gram_columns.rows(1, False, None, range(k))
    for c in range(k):
        if den * sum(map(mul, sums, columns[c])) != f[c] * scale * d:
            raise ValueError("reconstruction failed: table is not orthonormal")
    return sums, scale


def integer_multiplicities(mults):
    """The multiplicity list as nonnegative ints, or None if any entry is
    not a nonnegative rational integer (virtual / non-character input)."""
    out = []
    for m in mults:
        if not m.is_integer() or m.num[0] < 0:
            return None
        out.append(m.num[0])
    return out


def tensor_multiplicities(table, i, j):
    """Decomposition of row_i (x) row_j; multiplicities are guaranteed
    nonnegative integers for a genuine character table (ValueError
    otherwise, after decompose's own checks). On a table whose operand has
    order 1 the product is made as ints, each entry the product of the two
    rows' ints over D^2 (GramRows.rows), and decomposed by _rational_sums:
    no value of it is made."""
    rows = table.gram_rows
    if rows.order == 1:
        # an index out of range is an IndexError, as it is for the rows
        k = len(table.rows)
        i, j = range(k)[i], range(k)[j]
        _check_decomposable(table, table.group)
        read = rows.rows(1, True, None, range(k))
        sums, scale = _rational_sums(table, list(map(mul, read[i], read[j])), rows.den * rows.den)
        # in lowest terms, integers have scale 1
        ints = sums if scale == 1 and min(sums) >= 0 else None
    else:
        ints = integer_multiplicities(decompose(table.rows[i].function * table.rows[j].function,
                                                table))
    if ints is None:
        raise ValueError("tensor product decomposed with non-integer multiplicities")
    return ints


class VerifyReport:
    def __init__(self):
        self.entries = []

    def add(self, check, ok, detail=""):
        self.entries.append((check, ok, detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.entries)

    def failures(self):
        return [(c, d) for c, ok, d in self.entries if not ok]

    def __repr__(self):
        status = "ok" if self.ok else f"{len(self.failures())} failures"
        return f"VerifyReport({status})"


# the fewest rows for which orbit_gram looks for symmetries: the search
# costs O(k^2) and a fresh table's Gram matrix O(k^3), and below this the
# search costs more than it saves (GL2(F_3), A4 and D8 measured)
ORBIT_ROWS = 10
# the most coordinates, phi(N) for each pool value, that the search may
# hold in its FieldKeys, which live for the search only (GL2(F_31) needs
# 264192); past it, as for two large prime orders, every pair is computed
KEY_COORDINATES = 1 << 22


def _row_symmetries(table):
    """Maps m of the table's rows into its rows, as lists of row indices,
    under which the Hermitian product of rows m[a] and m[b] is that of rows
    a and b, each checked exactly on the rows as tuples of FieldKeys ids,
    so that none is assumed, on broken tables too.

    A permutation p of the classes that keeps every class size keeps every
    product, <a o p, b o p> = <a, b>, and the power map of j permutes the
    rows of a character table, as chi(g^j) = sigma_j(chi(g)) for j prime to
    |G| (Isaacs 1976, ch. 2). One is tried for each generator j of the
    units mod N, the lcm of the pool's orders, lifted to the least j + tN
    prime to |G|. A twist by a row l of roots of unity up to sign
    (FieldKeys.root), as every linear character is, keeps every product
    too, <l a, l b> = <a, b>. Such rows are tried in order until the twists
    found reach each one from the all-ones row, or until the first whose
    twist is no row map: l chi is irreducible for every row chi of a
    complete table of characters, so only a broken or incomplete table
    stops early."""
    keys, sizes = FieldKeys(table.pool), table.class_sizes
    rows = [tuple(map(keys.ids.__getitem__, row)) for row in table.index]
    where = {}
    for i, row in enumerate(rows):
        where.setdefault(row, i)
    identity = list(range(len(rows)))

    def row_map(images):
        out = list(map(where.get, images))
        return None if None in out or out == identity else out

    maps, classes = [], list(range(len(sizes)))
    for j in unit_generators(keys.n):
        while gcd(j, table.group.order) > 1:
            j += keys.n
        p = table.group.power_class_map(j)
        # on one class, moved gives no tuple and keeps no map
        moved = itemgetter(*p)
        m = sorted(p) == classes and moved(sizes) == sizes and row_map(map(moved, rows))
        # two generators can give one class permutation
        if m and m not in maps:
            maps.append(m)
    one_id = keys.find(one())
    trivial = where.get((one_id,) * len(rows[0])) if rows and one_id is not None else None
    if trivial is None:
        return maps
    columns = list(zip(*rows))

    def twisted_rows(lam):
        # a column where l is 1 stays as it is
        return zip(*(column if y == one_id else map(keys.times(y, column).__getitem__, column)
                     for y, column in zip(lam, columns)))

    reached, found = {trivial}, []
    for lam in rows:
        if where[lam] in reached or not all(map(keys.root, set(lam))):
            continue
        m = row_map(twisted_rows(lam))
        if m is None:
            break
        found.append(m)
        todo = [trivial]
        for a in todo:
            for t in found:
                if t[a] not in reached:
                    reached.add(t[a])
                    todo.append(t[a])
    return maps + found


def _pair_orbits(table):
    """The first pair of each orbit of the pairs i <= j of the table's rows
    under _row_symmetries, in the order (0, 0), (0, 1), ...; an orbit holds
    diagonal pairs only or none, as maps need not be injective. None where
    no symmetry is found."""
    maps = _row_symmetries(table)
    if not maps:
        return None
    k = len(table.index)
    seen = bytearray(k * k)
    reps = []
    for i in range(k):
        for j in range(i, k):
            if seen[i * k + j]:
                continue
            seen[i * k + j] = 1
            reps.append((i, j))
            diagonal = i == j
            todo = [(i, j)]
            for a, b in todo:
                for m in maps:
                    x, y = m[a], m[b]
                    if x > y:
                        x, y = y, x
                    if not seen[x * k + y] and (x == y) == diagonal:
                        seen[x * k + y] = 1
                        todo.append((x, y))
    return reps


def orbit_gram(table):
    """None when the Hermitian products |G|^-1 sum_c |c| a_c conj(b_c) of
    the pairs i <= j of the table's rows are proven to be 1 on the diagonal
    and 0 off it; otherwise the products of all pairs, in the order
    (0, 0), (0, 1), ..., (1, 1), ...

    Over irrational values one pair per orbit of _pair_orbits is computed.
    Every map keeps every product exactly, and a pair (i, j) with i > j
    has the conjugate product, which fixes 1 and 0: so if the first pair
    of every orbit has its wanted value, so has every pair. If one fails,
    the table is broken, and every pair is computed, so a check reads the
    same values as from the full Gram matrix. The table's operand keeps
    its orbits, or that it has none, as it keeps its rows. Below
    ORBIT_ROWS rows, or past KEY_COORDINATES, every pair is computed."""
    operand, weights, scale = table.gram_rows, table.class_sizes, table.group.order
    k = len(operand.index)
    if (operand.order > 1 and k >= ORBIT_ROWS
            and len(operand.pool) * euler_phi(operand.order) <= KEY_COORDINATES):
        reps = operand.form("orbits", lambda: _pair_orbits(table))
        if reps is not None:
            on, off = one(), zero()
            products = hermitian_gram(operand, operand, reps, weights, scale)
            if all(got == (on if i == j else off) for (i, j), got in zip(reps, products)):
                return None
    return hermitian_gram(operand, operand, [(i, j) for i in range(k) for j in range(i, k)],
                          weights, scale)


def verify_rows(table):
    """The row half of verify_table, which gl2fq.gl2_verify is: one entry
    per pair i <= j of the table's rows, whose Hermitian product must be 1
    on the diagonal and 0 off it, then the sum-of-squares identity and the
    row count. The products come from orbit_gram, which proves whole
    orbits of pairs under power maps and twists by linear rows."""
    rep = VerifyReport()
    g = table.group
    products = iter(orbit_gram(table) or ())
    names = [row.name for row in table.rows]
    k = len(names)
    for i in range(k):
        for j in range(i, k):
            # None where the orbits proved every pair
            got = next(products, None)
            ok = got is None or got == (one() if i == j else zero())
            rep.add(f"row orthonormality ({names[i]},{names[j]})", ok, "" if ok else f"got {got}")
    ssq = sum(row.degree ** 2 for row in table.rows)
    rep.add("sum of squares", ssq == g.order, f"{ssq} vs |G|={g.order}")
    rep.add("row count equals class count", k == len(g.classes), f"{k} vs {len(g.classes)}")
    return rep


def verify_table(table):
    """Full consistency check of a character table.

    The row half (verify_rows) comes first; then column orthogonality
    against centralizer orders and degree divisibility. Every failure
    names the offending pair. Column sums are read off the rows where the
    row half passes, which takes a complete table, else computed.
    """
    rep = verify_rows(table)
    g = table.group
    k = len(g.classes)
    labels = [g.class_label(c) for c in range(k)]
    pairs = [(c1, c2) for c1 in range(k) for c2 in range(c1, k)]
    if rep.ok:
        # the k x k value matrix R has R W R* = I for W = diag(|c| / |G|),
        # so R is invertible and R* R = W^-1: columns c1, c2 give |G| / |c1| or 0
        totals = [cyc(Fraction(g.order, g.classes[c1].size)) if c1 == c2 else zero()
                  for c1, c2 in pairs]
    else:
        totals = hermitian_gram(table.gram_columns, table.gram_columns, pairs)
    for (c1, c2), total in zip(pairs, totals):
        want = cyc(g.classes[c1].centralizer_order) if c1 == c2 else zero()
        ok = total == want
        rep.add(f"column orthogonality ({labels[c1]},{labels[c2]})", ok,
                "" if ok else f"got {total}, want {want}")
    for row in table.rows:
        rep.add(f"degree divides |G| ({row.name})",
                row.degree != 0 and g.order % row.degree == 0, f"degree {row.degree}")
    return rep


# -- induction and restriction -----------------------------------------

def restrict(sub, f):
    """Restriction along H < G: the value at an H-class is the value at
    the G-class containing it."""
    if f.group is not sub.supergroup:
        raise ValueError("class function does not live on the ambient group")
    return ClassFunction(sub.group, [f.values[gc] for gc in sub.class_to_gclass])


def induce(sub, f):
    """Induced class function. The Mackey formula
    chi(g) = |H|^-1 sum over x in G with x g x^-1 in H of f(x g x^-1)
    counts each h of H in the class c of g exactly |G| / |c| times, so
    Ind f(c) = [G:H] / |c| * sum over the H-classes d in c of |d| f(d)."""
    if f.group is not sub.group:
        raise ValueError("class function does not live on the subgroup")
    g = sub.supergroup
    totals = [zero()] * len(g.classes)
    for d, gc, v in zip(sub.group.classes, sub.class_to_gclass, f.values):
        totals[gc] = totals[gc] + d.size * v
    return ClassFunction(g, [t * sub.index_in_supergroup / cl.size
                             for t, cl in zip(totals, g.classes)])


def transfer_table(table, group):
    """The rows of `table` carried over to an isomorphic `group`, each class
    of `group` matched to the class of the table's group with the same
    element order and size; ValueError unless that matching is one to one,
    which, as matched classes have equal sizes, makes the orders equal."""
    by_key = {}
    for i, c in enumerate(table.classes):
        by_key.setdefault((c.element_order, c.size), []).append(i)
    columns = []
    for cl in group.classes:
        match = by_key.get((cl.element_order, cl.size), [])
        if len(match) != 1:
            raise ValueError(f"{'ambiguous' if match else 'no'} class matching: {len(match)} classes "
                             f"of element order {cl.element_order} and size {cl.size}")
        columns.append(match[0])
    if sorted(columns) != list(range(len(table.classes))):
        raise ValueError(f"class matching is not one to one: the group's {len(group.classes)} classes "
                         f"land on {len(set(columns))} of the table's {len(table.classes)}")
    rows = [TableRow(row.name, row.degree, ClassFunction(group, [row.values[i] for i in columns]))
            for row in table.rows]
    return CharacterTable(group, rows, name=table.name)


def frobenius_schur(f):
    """Indicator |G|^-1 sum_g chi(g^2) in {-1, 0, 1}: real, complex or
    quaternionic type. Requires an irreducible character."""
    if inner_product(f, f) != 1:
        raise ValueError("Frobenius-Schur indicator needs an irreducible character (norm 1)")
    g = f.group
    pmap = g.power_class_map(2)
    total = zero()
    for cl, target in zip(g.classes, pmap):
        total = total + cl.size * f.values[target]
    return total / g.order


# -- abelian dual tables -------------------------------------------------

def _abelian_characters(group):
    """(e, characters) for an abelian group of exponent e: its |G|
    homomorphisms into the e-th roots of unity, each as the list of
    exponents x[i], the character's value at element i being zeta_e^x[i].
    Candidate c, in lexicographic order, sends generator k, of order o_k,
    to zeta_e^(c_k e / o_k); as extend_hom adds exponents along its tree,
    it is sum_k c_k t_k, t_k generator k alone extended, checked to be
    multiplicative. For Z_n's standard generator the k-th is m -> k*m."""
    if any(cl.size > 1 for cl in group.classes):
        raise ValueError("dual table requires an abelian group")
    e, n, gens = group.exponent, group.order, group.generators
    candidates = [([0] * n, [])]  # each with its generator exponents
    for k, o in enumerate(map(p_order, gens)):
        t = group.extend_hom([e // o if j == k else 0 for j in range(len(gens))], mul=add, one=0)
        candidates = [([(v + c * s) % e for v, s in zip(x, t)], w + [c * e // o])
                      for x, w in candidates for c in range(o)]
    # times[k][i]: the index of element i times generator k
    times = [[group.mul(i, group.index[p]) for i in range(n)] for p in gens]
    characters = [x for x, w in candidates
                  if all(list(map(x.__getitem__, t)) == [(v + k) % e for v in x]
                         for t, k in zip(times, w))]
    if len(characters) != n:
        raise ValueError("abelian dual enumeration is incomplete")
    return e, characters


def abelian_dual_table(group):
    """The character group of an abelian group, as a complete table: row
    chi<k> is the k-th character of `_abelian_characters`, so for Z_n with
    its standard generator chi_k(m) = zeta_n^(k*m). The pool is the roots
    zeta_e^k the rows reach, the index their exponents at the classes."""
    e, characters = _abelian_characters(group)
    where = {}  # the pool position of each exponent, in the order first met
    index = [[where.setdefault(x[cl.members[0]], len(where)) for cl in group.classes]
             for x in characters]
    return CharacterTable.from_pool(group, [f"chi{k}" for k in range(len(index))], [1] * len(index),
                                    [zeta(e, k) for k in where], index, name="dual")


# -- semidirect products -------------------------------------------------

def semidirect_table(sd):
    """Character table of G x| A from orbits of G on the dual of A.

    One row per pair (orbit O, irreducible U of the stabilizer G_x of a
    chosen orbit representative x), with values from the Mackey-type
    formula chi(a, g) = |G_x|^-1 sum over h with h g h^-1 in G_x of
    x(h(a)) chi_U(h g h^-1). The trivial character's stabilizer is G, so
    G must be abelian (ValueError otherwise); then h g h^-1 = g, and
    chi_U(g) leaves the sum (_orbit_value). Characters of A are exponent
    lists (`_abelian_characters`), each found by its exponents at A's
    generators. Orbits are ordered by their minimal character index. The
    characters of G_x are the distinct restrictions of those of G, each an
    exponent list over G_x's elements in G's order; its rows follow their
    lexicographic order, which is the order in which `_abelian_characters`
    lists them for G_x generated by all its elements.
    """
    g, a, act = sd.acting, sd.abelian, sd.act
    if not g.is_abelian():
        raise ValueError("no character table available for a non-abelian stabilizer")
    e, characters = _abelian_characters(a)
    e_g, g_characters = _abelian_characters(g)
    gens = [a.index[p] for p in a.generators]
    number = {tuple(x[s] for s in gens): r for r, x in enumerate(characters)}
    pairs = [sd.pair_of[cl.members[0]] for cl in sd.group.classes]
    pool = ValuePool()
    # each value made once, by (e_u, |G_x|, chi_U(g), exponents of x(h(a))), or None
    at = pool.slots(lambda key: zero() if key is None else _orbit_value(e, *key))
    names, degrees, index, done = [], [], [], set()
    for r, x in enumerate(characters):
        if r in done:
            continue
        # the character x o h for each h of G: the orbit of x, as G is a group
        moved = [number[tuple(x[act_h[s]] for s in gens)] for act_h in act]
        done.update(moved)
        stab_indices = [h for h, s in enumerate(moved) if s == r]
        # on the stabilizer, of exponent e_u, a character of G takes e_u-th
        # roots of unity: its exponents there are multiples of e_g / e_u
        e_u = lcm(*(p_order(g.elements[h]) for h in stab_indices))
        stab_characters = sorted({tuple(y[h] * e_u // e_g for h in stab_indices)
                                  for y in g_characters})
        terms = {ai: tuple(x[act_h[ai]] for act_h in act) for ai, _ in pairs}
        for k, u in enumerate(stab_characters):
            chi_u = dict(zip(stab_indices, u))
            names.append(f"(O{r},chi{k})")
            degrees.append(len(set(moved)))
            index.append([at[(e_u, len(u), chi_u[gi], terms[ai]) if gi in chi_u else None]
                          for ai, gi in pairs])
    return CharacterTable.from_pool(sd.group, names, degrees, pool.values, index,
                                    name="semidirect")


def _orbit_value(e, e_u, size, c, ks):
    """The sum of zeta_e^k zeta_(e_u)^c over k in ks, over size, stored as
    the per-term Cyclotomic sum stores it: at the lcm m of the orders of
    the terms after its last rational partial sum, a term's order being 1
    for +-1, else the lcm of its irrational factors' orders. The exponents
    are counted at n = lcm(e, e_u) and folded once, in Q(zeta_m)."""
    n = lcm(e, e_u)
    exps = [(k * (n // e) + c * (n // e_u)) % n for k in ks]
    orders = [1 if 2 * y % n == 0 else lcm(e if 2 * k % e else 1, e_u if 2 * c % e_u else 1)
              for k, y in zip(ks, exps)]
    top, m, j, base = lcm(*orders), 1, len(ks), 0
    while m != top:
        j -= 1
        m = lcm(m, orders[j])
        if m != top and not any((prefix := _fold([exps[:j].count(y) for y in range(n)], n))[1:]):
            base = prefix[0]
            break
    else:
        j = 0
    # the terms from j on are +-zeta_m^i, -zeta_m^i being zeta_n^(i n / m + n / 2)
    step, acc = n // m, [base] + [0] * (m - 1)
    for y in exps[j:]:
        sign = -1 if y % step else 1
        acc[(y - (sign < 0) * n // 2) % n // step] += sign
    return Cyclotomic(m, _fold(acc, m), size)


def heisenberg_semidirect():
    """The order-27 group of unitriangular 3x3 matrices over F_3, as Z_3
    acting on Z_3 x Z_3 by (b, c) -> (b, b + c)."""
    a = PermGroup(6, [from_cycles(6, [(0, 1, 2)]), from_cycles(6, [(3, 4, 5)])])

    def elem_of(b, c):  # the element with p[0] = b and p[3] = 3 + c
        return tuple([(i + b) % 3 for i in range(3)] + [3 + (i + c) % 3 for i in range(3)])

    auto = [a.index[elem_of(p[0], p[0] + p[3] - 3)] for p in a.elements]
    return SemidirectProduct(cyclic_group(3), a, [auto])


# -- the classical tables ------------------------------------------------

def _cycle_perm(degree, *cycs):
    return from_cycles(degree, [tuple(x - 1 for x in c) for c in cycs])


def builtin_table(name):
    """The character tables of S3, A4, S4, A5 and Q8 with exact entries;
    epsilon = zeta_3 and the golden-ratio entries of the A5 table are
    -(z5^2+z5^3) and -(z5+z5^4)."""
    key = "%s%d" % parse_group_name(name)
    if key == "S3":
        group = symmetric_group(3)
        cols = [p_identity(3), _cycle_perm(3, (1, 2)), _cycle_perm(3, (1, 2, 3))]
        labels = ["Id", "(12)", "(123)"]
        data = [("C+", [1, 1, 1]),
                ("C-", [1, -1, 1]),
                ("C2", [2, 0, -1])]
    elif key == "A4":
        group = alternating_group(4)
        e = zeta(3)
        cols = [p_identity(4), _cycle_perm(4, (1, 2, 3)), _cycle_perm(4, (1, 3, 2)),
                _cycle_perm(4, (1, 2), (3, 4))]
        labels = ["Id", "(123)", "(132)", "(12)(34)"]
        data = [("C", [1, 1, 1, 1]),
                ("Ce", [1, e, e * e, 1]),
                ("Ce2", [1, e * e, e, 1]),
                ("C3", [3, 0, 0, -1])]
    elif key == "S4":
        group = symmetric_group(4)
        cols = [p_identity(4), _cycle_perm(4, (1, 2)), _cycle_perm(4, (1, 2), (3, 4)),
                _cycle_perm(4, (1, 2, 3)), _cycle_perm(4, (1, 2, 3, 4))]
        labels = ["Id", "(12)", "(12)(34)", "(123)", "(1234)"]
        data = [("C+", [1, 1, 1, 1, 1]),
                ("C-", [1, -1, 1, 1, -1]),
                ("C2", [2, 0, 2, -1, 0]),
                ("C3+", [3, -1, -1, 0, 1]),
                ("C3-", [3, 1, -1, 0, -1])]
    elif key == "A5":
        group = alternating_group(5)
        gold_plus = -(zeta(5, 2) + zeta(5, 3))   # (1+sqrt5)/2
        gold_minus = -(zeta(5, 1) + zeta(5, 4))  # (1-sqrt5)/2
        cols = [p_identity(5), _cycle_perm(5, (1, 2, 3)), _cycle_perm(5, (1, 2), (3, 4)),
                _cycle_perm(5, (1, 2, 3, 4, 5)), _cycle_perm(5, (1, 3, 2, 4, 5))]
        labels = ["Id", "(123)", "(12)(34)", "(12345)", "(13245)"]
        data = [("C", [1, 1, 1, 1, 1]),
                ("C3+", [3, 0, -1, gold_plus, gold_minus]),
                ("C3-", [3, 0, -1, gold_minus, gold_plus]),
                ("C4", [4, 1, 0, -1, -1]),
                ("C5", [5, -1, 1, 0, 0])]
    elif key == "Q8":
        group = quaternion_group()
        i, j = group.generators  # left multiplication by i and by j
        cols = [p_identity(8), p_mul(i, i), i, j, p_mul(i, j)]  # 1, -1, i, j, k
        labels = ["1", "-1", "i", "j", "k"]
        data = [("C++", [1, 1, 1, 1, 1]),
                ("C+-", [1, 1, 1, -1, -1]),
                ("C-+", [1, 1, -1, 1, -1]),
                ("C--", [1, 1, -1, -1, 1]),
                ("C2", [2, -2, 0, 0, 0])]
    else:
        raise ValueError(f"no builtin table for {name!r}")
    class_of_col = [group.class_index(p) for p in cols]
    if sorted(class_of_col) != list(range(len(group.classes))):
        raise AssertionError("display columns do not exhaust the classes")
    rows = []
    for rname, vals in data:
        canonical = [None] * len(group.classes)
        for ci, v in zip(class_of_col, vals):
            canonical[ci] = cyc(v)
        fn = ClassFunction(group, canonical)
        rows.append(TableRow(rname, int(fn.at_identity().as_fraction()), fn))
    return CharacterTable(group, rows, name=key, display_classes=class_of_col,
                          class_labels=labels)


BUILTIN_TABLE_NAMES = ("S3", "A4", "S4", "A5", "Q8")


# -- rendering and serialization ------------------------------------------

def format_value(v, numeric=False):
    """A table entry as exact text, or as a float (real, or real+imag i)."""
    if numeric:
        z = v.numeric()
        if abs(z.imag) < 1e-12:
            return f"{z.real:.10g}"
        return f"{z.real:.10g}{z.imag:+.10g}i"
    return str(v)


def render_table(table, numeric=False):
    """Plain-text rendering in the classical layout: representatives row,
    class sizes row, then one row per character, in left-aligned columns
    two spaces apart. Each value of the pool is formatted once."""
    texts = [format_value(v, numeric) for v in table.pool]
    grid = [[table.name or "G"] + list(table.class_labels),
            ["#"] + [str(table.classes[c].size) for c in table.display_classes]]
    grid += [[row.name] + [texts[index[c]] for c in table.display_classes]
             for row, index in zip(table.rows, table.index)]
    widths = [max(len(r[j]) for r in grid) for j in range(len(grid[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
                     for r in grid)


def table_to_json(table, group_name=None):
    """The table as JSON, in its display order: the group by group_name or
    by its generators, each class by its representative, size and element
    order, each row by name, degree and values. A GL2 table, whose classes
    list no permutation, goes to gl2fq.gl2_table_to_json, which writes its
    own form."""
    if not hasattr(table.classes[0], "representative"):
        from .gl2fq import gl2_table_to_json
        return gl2_table_to_json(table)
    classes = []
    for c in table.display_classes:
        cl = table.group.classes[c]
        classes.append({"rep": list(cl.representative), "size": cl.size,
                        "order": cl.element_order})
    values = [cyclotomic_to_json(v) for v in table.pool]
    rows = [{"name": row.name, "degree": row.degree,
             "values": [values[index[c]] for c in table.display_classes]}
            for row, index in zip(table.rows, table.index)]
    return {"group": group_name or group_to_json(table.group),
            "classes": classes, "rows": rows}


def table_from_json(obj):
    """The table table_to_json wrote, or, where obj has "q", the one
    gl2fq.gl2_table_to_json wrote: GL2Group(q) of the stated order, each
    class also by its family and parameters, which must be those of the
    class its matrix lies in, and each row also by the series its name
    gives."""
    if type(obj) is dict and "q" in obj:
        from .gl2fq import GL2Group, row_series
        q, order, classes, rows = fields(obj, "GL2 table", {"q": int, "group_order": int,
                                                            "classes": list, "rows": list})
        group = GL2Group(q)
        if order != group.order:
            raise InputError(f"GL2(F_{q}) has order {group.order}, not {short_repr(order)}")
        class_fields = {"rep": list[list], "size": int, "family": str, "params": list[int]}
        row_fields = {"name": str, "degree": int, "values": list, "series": str}
        table_name = f"GL2(F_{q})"
    else:
        group, classes, rows = fields(obj, "table", {"group": None, "classes": list, "rows": list})
        group = group_from_json(group)
        class_fields = {"rep": list[int], "size": int}
        row_fields = {"name": str, "degree": int, "values": list}
        table_name = ""
    display = []
    for c in classes:
        rep, size, *key = fields(c, "table class", class_fields)
        ci = group.class_index(rep)
        display.append(ci)
        cl = group.classes[ci]
        if key and key != [cl.family, list(cl.params)]:
            raise InputError(f"the matrix {short_repr(rep)} lies in the class "
                             f"{group.class_label(ci)}, not {short_repr(key)}")
        if cl.size != size:
            raise InputError("class size mismatch in table file")
    listed = sorted(range(len(display)), key=display.__getitem__)  # the file's index of each class
    # equal value dicts give one value (cyclotomic_from_json), which the
    # pool finds by id. Each row is interned in the group's class order, so
    # the pool is in the order its values are first met there
    pool, names, degrees, index = ValuePool(), [], [], []
    for r in rows:
        name, degree, values, *series = fields(r, "table row", row_fields)
        if series and series != [row_series(name)]:
            raise InputError(f"a GL2 table has no row {short_repr(name)} of the series "
                             f"{short_repr(series[0])}")
        if len(values) != len(classes):
            raise InputError(f"a table row needs {len(classes)} values, one per class, not {len(values)}")
        row = list(map(cyclotomic_from_json, values))
        names.append(name)
        degrees.append(degree)
        index.append(pool.positions(map(row.__getitem__, listed)))
    if sorted(display) != list(range(len(group.classes))):
        raise InputError(f"a table lists each of the {len(group.classes)} classes of its group exactly once")
    return CharacterTable.from_pool(group, names, degrees, pool.values, index, name=table_name,
                                    display_classes=display)

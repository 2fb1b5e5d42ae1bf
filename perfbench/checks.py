"""Independent output checks for the benchmark jobs.

Every fact used here is known to the benchmark on its own: hook-length
degrees, semistandard tableau counts, invariant degrees of the Weyl
groups, classical root counts and Coxeter numbers, the classical tensor
tables of S3, A4, S4 and A5, and the CLI output digests recorded in
cli_digests.json. None of them is computed by calling reptheory. Checks
read the program's outputs but never call back into it, so they stay out
of the traced spans as well.

A check raises CheckFailed with a message; returning means the output
passed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "cli_digests.json"


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- exact values -------------------------------------------------------------

def rational(v):
    """A reptheory Cyclotomic that must be rational, read as a Fraction
    from its canonical (order, num, den) form."""
    expect(v.order == 1, f"value {v.num}/{v.den} at order {v.order} is not rational")
    return Fraction(v.num[0], v.den)


def canonical(v):
    return (v.order, tuple(v.num), v.den)


# -- partitions and S_n -------------------------------------------------------

def partitions(n, max_part=None):
    max_part = n if max_part is None else max_part
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, max_part), 0, -1)
            for rest in partitions(n - first, first)]


def hook_length_dim(lam):
    conj = [sum(1 for p in lam if p > c) for c in range(lam[0])] if lam else []
    hooks = prod((row - c) + (conj[c] - r) - 1 for r, row in enumerate(lam) for c in range(row))
    return factorial(sum(lam)) // hooks


def dominates(mu, lam):
    """mu >= lam in the dominance order (equal sizes)."""
    a = b = 0
    for i in range(max(len(mu), len(lam))):
        a += mu[i] if i < len(mu) else 0
        b += lam[i] if i < len(lam) else 0
        if a < b:
            return False
    return True


@lru_cache(maxsize=None)
def ssyt_count(shape, content):
    """Number of semistandard tableaux of the given shape and content,
    by peeling off the largest letter as a horizontal strip."""
    if not content:
        return 1 if not shape else 0
    k = content[-1]
    rest = content[:-1]
    total = 0
    # choose how many cells of the strip sit in each row, right to left
    def strips(i, left, cur):
        nonlocal total
        if i == len(shape):
            if left == 0:
                inner = tuple(p for p in cur if p > 0)
                total += ssyt_count(inner, rest)
            return
        below = shape[i + 1] if i + 1 < len(shape) else 0
        for take in range(0, min(left, shape[i] - below) + 1):
            strips(i + 1, left - take, cur + (shape[i] - take,))
    strips(0, k, ())
    return total


def young_module_dim(lam):
    return factorial(sum(lam)) // prod(factorial(p) for p in lam)


def partition_of_row_name(name):
    """'V[3,1,1]' -> (3, 1, 1), the S_n row naming of reptheory."""
    expect(name.startswith("V[") and name.endswith("]"), f"unexpected row name {name!r}")
    return tuple(int(x) for x in name[2:-1].split(","))


def check_sn_table(table, n):
    rows = table.rows
    parts = partitions(n)
    expect(len(rows) == len(parts), f"S{n}: {len(rows)} rows, want {len(parts)}")
    expect([partition_of_row_name(r.name) for r in rows] == parts,
           f"S{n}: rows are not the partitions of {n} in order")
    for row, lam in zip(rows, parts):
        want = hook_length_dim(lam)
        expect(row.degree == want, f"S{n} {row.name}: degree {row.degree}, hook formula {want}")
        expect(rational(row.function.values[0]) == want,
               f"S{n} {row.name}: identity value differs from the hook formula")
    ssq = sum(r.degree ** 2 for r in rows)
    expect(ssq == factorial(n), f"S{n}: sum of squared degrees {ssq} != {n}!")


def check_report(report, entries):
    expect(report.ok, f"verify report failed: {report.failures()[:3]}")
    expect(len(report.entries) == entries,
           f"verify report has {len(report.entries)} checks, want {entries}")


def table_verify_entries(k):
    """verify_table runs k(k+1)/2 row and k(k+1)/2 column checks, the sum
    of squares, one divisibility check per row and the row count."""
    return k * (k + 1) + 1 + k + 1


def check_kostka_column(values, lam):
    """values maps mu -> K(mu, lam) for every partition mu of |lam|."""
    for mu, k in values.items():
        if mu == lam:
            expect(k == 1, f"K({mu},{lam}) = {k}, want 1")
        elif not dominates(mu, lam):
            expect(k == 0, f"K({mu},{lam}) = {k} but {mu} does not dominate {lam}")
        want = ssyt_count(mu, lam)
        expect(k == want, f"K({mu},{lam}) = {k}, tableau count {want}")
    total = sum(k * hook_length_dim(mu) for mu, k in values.items())
    expect(total == young_module_dim(lam),
           f"sum K(mu,{lam}) dim V_mu = {total}, want dim U_lambda = {young_module_dim(lam)}")


def check_tensor(mults, degrees, i, j, golden=None):
    expect(all(isinstance(m, int) and m >= 0 for m in mults),
           f"tensor ({i},{j}): multiplicities {mults} are not nonnegative integers")
    dim = sum(m * d for m, d in zip(mults, degrees))
    expect(dim == degrees[i] * degrees[j],
           f"tensor ({i},{j}): dimension {dim}, want {degrees[i] * degrees[j]}")
    if golden is not None:
        expect(mults == golden, f"tensor ({i},{j}): {mults}, classical table says {golden}")


def check_multiplicities(mults, want, what):
    got = [rational(m) for m in mults]
    expect(got == [Fraction(w) for w in want], f"{what}: multiplicities {got}, want {want}")


# Classical tensor tables: (row i, row j) -> multiplicity of each row, rows
# in the order of reptheory.builtin_table (S3: C+ C- C2; A4: C Ce Ce2 C3;
# S4: C+ C- C2 C3+ C3-; A5: C C3+ C3- C4 C5). Symmetric in i and j.
_TENSOR = {
    "S3": {(1, 1): [1, 0, 0], (1, 2): [0, 0, 1], (2, 2): [1, 1, 1]},
    "A4": {(1, 1): [0, 0, 1, 0], (1, 2): [1, 0, 0, 0], (2, 2): [0, 1, 0, 0],
           (1, 3): [0, 0, 0, 1], (2, 3): [0, 0, 0, 1], (3, 3): [1, 1, 1, 2]},
    "S4": {(1, 1): [1, 0, 0, 0, 0], (1, 2): [0, 0, 1, 0, 0], (1, 3): [0, 0, 0, 0, 1],
           (1, 4): [0, 0, 0, 1, 0], (2, 2): [1, 1, 1, 0, 0], (2, 3): [0, 0, 0, 1, 1],
           (2, 4): [0, 0, 0, 1, 1], (3, 3): [1, 0, 1, 1, 1], (3, 4): [0, 1, 1, 1, 1],
           (4, 4): [1, 0, 1, 1, 1]},
    "A5": {(1, 1): [1, 1, 0, 0, 1], (1, 2): [0, 0, 0, 1, 1], (1, 3): [0, 0, 1, 1, 1],
           (1, 4): [0, 1, 1, 1, 1], (2, 2): [1, 0, 1, 0, 1], (2, 3): [0, 1, 0, 1, 1],
           (2, 4): [0, 1, 1, 1, 1], (3, 3): [1, 1, 1, 1, 1], (3, 4): [0, 1, 1, 1, 2],
           (4, 4): [1, 1, 1, 2, 2]},
}


def golden_tensor(name, i, j):
    """Classical decomposition of row_i (x) row_j for i, j >= 1, or None
    if the group has no stored table."""
    if name not in _TENSOR:
        return None
    return _TENSOR[name][(min(i, j), max(i, j))]


# -- GL2(F_q) -------------------------------------------------------------------

def check_gl2_table(table, q):
    k = q * q - 1
    order = (q * q - 1) * (q * q - q)
    expect(len(table.rows) == k, f"GL2({q}): {len(table.rows)} rows, want {k}")
    expect(len(table.classes) == k, f"GL2({q}): {len(table.classes)} classes, want {k}")
    expect(sum(c.size for c in table.classes) == order, f"GL2({q}): class sizes do not sum to |G|")
    degrees = sorted(r.degree for r in table.rows)
    want = sorted([1] * (q - 1) + [q + 1] * ((q - 1) * (q - 2) // 2)
                  + [q] * (q - 1) + [q - 1] * (q * (q - 1) // 2))
    expect(degrees == want, f"GL2({q}): degree multiset differs from the four series")
    ssq = sum(d * d for d in degrees)
    expect(ssq == order, f"GL2({q}): sum of squared degrees {ssq} != {order}")


def check_orthonormal(value, i, j):
    """First orthogonality relation: <chi_i, chi_j> is 1 if i == j, else 0."""
    want = int(i == j)
    got = rational(value)
    expect(got == want, f"<chi_{i}, chi_{j}> = {got}, orthogonality says {want}")


def gl2_verify_entries(q):
    k = q * q - 1
    return k * (k + 1) // 2 + 2


# -- root systems and quivers ------------------------------------------------------

def invariant_degrees(family, n):
    if family == "A":
        return list(range(2, n + 2))
    if family == "D":
        return list(range(2, 2 * n - 1, 2)) + [n]
    return {6: [2, 5, 6, 8, 9, 12], 7: [2, 6, 8, 10, 12, 14, 18],
            8: [2, 8, 12, 14, 18, 20, 24, 30]}[n]


def weyl_order(family, n):
    return prod(invariant_degrees(family, n))


def positive_root_count(family, n):
    # the number of reflections is the sum of (degree - 1)
    return sum(d - 1 for d in invariant_degrees(family, n))


def coxeter_number(family, n):
    return max(invariant_degrees(family, n))


def cartan_det(family, n):
    return {"A": n + 1, "D": 4}.get(family) or {6: 3, 7: 2, 8: 1}[n]


def cartan(n, edges):
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for s, t in edges:
        a[s][t] -= 1
        a[t][s] -= 1
    return tuple(tuple(r) for r in a)


def tits_norm(a, x):
    return sum(x[i] * a[i][j] * x[j] for i in range(len(x)) for j in range(len(x)))


def check_roots(result, a, family, n):
    positive, negative = result
    want = positive_root_count(family, n)
    expect(len(positive) == want, f"{family}{n}: {len(positive)} positive roots, want {want}")
    expect(len(set(positive)) == want, f"{family}{n}: repeated roots")
    expect(sorted(negative) == sorted(tuple(-c for c in v) for v in positive),
           f"{family}{n}: negative roots are not the negatives of the positive ones")
    for v in positive:
        expect(all(c >= 0 for c in v) and tits_norm(a, v) == 2,
               f"{family}{n}: {v} is not a positive root")


def check_classification(result, label):
    kind, name = label
    expect((result.kind, result.name) == (kind, name),
           f"classified as ({result.kind}, {result.name}), generator built ({kind}, {name})")


def check_coxeter(result, family, n):
    _, order, det = result
    expect(order == coxeter_number(family, n),
           f"{family}{n}: Coxeter element order {order}, want h = {coxeter_number(family, n)}")
    want = (-1) ** n * cartan_det(family, n)
    expect(det == want, f"{family}{n}: det(c - 1) = {det}, want {want}")


def check_indecomposables(result, a, family, n):
    want = positive_root_count(family, n)
    dims = [tuple(rep.dims) for _, rep in result]
    expect(len(result) == want, f"{family}{n}: {len(result)} indecomposables, want {want}")
    expect(len(set(dims)) == want, f"{family}{n}: two indecomposables share a dimension vector")
    for (alpha, rep), d in zip(result, dims):
        expect(tuple(alpha) == d, f"{family}{n}: indecomposable for {alpha} has dims {d}")
        expect(tits_norm(a, d) == 2, f"{family}{n}: dims {d} is not a root")


def check_decomposition(result, summands):
    want = {}
    for root in summands:
        want[root] = want.get(root, 0) + 1
    got = {tuple(root): mult for root, mult in result}
    expect(got == want, f"decomposition {sorted(got.items())}, built from {sorted(want.items())}")


# -- artifacts ---------------------------------------------------------------------

def check_same_values(parsed, original, what):
    expect(len(parsed) == len(original), f"{what}: {len(parsed)} values, want {len(original)}")
    for p, o in zip(parsed, original):
        expect(canonical(p) == canonical(o), f"{what}: value changed in the round trip")


def check_same_table(parsed, original, what):
    expect([(r.name, r.degree) for r in parsed.rows] == [(r.name, r.degree) for r in original.rows],
           f"{what}: row names or degrees changed in the round trip")
    expect(parsed.group.order == original.group.order, f"{what}: group order changed")
    for pr, orow in zip(parsed.rows, original.rows):
        pv = [pr.function.values[c] for c in parsed.display_classes]
        ov = [orow.function.values[c] for c in original.display_classes]
        check_same_values(pv, ov, f"{what} {orow.name}")


def load_digests():
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_cli_output(result, argv, digests):
    code, text = result
    key = " ".join(argv)
    expect(code == 0, f"`{key}` exited with {code}")
    expect(key in digests, f"`{key}` has no recorded digest")
    expect(digest(text) == digests[key], f"`{key}` output differs from the recorded bytes")

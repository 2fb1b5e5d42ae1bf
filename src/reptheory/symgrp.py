"""Partitions, Young diagram combinatorics, and the character theory of
the symmetric groups.

Character values chi_{V_lambda}(t) come from the Murnaghan-Nakayama
rule (Sagan, The Symmetric Group, 4.10): strip rim hooks of the lengths
in t off lambda, each with the sign (-1)^(height), worked on beta-sets.
Frobenius' formula, which the paper proves (chi_lambda(t) is the
coefficient of x^(lambda+rho) in Delta(x) * prod_m H_m(x)^(i_m)), is kept
in the test suite as the independent oracle. The permutation character
of the Young module U_lambda is a coefficient extraction: the
coefficient of x^lambda in prod_m H_m(x)^(i_m), with sparse polynomials
kept small by discarding every monomial that exceeds x^lambda
componentwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .chartab import CharacterTable, ClassFunction, TableRow
from .exact import Cyclotomic, cyc
from .permgroup import cycle_lengths, symmetric_group


# -- partitions ----------------------------------------------------------

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


def _check_partition(lam):
    lam = tuple(lam)
    if any(a < b for a, b in zip(lam, lam[1:])) or any(p < 1 for p in lam):
        raise ValueError(f"not a partition: {lam}")
    return lam


def conjugate_partition(lam):
    """Transpose of the Young diagram."""
    lam = _check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def hook_dim(lam):
    """Dimension of the Specht module, by the hook length formula."""
    lam = _check_partition(lam)
    n = sum(lam)
    conj = conjugate_partition(lam)
    denom = 1
    for r, row_len in enumerate(lam):
        for c in range(row_len):
            denom *= (row_len - c) + (conj[c] - r) - 1
    return factorial(n) // denom


def content(lam):
    """Sum over diagram cells of (column index - row index), 1-based in
    both coordinates."""
    lam = _check_partition(lam)
    return sum(i - j for j, row in enumerate(lam, start=1) for i in range(1, row + 1))


def sign_of_type(t):
    """Sign of any permutation with the given cycle type."""
    return (-1) ** sum(m - 1 for m in t)


# -- cycle types ---------------------------------------------------------

def type_multiplicities(t):
    """Cycle-length partition -> dict m -> i_m."""
    mult = {}
    for m in t:
        mult[m] = mult.get(m, 0) + 1
    return mult


def class_size(t):
    """Number of permutations with cycle type t (a partition of n made of
    the cycle lengths, fixed points included)."""
    t = _check_partition(t)
    n = sum(t)
    centralizer = 1
    for m, im in type_multiplicities(t).items():
        centralizer *= m ** im * factorial(im)
    return factorial(n) // centralizer


def centralizer_order(t):
    t = _check_partition(t)
    out = 1
    for m, im in type_multiplicities(t).items():
        out *= m ** im * factorial(im)
    return out


# -- capped sparse polynomials -------------------------------------------

def _mul_power_sum(poly, m, nvars, cap):
    """Multiply a sparse polynomial by H_m = sum_i x_i^m, discarding
    monomials that exceed cap componentwise."""
    out = {}
    for expo, coef in poly.items():
        for i in range(nvars):
            if expo[i] + m > cap[i]:
                continue
            new = expo[:i] + (expo[i] + m,) + expo[i + 1:]
            out[new] = out.get(new, 0) + coef
    return out


def u_character(lam, t):
    """Character of the Young permutation module U_lambda (induction of
    the trivial character from the row subgroup): coefficient of
    x^lambda in prod_m H_m^(i_m)."""
    lam, t = _check_partition(lam), _check_partition(t)
    if sum(lam) != sum(t):
        raise ValueError("partition and cycle type have different sizes")
    poly = {(0,) * len(lam): 1}
    for m in t:
        poly = _mul_power_sum(poly, m, len(lam), lam)
    return poly.get(lam, 0)


# -- Murnaghan-Nakayama ----------------------------------------------------

def frobenius_character(lam, t):
    """Character value chi_{V_lambda} at the class of cycle type t (the
    coefficient of x^(lambda+rho) in Delta(x) prod_m H_m^(i_m)), by the
    Murnaghan-Nakayama rule on beta-sets.

    The beta-set of lambda holds the first-column hook lengths
    lambda_i + N - 1 - i. Removing a rim hook of length r moves a bead
    from b to a free b - r >= 0, with sign (-1)^(number of beads strictly
    between). The hooks t[0], t[1], ... are removed one layer at a time,
    and each layer merges equal beta-sets, so every (beta-set, position in
    t) is expanded once."""
    lam, t = _check_partition(lam), _check_partition(t)
    if sum(lam) != sum(t):
        raise ValueError("partition and cycle type have different sizes")
    layer = {tuple(p + len(lam) - 1 - i for i, p in enumerate(lam)): 1}
    for r in t:
        nxt = {}
        for beads, coef in layer.items():
            for i, b in enumerate(beads):
                c = b - r
                if c < 0:
                    break
                if c in beads:
                    continue
                j = i + 1
                while j < len(beads) and beads[j] > c:
                    j += 1
                moved = beads[:i] + beads[i + 1:j] + (c,) + beads[j:]
                nxt[moved] = nxt.get(moved, 0) + (-coef if (j - i - 1) % 2 else coef)
        layer = nxt
    return sum(layer.values())


def kostka(mu, lam):
    """K_{mu,lambda} = multiplicity of V_mu in U_lambda, via the exact
    inner product over the classes of S_n."""
    mu, lam = _check_partition(mu), _check_partition(lam)
    n = sum(mu)
    if n != sum(lam):
        raise ValueError("partitions of different sizes")
    total = 0
    for t in partitions_of(n):
        total += class_size(t) * u_character(lam, t) * frobenius_character(mu, t)
    assert total % factorial(n) == 0
    return total // factorial(n)


def specht_dim_determinant(lam):
    """Independent dimension formula n!/prod l_j! * prod_{i<j} (l_i - l_j)
    with l_j = lambda_j + N - j (column-reduced Vandermonde form)."""
    lam = _check_partition(lam)
    n = sum(lam)
    nvars = max(len(lam), 1)
    ls = [lam[j] + nvars - 1 - j if j < len(lam) else nvars - 1 - j for j in range(nvars)]
    num = factorial(n)
    prod = 1
    for i in range(nvars):
        for j in range(i + 1, nvars):
            prod *= ls[i] - ls[j]
    den = 1
    for l in ls:
        den *= factorial(l)
    val = Fraction(num * prod, den)
    assert val.denominator == 1
    return int(val)


# -- the full table -------------------------------------------------------

def sn_table(n):
    """Complete character table of S_n (n <= 8), rows indexed by
    partitions and columns by cycle types, attached to the standard
    permutation realization of S_n."""
    if n < 1 or n > 8:
        raise ValueError("supported range is 1 <= n <= 8")
    group = symmetric_group(n)
    parts = partitions_of(n)
    type_of_class = [cycle_lengths(cl.representative) for cl in group.classes]
    class_of_type = {t: i for i, t in enumerate(type_of_class)}
    rows = []
    for lam in parts:
        values = [0] * len(group.classes)
        for t in parts:
            values[class_of_type[t]] = frobenius_character(lam, t)
        fn = ClassFunction(group, values)
        name = "V[" + ",".join(str(p) for p in lam) + "]"
        rows.append(TableRow(name, hook_dim(lam), fn))
    display = [class_of_type[t] for t in parts]
    labels = ["[" + ",".join(str(m) for m in t) + "]" for t in parts]
    return CharacterTable(group, rows, name=f"S{n}", display_classes=display,
                          class_labels=labels)


# -- Schur polynomials ------------------------------------------------------

def _cyc_det(rows):
    """Determinant of a square matrix of cyclotomics, by elimination."""
    n = len(rows)
    a = [list(r) for r in rows]
    result = cyc(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if not a[i][c].is_zero), None)
        if pr is None:
            return cyc(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            result = -result
        pivot = a[c][c]
        result = result * pivot
        inv = pivot.inverse()
        for i in range(c + 1, n):
            if not a[i][c].is_zero:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


def schur_eval(lam, points):
    """Schur polynomial S_lambda at the given points, as the exact ratio
    of alternants det(x_i^(lambda_j + N - j)) / det(x_i^(N - j)).

    The points must be pairwise distinct (otherwise the Vandermonde
    denominator vanishes; use schur_special for the classical limits)."""
    lam = _check_partition(lam)
    pts = [cyc(p) for p in points]
    nvars = len(pts)
    if nvars < len(lam):
        raise ValueError("need at least as many points as parts")
    for i in range(nvars):
        for j in range(i + 1, nvars):
            if pts[i] == pts[j]:
                raise ValueError("points must be pairwise distinct "
                                 "(use schur_special for the classical limits)")
    lam_full = list(lam) + [0] * (nvars - len(lam))
    powers = [lam_full[j] + nvars - 1 - j for j in range(nvars)]
    num = _cyc_det([[p ** e for e in powers] for p in pts])
    den = _cyc_det([[p ** (nvars - 1 - j) for j in range(nvars)] for p in pts])
    return num / den


def schur_special(lam, nvars, z=None):
    """Product-formula specializations: at the geometric point
    (1, z, ..., z^(N-1)) when z is given, and at the all-ones point
    otherwise (which returns the integer dimension)."""
    lam = _check_partition(lam)
    if len(lam) > nvars:
        raise ValueError("partition has more parts than variables")
    lam_full = list(lam) + [0] * (nvars - len(lam))
    if z is None:
        total = Fraction(1)
        for i in range(nvars):
            for j in range(i + 1, nvars):
                total *= Fraction(lam_full[i] - lam_full[j] + j - i, j - i)
        assert total.denominator == 1
        return int(total)
    z = Fraction(z)
    if z == 0 or z == 1 or z == -1:
        raise ValueError("geometric point needs z not in {0, 1, -1} "
                         "(the specialization points must stay distinct)")
    total = Fraction(1)
    for i in range(1, nvars + 1):
        for j in range(i + 1, nvars + 1):
            num = z ** (lam_full[i - 1] - i) - z ** (lam_full[j - 1] - j)
            den = z ** (-i) - z ** (-j)
            total *= Fraction(num, den)
    return total


def gl_dim(weights, nvars):
    """Dimension of the irreducible GL_N representation with the given
    weakly decreasing integer highest weight (negative entries allowed),
    by the Weyl dimension formula."""
    weights = tuple(weights)
    if len(weights) != nvars:
        raise ValueError("weight length must equal N")
    if any(a < b for a, b in zip(weights, weights[1:])):
        raise ValueError("weights must be weakly decreasing")
    total = Fraction(1)
    for i in range(nvars):
        for j in range(i + 1, nvars):
            total *= Fraction(weights[i] - weights[j] + j - i, j - i)
    assert total.denominator == 1
    return int(total)


def power_sum_value(points, t):
    """prod_m H_m(points)^(i_m) as an exact cyclotomic (test oracle for
    the expansion over Schur polynomials)."""
    pts = [cyc(p) for p in points]
    total = cyc(1)
    for m in t:
        h = cyc(0)
        for p in pts:
            h = h + p ** m
        total = total * h
    return total

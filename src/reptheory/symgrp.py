"""Partitions, Young diagram combinatorics, and the character theory of
the symmetric groups.

Character values chi_{V_lambda}(t) come from the Murnaghan-Nakayama
rule (Sagan, The Symmetric Group, 4.10): strip rim hooks of the lengths
in t off lambda, each with the sign (-1)^(height), worked on beta-sets.
A single value strips them off lambda (frobenius_character). A table
runs the rule forward, column by column: by Frobenius' formula
p_t = sum_lambda chi_lambda(t) s_lambda, multiplying the parts of t onto
s_() yields the whole column at t, each part r adding a rim hook of
length r to every partition held. Cycle types that share a prefix of
ascending parts share those products, so one depth-first walk over the
cycle types computes each prefix once (_columns); the per-entry rule is
its oracle in the tests. Frobenius' formula, which the paper proves
(chi_lambda(t) is the coefficient of x^(lambda+rho) in
Delta(x) * prod_m H_m(x)^(i_m)), is kept in the test suite as the
independent oracle. The permutation character of the Young module
U_lambda is a coefficient extraction: the coefficient of x^lambda in
prod_m H_m(x)^(i_m), with sparse polynomials kept small by discarding
every monomial that exceeds x^lambda componentwise. Its multiplicities,
the Kostka numbers K_{mu,lambda} of Young's rule U_lambda = sum_mu
K_{mu,lambda} V_mu, count semistandard tableaux backward over horizontal
strips, on one memo per lambda, kept until another lambda is asked, and
on an explicit stack, with no recursion.

The tables need no list of group elements: `permgroup.SymmetricGroup(n)`
holds the classes of S_n as cycle types, with sizes n!/z_t and power
maps read off the partitions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial
from operator import lt

from .chartab import CharacterTable
from .exact import ValuePool, cyc
from .linalg import det, short_repr
# S_n's class data sits with the named groups in permgroup
from .permgroup import MAX_TABLE_N, SymmetricGroup, partitions_of


# -- partitions ----------------------------------------------------------

def _check_partition(lam):
    lam = tuple(lam)
    # weakly decreasing, so the last part is the least
    if lam and (any(map(lt, lam, lam[1:])) or lam[-1] < 1):
        raise ValueError(f"not a partition: {short_repr(lam)}")
    return lam


def _conjugate(lam):
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0])) if lam else ()


def hook_dim(lam):
    """Dimension of the Specht module, by the hook length formula."""
    lam = _check_partition(lam)
    n = sum(lam)
    conj = _conjugate(lam)
    denom = 1
    for r, row_len in enumerate(lam):
        for c in range(row_len):
            denom *= (row_len - c) + (conj[c] - r) - 1
    return factorial(n) // denom


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
    return _murnaghan_nakayama(lam, t)


def _murnaghan_nakayama(lam, t):
    """frobenius_character for partitions lam and t of the same size,
    unchecked."""
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


def _horizontal_strips(shape, r):
    """Every partition rho with shape / rho a horizontal strip of r cells,
    that is shape[i + 1] <= rho[i] <= shape[i] and |shape| - |rho| = r,
    ordered by the cells taken from row 0, then from row 1, and so on.
    Only a corner row, longer than the row below it, can give cells. The
    corners are walked top down on a stack, and each gives at least what
    the corners below it cannot, so every branch ends in a strip."""
    corners, spare, below = [], 0, 0  # (row, cells it can give, cells the rows below can)
    for i in range(len(shape) - 1, -1, -1):
        if shape[i] > below:
            corners.append((i, shape[i] - below, spare))
            spare += shape[i] - below
        below = shape[i]
    if r > spare:
        return []
    corners.reverse()
    out = []
    stack = [(shape, 0, r)]
    while stack:
        rho, j, left = stack.pop()
        if j == len(corners):
            out.append(rho[:-1] if rho and not rho[-1] else rho)
            continue
        i, room, rest = corners[j]
        # pushed from the most cells down, so the fewest is popped first
        for take in range(min(left, room), max(0, left - rest) - 1, -1):
            stack.append((rho[:i] + (rho[i] - take,) + rho[i + 1:] if take else rho, j + 1, left - take))
    return out


@lru_cache(maxsize=1)
def _tableau_counts(lam):
    """The memo of kostka for content lam: counts[k][shape] is the number
    of semistandard tableaux of that shape with content lam[:k]. Only the
    last lam asked is kept, so the calls of one column share it."""
    counts = [{} for _ in range(len(lam) + 1)]
    counts[0][()] = 1
    return counts


# kostka's walk memoizes at most one count per partition inside mu, and a
# count costs about as much as 100 + len(mu) parts of tuple work: mu is
# refused when its partitions inside, times (100 + len(mu)) / 100, are
# more than this. K_{(300,300),1^600} (45451 partitions) takes 0.6 s on
# 2 vCPUs and passes; K_{(2^400),1^800} (80601 of 400 parts) took 4.5 s
# and is refused
MAX_KOSTKA_SHAPES = 50000


def _check_walk(mu):
    """ValueError if kostka's walk for mu may hold more shapes than
    MAX_KOSTKA_SHAPES allows. The rectangle around mu holds
    comb(len(mu) + mu_1, len(mu)) partitions, which settles most mu at
    once. Otherwise they are counted row by row, ways[v] those inside the
    rows so far whose last part is v, until there are more than the cap:
    the count after i rows is at least mu_1 + ... + mu_i, and row i costs
    mu_(i-1) steps, so that takes about cap + len(mu) steps."""
    cap = 100 * MAX_KOSTKA_SHAPES // (100 + len(mu))
    if not mu or mu[0] < cap and comb(len(mu) + mu[0], len(mu)) <= cap:
        return
    total = mu[0] + 1
    if total <= cap:
        ways = [1] * total
        for m in mu[1:]:
            ways = list(accumulate(reversed(ways)))[::-1][:m + 1]
            total = sum(ways)
            if total > cap:
                break
    if total > cap:
        raise ValueError(f"Kostka numbers take a mu with at most {cap} partitions inside it, "
                         f"as len(mu) = {len(mu)}; this one has more")


def kostka(mu, lam):
    """K_{mu,lambda} = multiplicity of V_mu in U_lambda, the number of
    semistandard tableaux of shape mu and content lambda. The cells
    holding the largest entry form a horizontal strip of lambda_last
    cells; removing it leaves a tableau of content lambda minus its last
    part, so the count runs backward over those strips, each shape counted
    once. The counts are memoized per lambda and kept until another lambda
    is asked, so the K_{mu,lambda} of one column share them; the walk keeps
    its own stack, with no recursion, so a lambda of any length works."""
    mu, lam = _check_partition(mu), _check_partition(lam)
    if sum(mu) != sum(lam):
        raise ValueError("partitions of different sizes")
    if len(mu) > len(lam):
        return 0
    counts = _tableau_counts(lam)
    if mu not in counts[-1]:
        _check_walk(mu)
    # (shape, k, strips): strips is None until the shape's strips are
    # listed, and then the entry waits under the strips not yet counted
    stack = [(mu, len(lam), None)]
    while stack:
        shape, k, strips = stack.pop()
        if shape in counts[k]:
            continue
        below = counts[k - 1]
        if strips is None:
            # a tableau with content lam[:k - 1] has at most k - 1 rows
            strips = [rho for rho in _horizontal_strips(shape, lam[k - 1]) if len(rho) < k]
            todo = [(rho, k - 1, None) for rho in strips if rho not in below]
            if todo:
                stack.append((shape, k, strips))
                stack += todo
                continue
        counts[k][shape] = sum(map(below.__getitem__, strips))
    return counts[len(lam)][mu]


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
    if val.denominator != 1:
        raise AssertionError(f"dimension of the Specht module {lam} is not an integer")
    return int(val)


# -- the full table -------------------------------------------------------

def _columns(n):
    """{cycle type t: {beta-set: chi_lambda(t)}} for every partition t of
    n; a beta-set is an int whose bits are the n beads lambda_i + n - 1 - i
    (zero parts included), and a lambda not listed has value 0 at t. From
    the empty partition, beads 0..n-1, adding a part r moves a bead from b
    to a free b + r with sign (-1)^(beads strictly between). The parts go
    in ascending order, so after a part r the rest is 0 or at least r."""
    columns = {}

    def walk(state, t, rest, least):
        if not rest:
            columns[t] = state
            return
        for r in [*range(least, rest // 2 + 1), rest]:
            nxt = {}
            get = nxt.get
            for beads, coef in state.items():
                free = beads & ~(beads >> r)  # beads b with b + r free
                while free:
                    low = free & -free
                    free ^= low
                    moved = beads ^ low ^ (low << r)
                    between = beads & ((low << r) - (low << 1))
                    nxt[moved] = get(moved, 0) + (-coef if between.bit_count() & 1 else coef)
            walk(nxt, (r,) + t, rest - r, r)

    walk({(1 << n) - 1: 1}, (), n, 1)
    return columns


def sn_table(n):
    """Complete character table of S_n (1 <= n <= MAX_TABLE_N), rows
    indexed by partitions and columns by cycle types, over the class data
    of SymmetricGroup(n). The values are integers, read off the
    Murnaghan-Nakayama columns; each distinct one becomes a Cyclotomic
    once, in a pool that the table takes with its index as they are
    (CharacterTable.from_pool)."""
    if not 1 <= n <= MAX_TABLE_N:
        raise ValueError(f"supported range is 1 <= n <= {MAX_TABLE_N}")
    group = SymmetricGroup(n)
    parts = partitions_of(n)
    by_type = _columns(n)
    columns = [by_type[cl.cycle_type] for cl in group.classes]
    degrees = by_type[(1,) * n]  # chi_lambda(1), the identity class's column
    pool = ValuePool()
    at = pool.slots(cyc)  # the pool position of each integer value
    # the beta-set of each lam over n beads, its zero parts in bits 0..n - len(lam) - 1
    beads = [sum(1 << (p + n - 1 - i) for i, p in enumerate(lam)) | ((1 << (n - len(lam))) - 1)
             for lam in parts]
    index = [[at[column.get(b, 0)] for column in columns] for b in beads]
    names = ["V[" + ",".join(str(p) for p in lam) + "]" for lam in parts]
    display = [group.type_index[t] for t in parts]
    labels = ["[" + ",".join(str(m) for m in t) + "]" for t in parts]
    return CharacterTable.from_pool(group, names, [degrees[b] for b in beads], pool.values, index,
                                    name=f"S{n}", display_classes=display, class_labels=labels)


# -- Schur polynomials ------------------------------------------------------

# the alternants are N x N determinants of powers: N is bounded before any work
MAX_VARIABLES = 32


def _check_variable_count(nvars):
    if nvars > MAX_VARIABLES:
        raise ValueError(f"a Schur polynomial takes at most {MAX_VARIABLES} variables, got {nvars}")


def schur_eval(lam, points):
    """Schur polynomial S_lambda at the given points, as the exact ratio
    of alternants det(x_i^(lambda_j + N - j)) / det(x_i^(N - j)).

    The points must be pairwise distinct (otherwise the Vandermonde
    denominator vanishes; use schur_special for the classical limits)."""
    nvars = len(points)
    _check_variable_count(nvars)
    lam = _check_partition(lam)
    pts = [cyc(p) for p in points]
    if nvars < len(lam):
        raise ValueError("need at least as many points as parts")
    # the Vandermonde determinant vanishes exactly when two points agree
    den = det([[p ** (nvars - 1 - j) for j in range(nvars)] for p in pts])
    if den == 0:
        raise ValueError("points must be pairwise distinct "
                         "(use schur_special for the classical limits)")
    lam_full = list(lam) + [0] * (nvars - len(lam))
    powers = [lam_full[j] + nvars - 1 - j for j in range(nvars)]
    return cyc(det([[p ** e for e in powers] for p in pts])) / den


def schur_special(lam, nvars, z=None):
    """Product-formula specializations: at the geometric point
    (1, z, ..., z^(N-1)) when z is given, and at the all-ones point
    otherwise (which returns the integer dimension)."""
    _check_variable_count(nvars)
    lam = _check_partition(lam)
    if len(lam) > nvars:
        raise ValueError("partition has more parts than variables")
    lam_full = list(lam) + [0] * (nvars - len(lam))
    if z is None:
        return gl_dim(lam_full, nvars)
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
    if total.denominator != 1:
        raise AssertionError(f"Weyl dimension of {weights} is not an integer")
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

"""Seeded job mixes, one generator per workload.

A generator takes a random.Random and returns the job list of one pass.
Every input is made here, before any timing starts: tables the jobs read,
base-changed quiver representations, class functions to decompose. A job
is a label that names all of its inputs, a zero-argument callable that
calls the public reptheory API, and a check that tests the output against
a fact from checks.py. Jobs that consume an earlier job's output in the
same pass (verify after build, parse after export) read it from a dict
shared by the pass, in list order.

The counts per job kind are fixed; the seed picks the parameters, so the
work in a pass is about the same for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import reptheory as rt
from reptheory import chartab, cli, exact, gl2fq, quiverrep, rootsys
from reptheory.linalg import Matrix

import checks as ck


class Job:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def mix_digest(jobs):
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.label.encode())
        h.update(b"\n")
    return h.hexdigest()


def _row_pairs(rng, k, count):
    """Seeded row pairs i <= j, leaving out the trivial row 0."""
    return [tuple(sorted((rng.randrange(1, k), rng.randrange(1, k)))) for _ in range(count)]


def _interleave(rng, producers, rest):
    """The producers (jobs whose outputs later jobs read) in order, then the
    other jobs in seeded order. Spreading each tier of jobs over the whole
    pass lets it sample the machine at many moments, which steadies the
    percentiles on a machine whose speed drifts."""
    rng.shuffle(rest)
    return producers + rest


def _tensor_job(name, table, i, j, golden=None):
    degrees = [r.degree for r in table.rows]
    return Job(f"tensor {name} {i} {j}",
               lambda: chartab.tensor_multiplicities(table, i, j),
               lambda out: ck.check_tensor(out, degrees, i, j, golden))


# -- sn-tables ------------------------------------------------------------------

SN_SIZES = (5, 6, 7, 8)
# Tensor jobs and Kostka columns per n, 100 jobs in all. Job costs fall
# into tiers that do not depend on the seed (a Kostka column of S6 costs
# about what sn_table(6) costs); the counts put the median inside the S7
# tensor tier and the 90th percentile inside the tier of the S6 Kostka
# columns, away from tier edges.
SN_TENSORS = {5: 15, 6: 20, 7: 30, 8: 6}
SN_KOSTKA_COLUMNS = {5: 7, 6: 11, 7: 3}


def sn_tables(rng):
    built = {}
    builds, jobs = [], []
    for n in SN_SIZES:
        def build(n=n):
            built.pop(n, None)  # the previous pass's table must not add to peak memory
            built[n] = rt.sn_table(n)
            return built[n]

        def verify(n=n):
            return rt.verify_table(built[n])

        k = len(ck.partitions(n))
        degrees = [ck.hook_length_dim(lam) for lam in ck.partitions(n)]
        builds.append(Job(f"sn_table {n}", build, lambda out, n=n: ck.check_sn_table(out, n)))
        jobs.append(Job(f"verify_table S{n}", verify,
                        lambda out, k=k: ck.check_report(out, ck.table_verify_entries(k))))
        for i, j in _row_pairs(rng, k, SN_TENSORS[n]):
            jobs.append(Job(f"tensor S{n} {i} {j}",
                            lambda n=n, i=i, j=j: chartab.tensor_multiplicities(built[n], i, j),
                            lambda out, d=degrees, i=i, j=j: ck.check_tensor(out, d, i, j)))
    for n, count in SN_KOSTKA_COLUMNS.items():
        parts = ck.partitions(n)
        for lam in rng.sample(parts, count):
            jobs.append(Job(f"kostka column {lam}",
                            lambda lam=lam, parts=parts: {mu: rt.kostka(mu, lam) for mu in parts},
                            lambda out, lam=lam: ck.check_kostka_column(out, lam)))
    return _interleave(rng, builds, jobs)


# -- gl2-verify ------------------------------------------------------------------

GL2_QS = (3, 5, 7, 11)
# gl2_verify at q = 11 alone takes about 15 s, more than a whole run may;
# q = 11 is verified by seeded row-pair inner products instead, the
# products gl2_verify is made of (a quarter of them on the diagonal).
VERIFY_QS = (3, 5, 7)
GL2_PAIRS = 60
DIHEDRAL_N = 8
SMALL_TENSORS = {"S3": 10, "S4": 14, "A4": 14, "A5": 14, "dihedral": 14, "heisenberg": 8}
SMALL_DECOMPOSE = 6


def _combination(table, coeffs):
    """The class function sum_i c_i chi_i on the table's group."""
    values = [exact.zero()] * len(table.group.classes)
    for c, row in zip(coeffs, table.rows):
        if c:
            values = [v + c * x for v, x in zip(values, row.function.values)]
    return chartab.ClassFunction(table.group, values)


def gl2_verify(rng):
    built = {}
    builds, jobs = [], []
    for q in GL2_QS:
        def build(q=q):
            built.pop(q, None)
            built[q] = rt.gl2_table(q)
            return built[q]

        builds.append(Job(f"gl2_table {q}", build, lambda out, q=q: ck.check_gl2_table(out, q)))
        if q in VERIFY_QS:
            jobs.append(Job(f"gl2_verify {q}", lambda q=q: rt.gl2_verify(built[q]),
                            lambda out, q=q: ck.check_report(out, ck.gl2_verify_entries(q))))
    q = GL2_QS[-1]

    def inner_product(i, j):
        return built[q].inner_product(built[q].rows[i].values, built[q].rows[j].values)

    for _ in range(GL2_PAIRS):
        i = rng.randrange(q * q - 1)
        j = i if rng.random() < 0.25 else rng.randrange(q * q - 1)
        jobs.append(Job(f"inner_product {q} {i} {j}", lambda i=i, j=j: inner_product(i, j),
                        lambda out, i=i, j=j: ck.check_orthonormal(out, i, j)))
    tables = {name: chartab.builtin_table(name) for name in ("S3", "S4", "A4", "A5")}
    tables["dihedral"] = chartab.semidirect_table(chartab.dihedral_semidirect(DIHEDRAL_N))
    tables["heisenberg"] = chartab.semidirect_table(chartab.heisenberg_semidirect())
    for name in ("A5", "A4", "dihedral", "heisenberg"):
        table = tables[name]
        k = len(table.rows)
        jobs.append(Job(f"verify_table {name} {k}", lambda t=table: rt.verify_table(t),
                        lambda out, k=k: ck.check_report(out, ck.table_verify_entries(k))))
        degrees = [r.degree for r in table.rows]
        for _ in range(SMALL_DECOMPOSE - 1):
            coeffs = [rng.randrange(0, 4) for _ in range(k)]
            f = _combination(table, coeffs)
            jobs.append(Job(f"decompose {name} {coeffs}",
                            lambda f=f, t=table: chartab.decompose(f, t),
                            lambda out, c=coeffs, nm=name: ck.check_multiplicities(out, c, nm)))
        regular = chartab.regular_character(table.group)
        jobs.append(Job(f"decompose {name} regular", lambda f=regular, t=table: chartab.decompose(f, t),
                        lambda out, d=degrees, nm=name: ck.check_multiplicities(out, d, nm)))
    for name, count in SMALL_TENSORS.items():
        table = tables[name]
        for i, j in _row_pairs(rng, len(table.rows), count):
            jobs.append(_tensor_job(name, table, i, j, ck.golden_tensor(name, i, j)))
    return _interleave(rng, builds, jobs)


# -- dynkin ------------------------------------------------------------------------

def _diagram_edges(family, n):
    """Edges of A_n, D_n, E_n in reptheory's vertex numbering."""
    if family == "A":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    return [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]


def _star_edges(arms):
    """A center with arms of the given lengths (a T-shaped tree for 3 arms)."""
    edges, nxt = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return nxt, edges


def _relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[s], perm[t]) for s, t in edges]


def _classify_inputs(rng):
    """(n, edges, expected (kind, name)) for Dynkin, affine and indefinite
    graphs with random vertex labels. The seed also picks the sizes of A_n,
    D_n and the small cycles A~m; the other affine graphs and the indefinite
    ones are fixed, because classify tests every principal minor of those
    and its cost grows as 2^n."""
    out = []
    for family, n in (("A", rng.randrange(4, 9)), ("D", rng.randrange(4, 9)),
                      ("E", 6), ("E", 7), ("E", 8)):
        name = f"E{n}" if family == "E" else f"{family}_{n}"
        out.append((n, _diagram_edges(family, n), ("dynkin", name)))
    m = rng.randrange(3, 6)
    out.append((m + 1, [(i, (i + 1) % (m + 1)) for i in range(m + 1)], ("affine", f"affine (A~{m})")))
    edges = [(0, 2), (1, 2), (4, 3), (5, 3), (2, 3)]
    out.append((6, edges, ("affine", "affine (D~5)")))
    for arms, name in (((1, 1, 1, 1), "D~4"), ((2, 2, 2), "E~6"), ((1, 3, 3), "E~7"),
                       ((1, 2, 5), "E~8")):
        out.append(_star_edges(arms) + (("affine", f"affine ({name})"),))
    for arms in ((1, 2, 6), (1, 3, 4), (2, 2, 3), (1, 1, 1, 2), (1, 1, 1, 1, 1)):
        out.append(_star_edges(arms) + (("indefinite", "indefinite"),))
    out.append((6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)], ("indefinite", "indefinite")))
    return [(n, _relabel(rng, n, edges), label) for n, edges, label in out]


def _unimodular(rng, n):
    """A random integer matrix of determinant 1 and its inverse, from 2n
    elementary row operations."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in g]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        for row in inv:
            row[j] -= c * row[i]
    return g, inv


def _matmul(x, y):
    """x * y for list-of-rows matrices, skipping zero entries of x."""
    cols = len(y[0]) if y else 0
    out = []
    for row in x:
        acc = [0] * cols
        for k, v in enumerate(row):
            if v:
                acc = [a + v * b for a, b in zip(acc, y[k])]
        out.append(acc)
    return out


def _base_changed_sum(rng, quiver, indecomposables):
    """The direct sum of the given indecomposables (block diagonal at each
    vertex), conjugated by a random unimodular base change per vertex."""
    dims = [sum(rep.dims[v] for rep in indecomposables) for v in range(quiver.n)]
    change = [_unimodular(rng, d) for d in dims]
    maps = []
    for k, (s, t) in enumerate(quiver.arrows):
        block = [[Fraction(0)] * dims[s] for _ in range(dims[t])]
        r0 = c0 = 0
        for rep in indecomposables:
            m = rep.maps[k]
            for i in range(m.rows):
                block[r0 + i][c0:c0 + m.cols] = m.entries[i]
            r0 += m.rows
            c0 += m.cols
        if dims[s] and dims[t]:
            block = _matmul(_matmul(change[t][0], block), change[s][1])
        maps.append(Matrix(dims[t], dims[s], block))
    return quiverrep.QuiverRep(quiver, dims, maps)


# D6 is left out: its Weyl closure (23040 elements) takes about 6.6 s, about
# as long as everything else in a pass together.
WEYL_TYPES = (("A", 4), ("A", 5), ("A", 6), ("D", 4), ("D", 5))
QUIVER_TYPES = (("D", 4), ("D", 5), ("D", 6), ("E", 6), ("E", 7))
# The total dimensions of the decompositions in a pass, each on every
# quiver type: many small ones and a few large ones.
DECOMPOSE_DIMS = (20, 22, 24, 26, 28, 32, 40, 56)


def _decompose_input(rng, quiver, total, roots, summand_of):
    """A seeded multiset of positive roots summing to a dimension vector
    fixed by the slot (the highest root scaled to the given total), and
    the direct sum of their indecomposables after a seeded base change."""
    highest = roots[-1]
    left = [round(total * c / sum(highest)) for c in highest]
    chosen = []
    while any(left):
        root = rng.choice([r for r in roots if all(c <= x for c, x in zip(r, left))])
        chosen.append(root)
        left = [x - c for x, c in zip(left, root)]
    for root in chosen:
        if root not in summand_of:
            summand_of[root] = quiverrep.indecomposable_for_root(quiver, root)
    return chosen, _base_changed_sum(rng, quiver, [summand_of[r] for r in chosen])


def dynkin(rng):
    jobs = []
    for n, edges, label in _classify_inputs(rng):
        graph = rootsys.Graph.from_edges(n, edges)
        jobs.append(Job(f"classify {n} {sorted(edges)}", lambda g=graph: rt.classify(g),
                        lambda out, lb=label: ck.check_classification(out, lb)))
    for family, n in (("D", rng.randrange(4, 9)), ("E", 6), ("E", 7), ("E", 8)):
        a = ck.cartan(n, _diagram_edges(family, n))
        jobs.append(Job(f"enumerate_roots {family}{n}", lambda a=a: rt.enumerate_roots(a),
                        lambda out, a=a, f=family, n=n: ck.check_roots(out, a, f, n)))
        jobs.append(Job(f"coxeter_element {family}{n}", lambda a=a: rt.coxeter_element(a),
                        lambda out, f=family, n=n: ck.check_coxeter(out, f, n)))
    for family, n in WEYL_TYPES:
        a = ck.cartan(n, _diagram_edges(family, n))
        want = ck.weyl_order(family, n)
        jobs.append(Job(f"weyl_count {family}{n}", lambda a=a: rootsys.weyl_count(a),
                        lambda out, w=want, f=family, n=n: ck.expect(
                            out == w, f"|W({f}{n})| = {out}, invariant degrees give {w}")))
    for family, n in QUIVER_TYPES:
        # one fixed orientation per diagram: the reflection walk, and so the
        # cost of every job on the quiver, depends on it
        quiver = quiverrep.Quiver(n, _diagram_edges(family, n))
        a = ck.cartan(n, _diagram_edges(family, n))
        jobs.append(Job(f"enumerate_indecomposables {family}{n} {quiver.arrows}",
                        lambda q=quiver: rt.enumerate_indecomposables(q),
                        lambda out, a=a, f=family, n=n: ck.check_indecomposables(out, a, f, n)))
        roots = rootsys.enumerate_roots(a)[0]
        summand_of = {}
        for total in DECOMPOSE_DIMS:
            chosen, rep = _decompose_input(rng, quiver, total, roots, summand_of)
            digest = hashlib.sha256(repr([m.entries for m in rep.maps]).encode()).hexdigest()[:16]
            jobs.append(Job(f"decompose {family}{n} {quiver.arrows} {sorted(chosen)} {digest}",
                            lambda v=rep: rt.decompose(v),
                            lambda out, c=chosen: ck.check_decomposition(out, c)))
    return _interleave(rng, [], jobs)


# -- artifacts ----------------------------------------------------------------------

EXPORT_QS = (7, 11, 13)
ROUNDTRIP_TABLES = ("S4", "S5", "S6", "S7", "S3", "A4", "A5", "Q8")


def cli_catalog():
    """Every CLI render the artifacts workload may run; cli_digests.json
    holds one digest per entry."""
    out = []
    names = ["S3", "A4", "S4", "A5", "Q8"] + [f"D{n}" for n in range(5, 15)] \
        + [f"Z{n}" for n in range(5, 24)]
    for name in names:
        out.append(["chartab", "show", name])
        out.append(["chartab", "show", name, "--numeric"])
    for n in (4, 5, 6):
        out.append(["sn", "table", str(n)])
    for n in range(5, 19):
        out.append(["semidirect", "table", "dn", "--n", str(n)])
    out.append(["semidirect", "table", "heisenberg"])
    return out


def render(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _check_export(text, table):
    obj = json.loads(text)
    ck.expect(len(obj["rows"]) == len(table.rows), "exported row count differs")
    for row, orow in zip(obj["rows"], table.rows):
        for v, o in zip(row["values"], orow.values):
            coeffs = [Fraction(s) for s in v["coeffs"]]
            ck.expect(v["order"] == o.order and coeffs == [Fraction(c, o.den) for c in o.num],
                      f"exported value of {orow.name} differs from the table")


def _parse_values(text):
    obj = json.loads(text)
    return [exact.cyclotomic_from_json(v) for row in obj["rows"] for v in row["values"]]


def artifacts(rng):
    """Exports, parses and round trips of fixed artifacts, and every CLI
    render of the catalog once, in an order the seed picks; the digests
    pin each render's bytes, so the renders themselves are not drawn."""
    exported = {}
    exports, jobs = [], []
    for q in EXPORT_QS:
        table = gl2fq.gl2_table(q)
        values = [v for row in table.rows for v in row.values]

        def export(q=q, t=table):
            exported.pop(q, None)
            exported[q] = json.dumps(gl2fq.gl2_table_to_json(t))
            return exported[q]

        exports.append(Job(f"gl2 export {q}", export, lambda out, t=table: _check_export(out, t)))
        jobs.append(Job(f"gl2 parse {q}", lambda q=q: _parse_values(exported[q]),
                        lambda out, v=values, q=q: ck.check_same_values(out, v, f"GL2({q})")))
    for name in ROUNDTRIP_TABLES:
        table = rt.sn_table(int(name[1:])) if name[0] == "S" and name not in chartab.BUILTIN_TABLE_NAMES \
            else chartab.builtin_table(name)

        def roundtrip(t=table, name=name):
            text = json.dumps(chartab.table_to_json(t, group_name=name))
            return chartab.table_from_json(json.loads(text))

        jobs.append(Job(f"table roundtrip {name}", roundtrip,
                        lambda out, t=table, nm=name: ck.check_same_table(out, t, nm)))
    digests = ck.load_digests()
    for argv in cli_catalog():
        jobs.append(Job("cli " + " ".join(argv), lambda a=argv: render(a),
                        lambda out, a=argv: ck.check_cli_output(out, a, digests)))
    return _interleave(rng, exports, jobs)


WORKLOADS = {
    "sn-tables": sn_tables,
    "gl2-verify": gl2_verify,
    "dynkin": dynkin,
    "artifacts": artifacts,
}

# About how long one pass of each mix takes on the machine the benchmark
# was built on; run.py makes max(2, seconds // PASS_SECONDS) passes.
PASS_SECONDS = {
    "sn-tables": 6,
    "gl2-verify": 2,
    "dynkin": 6,
    "artifacts": 7,
}

# One untimed job per workload, run after the import in every fresh process.
WARMUPS = {
    "sn-tables": "reptheory.verify_table(reptheory.sn_table(5))",
    "gl2-verify": "reptheory.gl2_verify(reptheory.gl2_table(5))",
    "dynkin": "reptheory.decompose(reptheory.enumerate_indecomposables("
              "reptheory.Quiver(4, [(0, 2), (1, 2), (3, 2)]))[5][1])",
    "artifacts": "import contextlib, io, reptheory.cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    reptheory.cli.main(['chartab', 'show', 'A5'])",
}

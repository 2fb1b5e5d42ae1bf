"""The checks CI runs after the selftest: the largest inputs the commands
take, pinned digests and counts, typed input errors, the scripts and
table file round trips, one test each.

Every test runs the library in a fresh interpreter under this one's
optimize flag, so

    PYTHONPATH=src python -O -m pytest -q ci

runs it under python -O, which removes asserts. The asserts are here, in
a test module, where pytest keeps them under -O as well. A test runs the
CLI, a script, or a `probe_` function of this module: `python
ci/test_top_of_range.py probe_<name> [args]` runs one and prints its
result as JSON on the last line of stdout. Each subprocess has a timeout,
so a hang fails its test.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
PYTHON = [sys.executable, *["-O"] * sys.flags.optimize]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run(*argv, timeout, code=0, stdout=subprocess.PIPE):
    """`python *argv` from the repository root, under this interpreter's
    optimize flag; asserts that it exits with `code`."""
    proc = subprocess.run([*PYTHON, *map(str, argv)], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT, env=ENV, timeout=timeout)
    assert proc.returncode == code, proc.stderr
    return proc


def cli(*argv, timeout, code=0, stdout=subprocess.PIPE):
    return run("-m", "reptheory.cli", *argv, timeout=timeout, code=code, stdout=stdout)


def cli_to_file(path, *argv, timeout):
    with open(path, "w") as fh:
        cli(*argv, timeout=timeout, stdout=fh)


def probe(name, *args, timeout):
    """The result of this module's function `name` on `args`, run in a
    fresh interpreter."""
    return json.loads(run(__file__, name, *args, timeout=timeout).stdout.splitlines()[-1])


def text(proc):
    # stdout without its trailing newlines
    return proc.stdout.rstrip("\n")


def sha256_of_stdout(*argv, timeout):
    """The sha256 of the CLI's stdout, read in chunks: the GL2(F_31) JSON
    is 1.2 GB, too much to hold."""
    digest = hashlib.sha256()
    with subprocess.Popen([*PYTHON, "-m", "reptheory.cli", *argv], stdout=subprocess.PIPE,
                          cwd=ROOT, env=ENV) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
                digest.update(chunk)
        finally:
            timer.cancel()
    assert proc.returncode == 0, f"exit {proc.returncode} (killed after {timeout} s if negative)"
    return digest.hexdigest()


def probe_inverse_at_order_360():
    from reptheory.exact import zeta
    a = 5 * zeta(360, 191) + 7 * zeta(360, 261) - zeta(360, 279) - 8
    return a * a.inverse() == 1


def test_cyclotomic_inverse_at_order_360():
    assert probe("probe_inverse_at_order_360", timeout=60) is True


def probe_large_order_texts(*orders):
    from reptheory.exact import cyclotomic_from_json, euler_phi
    return {n: str(cyclotomic_from_json({"order": int(n), "coeffs": ["1/1", "1/1"]
                                         + ["0/1"] * (euler_phi(int(n)) - 2)}))
            for n in orders}


def test_values_of_large_order_read_from_json():
    # z + 1 at order 2310 (32 divisors) and at the prime order 20011, read
    # and printed, against the texts of reference_str in tests/test_exact.py
    want = json.loads((GOLDEN / "large_order_texts.json").read_text())
    assert sorted(want) == ["20011", "2310"]
    assert probe("probe_large_order_texts", *want, timeout=10) == want


def test_gabriel_census_of_e8():
    # one indecomposable per positive root, 120 for E8
    out = text(cli("quiver", "indecomposables", "--type", "E8", timeout=20))
    assert out.split("\n")[0] == "120 indecomposable representations"


def probe_gabriel_enumeration(name):
    """The exit code and first line of `quiver indecomposables --type name`,
    and this process's peak RSS in MB after it."""
    import contextlib
    import io
    import resource
    from reptheory.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["quiver", "indecomposables", "--type", name])
    return [code, out.getvalue().split("\n")[0], resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]


def test_gabriel_enumeration_at_the_top_of_its_range():
    # A58 and D46 are the largest A_n and D_n within
    # quiverrep.MAX_WALK_STATES (n * |positive roots| <= 100000; about 2 s
    # each on 2 vCPUs); A59, D47, A200 and D200 are refused before the walk.
    # The walk keeps one state per chain, so the peak RSS stays under 80 MB
    # (about 30 and 34 MB)
    for name, count in (("A58", 58 * 59 // 2), ("D46", 46 * 45)):
        code, first, rss_mb = probe("probe_gabriel_enumeration", name, timeout=60)
        assert [code, first] == [0, f"{count} indecomposable representations"], name
        assert rss_mb <= 80, (name, rss_mb)
    for name in ("A59", "D47", "A200", "D200"):
        proc = cli("quiver", "indecomposables", "--type", name, timeout=5, code=1)
        assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1, name
        assert proc.stderr.startswith("error: Gabriel's enumeration walks n * |positive roots| states"), name


def probe_quiver_modules():
    from reptheory.cli import main
    code = main(["quiver", "indecomposables", "--type", "E8"])
    return [code, sorted(m for m in sys.modules if m in {"reptheory." + n for n in
            ("exact", "permgroup", "chartab", "symgrp", "gl2fq")})]


def test_quiver_commands_load_no_character_table_module():
    # the package imports each name on first use and the CLI per subcommand
    assert probe("probe_quiver_modules", timeout=20) == [0, []]


def probe_gabriel_maps(path):
    from reptheory.quiverrep import Quiver, enumerate_indecomposables, rep_to_json
    cases = [c for c in json.loads(Path(path).read_text()) if c["name"] == "E8"]
    return [[[list(r), hashlib.sha256(json.dumps(rep_to_json(v), sort_keys=True).encode()).hexdigest()]
             for r, v in enumerate_indecomposables(Quiver(c["vertices"], c["arrows"]))]
            for c in cases]


def test_gabriel_maps_of_e8():
    # the sha256 of rep_to_json of every E8 indecomposable in both
    # orientations pinned in the golden file
    path = GOLDEN / "gabriel_maps.json"
    cases = [c for c in json.loads(path.read_text()) if c["name"] == "E8"]
    assert len(cases) == 2
    assert probe("probe_gabriel_maps", path, timeout=20) == [c["indecomposables"] for c in cases]


def probe_e8_sum(path, total="240", cap=None):
    """Writes to `path` a seeded sum of E8 indecomposables, each vertex
    under a seeded unimodular base change, and returns the roots it was
    built from, one line each with its multiplicity, as `quiver decompose`
    prints them. Roots are drawn until their total dimension reaches
    `total`, a draw that would take it past `cap` skipped: 242 by default
    (the largest vertex space 51)."""
    import random
    from functools import reduce
    from reptheory import Matrix, Quiver, enumerate_indecomposables
    from reptheory.quiverrep import QuiverRep, direct_sum, rep_to_json
    rng = random.Random(240)
    q = Quiver(8, [(0, 1), (1, 2), (2, 3), (2, 7), (3, 4), (4, 5), (5, 6)])
    found, chosen = enumerate_indecomposables(q), []
    while (dim := sum(sum(root) for root, _ in chosen)) < int(total):
        pick = rng.choice(found)
        if cap is None or dim + sum(pick[0]) <= int(cap):
            chosen.append(pick)
    v = reduce(direct_sum, [rep for _, rep in chosen])

    def unimodular(d):
        g, h = ([[int(i == j) for j in range(d)] for i in range(d)] for _ in range(2))
        for _ in range(2 * d if d > 1 else 0):
            i, j = rng.sample(range(d), 2)
            c = rng.choice((-2, -1, 1, 2))
            g[i] = [a + c * b for a, b in zip(g[i], g[j])]
            for row in h:
                row[j] -= c * row[i]
        return Matrix(d, d, g), Matrix(d, d, h)

    change = [unimodular(d) for d in v.dims]
    maps = [change[t][0] * m * change[s][1] for (s, t), m in zip(q.arrows, v.maps)]
    with open(path, "w") as fh:
        json.dump(rep_to_json(QuiverRep(q, v.dims, maps)), fh)
    roots = sorted(root for root, _ in chosen)
    return "\n".join("(" + ",".join(map(str, r)) + f") x {roots.count(r)}"
                     for r in sorted(set(roots)))


def test_large_e8_decomposition(tmp_path):
    # quiver decompose must print the roots the sum was built from
    path = tmp_path / "e8-sum.json"
    want = probe("probe_e8_sum", path, timeout=60)
    assert len(want.split("\n")) > 1
    assert text(cli("quiver", "decompose", "--rep", path, timeout=30)) == want


def probe_decompose(path):
    """The exit code, stdout, seconds and this process's peak RSS in MB
    of `quiver decompose --rep path`."""
    import contextlib
    import io
    import resource
    from reptheory.cli import main
    out, start = io.StringIO(), time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["quiver", "decompose", "--rep", str(path)])
    return [code, out.getvalue().rstrip("\n"), time.perf_counter() - start,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]


def test_decompose_at_the_top_of_its_range(tmp_path):
    # quiverrep.MAX_DECOMPOSE_DIM = 500: a seeded base-changed E8 sum of
    # total dimension 500 takes about 2 s and 20 MB on 2 vCPUs. Dims
    # (501, 0) on 0 -> 1, a file of about 120 bytes whose first sink step
    # would build the 501 x 501 identity, are refused before the walk
    bound = 500
    path = tmp_path / "e8-sum.json"
    want = probe("probe_e8_sum", path, bound, bound, timeout=60)
    assert sum(json.loads(path.read_text())["dims"]) == bound
    code, out, seconds, rss_mb = probe("probe_decompose", path, timeout=120)
    assert [code, out] == [0, want]
    assert seconds <= 15 and rss_mb <= 60, (seconds, rss_mb)
    n = bound + 1
    path.write_text(json.dumps({"quiver": {"vertices": 2, "arrows": [[0, 1]]}, "dims": [n, 0],
                                "maps": [{"rows": 0, "cols": n, "entries": []}]}))
    start = time.perf_counter()
    proc = cli("quiver", "decompose", "--rep", path, timeout=10, code=1)
    assert time.perf_counter() - start < 1
    assert proc.stdout == "" and proc.stderr.splitlines() == [
        f"error: decompose takes a total dimension of at most {bound}, not {n}"]


def test_gabriel_census_script():
    # exits 1 if a census count, an endomorphism dimension or a root norm
    # is wrong
    run("scripts/gabriel_census.py", timeout=10)


def test_gl2_scan():
    # exits 1 if a table of q = 3 to 19 fails its verification
    run("scripts/gl2_scan.py", timeout=30)


def test_gl2_top_of_range():
    # q = 31 is the largest q the GL2 commands take. The text and the JSON
    # must keep the sha256 they had when the table was interned from
    # per-entry rows (04bd03f); verify exits 1 if any of its 461282 checks
    # fails
    assert sha256_of_stdout("gl2", "table", "--q", "31", timeout=120) == \
        "f79438082052d15b160a78e8a8329a29b11c5ac2d51a06fc1a5d54b3373ce495"
    assert sha256_of_stdout("gl2", "table", "--q", "31", "--json", timeout=120) == \
        "f180f3c863973e6882cee2bf999c61144ef73f7e3210bc273ae07e481268a55d"
    cli("gl2", "verify", "--q", "31", timeout=120, stdout=subprocess.DEVNULL)


def probe_class_index_sample(q, count):
    """class_index at q on each class's representative conjugated by a
    random matrix and on `count` random invertible matrices, seed q,
    against the matrix oracle of tests/test_gl2fq.py: the matrices checked,
    the families met and the matrices where the two differ."""
    import random
    sys.path.insert(0, str(ROOT / "tests"))
    from reptheory.gl2fq import GL2Group
    from test_gl2fq import _matrix_class, _matrix_product
    q = int(q)
    rng = random.Random(q)
    group = GL2Group(q)
    index = {(c.family, c.params): i for i, c in enumerate(group.classes)}

    def invertible():
        while True:
            a, b, c, d = (rng.randrange(q) for _ in range(4))
            if (a * d - b * c) % q:
                return (a, b), (c, d)

    def conjugate(m, p):
        (a, b), (c, d) = p
        det = pow(a * d - b * c, -1, q)
        return _matrix_product(_matrix_product(p, m, q), ((d * det % q, -b * det % q),
                                                          (-c * det % q, a * det % q)), q)

    pairs = [(conjugate(cl.rep, invertible()), i) for i, cl in enumerate(group.classes)]
    pairs += [(m, index[_matrix_class(group, m)]) for m in (invertible() for _ in range(int(count)))]
    wrong = [m for m, i in pairs if group.class_index(m) != i]
    return [len(pairs), sorted({group.classes[i].family for _, i in pairs}), wrong[:5]]


def test_gl2_class_index_at_the_top_of_the_range():
    # every class of GL2(F_31), each scalar and Jordan block included, and
    # 20000 random matrices land where the oracle, which reads trace,
    # determinant and a square root in F_31, puts them
    assert probe("probe_class_index_sample", 31, 20000, timeout=60) == \
        [960 + 20000, ["elliptic", "hyperbolic", "parabolic", "scalar"], []]


def probe_mutants(name):
    """The counts of tests/test_verify_mutants.py's corpus on a table of
    its top of the range that differ from the record, and whether the
    record's cap on Galois images is the module's."""
    sys.path.insert(0, str(ROOT / "tests"))
    from test_verify_mutants import RECORD, TOP_GALOIS_LIMIT, fallen, table_counts
    want = json.loads(RECORD.read_text())["top_of_range"]
    return [want["galois_limit"] == TOP_GALOIS_LIMIT,
            fallen(table_counts(name, TOP_GALOIS_LIMIT), want["tables"][name])]


def test_gl2_f13_mutant_kills():
    # 25 swaps, 25 3-cycles and 5 Galois images of GL2(F_13), seed 47: no
    # killed count falls below the record. About 13 s and 27 MB on 2 vCPUs,
    # 1.3-1.7 s per Galois image
    assert probe("probe_mutants", "GL2(F_13)", timeout=60) == [True, []]


def probe_pools():
    from reptheory.gl2fq import gl2_table
    from reptheory.symgrp import sn_table
    found = {}
    for table in (gl2_table(31), sn_table(15)):
        where = {}
        index = [[where.setdefault((v.order, v.num, v.den), len(where)) for v in row.values]
                 for row in table.rows]
        pool, got = [(v.order, v.num, v.den) for v in table.pool], [list(r) for r in table.index]
        digest = hashlib.sha256(repr(pool).encode() + repr(got).encode()).hexdigest()
        found[table.name] = [pool == list(where), got == index, digest]
    return found


def test_gl2_f31_and_s15_pools_against_interning():
    # the pool and the index of each table are what interning its rows
    # gives (each stored form once, in the order first met row by row), with
    # the sha256 they had when tables were interned from per-entry rows
    # (04bd03f)
    assert probe("probe_pools", timeout=60) == {
        "GL2(F_31)": [True, True, "66176932c1c309c96cc58aa60d97b35855ef701eaa701012b118f1491b1ada11"],
        "S15": [True, True, "5f922f9ca03352c90851d6ed223fa57ee732ab9fd2f66ee3f8dc9d6469b2bf59"]}


def probe_row_products(kind, n):
    """20 row pairs of the table of GL2(F_n) or S_n, chosen with seed n, each
    with whether CharacterTable.inner_product gives 1 on the diagonal and 0
    off it."""
    import random
    if kind == "gl2":
        from reptheory.gl2fq import gl2_table as build
    else:
        from reptheory.symgrp import sn_table as build
    table = build(int(n))
    rows, rng = table.rows, random.Random(int(n))
    pairs = [(i, i if k % 4 == 0 else rng.randrange(len(rows)))
             for k, i in enumerate(rng.sample(range(len(rows)), 20))]
    return [[i, j, table.inner_product(rows[i].values, rows[j].values) == int(i == j)]
            for i, j in pairs]


def test_gl2_f31_row_products():
    # through CharacterTable.inner_product, which reads each row from the
    # table's operand
    got = probe("probe_row_products", "gl2", 31, timeout=60)
    assert len(got) == 20 and all(ok for _, _, ok in got), got


def probe_gl2_f31_builder_forms():
    """For GL2(F_31): the pool size, the number of long values (more than
    two coordinates), whether every builder root form folds afresh to its
    value's stored form, and the _short_roots searches that decompose of
    the regular character, verify_table and 20 row products make."""
    import random
    from reptheory import chartab, exact
    from reptheory.gl2fq import gl2_table
    table = gl2_table(31)
    forms, exact_forms = table.gram_rows._sparse, []
    for v, form in zip(table.pool, forms):
        if form is None:
            exact_forms.append(v.order == 1)
            continue
        acc = [0] * v.order
        for e, k in form:
            acc[e] += k
        exact_forms.append(len(form) <= 2 and tuple(exact._fold(acc, v.order)) == v.num
                           and v.den == 1)
    searched, original = [], exact._short_roots

    def counting(v):
        searched.append(v)
        return original(v)
    exact._short_roots = counting
    rows, rng = table.rows, random.Random(31)
    ok = chartab.decompose(chartab.regular_character(table.group), table) == \
        [row.degree for row in rows] and chartab.verify_table(table).ok
    for _ in range(20):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        ok = ok and table.inner_product(rows[i].values, rows[j].values) == int(i == j)
    long = sum(sum(map(bool, v.num)) > 2 for v in table.pool)
    return [len(table.pool), long, all(exact_forms), ok, len(searched)]


def test_gl2_f31_builder_forms():
    # gl2_table hands each value's roots to its operand: every form folds
    # to its value, and no built value is searched for one
    assert probe("probe_gl2_f31_builder_forms", timeout=60) == [1032, 646, True, True, 0]


def probe_broken_gl2_f7():
    from reptheory import chartab
    from reptheory.chartab import CharacterTable, ClassFunction, TableRow
    from reptheory.exact import one, zeta
    from reptheory.gl2fq import gl2_table, gl2_verify
    t, default = gl2_table(7), chartab.ORBIT_ROWS

    def broken(z):
        return CharacterTable(t.group, [TableRow(r.name, r.degree, ClassFunction(
            t.group, [v + z if c == 13 else v for c, v in enumerate(r.values)]) if i == 9 else r.function)
            for i, r in enumerate(t.rows)], t.name)

    roots = (zeta(48, 7), one())
    maps, runs = [len(chartab._row_symmetries(broken(z))) for z in roots], []
    for z in roots:
        failures = []
        for k in (default, float("inf")):
            chartab.ORBIT_ROWS = k
            failures.append(gl2_verify(broken(z)).failures())
        runs.append([len(failures[0]), failures[0] == failures[1]])
    return [maps, runs]


def test_broken_gl2_f7_table_orbits_against_the_full_gram():
    # one value of gl2_table(7) raised by a root of unity, as the orbit
    # tests break GL2(F_5), once by zeta_48^7 and once by 1; the power maps
    # that fix the broken class still map every row to a row (two on each
    # table), so the orbit proof runs, fails and computes every pair.
    # _row_symmetries must find a map on each table, and gl2_verify with the
    # default ORBIT_ROWS and with it raised to infinity must give equal,
    # non-empty failure lists
    maps, runs = probe("probe_broken_gl2_f7", timeout=60)
    assert all(maps), maps
    assert all(count and same for count, same in runs), runs


def probe_orbit_counts():
    from reptheory import chartab
    from reptheory.gl2fq import gl2_table
    counted, gram = [], chartab.hermitian_gram

    def counting(left, right, pairs, *rest):
        counted.append(len(pairs))
        return gram(left, right, pairs, *rest)

    chartab.hermitian_gram = counting
    proven = [chartab.orbit_gram(gl2_table(q)) is None for q in (23, 31)]
    return [proven, counted]


def test_gl2_orbit_counts_at_the_top_of_the_range():
    # orbit_gram proves the row Gram matrix of GL2(F_q) from one product per
    # orbit of row pairs: 436 at q = 23 and 1039 at q = 31, counted through
    # hermitian_gram
    assert probe("probe_orbit_counts", timeout=120) == [[True, True], [436, 1039]]


def probe_values_read_once(path):
    from reptheory.exact import cyclotomic_from_json
    from reptheory.gl2fq import gl2_table
    table, obj = gl2_table(13), json.loads(Path(path).read_text())
    got = [[cyclotomic_from_json(v) for v in row["values"]] for row in obj["rows"]]
    objects = len({id(v) for row in got for v in row})
    return [got == [list(row.values) for row in table.rows], objects, len(table.pool)]


def test_gl2_f13_values_read_once(tmp_path):
    # the 28224 entries of the q = 13 table file hold 195 distinct values,
    # and cyclotomic_from_json gives equal value dicts one value: every
    # value read, one dict at a time, equals the table's entry, and the
    # values read are 195 objects, the size of the table's pool
    path = tmp_path / "gl2-13.json"
    cli_to_file(path, "gl2", "table", "--q", "13", "--json", timeout=60)
    assert probe("probe_values_read_once", path, timeout=60) == [True, 195, 195]


def probe_read_back(*argv):
    """The stdout of the CLI on argv, run in this process, with its wall
    time in seconds and this process's peak RSS in MB after it."""
    import contextlib
    import io
    import resource
    import time
    from reptheory.cli import main
    out, start = io.StringIO(), time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return [code, out.getvalue(), time.perf_counter() - start,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]


def test_gl2_files_read_back(tmp_path):
    # q = 19 is the top of the range the README documents for reading GL2
    # files back (a 70 MB file): verify and roundtrip each take about 2.6 s
    # and 340 MB on 2 vCPUs, most of it in json.load
    path = tmp_path / "gl2-19.json"
    cli_to_file(path, "gl2", "table", "--q", "19", "--json", timeout=60)
    for argv, want in ((["chartab", "verify", "--file"], "ok: 130322 checks, 0 failures\n"),
                       (["roundtrip"], "roundtrip ok\n")):
        code, out, seconds, rss_mb = probe("probe_read_back", *argv, path, timeout=60)
        assert [code, out] == [0, want], argv
        assert seconds <= 15 and rss_mb <= 500, (argv, seconds, rss_mb)


def probe_group_classes(path):
    """The exit code and the last line of stderr of `group classes --file
    path`, run in this process, with its wall time in seconds and this
    process's peak RSS in MB after it."""
    import contextlib
    import io
    import resource
    from reptheory.cli import main
    err, start = io.StringIO(), time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = main(["group", "classes", "--file", str(path)])
    return [code, err.getvalue().splitlines()[-1:], time.perf_counter() - start,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]


def test_enumeration_bound_at_the_top_of_the_degree_range(tmp_path):
    # (0 1) and (0 1 ... 199) generate S_200 on permgroup.MAX_DEGREE = 200
    # points; its enumeration stops at MAX_ELEMENTS = 200000 elements. Held
    # as bytes they take about 0.4 s and 100 MB on 2 vCPUs (as tuples, 2 s
    # and 360 MB), so the budget is 200 MB
    n, path = 200, tmp_path / "s200.json"
    path.write_text(json.dumps({"degree": n, "generators": [[1, 0, *range(2, n)],
                                                            [*range(1, n), 0]]}) + "\n")
    code, last, seconds, rss_mb = probe("probe_group_classes", path, timeout=60)
    assert [code, last] == [1, ["error: group enumeration exceeded bound 200000"]]
    assert seconds <= 15 and rss_mb <= 200, (seconds, rss_mb)


def test_s15_row_products():
    # the rational twin of the GL2(F_31) row products: the S15 table's
    # operand reads each row as integers
    got = probe("probe_row_products", "sn", 15, timeout=60)
    assert len(got) == 20 and all(ok for _, _, ok in got), got


def _conjugate(lam):
    return [sum(1 for p in lam if p > c) for c in range(lam[0])]


def _row_name(lam):
    return "V[" + ",".join(map(str, lam)) + "]"


def probe_s15_tensors_by_trivial_and_sign():
    """For every row V[lam] of the S15 table, whether V[15] (x) V[lam] is
    V[lam] once and V[1^15] (x) V[lam] is V[lam'] once, lam' the conjugate
    partition: the row count, the first rows that fail and the seconds the
    products took."""
    import time
    from reptheory.chartab import tensor_multiplicities
    from reptheory.symgrp import sn_table
    table = sn_table(15)
    names = [row.name for row in table.rows]
    trivial, sign = names.index(_row_name([15])), names.index(_row_name([1] * 15))
    start, bad = time.perf_counter(), []
    for i, name in enumerate(names):
        lam = list(map(int, name[2:-1].split(",")))
        for row, want in ((trivial, lam), (sign, _conjugate(lam))):
            if tensor_multiplicities(table, row, i) != [int(n == _row_name(want)) for n in names]:
                bad.append([names[row], name])
    return [len(names), bad[:5], time.perf_counter() - start]


def probe_hook_dims(n):
    from reptheory.symgrp import hook_dim, partitions_of
    return [f"{_row_name(lam)}: {hook_dim(lam)}" for lam in partitions_of(int(n))]


def test_s15_decompositions_by_known_identities():
    # identities that do not depend on the kernel: the regular character
    # holds each V[lam] dim V[lam] times, by the hook length formula;
    # V[15] (x) V[lam] = V[lam] and V[1^15] (x) V[lam] = V[lam'], the
    # conjugate partition, for every row in-process and for two by the CLI
    want = probe("probe_hook_dims", 15, timeout=20)
    assert text(cli("chartab", "decompose", "S15", "--regular", timeout=60)).split("\n") == want
    rows, bad, seconds = probe("probe_s15_tensors_by_trivial_and_sign", timeout=60)
    assert rows == 176 and bad == [] and seconds <= 15, (rows, bad, seconds)
    for lam in ([5, 4, 3, 2, 1], [7, 3, 2, 2, 1]):
        for other, want in (([15], lam), ([1] * 15, _conjugate(lam))):
            out = text(cli("chartab", "tensor", "S15", _row_name(other), _row_name(lam), timeout=60))
            assert out == f"{_row_name(other)} (x) {_row_name(lam)} = {_row_name(want)}"


def probe_sn_entries():
    from reptheory.symgrp import frobenius_character, partitions_of, sn_table
    tables = {n: sn_table(n) for n in (13, 14, 15)}
    shapes = all(len(t.rows) == len(t.group.classes) == len(partitions_of(n))
                 and all(len(r.values) == len(t.rows) for r in t.rows) for n, t in tables.items())
    bad = [(n, lam, cl.cycle_type) for n, t in tables.items()
           for lam, row in zip(partitions_of(n), t.rows) for v, cl in zip(row.values, t.group.classes)
           if row.name != "V[" + ",".join(map(str, lam)) + "]"
           or v != frobenius_character(lam, cl.cycle_type)]
    return [shapes, [repr(b) for b in bad[:5]]]


def test_s13_s15_tables_against_the_per_entry_rule():
    # every entry of sn_table(n) for n = 13, 14, 15, read off the forward
    # Murnaghan-Nakayama columns, against frobenius_character, which strips
    # the rim hooks of that one entry off lambda; no row or class missing
    assert probe("probe_sn_entries", timeout=60) == [True, []]


def probe_hook_dim(*parts):
    from reptheory.symgrp import hook_dim
    return str(hook_dim(tuple(map(int, parts))))


def test_kostka_numbers_of_a_long_lambda():
    # kostka walks one level per part of lambda on its own stack, so
    # lambda = 1^1200 and 1^600, far past the recursion limit, must give
    # K_{(1200),1^1200} = 1 and K_{(300,300),1^600} = hook_dim((300,300)),
    # Catalan(300)
    assert text(cli("sn", "kostka", "--mu", "1200", "--lambda", ",".join(["1"] * 1200),
                    timeout=20)) == "1"
    want = probe("probe_hook_dim", 300, 300, timeout=10)
    assert text(cli("sn", "kostka", "--mu", "300,300", "--lambda", ",".join(["1"] * 600),
                    timeout=20)) == want


def test_verify_by_rows(tmp_path):
    # a complete table whose rows pass reads its column entries off the
    # rows (R W R* = I gives R* R = W^-1); S15 and D100 must pass every
    # check, and an S6 file with row 3 raised by 1 at its first class must
    # fail rows and columns alike
    assert "ok: 31330 checks, 0 failures" in text(cli("chartab", "verify", "S15", timeout=60)).split("\n")
    assert "ok: 2917 checks, 0 failures" in text(cli("chartab", "verify", "D100", timeout=60)).split("\n")
    path = tmp_path / "s6.json"
    cli_to_file(path, "chartab", "show", "S6", "--json", timeout=60)
    table = json.loads(path.read_text())
    value = table["rows"][3]["values"][0]
    p, q = map(int, value["coeffs"][0].split("/"))
    value["coeffs"][0] = f"{p + q}/{q}"
    broken = tmp_path / "s6-broken.json"
    broken.write_text(json.dumps(table))
    out = text(cli("chartab", "verify", "--file", broken, timeout=60, code=1))
    assert out.split("\n")[-1] == "FAILED: 145 checks, 14 failures"


def test_gl2_q_out_of_range():
    # the range of q is checked before its primality, so a prime near 10^18
    # is a typed error at once, not a trial division
    proc = cli("gl2", "table", "--q", "1000000000000000009", timeout=5, code=1)
    assert "error: q is limited to 31 (discrete logarithm tables)" in proc.stderr.splitlines()


def test_unknown_row_name():
    # a row name the table lacks is a typed error naming the row and the
    # table, not a bare KeyError
    proc = cli("chartab", "tensor", "S3", "bogus", "C+", timeout=10, code=1)
    assert "error: no row 'bogus' in the S3 table" in proc.stderr.splitlines()


def test_typed_input_errors(tmp_path):
    # a decompose with no input or two, a criterion out of range, a zero
    # denominator, an arrow without its ">", a graph given by both --type
    # and --graph, a table or group given by name and --file or by neither,
    # an empty --rep, and a table file with no "group" and a representation
    # file with a boolean dimension (each named by the one field checker of
    # the JSON readers) are each a typed error, exit 1, with the message as
    # the last line of stderr
    no_group, bool_dim = tmp_path / "no-group.json", tmp_path / "bool-dim.json"
    no_group.write_text('{"classes": [], "rows": []}\n')
    bool_dim.write_text('{"quiver": {"vertices": 2, "arrows": [[0, 1]]}, "dims": [1, true], "maps": []}\n')
    cases = [
        ("chartab decompose S3", "error: pass --values, --regular or --permutation"),
        ("chartab decompose S3 --values 1,1,1 --regular",
         "error: pass --values, --regular or --permutation, not --values and --regular"),
        ("selftest --criterion 99", "error: no criterion 99; criteria are 1 to 14"),
        ("schur eval --lambda 1 --points 1/0", "error: zero denominator in '1/0'"),
        ("quiver indecomposables --arrows 0>1,1", "error: an arrow is written s>t, not '1'"),
        ("quiver roots --type E6 --graph g.json --count",
         "error: pass --type or --graph, not --type and --graph"),
        ("chartab show A5 --file s3.json",
         "error: pass a group name or --file, not a group name and --file"),
        ("group classes S4 --file g.json",
         "error: pass a group name or --file, not a group name and --file"),
        ("chartab verify", "error: pass a group name or --file"),
        ("quiver decompose --rep=", "error: --rep names no file"),
        ("chartab verify --file", 'error: a table needs the field "group"', no_group),
        ("quiver decompose --rep",
         'error: a quiver representation needs the field "dims" to be a list of integers', bool_dim),
    ]
    for words, message, *path in cases:
        proc = cli(*words.split(), *path, timeout=60, code=1)
        assert proc.stderr.splitlines()[-1:] == [message], words


def test_one_elimination_and_subgroup_names(tmp_path):
    # E8 is classified by one elimination pass and a 200-cycle is affine
    # within 10 s; a --sub-name whose table is not of the subgroup and a
    # Schur polynomial in 33 variables are errors
    out = text(cli("quiver", "classify", "--verbose", "--type", "E8", timeout=60))
    assert "det = 1; kind = dynkin; name = E8" in out.split("\n")
    n, path = 200, tmp_path / "cycle200.json"
    path.write_text(json.dumps({"vertices": n, "edges": [[i, (i + 1) % n] for i in range(n)]}) + "\n")
    assert text(cli("quiver", "classify", "--graph", path, timeout=10)) == "affine"
    cli("chartab", "induce", "S4", "--sub", "1,0,2,3;0,1,3,2", "--sub-name", "Z4", "--row", "1",
        timeout=60, code=1)
    cli("schur", "eval", "--lambda", "1", "--points", ",".join(map(str, range(1, 34))),
        timeout=60, code=1)


def test_roots_at_the_top_of_the_graph_range():
    # A200 and D200 have 200 vertices, rootsys.MAX_VERTICES; their positive
    # roots, grown by height, must be n(n+1)/2 and n(n-1)
    assert text(cli("quiver", "roots", "--type", "A200", "--count", timeout=30)) == \
        "positive: 20100, total: 40200"
    assert text(cli("quiver", "roots", "--type", "D200", "--count", timeout=30)) == \
        "positive: 39800, total: 79600"


def probe_weyl_counts(*names):
    from reptheory.rootsys import cartan_matrix, dynkin_graph, weyl_count
    return {name: weyl_count(cartan_matrix(dynkin_graph(name))) for name in names}


def test_weyl_orders_at_the_top_of_the_graph_range():
    # weyl_count, read off the heights of the positive roots
    want = {"A200": math.factorial(201), "D200": 2 ** 199 * math.factorial(200), "E8": 696729600}
    assert probe("probe_weyl_counts", *want, timeout=30) == want


def test_d100_top_of_range():
    # D100 is the largest D<n> the names and `semidirect table dn --n` take;
    # one past it is a typed error
    cli("chartab", "show", "D100", timeout=30, stdout=subprocess.DEVNULL)
    cli("chartab", "show", "D100", "--json", timeout=30, stdout=subprocess.DEVNULL)
    proc = cli("semidirect", "table", "dn", "--n", "101", timeout=10, code=1)
    assert "error: cyclic and dihedral groups only up to D100 here" in proc.stderr.splitlines()


def test_table_scan():
    # exits 1 if a built-in table, an abelian dual or an S_n table fails
    run("scripts/show_tables.py", timeout=10)


def test_s15_table_file_round_trip(tmp_path):
    path, again = tmp_path / "s15.json", tmp_path / "s15-again.json"
    cli_to_file(path, "sn", "table", "15", "--json", timeout=10)
    cli("roundtrip", path, timeout=10)
    cli("chartab", "verify", "--file", path, timeout=10)
    cli_to_file(again, "chartab", "show", "--file", path, "--json", timeout=10)
    cli("roundtrip", again, timeout=10)


def test_d5_table_file_round_trip(tmp_path):
    path = tmp_path / "d5.json"
    cli_to_file(path, "chartab", "show", "D5", "--json", timeout=10)
    cli("roundtrip", path, timeout=10)
    cli("chartab", "verify", "--file", path, timeout=10)


def test_group_names(tmp_path):
    path = tmp_path / "d4.json"
    cli("group", "classes", "S15", timeout=10)
    cli_to_file(path, "chartab", "show", "D_4", "--json", timeout=10)
    cli("roundtrip", path, timeout=10)
    cli("chartab", "verify", "--file", path, timeout=10)


if __name__ == "__main__":
    print(json.dumps(globals()[sys.argv[1]](*sys.argv[2:])))

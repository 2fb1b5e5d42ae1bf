"""A mutant corpus for verify_table, and its kill counts as a tracked record.

From each true table a seeded generator makes mutant tables of three
kinds: two columns of equal class size swapped in every row ("swap"),
three such columns permuted cyclically ("cycle"), and one column replaced
by its image under a Galois automorphism zeta -> zeta^j ("galois"), the
control, which breaks orthonormality. The identity column is left alone:
it holds the degrees, which a table file also states on their own. A
mutant whose set of rows equals the true table's is equivalent: no check
on values can tell it from the true table, so it is listed and left out
of the kill rate. A mutant is killed when verify_table reports a failure.

tests/golden/verify_mutants.json records, per table and kind, the number
of mutants, the equivalent ones and the number killed. The test recomputes
it and fails if a killed count falls; the tables, seed and kinds are fixed
there, so the corpus does not drift with the code it measures. The tables
of TOP_OF_RANGE have their own entry, which ci/test_top_of_range.py checks
the same way. A change that raises a killed count rewrites the record with

    PYTHONPATH=src python tests/test_verify_mutants.py --write
"""

import itertools
import json
import random
import sys
from math import comb, gcd, lcm
from pathlib import Path

from reptheory import chartab, gl2fq
from reptheory.chartab import CharacterTable, ClassFunction, TableRow
from reptheory.cli import _get_table

RECORD = Path(__file__).parent / "golden" / "verify_mutants.json"
TABLES = ("S5", "S6", "S8", "A5", "Z12", "D8", "D12", "Q8", "GL2(F_5)", "GL2(F_7)")
KINDS = ("swap", "cycle", "galois")
SEED = 47
LIMIT = 25  # mutants per table and kind, drawn from all candidates
# A Galois image of GL2(F_13) takes 1.3-1.7 s to verify (a swap 0.06-0.08
# s), so at most TOP_GALOIS_LIMIT of them keep the table under 20 s
TOP_OF_RANGE = ("GL2(F_13)",)
TOP_GALOIS_LIMIT = 5


def true_table(name):
    if name.startswith("GL2(F_"):
        return gl2fq.gl2_table(int(name[6:-1]))
    return _get_table(name)


def candidates(table, kind):
    """The number of mutants of the given kind and a map from a position in
    their fixed order to the mutant, as (label, column map) where the
    column map sends each class to the class whose values it takes, or as
    (label, (column, j)) for a Galois image. Swaps and 3-cycles run over
    the classes of each size in turn, in the order of
    itertools.combinations, and are made only at the positions asked for."""
    rows = [row.values for row in table.rows]
    k = len(table.classes)
    identity = next(c for c in range(k) if all(r[c] == row.degree for r, row in zip(rows, table.rows)))
    by_size = {}
    for c in range(k):
        if c != identity:
            by_size.setdefault(table.classes[c].size, []).append(c)
    if kind == "galois":
        out = []
        for c in range(k):
            order = lcm(*[r[c].order for r in rows])
            for j in range(2, order):
                if gcd(j, order) == 1 and any(r[c].galois(j) != r[c] for r in rows):
                    out.append((f"column {c} under zeta -> zeta^{j}", (c, j)))
        return len(out), out.__getitem__
    size = 2 if kind == "swap" else 3
    blocks = [(cols, comb(len(cols), size)) for cols in by_size.values()]

    def mutant(i):
        for cols, count in blocks:
            if i < count:
                break
            i -= count
        chosen = combination_at(cols, size, i)
        images = dict(zip(chosen, chosen[1:] + chosen[:1]))
        return f"columns {chosen} {'swapped' if size == 2 else 'cycled'}", images
    return sum(count for _, count in blocks), mutant


def combination_at(items, size, i):
    """The i-th tuple of itertools.combinations(items, size)."""
    out, start = [], 0
    while size:
        for j in range(start, len(items)):
            count = comb(len(items) - j - 1, size - 1)  # those that start at items[j]
            if i < count:
                out.append(items[j])
                start, size = j + 1, size - 1
                break
            i -= count
    return tuple(out)


def mutant_rows(table, kind, change):
    rows = [list(row.values) for row in table.rows]
    if kind == "galois":
        c, j = change
        for r in rows:
            r[c] = r[c].galois(j)
    else:
        rows = [[r[change.get(c, c)] for c in range(len(r))] for r in rows]
    return rows


def table_counts(name, galois_limit=LIMIT):
    """Per kind, the mutant count, the equivalent mutants' labels and the
    killed count of one table."""
    table = true_table(name)
    true_rows = {row.values for row in table.rows}
    counts = {}
    for kind in KINDS:
        count, mutant = candidates(table, kind)
        limit = galois_limit if kind == "galois" else LIMIT
        positions = random.Random(f"{SEED}:{name}:{kind}").sample(range(count), min(limit, count))
        chosen = [mutant(i) for i in positions]
        equivalent, killed = [], 0
        for label, change in sorted(chosen, key=lambda x: x[0]):
            rows = mutant_rows(table, kind, change)
            if {tuple(r) for r in rows} == true_rows:
                equivalent.append(label)
                continue
            mutant = CharacterTable(table.group, [
                TableRow(row.name, row.degree, ClassFunction(table.group, values))
                for row, values in zip(table.rows, rows)])
            killed += not chartab.verify_table(mutant).ok
        counts[kind] = {"mutants": len(chosen), "equivalent": equivalent, "killed": killed}
    return counts


def corpus():
    """The record: the counts of every table, the top of the range's apart."""
    return {"seed": SEED, "limit": LIMIT,
            "tables": {name: table_counts(name) for name in TABLES},
            "top_of_range": {"galois_limit": TOP_GALOIS_LIMIT,
                             "tables": {name: table_counts(name, TOP_GALOIS_LIMIT)
                                        for name in TOP_OF_RANGE}}}


def fallen(got, want):
    """The (kind, field) pairs where a table's counts got differ from the
    recorded want: a changed mutant count or list of equivalents, or a
    killed count that fell."""
    return [(kind, field) for kind, counts in want.items() for field in counts
            if (got[kind][field] < counts[field] if field == "killed"
                else got[kind][field] != counts[field])]


def test_positions_are_the_listed_candidates():
    # the mutant at position i is the i-th of the list of every candidate,
    # built per class size by itertools.combinations
    for n, size in itertools.product(range(7), (2, 3)):
        items = tuple(range(10, 10 + n))
        assert [combination_at(items, size, i) for i in range(comb(n, size))] == \
            list(itertools.combinations(items, size))
    table = true_table("S8")
    by_size = {}
    for c in range(1, len(table.classes)):
        by_size.setdefault(table.classes[c].size, []).append(c)
    for kind, size in (("swap", 2), ("cycle", 3)):
        listed = [chosen for cols in by_size.values() for chosen in itertools.combinations(cols, size)]
        count, mutant = candidates(table, kind)
        assert count == len(listed)
        assert [mutant(i)[1] for i in range(count)] == \
            [dict(zip(chosen, chosen[1:] + chosen[:1])) for chosen in listed]


def test_no_killed_count_falls():
    want = json.loads(RECORD.read_text())
    assert (SEED, LIMIT) == (want["seed"], want["limit"])
    assert tuple(want["tables"]) == TABLES
    for name, counts in want["tables"].items():
        assert fallen(table_counts(name), counts) == [], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_verify_mutants.py --write")
    RECORD.write_text(json.dumps(corpus(), indent=1) + "\n")

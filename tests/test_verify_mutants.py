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
there, so the corpus does not drift with the code it measures. A change
that raises a killed count rewrites the record with

    PYTHONPATH=src python tests/test_verify_mutants.py --write
"""

import itertools
import json
import random
import sys
from math import gcd, lcm
from pathlib import Path

from reptheory import chartab, gl2fq
from reptheory.chartab import CharacterTable, ClassFunction, TableRow
from reptheory.cli import _get_table

RECORD = Path(__file__).parent / "golden" / "verify_mutants.json"
TABLES = ("S5", "S6", "S8", "A5", "Z12", "D8", "D12", "Q8", "GL2(F_5)", "GL2(F_7)")
KINDS = ("swap", "cycle", "galois")
SEED = 47
LIMIT = 25  # mutants per table and kind, drawn from all candidates


def true_table(name):
    if name.startswith("GL2(F_"):
        return gl2fq.gl2_table(int(name[6:-1]))
    return _get_table(name)


def candidates(table, kind):
    """Every mutant of the given kind, as (label, column map) where the
    column map sends each class to the class whose values it takes, or as
    (label, (column, j)) for a Galois image."""
    rows = [row.values for row in table.rows]
    k = len(table.classes)
    identity = next(c for c in range(k) if all(r[c] == row.degree for r, row in zip(rows, table.rows)))
    by_size = {}
    for c in range(k):
        if c != identity:
            by_size.setdefault(table.classes[c].size, []).append(c)
    out = []
    if kind == "galois":
        for c in range(k):
            order = lcm(*[r[c].order for r in rows])
            for j in range(2, order):
                if gcd(j, order) == 1 and any(r[c].galois(j) != r[c] for r in rows):
                    out.append((f"column {c} under zeta -> zeta^{j}", (c, j)))
        return out
    size = 2 if kind == "swap" else 3
    for cols in by_size.values():
        for chosen in itertools.combinations(cols, size):
            images = dict(zip(chosen, chosen[1:] + chosen[:1]))
            out.append((f"columns {chosen} {'swapped' if size == 2 else 'cycled'}", images))
    return out


def mutant_rows(table, kind, change):
    rows = [list(row.values) for row in table.rows]
    if kind == "galois":
        c, j = change
        for r in rows:
            r[c] = r[c].galois(j)
    else:
        rows = [[r[change.get(c, c)] for c in range(len(r))] for r in rows]
    return rows


def corpus():
    """The record: per table and kind, the mutant count, the equivalent
    mutants' labels and the killed count."""
    record = {"seed": SEED, "limit": LIMIT, "tables": {}}
    for name in TABLES:
        table = true_table(name)
        true_rows = {row.values for row in table.rows}
        counts = record["tables"][name] = {}
        for kind in KINDS:
            cands = candidates(table, kind)
            chosen = random.Random(f"{SEED}:{name}:{kind}").sample(cands, min(LIMIT, len(cands)))
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
    return record


def test_no_killed_count_falls():
    want = json.loads(RECORD.read_text())
    got = corpus()
    assert (got["seed"], got["limit"]) == (want["seed"], want["limit"])
    assert got["tables"].keys() == want["tables"].keys()
    for name, kinds in want["tables"].items():
        for kind, counts in kinds.items():
            have = got["tables"][name][kind]
            assert have["mutants"] == counts["mutants"], (name, kind)
            assert have["equivalent"] == counts["equivalent"], (name, kind)
            assert have["killed"] >= counts["killed"], (name, kind, have["killed"], counts["killed"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_verify_mutants.py --write")
    RECORD.write_text(json.dumps(corpus(), indent=1) + "\n")

"""The benchmark's checks reject corrupted outputs.

    python3 -m pytest perfbench

Each test feeds a check (or a whole job through run.run_pass) one output
with a single value changed and expects a failure, next to the unchanged
output, which must pass.
"""

from fractions import Fraction

import pytest

import run

run.import_program()

import checks as ck  # noqa: E402
import jobs  # noqa: E402
from reptheory import chartab, symgrp  # noqa: E402
from reptheory.exact import cyc  # noqa: E402


def _with_entry(table, row, cls, value):
    """A copy of the table whose row `row` has `value` at class `cls`
    (class 0 is the identity, so that changes the degree as well)."""
    rows = list(table.rows)
    r = rows[row]
    values = list(r.function.values)
    values[cls] = cyc(value)
    degree = value if cls == 0 else r.degree
    rows[row] = chartab.TableRow(r.name, degree, chartab.ClassFunction(table.group, values))
    return chartab.CharacterTable(table.group, rows, name=table.name,
                                  display_classes=table.display_classes,
                                  class_labels=table.class_labels)


def _failures(job_list):
    failures = []
    run.run_pass(job_list, None, failures)
    return failures


def test_changed_character_entry_fails_tensor_and_verify_jobs():
    a5 = chartab.builtin_table("A5")
    bad = _with_entry(a5, 3, 1, 2)  # chi_4 at (123) is 1
    for table, want in ((a5, 0), (bad, 2)):
        job_list = [jobs._tensor_job("A5", table, 3, 3, ck.golden_tensor("A5", 3, 3)),
                    jobs.Job("verify_table A5", lambda t=table: chartab.verify_table(t),
                             lambda out: ck.check_report(out, ck.table_verify_entries(5)))]
        assert len(_failures(job_list)) == want


def test_changed_sn_degree_fails_hook_length_check():
    s5 = symgrp.sn_table(5)
    ck.check_sn_table(s5, 5)
    bad = _with_entry(s5, 2, 0, s5.rows[2].degree + 1)
    with pytest.raises(ck.CheckFailed, match="hook formula"):
        ck.check_sn_table(bad, 5)


def test_wrong_kostka_number_fails_tableau_count():
    lam = (3, 2, 1)
    column = {mu: symgrp.kostka(mu, lam) for mu in ck.partitions(6)}
    ck.check_kostka_column(column, lam)
    column[(4, 2)] += 1
    with pytest.raises(ck.CheckFailed):
        ck.check_kostka_column(column, lam)


def test_changed_multiplicity_or_weyl_order_fails():
    roots = [(1, 0, 0, 0), (1, 1, 1, 0), (1, 1, 1, 0)]
    ck.check_decomposition([((1, 0, 0, 0), 1), ((1, 1, 1, 0), 2)], roots)
    with pytest.raises(ck.CheckFailed):
        ck.check_decomposition([((1, 0, 0, 0), 2), ((1, 1, 1, 0), 1)], roots)
    assert ck.weyl_order("D", 5) == 1920 and ck.weyl_order("E", 6) == 51840
    assert ck.positive_root_count("E", 8) == 120


def test_wrong_inner_product_fails_orthogonality():
    ck.check_orthonormal(cyc(1), 4, 4)
    ck.check_orthonormal(cyc(0), 4, 7)
    for value, i, j in ((cyc(0), 4, 4), (cyc(1), 4, 7), (cyc(Fraction(1, 2)), 4, 4)):
        with pytest.raises(ck.CheckFailed):
            ck.check_orthonormal(value, i, j)


def test_changed_coefficient_or_byte_fails_round_trip_checks():
    values = [v for row in chartab.builtin_table("A5").rows for v in row.function.values]
    changed = list(values)
    changed[13] = changed[13] + 1
    ck.check_same_values(values, values, "A5")
    with pytest.raises(ck.CheckFailed):
        ck.check_same_values(changed, values, "A5")
    argv = ["chartab", "show", "A5"]
    code, text = jobs.render(argv)
    digests = ck.load_digests()
    ck.check_cli_output((code, text), argv, digests)
    with pytest.raises(ck.CheckFailed):
        ck.check_cli_output((code, text.replace("-1", "-2", 1)), argv, digests)


def test_raising_job_counts_as_failed():
    job_list = [jobs.Job("raises", lambda: 1 // 0, lambda out: None)]
    assert _failures(job_list) == ["raises: raised ZeroDivisionError('integer division or modulo by zero')"]


def test_mix_is_identical_for_one_seed():
    import random
    first = jobs.mix_digest(jobs.WORKLOADS["gl2-verify"](random.Random("gl2-verify:5")))
    again = jobs.mix_digest(jobs.WORKLOADS["gl2-verify"](random.Random("gl2-verify:5")))
    other = jobs.mix_digest(jobs.WORKLOADS["gl2-verify"](random.Random("gl2-verify:6")))
    assert first == again != other

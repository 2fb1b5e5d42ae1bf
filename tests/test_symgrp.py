import itertools
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reptheory import permgroup, symgrp
from reptheory.chartab import (abelian_dual_table, builtin_table, decompose, frobenius_schur,
                               induce, inner_product, restrict, transfer_table, verify_table)
from reptheory.cli import main
from reptheory.exact import cyc
from reptheory.permgroup import cycle_notation, from_cycles, symmetric_group
from reptheory.symgrp import (MAX_TABLE_N, SymmetricGroup, frobenius_character, gl_dim,
                              hook_dim, kostka, partitions_of, power_sum_value, schur_eval,
                              schur_special, sn_table, specht_dim_determinant, u_character)

partition_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.sampled_from(partitions_of(n)))


def conjugate_partition(lam):
    """Transpose of the Young diagram."""
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0])) if lam else ()


def sign_of_type(t):
    """Sign of any permutation with cycle type t."""
    return (-1) ** sum(m - 1 for m in t)


def test_partitions_listing():
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions_of(4)) == 5
    assert partitions_of(0) == [()]
    assert len(partitions_of(8)) == 22
    with pytest.raises(ValueError):
        partitions_of(-1)


def test_hook_dims():
    assert hook_dim((2, 1)) == 2
    assert hook_dim((2, 2)) == 2
    assert hook_dim((3, 1)) == 3
    assert hook_dim((2, 1, 1)) == 3
    assert hook_dim((1,) * 6) == 1
    assert hook_dim((6,)) == 1


def _sn_class(t):
    group = SymmetricGroup(sum(t))
    return group.classes[group.type_index[t]]


def test_class_sizes():
    assert _sn_class((3,)).size == 2
    assert _sn_class((2, 2)).size == 3
    assert _sn_class((1, 1, 1, 1)).size == 1
    assert _sn_class((2, 1)).size == 3
    for n in range(1, 8):
        assert sum(cl.size for cl in SymmetricGroup(n).classes) == factorial(n)


def _class_data(group):
    return [(cl.representative, cl.size, cl.element_order, cl.centralizer_order)
            for cl in group.classes]


@pytest.mark.parametrize("n", range(1, 9))
def test_symmetric_group_matches_enumeration(n):
    classes, enumerated = SymmetricGroup(n), symmetric_group(n)
    assert _class_data(classes) == _class_data(enumerated)
    assert [classes.class_label(c) for c in range(len(classes.classes))] == \
        [enumerated.class_label(c) for c in range(len(enumerated.classes))]
    for k in range(2, n + 1):
        assert classes.power_class_map(k) == enumerated.power_class_map(k), k


def test_frobenius_character_values():
    assert frobenius_character((2, 1), (1, 1, 1)) == 2
    assert frobenius_character((2, 1), (3,)) == -1
    assert frobenius_character((2, 1), (2, 1)) == 0
    for t in partitions_of(5):
        assert frobenius_character((5,), t) == 1
    for t in partitions_of(4):
        assert frobenius_character((1, 1, 1, 1), t) == sign_of_type(t)
    with pytest.raises(ValueError):
        frobenius_character((2, 1), (2, 2))


def _capped_vandermonde(nvars, cap):
    """prod_{i<j} (x_i - x_j) expanded, keeping exponents <= cap."""
    poly = {(0,) * nvars: 1}
    for i in range(nvars):
        for j in range(i + 1, nvars):
            out = {}
            for expo, coef in poly.items():
                for k, sign in ((i, 1), (j, -1)):
                    if expo[k] < cap[k]:
                        new = expo[:k] + (expo[k] + 1,) + expo[k + 1:]
                        out[new] = out.get(new, 0) + sign * coef
            poly = out
    return poly


def _capped_power_sums(t, nvars, cap):
    """prod_m H_m^(i_m) with H_m = sum_i x_i^m, keeping exponents <= cap."""
    poly = {(0,) * nvars: 1}
    for m in t:
        out = {}
        for expo, coef in poly.items():
            for k in range(nvars):
                if expo[k] + m <= cap[k]:
                    new = expo[:k] + (expo[k] + m,) + expo[k + 1:]
                    out[new] = out.get(new, 0) + coef
        poly = out
    return poly


def frobenius_reference(lam, types):
    """Frobenius' formula as the paper states it: chi_lambda(t) is the
    coefficient of x^(lambda+rho) in Delta(x) prod_m H_m^(i_m). The capped
    Vandermonde V is built once per lambda; each value is then
    sum_v V[v] * P[cap - v] against the capped power-sum product P."""
    nvars = len(lam)
    cap = tuple(p + nvars - 1 - j for j, p in enumerate(lam))
    vandermonde = _capped_vandermonde(nvars, cap)
    values = {}
    for t in types:
        power_sums = _capped_power_sums(t, nvars, cap)
        values[t] = sum(coef * power_sums.get(tuple(c - v for c, v in zip(cap, expo)), 0)
                        for expo, coef in vandermonde.items())
    return values


def test_rim_hooks_match_frobenius_formula():
    assert frobenius_character((), ()) == 1
    for n in range(1, 9):
        parts = partitions_of(n)
        for lam in parts:
            want = frobenius_reference(lam, parts)
            assert {t: frobenius_character(lam, t) for t in parts} == want, lam


@pytest.mark.parametrize("n", range(4, 9))
def test_sn_table_cli_golden(n, capsys):
    assert main(["sn", "table", str(n)]) == 0
    golden = Path(__file__).parent / "golden" / f"sn_table_{n}.txt"
    assert capsys.readouterr().out == golden.read_text()


def test_u_character_values():
    assert u_character((1, 1, 1), (1, 1, 1)) == 6
    assert all(u_character((1, 1, 1), t) == 0
               for t in partitions_of(3) if t != (1, 1, 1))
    for t in partitions_of(4):
        assert u_character((4,), t) == 1
    assert u_character((2, 1), (1, 1, 1)) == 3
    assert u_character((), ()) == kostka((), ()) == 1
    for lam in partitions_of(5):
        for t in partitions_of(5):
            assert u_character(lam, t) >= 0


def test_kostka_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((1, 1, 1), (2, 1)) == 0
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert kostka(lam, lam) == 1
    assert kostka((10, 10, 10), (6,) * 5) == 16
    assert kostka((12, 12, 12), (6,) * 6) == 280


def kostka_reference(mu, lam):
    """(chi_mu, U_lambda) as the exact class sum over S_n."""
    n = sum(mu)
    total = sum(n_t * u_character(lam, t) * frobenius_character(mu, t)
                for t, n_t in ((cl.cycle_type, cl.size) for cl in SymmetricGroup(n).classes))
    assert total % factorial(n) == 0
    return total // factorial(n)


def test_kostka_matches_class_sum():
    for n in range(1, 8):
        parts = partitions_of(n)
        for mu in parts:
            for lam in parts:
                assert kostka(mu, lam) == kostka_reference(mu, lam), (mu, lam)


def horizontal_strips_recursive(shape, r):
    """symgrp._horizontal_strips as one frame per row, in the same order."""
    if not shape:
        return [()] if r == 0 else []
    below = shape[1] if len(shape) > 1 else 0
    out = []
    for take in range(min(r, shape[0] - below) + 1):
        head = (shape[0] - take,) if shape[0] > take else ()
        out += [head + rest for rest in horizontal_strips_recursive(shape[1:], r - take)]
    return out


def kostka_recursive(mu, lam):
    """K_{mu,lambda} by the backward strip recursion, one frame per part of
    lambda, with a memo made for this call only: the oracle of kostka,
    whose memo outlives the call."""
    memo = {}

    def count(shape, k):
        if len(shape) > k:
            return 0
        if k == 0:
            return 1
        if (shape, k) not in memo:
            memo[shape, k] = sum(count(rho, k - 1)
                                 for rho in horizontal_strips_recursive(shape, lam[k - 1]))
        return memo[shape, k]

    return count(tuple(mu), len(lam))


def test_horizontal_strips_match_recursion():
    for n in range(9):
        for shape in partitions_of(n):
            for r in range(n + 2):
                assert symgrp._horizontal_strips(shape, r) == horizontal_strips_recursive(shape, r)


def test_kostka_matches_recursion_up_to_10():
    for n in range(11):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                assert kostka(mu, lam) == kostka_recursive(mu, lam), (mu, lam)


@st.composite
def kostka_calls(draw):
    """A sequence of (mu, lambda) calls, n <= 8, among at most three
    lambdas, so that lambda repeats, switches and comes back."""
    lams = draw(st.lists(st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.sampled_from(partitions_of(n))), min_size=1, max_size=3))
    call = st.sampled_from(lams).flatmap(
        lambda lam: st.tuples(st.sampled_from(partitions_of(sum(lam))), st.just(lam)))
    return draw(st.lists(call, min_size=1, max_size=40))


@settings(max_examples=80, deadline=None)
@given(kostka_calls())
def test_kept_memo_never_serves_another_lambda(calls):
    for mu, lam in calls:
        assert kostka(mu, lam) == kostka_recursive(mu, lam), (mu, lam)


def test_one_memo_per_lambda():
    counts = symgrp._tableau_counts
    lam = (3, 2, 1, 1)
    kostka((7,), (7,))
    misses = counts.cache_info().misses
    column = {mu: kostka(mu, lam) for mu in partitions_of(7)}
    assert counts.cache_info().misses == misses + 1
    assert counts.cache_info().currsize == 1
    assert column == {mu: kostka_recursive(mu, lam) for mu in partitions_of(7)}
    # a partition of 36 into six parts: the walk counts 43 shapes
    assert kostka((12, 12, 12), (6,) * 6) == 280
    assert sum(map(len, counts((6,) * 6))) == 43


def test_kostka_of_a_long_lambda():
    # far deeper than the recursion limit; K_{mu,(1^n)} is dim V_mu
    assert kostka((1200,), (1,) * 1200) == 1
    assert kostka((300, 300), (1,) * 600) == hook_dim((300, 300))
    # shapes of up to 150 rows, each giving cells at its corners only
    assert kostka((2,) * 150, (1,) * 300) == hook_dim((150, 150))


def _partitions_inside(mu):
    """The partitions inside mu, each as a tuple of len(mu) parts, zero
    parts included: every weakly decreasing tuple bounded by mu."""
    return [rho for rho in itertools.product(*(range(m + 1) for m in mu))
            if all(a >= b for a, b in zip(rho, rho[1:]))]


def test_kostka_refuses_a_mu_with_too_many_partitions_inside():
    # the count behind the bound against an enumeration, at the cap of
    # each mu, one below it and one above it
    for mu in [(3, 2, 1), (4, 4, 2, 1), (5, 3, 3, 1, 1), (6, 6, 6)]:
        inside = len(_partitions_inside(mu))
        for shapes in (inside - 1, inside, inside + 1):
            limit = shapes * (100 + len(mu)) // 100 + 1
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(symgrp, "MAX_KOSTKA_SHAPES", limit)
                cap = 100 * limit // (100 + len(mu))
                if inside > cap:
                    with pytest.raises(ValueError, match=f"at most {cap} partitions inside it"):
                        symgrp._check_walk(mu)
                else:
                    symgrp._check_walk(mu)
    # the walk of K_{(2^400),1^800}, 80601 shapes of 400 parts, took 4.5 s
    # on 2 vCPUs; it is refused before any walk, as is one part of 10^9
    for mu, lam in [((2,) * 400, (1,) * 800), ((10 ** 9,), (10 ** 9,))]:
        symgrp._tableau_counts.cache_clear()
        with pytest.raises(ValueError, match="partitions inside it"):
            kostka(mu, lam)
        assert symgrp._tableau_counts(lam) == [{(): 1}] + [{} for _ in lam]


def test_kostka_triangularity():
    for n in range(2, 7):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                if mu < lam:
                    assert kostka(mu, lam) == 0


def test_u_expansion_identity():
    for n in range(1, 6):
        parts = partitions_of(n)
        for lam in parts:
            for t in parts:
                assert u_character(lam, t) == sum(
                    kostka(mu, lam) * frobenius_character(mu, t) for mu in parts)


@given(partition_strategy)
@settings(max_examples=40, deadline=None)
def test_conjugate_is_involution(lam):
    assert conjugate_partition(conjugate_partition(lam)) == lam
    assert hook_dim(conjugate_partition(lam)) == hook_dim(lam)


def test_conjugate_sign_twist():
    # chi_(lambda*) = sign * chi_lambda, tested for n <= 6
    for n in range(1, 7):
        for lam in partitions_of(n):
            star = conjugate_partition(lam)
            for t in partitions_of(n):
                assert frobenius_character(star, t) == \
                    sign_of_type(t) * frobenius_character(lam, t)


def test_dimension_formulas_agree():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert hook_dim(lam) == specht_dim_determinant(lam) == \
                frobenius_character(lam, (1,) * n)


def test_sum_of_dims_is_involution_count():
    involutions = [1, 1]  # I(n) = I(n - 1) + (n - 1) I(n - 2)
    for n in range(2, MAX_TABLE_N + 1):
        involutions.append(involutions[-1] + (n - 1) * involutions[-2])
    for n in range(1, MAX_TABLE_N + 1):
        total = sum(hook_dim(lam) for lam in partitions_of(n))
        assert total == involutions[n], n
        if n < 7:
            assert total == symmetric_group(n).involution_count()


def test_sn_tables_verify():
    for n in range(1, MAX_TABLE_N + 1):
        table = sn_table(n)
        assert verify_table(table).ok, n
        assert sum(r.degree ** 2 for r in table.rows) == table.group.order
        assert all(frobenius_schur(r.function) == 1 for r in table.rows), n
    with pytest.raises(ValueError):
        sn_table(MAX_TABLE_N + 1)


def test_sn_table_checks_no_partition(monkeypatch):
    # sn_table reads its values and each row's degree off the columns of the
    # forward walk, which makes only valid partitions and checks none, and
    # computes no hook product; its bytes are pinned by "sn table 15 --json"
    # in the CLI digests
    check, calls = symgrp._check_partition, []

    def counted(lam):
        calls.append(lam)
        return check(lam)

    monkeypatch.setattr(symgrp, "_check_partition", counted)
    table = sn_table(15)
    assert len(table.rows) == 176 and calls == []
    monkeypatch.undo()
    assert [row.degree for row in table.rows] == [hook_dim(lam) for lam in partitions_of(15)]
    with pytest.raises(ValueError):
        frobenius_character((1, 2), (2, 1))
    with pytest.raises(ValueError):
        frobenius_character((2, 1), (2, 2))


def test_sn_table_columns_match_the_per_entry_rule(monkeypatch):
    # the forward column walk against frobenius_character, which strips
    # the rim hooks of one entry at a time off lambda; sn_table itself
    # evaluates no entry on its own
    per_entry, calls = symgrp._murnaghan_nakayama, []

    def counted(lam, t):
        calls.append((lam, t))
        return per_entry(lam, t)

    monkeypatch.setattr(symgrp, "_murnaghan_nakayama", counted)
    tables = [sn_table(n) for n in range(1, 13)]
    assert calls == []
    for n, table in enumerate(tables, start=1):
        parts = partitions_of(n)
        assert [row.name for row in table.rows] == [f"V[{','.join(map(str, lam))}]" for lam in parts]
        for lam, row in zip(parts, table.rows):
            assert list(row.values) == [cyc(frobenius_character(lam, cl.cycle_type))
                                        for cl in table.group.classes], lam
    assert len(calls) == sum(len(partitions_of(n)) ** 2 for n in range(1, 13))


def test_sn_table_matches_builtin():
    for n, name in ((3, "S3"), (4, "S4")):
        table = sn_table(n)
        ref = builtin_table(name)
        got = sorted((tuple(v.key() for v in r.function.values) for r in table.rows))
        # the builtin table's PermGroup has the same canonical class order
        want = sorted((tuple(v.key() for v in r.function.values) for r in ref.rows))
        assert got == want


def test_sn_specht_named_rows():
    # V[n] is trivial, V[1,..,1] is sign, V[2,1] of S3 is the 2-dim row
    t = sn_table(3)
    assert t.row_by_name("V[3]").degree == 1
    assert t.row_by_name("V[1,1,1]").degree == 1
    assert t.row_by_name("V[2,1]").degree == 2


def test_branching_rule_restriction():
    # restriction of V_mu to S_(n-1) = sum over diagram-square removals
    from reptheory.chartab import restrict
    from reptheory.permgroup import from_cycles
    for n in range(3, 6):
        table = sn_table(n)
        small = sn_table(n - 1)
        gens = [from_cycles(n, [(0, 1)]),
                tuple(list(range(1, n - 1)) + [0, n - 1])]
        sub = table.group.subgroup(gens)
        assert sub.group.order == small.group.order
        for lam in partitions_of(n):
            removals = []
            for i in range(len(lam)):
                if i + 1 < len(lam) and lam[i] - 1 < lam[i + 1]:
                    continue  # not a corner square
                nxt = list(lam)
                nxt[i] -= 1
                if nxt[i] == 0:
                    nxt.pop(i)
                removals.append(tuple(nxt))
            want = sum(hook_dim(m) for m in removals)
            res = restrict(sub, table.row_by_name(
                "V[" + ",".join(str(p) for p in lam) + "]").function)
            assert res.at_identity() == hook_dim(lam)
            # exact branching: the restricted character equals the sum of the
            # smaller Specht characters, matched through cycle types
            from reptheory.permgroup import cycle_lengths
            for hc, cl in enumerate(sub.group.classes):
                t = cycle_lengths(cl.representative)
                t = tuple(sorted((x for x in t if x > 1), reverse=True))
                t = t + (1,) * (n - 1 - sum(t))
                expect = sum(frobenius_character(m, t) for m in removals)
                assert res.values[hc] == expect, (lam, t)
            assert want == sum(hook_dim(m) for m in removals)


def _corner_removals(lam):
    """The partitions whose diagrams are lam's with one corner square removed."""
    return [tuple(p for p in lam[:i] + (lam[i] - 1,) + lam[i + 1:] if p)
            for i in range(len(lam)) if i + 1 == len(lam) or lam[i] > lam[i + 1]]


def _row_name(lam):
    return "V[" + ",".join(map(str, lam)) + "]"


def _refuse_symmetric_group(n):
    raise AssertionError(f"S{n} was enumerated")


def test_branching_s8_in_s9_lists_no_element_of_s9(monkeypatch):
    monkeypatch.setattr(permgroup, "symmetric_group", _refuse_symmetric_group)
    table, small = sn_table(9), sn_table(8)
    # S8 on the first eight points
    sub = table.group.subgroup([from_cycles(9, [(0, 1)]), tuple(range(1, 8)) + (0, 8)])
    assert sub.group.order == small.group.order
    small_class = [small.group.class_index(cl.representative[:8]) for cl in sub.group.classes]
    for lam in partitions_of(9):
        res = restrict(sub, table.row_by_name(_row_name(lam)).function)
        want = [sum(small.row_by_name(_row_name(m)).values[c] for m in _corner_removals(lam))
                for c in small_class]
        assert list(res.values) == want, lam


@pytest.mark.parametrize("n", [10, 12, MAX_TABLE_N])
def test_frobenius_reciprocity_lists_no_element_of_sn(n, monkeypatch, capsys):
    s3_table = builtin_table("S3")  # on the enumerated S3
    monkeypatch.setattr(permgroup, "symmetric_group", _refuse_symmetric_group)
    table = sn_table(n)
    n_cycle = tuple(range(1, n)) + (0,)
    s3_gens = [from_cycles(n, [(0, 1)]), from_cycles(n, [(0, 1, 2)])]
    z_n, s3 = table.group.subgroup([n_cycle]), table.group.subgroup(s3_gens)
    z_n_table = abelian_dual_table(z_n.group)
    for sub, sub_table in ((z_n, z_n_table),
                           (s3, transfer_table(s3_table, s3.group))):
        restricted = [restrict(sub, row.function) for row in table.rows]
        for srow in sub_table.rows:
            assert decompose(induce(sub, srow.function), table) == \
                [inner_product(srow.function, r) for r in restricted], srow.name
    # the same through the CLI: Ind of the n-cycle's chi1, Res of V[n-1,1] to S3
    def perm(p):
        return ",".join(map(str, p))

    chi1 = z_n_table.rows[1].function
    mults = [inner_product(chi1, restrict(z_n, row.function)) for row in table.rows]
    want = "Ind chi1 = " + " + ".join(row.name if m == 1 else f"{m}*{row.name}"
                                      for row, m in zip(table.rows, mults) if m != 0)
    assert main(["chartab", "induce", f"S{n}", "--sub", perm(n_cycle), "--row", "1"]) == 0
    assert capsys.readouterr().out == want + "\n"
    hook = _row_name((n - 1, 1))
    res = restrict(s3, table.row_by_name(hook).function)
    assert main(["chartab", "restrict", f"S{n}", "--sub", ";".join(map(perm, s3_gens)),
                 "--row", hook]) == 0
    assert capsys.readouterr().out == "".join(
        f"{cycle_notation(cl.representative)}: {v}\n" for cl, v in zip(s3.group.classes, res.values))


def test_schur_eval_and_specials():
    pts = [Fraction(1), Fraction(2), Fraction(3)]
    assert schur_eval((1,), [Fraction(1, 2), Fraction(3)]) == Fraction(7, 2)
    assert schur_eval((2,), pts) == 25
    assert schur_eval((1, 1), pts) == 11
    assert schur_eval((2, 1), pts) == 60
    assert schur_special((1,), 2) == 2
    assert schur_special((1, 1), 3) == 3
    z = Fraction(3, 2)
    assert schur_special((2, 1), 3, z=z) == \
        schur_eval((2, 1), [z ** k for k in range(3)]).as_fraction()
    with pytest.raises(ValueError):
        schur_eval((1,), [Fraction(2), Fraction(2)])
    with pytest.raises(ValueError):
        schur_special((2, 1), 3, z=Fraction(1))
    with pytest.raises(ValueError):
        schur_special((2, 1, 1), 2)


def test_power_sum_expansion():
    rng = random.Random(3)
    for _ in range(5):
        pts = []
        while len(set(pts)) < 3:
            pts = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
        for n in range(1, 5):
            for t in partitions_of(n):
                rhs = cyc(0)
                for lam in partitions_of(n):
                    if len(lam) <= 3:
                        rhs = rhs + frobenius_character(lam, t) * schur_eval(lam, pts)
                assert power_sum_value(pts, t) == rhs


def test_variable_count_is_bounded():
    n = symgrp.MAX_VARIABLES
    assert schur_special((1,), n) == n
    assert schur_special((1,), n, z=2) == 2 ** n - 1
    assert schur_eval((1,), range(1, n + 1)) == n * (n + 1) // 2
    # the bound is checked first, before the points are compared
    for call in (lambda: schur_eval((1,), [1] * (n + 1)), lambda: schur_special((1,), n + 1),
                 lambda: schur_special((1,), n + 1, z=2)):
        with pytest.raises(ValueError, match=f"at most {n} variables, got {n + 1}"):
            call()


def test_gl_dims():
    assert gl_dim((5, 0), 2) == 6
    assert gl_dim((1, 1, 1), 3) == 1
    assert gl_dim((0, 0, 0), 3) == 1
    rng = random.Random(5)
    for _ in range(20):
        nvars = rng.randint(1, 4)
        lam = sorted((rng.randint(-4, 4) for _ in range(nvars)), reverse=True)
        shifted = [x + 1 for x in lam]
        assert gl_dim(lam, nvars) == gl_dim(shifted, nvars) > 0
    with pytest.raises(ValueError):
        gl_dim((1, 2), 2)


def test_dim_of_symmetric_power():
    # one-row weights give symmetric powers of the defining representation
    for n in range(7):
        assert gl_dim((n, 0), 2) == n + 1
        assert schur_special((n,) if n else (), 2) == n + 1


def test_centralizer_order():
    assert _sn_class((3,)).centralizer_order == 3
    assert _sn_class((1, 1, 1)).centralizer_order == 6
    assert _sn_class((2, 1)).centralizer_order == 2

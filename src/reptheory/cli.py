"""Command-line front end.

Batch only, deterministic output; exit code 0 on success, 1 on domain
errors, 2 on usage errors (argparse's convention). Integers on the command
line are read by linalg.parse_integer and rationals by linalg.parse_rational,
after parsing, so that one which is not ASCII is a domain error too.

Only linalg, whose parsers every subcommand uses, is imported with this
module; each handler imports the modules it calls, so that a command
loads only the theory it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .linalg import MAX_DIGITS, parse_integer, parse_rational


def _parse_partition(s):
    s = s.strip()
    if not s:
        return ()
    return tuple(map(parse_integer, s.split(",")))


def _parse_perm(s):
    return tuple(map(parse_integer, s.strip().split(",")))


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            # json recurses once per nesting level
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except ValueError:
            # json reads an integer by int(), which refuses more digits
            # than sys.get_int_max_str_digits() in its own words
            raise ValueError(f"{path}: a JSON integer has more than "
                             f"{sys.get_int_max_str_digits()} digits") from None


def _print_json(obj):
    """print(json.dumps(obj, indent=2)) for a table dict, whose rows come
    last and whose values come last in each row, written a row at a time:
    the GL2(F_31) file is over 1 GB of text. Each distinct value dict is
    encoded once; the to_json functions share equal ones."""
    if not obj["rows"]:
        print(json.dumps(obj, indent=2))
        return
    write, encoded = sys.stdout.write, {}

    def value(v):
        text = encoded.get(id(v))
        if text is None:
            text = encoded[id(v)] = json.dumps(v, indent=2).replace("\n", "\n        ")
        return text

    # an indented dict whose last value is [] ends '[]\n}', the closing
    # brace indented to its own level
    write(json.dumps({**obj, "rows": []}, indent=2)[:-len("[]\n}")] + "[")
    for i, row in enumerate(obj["rows"]):
        head = json.dumps({**row, "values": []}, indent=2).replace("\n", "\n    ")
        write(("," if i else "") + "\n    " + head[:-len("[]\n    }")] + "[\n        "
              + ",\n        ".join(map(value, row["values"])) + "\n      ]\n    }")
    write("\n  ]\n}\n")


def _print_table(args, table, to_json):
    """JSON through to_json with --json, else the plain-text grid."""
    if args.json:
        _print_json(to_json(table))
    else:
        from . import chartab
        print(chartab.render_table(table, numeric=getattr(args, "numeric", False)))
    return 0


def _print_report(report):
    for check, detail in report.failures():
        print(f"FAIL {check}: {detail}")
    print(f"{'ok' if report.ok else 'FAILED'}: {len(report.entries)} checks, "
          f"{len(report.failures())} failures")
    return 0 if report.ok else 1


def _print_number(x):
    """print(x) for an int or a Fraction, whose numerator and denominator
    may each have at most MAX_DIGITS digits, as a number the parsers read
    may; a longer one is a ValueError in this program's terms, where str()
    would refuse it in Python's."""
    if any(abs(part) >= 10 ** MAX_DIGITS for part in (x.numerator, x.denominator)):
        raise ValueError(f"a printed number has at most {MAX_DIGITS} digits here; the result has more")
    print(x)
    return 0


def _print_sum(head, table, mults):
    """'head = 2*name + name' over the rows of nonzero multiplicity."""
    print(f"{head} = " + " + ".join(row.name if m == 1 else f"{m}*{row.name}"
                                    for row, m in zip(table.rows, mults) if m != 0))
    return 0


# -- chartab ---------------------------------------------------------------

def _get_table(name):
    """The table of the group a name resolves to, named by its canonical
    name: a classical table, an S_n table, for D<n> with n >= 3 the
    semidirect table on the points of the group D<n>, or an abelian dual."""
    from . import chartab, permgroup
    family, n = permgroup.parse_group_name(name)
    key = f"{family}{n}"
    if key in chartab.BUILTIN_TABLE_NAMES:
        return chartab.builtin_table(key)
    if family == "S":
        from . import symgrp
        return symgrp.sn_table(n)
    if family == "D" and n >= 3:
        table = chartab.semidirect_table(permgroup.dihedral_semidirect(n))
    else:
        group = permgroup.builtin_group(key)
        if not group.is_abelian():
            raise ValueError(f"no table construction for {name!r}; use a builtin name or a file")
        table = chartab.abelian_dual_table(group)
    table.name = key
    return table


def cmd_chartab_show(args):
    from . import chartab
    option, value = _one_source(args, ("name", "file"))
    table = chartab.table_from_json(_load_json(value)) if option == "file" else _get_table(value)
    # a table built from a name writes that name; one read from a file, with
    # no name, writes its group
    return _print_table(args, table, lambda t: chartab.table_to_json(t, group_name=t.name))


def cmd_chartab_verify(args):
    from . import chartab
    option, value = _one_source(args, ("name", "file"))
    table = chartab.table_from_json(_load_json(value)) if option == "file" else _get_table(value)
    return _print_report(chartab.verify_table(table))


def cmd_chartab_tensor(args):
    from . import chartab
    table = _get_table(args.name)
    i, j = table.row_index(args.row1), table.row_index(args.row2)
    return _print_sum(f"{args.row1} (x) {args.row2}", table,
                      chartab.tensor_multiplicities(table, i, j))


def cmd_chartab_decompose(args):
    from . import chartab, exact
    option, value = _one_source(args, ("values", "regular", "permutation"))
    table = _get_table(args.name)
    g = table.group
    if option == "regular":
        f = chartab.regular_character(g)
    elif option == "permutation":
        f = chartab.permutation_character(g)
    else:
        vals = [parse_rational(x) for x in value.split(",")]
        if len(vals) != len(g.classes):
            raise ValueError(f"need {len(g.classes)} values (class order: "
                             f"{', '.join(table.class_labels)})")
        canonical = [None] * len(g.classes)
        for ci, v in zip(table.display_classes, vals):
            canonical[ci] = exact.cyc(v)
        f = chartab.ClassFunction(g, canonical)
    mults = chartab.decompose(f, table)
    for row, m in zip(table.rows, mults):
        print(f"{row.name}: {m}")
    if chartab.integer_multiplicities(mults) is None:
        print("warning: multiplicities are not nonnegative integers (virtual input)")
    return 0


def _subgroup_table(sub, name):
    from . import chartab
    if name:
        return chartab.transfer_table(_get_table(name), sub.group)
    if sub.group.is_abelian():
        return chartab.abelian_dual_table(sub.group)
    raise ValueError("non-abelian subgroup: pass --sub-name for its table")


def cmd_chartab_induce(args):
    from . import chartab
    table = _get_table(args.name)
    gens = [_parse_perm(s) for s in args.sub.split(";")]
    sub = table.group.subgroup(gens)
    sub_table = _subgroup_table(sub, args.sub_name)
    if args.row.isascii() and args.row.isdigit():
        index = parse_integer(args.row)
        if index >= len(sub_table.rows):
            raise ValueError(f"row index {index} out of range: the subgroup table has "
                             f"{len(sub_table.rows)} rows")
        row = sub_table.rows[index]
    else:
        row = sub_table.row_by_name(args.row)
    ind = chartab.induce(sub, row.function)
    return _print_sum(f"Ind {row.name}", table, chartab.decompose(ind, table))


def cmd_chartab_restrict(args):
    from . import chartab, permgroup
    table = _get_table(args.name)
    gens = [_parse_perm(s) for s in args.sub.split(";")]
    sub = table.group.subgroup(gens)
    row = table.row_by_name(args.row)
    res = chartab.restrict(sub, row.function)
    labels = [permgroup.cycle_notation(c.representative) for c in sub.group.classes]
    for lab, v in zip(labels, res.values):
        print(f"{lab}: {v}")
    return 0


def cmd_chartab_fs(args):
    from . import chartab
    table = _get_table(args.name)
    for row in table.rows:
        print(f"{row.name}: {chartab.frobenius_schur(row.function)}")
    return 0


# -- group ------------------------------------------------------------------

def cmd_group_classes(args):
    from . import permgroup
    option, value = _one_source(args, ("name", "file"))
    group = permgroup.group_from_json(_load_json(value) if option == "file" else value)
    print(f"|G| = {group.order}, {len(group.classes)} classes, exponent {group.exponent}")
    for i, cl in enumerate(group.classes):
        print(f"{i}: rep {permgroup.cycle_notation(cl.representative)} "
              f"size {cl.size} order {cl.element_order} centralizer {cl.centralizer_order}")
    return 0


# -- sn ----------------------------------------------------------------------

def cmd_sn_table(args):
    from . import chartab, symgrp
    return _print_table(args, symgrp.sn_table(parse_integer(args.n)), chartab.table_to_json)


def cmd_sn_char(args):
    from . import symgrp
    lam = _parse_partition(getattr(args, "lambda"))
    t = _parse_partition(args.cls)
    return _print_number(symgrp.frobenius_character(lam, t))


def cmd_sn_dim(args):
    from . import symgrp
    lam = _parse_partition(getattr(args, "lambda"))
    return _print_number(symgrp.hook_dim(lam))


def cmd_sn_kostka(args):
    from . import symgrp
    mu = _parse_partition(args.mu)
    lam = _parse_partition(getattr(args, "lambda"))
    return _print_number(symgrp.kostka(mu, lam))


# -- schur --------------------------------------------------------------------

def cmd_schur_eval(args):
    from . import symgrp
    lam = _parse_partition(getattr(args, "lambda"))
    points = [parse_rational(x) for x in args.points.split(",")]
    # rational points give a rational value, printed as its Fraction prints
    return _print_number(symgrp.schur_eval(lam, points).as_fraction())


def cmd_schur_dim(args):
    from . import symgrp
    lam = _parse_partition(getattr(args, "lambda"))
    n = parse_integer(args.vars)
    if args.z is not None:
        return _print_number(symgrp.schur_special(lam, n, z=parse_rational(args.z)))
    return _print_number(symgrp.schur_special(lam, n))


# -- quiver --------------------------------------------------------------------

def _named_graph(name):
    """The diagram a --type names: affine names carry a tilde (A~2, E~6)."""
    from . import rootsys
    return (rootsys.affine_graph if "~" in name else rootsys.dynkin_graph)(name)


def _one_source(args, options):
    """(option, value) of the one of options passed, "name" the positional
    group name: no source, two sources and an empty option are each a typed
    error, so no source is silently preferred to another."""
    given = [o for o in options if getattr(args, o) is not None]
    labels = {o: "a group name" if o == "name" else f"--{o}" for o in options}
    choices = ", ".join(labels[o] for o in options[:-1]) + f" or {labels[options[-1]]}"
    if not given:
        raise ValueError(f"pass {choices}")
    if len(given) > 1:
        raise ValueError(f"pass {choices}, not {labels[given[0]]} and {labels[given[1]]}")
    value = getattr(args, given[0])
    if not value and given[0] != "name":  # the name parser rejects an empty name
        noun = {"type": "diagram", "arrows": "arrow", "values": "value"}.get(given[0], "file")
        raise ValueError(f"--{given[0]} names no {noun}")
    return given[0], value



def _get_graph(args):
    from . import rootsys
    option, value = _one_source(args, ("type", "graph"))
    if option == "graph":
        return rootsys.graph_from_json(_load_json(value))
    return _named_graph(value)


def _parse_arrows(s):
    arrows = []
    for part in s.split(","):
        ends = part.split(">")
        if len(ends) != 2:
            raise ValueError(f"an arrow is written s>t, not {part!r}")
        arrows.append((parse_integer(ends[0]), parse_integer(ends[1])))
    return arrows


def _get_quiver(args):
    from . import quiverrep
    option, value = _one_source(args, ("type", "arrows", "rep"))
    if option == "rep":
        return quiverrep.rep_from_json(_load_json(value)).quiver
    if option == "arrows":
        arrows = _parse_arrows(value)
        n = max(max(a, b) for a, b in arrows) + 1
        return quiverrep.Quiver(n, arrows)
    g = _named_graph(value)
    return quiverrep.Quiver(g.n, [(i, j) for i, j, m in g.edges() for _ in range(m)])


def cmd_quiver_classify(args):
    from . import rootsys
    g = _get_graph(args)
    result = rootsys.classify(g)
    print(result.name if result.kind == "dynkin" else result.kind)
    if args.verbose:
        print(f"det = {result.determinant}; kind = {result.kind}; name = {result.name}")
    return 0


def cmd_quiver_roots(args):
    from . import rootsys
    g = _get_graph(args)
    a = rootsys.cartan_matrix(g)
    pos, neg = rootsys.enumerate_roots(a)
    if args.count:
        print(f"positive: {len(pos)}, total: {len(pos) + len(neg)}")
    else:
        for v in pos:
            print(" ".join(str(c) for c in v))
    return 0


def cmd_quiver_coxeter(args):
    from . import rootsys
    g = _get_graph(args)
    a = rootsys.cartan_matrix(g)
    c, order, d = rootsys.coxeter_element(a)
    print(f"order: {order}, det(c - Id) = {d}")
    return 0


def cmd_quiver_indecomposables(args):
    from . import quiverrep
    q = _get_quiver(args)
    objs = quiverrep.enumerate_indecomposables(q)
    print(f"{len(objs)} indecomposable representations")
    for root, rep in objs:
        print("d = (" + ",".join(str(c) for c in root) + ")")
    return 0


def cmd_quiver_decompose(args):
    from . import quiverrep
    rep = quiverrep.rep_from_json(_load_json(_one_source(args, ("rep",))[1]))
    for root, mult in quiverrep.decompose(rep):
        print(f"(" + ",".join(str(c) for c in root) + f") x {mult}")
    return 0


# -- gl2 --------------------------------------------------------------------

def cmd_gl2_classes(args):
    from . import gl2fq
    q = parse_integer(args.q)
    group = gl2fq.GL2Group(q)
    print(f"|GL2(F_{q})| = {group.order}, {len(group.classes)} classes")
    for c in group.classes:
        print(f"{c.family} params={','.join(str(p) for p in c.params)} size={c.size}")
    return 0


def cmd_gl2_table(args):
    from . import gl2fq
    return _print_table(args, gl2fq.gl2_table(parse_integer(args.q)), gl2fq.gl2_table_to_json)


def cmd_gl2_verify(args):
    from . import gl2fq
    return _print_report(gl2fq.gl2_verify(gl2fq.gl2_table(parse_integer(args.q))))


# -- semidirect ----------------------------------------------------------------

def cmd_semidirect_table(args):
    from . import chartab, permgroup
    if args.construction == "dn":
        sd = permgroup.dihedral_semidirect(permgroup.check_name_range("D", parse_integer(args.n)))
    else:  # "heisenberg", the parser's other choice
        sd = chartab.heisenberg_semidirect()
    return _print_table(args, chartab.semidirect_table(sd), chartab.table_to_json)


# -- roundtrip -----------------------------------------------------------------

def _table_rows(table):
    return [(row.name, row.degree, [row.function.values[c] for c in table.display_classes])
            for row in table.rows]


def cmd_roundtrip(args):
    obj = _load_json(args.file)
    if not isinstance(obj, dict):
        raise ValueError("an artifact is a JSON object")
    if "rows" in obj and "classes" in obj:
        from . import chartab
        table = chartab.table_from_json(obj)
        again = chartab.table_to_json(table, group_name=obj.get("group")
                                      if isinstance(obj.get("group"), str) else None)
        ok = _table_rows(chartab.table_from_json(again)) == _table_rows(table)
    elif not {"quiver", "dims", "maps"}.isdisjoint(obj):
        from . import quiverrep
        rep = quiverrep.rep_from_json(obj)
        ok = quiverrep.rep_from_json(quiverrep.rep_to_json(rep)).maps == rep.maps
    elif "vertices" in obj:
        from . import rootsys
        g = rootsys.graph_from_json(obj)
        ok = rootsys.graph_from_json(rootsys.graph_to_json(g)).adjacency == g.adjacency
    elif "degree" in obj:
        from . import permgroup
        g = permgroup.group_from_json(obj)
        ok = permgroup.group_from_json(permgroup.group_to_json(g)).elements == g.elements
    elif "order" in obj and "coeffs" in obj:
        from . import exact
        v = exact.cyclotomic_from_json(obj)
        ok = exact.cyclotomic_from_json(exact.cyclotomic_to_json(v)) == v
    elif "entries" in obj:
        from . import linalg
        m = linalg.matrix_from_json(obj)
        ok = linalg.matrix_from_json(linalg.matrix_to_json(m)) == m
    else:
        raise ValueError("unrecognized artifact shape")
    print("roundtrip ok" if ok else "roundtrip FAILED")
    return 0 if ok else 1


def cmd_selftest(args):
    from . import selftest
    only = None if args.criterion is None else parse_integer(args.criterion)
    results = selftest.run_all(seed=parse_integer(args.seed), only=only)
    worst = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"[{status}] criterion {r.number:2d}: {r.title} ({r.elapsed:.2f}s)"
              + ("" if r.ok else f" -- {r.detail}"))
        worst = max(worst, 0 if r.ok else 1)
    return worst


# -- parser --------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser():
    """The one parser of the process, shared by every call of main: parse_args
    keeps no state between calls, and argparse reads sys.stdout, sys.stderr
    and the terminal width when it prints, not when the parser is built."""
    p = argparse.ArgumentParser(prog="reptheory",
                                description="exact character tables and quiver representations")
    sub = p.add_subparsers(dest="command", required=True)

    ct = sub.add_parser("chartab", help="character table operations").add_subparsers(
        dest="sub", required=True)
    s = ct.add_parser("show")
    s.add_argument("name", nargs="?")
    s.add_argument("--file")
    s.add_argument("--json", action="store_true")
    s.add_argument("--numeric", action="store_true")
    s.set_defaults(func=cmd_chartab_show)
    s = ct.add_parser("verify")
    s.add_argument("name", nargs="?")
    s.add_argument("--file")
    s.set_defaults(func=cmd_chartab_verify)
    s = ct.add_parser("tensor")
    s.add_argument("name")
    s.add_argument("row1")
    s.add_argument("row2")
    s.set_defaults(func=cmd_chartab_tensor)
    s = ct.add_parser("decompose")
    s.add_argument("name")
    s.add_argument("--values")
    s.add_argument("--regular", action="store_true", default=None)
    s.add_argument("--permutation", action="store_true", default=None)
    s.set_defaults(func=cmd_chartab_decompose)
    s = ct.add_parser("induce")
    s.add_argument("name")
    s.add_argument("--sub", required=True, help="subgroup generators 'i,j,k;...' (images)")
    s.add_argument("--sub-name", default=None)
    s.add_argument("--row", required=True)
    s.set_defaults(func=cmd_chartab_induce)
    s = ct.add_parser("restrict")
    s.add_argument("name")
    s.add_argument("--sub", required=True)
    s.add_argument("--row", required=True)
    s.set_defaults(func=cmd_chartab_restrict)
    s = ct.add_parser("fs")
    s.add_argument("name")
    s.set_defaults(func=cmd_chartab_fs)

    gr = sub.add_parser("group", help="permutation group data").add_subparsers(
        dest="sub", required=True)
    s = gr.add_parser("classes")
    s.add_argument("name", nargs="?")
    s.add_argument("--file")
    s.set_defaults(func=cmd_group_classes)

    sn = sub.add_parser("sn", help="symmetric group characters").add_subparsers(
        dest="sub", required=True)
    s = sn.add_parser("table")
    s.add_argument("n")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_sn_table)
    s = sn.add_parser("char")
    s.add_argument("--lambda", required=True)
    s.add_argument("--class", dest="cls", required=True)
    s.set_defaults(func=cmd_sn_char)
    s = sn.add_parser("dim")
    s.add_argument("--lambda", required=True)
    s.set_defaults(func=cmd_sn_dim)
    s = sn.add_parser("kostka")
    s.add_argument("--mu", required=True)
    s.add_argument("--lambda", required=True)
    s.set_defaults(func=cmd_sn_kostka)

    sc = sub.add_parser("schur", help="Schur polynomials").add_subparsers(
        dest="sub", required=True)
    s = sc.add_parser("eval")
    s.add_argument("--lambda", required=True)
    s.add_argument("--points", required=True)
    s.set_defaults(func=cmd_schur_eval)
    s = sc.add_parser("dim")
    s.add_argument("--lambda", required=True)
    s.add_argument("--vars", required=True)
    s.add_argument("--z", default=None)
    s.set_defaults(func=cmd_schur_dim)

    qv = sub.add_parser("quiver", help="Dynkin graphs and quiver representations"
                        ).add_subparsers(dest="sub", required=True)
    s = qv.add_parser("classify")
    s.add_argument("--type")
    s.add_argument("--graph")
    s.add_argument("--verbose", action="store_true")
    s.set_defaults(func=cmd_quiver_classify)
    s = qv.add_parser("roots")
    s.add_argument("--type")
    s.add_argument("--graph")
    s.add_argument("--count", action="store_true")
    s.set_defaults(func=cmd_quiver_roots)
    s = qv.add_parser("coxeter")
    s.add_argument("--type")
    s.add_argument("--graph")
    s.set_defaults(func=cmd_quiver_coxeter)
    s = qv.add_parser("indecomposables")
    s.add_argument("--type")
    s.add_argument("--arrows")
    s.add_argument("--rep")
    s.set_defaults(func=cmd_quiver_indecomposables)
    s = qv.add_parser("decompose")
    s.add_argument("--rep", required=True)
    s.set_defaults(func=cmd_quiver_decompose)

    gl = sub.add_parser("gl2", help="GL2 over a prime field").add_subparsers(
        dest="sub", required=True)
    s = gl.add_parser("classes")
    s.add_argument("--q", required=True)
    s.set_defaults(func=cmd_gl2_classes)
    s = gl.add_parser("table")
    s.add_argument("--q", required=True)
    s.add_argument("--json", action="store_true")
    s.add_argument("--numeric", action="store_true")
    s.set_defaults(func=cmd_gl2_table)
    s = gl.add_parser("verify")
    s.add_argument("--q", required=True)
    s.set_defaults(func=cmd_gl2_verify)

    sd = sub.add_parser("semidirect", help="semidirect product tables").add_subparsers(
        dest="sub", required=True)
    s = sd.add_parser("table")
    s.add_argument("construction", choices=["dn", "heisenberg"])
    s.add_argument("--n", default="3")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_semidirect_table)

    s = sub.add_parser("roundtrip", help="parse -> serialize -> parse a JSON artifact")
    s.add_argument("file")
    s.set_defaults(func=cmd_roundtrip)

    s = sub.add_parser("selftest", help="run the acceptance suite")
    s.add_argument("--seed", default="0")
    s.add_argument("--criterion", default=None)
    s.set_defaults(func=cmd_selftest)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`reptheory ... | head`): there is
        # nothing to report. Point stdout at devnull so that the flush at
        # exit does not fail again, and exit 1 as Python does on EPIPE (the
        # SIGPIPE note of the signal module documentation)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

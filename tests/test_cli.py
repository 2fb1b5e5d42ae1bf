import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reptheory
from reptheory import chartab, exact, permgroup, selftest, symgrp
from reptheory.cli import _get_table, _print_number, build_parser, main
from reptheory.chartab import builtin_table, table_to_json
from reptheory.exact import cyclotomic_to_json, zero
from reptheory.gl2fq import gl2_table, gl2_table_to_json
from reptheory.linalg import MAX_DIGITS, short_repr
from reptheory.permgroup import cycle_notation, group_from_json, parse_group_name
from reptheory.quiverrep import indecomposable_for_root, Quiver, rep_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_chartab_show_s3_golden(capsys):
    code, out, _ = run_cli(capsys, "chartab", "show", "S3")
    assert code == 0
    assert out == (
        "S3  Id  (12)  (123)\n"
        "#   1   3     2\n"
        "C+  1   1     1\n"
        "C-  1   -1    1\n"
        "C2  2   0     -1\n"
    )


def test_gl2_table_golden(capsys):
    code, out, _ = run_cli(capsys, "gl2", "table", "--q", "3")
    assert code == 0
    assert out == (
        "GL2(F_3)  scal(1)  scal(2)  para(1)  para(2)  hype(1,2)  elli(0,1)  elli(1,1)  elli(2,1)\n"
        "#         1        1        8        8        12         6          6          6\n"
        "xi[0]     1        1        1        1        1          1          1          1\n"
        "xi[1]     1        1        1        1        -1         1          -1         -1\n"
        "V[0,1]    4        -4       1        -1       0          0          0          0\n"
        "W[0]      3        3        0        0        1          -1         -1         -1\n"
        "W[1]      3        3        0        0        -1         -1         1          1\n"
        "X[1]      2        -2       -1       1        0          0          -z8-z8^3   z8+z8^3\n"
        "X[2]      2        2        -1       -1       0          2          0          0\n"
        "X[5]      2        -2       -1       1        0          0          z8+z8^3    -z8-z8^3\n"
    )
    code, out, _ = run_cli(capsys, "gl2", "table", "--q", "3", "--numeric")
    assert code == 0
    assert out == (
        "GL2(F_3)  scal(1)  scal(2)  para(1)  para(2)  hype(1,2)  elli(0,1)  elli(1,1)                      elli(2,1)\n"
        "#         1        1        8        8        12         6          6                              6\n"
        "xi[0]     1        1        1        1        1          1          1                              1\n"
        "xi[1]     1        1        1        1        -1         1          -1                             -1\n"
        "V[0,1]    4        -4       1        -1       0          0          0                              0\n"
        "W[0]      3        3        0        0        1          -1         -1                             -1\n"
        "W[1]      3        3        0        0        -1         -1         1                              1\n"
        "X[1]      2        -2       -1       1        0          0          -2.220446049e-16-1.414213562i  2.220446049e-16+1.414213562i\n"
        "X[2]      2        2        -1       -1       0          2          0                              0\n"
        "X[5]      2        -2       -1       1        0          0          2.220446049e-16+1.414213562i   -2.220446049e-16-1.414213562i\n"
    )


def test_output_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "chartab", "show", "A5")
    _, second, _ = run_cli(capsys, "chartab", "show", "A5")
    assert first == second
    _, j1, _ = run_cli(capsys, "gl2", "table", "--q", "3", "--json")
    _, j2, _ = run_cli(capsys, "gl2", "table", "--q", "3", "--json")
    assert j1 == j2


def test_sn_char_golden(capsys):
    code, out, _ = run_cli(capsys, "sn", "char", "--lambda", "2,1", "--class", "3")
    assert code == 0 and out.strip() == "-1"


def test_quiver_roots_count_golden(capsys):
    code, out, _ = run_cli(capsys, "quiver", "roots", "--type", "E8", "--count")
    assert code == 0 and out.strip() == "positive: 120, total: 240"


def test_quiver_classify(capsys):
    code, out, _ = run_cli(capsys, "quiver", "classify", "--type", "D6")
    assert code == 0 and out.strip() == "D_6"


def test_chartab_verify(capsys):
    code, out, _ = run_cli(capsys, "chartab", "verify", "Q8")
    assert code == 0 and out.strip().startswith("ok")


def test_chartab_show_dihedral_and_cyclic(capsys):
    code, out, _ = run_cli(capsys, "chartab", "show", "D4")
    assert code == 0 and out.splitlines()[0].startswith("D4")
    code, out, _ = run_cli(capsys, "chartab", "verify", "Z6")
    assert code == 0


def test_chartab_tensor(capsys):
    code, out, _ = run_cli(capsys, "chartab", "tensor", "A5", "C5", "C5")
    assert code == 0
    assert out.strip() == "C5 (x) C5 = C + C3+ + C3- + 2*C4 + 2*C5"


def test_chartab_decompose_regular(capsys):
    code, out, _ = run_cli(capsys, "chartab", "decompose", "S3", "--regular")
    assert code == 0
    assert out.splitlines() == ["C+: 1", "C-: 1", "C2: 2"]


def test_chartab_induce(capsys):
    code, out, _ = run_cli(capsys, "chartab", "induce", "S3",
                           "--sub", "1,0,2", "--row", "0")
    assert code == 0
    assert out.strip() == "Ind chi0 = C+ + C2"


def test_chartab_induce_nonabelian_subgroup(capsys):
    code, out, _ = run_cli(capsys, "chartab", "induce", "S4",
                           "--sub", "1,0,2,3;1,2,0,3", "--sub-name", "S3",
                           "--row", "C2")
    assert code == 0
    assert out.strip() == "Ind C2 = C2 + C3+ + C3-"


def test_chartab_induce_ambiguous_class_matching(capsys):
    # A4's two classes of 3-cycles share element order 3 and size 4
    code, out, err = run_cli(capsys, "chartab", "induce", "S4",
                             "--sub", "1,2,0,3;1,0,3,2", "--sub-name", "A4", "--row", "C")
    assert code == 1 and out == ""
    assert err == "error: ambiguous class matching: 2 classes of element order 3 and size 4\n"


def test_chartab_decompose_values(capsys):
    code, out, _ = run_cli(capsys, "chartab", "decompose", "S3",
                           "--values", "3,1,0")
    assert code == 0
    assert out.splitlines() == ["C+: 1", "C-: 0", "C2: 1"]


def test_chartab_restrict(capsys):
    code, out, _ = run_cli(capsys, "chartab", "restrict", "S3",
                           "--sub", "1,0,2", "--row", "C2")
    assert code == 0
    assert out.splitlines() == ["Id: 2", "(12): 0"]


def test_chartab_fs(capsys):
    code, out, _ = run_cli(capsys, "chartab", "fs", "Q8")
    assert code == 0
    assert out.splitlines()[-1] == "C2: -1"


def test_group_classes(capsys):
    code, out, _ = run_cli(capsys, "group", "classes", "A5")
    assert code == 0
    assert out.splitlines()[0] == "|G| = 60, 5 classes, exponent 30"


def test_sn_dim_and_kostka(capsys):
    code, out, _ = run_cli(capsys, "sn", "dim", "--lambda", "3,1,1")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run_cli(capsys, "sn", "kostka", "--mu", "2,1", "--lambda", "1,1,1")
    assert code == 0 and out.strip() == "2"


@pytest.mark.parametrize("mu, ones", [("1200", 1200), ("300,300", 600)])
def test_sn_kostka_of_a_long_lambda(capsys, mu, ones):
    # one part of lambda per level of the walk, past the recursion limit
    code, out, err = run_cli(capsys, "sn", "kostka", "--mu", mu, "--lambda", ",".join(["1"] * ones))
    want = symgrp.hook_dim(tuple(map(int, mu.split(","))))
    assert (code, out, err) == (0, f"{want}\n", "")
    assert want == (1 if ones == 1200 else comb(600, 300) // 301)


def test_schur_cli(capsys):
    code, out, _ = run_cli(capsys, "schur", "eval", "--lambda", "2,1",
                           "--points", "1,2,3")
    assert code == 0 and out.strip() == "60"
    code, out, _ = run_cli(capsys, "schur", "dim", "--lambda", "1,1", "--vars", "3")
    assert code == 0 and out.strip() == "3"


def test_gl2_verify_cli(capsys):
    code, out, _ = run_cli(capsys, "gl2", "verify", "--q", "3")
    assert code == 0 and out.strip().startswith("ok")


def test_gl2_table_file_reads_back(capsys, tmp_path):
    code, written, _ = run_cli(capsys, "gl2", "table", "--q", "5", "--json")
    assert code == 0
    path = tmp_path / "gl2-5.json"
    path.write_text(written)
    assert run_cli(capsys, "chartab", "verify", "--file", str(path)) == (0, "ok: 626 checks, 0 failures\n", "")
    assert run_cli(capsys, "roundtrip", str(path)) == (0, "roundtrip ok\n", "")
    assert run_cli(capsys, "chartab", "show", "--file", str(path), "--json") == (0, written, "")
    # the file's table is named as gl2 table names it, so the text agrees
    assert run_cli(capsys, "chartab", "show", "--file", str(path)) == \
        run_cli(capsys, "gl2", "table", "--q", "5")


def test_semidirect_cli(capsys):
    code, out, _ = run_cli(capsys, "semidirect", "table", "heisenberg")
    assert code == 0
    assert len(out.splitlines()) == 13  # header, sizes, 11 rows


def test_quiver_indecomposables_cli(capsys):
    code, out, _ = run_cli(capsys, "quiver", "indecomposables", "--type", "A3")
    assert code == 0
    assert out.splitlines()[0] == "6 indecomposable representations"


def test_quiver_coxeter_cli(capsys):
    code, out, _ = run_cli(capsys, "quiver", "coxeter", "--type", "D4")
    assert code == 0
    assert out.strip().startswith("order: 6,")


def test_schur_dim_geometric_cli(capsys):
    code, out, _ = run_cli(capsys, "schur", "dim", "--lambda", "2,1",
                           "--vars", "3", "--z", "3/2")
    assert code == 0 and out.strip() == "975/32"


def test_quiver_decompose_cli(tmp_path, capsys):
    rep = indecomposable_for_root(Quiver(3, [(0, 1), (1, 2)]), (1, 1, 1))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(rep)))
    code, out, _ = run_cli(capsys, "quiver", "decompose", "--rep", str(path))
    assert code == 0 and out.strip() == "(1,1,1) x 1"


@pytest.mark.parametrize("command", ["decompose", "indecomposables"])
def test_quiver_rep_not_an_object_is_a_typed_error(tmp_path, capsys, command):
    path = tmp_path / "rep.json"
    path.write_text("[1]")
    code, out, err = run_cli(capsys, "quiver", command, "--rep", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: a quiver representation is "), err


def test_roundtrip_table(tmp_path, capsys):
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(table_to_json(builtin_table("S4"), group_name=None)))
    code, out, _ = run_cli(capsys, "roundtrip", str(path))
    assert code == 0 and out.strip() == "roundtrip ok"


def test_roundtrip_rep(tmp_path, capsys):
    rep = indecomposable_for_root(Quiver(2, [(0, 1)]), (1, 1))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(rep)))
    code, out, _ = run_cli(capsys, "roundtrip", str(path))
    assert code == 0 and out.strip() == "roundtrip ok"


def test_roundtrip_compares_every_row(tmp_path, capsys, monkeypatch):
    path = tmp_path / "a5.json"
    path.write_text(json.dumps(table_to_json(builtin_table("A5"), group_name="A5")))
    code, out, _ = run_cli(capsys, "roundtrip", str(path))
    assert code == 0 and out.strip() == "roundtrip ok"

    def lossy(table, group_name=None):
        blob = table_to_json(table, group_name)
        blob["rows"][-1]["values"][-1] = blob["rows"][-1]["values"][0]
        return blob

    monkeypatch.setattr(chartab, "table_to_json", lossy)
    code, out, _ = run_cli(capsys, "roundtrip", str(path))
    assert code == 1 and out.strip() == "roundtrip FAILED"


def _s3_table(classes=(0, 1, 2), degree=1):
    """The character table of S3 as a file lists it, with the classes
    listed by their indices 0 (identity), 1 (transpositions) and 2
    (3-cycles), and the given degree on the trivial row."""
    cls = [{"rep": [0, 1, 2], "size": 1}, {"rep": [0, 2, 1], "size": 3}, {"rep": [1, 2, 0], "size": 2}]
    rows = [("C+", degree, (1, 1, 1)), ("C-", 1, (1, -1, 1)), ("C2", 2, (2, 0, -1))]
    return {"group": "S3", "classes": [cls[c] for c in classes],
            "rows": [{"name": name, "degree": d,
                      "values": [{"order": 1, "coeffs": [f"{values[c]}/1"]} for c in classes]}
                     for name, d, values in rows]}


BAD_ARTIFACTS = {
    "cyclotomic of order 0": {"order": 0, "coeffs": []},
    "ragged matrix": {"rows": 2, "cols": 2, "entries": [["1", "2"], ["3"]]},
    "edge past the last vertex": {"vertices": 3, "edges": [[0, 5]]},
    "negative edge endpoint": {"vertices": 3, "edges": [[0, -1]]},
    "matrix with integer entries": {"rows": 1, "cols": 1, "entries": [[1]]},
    "cyclotomic with integer coeffs": {"order": 3, "coeffs": [1, 0]},
    "edge with a string endpoint": {"vertices": 3, "edges": [[0, "a"]]},
    "one-element edge": {"vertices": 3, "edges": [[0]]},
    "edges not a list": {"vertices": 3, "edges": 5},
    "generators not a list": {"degree": 3, "generators": 5},
    "generator with a string image": {"degree": 3, "generators": [["a", 1, 2]]},
    "quiver not an object": {"quiver": 5, "dims": [], "maps": []},
    "cyclotomic of non-integral order": {"order": 3.5, "coeffs": ["1/1", "0/1"]},
    "artifact not an object": 5,
    "matrix with a null row count": {"rows": None, "cols": 1, "entries": [["1"]]},
    "quiver map not an object": {"quiver": {"vertices": 2, "arrows": [[0, 1]]},
                                 "dims": [1, 1], "maps": [5]},
    "table classes not a list": {"group": "S3", "classes": 5, "rows": []},
    "table row with a null degree": {"group": "S3", "classes": [{"rep": [0, 1, 2], "size": 1}],
                                     "rows": [{"name": "C+", "degree": None,
                                               "values": [{"order": 1, "coeffs": ["1/1"]}]}]},
    "graph with null vertices": {"vertices": None, "edges": []},
    "graph with a string vertex count": {"vertices": "3", "edges": [[0, 1]]},
    "graph with a float vertex count": {"vertices": 3.0, "edges": [[0, 1]]},
    "graph with no vertices": {"vertices": 0, "edges": []},
    "graph with 2000 vertices": {"vertices": 2000, "edges": [[0, 1]]},
    "table with no group": {"rows": [], "classes": []},
    "table value with no order": {"group": "S3", "classes": [{"rep": [0, 1, 2], "size": 1}],
                                  "rows": [{"name": "C+", "degree": 1,
                                            "values": [{"coeffs": ["1/1"]}]}]},
    "table value with no coeffs": {"group": "S3", "classes": [{"rep": [0, 1, 2], "size": 1}],
                                   "rows": [{"name": "C+", "degree": 1, "values": [{"order": 1}]}]},
    "quiver representation with no quiver": {"dims": [1, 1], "maps": []},
    "quiver representation with no dims": {"quiver": {"vertices": 2, "arrows": [[0, 1]]},
                                           "maps": []},
    "quiver representation with no maps": {"quiver": {"vertices": 2, "arrows": [[0, 1]]},
                                           "dims": [1, 1]},
    "quiver map with no entries": {"quiver": {"vertices": 2, "arrows": [[0, 1]]},
                                   "dims": [1, 1], "maps": [{"rows": 1, "cols": 1}]},
    "table missing a class": _s3_table(classes=(0, 1)),
    "table with a class twice": _s3_table(classes=(0, 1, 1)),
    "table row with a boolean degree": _s3_table(degree=True),
    "graph edge with boolean endpoints": {"vertices": 2, "edges": [[False, True]]},
    "generator with boolean images": {"degree": 3, "generators": [[True, False, 2]]},
    "quiver representation with a boolean dim": {"quiver": {"vertices": 2, "arrows": [[0, 1]]},
                                                 "dims": [True, 1],
                                                 "maps": [{"rows": 1, "cols": 1, "entries": [["1/1"]]}]},
    "matrix with a boolean row count": {"rows": True, "cols": 1, "entries": [["1/1"]]},
    "group of degree 10^9": {"degree": 10 ** 9, "generators": []},
}


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
@pytest.mark.parametrize("kind", sorted(BAD_ARTIFACTS))
def test_bad_artifact_is_a_typed_error(tmp_path, kind, optimize):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_ARTIFACTS[kind]))
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-m", "reptheory.cli", "roundtrip", str(path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


# every command that reads a JSON file, followed by the file
FILE_READERS = [["roundtrip"], ["chartab", "show", "--file"], ["chartab", "verify", "--file"],
                ["group", "classes", "--file"], ["quiver", "classify", "--graph"],
                ["quiver", "decompose", "--rep"]]


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
@pytest.mark.parametrize("argv", FILE_READERS, ids=" ".join)
def test_deeply_nested_json_is_a_typed_error(tmp_path, argv, optimize):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-m", "reptheory.cli", *argv, str(path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (1, "", f"error: {path}: JSON nested too deeply\n")


# the command besides roundtrip that reads each kind of artifact from a file
READERS = {"table": ["chartab", "show", "--file"], "quiver": ["quiver", "decompose", "--rep"]}


@pytest.mark.parametrize("kind, field", [("table with no group", "group"),
                                         ("table value with no order", "order"),
                                         ("table value with no coeffs", "coeffs"),
                                         ("quiver representation with no quiver", "quiver"),
                                         ("quiver representation with no dims", "dims"),
                                         ("quiver representation with no maps", "maps"),
                                         ("quiver map with no entries", "entries")])
@pytest.mark.parametrize("command", [["roundtrip"], ["reader"]])
def test_missing_field_is_named(capsys, tmp_path, kind, field, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_ARTIFACTS[kind]))
    if command == ["reader"]:
        command = READERS[kind.split()[0]]
    code, out, err = run_cli(capsys, *command, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: a ") and err.endswith(f' needs the field "{field}"\n'), err


def test_s3_table_file_is_the_builtin_table(capsys, tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(_s3_table()))
    for command in (["roundtrip"], ["chartab", "show", "--file"], ["chartab", "verify", "--file"]):
        assert run_cli(capsys, *command, str(path))[0] == 0


@pytest.mark.parametrize("kind", ["table missing a class", "table with a class twice"])
@pytest.mark.parametrize("command", [["roundtrip"], ["chartab", "show", "--file"], ["chartab", "verify", "--file"]])
def test_table_lists_each_class_once(capsys, tmp_path, kind, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_ARTIFACTS[kind]))
    assert run_cli(capsys, *command, str(path)) == (
        1, "", "error: a table lists each of the 3 classes of its group exactly once\n")


# each artifact with a boolean where an integer belongs, the command besides
# roundtrip that reads it, and the error it ends in
BOOLEAN_READERS = [
    ("table row with a boolean degree", ["chartab", "verify", "--file"],
     'error: a table row needs the field "degree" to be an integer'),
    ("graph edge with boolean endpoints", ["quiver", "classify", "--graph"],
     "error: edge [False, True] is not two endpoints and an optional multiplicity"),
    ("generator with boolean images", ["group", "classes", "--file"],
     "error: not a permutation of 0..2: (True, False, 2)"),
    ("quiver representation with a boolean dim", ["quiver", "decompose", "--rep"],
     'error: a quiver representation needs the field "dims" to be a list of integers'),
]


@pytest.mark.parametrize("kind, command, error", BOOLEAN_READERS, ids=[k for k, _, _ in BOOLEAN_READERS])
def test_boolean_is_not_an_integer(capsys, tmp_path, kind, command, error):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_ARTIFACTS[kind]))
    code, out, err = run_cli(capsys, *command, str(path))
    assert (code, out) == (1, "") and err.startswith(error), err


def test_group_degree_is_bounded(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BAD_ARTIFACTS["group of degree 10^9"]))
    for command in (["roundtrip"], ["group", "classes", "--file"]):
        assert run_cli(capsys, *command, str(path)) == (
            1, "", f"error: a permutation group has degree 0 to {permgroup.MAX_DEGREE}, got 1000000000\n")


# artifacts with one value far too long to quote in full, and the command
# besides roundtrip that reads each
LONG = list(range(10 ** 5))
LONG_VALUES = {
    "quiver arrow": ({"quiver": {"vertices": 2, "arrows": [LONG]}, "dims": [0, 0], "maps": []},
                     ["quiver", "decompose", "--rep"]),
    "group generator": ({"degree": 3, "generators": [LONG]}, ["group", "classes", "--file"]),
    "table class rep": ({**_s3_table(), "classes": [{"rep": LONG, "size": 1}]},
                        ["chartab", "show", "--file"]),
    "table group name": ({**_s3_table(), "group": "S" * 10 ** 5}, ["chartab", "verify", "--file"]),
    "graph edge": ({"vertices": 2, "edges": [LONG]}, ["quiver", "classify", "--graph"]),
    "graph vertex count": ({"vertices": 10 ** 4000, "edges": []}, ["quiver", "roots", "--graph"]),
    "matrix entry": ({"rows": 1, "cols": 1, "entries": [["1" * 10 ** 5 + "x"]]}, ["roundtrip"]),
    "matrix row count": ({"rows": 10 ** 4000, "cols": 1, "entries": []}, ["roundtrip"]),
    "cyclotomic order": ({"order": -10 ** 4000, "coeffs": []}, ["roundtrip"]),
    "group degree": ({"degree": 10 ** 4000, "generators": []}, ["group", "classes", "--file"]),
}


@pytest.mark.parametrize("kind", sorted(LONG_VALUES))
def test_error_quotes_a_long_value_in_one_short_line(capsys, tmp_path, kind):
    artifact, reader = LONG_VALUES[kind]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(artifact))
    for command in (["roundtrip"], reader):
        code, out, err = run_cli(capsys, *command, str(path))
        assert (code, out) == (1, "") and err.startswith("error: "), err[:200]
        assert err.count("\n") == 1 and len(err) < 200 and "..." in err, (command, err[:200])


# one valid artifact of each kind, and every command that reads a file
VALID_ARTIFACTS = {
    "table": _s3_table(),
    "quiver representation": rep_to_json(indecomposable_for_root(Quiver(3, [(0, 1), (2, 1)]), (1, 1, 1))),
    "graph": {"vertices": 3, "edges": [[0, 1], [1, 2, 1]]},
    "group": {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
    "cyclotomic": {"order": 3, "coeffs": ["1/2", "-3/4"]},
    "matrix": {"rows": 2, "cols": 2, "entries": [["1/2", "0/1"], ["3", "-1/3"]]},
    "GL2 table": json.loads(json.dumps(gl2_table_to_json(gl2_table(3)))),
}
FILE_READERS = [["roundtrip"], ["chartab", "show", "--file"], ["chartab", "verify", "--file"],
                ["group", "classes", "--file"], ["quiver", "classify", "--graph"],
                ["quiver", "roots", "--graph"], ["quiver", "decompose", "--rep"],
                ["quiver", "indecomposables", "--rep"]]
# small values of every JSON type, for a value to be swapped with one of
# another type; none of them sizes anything past a few points
JSON_VALUES = [None, True, 0, 2, -1, 2.5, "", "1/2", "S3", [], [0, 1], {}, {"order": 1}]


def _json_paths(obj, path=()):
    """The path of keys and indices to every value in obj, obj's own () first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _json_paths(value, path + (key,))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data())
def test_artifact_fuzz(tmp_path_factory, data):
    # one field dropped, one value swapped for another JSON type or one
    # value nested a level deeper, in a valid or a bad artifact: every
    # command that reads a file exits 0 or 1 and raises nothing (src has
    # no assert, so python -O takes the same paths)
    seeds = st.one_of(st.sampled_from(list(VALID_ARTIFACTS.values())),
                      st.sampled_from(list(BAD_ARTIFACTS.values())))
    holder = [json.loads(json.dumps(data.draw(seeds)))]
    paths = list(_json_paths(holder))[1:]  # the artifact itself, (0,), first
    mutation = data.draw(st.sampled_from(["drop", "swap", "nest"] if len(paths) > 1 else ["swap", "nest"]))
    *parent_path, key = data.draw(st.sampled_from(paths[1:] if mutation == "drop" else paths))
    parent = holder
    for k in parent_path:
        parent = parent[k]
    value = parent[key]
    if mutation == "drop":
        del parent[key]
    elif mutation == "swap":
        parent[key] = data.draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(value)]))
    else:
        parent[key] = [value]
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(holder[0]))
    for argv in FILE_READERS:
        # a second run reads the values the first one left in the memo of
        # cyclotomic_from_json, and must end the same
        with pytest.MonkeyPatch.context() as cold_memo:
            cold_memo.setattr(exact, "_FROM_JSON", {})
            cold_memo.setattr(exact, "_from_json_coeffs", 0)
            cold, warm = _main_output(argv, path), _main_output(argv, path)
        assert cold[0] in (0, 1), argv
        assert warm == cold, argv


def _main_output(argv, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
@pytest.mark.parametrize("command", ["roots", "coxeter"])
def test_non_dynkin_graph_is_a_typed_error(tmp_path, command, optimize):
    # the 3-cycle (affine A~2) has infinitely many roots and a Coxeter
    # element of infinite order
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-m", "reptheory.cli", "quiver", command,
                           "--graph", str(path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: ") and "not positive definite" in proc.stderr


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
@pytest.mark.parametrize("command", ["classify", "coxeter"])
def test_empty_graph_is_a_typed_error(tmp_path, command, optimize):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": 0, "edges": []}))
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-m", "reptheory.cli", "quiver", command,
                           "--graph", str(path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("error: a graph has 1 to ")


# diagram names with no family letter, or with digits that are not ASCII
# (str.isdigit and int() accept the Arabic-Indic three)
BAD_DIAGRAM_NAMES = [" ", "_", "~", "\u0663", "A\u0663", "E\u0668", "D_\u0664"]

DIAGRAM_SCRIPT = """
import contextlib, io, json, sys
from reptheory.cli import main
out = []
for name in json.loads(sys.argv[1]):
    for command in (["roots", "--count"], ["coxeter"], ["classify"], ["indecomposables"]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["quiver", command[0], "--type", name, *command[1:]])
        out.append([name, command[0], code, stdout.getvalue(), stderr.getvalue()])
print(json.dumps(out))
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_bad_diagram_name_is_a_typed_error(optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-c", DIAGRAM_SCRIPT, json.dumps(BAD_DIAGRAM_NAMES)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
    for name, command, code, out, err in json.loads(proc.stdout):
        assert (code, out) == (1, ""), (name, command, out)
        assert err == f"error: cannot parse diagram name {name!r}\n", (name, command, err)


CLI_CASES_SCRIPT = """
import contextlib, io, json, sys
from reptheory.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out.append([code, stdout.getvalue(), stderr.getvalue()])
print(json.dumps(out))
"""

NOT_DEFINITE = "error: the form 2*Id - R is not positive definite: not a Dynkin diagram\n"

# --type takes the affine names of rootsys.affine_graph too; the doubled
# edge of A~1 is two arrows
AFFINE_NAME_CASES = [
    *[(["quiver", "classify", "--verbose", "--type", name], 0,
       f"affine\ndet = 0; kind = affine; name = affine ({name})\n", "")
      for name in ("A~1", "A~2", "A~5", "D~4", "D~6", "E~6", "E~7", "E~8")],
    (["quiver", "classify", "--type", "a_~3"], 0, "affine\n", ""),
    (["quiver", "roots", "--type", "E~6"], 1, "", NOT_DEFINITE),
    (["quiver", "roots", "--count", "--type", "A~2"], 1, "", NOT_DEFINITE),
    (["quiver", "coxeter", "--type", "D~4"], 1, "", NOT_DEFINITE),
    *[(["quiver", "indecomposables", "--type", name], 1, "",
       f"error: not finite type: underlying graph is affine ({name})\n") for name in ("A~1", "E~6")],
    (["quiver", "classify", "--type", "A~x"], 1, "", "error: cannot parse diagram name 'A~x'\n"),
    (["quiver", "roots", "--type", "~~"], 1, "", "error: cannot parse diagram name '~~'\n"),
    (["quiver", "classify", "--type", "X~3"], 1, "", "error: not an affine diagram name: 'X~3'\n"),
]


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_affine_diagram_names_reach_the_graph_commands(optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    argvs = [argv for argv, *_ in AFFINE_NAME_CASES]
    proc = subprocess.run([sys.executable, *optimize, "-c", CLI_CASES_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
    for (argv, *want), got in zip(AFFINE_NAME_CASES, json.loads(proc.stdout)):
        assert got == want, argv


# --arrows, each with the arrow that the error names
BAD_ARROWS = {"0>1,1": "1", "0>1>2": "0>1>2"}


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_bad_arrow_is_a_typed_error(optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    argvs = [["quiver", "indecomposables", "--arrows", arrows] for arrows in BAD_ARROWS]
    proc = subprocess.run([sys.executable, *optimize, "-c", CLI_CASES_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
    for (arrows, bad), got in zip(BAD_ARROWS.items(), json.loads(proc.stdout)):
        assert got == [1, "", f"error: an arrow is written s>t, not {bad!r}\n"], arrows


# a quiver command takes exactly one non-empty source: none, an empty one
# and two at once (even an empty one beside a good one) are each a typed
# error, exit 1, and no source is preferred to another
QUIVER_SOURCE_CASES = {
    ("roots", "--count"): "pass --type or --graph",
    ("roots", "--graph", "", "--count"): "--graph names no file",
    ("classify", "--type", ""): "--type names no diagram",
    ("roots", "--graph", "", "--type", "E6", "--count"): "pass --type or --graph, not --type and --graph",
    ("coxeter", "--graph", "g.json", "--type", "E6"): "pass --type or --graph, not --type and --graph",
    ("indecomposables",): "pass --type, --arrows or --rep",
    ("indecomposables", "--arrows", ""): "--arrows names no arrow",
    ("indecomposables", "--rep", ""): "--rep names no file",
    ("indecomposables", "--type", ""): "--type names no diagram",
    ("indecomposables", "--arrows", "", "--type", "E6"): "pass --type, --arrows or --rep, not --type and --arrows",
    ("indecomposables", "--rep", "v.json", "--arrows", "0>1"):
        "pass --type, --arrows or --rep, not --arrows and --rep",
    ("indecomposables", "--rep", "v.json", "--arrows", "0>1", "--type", "A2"):
        "pass --type, --arrows or --rep, not --type and --arrows",
    ("decompose", "--rep", ""): "--rep names no file",
}


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_quiver_sources_are_checked(optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    argvs = [["quiver", *args] for args in QUIVER_SOURCE_CASES]
    proc = subprocess.run([sys.executable, *optimize, "-c", CLI_CASES_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
    for (args, message), got in zip(QUIVER_SOURCE_CASES.items(), json.loads(proc.stdout)):
        assert got == [1, "", f"error: {message}\n"], args


# the table and group commands take a group name or --file, and decompose
# one of --values, --regular and --permutation, exactly one, as the quiver
# commands take theirs (an empty group name is an unknown name, NAME_CASES)
TABLE_SOURCE_CASES = {
    ("chartab", "show", "A5", "--file", "s3.json"): "pass a group name or --file, not a group name and --file",
    ("chartab", "verify", "A5", "--file", "s3.json"): "pass a group name or --file, not a group name and --file",
    ("group", "classes", "S4", "--file", "g.json"): "pass a group name or --file, not a group name and --file",
    ("chartab", "show"): "pass a group name or --file",
    ("chartab", "verify"): "pass a group name or --file",
    ("group", "classes"): "pass a group name or --file",
    ("chartab", "show", "--file", ""): "--file names no file",
    ("chartab", "verify", "--file="): "--file names no file",
    ("group", "classes", "--file", ""): "--file names no file",
    ("chartab", "decompose", "S3", "--values", "1,1,1", "--regular"):
        "pass --values, --regular or --permutation, not --values and --regular",
    ("chartab", "decompose", "S3", "--regular", "--permutation"):
        "pass --values, --regular or --permutation, not --regular and --permutation",
    ("chartab", "decompose", "S3", "--values", ""): "--values names no value",
}


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_table_and_group_sources_are_checked(optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-c", CLI_CASES_SCRIPT, json.dumps(list(TABLE_SOURCE_CASES))],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
    for (args, message), got in zip(TABLE_SOURCE_CASES.items(), json.loads(proc.stdout)):
        assert got == [1, "", f"error: {message}\n"], args


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_reader_closing_stdout_early_is_not_an_error(optimize):
    # 283 kB of output, far more than a pipe holds: the command is still
    # writing when the reader goes
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, *optimize, "-m", "reptheory.cli", "sn", "table", "13"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline().startswith(b"S13")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


# 40 bytes that used to ask for a dense 2000 x 2000 adjacency matrix. The
# CLI imports rootsys on first use; it is imported before tracing starts,
# so that the peak is the command's own, not that of compiling the module
HUGE_GRAPH = """
import sys, time, tracemalloc
from reptheory import cli, rootsys
tracemalloc.start()
start = time.perf_counter()
code = cli.main(sys.argv[1:])
print(code, time.perf_counter() - start, tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
@pytest.mark.parametrize("argv", [["roundtrip"], ["quiver", "classify", "--graph"]],
                         ids=["roundtrip", "classify"])
def test_huge_vertex_count_is_rejected_before_allocating(tmp_path, argv, optimize):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vertices": 2000, "edges": [[0, 1]]}))
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-c", HUGE_GRAPH, *argv, str(path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.stderr.startswith("error: a graph has 1 to 200 vertices, got 2000")
    code, elapsed, peak = proc.stdout.split()
    assert code == "1" and float(elapsed) < 0.5 and int(peak) < 1_000_000, proc.stdout


def test_roundtrip_truncated_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    blob = json.dumps(table_to_json(builtin_table("S4")))
    path.write_text(blob[:len(blob) // 2])
    code, out, err = run_cli(capsys, "roundtrip", str(path))
    assert code == 1
    assert "error" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "gl2", "table", "--q", "4")
    assert code == 1 and "error" in err


def test_q_range_comes_before_primality(capsys):
    for q in (1, 2, 4, 9, 15, 25, 27):
        assert run_cli(capsys, "gl2", "classes", "--q", str(q)) == \
            (1, "", f"error: q must be an odd prime, got {q}\n")
    for q in (32, 33, 37, 10 ** 6, 10 ** 18 + 9):
        assert run_cli(capsys, "gl2", "verify", "--q", str(q)) == \
            (1, "", "error: q is limited to 31 (discrete logarithm tables)\n")


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_huge_prime_q_is_rejected_at_once(optimize):
    # 10^18 + 9 is prime: trial division to its square root would not end
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-m", "reptheory.cli", "gl2", "table", "--q",
                           "1000000000000000009"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=2)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr == "error: q is limited to 31 (discrete logarithm tables)\n"


UNKNOWN_ROWS = {
    "tensor": (["chartab", "tensor", "S3", "bogus", "C+"], "error: no row 'bogus' in the S3 table\n"),
    "restrict": (["chartab", "restrict", "S3", "--sub", "1,0,2", "--row", "nope"],
                 "error: no row 'nope' in the S3 table\n"),
    "induce": (["chartab", "induce", "S4", "--sub", "1,0,2,3;1,2,0,3", "--sub-name", "S3",
                "--row", "nope"], "error: no row 'nope' in the S3 table\n"),
}


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
@pytest.mark.parametrize("command", sorted(UNKNOWN_ROWS))
def test_unknown_row_name_is_named(command, optimize):
    argv, err = UNKNOWN_ROWS[command]
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-m", "reptheory.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["chartab", "bogus-subcommand"])
    assert exc.value.code == 2


def command_paths(parser, path=()):
    """The words of the top-level command, of each command group and of
    each subcommand, from the parser's subparsers."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from command_paths(sub, (*path, name))


HELP_DIGESTS = json.loads((Path(__file__).parent / "golden" / "help_digests.json").read_text())


def test_help_texts_are_pinned(capsys, monkeypatch):
    # argparse wraps help to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    paths = [" ".join(path) for path in command_paths(build_parser())]
    assert sorted(paths) == sorted(HELP_DIGESTS)
    for path in paths:
        with pytest.raises(SystemExit) as exc:
            main([*path.split(), "--help"])
        out = capsys.readouterr()
        assert exc.value.code == 0 and out.err == ""
        assert hashlib.sha256(out.out.encode()).hexdigest() == HELP_DIGESTS[path], path


def test_numeric_flag(capsys):
    code, out, _ = run_cli(capsys, "chartab", "show", "A5", "--numeric")
    assert code == 0
    assert "1.618033989" in out


def test_json_flag_is_valid_json(capsys):
    code, out, _ = run_cli(capsys, "chartab", "show", "S4", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["group"] == "S4"
    assert len(blob["rows"]) == 5
    assert [c["size"] for c in blob["classes"]] == [1, 6, 3, 8, 6]


def test_selftest_single_criterion(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--criterion", "1")
    assert code == 0
    assert out.startswith("[PASS] criterion  1")


# hook_dim returning -1 must fail criterion 5; `assert` would let -O pass it
SABOTAGED_SELFTEST = """
import sys
from reptheory import cli, selftest
selftest.hook_dim = lambda lam: -1
sys.exit(cli.main(["selftest", "--criterion", "5"]))
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_selftest_fails_a_sabotaged_criterion(optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-c", SABOTAGED_SELFTEST],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.startswith("[FAIL] criterion  5")


# an integer coefficient string, alone on its line of a --json output
INTEGER_COEFF = re.compile(r'^( *"-?[0-9]+)"', re.M)


def old_spelling(text):
    """A --json output as files were written before integer coefficients
    were written alone: every integer n as "n/1"."""
    return INTEGER_COEFF.sub(r'\1/1"', text)


def assert_bytes_pinned(out, pin):
    """A text output has one sha256 pin. A --json output has two: one of
    the output, and one of its old spelling, which shows that only the
    spelling of the coefficients changed."""
    new, *old = [pin] if isinstance(pin, str) else pin
    assert hashlib.sha256(out.encode()).hexdigest() == new
    if old:
        assert hashlib.sha256(old_spelling(out).encode()).hexdigest() == old[0]


GL2_DIGESTS = json.loads((Path(__file__).parent / "golden" / "gl2_cli_digests.json").read_text())


@pytest.mark.parametrize("command", sorted(GL2_DIGESTS))
def test_gl2_cli_bytes_are_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert_bytes_pinned(out, GL2_DIGESTS[command])


SN_DIGESTS = json.loads((Path(__file__).parent / "golden" / "sn_cli_digests.json").read_text())


@pytest.mark.parametrize("command", sorted(SN_DIGESTS))
def test_sn_cli_bytes_are_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert_bytes_pinned(out, SN_DIGESTS[command])


@pytest.mark.parametrize("command", ["gl2 table --q 7 --json", "chartab show S6 --json"])
def test_table_files_in_the_old_spelling_read_back(capsys, tmp_path, command):
    # a file that spells every integer coefficient "n/1" reads back to the
    # table of the file that spells it "n"
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0 and '"0"' in out and '"0/1"' in old_spelling(out)
    new, old = chartab.table_from_json(json.loads(out)), chartab.table_from_json(json.loads(old_spelling(out)))
    assert old.display_classes == new.display_classes
    assert [(r.name, r.degree, r.values) for r in old.rows] == \
        [(r.name, r.degree, r.values) for r in new.rows]
    path = tmp_path / "old.json"
    path.write_text(old_spelling(out))
    assert run_cli(capsys, "roundtrip", str(path))[:2] == (0, "roundtrip ok\n")
    assert run_cli(capsys, "chartab", "show", "--file", str(path), "--json") == (0, out, "")


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
@pytest.mark.parametrize("argv", [
    ["sn", "table", "0"],
    ["sn", "table", str(symgrp.MAX_TABLE_N + 1)],
    ["chartab", "induce", "S16", "--sub", "1,0," + ",".join(map(str, range(2, 16))), "--row", "0"],
    ["chartab", "restrict", "S16", "--sub", "1,0," + ",".join(map(str, range(2, 16))),
     "--row", "V[16]"],
], ids=["sn table 0", "sn table above the bound", "induce S16", "restrict S16"])
def test_sn_out_of_range_is_a_typed_error(argv, optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-m", "reptheory.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 1 and proc.stdout == "", proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_sn_table_file_reads_back_past_s8(tmp_path, optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])

    def run(*argv):
        proc = subprocess.run([sys.executable, *optimize, "-m", "reptheory.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
        return proc.stdout

    path = tmp_path / "s9.json"
    path.write_text(run("sn", "table", "9", "--json"))
    assert run("roundtrip", str(path)) == "roundtrip ok\n"
    assert run("chartab", "verify", "--file", str(path)).splitlines()[-1].startswith("ok: ")
    # the file's table labels classes by representatives, not cycle types;
    # the size row and every value match the built table
    shown, built = run("chartab", "show", "--file", str(path)), run("sn", "table", "9")
    assert [line.split() for line in shown.splitlines()[1:]] == \
        [line.split() for line in built.splitlines()[1:]]


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
@pytest.mark.parametrize("n", [5, 9, symgrp.MAX_TABLE_N])
def test_sn_table_file_is_rewritten_by_name(tmp_path, n, optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])

    def run(*argv):
        proc = subprocess.run([sys.executable, *optimize, "-m", "reptheory.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
        return proc.stdout

    written, rewritten = tmp_path / "sn.json", tmp_path / "again.json"
    written.write_text(run("sn", "table", str(n), "--json"))
    rewritten.write_text(run("chartab", "show", "--file", str(written), "--json"))
    assert rewritten.read_text() == written.read_text()  # the group is written as "S<n>"
    assert run("roundtrip", str(rewritten)) == "roundtrip ok\n"


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_dihedral_table_file_reads_back(capsys, tmp_path, n):
    code, out, _ = run_cli(capsys, "chartab", "show", f"D{n}", "--json")
    assert code == 0
    # the table lives on the 2n points of dihedral_semidirect(n)
    assert group_from_json(json.loads(out)["group"]).degree == 2 * n
    path = tmp_path / f"d{n}.json"
    path.write_text(out)
    assert run_cli(capsys, "roundtrip", str(path))[:2] == (0, "roundtrip ok\n")
    code, out, _ = run_cli(capsys, "chartab", "verify", "--file", str(path))
    assert code == 0 and out.startswith("ok: ")
    named = _get_table(f"D{n}")
    back = chartab.table_from_json(json.loads(path.read_text()))
    assert back.display_classes == named.display_classes
    assert [(r.name, r.degree, r.values) for r in back.rows] == \
        [(r.name, r.degree, r.values) for r in named.rows]


@pytest.mark.parametrize("name", ["S9", "s_9", "D_4", "d4", "Z_6", "A3", "A5", "Q8", "q_8"])
def test_name_and_its_table_file_agree(capsys, tmp_path, name):
    canonical = "%s%d" % parse_group_name(name)
    code, shown, _ = run_cli(capsys, "chartab", "show", name)
    assert code == 0 and shown.split()[0] == canonical
    assert run_cli(capsys, "chartab", "show", canonical)[1] == shown
    code, written, _ = run_cli(capsys, "chartab", "show", name, "--json")
    assert code == 0 and json.loads(written)["group"] == canonical
    assert run_cli(capsys, "chartab", "show", canonical, "--json")[1] == written
    path = tmp_path / "table.json"
    path.write_text(written)
    assert run_cli(capsys, "roundtrip", str(path))[:2] == (0, "roundtrip ok\n")
    # the file's table differs from the named one only in its header line
    code, from_file, _ = run_cli(capsys, "chartab", "show", "--file", str(path))
    assert code == 0
    assert [line.split() for line in from_file.splitlines()[1:]] == \
        [line.split() for line in shown.splitlines()[1:]]
    verified = run_cli(capsys, "chartab", "verify", name)
    assert verified[0] == 0 and verified[1].startswith("ok: ")
    assert run_cli(capsys, "chartab", "verify", "--file", str(path)) == verified
    # `group classes` lists the table's columns: representatives and sizes
    code, listed, _ = run_cli(capsys, "group", "classes", name)
    assert code == 0
    classes = [(line.split()[2], int(line.split()[4])) for line in listed.splitlines()[1:]]
    columns = [(cycle_notation(c["rep"]), c["size"]) for c in json.loads(written)["classes"]]
    assert sorted(classes) == sorted(columns)


@pytest.mark.parametrize("name, header", [
    ("S9", "|G| = 362880, 30 classes, exponent 2520"),
    ("s_15", "|G| = 1307674368000, 176 classes, exponent 360360"),
])
def test_group_classes_of_sn_past_s8(capsys, name, header):
    code, out, _ = run_cli(capsys, "group", "classes", name)
    assert code == 0 and out.splitlines()[0] == header


def _name_exit_codes(name):
    """The exit code of `group classes` and of `chartab show` on a name."""
    codes = []
    for command in (["group", "classes"], ["chartab", "show"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main([*command, "--", name]))
    return codes


GRAMMAR_NAMES = st.builds("{}{}{}".format, st.sampled_from("SAZDQsazdq"),
                          st.sampled_from(["", "_"]), st.integers(0, 12))


@settings(max_examples=80, deadline=None)
@given(st.one_of(GRAMMAR_NAMES, st.text(max_size=6)))
def test_group_name_fuzz(name):
    assert set(_name_exit_codes(name)) <= {0, 1}


# name -> stderr of `group classes NAME` and of `chartab show NAME`, "" on exit 0
NAME_CASES = {
    "Q_8": ("", ""),
    "q_8": ("", ""),
    "s_9": ("", ""),
    "D_4": ("", ""),
    "A3": ("", ""),
    "A7": ("", "error: no table construction for 'A7'; use a builtin name or a file\n"),
    "Z0": ("error: n must be >= 1\n",) * 2,
    "D0": ("error: n must be >= 1\n",) * 2,
    "A0": ("error: n must be >= 1\n",) * 2,
    "S\u0663": ("error: unknown group name: 'S\u0663'\n",) * 2,
    "S16": ("error: symmetric groups only up to S15 here\n",) * 2,
    "A8": ("error: alternating groups only up to A7 here\n",) * 2,
    "z100": ("", ""),
    "D_100": ("", ""),
    "Z101": ("error: cyclic and dihedral groups only up to Z100 here\n",) * 2,
    "d101": ("error: cyclic and dihedral groups only up to D100 here\n",) * 2,
    "M11": ("error: unknown group name: 'M11'\n",) * 2,
    "-x": ("error: unknown group name: '-x'\n",) * 2,
    "": ("error: unknown group name: ''\n",) * 2,
}

NAME_SCRIPT = """
import contextlib, io, json, sys
from reptheory.cli import main
out = {}
for name in json.loads(sys.argv[1]):
    for command in (["group", "classes"], ["chartab", "show"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*command, "--", name])
        out.setdefault(name, []).append([code, err.getvalue()])
print(json.dumps(out))
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_group_names_exit_0_or_1(optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-c", NAME_SCRIPT, json.dumps(list(NAME_CASES))],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
    got = json.loads(proc.stdout)
    assert got == {name: [[1 if err else 0, err] for err in errs]
                   for name, errs in NAME_CASES.items()}


# every integer the command line reads, written with digits that are not
# ASCII (int() takes the Arabic-Indic ones), with "_" or with inner spaces
NOT_ASCII_INTEGERS = [
    (["sn", "table", "\u0663"], "\u0663"),
    (["sn", "table", "1_0"], "1_0"),
    (["gl2", "table", "--q", "\u0661\u0663"], "\u0661\u0663"),
    (["gl2", "classes", "--q", "+ 3"], "+ 3"),
    (["gl2", "verify", "--q", "\u0663"], "\u0663"),
    (["semidirect", "table", "dn", "--n", "\u0665"], "\u0665"),
    (["schur", "dim", "--lambda", "2,1", "--vars", "\u0663"], "\u0663"),
    (["selftest", "--criterion", "\u0661"], "\u0661"),
    (["selftest", "--seed", "1_0", "--criterion", "1"], "1_0"),
    (["sn", "dim", "--lambda", "\u0662,1"], "\u0662"),
    (["sn", "kostka", "--mu", "2,1", "--lambda", "1 1,1"], "1 1"),
    (["quiver", "indecomposables", "--arrows", "0>\u0661"], "\u0661"),
    (["chartab", "restrict", "S3", "--sub", "1,\u0660,2", "--row", "C+"], "\u0660"),
]

INTEGER_SCRIPT = """
import contextlib, io, json, sys
from reptheory.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out.append([code, stdout.getvalue(), stderr.getvalue()])
print(json.dumps(out))
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_command_line_integers_are_ascii(optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    argvs = [argv for argv, _ in NOT_ASCII_INTEGERS] + [["sn", "table", " 3 "]]
    proc = subprocess.run([sys.executable, *optimize, "-c", INTEGER_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
    *bad, ok = json.loads(proc.stdout)
    for (argv, text), got in zip(NOT_ASCII_INTEGERS, bad):
        assert got == [1, "", f"error: not an integer: {text!r}\n"], argv
    assert ok[0] == 0 and ok[1].startswith("S3  ")


# every rational the command line reads, written with digits that are not
# ASCII (Fraction() takes the Arabic-Indic ones)
NOT_ASCII_RATIONALS = [
    (["schur", "eval", "--lambda", "1", "--points", "\u0663,\u0661/\u0662"], "\u0663"),
    (["chartab", "decompose", "S3", "--values", "\u0662,\u0660,-\u0661"], "\u0662"),
    (["schur", "dim", "--lambda", "2,1", "--vars", "3", "--z", "\u0661/2"], "\u0661/2"),
]


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_command_line_rationals_are_ascii(optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    argvs = [argv for argv, _ in NOT_ASCII_RATIONALS] + [
        ["schur", "eval", "--lambda", "1", "--points", "1.5,2/3"],
        ["chartab", "decompose", "S3", "--values", " 2,0,-1"]]
    proc = subprocess.run([sys.executable, *optimize, "-c", INTEGER_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
    *bad, points, values = json.loads(proc.stdout)
    for (argv, text), got in zip(NOT_ASCII_RATIONALS, bad):
        assert got == [1, "", f"error: not a rational: {text!r}\n"], argv
    assert points == [0, "13/6\n", ""]
    assert values == [0, "C+: 0\nC-: 0\nC2: 1\n", ""]


# input that is missing or bad, and its one-line error: a ValueError, never
# an assert, so python -O reports it too
TYPED_INPUT_ERRORS = [
    (["chartab", "decompose", "S3"], "pass --values, --regular or --permutation"),
    *[(["selftest", "--criterion", n],
       f"no criterion {n}; criteria are 1 to {len(selftest.CRITERIA)}") for n in ("99", "0", "-1")],
    (["schur", "eval", "--lambda", "1", "--points", "1/0"], "zero denominator in '1/0'"),
    (["schur", "dim", "--lambda", "1", "--vars", "2", "--z", "1/0"], "zero denominator in '1/0'"),
    (["chartab", "decompose", "S3", "--values", "1/0,1,1"], "zero denominator in '1/0'"),
    # Fraction() reads exponents and "_" separators, and takes minutes on 1e1000000
    (["schur", "dim", "--lambda", "1", "--vars", "2", "--z", "1e1000000"], "not a rational: '1e1000000'"),
    (["schur", "eval", "--lambda", "1", "--points", "1e3000000,2"], "not a rational: '1e3000000'"),
    (["schur", "dim", "--lambda", "1", "--vars", "2", "--z", "1e100000"], "not a rational: '1e100000'"),
    (["schur", "eval", "--lambda", "1", "--points", "1_000"], "not a rational: '1_000'"),
    (["chartab", "decompose", "S3", "--values", "2,.5,1."], "not a rational: '.5'"),
    # int() reads at most 4300 digits, and says so in Python's words
    (["sn", "table", "1" * 5000], f"a number has at most {MAX_DIGITS} digits here: {short_repr('1' * 5000)}"),
    (["schur", "dim", "--lambda", "1", "--vars", "2", "--z", "1/" + "7" * 5000],
     f"a number has at most {MAX_DIGITS} digits here: {short_repr('1/' + '7' * 5000)}"),
    (["chartab", "show", "S" + "1" * 5000], f"a number has at most {MAX_DIGITS} digits here: {short_repr('1' * 5000)}"),
    (["quiver", "roots", "--type", "A" + "1" * 5000],
     f"a number has at most {MAX_DIGITS} digits here: {short_repr('1' * 5000)}"),
    # a partition of 20001 parts is quoted in one short line
    (["sn", "dim", "--lambda", ",".join(["1"] + ["2"] * 20000)],
     f"not a partition: {short_repr((1,) + (2,) * 20000)}"),
    # a result too long to print: str() refuses it past 4300 digits, in Python's words
    *[(argv, f"a printed number has at most {MAX_DIGITS} digits here; the result has more")
      for argv in (["schur", "dim", "--lambda", "3", "--vars", "2", "--z", "1/" + "7" * 3000],
                   ["schur", "eval", "--lambda", "3", "--points", "1/" + "7" * 3000 + ",1"],
                   ["sn", "dim", "--lambda", ",".join(map(str, range(80, 0, -1)))])],
    # a mu with more partitions inside it than kostka's walk may hold
    (["sn", "kostka", "--mu", ",".join(["2"] * 400), "--lambda", ",".join(["1"] * 800)],
     "Kostka numbers take a mu with at most 10000 partitions inside it, as len(mu) = 400; this one has more"),
]


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_bad_input_is_a_typed_error(tmp_path, optimize):
    table = _s3_table()
    table["rows"][1]["values"][2]["coeffs"] = ["1/0"]
    rep = {"quiver": {"vertices": 2, "arrows": [[0, 1]]}, "dims": [1, 1],
           "maps": [{"rows": 1, "cols": 1, "entries": [["1/0"]]}]}
    files = []
    for name, blob, command in [("table", table, ["chartab", "show", "--file"]),
                                ("rep", rep, ["quiver", "decompose", "--rep"])]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(blob))
        files += [(["roundtrip", str(path)], "zero denominator in '1/0'"),
                  ([*command, str(path)], "zero denominator in '1/0'")]
    # a matrix of a negative shape, which no reader may accept
    path = tmp_path / "matrix.json"
    path.write_text('{"rows": 0, "cols": -5, "entries": []}')
    files += [(["roundtrip", str(path)], "a matrix shape cannot be negative: 0x-5")]
    path = tmp_path / "graph.json"
    path.write_text('{"vertices": ' + "1" * 5000 + ', "edges": []}')
    files += [(["quiver", "classify", "--graph", str(path)],
               f"{path}: a JSON integer has more than {sys.get_int_max_str_digits()} digits")]
    cases = TYPED_INPUT_ERRORS + files
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-c", INTEGER_SCRIPT,
                           json.dumps([argv for argv, _ in cases])],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
    for (argv, error), got in zip(cases, json.loads(proc.stdout)):
        assert got == [1, "", f"error: {error}\n"], argv


def test_a_printed_number_has_at_most_max_digits(capsys):
    # numerator and denominator are each bounded, as the parsers bound them
    top = 10 ** MAX_DIGITS - 1
    for x in (top, -top, Fraction(-top, top - 1)):
        assert _print_number(x) == 0
        assert capsys.readouterr().out == f"{x}\n"
    for x in (top + 1, -top - 1, Fraction(1, top + 1)):
        with pytest.raises(ValueError, match=f"at most {MAX_DIGITS} digits here"):
            _print_number(x)
    assert capsys.readouterr().out == ""


# a --sub-name whose table is not of the subgroup, and a Schur polynomial
# in more variables than symgrp.MAX_VARIABLES: typed errors, exit 1
KLEIN_IN_S4 = ["chartab", "induce", "S4", "--sub", "1,0,2,3;0,1,3,2", "--row", "1"]
SUBGROUP_AND_VARIABLE_ERRORS = [
    (KLEIN_IN_S4 + ["--sub-name", "Z4"],
     "class matching is not one to one: the group's 4 classes land on 2 of the table's 4"),
    # |Q8| = 8 and |H| = 4: a one-to-one matching would make the orders equal
    (KLEIN_IN_S4 + ["--sub-name", "Q8"],
     "class matching is not one to one: the group's 4 classes land on 2 of the table's 5"),
    (KLEIN_IN_S4 + ["--sub-name", "S3"], "no class matching: 0 classes of element order 2 and size 1"),
    (["schur", "eval", "--lambda", "5,3,2,1", "--points", ",".join(map(str, range(1, 34)))],
     "a Schur polynomial takes at most 32 variables, got 33"),
    (["schur", "dim", "--lambda", "3,2,1", "--vars", "2000", "--z", "2"],
     "a Schur polynomial takes at most 32 variables, got 2000"),
    (["schur", "dim", "--lambda", "1", "--vars", "2000"],
     "a Schur polynomial takes at most 32 variables, got 2000"),
]


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_subgroup_names_and_variable_counts_are_checked(optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    argvs = [argv for argv, _ in SUBGROUP_AND_VARIABLE_ERRORS] + [
        KLEIN_IN_S4, ["schur", "dim", "--lambda", "3,2,1", "--vars", "32", "--z", "2"]]
    proc = subprocess.run([sys.executable, *optimize, "-c", INTEGER_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
    *bad, abelian, top = json.loads(proc.stdout)
    for (argv, error), got in zip(SUBGROUP_AND_VARIABLE_ERRORS, bad):
        assert got == [1, "", f"error: {error}\n"], argv
    # the abelian subgroup's own dual table, and the top of the range
    assert abelian == [0, "Ind chi1 = C3+ + C3-\n", ""]
    assert top[0] == 0 and top[2] == ""


def test_an_internal_zero_division_is_not_an_input_error(capsys, monkeypatch):
    def broken(group):
        return 1 // 0
    monkeypatch.setattr(chartab, "regular_character", broken)
    with pytest.raises(ZeroDivisionError):
        main(["chartab", "decompose", "S3", "--regular"])

# `semidirect table dn --n N` takes the range of the names D<n>, with the
# same message
DIHEDRAL_N_CASES = {
    "0": "error: n must be >= 1\n",
    "-3": "error: n must be >= 1\n",
    str(permgroup.MAX_CYCLIC_DIHEDRAL_N + 1):
        f"error: cyclic and dihedral groups only up to D{permgroup.MAX_CYCLIC_DIHEDRAL_N} here\n",
    str(permgroup.MAX_CYCLIC_DIHEDRAL_N): "",
}


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_semidirect_dn_takes_the_dihedral_name_range(optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    argvs = [["semidirect", "table", "dn", "--n", n] for n in DIHEDRAL_N_CASES]
    proc = subprocess.run([sys.executable, *optimize, "-c", INTEGER_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
    for (n, err), (code, out, stderr) in zip(DIHEDRAL_N_CASES.items(), json.loads(proc.stdout)):
        assert (code, stderr) == (1 if err else 0, err), n
        assert (out == "") == bool(err), n


# one process runs these through main, one after another, on its one
# parser; each must print and exit as it does alone: an A5 table, a usage
# error (exit 2), a domain error (exit 1), a help text, the A5 table again
STATELESS_ARGVS = [["chartab", "show", "A5"], ["chartab", "show", "--bogus"],
                   ["chartab", "show", "Z0"], ["chartab", "show", "--help"],
                   ["chartab", "show", "A5"]]


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_in_process_calls_keep_no_state(optimize):
    src = str(Path(reptheory.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, *optimize, "-c", INTEGER_SCRIPT, json.dumps(STATELESS_ARGVS)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
    in_process = json.loads(proc.stdout)
    assert [code for code, _, _ in in_process] == [0, 2, 1, 0, 0]
    for argv, (code, out, err) in zip(STATELESS_ARGVS, in_process):
        alone = subprocess.run([sys.executable, *optimize, "-m", "reptheory.cli", *argv],
                               capture_output=True, env=env, timeout=60)
        assert (alone.returncode, alone.stdout, alone.stderr) == (code, out.encode(), err.encode()), argv


@pytest.mark.parametrize("row, err", [
    ("\u0660", "error: no row '\u0660' in the dual table\n"),
    ("5", "error: row index 5 out of range: the subgroup table has 2 rows\n"),
])
def test_induce_row_index_is_ascii_and_in_range(capsys, row, err):
    assert run_cli(capsys, "chartab", "induce", "S3", "--sub", "1,0,2", "--row", row) == (1, "", err)
    assert run_cli(capsys, "chartab", "induce", "S3", "--sub", "1,0,2", "--row", "1") == \
        (0, "Ind chi1 = C- + C2\n", "")


@pytest.mark.parametrize("command", [["gl2", "table", "--q", "5", "--json"],
                                     ["chartab", "show", "A5", "--json"],
                                     ["semidirect", "table", "heisenberg", "--json"]])
def test_json_output_is_json_dumps(capsys, command):
    code, out, _ = run_cli(capsys, *command)
    assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"


def test_json_output_of_a_table_with_no_rows(capsys, tmp_path):
    blob = table_to_json(builtin_table("S3"), group_name="S3")
    blob["rows"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run_cli(capsys, "chartab", "show", "--file", str(path), "--json")
    assert code == 0 and json.loads(out) == blob and out == json.dumps(blob, indent=2) + "\n"


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_verify_reports_a_degree_zero_row(tmp_path, optimize):
    blob = table_to_json(builtin_table("S3"), group_name="S3")
    row = next(r for r in blob["rows"] if r["name"] == "C-")
    row["degree"] = 0
    row["values"] = [cyclotomic_to_json(zero())] * len(row["values"])
    path = tmp_path / "degree0.json"
    path.write_text(json.dumps(blob))
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-m", "reptheory.cli", "chartab", "verify",
                           "--file", str(path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 1 and proc.stderr == "", proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "FAIL degree divides |G| (C-): degree 0" in lines
    assert lines[-1].startswith("FAILED: ")


def test_show_tables_exits_1_on_a_failed_table(monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "show_tables.py"
    spec = importlib.util.spec_from_file_location("show_tables", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    failing = chartab.VerifyReport()
    failing.add("sabotaged", False)
    monkeypatch.setattr(script, "verify_table", lambda table: failing)
    assert script.main() == 1
    assert "verify: FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("sabotage, failure", [
    ("count", "12 indecomposables, not 20"),
    ("hom_dim", "is not one-dimensional"),
    ("bilinear", "has norm 3, not 2"),
])
def test_gabriel_census_exits_1_on_a_failed_check(monkeypatch, capsys, sabotage, failure):
    path = Path(__file__).resolve().parents[1] / "scripts" / "gabriel_census.py"
    spec = importlib.util.spec_from_file_location("gabriel_census", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    capsys.readouterr()
    if sabotage == "count":
        enumerate_all = script.enumerate_indecomposables
        monkeypatch.setattr(script, "enumerate_indecomposables", lambda q: enumerate_all(q)[:12])
    elif sabotage == "hom_dim":
        monkeypatch.setattr(script, "hom_dim", lambda v, w: 2)
    else:
        monkeypatch.setattr(script, "bilinear", lambda a, x, y: 3)
    assert script.main() == 1
    assert failure in capsys.readouterr().out


def test_every_docstring_comes_first():
    # a string after a function's first statement, such as a lazy import,
    # is no docstring: __doc__ is None
    import ast
    from reptheory import cli
    assert cli._named_graph.__doc__
    src = Path(reptheory.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                late = [b.lineno for b in node.body[1:]
                        if isinstance(b, ast.Expr) and isinstance(b.value, ast.Constant)
                        and isinstance(b.value.value, str)]
                assert late == [], (path.name, node.name, late)

"""What importing the package and running one command loads.

`reptheory` imports each public name on first use, and the CLI imports
per subcommand, so a caller of one theory does not load the others. Each
check runs in a fresh interpreter, under python and under python -O.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reptheory
from reptheory.quiverrep import Quiver, direct_sum, enumerate_indecomposables, rep_to_json

SRC = str(Path(reptheory.__file__).resolve().parents[1])
OPTIMIZE = pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])

# each public name and the module that defines it
PUBLIC = {
    "Cyclotomic": "exact", "Rational": "exact", "cyc": "exact", "zeta": "exact",
    "Matrix": "linalg", "PermGroup": "permgroup", "builtin_group": "permgroup",
    "CharacterTable": "chartab", "ClassFunction": "chartab", "builtin_table": "chartab",
    "abelian_dual_table": "chartab", "semidirect_table": "chartab", "verify_table": "chartab",
    "frobenius_character": "symgrp", "hook_dim": "symgrp", "kostka": "symgrp",
    "partitions_of": "symgrp", "sn_table": "symgrp",
    "cartan_matrix": "rootsys", "classify": "rootsys", "coxeter_element": "rootsys",
    "dynkin_graph": "rootsys", "enumerate_roots": "rootsys",
    "Quiver": "quiverrep", "QuiverRep": "quiverrep", "decompose": "quiverrep",
    "enumerate_indecomposables": "quiverrep",
    "gl2_classes": "gl2fq", "gl2_table": "gl2fq", "gl2_verify": "gl2fq",
}
CHARACTER_TABLE_MODULES = {"exact", "permgroup", "chartab", "symgrp", "gl2fq"}

# prints, as JSON, the result of the code in argv[1] (bound to `result`)
# and the package modules loaded after it
PROBE = """
import json, sys
exec(sys.argv[1])
loaded = sorted(m[len("reptheory."):] for m in sys.modules if m.startswith("reptheory."))
print(json.dumps([result, loaded]))
"""

# runs the CLI on argv[1:], then prints the package modules loaded to stderr
CLI_PROBE = """
import json, sys
from reptheory.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(json.dumps(sorted(m[len("reptheory."):] for m in sys.modules
                        if m.startswith("reptheory."))), file=sys.stderr)
sys.exit(code)
"""


def probe(optimize, code):
    proc = subprocess.run([sys.executable, *optimize, "-c", PROBE, code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return json.loads(proc.stdout)


@OPTIMIZE
def test_import_loads_no_module(optimize):
    assert probe(optimize, "import reptheory; result = reptheory.__version__") == ["0.1.0", []]


@OPTIMIZE
def test_a_quiver_name_loads_only_its_modules(optimize):
    result, loaded = probe(optimize, "import reptheory\n"
                                     "result = reptheory.enumerate_indecomposables.__name__")
    assert result == "enumerate_indecomposables"
    assert loaded == ["linalg", "quiverrep", "rootsys"]


@OPTIMIZE
def test_every_public_name_is_its_home_modules_object(optimize):
    code = ("import importlib, json, reptheory\n"
            f"public = json.loads({json.dumps(json.dumps(PUBLIC))})\n"
            "result = [sorted(reptheory.__all__), [name for name, home in public.items()\n"
            "    if name not in vars(importlib.import_module('reptheory.' + home))\n"
            "    or getattr(reptheory, name) is not getattr(importlib.import_module("
            "'reptheory.' + home), name)]]")
    (names, wrong), loaded = probe(optimize, code)
    assert names == sorted([*PUBLIC, "__version__"])
    assert wrong == []
    assert set(loaded) == set(PUBLIC.values())


@OPTIMIZE
def test_star_import_binds_every_public_name(optimize):
    code = ("import reptheory\n"
            "namespace = {}\n"
            "exec('from reptheory import *', namespace)\n"
            "result = [name for name in reptheory.__all__\n"
            "          if namespace.get(name, namespace) is not getattr(reptheory, name)]")
    assert probe(optimize, code)[0] == []


@OPTIMIZE
def test_an_unknown_name_is_no_attribute(optimize):
    code = "import reptheory; result = hasattr(reptheory, 'no_such_name')"
    assert probe(optimize, code)[0] is False


def _cli_modules(optimize, argv):
    proc = subprocess.run([sys.executable, *optimize, "-c", CLI_PROBE, *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr))


@pytest.fixture(scope="module")
def rep_file(tmp_path_factory):
    """A D4 representation, the sum of two indecomposables, as JSON."""
    objs = enumerate_indecomposables(Quiver(4, [(0, 2), (1, 2), (3, 2)]))
    path = tmp_path_factory.mktemp("rep") / "rep.json"
    path.write_text(json.dumps(rep_to_json(direct_sum(objs[2][1], objs[5][1]))))
    return str(path)


@OPTIMIZE
@pytest.mark.parametrize("argv", [["quiver", "roots", "--type", "E8", "--count"],
                                  ["quiver", "classify", "--type", "E8"],
                                  ["quiver", "decompose", "--rep"]],
                         ids=["roots", "classify", "decompose"])
def test_quiver_commands_load_no_character_table_module(optimize, argv, rep_file):
    if argv[-1] == "--rep":
        argv = [*argv, rep_file]
    loaded = _cli_modules(optimize, argv)
    assert "rootsys" in loaded and not loaded & CHARACTER_TABLE_MODULES


@OPTIMIZE
@pytest.mark.parametrize("argv, absent", [
    (["gl2", "verify", "--q", "3"], {"rootsys", "quiverrep", "symgrp"}),
    (["chartab", "show", "A5"], {"rootsys", "quiverrep", "gl2fq"}),
], ids=["gl2 verify", "chartab show"])
def test_table_commands_load_no_quiver_module(optimize, argv, absent):
    loaded = _cli_modules(optimize, argv)
    assert "chartab" in loaded and not loaded & absent

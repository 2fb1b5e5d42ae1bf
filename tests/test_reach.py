"""The package ships only what a command, a check or a public name reaches.

A public module-level function of src/reptheory passes when one of these
holds:
- __init__._HOME exports it from its module;
- its name is loaded, or read as an attribute, in another package module,
  or in its own module outside its own body;
- its name is read the same way in scripts/*.py or perfbench/*.py (the
  benchmark's own tests, perfbench/test_*.py, do not count);
- it is on ALLOWED, with the reason it stays.

The rule reads names, not calls, so it is a guard and not a proof. A
function whose name is also read for something else passes on that read
(a function symgrp.content would pass on the parameter `content` of
perfbench/checks.py, a module function exact.conjugate on the conjugate
methods), and methods are out of its scope. A function-level profile
(sys.setprofile) over every subcommand, selftest, the scripts and each
benchmark job mix is the authority on what is reached; this test keeps
what such a profile removed from coming back unseen.
"""

import ast
from pathlib import Path

from reptheory import _HOME

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reptheory"

# public functions that no code reaches, kept on purpose
ALLOWED = {
    "linalg.rref": "README's \"Exact linear algebra\" documents rational RREF, and the package keeps "
                   "its features",
}


def _reads(tree, skip=None):
    """The names loaded and the attributes read in tree, outside the node skip."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreached():
    """The public module-level functions of the package that pass none of
    the rules above but ALLOWED, as "module.function"."""
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    reads = {name: _reads(tree) for name, tree in modules.items()}
    outside = [p for p in [*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]
               if not p.name.startswith("test_")]
    read_outside = set().union(*(_reads(ast.parse(p.read_text())) for p in outside))
    found = []
    for name, tree in modules.items():
        read_elsewhere = read_outside.union(*(r for m, r in reads.items() if m != name))
        for fn in tree.body:
            if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                    and _HOME.get(fn.name) != name and fn.name not in read_elsewhere
                    and fn.name not in _reads(tree, skip=fn)):
                found.append(f"{name}.{fn.name}")
    return sorted(found)


def test_every_public_function_is_reached():
    # the allowlist names exactly the functions kept on purpose, so an entry
    # goes stale as soon as some code reaches its function
    assert unreached() == sorted(ALLOWED)

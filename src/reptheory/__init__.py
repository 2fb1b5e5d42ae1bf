"""Exact computational representation theory: character tables of finite
groups (including S_n and GL_2(F_q)) and quiver representations over
Dynkin diagrams, all in exact cyclotomic/rational arithmetic.

The theories are independent, so each public name is imported on first
use (PEP 562): `import reptheory` loads no module of the package, and
reading `reptheory.enumerate_indecomposables` loads only linalg, rootsys
and quiverrep. _HOME, which maps each public name to the module that
defines it, is the one record of where a name lives; __all__ is read off
it.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOME = {
    "Cyclotomic": "exact", "Rational": "exact", "cyc": "exact", "zeta": "exact",
    "Matrix": "linalg",
    "PermGroup": "permgroup", "builtin_group": "permgroup",
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

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    """Imports the home module of a public name and binds the name here,
    so that this runs once per name."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value

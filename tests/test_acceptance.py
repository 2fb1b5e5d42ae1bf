"""Acceptance gate: every numbered criterion runs at its stated tolerance
(all tolerances are exact equalities plus wall-clock limits) and prints
one pass/fail line; and no check of the package rests on an assert."""

import ast
import random
from pathlib import Path

import pytest

import reptheory
from reptheory import selftest

MODULES = sorted(Path(reptheory.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("number,title,fn",
                         selftest.CRITERIA,
                         ids=[f"criterion_{n:02d}" for n, _, _ in selftest.CRITERIA])
def test_criterion(number, title, fn, capsys):
    rng = random.Random(number)
    try:
        detail = fn(rng)
    except AssertionError as exc:
        with capsys.disabled():
            print(f"[FAIL] criterion {number:2d}: {title} -- {exc}")
        raise
    with capsys.disabled():
        print(f"[PASS] criterion {number:2d}: {title} ({detail})")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_assert(path):
    # python -O strips assert statements, and every check must still run
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}"

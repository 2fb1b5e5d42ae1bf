"""Acceptance gate: every numbered criterion runs at its stated tolerance
(all tolerances are exact equalities plus wall-clock limits) and prints
one pass/fail line; no check of the package rests on an assert; and CI
runs every check from pytest, under python and python -O."""

import ast
import random
import re
from pathlib import Path

import pytest

import reptheory
from reptheory import selftest

MODULES = sorted(Path(reptheory.__file__).parent.glob("*.py"))
WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


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


def test_ci_checks_live_in_pytest_under_both_settings():
    # the workflow is read as text, since CI installs no YAML parser
    text = WORKFLOW.read_text()
    inline = [line.strip() for line in text.splitlines() if re.search(r"\bpython3?\b.*\s-c\b", line)]
    assert inline == [], "a check runs as python -c; it belongs in ci/test_top_of_range.py"
    steps = [dict(re.findall(r"^ *(name|if|run): (.*)$", block, re.M))
             for block in re.split(r"^      - ", text, flags=re.M)[1:]]
    runs = [step for step in steps if "-m pytest" in step.get("run", "")
            and "perfbench" not in step["run"]]
    # tier-1 (the testpaths) and ci, each in every matrix leg
    assert sorted([arg for arg in step["run"].split("-m pytest", 1)[1].split() if arg[0] != "-"]
                  for step in runs) == [[], ["ci"]]
    for step in runs:
        assert step["run"].startswith("python ${{ matrix.optimize }} -m pytest ") and "if" not in step, step

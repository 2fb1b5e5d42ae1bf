import cmath
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reptheory
from reptheory import exact
from reptheory.exact import (Cyclotomic, GramRows, _divisors, _fold, cyc, cyclotomic_from_json,
                             cyclotomic_to_json, cyclotomic_polynomial, euler_phi, zeta)
from reptheory.linalg import InputError, gauss_jordan, matrix_from_json, parse_integer, rational_from_str
from reptheory.gl2fq import gl2_table, gl2_table_to_json

ORDERS = [1, 2, 3, 4, 5, 6, 8, 12]

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@st.composite
def cyclotomics(draw):
    order = draw(st.sampled_from(ORDERS))
    k = draw(st.integers(min_value=0, max_value=order - 1))
    scalar = draw(rationals)
    extra = draw(rationals)
    return cyc(scalar) * zeta(order, k) + cyc(extra)


def test_zeta_basics():
    assert zeta(1, 0) == 1
    assert zeta(4, 2) == -1
    assert zeta(5, 1) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4) == -1
    assert zeta(3, 1) * zeta(3, 2) == 1
    assert zeta(5, 7) == zeta(5, 2)


def test_phi5_reduction_numeric_oracle():
    total = zeta(5, 1) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert abs(total.numeric() - (-1)) < 1e-12


def test_golden_ratio_entry():
    golden = -(zeta(5, 2) + zeta(5, 3))
    assert abs(golden.numeric() - (1 + 5 ** 0.5) / 2) < 1e-12
    assert golden.conjugate() == golden  # real value


def test_mixed_order_embedding():
    assert zeta(2, 1) == zeta(6, 3)
    v = zeta(2, 1) + zeta(3, 1)
    w = zeta(6, 3) + zeta(6, 2)
    assert v == w


@pytest.mark.parametrize("x", [0, 1, -1, 2**64 + 3, -(7**40)])
def test_an_int_is_stored_as_its_fraction(x):
    # coerce stores an int with no Fraction; every form must be the one
    # the Fraction path gives
    assert form(cyc(x)) == form(Cyclotomic.from_rational(Fraction(x)))
    assert type(cyc(x).num[0]) is int
    for v in (zeta(12, 5) + 3, zeta(7) / 2, cyc(Fraction(3, 4)), cyc(0)):
        f = Cyclotomic.from_rational(Fraction(x))
        assert form(x + v) == form(f + v) and form(v + x) == form(v + f)
        assert form(x - v) == form(f - v) and form(v - x) == form(v - f)
        assert form(x * v) == form(f * v) and form(v * x) == form(v * f)
        if x:
            assert form(v / x) == form(v / f)
        if not v.is_zero:
            assert form(x / v) == form(f / v)
    # a bool takes the Fraction path, so no bool is stored
    assert form(cyc(True)) == form(cyc(1)) and type(cyc(True).num[0]) is int


def form(v):
    return (v.order, v.num, v.den)


def test_rational_helper_stores_the_normalized_form():
    # exact._rational reduces by one gcd and skips _normalize; its stored
    # form must be the one _normalize gives
    for p in range(-60, 61):
        for q in range(1, 61):
            assert form(exact._rational(p, q)) == form(Cyclotomic(1, (p,), q)), (p, q)
    assert form(exact._rational(0, 1)) == form(exact._rational(0, 36)) == (1, (0,), 1)


def as_form(f):
    return (1, (f.numerator,), f.denominator)


@settings(max_examples=100, deadline=None)
@given(rationals, rationals)
def test_rational_sums_and_products_agree_with_fraction(x, y):
    a, b = cyc(x), cyc(y)
    assert form(a) == as_form(x) and form(Cyclotomic.coerce(x)) == as_form(x)
    assert form(a + b) == as_form(x + y) and form(a - b) == as_form(x - y)
    assert form(a * b) == as_form(x * y)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(rationals, rationals, st.integers(min_value=1, max_value=9)),
                min_size=1, max_size=6),
       st.integers(min_value=1, max_value=24))
def test_rational_gram_agrees_with_fraction(terms, scale):
    left = [[cyc(x) for x, _, _ in terms]]
    right = [[cyc(y) for _, y, _ in terms]]
    weights = [w for _, _, w in terms]
    got = exact.hermitian_gram(left, right, [(0, 0)], weights, scale)[0]
    assert form(got) == as_form(sum(w * x * y for x, y, w in terms) / scale)


def test_conjugation():
    assert zeta(5, 2).conjugate() == zeta(5, 3)
    assert cyc(Fraction(3, 7)).conjugate() == Fraction(3, 7)


def test_division():
    a = zeta(12, 5) + cyc(Fraction(2, 3))
    b = zeta(8, 3) - 5
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / cyc(0)


def test_rational_collapse():
    v = zeta(4, 2)
    assert v.order == 1
    assert v.as_fraction() == -1
    w = zeta(6, 2)
    assert w.reduced().order == 3
    assert w == zeta(3, 1)


def test_zeta_power_orders():
    for n in range(1, 31):
        for k in range(1, n):
            assert zeta(n, k) ** n == 1


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 24, 30, 120, 168, 960])
def test_root_powers_are_the_folded_monomials(n):
    # each power made from the one before against its monomial folded afresh
    assert exact.root_powers(n) == [exact._root(n, k) for k in range(n)]


@given(cyclotomics(), cyclotomics(), cyclotomics())
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(cyclotomics())
@settings(max_examples=60, deadline=None)
def test_inverse_and_conjugation(a):
    if not a.is_zero:
        assert a * a.inverse() == 1
    assert a.conjugate().conjugate() == a


@given(cyclotomics(), cyclotomics())
@settings(max_examples=60, deadline=None)
def test_conjugation_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(st.sampled_from(ORDERS), st.integers(min_value=0, max_value=11),
       st.integers(min_value=0, max_value=11))
@settings(max_examples=60, deadline=None)
def test_reduction_matches_unreduced_power_numerically(n, i, j):
    # numeric evaluation of the reduced product vs the raw exponential sum
    v = zeta(n, i) * zeta(n, j)
    raw = cmath.exp(2j * cmath.pi * (i + j) / n)
    assert abs(v.numeric() - raw) < 1e-10


@given(cyclotomics())
@settings(max_examples=40, deadline=None)
def test_reduced_preserves_value(a):
    r = a.reduced()
    assert r == a
    assert abs(r.numeric() - a.numeric()) < 1e-10


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(12) == 4
    assert euler_phi(1) == 1


def test_serialization_roundtrip():
    v = zeta(12, 5) * cyc(Fraction(-3, 4)) + cyc(Fraction(1, 6))
    blob = json.dumps(cyclotomic_to_json(v))
    assert cyclotomic_from_json(json.loads(blob)) == v
    assert rational_from_str("-3/4") == Fraction(-3, 4)
    with pytest.raises(ValueError):
        cyclotomic_from_json({"order": 5, "coeffs": ["1/1"]})


@given(st.sampled_from(ORDERS), st.integers(min_value=0, max_value=11),
       st.sampled_from(ORDERS), st.integers(min_value=0, max_value=11))
@settings(max_examples=60, deadline=None)
def test_cross_order_arithmetic_numeric(n1, k1, n2, k2):
    a, b = zeta(n1, k1), zeta(n2, k2)
    assert abs((a + b).numeric() - (a.numeric() + b.numeric())) < 1e-10
    assert abs((a * b).numeric() - (a.numeric() * b.numeric())) < 1e-10


def test_canonical_keys_identify_values():
    assert zeta(6, 2).key() == zeta(3, 1).key()
    assert zeta(12, 3).key() == zeta(4, 1).key()
    assert (zeta(8, 1) * zeta(8, 7)).key() == cyc(1).key()
    assert hash(zeta(6, 2)) == hash(zeta(3, 1))


def test_str_forms():
    assert str(cyc(Fraction(-2, 3))) == "-2/3"
    assert str(zeta(5)) == "z5"
    assert str(-(zeta(5, 2) + zeta(5, 3))) == "-z5^2-z5^3"
    assert str(cyc(0)) == "0"


# -- reference implementations: the Fraction-based reduction and conversion --

def reference_solve(columns, rhs):
    """Solve sum_j y_j * columns[j] = rhs over Q by dense Gaussian
    elimination; the list of Fractions y, or None if there is none."""
    rows, ncols = len(rhs), len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(ncols)] + [rhs[i]] for i in range(rows)]
    piv_cols, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    if any(aug[i][ncols] != 0 for i in range(r, rows)):
        return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(piv_cols):
        sol[c] = aug[i][ncols]
    return sol


def reference_from_fractions(order, vec):
    den = 1
    for v in vec:
        den = den * v.denominator // gcd(den, v.denominator)
    return Cyclotomic(order, [int(v * den) for v in vec], den)


@lru_cache(maxsize=None)
def reference_power_table(n):
    """z^k mod Phi_n for 0 <= k <= max(n - 1, 2 * phi(n) - 2), each by long
    division of x^k by Phi_n."""
    poly = cyclotomic_polynomial(n)
    phi = len(poly) - 1
    table = []
    for k in range(max(n, 2 * phi - 1)):
        rem = [0] * k + [1]
        for i in range(k, phi - 1, -1):
            c = rem[i]
            for j, p in enumerate(poly):
                rem[i - phi + j] -= c * p
        table.append(tuple((rem + [0] * phi)[:phi]))
    return table


def reference_reduced(a):
    """Scan the divisors m of the order in ascending order and solve for
    the coordinates in Q(zeta_m) from scratch each time."""
    n = a.order
    rhs = [Fraction(c, a.den) for c in a.num]
    for m in _divisors(n)[:-1]:
        cols = [reference_power_table(n)[(i * (n // m)) % n] for i in range(euler_phi(m))]
        sol = reference_solve(cols, rhs)
        if sol is not None:
            return reference_from_fractions(m, sol)
    return a


def reference_rational_from_str(s):
    if "/" in s:
        p, q = map(int, s.split("/"))
        if q == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(p, q)
    return Fraction(int(s))


def reference_to_json(a):
    return {"order": a.order,
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in a.coeffs]}


def reference_from_json(obj):
    vec = [reference_rational_from_str(s) for s in obj["coeffs"]]
    assert len(vec) == euler_phi(obj["order"])
    return reference_from_fractions(obj["order"], vec)


def reference_str(a):
    r = reference_reduced(a)

    def fmt(f):
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if r.order == 1:
        return fmt(Fraction(r.num[0], r.den))
    parts = []
    for i, c in enumerate(r.coeffs):
        if c == 0:
            continue
        mon = f"z{r.order}" if i == 1 else f"z{r.order}^{i}"
        term = fmt(c) if i == 0 else mon if c == 1 else "-" + mon if c == -1 \
            else fmt(c) + "*" + mon
        parts.append(term if not parts or term.startswith("-") else "+" + term)
    return "".join(parts)


def fields(a):
    return (a.order, a.num, a.den)


def assert_matches_reference(a):
    assert fields(a.reduced()) == fields(reference_reduced(a))
    assert str(a) == reference_str(a)
    blob = json.dumps(cyclotomic_to_json(a))
    assert blob == json.dumps(reference_to_json(a))
    assert fields(cyclotomic_from_json(json.loads(blob))) == \
        fields(reference_from_json(json.loads(blob)))


SUBFIELD_ORDERS = list(range(2, 41)) + [42, 45, 48, 56, 60, 63, 72, 80, 84, 90, 105, 120, 168]


@pytest.mark.parametrize("n", SUBFIELD_ORDERS)
def test_reduction_matches_reference_in_every_subfield(n):
    rng = random.Random(n)
    for m in _divisors(n):
        for _ in range(2):
            phi = euler_phi(m)
            num = [rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(phi)]
            v = Cyclotomic(m, num, rng.randint(1, 12))
            a = Cyclotomic(n, v._embed(n), v.den)
            assert a == v
            assert_matches_reference(a)


def test_gl2_13_values_match_reference():
    table = gl2_table(13)
    distinct = {fields(v): v for row in table.rows for v in row.values}
    assert len(distinct) > 100
    for v in distinct.values():
        assert_matches_reference(v)


@pytest.mark.parametrize("coeffs", [["2/4", "1/-2"], [" 3", "+1/6"], ["-0/5", "6/-4"],
                                    ["10/-3", " -7 "], ["0", "0/-9"]])
def test_odd_coefficient_strings_parse_as_reference(coeffs):
    obj = {"order": 4, "coeffs": coeffs}
    assert fields(cyclotomic_from_json(obj)) == fields(reference_from_json(obj))
    for s in coeffs:
        assert rational_from_str(s) == reference_rational_from_str(s)


@pytest.mark.parametrize("bad", ["1/0", "1/2/3", "a", "", "1.5", "/2"])
def test_bad_coefficient_strings_raise_as_reference(bad):
    obj = {"order": 4, "coeffs": ["0/1", bad]}
    with pytest.raises((ValueError, ZeroDivisionError)) as ref:
        reference_from_json(obj)
    with pytest.raises(ref.type):
        cyclotomic_from_json(obj)


# digits of other scripts, "_" separators and spaces inside a ratio, which
# int() takes on either side of a "/"
NOT_ASCII_RATIOS = ["\u0663/\u0664", " +3/ 4", "1_000/3", "3 /4", "- 3", "\u0663", "1\u00a0"]


@pytest.mark.parametrize("text", NOT_ASCII_RATIOS)
def test_rationals_are_ascii_digits(text):
    for read in (rational_from_str, parse_integer,
                 lambda s: cyclotomic_from_json({"order": 4, "coeffs": ["0/1", s]}),
                 lambda s: matrix_from_json({"rows": 1, "cols": 1, "entries": [[s]]})):
        with pytest.raises(ValueError):
            read(text)
    assert parse_integer(" -12 ") == -12 and rational_from_str("\t+3/-4\n") == Fraction(-3, 4)


def dense_from_json(obj):
    """The reader before the "0/1" shortcut: every coefficient through the
    ratio parser, then one lcm."""
    ratios = []
    for s in obj["coeffs"]:
        p, q = s.split("/") if "/" in s else (s, "1")
        p, q = int(p), int(q)
        ratios.append((p, q) if q > 0 else (-p, -q))
    den = lcm(*(q for _, q in ratios))
    return Cyclotomic(obj["order"], [p * (den // q) for p, q in ratios], den)


# valid coefficient strings that are not the canonical "0/1" and "p/q"
ODD_COEFFS = ["0", "0/7", "-0/1", "4/6", "3/-4", "-2/-6", "5", "1/1", "-1/1", "7/3"]


@given(st.sampled_from([1, 2, 3, 4, 5, 8, 12, 15, 24, 168]), st.data())
@settings(max_examples=150, deadline=None)
def test_json_reader_matches_the_dense_reader(order, data):
    coeffs = data.draw(st.lists(st.sampled_from(["0/1"] * 4 + ODD_COEFFS),
                                min_size=euler_phi(order), max_size=euler_phi(order)))
    obj = {"order": order, "coeffs": coeffs}
    assert fields(cyclotomic_from_json(obj)) == fields(dense_from_json(obj))


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
def test_huge_order_is_rejected_before_factoring(optimize):
    # a prime near 10^18: trial division to its square root would not end
    code = ("from reptheory.exact import cyclotomic_from_json\n"
            "try:\n    cyclotomic_from_json({'order': 1000000000000000003, 'coeffs': ['1/1']})\n"
            "except ValueError as exc:\n    print(exc)\n")
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=20)
    assert proc.stdout == "coefficient list has wrong length for the given order\n", proc.stderr


def test_order_bound_admits_every_phi():
    # phi(n) >= sqrt(n/2): the bound rejects no order that has the right length
    for n in range(1, 5000):
        assert n <= 2 * euler_phi(n) ** 2


@pytest.fixture
def cold_memo(monkeypatch):
    """cyclotomic_from_json with an empty memo of its own, put back after."""
    monkeypatch.setattr(exact, "_FROM_JSON", {})
    monkeypatch.setattr(exact, "_from_json_coeffs", 0)
    return monkeypatch


def test_equal_value_dicts_give_one_value(cold_memo):
    v = zeta(12, 5) * cyc(Fraction(-3, 4)) + cyc(Fraction(1, 6))
    first = cyclotomic_from_json(json.loads(json.dumps(cyclotomic_to_json(v))))
    assert first == v
    assert cyclotomic_from_json(json.loads(json.dumps(cyclotomic_to_json(v)))) is first
    # a table file's values: 195 distinct among 28224 entries
    obj = json.loads(json.dumps(gl2_table_to_json(gl2_table(13))))
    values = [cyclotomic_from_json(v) for row in obj["rows"] for v in row["values"]]
    assert len(values) == 28224 and len({id(v) for v in values}) == 195


# (a good value read first, with the types and length the bad one lacks,
# and the bad one)
BAD_AFTER_GOOD = {
    "boolean order": ({"order": 1, "coeffs": ["1/1"]}, {"order": True, "coeffs": ["1/1"]}),
    "list coefficient": ({"order": 4, "coeffs": ["0/1", "1/1"]}, {"order": 4, "coeffs": ["0/1", ["1/1"]]}),
    "int coefficient": ({"order": 4, "coeffs": ["0/1", "1/1"]}, {"order": 4, "coeffs": ["0/1", 1]}),
    "zero denominator": ({"order": 4, "coeffs": ["0/1", "1/1"]}, {"order": 4, "coeffs": ["0/1", "1/0"]}),
    "wrong length": ({"order": 4, "coeffs": ["0/1", "1/1"]}, {"order": 4, "coeffs": ["0/1", "1/1", "0/1"]}),
    "not an object": ({"order": 1, "coeffs": ["1/1"]}, [["order", 1], ["coeffs", ["1/1"]]]),
}


@pytest.mark.parametrize("case", sorted(BAD_AFTER_GOOD))
def test_bad_values_raise_alike_with_the_memo_cold_and_warm(case, cold_memo):
    good, bad = BAD_AFTER_GOOD[case]
    with pytest.raises(InputError) as cold:
        cyclotomic_from_json(bad)
    assert cyclotomic_from_json(good) is cyclotomic_from_json(dict(good))  # warm
    with pytest.raises(InputError) as warm:
        cyclotomic_from_json(bad)
    assert str(warm.value) == str(cold.value)


def test_the_memo_holds_at_most_its_bound(cold_memo):
    # every value GL2(F_31) holds fits the bound at once
    assert sum(euler_phi(v.order) for v in gl2_table(31).pool) <= exact.FROM_JSON_COEFFS
    cold_memo.setattr(exact, "FROM_JSON_COEFFS", 20)
    objs = [cyclotomic_to_json(zeta(12, k) + Fraction(k, 7)) for k in range(12)]
    before = [cyclotomic_from_json(obj) for obj in objs]  # 48 coefficients
    after = [cyclotomic_from_json(obj) for obj in objs]
    assert 0 < exact._from_json_coeffs <= 20
    assert sum(len(key) - 1 for key in exact._FROM_JSON) == exact._from_json_coeffs
    assert [fields(v) for v in after] == [fields(v) for v in before]
    assert [fields(v) for v in before] == [fields(zeta(12, k) + Fraction(k, 7)) for k in range(12)]


def test_value_pool_keeps_each_stored_value_once():
    values = [zeta(12, k) for k in range(24)] + [cyc(0), cyc(Fraction(1, 2)), cyc(Fraction(2, 4))]
    rows = GramRows([values, [cyc(Fraction(3, 6)), values[5]]])
    index = rows.index[0]
    assert [fields(rows.pool[i]) for i in index] == [fields(v) for v in values]
    assert len(rows.pool) == len({fields(v) for v in values}) == 14
    assert rows.index[1] == [index[-1], index[5]] and len(rows.pool) == 14
    # the pool keeps the first object of each stored form
    assert all(rows.pool[i] is v for i, v in zip(index, values[:12]))


def test_gram_rows_from_values_that_are_freed_between_rows():
    # fresh objects for every row, dropped once the row is read: a value
    # that the pool does not keep frees its id for a value made later
    def fresh(r):
        return [zeta(12, r * c) + Fraction(r % 3, 2) for c in range(12)] + [cyc(r % 5)]

    def rows():
        for r in range(60):
            yield fresh(r)

    gram = GramRows(rows())
    for r in range(60):
        assert [fields(gram.pool[x]) for x in gram.index[r]] == [fields(v) for v in fresh(r)], r
    assert len({fields(v) for v in gram.pool}) == len(gram.pool)


BAD_CONSTRUCTIONS = {
    "wrong coefficient count": "Cyclotomic(5, [1, 2], 1)",
    "zero denominator": "Cyclotomic(3, [1, 0], 0)",
    "non-integral order": "cyclotomic_from_json({'order': 3.5, 'coeffs': ['1/1', '0/1']})",
    "boolean order": "cyclotomic_from_json({'order': True, 'coeffs': ['1/1']})",
    "value not an object": "cyclotomic_from_json(5)",
}


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["python", "python -O"])
@pytest.mark.parametrize("case", sorted(BAD_CONSTRUCTIONS))
def test_bad_construction_is_a_value_error(case, optimize):
    code = ("from reptheory.exact import Cyclotomic, cyclotomic_from_json\n"
            f"try:\n    {BAD_CONSTRUCTIONS[case]}\n"
            "except ValueError:\n    pass\n"
            "else:\n    raise SystemExit('accepted')\n")
    src = str(Path(reptheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *optimize, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# -- reference implementations: the power-table arithmetic and the
# Fraction-based extended Euclid inverse --

def reference_rows(num, n, exponents):
    """The sum of num[i] times the table row of z^exponents[i] mod Phi_n."""
    out = [0] * euler_phi(n)
    for c, e in zip(num, exponents):
        for j, r in enumerate(reference_power_table(n)[e]):
            out[j] += c * r
    return out


def reference_embed(a, n):
    return reference_rows(a.num, n, [i * (n // a.order) for i in range(len(a.num))])


def reference_mul(a, b):
    n = lcm(a.order, b.order)
    na, nb = reference_embed(a, n), reference_embed(b, n)
    conv = [0] * (2 * len(na) - 1)
    for i, x in enumerate(na):
        for j, y in enumerate(nb):
            conv[i + j] += x * y
    return Cyclotomic(n, reference_rows(conv, n, range(len(conv))), a.den * b.den)


def reference_conjugate(a):
    n = a.order
    return Cyclotomic(n, reference_rows(a.num, n, [-i % n for i in range(len(a.num))]), a.den)


def reference_divmod(num, den):
    num, quot = list(num), [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = quot[i - len(den) + 1] = num[i] / den[-1]
        for j, d in enumerate(den):
            num[i - len(den) + 1 + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def reference_inverse(a):
    """u with u * a + v * Phi = 1 in Q[x], by the extended Euclidean
    algorithm on Fractions."""
    if a.order == 1:
        return Cyclotomic(1, (a.den,), a.num[0])
    r0, r1 = [Fraction(c) for c in cyclotomic_polynomial(a.order)], [Fraction(c, a.den) for c in a.num]
    s0, s1 = [], [Fraction(1)]
    while True:
        while r1[-1] == 0:
            r1.pop()
        if len(r1) == 1:
            break
        q, rem = reference_divmod(r0, r1)
        qs = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, x in enumerate(q):
            for j, y in enumerate(s1):
                qs[i + j] += x * y
        width = max(len(s0), len(qs))
        s0, s1 = s1, [x - y for x, y in zip(s0 + [0] * (width - len(s0)),
                                            qs + [0] * (width - len(qs)))]
        r0, r1 = r1, rem
    inv = [v / r1[0] for v in s1]
    return reference_from_fractions(a.order, inv + [Fraction(0)] * (len(a.num) - len(inv)))


FOLD_ORDERS = [15, 21, 35, 105, 120, 210]  # Phi_105 has a coefficient -2


@st.composite
def values_in(draw, n):
    """A sparse value at a random divisor of n."""
    m = draw(st.sampled_from(_divisors(n)))
    num = [0] * euler_phi(m)
    for i, c in draw(st.lists(st.tuples(st.integers(0, len(num) - 1), st.integers(-9, 9)),
                              min_size=1, max_size=6)):
        num[i] += c
    return Cyclotomic(m, num, draw(st.integers(1, 12)))


def test_reference_power_table_holds_powers_of_z():
    assert cyclotomic_polynomial(105)[7] == -2
    for n in FOLD_ORDERS:
        for k, row in enumerate(reference_power_table(n)):
            assert fields(Cyclotomic(n, row, 1)) == fields(zeta(n, k))


@given(st.sampled_from(FOLD_ORDERS), st.data())
@settings(max_examples=120, deadline=None)
def test_arithmetic_matches_reference(n, data):
    a, b = data.draw(values_in(n)), data.draw(values_in(n))
    assert fields(a * b) == fields(reference_mul(a, b))
    assert fields(a.conjugate()) == fields(reference_conjugate(a))
    assert list(a._embed(n)) == reference_embed(a, n)
    if not a.is_zero:
        assert fields(a.inverse()) == fields(reference_inverse(a))


def test_inverse_at_order_360_is_fast():
    # the extended Euclidean algorithm on Fractions took 3.5 s on this value
    # (Python 3.11.7, 2 cores); the elimination takes 0.4 s
    a = 5 * zeta(360, 191) + 7 * zeta(360, 261) - zeta(360, 279) - 8
    start = time.perf_counter()
    inv = a.inverse()
    assert time.perf_counter() - start < 2
    assert a * inv == 1


# -- reference implementation: the divisor scan of reduced(), which tried
# each divisor m of the order in turn with an integer left inverse of the
# embedding Q(zeta_m) -> Q(zeta_n), built from the table of all n powers of z --

@lru_cache(maxsize=None)
def scan_power_table(n):
    table = [tuple(_fold([1], n))]
    while len(table) < n:
        table.append(tuple(_fold([0, *table[-1]], n)))
    return table


@lru_cache(maxsize=None)
def scan_projection(n, m):
    """(pivots, d * B^-1, d, rows of E) for E the phi(n) x phi(m) matrix of
    the embedding and B its invertible block on the rows `pivots`."""
    table = scan_power_table(n)
    k = euler_phi(m)
    columns = [table[i * (n // m)] for i in range(k)]
    work = [list(col) + [int(i == j) for j in range(k)] for i, col in enumerate(columns)]
    pivots, minors, _ = gauss_jordan(work, len(columns[0]))
    e = minors[-1]
    scaled = [row[-k:] for row in work]
    g = gcd(e, *(x for row in scaled for x in row)) * (1 if e > 0 else -1)
    return (tuple(pivots), tuple(tuple(x // g for x in col) for col in zip(*scaled)),
            e // g, tuple(zip(*columns)))


def reference_scan_reduced(a):
    n, num = a.order, a.num
    if n == 1:
        return a
    for m in _divisors(n)[:-1]:
        pivots, inverse, d, rows = scan_projection(n, m)
        x = [num[p] for p in pivots]
        y = [sum(map(mul, row, x)) for row in inverse]
        if all(sum(map(mul, row, y)) == d * c for row, c in zip(rows, num)):
            return Cyclotomic(m, y, d * a.den)
    return a


DESCENT_ORDERS = [12, 16, 18, 20, 24, 27, 30, 36, 45, 48, 60, 63, 72, 84, 90, 105, 120, 180, 210,
                  360]


@pytest.mark.parametrize("n", DESCENT_ORDERS)
def test_descent_matches_the_divisor_scan(n):
    # values of random subfields, and sums of two, embedded at order n
    rng = random.Random(1600 + n)

    def value(m):
        num = [rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(euler_phi(m))]
        return Cyclotomic(m, num, rng.randint(1, 12))

    divisors = _divisors(n)
    for m in divisors:
        for v in (value(m), value(m), value(m) + value(rng.choice(divisors))):
            a = Cyclotomic(n, v._embed(n), v.den)
            assert fields(a.reduced()) == fields(reference_scan_reduced(a))
            if n <= 72:
                assert fields(a.reduced()) == fields(reference_reduced(a))


LARGE_ORDER_TEXTS = json.loads((Path(__file__).parent / "golden" / "large_order_texts.json")
                               .read_text())


@pytest.mark.parametrize("n", sorted(LARGE_ORDER_TEXTS, key=int))
def test_one_plus_z_of_large_order_prints_fast(n):
    # z + 1 at order 2310 (32 divisors) printed in 22 s through the divisor
    # scan (2-vCPU VM, Python 3.11.7), and at the prime order 20011 its table
    # of powers of z would hold 4 * 10^8 integers. The texts are those of
    # reference_str: it took 459 s at order 2310, and at order 20011 it ran
    # with reference_power_table dividing out only the rows it reads
    n = int(n)
    start = time.perf_counter()
    text = str(cyclotomic_from_json({"order": n, "coeffs": ["1/1", "1/1"] + ["0/1"] * (euler_phi(n) - 2)}))
    assert time.perf_counter() - start < 1
    assert text == LARGE_ORDER_TEXTS[str(n)]

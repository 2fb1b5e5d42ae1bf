import itertools
import json

import pytest

from reptheory.chartab import (CharacterTable, frobenius_schur, table_from_json, table_to_json,
                               verify_table)
from reptheory.exact import _fold, zeta, zero
from reptheory.gl2fq import (GL2Group, complementary_virtual_values,
                             _complementary_parameters, gl2_classes, gl2_table,
                             gl2_table_to_json, gl2_verify, is_odd_prime,
                             smallest_nonresidue)


def test_q_validation():
    for bad in (2, 4, 9, 15, 37):
        with pytest.raises(ValueError):
            gl2_classes(bad)
    assert is_odd_prime(3) and is_odd_prime(31)
    assert not is_odd_prime(2) and not is_odd_prime(1)


def primitive_root(d):
    """The primitive root of F_q the logarithms of d.dlog_q are taken to:
    the element whose logarithm is 1."""
    return next(x for x, k in d.dlog_q.items() if k == 1)


def test_field_data():
    d = GL2Group(3)
    assert d.eps == 2
    assert primitive_root(d) == 2
    assert smallest_nonresidue(7) == 3
    d7 = GL2Group(7)
    assert primitive_root(d7) == 3
    # the extension generator really has full order
    assert len(d7.dlog_q2) == 48
    assert d7.norm((1, 0)) == 1


# the primitive root of F_q and the generator a + b sqrt(eps) of F_(q^2)
# for each odd prime q <= 31: the first of 2, 3, ... and of (0, 1), (0, 2),
# ..., (1, 0), (1, 1), ... with full multiplicative order
GENERATORS = {3: (2, (1, 1)), 5: (2, (1, 2)), 7: (3, (1, 1)), 11: (2, (1, 5)), 13: (2, (1, 2)),
              17: (3, (1, 2)), 19: (2, (1, 9)), 23: (5, (1, 1)), 29: (2, (1, 4)), 31: (3, (1, 6))}


@pytest.mark.parametrize("q", sorted(GENERATORS))
def test_generators_and_logarithms(q):
    d = GL2Group(q)
    g = primitive_root(d)
    assert (g, d.gen2) == GENERATORS[q]
    assert sorted(d.dlog_q) == list(range(1, q))
    assert all(d.dlog_q[x * g % q] == (k + 1) % (q - 1) for x, k in d.dlog_q.items())
    assert len(d.dlog_q2) == q * q - 1 and (0, 0) not in d.dlog_q2
    assert all(d.dlog_q2[d.ext_mul(u, d.gen2)] == (k + 1) % (q * q - 1) for u, k in d.dlog_q2.items())


def test_class_census():
    for q in (3, 5, 7):
        classes = gl2_classes(q)
        assert len(classes) == q * q - 1
        order = (q * q - 1) * (q * q - q)
        assert sum(c.size for c in classes) == order
        by_family = {}
        for c in classes:
            by_family.setdefault(c.family, []).append(c)
        assert len(by_family["scalar"]) == q - 1
        assert len(by_family["parabolic"]) == q - 1
        assert len(by_family["hyperbolic"]) == (q - 1) * (q - 2) // 2
        assert len(by_family["elliptic"]) == q * (q - 1) // 2
        assert all(c.size == 1 for c in by_family["scalar"])
        assert all(c.size == q * q - 1 for c in by_family["parabolic"])
        assert all(c.size == q * q + q for c in by_family["hyperbolic"])
        assert all(c.size == q * q - q for c in by_family["elliptic"])
        assert all(c.size * c.centralizer_order == order for c in classes)


def test_degree_multiset_q3():
    table = gl2_table(3)
    assert sorted(r.degree for r in table.rows) == [1, 1, 2, 2, 2, 3, 3, 4]
    assert sum(r.degree ** 2 for r in table.rows) == 48


def test_tables_verify():
    for q in (3, 5):
        table = gl2_table(q)
        report = gl2_verify(table)
        assert report.ok, (q, report.failures()[:3])


def test_principal_series_hyperbolic_value():
    q = 5
    table = gl2_table(q)
    d = table.group
    row = next(r for r in table.rows if r.name == "V[1,2]")
    for ci, cl in enumerate(table.classes):
        if cl.family == "hyperbolic":
            x, y = cl.params
            want = (zeta(q - 1, d.dlog_q[x] + 2 * d.dlog_q[y])
                    + zeta(q - 1, d.dlog_q[y] + 2 * d.dlog_q[x]))
            assert row.values[ci] == want


def test_complementary_parameter_census():
    for q in (3, 5, 7):
        params = _complementary_parameters(q)
        assert len(params) == q * (q - 1) // 2
        n = q * q - 1
        for t in params:
            assert t % (q + 1) != 0
            assert t <= (t * q) % n


def test_complementary_virtual_characters():
    q = 3
    table = gl2_table(q)
    for t in _complementary_parameters(q):
        vals = complementary_virtual_values(table.group, t)
        assert table.inner_product(vals, vals) == 1
        assert vals[0] == q - 1
        row = next(r for r in table.rows if r.name == f"X[{t}]")
        assert tuple(vals) == row.values


def test_frobenius_twist_gives_identical_rows():
    # nu and nu^q induce the same complementary-series character
    for q in (3, 5):
        table = gl2_table(q)
        n = q * q - 1
        for t in _complementary_parameters(q):
            partner = (t * q) % n
            vals_t = complementary_virtual_values(table.group, t)
            vals_tq = complementary_virtual_values(table.group, partner)
            assert vals_t == vals_tq, (q, t)


def test_one_dim_restriction_to_scalars():
    q = 5
    table = gl2_table(q)
    d = table.group
    for k in range(q - 1):
        row = next(r for r in table.rows if r.name == f"xi[{k}]")
        for ci, cl in enumerate(table.classes):
            if cl.family == "scalar":
                x = cl.params[0]
                assert row.values[ci] == zeta(q - 1, k * d.dlog_q[x * x % q])


def test_w_series_values():
    # the degree-q row values on the four families: q mu(x^2), 0, mu(xy),
    # -mu(norm)
    q = 3
    table = gl2_table(q)
    d = table.group
    row = next(r for r in table.rows if r.name == "W[1]")
    for ci, cl in enumerate(table.classes):
        v = row.values[ci]
        if cl.family == "scalar":
            x = cl.params[0]
            assert v == q * zeta(q - 1, d.dlog_q[x * x % q])
        elif cl.family == "parabolic":
            assert v == zero()
        elif cl.family == "hyperbolic":
            x, y = cl.params
            assert v == zeta(q - 1, d.dlog_q[x * y % q])
        else:
            assert v == -zeta(q - 1, d.dlog_q[d.norm(cl.params)])


def test_json_export():
    import json
    table = gl2_table(3)
    blob = json.loads(json.dumps(gl2_table_to_json(table)))
    assert blob["q"] == 3
    assert len(blob["classes"]) == 8 and len(blob["rows"]) == 8
    assert blob["rows"][0]["degree"] == 1
    assert [r["series"] for r in blob["rows"]] == (
        ["one-dimensional"] * 2 + ["principal"] + ["cuspidal-W"] * 2 + ["complementary"] * 3)
    assert blob["group_order"] == 48


@pytest.mark.parametrize("q", [3, 5, 7])
def test_gl2_tables_are_character_tables(q):
    table = gl2_table(q)
    assert isinstance(table, CharacterTable)
    assert table.complete and table.classes is table.group.classes
    report = verify_table(table)
    assert report.ok, report.failures()[:3]
    # the full check adds the column relations and degree divisibility
    k = q * q - 1
    assert len(report.entries) == len(gl2_verify(table).entries) + k * (k + 1) // 2 + k


def test_one_field_data_build_per_table(monkeypatch):
    import reptheory.gl2fq as gl2fq
    built = []
    original = gl2fq.GL2Group.__init__

    def counting(self, q):
        built.append(q)
        original(self, q)

    monkeypatch.setattr(gl2fq.GL2Group, "__init__", counting)
    table = gl2_table(5)
    assert built == [5]
    assert all(row.function.group is table.group for row in table.rows)


def refolded(value, form):
    """The stored form (order, numerators, denominator) of the sum of
    k * zeta_m^e over (e, k) in form, over value's den at value's order m,
    folded afresh."""
    acc = [0] * value.order
    for e, k in form:
        acc[e] += k
    return value.order, tuple(_fold(acc, value.order)), value.den


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_builder_root_forms_fold_to_their_values(q):
    # every value gl2_table makes comes with the roots it was made from,
    # one or two; only a value that collapsed to a rational has none
    table = gl2_table(q)
    forms = table.gram_rows._sparse
    assert len(forms) == len(table.pool)
    for v, form in zip(table.pool, forms):
        if form is None:
            assert v.order == 1, v
        else:
            assert len(form) in (1, 2) and refolded(v, form) == (v.order, v.num, v.den), (v, form)
    assert table.gram_columns._sparse is forms


def _matrix_class(group, m):
    """The class of a 2x2 matrix over F_q, from its trace, determinant and
    whether it is scalar: an independent reading of the class parameters."""
    q = group.q
    (a, b), (c, d) = m
    if b == c == 0 and a == d:
        return ("scalar", (a,))
    tr, det = (a + d) % q, (a * d - b * c) % q
    x = tr * pow(2, -1, q) % q
    disc = (x * x - det) % q  # the eigenvalues are x +- sqrt(disc)
    if disc == 0:
        return ("parabolic", (x,))
    roots = [r for r in range(q) if r * r % q == disc]
    if roots:
        return ("hyperbolic", tuple(sorted(((x + roots[0]) % q, (x - roots[0]) % q))))
    y = next(y for y in range(1, (q - 1) // 2 + 1) if group.eps * y * y % q == disc)
    return ("elliptic", (x, y))


def _matrix_power(m, k, q):
    out = ((1, 0), (0, 1))
    while k:
        if k % 2:
            out = _matrix_product(out, m, q)
        m, k = _matrix_product(m, m, q), k // 2
    return out


def _matrix_product(x, y, q):
    return tuple(tuple(sum(x[i][j] * y[j][l] for j in range(2)) % q for l in range(2))
                 for i in range(2))


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 31])
def test_power_class_map_matches_matrix_powers(q):
    group = GL2Group(q)
    keys = {(c.family, c.params): i for i, c in enumerate(group.classes)}
    for c in group.classes:
        assert _matrix_class(group, c.rep) == (c.family, c.params)
    # every prime dividing |G| = q (q - 1)^2 (q + 1), and multiples of q,
    # where a Jordan block turns scalar; below q = 31 every k up to 2q + 1
    primes = {p for p in range(2, q + 1) if group.order % p == 0 and all(p % d for d in range(2, p))}
    small = range(2 * q + 2) if q < 31 else ()
    for k in sorted(primes.union(small, (q, 2 * q, q * (q - 1), group.order, group.order + 1))):
        want = [keys[_matrix_class(group, _matrix_power(c.rep, k, q))] for c in group.classes]
        assert group.power_class_map(k) == want, k


@pytest.mark.parametrize("q", [3, 5, 7])
def test_frobenius_schur_counts_involutions(q):
    # sum_chi FS(chi) chi(1) = #{g : g^2 = 1}: 1, -1 and the q^2 + q
    # conjugates of diag(1, -1)
    table = gl2_table(q)
    total = sum(row.degree * frobenius_schur(row.function) for row in table.rows)
    assert total == q * q + q + 2


def test_table_to_json_hands_a_gl2_table_to_its_writer():
    table = gl2_table(3)
    assert table_to_json(table) == table_to_json(table, group_name="GL2") == gl2_table_to_json(table)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_class_index_matches_the_matrix_oracle(q):
    # every invertible matrix over F_q lands in the class _matrix_class
    # reads off it, and each class holds as many matrices as its size
    group = GL2Group(q)
    keys = [(c.family, c.params) for c in group.classes]
    held = [0] * len(keys)
    for a, b, c, d in itertools.product(range(q), repeat=4):
        if (a * d - b * c) % q:
            i = group.class_index(((a, b), (c, d)))
            assert keys[i] == _matrix_class(group, ((a, b), (c, d))), ((a, b), (c, d))
            held[i] += 1
    assert held == [c.size for c in group.classes]
    assert [group.class_index([list(r) for r in c.rep]) for c in group.classes] == list(range(len(keys)))


@pytest.mark.parametrize("matrix, error", [
    ([[1, 2], [2, 4]], "not an invertible matrix"),
    ([[0, 0], [0, 0]], "not an invertible matrix"),
    ([[1, 0], [0, 5]], "not a 2x2 matrix over F_5"),
    ([[1, 0], [0, -1]], "not a 2x2 matrix over F_5"),
    ([[1, 0], [0, True]], "not a 2x2 matrix over F_5"),
    ([[1, 0], [0, 1.0]], "not a 2x2 matrix over F_5"),
    ([[1, 0, 0], [0, 1, 0]], "not a 2x2 matrix over F_5"),
    ([[1, 0]], "not a 2x2 matrix over F_5"),
    ([1, 0, 0, 1], "not a 2x2 matrix over F_5"),
    ("[[1, 0], [0, 1]]", "not a 2x2 matrix over F_5"),
])
def test_class_index_refuses_what_is_no_element(matrix, error):
    with pytest.raises(ValueError, match=error):
        GL2Group(5).class_index(matrix)


def _read_back(table):
    return table_from_json(json.loads(json.dumps(gl2_table_to_json(table))))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_gl2_files_read_back(q):
    table = gl2_table(q)
    back = _read_back(table)
    assert back.name == table.name and back.group.q == q
    assert back.display_classes == table.display_classes
    assert [(r.name, r.degree, r.values) for r in back.rows] == \
        [(r.name, r.degree, r.values) for r in table.rows]
    assert gl2_table_to_json(back) == gl2_table_to_json(table)
    k = q * q - 1
    report = verify_table(back)
    assert report.ok and len(report.entries) == k * (k + 1) + k + 2
    assert report.entries[:k * (k + 1) // 2 + 2] == gl2_verify(back).entries


def test_a_gl2_file_keeps_its_class_order():
    # a file may list the classes in any order, as a permutation table's
    # file may; its rows follow, and it is written back in that order
    blob = json.loads(json.dumps(gl2_table_to_json(gl2_table(3))))
    order = [0, 5, 2, 3, 4, 1, 7, 6]
    blob["classes"] = [blob["classes"][c] for c in order]
    for row in blob["rows"]:
        row["values"] = [row["values"][c] for c in order]
    back = table_from_json(blob)
    assert list(back.display_classes) == order
    assert gl2_table_to_json(back) == blob
    assert verify_table(back).ok


def _broken_gl2_file(edit):
    blob = json.loads(json.dumps(gl2_table_to_json(gl2_table(5))))
    edit(blob)
    return blob


@pytest.mark.parametrize("edit, error", [
    (lambda b: b.update(group_order=48), "GL2\\(F_5\\) has order 480, not 48"),
    (lambda b: b.update(q=9), "q must be an odd prime, got 9"),
    (lambda b: b.update(q=37), "q is limited to 31"),
    (lambda b: b.pop("group_order"), 'a GL2 table needs the field "group_order"'),
    (lambda b: b["classes"][5].update(params=[3]), "lies in the class para\\(2\\), not \\['parabolic', \\[3\\]\\]"),
    (lambda b: b["classes"][5].update(family="scalar"), "lies in the class para\\(2\\)"),
    (lambda b: b["classes"][5].update(rep=[[2, 0], [0, 2]]), "lies in the class scal\\(2\\)"),
    (lambda b: b["classes"][5].update(size=1), "class size mismatch"),
    (lambda b: b["classes"][5].pop("family"), 'a table class needs the field "family"'),
    (lambda b: b["classes"].__setitem__(5, b["classes"][4]), "each of the 24 classes of its group exactly once"),
    (lambda b: b["rows"][3].update(series="principal"), "no row 'xi\\[3\\]' of the series 'principal'"),
    (lambda b: b["rows"][3].update(name="chi"), "no row 'chi' of the series 'one-dimensional'"),
    (lambda b: b["rows"][3].pop("series"), 'a table row needs the field "series"'),
])
def test_a_broken_gl2_file_is_an_input_error(edit, error):
    with pytest.raises(ValueError, match=error):
        table_from_json(_broken_gl2_file(edit))

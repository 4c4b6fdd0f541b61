"""Structure constants are checked once, where they enter the program.

The builders of `hopfva.hopf` make Hopf algebras by construction and do not
check them; a `tensors` entry of a workspace is checked against the Hopf
axioms when it loads, and a failure is an input error (exit 4) naming the
object, the first failing axiom and its witness.  `verify-hopf` and
`cocommutative` build their object as entered and examine it themselves.
A backend without one of its fields is an input error naming the field.
"""

import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from conftest import tensors_entry
from hopfva import cli, hopf
from hopfva.hopf import (
    augmentation_ideal,
    dual_hopf,
    group_algebra,
    group_likes,
    quotient_hopf,
    recognize_group_algebra,
    sweedler,
    symmetric_group_table,
)
from hopfva.scalars import scalar_to_text

QZ2 = {"name": "h", "builder": "tensors", "dim": 2, "basis": ["e", "g"],
       "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]],
       "comul": [[0, 0, 0, "1"], [1, 1, 1, "1"]], "unit": ["1", "0"],
       "counit": ["1", "1"], "antipode": [[0, 0, "1"], [1, 1, "1"]]}
NO_ANTIPODE_OF_G = dict(QZ2, antipode=[[0, 0, "1"]])
G_SQUARED_IS_G = dict(QZ2, mul=[[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"],
                                [1, 1, 1, "1"]])


def _workspace(tmp_path, *hopf_entries):
    """A workspace with the given Hopf entries, the backend (Q[x], x d/dx)
    and the action `a` of `h` on it by g x = -x."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({
        "schema_version": 1, "hopf_algebras": list(hopf_entries),
        "backends": [{"name": "xddx", "variables": ["x"], "derivation": {"x": "x"},
                      "degree_cap": 3}],
        "actions": [{"name": "a", "hopf": "h", "backend": "xddx",
                     "generator_images": {"g": {"x": "-1*x"}}}]}))
    return str(path)


def _run(capsys, command, ws, obj, *extra):
    code = cli.main([command, "--workspace", ws, "--object", obj, "--json-only", *extra])
    return code, json.loads(capsys.readouterr().out.splitlines()[0])


# --- no answer on structure constants that fail an axiom -------------------------


@pytest.mark.parametrize("command,obj", [
    ("recognize-group-algebra", "h"), ("thm-5-1", "a"), ("inner-faithful", "a")])
def test_a_missing_antipode_entry_is_an_input_error(capsys, tmp_path, command, obj):
    # Q[Z/2] without S(g): these commands answered group_algebra true, PASS
    # and inner faithful, with exit 0, while the structure is not Hopf
    code, doc = _run(capsys, command, _workspace(tmp_path, NO_ANTIPODE_OF_G), obj)
    assert code == 4
    assert doc["result"] == {"error": "NotHopfAlgebra", "message":
                             "Hopf algebra 'h' fails the Hopf axiom antipode-left at g"}


def test_an_idempotent_g_is_an_input_error(capsys, tmp_path):
    # with g g = g, group-likes listed two group-likes with exit 0
    code, doc = _run(capsys, "group-likes", _workspace(tmp_path, G_SQUARED_IS_G), "h")
    assert code == 4
    assert doc["result"] == {"error": "NotHopfAlgebra", "message":
                             "Hopf algebra 'h' fails the Hopf axiom antipode-left at g"}


def test_verify_hopf_reports_every_axiom_of_the_entry_as_entered(capsys, tmp_path):
    code, doc = _run(capsys, "verify-hopf", _workspace(tmp_path, NO_ANTIPODE_OF_G), "h")
    assert code == 3
    failed = {"antipode-left": "g", "antipode-right": "g"}
    assert doc["result"]["axioms"] == {
        axiom: {"ok": axiom not in failed, "witness": failed.get(axiom)}
        for axiom in ("associativity", "unit", "coassociativity", "counit",
                      "comul-is-algebra-map", "counit-is-algebra-map",
                      "antipode-left", "antipode-right")}
    # cocommutative reads the coproduct alone, which is that of Q[Z/2]
    assert _run(capsys, "cocommutative", _workspace(tmp_path, NO_ANTIPODE_OF_G), "h") == (
        0, {"command": "cocommutative", "object": "h", "schema_version": 1, "status": "pass",
            "result": {"cocommutative": True, "witness": None}})


def test_the_verify_field_is_gone(capsys, tmp_path):
    code, doc = _run(capsys, "verify-hopf",
                     _workspace(tmp_path, dict(NO_ANTIPODE_OF_G, verify=False)), "h")
    assert code == 4
    assert doc["result"] == {"error": "ParseError", "message":
                             "Hopf algebra 'h': the tensors builder reads no field 'verify'"}


# --- a malformed Hopf section is an input error, not a traceback -----------------

QZ2_TABLE = {"name": "h", "builder": "group_algebra", "table": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("entry,message", [
    (dict(QZ2, basis=5), "basis must be a list of names, got 5"),
    (dict(QZ2, mul=5), "mul must be a list of entries, got 5"),
    (dict(QZ2, mul=[[0, 0, 0, "1"], 5]),
     "mul entry 1 must be a list of 3 indices and a scalar, got 5"),
    (dict(QZ2, unit=5), "unit must be a list of 2 scalars, got 5"),
    (dict(QZ2_TABLE, element_names=5), "element_names must be a list of 2 names, got 5"),
    (dict(QZ2_TABLE, element_names=["e"]),
     "element_names must be a list of 2 names, got ['e']"),
    (dict(QZ2_TABLE, table="ab"),
     "table must be a list of rows of element indices, got 'ab'"),
    (dict(QZ2, mul=[[0, 0, 0, "1"], [0, 1]]),
     "mul entry 1 must be a list of 3 indices and a scalar, got [0, 1]"),
    (dict(QZ2, comul=[[0, 0, 0]]),
     "comul entry 0 must be a list of 3 indices and a scalar, got [0, 0, 0]"),
    (dict(QZ2, antipode=[[0, 0, "1"], [1, "1"]]),
     "antipode entry 1 must be a list of 2 indices and a scalar, got [1, '1']"),
    ({k: v for k, v in QZ2.items() if k != "dim"}, "needs the field 'dim'"),
    ({k: v for k, v in QZ2.items() if k != "counit"}, "needs the field 'counit'"),
], ids=["number-basis", "number-mul", "number-mul-entry", "number-unit",
        "number-element-names", "short-element-names", "string-table", "short-mul-entry",
        "short-comul-entry", "short-antipode-entry", "no-dim", "no-counit"])
def test_a_malformed_hopf_entry_is_a_parse_error(capsys, tmp_path, entry, message):
    code, doc = _run(capsys, "verify-hopf", _workspace(tmp_path, entry), "h")
    assert code == 4
    assert doc["result"] == {"error": "ParseError", "message": f"Hopf algebra 'h': {message}"}


def test_a_string_group_table_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"schema_version": 1, "groups": [{"name": "z2", "table": "ab"}],
                                "hopf_algebras": [{"name": "h", "builder": "group_algebra",
                                                   "group": "z2"}]}))
    code, doc = _run(capsys, "verify-hopf", str(path), "h")
    assert code == 4
    assert doc["result"] == {"error": "ParseError", "message":
                             "group 'z2': table must be a list of rows of element indices, "
                             "got 'ab'"}


# --- seeded single-entry corruptions are caught at load and by verify-hopf -------

ALGEBRAS = {"qs3": lambda: group_algebra(symmetric_group_table(3)), "sweedler": sweedler,
            "qs3-dual": lambda: dual_hopf(group_algebra(symmetric_group_table(3)))}


def _corrupted(h, field, rng):
    """A tensors entry of `h` with one entry of `field` moved by a nonzero
    rational, its first index (product row, coproduct or antipode column)
    off b_0, the unit of Q[S3] and of Sweedler's algebra."""
    entry = tensors_entry(h, "c")
    width = {"mul": 3, "comul": 3, "antipode": 2}[field]
    index = [rng.randrange(1, h.dim)] + [rng.randrange(h.dim) for _ in range(width - 1)]
    if field == "antipode":
        index.reverse()   # [i, j] is the entry S(b_j) has at b_i
    delta = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3]))
    old = next((e for e in entry[field] if e[:-1] == index), None)
    value = delta + (Fraction(old[-1]) if old else 0)
    entry[field] = [e for e in entry[field] if e is not old] + [[*index, scalar_to_text(value)]]
    return entry


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("field", ["mul", "comul", "antipode"])
@pytest.mark.parametrize("name", ALGEBRAS)
def test_a_single_corrupted_entry_is_caught(capsys, tmp_path, name, field, seed):
    entry = _corrupted(ALGEBRAS[name](), field, random.Random(f"{name}-{field}-{seed}"))
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps({"schema_version": 1, "hopf_algebras": [entry]}))
    code, report = _run(capsys, "verify-hopf", str(path), "c")
    assert code == 3
    code, doc = _run(capsys, "group-likes", str(path), "c")
    assert code == 4 and doc["result"]["error"] == "NotHopfAlgebra"
    # the load check names the first axiom verify-hopf reports failing
    axiom, witness = doc["result"]["message"].split(" fails the Hopf axiom ")[1].split(" at ")
    assert report["result"]["axioms"][axiom] == {"ok": False, "witness": witness}


def _dense_axioms(h):
    """The report `verify_hopf_axioms` must give, from dense structure
    tensors, scanning every triple and pair in ascending order."""
    d, names = h.dim, h.names
    # b_i b_j = sum mul[i][j][k] b_k, Delta(b_k) = sum comul[k][i][j] b_i (x) b_j
    # and S(b_j) = sum antipode[j][i] b_i
    mul = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i, j, k, c in h.mul_entries():
        mul[i][j][k] = c
    comul = [[[0] * d for _ in range(d)] for _ in range(d)]
    for k, i, j, c in h.comul_entries():
        comul[k][i][j] = c
    antipode = [[0] * d for _ in range(d)]
    for j, pairs in enumerate(h.antipode_nonzero):
        for i, c in pairs:
            antipode[j][i] = c
    unit, counit = list(h.unit), list(h.counit)

    def prod(u, v):
        out = [0] * d
        for i in range(d):
            for j in range(d):
                if u[i] and v[j]:
                    for k in range(d):
                        out[k] += u[i] * v[j] * mul[i][j][k]
        return out

    def tensor_prod(s, t):
        out = [[0] * d for _ in range(d)]
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    for e in range(d):
                        if s[a][b] and t[c][e]:
                            left, right = mul[a][c], mul[b][e]
                            for p in range(d):
                                for q in range(d):
                                    out[p][q] += s[a][b] * t[c][e] * left[p] * right[q]
        return out

    def delta(v):
        return [[sum(v[k] * comul[k][i][j] for k in range(d)) for j in range(d)]
                for i in range(d)]

    def basis(i):
        return [int(j == i) for j in range(d)]

    def first(witnesses):
        return next(((False, w) for w in witnesses), (True, None))

    def antipode_fails(k, left):
        out = [0] * d
        for i in range(d):
            for j in range(d):
                if comul[k][i][j]:
                    term = prod(antipode[i], basis(j)) if left else prod(basis(i), antipode[j])
                    out = [x + comul[k][i][j] * y for x, y in zip(out, term)]
        return out != [counit[k] * u for u in unit]

    cubes = [(i, j, k) for i in range(d) for j in range(d) for k in range(d)]
    squares = [(i, j) for i in range(d) for j in range(d)]
    return {
        "associativity": first(
            f"({names[i]},{names[j]},{names[k]})" for i, j, k in cubes
            if prod(prod(basis(i), basis(j)), basis(k)) !=
            prod(basis(i), prod(basis(j), basis(k)))),
        "unit": first(names[i] for i in range(d)
                      if not prod(unit, basis(i)) == basis(i) == prod(basis(i), unit)),
        "coassociativity": first(
            names[k] for k in range(d)
            if [[[sum(comul[k][m][c] * comul[m][a][b] for m in range(d)) for c in range(d)]
                 for b in range(d)] for a in range(d)] !=
            [[[sum(comul[k][a][m] * comul[m][b][c] for m in range(d)) for c in range(d)]
              for b in range(d)] for a in range(d)]),
        "counit": first(
            names[k] for k in range(d)
            if not [sum(counit[i] * comul[k][i][j] for i in range(d)) for j in range(d)] ==
            basis(k) == [sum(counit[j] * comul[k][i][j] for j in range(d)) for i in range(d)]),
        "comul-is-algebra-map": first(
            ["1"] if delta(unit) != [[unit[i] * unit[j] for j in range(d)] for i in range(d)]
            else (f"({names[i]},{names[j]})" for i, j in squares
                  if delta(prod(basis(i), basis(j))) != tensor_prod(comul[i], comul[j]))),
        "counit-is-algebra-map": first(
            ["1"] if sum(u * e for u, e in zip(unit, counit)) != 1
            else (f"({names[i]},{names[j]})" for i, j in squares
                  if sum(c * e for c, e in zip(mul[i][j], counit)) != counit[i] * counit[j])),
        "antipode-left": first(names[k] for k in range(d) if antipode_fails(k, True)),
        "antipode-right": first(names[k] for k in range(d) if antipode_fails(k, False)),
    }


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("field", ["mul", "comul", "antipode"])
@pytest.mark.parametrize("name", ALGEBRAS)
def test_hopf_axioms_match_the_dense_oracle(name, field, seed):
    # a proper generating set of qs3 and sweedler, certified in
    # `generating_set`, stands in for the associativity and algebra-map scans;
    # each corruption must leave the report, witnesses included, as the
    # all-triples and all-pairs scans give it
    h = ALGEBRAS[name]()
    corrupted = cli._hopf_from_tensors(
        "c", _corrupted(h, field, random.Random(f"{name}-{field}-{seed}")))
    for algebra in (h, corrupted):
        assert dict(hopf.verify_hopf_axioms(algebra)) == _dense_axioms(algebra)
        assert list(hopf.verify_hopf_axioms(algebra)) == list(_dense_axioms(algebra))


def test_generating_sets_of_the_corpus():
    assert [hopf.generating_set(ALGEBRAS[name]()) for name in ALGEBRAS] == [
        (1, 2), (1, 2), tuple(range(6))]
    s3 = ALGEBRAS["qs3"]()
    # a corrupted product the certificate reads sends every index back
    broken = cli._hopf_from_tensors("c", dict(tensors_entry(s3, "c"), mul=[
        e for e in tensors_entry(s3, "c")["mul"] if e[:2] != [3, 4]] + [[3, 4, 1, "1"]]))
    assert hopf.generating_set(broken) == tuple(range(6))


@pytest.mark.parametrize("comul,counit", [
    ([(0, 0, 0, 1), (0, 1, 1, 1), (1, 1, 0, 1)], [1, 0]),   # Delta(1) = 1 (x) 1 + x (x) x
    ([(0, 0, 0, 1), (1, 1, 0, 1)], [2, 0]),                 # eps(1) = 2
], ids=["comul-of-1", "counit-of-1"])
def test_a_wrong_coproduct_or_counit_of_1_sends_every_index_back(comul, counit):
    # k[x]/(x^2) with Delta(x) = x (x) 1: b_x b_j and Delta(b_x) Delta(b_j)
    # agree for every j, so only the unit's own certificate refuses {x}
    h = hopf.FinHopfAlgebra(2, ["1", "x"], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
                            [1, 0], comul, counit, [(0, 0, 1), (1, 1, -1)])
    assert hopf.generating_set(h) == (0, 1)
    assert dict(hopf.verify_hopf_axioms(h)) == _dense_axioms(h)
    assert not hopf.verify_hopf_axioms(h).passed


def test_q_s5_axioms_run_on_generators(monkeypatch):
    h = group_algebra(symmetric_group_table(5))
    calls = []
    check = hopf.is_associative_at
    monkeypatch.setattr(hopf, "is_associative_at", lambda *a: calls.append(a) or check(*a))
    assert hopf.verify_hopf_axioms(h).passed
    gens = hopf.generating_set(h)
    assert 0 < len(gens) <= 4
    assert not calls   # group_algebra handed S over, certified by construction
    # the handed S is the one the certificate finds, on the generators only
    assert hopf._certified_generators(h) == gens
    assert 0 < len(calls) <= len(gens) * h.dim ** 2
    assert {i for _, i, _, _ in calls} == set(gens)


# --- the work each structure costs ------------------------------------------------


@pytest.fixture
def axiom_checks(monkeypatch):
    """The Hopf algebras `verify_hopf_axioms` is called on, in order."""
    calls = []
    check = hopf.verify_hopf_axioms
    monkeypatch.setattr(hopf, "verify_hopf_axioms", lambda h: calls.append(h) or check(h))
    return calls


def test_builders_run_no_axiom_check(axiom_checks):
    h = group_algebra(symmetric_group_table(3))
    quotient_hopf(h, augmentation_ideal(h))
    dual = dual_hopf(h)
    group_likes(dual)
    recognize_group_algebra(h)
    dual_hopf(sweedler())
    assert axiom_checks == []


def test_cli_checks_each_entry_once(capsys, tmp_path, axiom_checks):
    ws = _workspace(tmp_path, QZ2, {"name": "hd", "builder": "dual", "of": "h"},
                    {"name": "q", "builder": "group_algebra", "table": [[0, 1], [1, 0]]},
                    {"name": "qd", "builder": "dual", "of": "q"})
    expected = [  # (command, object, checks)
        ("group-likes", "h", 1),       # the tensors entry, at load
        ("thm-5-1", "a", 1),           # the same, loaded for its action
        ("verify-hopf", "h", 1),       # built as entered, checked by the command
        ("cocommutative", "h", 0),
        ("recognize-group-algebra", "qd", 0),
        ("verify-hopf", "qd", 1),
        ("verify-hopf", "hd", 2),      # h at load, then its dual
    ]
    for command, obj, checks in expected:
        del axiom_checks[:]
        code, _ = _run(capsys, command, ws, obj)
        assert code == 0, (command, obj)
        assert len(axiom_checks) == checks, (command, obj)


def test_q_s5_is_built_sparse():
    h = group_algebra(symmetric_group_table(5))
    dual = dual_hopf(h)
    assert [sum(1 for _ in a.mul_entries()) for a in (h, dual)] == [14_400, 120]
    assert [sum(1 for _ in a.comul_entries()) for a in (h, dual)] == [120, 14_400]


# --- a backend's fields -------------------------------------------------------------


@pytest.mark.parametrize("field", ["variables", "derivation", "degree_cap"])
def test_a_missing_backend_field_is_named(capsys, tmp_path, field):
    data = json.loads((resources.files("hopfva") / "fixtures" / "xy_diagonal.json").read_text())
    del data["backends"][0][field]
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(data))
    code, doc = _run(capsys, "pin-check", str(path), "xy_diag")
    assert code == 4
    assert doc["result"] == {"error": "ParseError",
                             "message": f"backend 'xy_diag': needs the field {field!r}"}

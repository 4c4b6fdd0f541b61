"""Independent oracles for the idempotent splitter, on abelian groups.

For an abelian group G of exponent N, the group-likes of Q[G]* are the
characters G -> Q(zeta_N)^x, built here directly from powers of zeta_N.  The
Krylov minimal polynomial of an element of Q[G] (x) Q(zeta_N), taken as an
algebra over Q, must equal the minimal polynomial of its dense multiplication
matrix, found here from the matrix powers with `Cyclotomic` arithmetic only.
A conductor whose field lacks a character value must be refused, and the
rational roots of a minimal polynomial must be exactly the chosen ones.
Each Sturm term is built by integer pseudo-division, which must give a
positive multiple of the remainder that Fraction long division gives.

The unit that `group_likes` hands the split must be the unit that a dense
solve finds (`conftest.solved_unit`), and the split must give the
closed-form idempotents: delta_g in Q[G]*, and (1/n) sum_k zeta^(-jk) g^k
in Q[Z_n] over Q(zeta_n).  The refusal of a non-commutative table and of
a wrong unit are tested, and the number of minimal-polynomial searches is
bounded by the dimension.  A block that no standard candidate splits must
be split by the second stage's candidates.  Reading a character at a wrong
coordinate, a mutation of the source of `hopf`, must be caught by the
group-like check.

A basis of orthogonal idempotents that sums to the unit is read off the
table with no search: the delta functions of Q[G]*, in any order, must give
the sorted idempotents that the search gives with the shortcut switched
off, and recognising Q[S5] must run no search and build no quotient.  A
wrong unit, a non-orthogonal pair of idempotents or a scaled idempotent
basis must not take the shortcut.
"""

import inspect
import math
import random
import sys
import types
from fractions import Fraction
from itertools import product

import pytest
from conftest import record_searches, solved_unit, split_dense
from test_group_likes import GROUPS as NONABELIAN
from test_group_likes import _invertible, _rebased

from hopfva import hopf, linalg
from hopfva.errors import InvariantViolation, SplitFailure
from hopfva.hopf import (
    cyclic_group_table,
    dual_hopf,
    group_algebra,
    group_likes,
    product_group_table,
    recognize_group_algebra,
    symmetric_group_table,
)
from hopfva.linalg import (
    Matrix,
    _AlgebraQ,
    _first_dependence,
    _minimal_polynomial,
    _pseudo_remainder,
    _rational_roots,
    nonzero_pairs,
    solve,
    split_commutative_algebra,
)
from hopfva.scalars import (
    as_scalar,
    cyclo_coords,
    euler_phi,
    scalar_sort_key,
    scalar_to_text,
    zeta,
)

# (name, cyclic factors, a conductor whose field misses a character value)
GROUPS = [
    ("z1", (1,), None),
    ("z2", (2,), None),
    ("z3", (3,), 1),
    ("z4", (4,), 2),
    ("z5", (5,), 1),
    ("z6", (6,), 2),  # not 3: Q(zeta_3) = Q(zeta_6)
    ("z7", (7,), 1),
    ("z8", (8,), 4),
    ("z2z4", (2, 4), 2),
    ("z2z6", (2, 6), 2),
    ("z3z3", (3, 3), 1),
]


def _table(factors):
    table = cyclic_group_table(factors[0])
    for n in factors[1:]:
        table = product_group_table(table, cyclic_group_table(n))
    return table


def _elements(factors):
    """The coordinates (a_1, ..., a_r) of each element, in table order."""
    return list(product(*(range(n) for n in factors)))


def _characters(factors, exponent):
    """Every character of the group as its values on the elements."""
    elems = _elements(factors)
    return [[zeta(exponent, sum(exponent // n * k * a for n, k, a in zip(factors, ks, elem)))
             for elem in elems]
            for ks in _elements(factors)]


@pytest.mark.parametrize("name,factors,missing", GROUPS, ids=[g[0] for g in GROUPS])
def test_group_likes_of_dual_are_the_characters(name, factors, missing):
    exponent = math.lcm(*factors)
    h = dual_hopf(group_algebra(_table(factors)))
    likes = group_likes(h, conductor=exponent)
    expected = _characters(factors, exponent)
    assert len(likes) == len(expected) == len(h.names)  # Q[Z7]* at 7: 7 group-likes
    for chi in expected:
        assert sum(list(g) == chi for g in likes) == 1, chi


@pytest.mark.parametrize("name,factors,missing",
                         [g for g in GROUPS if g[2] is not None],
                         ids=[g[0] for g in GROUPS if g[2] is not None])
def test_a_conductor_missing_the_exponent_is_refused(name, factors, missing):
    h = dual_hopf(group_algebra(_table(factors)))
    with pytest.raises(SplitFailure) as exc:
        group_likes(h, conductor=missing)
    assert exc.value.reason == "extend-conductor"


def _dense_minimal_polynomial(m):
    """Monic minimal polynomial of a square Matrix from its powers I, M, M^2, ..."""
    powers = [Matrix.identity(m.rows)]
    while True:
        nxt = powers[-1] * m
        sol = solve(Matrix.from_columns([p.vec() for p in powers]), nxt.vec())
        if sol is not None:
            return [-c for c in sol] + [1]
        powers.append(nxt)


@pytest.mark.parametrize("name,factors,missing", GROUPS, ids=[g[0] for g in GROUPS])
def test_krylov_minimal_polynomial_matches_matrix_powers(name, factors, missing):
    exponent = math.lcm(*factors)
    phi = euler_phi(exponent)
    table = _table(factors)
    d = len(table)
    g1 = min(1, d - 1)
    # y = 2 + zeta_N g_1 in Q[G] (x) Q(zeta_N)
    y = [as_scalar(0)] * d
    y[0] += 2
    y[g1] += zeta(exponent)
    # its multiplication matrix over the Q-basis g zeta^a (index g * phi + a)
    columns = []
    for h, a in product(range(d), range(phi)):
        col = [as_scalar(0)] * (d * phi)
        for g, c in enumerate(y):
            if c:
                target = table[g][h] * phi
                for t, x in enumerate(cyclo_coords(c * zeta(exponent, a), exponent)):
                    col[target + t] += x
        columns.append(col)
    dense = _dense_minimal_polynomial(Matrix.from_columns(columns))

    mult = [[[as_scalar(int(k == table[i][j])) for k in range(d)] for j in range(d)]
            for i in range(d)]
    alg = _AlgebraQ([[nonzero_pairs(v) for v in row] for row in mult], d, exponent)
    unit = alg.f_to_q([1] + [0] * (d - 1))
    mu, powers = _minimal_polynomial(alg, unit, alg.f_to_q(y))
    assert mu == dense
    assert len(powers) == len(mu) - 1


def test_first_dependence_reads_rows_lazily():
    # the first three rows lie in span{e, f}, so the third depends on the others
    rows = [{"e": 1}, {"e": 2, "f": 3}, {"e": -7, "f": 5}, {"g": 1}]
    read = []

    def lazily():
        for row in rows:
            read.append(row)
            yield row

    assert _first_dependence(lazily()) == 2
    assert len(read) == 3
    assert _first_dependence(iter(rows[:2] + rows[3:])) is None
    assert _first_dependence(iter([{"e": 2}, {"e": -6}])) == 1
    assert _first_dependence(iter([{}])) == 0


def _fp_mul(a, b):
    """The product of two Fraction polynomials, ascending coefficients."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fraction_remainder(a, b):
    """The remainder of a by b, by Fraction long division."""
    a = [Fraction(c) for c in a]
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        for j, d in enumerate(b):
            a[k + j] -= c * d
        a.pop()
    while a and not a[-1]:
        a.pop()
    return a


def _pseudo_remainder_cases():
    rng = random.Random(11)
    cases = [
        ([1, 2, 3, 4], [5, 0, -3]),  # a negative leading coefficient
        (_fp_mul(_fp_mul([-1, 1], [2, 1]), [3, 2]), [6, -3, -3]),  # b divides a
        ([1, 3, 0, 0, 0, 1], [2, 0, 0, 0, 1]),  # the remainder drops 3 degrees
        ([1, 0, 0, 1, 1], [0, 1, 1]),  # a's next term vanishes on the way
        ([4, -6], [1, 2, 3]),  # a already below b
    ]
    for _ in range(40):
        b = [rng.randint(-9, 9) for _ in range(rng.randint(2, 5))] + [rng.choice((-4, -1, 1, 3))]
        a = [rng.randint(-30, 30) for _ in range(rng.randint(len(b), len(b) + 4))]
        cases.append((a, b))
    return cases


@pytest.mark.parametrize("a,b", _pseudo_remainder_cases())
def test_the_pseudo_remainder_is_the_remainder_times_a_positive_rational(a, b):
    a, b = [int(c) for c in a], [int(c) for c in b]
    rem, exact = _pseudo_remainder(a, b), _fraction_remainder(a, b)
    assert all(type(c) is int for c in rem)
    assert len(rem) == len(exact)
    if exact:
        assert math.gcd(*rem) == 1
        ratio = rem[-1] / exact[-1]
        assert ratio > 0 and rem == [ratio * c for c in exact]


def test_rational_roots_are_exact_and_complete():
    # products of chosen linear factors and quadratics without rational
    # roots, scaled by a rational; the last case has a constant term near
    # 10^40, whose divisors no trial division would list.  A quadratic drawn
    # twice makes the product not squarefree, and the verdict must say so.
    rng = random.Random(7)
    cases = []
    for _ in range(200):
        roots = sorted({Fraction(rng.randint(-60, 60), rng.randint(1, 15))
                        for _ in range(rng.randint(0, 4))})
        poly = [Fraction(1)]
        for r in roots:
            poly = _fp_mul(poly, [-r, Fraction(1)])
        quadratics = []
        for _ in range(rng.randint(0, 2)):
            b, c = rng.randint(-9, 9), rng.randint(1, 30)
            if b * b < 4 * c:  # negative discriminant: no real roots
                poly = _fp_mul(poly, [Fraction(c), Fraction(b), Fraction(1)])
                quadratics.append((b, c))
        if len(poly) > 1:
            scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            squarefree = len(set(quadratics)) == len(quadratics)
            cases.append(([c * scale for c in poly], roots, squarefree))
    big = [Fraction(10 ** 20 + 39, 3), Fraction(-(10 ** 20 + 7), 11)]
    poly = [Fraction(1)]
    for r in big:
        poly = _fp_mul(poly, [-r, Fraction(1)])
    cases.append((_fp_mul(poly, [Fraction(2), Fraction(0), Fraction(1)]), sorted(big), True))
    assert not all(squarefree for _, _, squarefree in cases)
    for poly, roots, squarefree in cases:
        assert _rational_roots(poly) == (roots, squarefree), poly


@pytest.mark.parametrize("factor", [[-1, 1], [1, 0, 1]], ids=["x-1", "x^2+1"])
@pytest.mark.parametrize("conductor", [1, 4])
def test_a_repeated_factor_is_not_semisimple(factor, conductor):
    # Q[x]/(f^2) on the basis 1, x, ..., x^(n-1): x has the minimal
    # polynomial f^2, which is not squarefree over any field
    f = _fp_mul([Fraction(c) for c in factor], [Fraction(c) for c in factor])
    n = len(f) - 1
    powers = [[Fraction(int(k == e)) for k in range(n)] for e in range(n)]
    while len(powers) < 2 * n - 1:  # x^e = x * x^(e-1) - f(x) x^(e-1)
        prev = powers[-1]
        powers.append([(prev[k - 1] if k else 0) - prev[-1] * f[k] for k in range(n)])
    mult = [[powers[i + j] for j in range(n)] for i in range(n)]
    with pytest.raises(SplitFailure) as exc:
        split_dense(mult, n, conductor=conductor)
    assert exc.value.reason == "not-semisimple"


# --- the split with the caller's unit and with the solved one ---------------------

# (name, group table, conductor): Q[G] and Q[G]* each split over it
CALLER_UNIT = [
    ("s3", symmetric_group_table(3), 1),
    ("s4", symmetric_group_table(4), 1),
    ("d4", NONABELIAN["d4"][0], 1),
    ("z6", cyclic_group_table(6), 6),
    ("z2z4", _table((2, 4)), 4),
]


def _recorded_split(monkeypatch, h, conductor):
    """group_likes(h) and the (arguments, keywords) of the one split it runs."""
    calls = []
    monkeypatch.setattr(hopf, "split_commutative_algebra",
                        lambda *a, **k: calls.append((a, k)) or split_commutative_algebra(*a, **k))
    likes = group_likes(h, conductor=conductor)
    assert len(calls) == 1
    return likes, calls[0]


@pytest.mark.parametrize("dual", [False, True], ids=["group", "dual"])
@pytest.mark.parametrize("name,table,conductor", CALLER_UNIT, ids=[c[0] for c in CALLER_UNIT])
def test_the_split_with_the_callers_unit_is_the_split_without(monkeypatch, name, table,
                                                               conductor, dual):
    h = group_algebra(table)
    h = dual_hopf(h) if dual else h
    likes, ((nonzero, dq), keywords) = _recorded_split(monkeypatch, h, conductor)
    assert keywords["conductor"] == conductor
    assert list(keywords["unit"]) == solved_unit(nonzero, dq)
    with_unit = split_commutative_algebra(nonzero, dq, conductor, unit=keywords["unit"])
    assert len(with_unit) == len(likes)
    if not dual:  # H* = Q[G]* splits into the delta functions of the elements
        assert with_unit == sorted(tuple(int(j == g) for j in range(dq)) for g in range(dq))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_split_of_a_cyclic_group_algebra_is_the_character_idempotents(monkeypatch, n):
    # H = Q[Z_n]*, so H* = Q[Z_n] on the elements g^k, table order
    _, ((nonzero, dq), keywords) = _recorded_split(
        monkeypatch, dual_hopf(group_algebra(cyclic_group_table(n))), n)
    expected = [tuple(zeta(n, -j * k) / n for k in range(n)) for j in range(n)]
    expected.sort(key=lambda v: tuple(scalar_sort_key(c) for c in v))
    for unit in (keywords["unit"], solved_unit(nonzero, dq)):
        assert split_commutative_algebra(nonzero, dq, n, unit=unit) == expected


def _algebra(dim, products):
    """Structure constants from {(i, j): {k: c}}; absent products are 0."""
    return [[sorted(products.get((i, j), {}).items()) for j in range(dim)] for i in range(dim)]


def test_a_direct_caller_is_refused_a_non_commutative_algebra():
    # b_0 b_1 = b_1 but b_1 b_0 = 0, with the left unit b_0
    with pytest.raises(ValueError, match="not commutative"):
        split_commutative_algebra(_algebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1}}), 2,
                                  unit=[1, 0])


@pytest.mark.parametrize("unit", [[0, 1], [1, 1], [Fraction(1, 2), Fraction(1, 2)], [2, 0]])
def test_a_wrong_unit_is_an_invariant_violation(unit):
    nonzero = [[nonzero_pairs([int(k == (i + j) % 2) for k in range(2)]) for j in range(2)]
               for i in range(2)]  # Q[Z2]
    assert len(split_commutative_algebra(nonzero, 2, unit=[1, 0])) == 2
    with pytest.raises(InvariantViolation, match="given unit"):
        split_commutative_algebra(nonzero, 2, unit=unit)


def test_each_lineage_tries_the_standard_basis_once(monkeypatch):
    # the dual of a rebased Q[S4] is Q[S4]* off its basis of delta functions,
    # so it has 24 blocks that only the search finds; a search that resumed
    # from the first basis element in every block made 276 searches on
    # Q[S4]* itself, one per pair of elements
    h = group_algebra(symmetric_group_table(4))
    h = _rebased(h, _invertible(h.dim, random.Random(1)))
    calls = record_searches(monkeypatch)
    assert len(group_likes(h)) == 24
    assert 0 < len(calls) <= h.dim


def test_the_delta_functions_of_a_group_are_read_off_the_table(monkeypatch):
    # Q[S4]* = Fun(S4) has the basis of its 24 primitive idempotents
    calls = record_searches(monkeypatch)
    h = group_algebra(symmetric_group_table(4))
    likes = group_likes(h)
    assert likes[0] == tuple(h.unit)
    assert sorted(likes) == sorted(tuple(h.basis_vector(g)) for g in range(24))
    assert calls == []


def test_recognising_a_group_algebra_builds_no_quotient_and_no_search(monkeypatch):
    calls = record_searches(monkeypatch)
    products = []
    build = hopf.QuotientMap.products
    monkeypatch.setattr(hopf.QuotientMap, "products",
                        lambda self, *a: products.append(a) or build(self, *a))
    found = recognize_group_algebra(group_algebra(symmetric_group_table(5)))
    assert len(found.elements) == 120
    assert calls == [] and products == []


# --- the second stage: candidates drawn from the block ---------------------------


def _coordinates(basis, v):
    """The coordinates of v in the basis (b_0, b_1) of F^2, by Cramer's rule."""
    (a, c), (b, d) = basis
    det = a * d - b * c
    return [(v[0] * d - b * v[1]) / det, (a * v[1] - c * v[0]) / det]


def test_a_block_no_standard_candidate_splits_is_split_by_the_second_stage():
    # A = Q(zeta_3)^2 with componentwise products, on the basis
    # b_0 = (3 zeta, 4 + zeta), b_1 = (3 + 2 zeta, -4 + 2 zeta): no b_i zeta^a
    # has a rational component, so no standard candidate has a rational root
    # on the unit, and only a product or sum from the block splits it
    z = zeta(3)
    basis = [(3 * z, 4 + z), (3 + 2 * z, -4 + 2 * z)]
    nonzero = [[nonzero_pairs(_coordinates(basis, (p[0] * q[0], p[1] * q[1])))
                for q in basis] for p in basis]
    unit = _coordinates(basis, (1, 1))
    alg = _AlgebraQ(nonzero, 2, 3)
    for g in range(alg.qdim):
        candidate = [Fraction(int(k == g)) for k in range(alg.qdim)]
        mu, _ = _minimal_polynomial(alg, alg.f_to_q(unit), candidate)
        roots, squarefree = _rational_roots(mu)
        assert squarefree and (not roots or len(mu) == 2)
    got = split_commutative_algebra(nonzero, 2, 3, unit=unit)
    expected = [_coordinates(basis, (1, 0)), _coordinates(basis, (0, 1))]
    assert sorted(map(list, got), key=str) == sorted(expected, key=str)
    assert [[scalar_to_text(c) for c in e] for e in got] == [
        ["zeta(3):[-14/79,-20/79]", "zeta(3):[-17/553,-92/553]"],
        ["zeta(3):[3/79,-7/79]", "zeta(3):[-81/553,-48/553]"]]


# --- when the basis is its own primitive idempotents ------------------------------


def _diagonal(dim, value=1):
    """b_i b_j = value b_i for i = j and 0 otherwise."""
    return _algebra(dim, {(i, i): {i: value} for i in range(dim)})


@pytest.mark.parametrize("unit", [[1, 1, 0], [1, 1, 2], [0, 0, 0], [1, -1, 1]])
def test_orthogonal_idempotents_off_the_given_unit_take_no_shortcut(unit):
    # F^3, whose unit is b_0 + b_1 + b_2: a split that trusted the table
    # alone would return the b_i; the unit check must refuse them
    assert len(split_commutative_algebra(_diagonal(3), 3, unit=[1, 1, 1])) == 3
    with pytest.raises(InvariantViolation, match="given unit"):
        split_commutative_algebra(_diagonal(3), 3, unit=unit)


@pytest.mark.parametrize("unit", [None, [0, 1, 0]])
def test_idempotents_that_are_not_orthogonal_are_split(monkeypatch, unit):
    # b_0 = e_0, b_1 = 1 = e_0 + e_1 + e_2, b_2 = e_2 in F^3: every b_i is
    # idempotent, but b_0 b_1 = b_0, so the primitive idempotents are
    # b_0, b_2 and e_1 = b_1 - b_0 - b_2; None takes the solved unit
    products = {(i, i): {i: 1} for i in range(3)}
    products |= {(0, 1): {0: 1}, (1, 0): {0: 1}, (1, 2): {2: 1}, (2, 1): {2: 1}}
    nonzero = _algebra(3, products)
    unit = solved_unit(nonzero, 3) if unit is None else unit
    calls = record_searches(monkeypatch)
    assert split_commutative_algebra(nonzero, 3, unit=unit) == \
        [(-1, 1, -1), (0, 0, 1), (1, 0, 0)]
    assert calls


def test_a_scaled_idempotent_basis_is_split(monkeypatch):
    # b_i b_i = 2 b_i: the primitive idempotents are b_i / 2
    calls = record_searches(monkeypatch)
    half = Fraction(1, 2)
    assert split_commutative_algebra(_diagonal(3, 2), 3, unit=[half] * 3) == \
        [(0, 0, half), (0, half, 0), (half, 0, 0)]
    assert calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_permuted_idempotent_basis_splits_as_the_search_does(monkeypatch, seed):
    # Q[S4] with its elements relabelled: the dual basis is still the delta
    # functions, in another order; the shortcut and the search that it skips
    # must give the same sorted idempotents, with the same scalar types
    order = [0] + random.Random(seed).sample(range(1, 24), 23)
    table = symmetric_group_table(4)
    back = {g: k for k, g in enumerate(order)}
    relabelled = [[back[table[a][b]] for b in order] for a in order]
    _, ((nonzero, dq), keywords) = _recorded_split(monkeypatch, group_algebra(relabelled), 1)
    calls = record_searches(monkeypatch)
    read = split_commutative_algebra(nonzero, dq, unit=keywords["unit"])
    assert calls == []
    assert read == sorted(tuple(Fraction(int(j == g)) for j in range(dq)) for g in range(dq))
    monkeypatch.setattr(linalg, "_is_idempotent_basis", lambda *a: False)
    searched = split_commutative_algebra(nonzero, dq, unit=keywords["unit"])
    assert searched == read
    assert [[type(c) for c in e] for e in searched] == [[type(c) for c in e] for e in read]
    assert calls


# --- a mutation the group-like check must catch ----------------------------------


def _mutant_hopf(monkeypatch, old, new):
    """A copy of the module `hopf` with the one source line `old` replaced."""
    source = inspect.getsource(hopf)
    assert source.count(old) == 1
    module = types.ModuleType("hopfva.hopf_mutant")
    module.__package__ = "hopfva"
    monkeypatch.setitem(sys.modules, module.__name__, module)  # as an imported module is
    exec(compile(source.replace(old, new), hopf.__file__, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name,conductor", [("s3", 1), ("z3-dual", 3), ("z2z4-dual", 4)])
def test_a_character_read_at_a_wrong_coordinate_fails_the_group_like_check(monkeypatch, name,
                                                                          conductor):
    build = {"s3": lambda m: m.group_algebra(symmetric_group_table(3)),
             "z3-dual": lambda m: m.dual_hopf(m.group_algebra(cyclic_group_table(3))),
             "z2z4-dual": lambda m: m.dual_hopf(m.group_algebra(_table((2, 4))))}[name]
    read = "for a, c in into[j].get(ref, ()):"
    assert group_likes(build(hopf), conductor=conductor)
    mutant = _mutant_hopf(monkeypatch, read, read.replace("(ref,", "((ref + 1) % dq,"))
    with pytest.raises(InvariantViolation, match="group-like check"):
        mutant.group_likes(build(mutant), conductor=conductor)

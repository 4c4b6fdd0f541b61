"""Independent oracles for the idempotent splitter, on abelian groups.

For an abelian group G of exponent N, the group-likes of Q[G]* are the
characters G -> Q(zeta_N)^x, built here directly from powers of zeta_N.  The
Krylov minimal polynomial of an element of Q[G] (x) Q(zeta_N), taken as an
algebra over Q, must equal the minimal polynomial of its dense multiplication
matrix, found here from the matrix powers with `Cyclotomic` arithmetic only.
A conductor whose field lacks a character value must be refused, and the
rational roots of a minimal polynomial must be exactly the chosen ones.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from conftest import split_dense

from hopfva.errors import SplitFailure
from hopfva.hopf import (
    cyclic_group_table,
    dual_hopf,
    group_algebra,
    group_likes,
    product_group_table,
)
from hopfva.linalg import (
    Matrix,
    _AlgebraQ,
    _first_dependence,
    _minimal_polynomial,
    _rational_roots,
    nonzero_pairs,
    solve,
)
from hopfva.scalars import _fp_mul, as_scalar, cyclo_coords, euler_phi, zeta

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

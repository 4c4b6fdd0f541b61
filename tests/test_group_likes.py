"""Group-likes of Hopf algebras whose dual is not commutative.

G(H) = Alg(H*, F), so the group-likes of Q[G]* are the 1-dimensional
characters of G, as many as the abelianisation G/[G, G] has elements once
the field holds their values.  Each returned element is checked here to be
a character (multiplicative on the group table), and the count against
|G^ab| taken from the group's own structure.

Property oracle: a seeded random change of basis P in GL_d(Q) carries every
structure map along, so the Hopf axioms must still hold, cocommutativity
must agree, and the group-likes must come out as P G(H).  On a rebased
group algebra the dual is no longer split by its own basis, so the
idempotent search runs where it is skipped for Q[G] itself.

The commutator ideal of H* grows from the generating set of H*; it must be
the ideal grown from every index and the naive closure of
`test_ideal_oracle`, and a cocommutative H must build neither.
"""

import random
from fractions import Fraction

import pytest
from conftest import record_searches

from hopfva import hopf
from hopfva.errors import SplitFailure
from hopfva.hopf import (
    FinHopfAlgebra,
    dual_hopf,
    generating_set,
    group_algebra,
    group_likes,
    is_cocommutative,
    sweedler,
    symmetric_group_table,
    verify_hopf_axioms,
)
from hopfva.linalg import Matrix, nonzero_pairs, solve, span_closure
from hopfva.scalars import scalar_sort_key, zeta
from test_ideal_oracle import ideal_generated


def _generated_table(generators, compose):
    """The table of the group generated by `generators` under `compose`,
    elements in the order they are first reached, the identity first."""
    one = compose(generators[0], generators[0])
    while compose(one, generators[0]) != generators[0]:
        one = compose(one, generators[0])
    elements, frontier = [one], [one]
    while frontier:
        nxt = []
        for a in frontier:
            for g in generators:
                b = compose(a, g)
                if b not in elements:
                    elements.append(b)
                    nxt.append(b)
        frontier = nxt
    pos = {e: i for i, e in enumerate(elements)}
    return [[pos[compose(a, b)] for b in elements] for a in elements]


def _perm_compose(p, q):
    return tuple(p[q[x]] for x in range(len(p)))


def _mat_compose(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _commutator_quotient_order(table):
    """|G / [G, G]|, from the subgroup the commutators generate."""
    n = len(table)
    inverse = [row.index(0) for row in table]
    sub = {0}
    frontier = {table[table[a][b]][table[inverse[a]][inverse[b]]]
                for a in range(n) for b in range(n)}
    while frontier:
        sub |= frontier
        frontier = {table[x][y] for x in sub for y in sub} - sub
    return n // len(sub)


# left multiplication by i and j on the quaternion basis 1, i, j, k
_QI = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
_QJ = ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0))

GROUPS = {
    "s3": (symmetric_group_table(3), 1),
    "d4": (_generated_table([(1, 2, 3, 0), (0, 3, 2, 1)], _perm_compose), 1),
    "q8": (_generated_table([_QI, _QJ], _mat_compose), 1),
    "a4": (_generated_table([(1, 2, 0, 3), (1, 0, 3, 2)], _perm_compose), 3),
}
KNOWN = {"s3": 2, "d4": 4, "q8": 4, "a4": 3}


@pytest.mark.parametrize("name", GROUPS)
def test_group_likes_of_a_nonabelian_dual_are_its_linear_characters(name):
    table, conductor = GROUPS[name]
    assert len(table) == {"s3": 6, "d4": 8, "q8": 8, "a4": 12}[name]
    h = dual_hopf(group_algebra(table))
    assert verify_hopf_axioms(h).passed
    assert not is_cocommutative(h)[0]  # so H* = Q[G] is not commutative
    likes = group_likes(h, conductor=conductor)
    assert len(likes) == KNOWN[name] == _commutator_quotient_order(table)
    assert likes[0] == tuple(h.unit)
    n = len(table)
    for chi in likes:  # group_algebra puts the identity first, so the dual
        assert all(chi[table[a][b]] == chi[a] * chi[b]  # basis follows `table`
                   for a in range(n) for b in range(n))


def test_dual_of_a4_needs_the_cube_roots_of_unity():
    # A4^ab = Z/3: two of the three characters take values zeta_3^(+-1)
    h = dual_hopf(group_algebra(GROUPS["a4"][0]))
    with pytest.raises(SplitFailure) as exc:
        group_likes(h)
    assert exc.value.reason == "extend-conductor"


def test_a_dual_without_characters_has_no_group_likes():
    # structure constants (not a Hopf algebra) whose dual is the matrix
    # algebra M_2(Q): its commutators generate all of it, so the quotient
    # is 0 and no character exists
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]  # e_11, e_12, e_21, e_22
    comul = [(units.index((i, l)), a, b, 1) for a, (i, j) in enumerate(units)
             for b, (k, l) in enumerate(units) if j == k]
    h = FinHopfAlgebra(4, "abcd", [], [1, 0, 0, 1], comul, [1] * 4,
                       [(i, i, 1) for i in range(4)])
    assert group_likes(h) == []


# --- invariance under a change of basis ----------------------------------------


def _invertible(d, rng):
    """A random permutation matrix followed by d random rational shears.

    A dense P would make every structure constant nonzero, and the axiom
    check of Delta(ab) = Delta(a) Delta(b) costs about d^8 products then."""
    order = list(range(d))
    rng.shuffle(order)
    rows = [[Fraction(int(k == o)) for k in range(d)] for o in order]
    for _ in range(d):
        i, j = rng.sample(range(d), 2)
        c = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return Matrix.from_rows(rows)


def _rebased(h, p):
    """h on the coordinates v' = P v: each structure map conjugated by P."""
    d = h.dim
    old = [solve(p, [int(r == i) for r in range(d)]) for i in range(d)]  # b'_i in old coordinates
    square = p.kron(p)
    return FinHopfAlgebra(
        d, [f"{n}'" for n in h.names],
        [(i, j, k, c) for i in range(d) for j in range(d)
         for k, c in enumerate(p.apply(h.multiply(old[i], old[j]))) if c],
        p.apply(list(h.unit)),
        [(k, *divmod(t, d), c) for k in range(d)
         for t, c in enumerate(square.apply(h.comul_of(old[k]))) if c],
        [h.counit_of(old[i]) for i in range(d)],
        [(k, i, c) for i in range(d) for k, c in enumerate(p.apply(h.antipode_of(old[i])))
         if c])


ORACLE = {"sweedler": sweedler, "dual-s3": lambda: dual_hopf(group_algebra(GROUPS["s3"][0]))}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ORACLE)
def test_group_likes_follow_a_change_of_basis(name, seed):
    h = ORACLE[name]()
    p = _invertible(h.dim, random.Random(seed))
    moved = _rebased(h, p)
    assert verify_hopf_axioms(h).passed and verify_hopf_axioms(moved).passed
    assert is_cocommutative(moved)[0] == is_cocommutative(h)[0]
    likes = group_likes(moved)
    assert set(likes) == {tuple(p.apply(list(g))) for g in group_likes(h)}
    assert len(likes) == 2 and likes[0] == tuple(moved.unit)


REBASED = dict(GROUPS, s4=(symmetric_group_table(4), 1))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", REBASED)
def test_group_likes_of_a_rebased_group_algebra_follow_the_change_of_basis(monkeypatch, name,
                                                                          seed):
    # the dual of Q[G] has the delta functions for its basis, and the split
    # reads them off its table; after a change of basis they must be found
    # by the search, and the group-likes must be P g for the elements g
    table, conductor = REBASED[name]
    h = group_algebra(table)
    p = _invertible(h.dim, random.Random(seed))
    moved = _rebased(h, p)
    expected = {tuple(p.apply(list(g))) for g in group_likes(h)}
    calls = record_searches(monkeypatch)
    likes = group_likes(moved, conductor=conductor)
    assert calls
    assert len(likes) == h.dim and set(likes) == expected
    assert likes[0] == tuple(moved.unit)


def test_the_sparse_sort_key_orders_vectors_as_their_dense_keys():
    # vectors mostly 0, with entries below 0, above 0 and cyclotomic, and
    # some that are prefixes of others up to trailing zeros
    rng = random.Random(5)
    values = [Fraction(-3), Fraction(-1, 2), Fraction(1, 3), Fraction(2), zeta(3), zeta(4, 3)]
    vectors = [(Fraction(0),) * 5] + [
        tuple(rng.choice(values) if rng.random() < 0.3 else Fraction(0) for _ in range(5))
        for _ in range(300)]
    dense = sorted(vectors, key=lambda v: tuple(scalar_sort_key(c) for c in v))
    sparse = sorted(vectors, key=lambda v: hopf._sparse_sort_key(nonzero_pairs(v), 5))
    assert sparse == dense


# --- the commutator ideal from a generating set --------------------------------


def _naive_commutator_ideal(dual):
    """The ideal of `dual` generated by all its commutators, closed under the
    products with every basis element and rebuilt once per vector."""
    basis = [dual.basis_vector(i) for i in range(dual.dim)]
    return ideal_generated(dual, [[x - y for x, y in zip(dual.multiply(a, b), dual.multiply(b, a))]
                                  for a in basis for b in basis])


CLOSURES = {
    "dual-s3": (lambda: dual_hopf(group_algebra(symmetric_group_table(3))), True),
    "dual-s4": (lambda: dual_hopf(group_algebra(symmetric_group_table(4))), True),
    "dual-d4": (lambda: dual_hopf(group_algebra(GROUPS["d4"][0])), True),
    "sweedler-dual": (lambda: dual_hopf(sweedler()), True),
    # the dual of Sweedler's algebra has the unit b*_1 + b*_g, off its basis
    "sweedler": (sweedler, False),
    "rebased-dual-s3": (lambda: _rebased(ORACLE["dual-s3"](),
                                         _invertible(6, random.Random(4))), False),
}


@pytest.mark.parametrize("name", sorted(CLOSURES))
def test_the_commutator_ideal_from_generators_is_the_one_from_every_index(monkeypatch, name):
    make, certified = CLOSURES[name]
    h = make()
    dual = dual_hopf(h)
    assert (len(generating_set(dual)) < h.dim) is certified
    ideals = []

    def recording(ambient, seeds, maps):
        ideals.append(span_closure(ambient, seeds, maps))
        return ideals[-1]

    monkeypatch.setattr(hopf, "span_closure", recording)
    likes = group_likes(h)
    monkeypatch.setattr(hopf, "generating_set", lambda a: tuple(range(a.dim)))
    assert group_likes(h) == likes
    assert ideals[0] == ideals[1] == _naive_commutator_ideal(dual)
    assert ideals[0].pivots == ideals[1].pivots


def test_a_cocommutative_algebra_certifies_no_generators_for_its_dual(monkeypatch):
    # H* is commutative, so it has no commutator and group_likes splits it
    # without building the ideal or asking for a generating set of H*
    called = []
    monkeypatch.setattr(hopf, "generating_set", lambda a: called.append(a))
    monkeypatch.setattr(hopf, "span_closure", lambda *args: called.append(args))
    h = group_algebra(symmetric_group_table(3))
    assert len(group_likes(h)) == 6
    assert called == []

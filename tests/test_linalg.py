import math
import random
from fractions import Fraction

import pytest
from conftest import cyclic_scaling_action, split_dense

from hopfva import linalg
from hopfva.action import annihilator, invariants
from hopfva.errors import InvariantViolation, SplitFailure
from hopfva.linalg import (
    _PRIME,
    Matrix,
    Subspace,
    _independent_mod_p,
    _is_prime,
    _kernel_of_columns,
    _kernel_rref,
    _leading_ones,
    _residue_rows,
    _rref_rows,
    _split_prime,
    linear_combination,
    solve,
    span_closure,
)
from hopfva.scalars import (
    Cyclotomic,
    as_scalar,
    cyclotomic,
    cyclotomic_polynomial,
    scalar_to_text,
    zeta,
)
from hopfva.vertexalg import (
    CommDiffVA,
    Poly,
    pi2_kernel,
    pin_injectivity_check,
    single_variable_backend,
    z2_kernel,
)

F = Fraction


def _laplace_det(rows):
    n = len(rows)
    if n == 0:
        return F(1)
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _laplace_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def test_kernel_identity_is_zero():
    assert Matrix.identity(3).kernel().is_zero()


def test_kernel_one_row():
    k = Matrix.from_rows([[1, -1]]).kernel()
    assert k.basis == ((F(1), F(1)),)


def test_kernel_of_truncated_multiplication_matrix():
    # pairs over basis {1, x} ordered (1x1, 1xx, xx1, xxx); products live in
    # the scratch space {1, x, x^2}, so only x(x)1 - 1(x)x dies
    m = Matrix.from_rows([
        [1, 0, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 0, 1],
    ])
    k = m.kernel()
    assert k.dim == 1
    assert k.contains([0, 1, -1, 0])


def test_kernel_vectors_annihilate():
    rng = random.Random(99)
    for _ in range(20):
        rows = [[F(rng.randint(-4, 4)) for _ in range(5)] for _ in range(3)]
        m = Matrix.from_rows(rows)
        for v in m.kernel().basis:
            assert all(c == 0 for c in m.apply(list(v)))
        assert m.rank() + m.kernel().dim == m.cols


def test_rank_is_permutation_invariant():
    rng = random.Random(4)
    for _ in range(10):
        rows = [[F(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        m = Matrix.from_rows(rows)
        r = m.rank()
        perm = list(range(4))
        rng.shuffle(perm)
        shuffled = Matrix.from_rows([[rows[i][perm[j]] for j in range(4)]
                                     for i in perm])
        assert shuffled.rank() == r


def test_kernel_with_cyclotomic_entries():
    z = zeta(3)
    m = Matrix.from_rows([[z, -1]])
    k = m.kernel()
    assert k.dim == 1
    v = list(k.basis[0])
    assert z * v[0] - v[1] == 0


def test_kron_examples():
    i2 = Matrix.identity(2)
    assert i2.kron(i2) == Matrix.identity(4)
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    got = swap.kron(i2)
    assert got == Matrix.from_rows([
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ])
    assert Matrix.from_rows([[2]]).kron(Matrix.from_rows([[3]])) == \
        Matrix.from_rows([[6]])


def test_kron_is_associative():
    rng = random.Random(12)
    mats = [Matrix.from_rows([[F(rng.randint(-2, 2)) for _ in range(2)]
                              for _ in range(2)]) for _ in range(3)]
    a, b, c = mats
    assert a.kron(b).kron(c) == a.kron(b.kron(c))


def test_kron_respects_tensor_action():
    rng = random.Random(23)
    a = Matrix.from_rows([[F(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)])
    b = Matrix.from_rows([[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)])
    u = [F(rng.randint(-2, 2)) for _ in range(2)]
    v = [F(rng.randint(-2, 2)) for _ in range(3)]
    uv = [x * y for x in u for y in v]
    au, bv = a.apply(u), b.apply(v)
    assert a.kron(b).apply(uv) == [x * y for x in au for y in bv]


def test_det_against_laplace():
    rng = random.Random(77)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            rows = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
            assert Matrix.from_rows(rows).det() == _laplace_det(rows)


def test_solve():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    x = solve(a, [5, 6])
    assert a.apply(x) == [F(5), F(6)]
    inconsistent = Matrix.from_rows([[1, 1], [2, 2]])
    assert solve(inconsistent, [1, 3]) is None


def test_subspace_operations():
    s = Subspace.from_vectors(3, [[1, 0, 1], [0, 1, 1]])
    t = Subspace.from_vectors(3, [[1, 1, 2]])
    assert s.contains([1, 1, 2])
    assert s.contains_subspace(t)
    meet = s.intersect(Subspace.from_vectors(3, [[1, 1, 2], [1, 0, 0]]))
    assert meet.dim == 1
    assert meet.contains([1, 1, 2])
    assert (s + t).dim == 2
    assert s.coordinates_of([2, 3, 5]) == [F(2), F(3)]
    assert s.coordinates_of([0, 0, 1]) is None


def _dense_reduce(space, vec):
    """`Subspace.reduce` as it was: every entry converted, the dense list
    rebuilt once per pivot."""
    v = [as_scalar(c) for c in vec]
    for row, p in zip(space.basis, space.pivots):
        c = v[p]
        if c != 0:
            v = [x - c * y if y else x for x, y in zip(v, row)]
    return v


def _dense_coordinates_of(space, vec):
    v = [as_scalar(c) for c in vec]
    return [v[p] for p in space.pivots] if all(c == 0 for c in _dense_reduce(space, v)) \
        else None


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("field", ["rational", "cyclotomic"])
def test_sparse_reduction_matches_the_dense_one(field, seed):
    rng = random.Random(seed)
    n = rng.randrange(3, 9)

    def entry():
        c = F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.5 else 0
        if field == "cyclotomic" and rng.random() < 0.3:
            c = c + rng.randint(1, 2) * zeta(rng.choice([3, 4, 12]))
        return c

    space = Subspace.from_vectors(n, [[entry() for _ in range(n)]
                                      for _ in range(rng.randrange(n))])
    members = [linear_combination([entry() for _ in space.basis], space.basis)
               for _ in range(4)] if space.basis else []
    others = [[entry() for _ in range(n)] for _ in range(6)]
    for vec in members + others:
        got = space.reduce(vec)
        assert got == _dense_reduce(space, vec)
        assert [type(c) for c in got] == [type(c) for c in _dense_reduce(space, vec)]
        assert space.coordinates_of(vec) == _dense_coordinates_of(space, vec)
    for vec in members:
        assert space.coordinates_of(vec) is not None
    assert any(space.coordinates_of(vec) is None for vec in others) == (space.dim < n)


def test_subspace_equality_is_canonical():
    a = Subspace.from_vectors(3, [[1, 1, 0], [0, 2, 2]])
    b = Subspace.from_vectors(3, [[2, 2, 0], [1, 0, -1]])
    assert a == b
    assert a.basis == b.basis


# --- primitive idempotent splitting -----------------------------------------


def _pointwise_algebra(n):
    return [[[F(1) if i == j == m else F(0) for m in range(n)]
             for j in range(n)] for i in range(n)]


def test_split_pointwise_q2():
    idems = split_dense(_pointwise_algebra(2), 2)
    assert sorted(idems) == [(F(0), F(1)), (F(1), F(0))]


def test_split_dual_of_group_algebra_z2():
    # the dual of Q[Z/2] multiplies pointwise in the dual basis, so its
    # primitive idempotents are the two delta functionals
    idems = split_dense(_pointwise_algebra(2), 2)
    assert len(idems) == 2


def test_split_group_algebra_z2_itself():
    # Q[Z/2] as a commutative algebra splits as (e+g)/2, (e-g)/2; oracle:
    # solve p^2 = p by hand with p = a + b g
    mult = [
        [[F(1), F(0)], [F(0), F(1)]],
        [[F(0), F(1)], [F(1), F(0)]],
    ]
    idems = split_dense(mult, 2)
    assert sorted(idems) == [(F(1, 2), F(-1, 2)), (F(1, 2), F(1, 2))]


def test_split_nilpotent_fails():
    # Q[x]/(x^2): basis {1, x}, x*x = 0
    mult = [
        [[F(1), F(0)], [F(0), F(1)]],
        [[F(0), F(1)], [F(0), F(0)]],
    ]
    with pytest.raises(SplitFailure) as exc:
        split_dense(mult, 2)
    assert exc.value.reason == "not-semisimple"


def _cyclic_group_algebra_tensor(n):
    out = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j][(i + j) % n] = F(1)
    return out


def test_split_z3_needs_conductor_three():
    mult = _cyclic_group_algebra_tensor(3)
    with pytest.raises(SplitFailure) as exc:
        split_dense(mult, 3)
    assert exc.value.reason == "extend-conductor"
    idems = split_dense(mult, 3, conductor=3)
    assert len(idems) == 3
    # spot check: each idempotent is (1/3) sum_k zeta^{-jk} g^k for some j
    z = zeta(3)
    expected = {tuple(scalar_to_text((z ** (-j * k)) / 3) for k in range(3))
                for j in range(3)}
    got = {tuple(scalar_to_text(c) for c in v) for v in idems}
    assert expected == got


def test_split_z4_over_conductor_four():
    mult = _cyclic_group_algebra_tensor(4)
    with pytest.raises(SplitFailure):
        split_dense(mult, 4)  # x^2+1 resists over Q
    idems = split_dense(mult, 4, conductor=4)
    assert len(idems) == 4


def test_split_rejects_bad_tensors():
    noncomm = [
        [[F(1), F(0)], [F(0), F(1)]],
        [[F(1), F(0)], [F(1), F(0)]],
    ]
    with pytest.raises(ValueError):
        split_dense(noncomm, 2)


# --- one entry point for row reduction -------------------------------------------


def _sparse(rows):
    """Dense rows as the sparse rows {column: entry} that the reducer takes."""
    return [{j: c for j, c in enumerate(row) if c} for row in rows]


def _dense(rows, ncols):
    """Rows of (column, entry) pairs as tuples of `ncols` scalars, 0 elsewhere."""
    return tuple(tuple(dict(row).get(j, F(0)) for j in range(ncols)) for row in rows)


def _naive_kernel(rows, ncols):
    """Free-variable null-space basis from a forward RREF, then re-reduced."""
    red, pivots = _rref_rows(_sparse(rows), ncols)
    red = _dense(_leading_ones(red, pivots), ncols)
    vecs = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        vecs.append(v)
    return Subspace.from_vectors(ncols, vecs)


def test_kernel_rref_matches_naive_kernel():
    rng = random.Random(21)
    for _ in range(40):
        m, n = rng.randint(0, 5), rng.randint(1, 7)
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else F(0)
                 for _ in range(n)] for _ in range(m)]
        basis, pivots = _kernel_rref(_sparse(rows), range(n))
        expected = _naive_kernel(rows, n)
        assert _dense(basis, n) == expected.basis and pivots == expected.pivots
        if rows:
            assert Matrix.from_rows(rows).kernel() == expected


def test_kernel_of_columns_returns_rref_over_components():
    # three components with disjoint row keys, holding ints, Fractions, and
    # ints beside zeta_3 (which sends that component alone to field
    # elimination), then an empty column, whose unit vector is in the kernel
    rng = random.Random(11)
    z = zeta(3)
    draw = [lambda: rng.randint(-2, 2), lambda: F(rng.randint(-2, 2), rng.randint(1, 3)),
            lambda: rng.choice([0, 1, -2, z, -z, z * z])]
    for _ in range(10):
        ncols = 13
        columns = [{(ci // 4, r): draw[ci // 4]() for r in range(3) if rng.random() < 0.6}
                   for ci in range(ncols - 1)] + [{}]
        kern = _kernel_of_columns(columns, ncols)
        keys = sorted({k for col in columns for k in col})
        rows = [[col.get(k, 0) for col in columns] for k in keys]
        expected = _naive_kernel(rows, ncols)
        assert kern == expected and kern.pivots == expected.pivots
        assert expected.contains([0] * (ncols - 1) + [1])
        # the same null space as a block-diagonal Matrix mixing the three kinds
        assert Matrix.from_rows(rows).kernel() == expected


# --- the modular row selection in _kernel_of_columns ----------------------------


def _gauss_jordan(rows, ncols):
    """Textbook Gauss-Jordan over the exact scalars: (reduced rows with
    leading 1s, pivots)."""
    rows = [[as_scalar(c) for c in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def _oracle_kernel(columns, ncols):
    """(RREF basis, pivots) of the null space of a sparse column family,
    from Gauss-Jordan alone: the free-variable vectors, reduced again."""
    keys = sorted({k for col in columns for k in col})
    red, pivots = _gauss_jordan([[col.get(k, 0) for col in columns] for k in keys], ncols)
    vecs = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        vecs.append(v)
    return _gauss_jordan(vecs, ncols)


def _assert_born_sparse(space, dense):
    """The sparse rows of `space` are the nonzero entries of the dense rows
    `dense` (an oracle's RREF basis), ascending by column, the same scalars
    of the same types; so are those of its own dense basis."""
    rows = space.nonzero_rows()
    assert len(rows) == len(dense) == space.dim
    for vec in (dense, space.basis):
        expected = [[(j, c) for j, c in enumerate(v) if c] for v in vec]
        assert rows == expected
        assert [[type(c) for _, c in row] for row in rows] == \
            [[type(c) for _, c in row] for row in expected]


def _kernel_rref_of_all_rows(columns, ncols):
    """The exact reduction of every row at once, with no row selection."""
    keys = sorted({k for col in columns for k in col})
    rows, pivots = _kernel_rref(_sparse([[col.get(k, 0) for col in columns] for k in keys]),
                                range(ncols))
    return _dense(rows, ncols), pivots


def _selected_mod_p(rows, ncols):
    """The rows the modular pass of `_kernel_of_columns` selects: over
    Q(zeta_N) their residues under zeta_N -> omega mod the split prime, over
    Q the rows scaled by 3 (which clears every denominator in the rational
    cases below) mod `_PRIME`."""
    conductors = {c.conductor for r in rows for c in r.values() if isinstance(c, Cyclotomic)}
    if not conductors:
        return _independent_mod_p([{j: int(c * 3) for j, c in r.items()} for r in rows], ncols)
    n = math.lcm(*conductors)
    p, omega = _split_prime(n)
    return _independent_mod_p(_residue_rows(rows, n, p, omega), ncols, p)


_P4, _OMEGA4 = _split_prime(4)
_P12, _OMEGA12 = _split_prime(12)


@pytest.mark.parametrize("columns, ncols, kernel_dim", [
    # one column, rows [p] and [p]: both vanish mod p, not over Q
    ([{0: _PRIME, 1: _PRIME}], 1, 0),
    # rows (1, 1) and (1, 1 + p) agree mod p; over Q they have full rank
    ([{0: 1, 1: 1, 2: 2}, {0: 1, 1: 1 + _PRIME, 2: 2}], 2, 0),
    # the same, as Fractions, beside a third column no row reaches
    ([{0: F(1, 3), 1: F(1, 3), 2: F(2, 3)}, {0: F(1, 3), 1: F(1 + _PRIME, 3), 2: F(2, 3)},
      {0: 0, 1: 0, 2: 0}], 3, 1),
    # rows (p, 0, 0), (1, 1, 1), (2, 2, 2): the selected row alone leaves a
    # plane, the exact kernel is the line through (0, 1, -1)
    ([{0: _PRIME, 1: 1, 2: 2}, {1: 1, 2: 2}, {1: 1, 2: 2}], 3, 1),
    # the entry zeta_N - omega maps to 0 mod p but is nonzero in Q(zeta_N)
    ([{0: zeta(4) - _OMEGA4}], 1, 0),
    ([{0: F(1, 2) * zeta(12) - F(_OMEGA12, 2), 1: zeta(12) - _OMEGA12}], 1, 0),
    # rows (zeta_N, 1) and (zeta_N, 1 + p) agree mod p, and their determinant
    # p zeta_N is nonzero
    ([{0: zeta(4), 1: zeta(4)}, {0: 1, 1: 1 + _P4}], 2, 0),
    # rows r = (zeta_12, 1, zeta_3), (zeta_12, 1 + p, zeta_3) and zeta_3 r,
    # of mixed conductors: rank 1 mod p, rank 2 over Q(zeta_12)
    ([{0: zeta(12), 1: zeta(12), 2: zeta(3) * zeta(12)}, {0: 1, 1: 1 + _P12, 2: zeta(3)},
      {0: zeta(3), 1: zeta(3), 2: zeta(3, 2)}], 3, 1),
])
def test_unlucky_prime_falls_back_to_the_exact_kernel(columns, ncols, kernel_dim):
    keys = sorted({k for col in columns for k in col})
    rows = [{j: c for j, col in enumerate(columns) if (c := col.get(k, 0))} for k in keys]
    # the prime loses rank on these rows, so the selection alone would give
    # a larger kernel
    assert len(_selected_mod_p(rows, ncols)) < ncols - kernel_dim
    kern = _kernel_of_columns(columns, ncols)
    assert kern.dim == kernel_dim
    assert (kern.basis, kern.pivots) == _oracle_kernel(columns, ncols)
    assert (kern.basis, kern.pivots) == _kernel_rref_of_all_rows(columns, ncols)
    _assert_born_sparse(kern, _oracle_kernel(columns, ncols)[0])


# the cyclotomic kinds of `_random_family` and their conductors: one
# conductor, mixed conductors in one component, and Fraction coordinates
_CYCLOTOMIC_KINDS = {"zeta3": [3], "zeta4": [4], "zeta5": [5], "zeta8": [8], "zeta12": [12],
                     "zeta3+4": [3, 4], "zeta4+5": [4, 5], "zeta12/frac": [12]}


def _random_cyclotomic(rng, conductors, fractions):
    """0, a small rational or a random element of Q(zeta_m), m drawn from
    `conductors`, with int or (when `fractions`) Fraction coordinates."""
    if rng.random() < 0.3:
        return rng.choice([0, 0, 1, -2, F(1, 2)])
    m = rng.choice(conductors)
    coords = [F(rng.randint(-3, 3), rng.choice([1, 2, 3]) if fractions else 1)
              for _ in range(rng.randint(1, m))]
    return cyclotomic(m, coords)


def _random_family(rng):
    """Sparse columns over a few row keys: int, Fraction, big-int or
    cyclotomic entries, tall, square or wide, some columns combinations of
    others (with cyclotomic coefficients in a cyclotomic family), some rows
    repeated under another key."""
    nkeys, ncols = rng.choice([(9, 4), (6, 6), (4, 7), (12, 5), (5, 2), (8, 8)])
    kind = rng.choice(["int", "fraction", "big", "prime", *_CYCLOTOMIC_KINDS])
    conductors = _CYCLOTOMIC_KINDS.get(kind)

    def draw():
        if conductors:
            return _random_cyclotomic(rng, conductors, kind.endswith("frac"))
        if kind == "int":
            return rng.randint(-3, 3)
        if kind == "fraction":
            return F(rng.randint(-5, 5), rng.randint(1, 6))
        if kind == "big":
            return rng.choice([0, 1, -1]) * rng.getrandbits(90)
        return rng.choice([0, 1, -1, _PRIME, 2 * _PRIME, _PRIME + 1])

    def coefficient():
        if conductors and rng.random() < 0.7:
            return zeta(rng.choice(conductors), rng.randrange(12)) * rng.choice([1, -1, 2])
        return rng.randint(-2, 2)

    columns = []
    for _ in range(ncols):
        if columns and rng.random() < 0.3:
            a, b = rng.sample(range(len(columns)), 2) if len(columns) > 1 else (0, 0)
            ca, cb = coefficient(), coefficient()
            col = {k: ca * columns[a].get(k, 0) + cb * columns[b].get(k, 0)
                   for k in set(columns[a]) | set(columns[b])}
        else:
            col = {k: draw() for k in range(nkeys) if rng.random() < 0.5}
        columns.append({k: c for k, c in col.items() if c})
    for k in range(nkeys):
        if rng.random() < 0.3:  # a repeated row
            for col in columns:
                if k in col:
                    col[nkeys + k] = col[k]
    return columns, ncols


def test_kernel_of_columns_matches_gauss_jordan_on_random_families():
    rng = random.Random(18)
    for _ in range(400):
        columns, ncols = _random_family(rng)
        kern = _kernel_of_columns(columns, ncols)
        basis, pivots = _oracle_kernel(columns, ncols)
        assert kern.basis == basis and kern.pivots == pivots
        _assert_born_sparse(kern, basis)
        if not any(isinstance(c, Cyclotomic) for col in columns for c in col.values()):
            assert all(type(c) is Fraction for v in kern.basis for c in v)
        assert all(type(c) is Fraction or isinstance(c, Cyclotomic) for v in kern.basis for c in v)
        assert (kern.basis, kern.pivots) == _kernel_rref_of_all_rows(columns, ncols)


@pytest.mark.parametrize("shape", ["empty", "wide", "tall"])
def test_kernel_rows_are_born_sparse_on_shaped_families(shape):
    # two components on interleaved columns, one rational and one that may
    # hold zeta_3, so the entry kinds are mixed across components; "empty"
    # leaves some columns without a row, "wide" gives each component fewer
    # rows than columns (no modular pass), "tall" more, with the last column
    # of each a combination of two others
    nkeys, ncols = {"empty": (4, 7), "wide": (2, 8), "tall": (9, 6)}[shape]
    rng = random.Random(ncols)
    draw = [lambda: rng.choice([1, -2, 3, F(1, 3), F(-5, 2)]),
            lambda: rng.choice([1, -1, F(2, 3), zeta(3), -zeta(3, 2)])]
    for _ in range(60):
        columns = [{} if shape == "empty" and rng.random() < 0.3 else
                   {(ci % 2, k): draw[ci % 2]() for k in range(nkeys) if rng.random() < 0.6}
                   for ci in range(ncols)]
        if shape == "tall":
            for last, (a, b), c in [(4, (0, 2), -2), (5, (1, 3), zeta(3))]:
                columns[last] = {k: v for k in columns[a].keys() | columns[b].keys()
                                 if (v := c * columns[a].get(k, 0) + columns[b].get(k, 0))}
        kern = _kernel_of_columns(columns, ncols)
        basis, pivots = _oracle_kernel(columns, ncols)
        assert kern.pivots == pivots and (shape != "tall" or kern.dim >= 2)
        _assert_born_sparse(kern, basis)


def test_from_vectors_and_span_closure_are_born_sparse():
    rng = random.Random(6)
    for _ in range(80):
        n = rng.randint(1, 7)
        vectors = [[rng.choice([0, 0, 1, -2, F(3, 4), zeta(4), 1 + zeta(4)]) for _ in range(n)]
                   for _ in range(rng.randint(0, 4))]
        space = Subspace.from_vectors(n, vectors)
        red, pivots = _gauss_jordan(vectors, n)
        assert space.pivots == pivots
        _assert_born_sparse(space, red)
        # the span closed under the cyclic shift of the coordinates
        shifts = [v[-k:] + v[:-k] for v in vectors for k in range(n)]
        closure = span_closure(n, _sparse(vectors), [lambda r: {(j + 1) % n: c for j, c in r.items()}])
        red, pivots = _gauss_jordan(shifts, n)
        assert closure.pivots == pivots
        _assert_born_sparse(closure, red)
    _assert_born_sparse(Subspace.zero(3), ())
    _assert_born_sparse(Subspace.full(3), _gauss_jordan([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)[0])


def _entries_by_dense_scan(res, vec):
    """`CoefficientKernel.entries` as it read a dense vector, testing every
    coordinate: the oracle of the sparse form."""
    axes = res._axes()[::-1]
    out = []
    for t, c in enumerate(vec):
        if c:
            key = []
            for axis in axes:
                t, r = divmod(t, len(axis))
                key.append(axis[r])
            out.append((tuple(reversed(key)), c))
    return out


_XY = (["x", "y"], {"x": Poly.const(2, 1), "y": Poly.const(2, 1)})
_XY_ZETA = (["x", "y"], {"x": Poly.const(2, zeta(3)), "y": Poly.variable(2, 0).scale(zeta(3))})


@pytest.mark.parametrize("kernel", [
    lambda: pi2_kernel(CommDiffVA(*_XY, 2), order=3),
    lambda: pin_injectivity_check(CommDiffVA(*_XY, 1), 3, order=2),
    lambda: z2_kernel(CommDiffVA(*_XY, 2), order=3, laurent_bound=1),
    lambda: pi2_kernel(CommDiffVA(*_XY_ZETA, 2), order=3),
    lambda: z2_kernel(CommDiffVA(*_XY_ZETA, 1), order=2, laurent_bound=1),
], ids=["pi2-xy", "pin3-xy", "z2-xy", "pi2-zeta", "z2-zeta"])
def test_entries_of_the_sparse_rows_match_the_dense_scan(kernel):
    res = kernel()
    assert not res.kernel.is_zero()
    for row, vec in zip(res.kernel.nonzero_rows(), res.kernel.basis, strict=True):
        assert res.entries(row) == _entries_by_dense_scan(res, vec)


@pytest.mark.parametrize("kernel", [
    *[lambda m=m: lambda: pi2_kernel(single_variable_backend(m, 6)) for m in range(4)],
    lambda: lambda: z2_kernel(CommDiffVA(["x"], {"x": Poly.monomial((1,))}, 3),
                              order=16, laurent_bound=1),
    *[lambda n=n, f=f: (lambda act: lambda: f(act))(cyclic_scaling_action(n))
      for n in (3, 4) for f in (annihilator, invariants)],
], ids=["pi2-x0", "pi2-x1", "pi2-x2", "pi2-x3", "z2-euler",
        "annihilator-z3", "invariants-z3", "annihilator-z4", "invariants-z4"])
def test_certified_components_skip_exact_reduction(monkeypatch, kernel):
    # a component whose kernel is zero is closed by its n rows independent
    # mod p; exact reduction only runs on fewer rows than columns
    run = kernel()  # builds what the kernel is computed on, unpatched
    closed, reductions = [], []
    select, reduce = linalg._independent_mod_p, linalg._rref_rows

    def counted_select(rows, ncols, *prime):
        chosen = select(rows, ncols, *prime)
        closed.append(len(chosen) == ncols)
        return chosen

    def counted_reduce(rows, ncols, stop_at_full_rank=False):
        red, pivots = reduce(rows, ncols, stop_at_full_rank)
        reductions.append((len(rows), ncols, len(pivots)))
        return red, pivots

    monkeypatch.setattr(linalg, "_independent_mod_p", counted_select)
    monkeypatch.setattr(linalg, "_rref_rows", counted_reduce)
    run()
    assert any(closed)
    assert all(rows < ncols and rank < ncols for rows, ncols, rank in reductions)


# --- the prime of the cyclotomic modular pass -----------------------------------


def _primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytearray(len(sieve[q * q::q]))
    return [q for q in range(n + 1) if sieve[q]]


_SMALL_PRIMES = _primes_upto(2 ** 15)  # enough to trial-divide below 2^30


def _prime_by_trial_division(n):
    return n > 1 and all(n % q for q in _SMALL_PRIMES if q * q <= n)


def test_miller_rabin_matches_trial_division():
    assert [n for n in range(5000) if _is_prime(n)] == [q for q in _SMALL_PRIMES if q < 5000]
    rng = random.Random(30)
    for n in [rng.randrange(2 ** 30) for _ in range(300)] + [_PRIME, _PRIME + 2]:
        assert _is_prime(n) == _prime_by_trial_division(n)
    # Carmichael numbers, and strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5
    for n in (561, 1105, 1729, 2047, 1373653, 25326001):
        assert not _is_prime(n)
    # the least strong pseudoprime to all four bases lies above 2^30
    assert _is_prime(3215031751) and 3215031751 == 151 * 751 * 28351 > 2 ** 30


def test_split_prime_is_the_largest_prime_below_2_30_that_splits_phi_n():
    assert _split_prime(1) == (_PRIME, 1)
    for n in range(1, 61):
        p, omega = _split_prime(n)
        assert p < 2 ** 30 and (p - 1) % n == 0 and _prime_by_trial_division(p)
        assert not any(_prime_by_trial_division(q) for q in range(p + n, 2 ** 30, n))
        # omega has order exactly n, so it is a root of Phi_n mod p
        assert pow(omega, n, p) == 1
        assert all(pow(omega, n // q, p) != 1 for q in _SMALL_PRIMES if n % q == 0)
        assert sum(c * pow(omega, k, p) for k, c in enumerate(cyclotomic_polynomial(n))) % p == 0
    assert _split_prime(2 ** 30) is None  # no prime below 2^30 is 1 mod 2^30


def test_a_non_primitive_root_is_caught_by_the_oracles(monkeypatch):
    # the mutation zeta_N -> omega^q, q the least prime factor of N: omega^q
    # has order N/q, so it is no root of Phi_N mod p and the map to F_p is no
    # ring map; residues of a dependent cyclotomic component can then be
    # independent, and the certified zero kernel is wrong
    split = linalg._split_prime

    def non_primitive(n):
        p, omega = split(n)
        return p, pow(omega, min(q for q in _SMALL_PRIMES if n % q == 0), p)

    monkeypatch.setattr(linalg, "_split_prime", non_primitive)
    rng = random.Random(18)
    for _ in range(400):
        columns, ncols = _random_family(rng)
        kern = _kernel_of_columns(columns, ncols)
        if (kern.basis, kern.pivots) != _oracle_kernel(columns, ncols):
            break
    else:
        pytest.fail("no random family exposed a non-primitive root")


def test_rref_rows_takes_ints_fractions_and_mixed_rows_alike():
    rng = random.Random(8)
    for _ in range(20):
        ints = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
        scaled = [[F(c, k + 2) for c in row] for k, row in enumerate(ints)]
        mixed = [row if k % 2 else scaled[k] for k, row in enumerate(ints)]
        expected = _rref_rows(_sparse(ints), 5)
        assert _rref_rows(_sparse(scaled), 5) == expected
        assert _rref_rows(_sparse(mixed), 5) == expected
        red, pivots = expected
        for p, row in zip(pivots, red):
            # primitive integer rows with a positive pivot entry
            assert all(type(c) is int for c in row.values()) and row[p] > 0
            assert math.gcd(*row.values()) == 1
        for p, row in zip(pivots, _dense(_leading_ones(red, pivots), 5)):
            assert all(type(c) is Fraction for c in row) and row[p] == 1
        assert Matrix.from_rows(ints).rref()[0] == Matrix.from_rows(
            _dense(_leading_ones(red, pivots), 5) or [[F(0)] * 5])


def test_rref_rows_field_path_accepts_int_entries():
    z = zeta(3)
    red, pivots = _rref_rows(_sparse([[2, z, 0], [1, 1, 3]]), 3)
    assert pivots == (0, 1)
    assert all(not isinstance(c, int) for row in red for c in row.values())
    back = Matrix.from_rows([[F(2), z, F(0)], [F(1), F(1), F(3)]])
    assert back.kernel().dim == 1
    for v in back.kernel().basis:
        assert all(c == 0 for c in back.apply(list(v)))


def test_rref_rows_matches_gauss_jordan_when_a_cyclotomic_arrives_midway():
    # ints and Fractions on columns 0-3 and 4-6; from the middle row on, a
    # zeta_3 entry may appear on columns 4-6 and a rare row joins the blocks
    rng = random.Random(21)
    z = zeta(3)
    draw = [lambda: rng.randint(-3, 3), lambda: F(rng.randint(-4, 4), rng.randint(1, 5))]
    for _ in range(200):
        nrows, ncols = rng.randint(1, 9), 7
        rows = []
        for k in range(nrows):
            block = range(4) if rng.random() < 0.5 else range(4, 7)
            if rng.random() < 0.15:
                block = range(7)
            row = [0] * ncols
            for j in block:
                if rng.random() < 0.7:
                    row[j] = rng.choice(draw)()
            if k >= nrows // 2 and block != range(4) and rng.random() < 0.5:
                row[rng.choice([j for j in block if j >= 4])] = rng.choice([z, -z, z * z + 2])
            rows.append(row)
        red, pivots = _rref_rows(_sparse(rows), ncols)
        assert (_dense(_leading_ones(red, pivots), ncols), pivots) == _gauss_jordan(rows, ncols)
        for p, row in zip(pivots, red):
            if any(isinstance(c, Cyclotomic) for c in row.values()):
                assert row[p] == 1 and not any(type(c) is int for c in row.values())
            else:
                # a row no cyclotomic entry reached stays a primitive integer row
                assert all(type(c) is int for c in row.values()) and row[p] > 0
                assert math.gcd(*row.values()) == 1


def _naive_closure(ambient, seeds, maps):
    """The span of `seeds` closed under `maps`, rebuilt from every vector
    with `Subspace.from_vectors` until its dimension stops growing."""
    dense = [[row.get(j, 0) for j in range(ambient)] for row in seeds]
    current = Subspace.from_vectors(ambient, dense)
    while True:
        images = [f(row) for f in maps for row in _sparse(current.basis)]
        bigger = Subspace.from_vectors(
            ambient, list(current.basis) + [[v.get(j, 0) for j in range(ambient)] for v in images])
        if bigger.dim == current.dim:
            return current
        current = bigger


def _sparse_map(columns):
    """The linear map whose column j is the sparse row `columns[j]`."""
    def apply(v):
        out = {}
        for j, a in v.items():
            for i, c in columns[j].items():
                out[i] = out.get(i, 0) + a * c
        return {i: c for i, c in out.items() if c}
    return apply


@pytest.mark.parametrize("kind", ["int", "fraction", "cyclotomic"])
def test_span_closure_matches_the_naive_closure(kind):
    rng = random.Random(f"closure-{kind}")
    z = zeta(4)
    pool = {"int": [0, 0, 1, -1, 2], "fraction": [0, 0, 1, F(-1, 2), F(2, 3)],
            "cyclotomic": [0, 0, 1, -1, z, F(1, 2) * z - 1]}[kind]
    for _ in range(40):
        n = rng.randint(1, 8)
        maps = [_sparse_map([{i: c for i in range(n) if (c := rng.choice(pool)) and
                              rng.random() < 0.3} for _ in range(n)])
                for _ in range(rng.randint(0, 3))]
        seeds = [{j: c for j in range(n) if (c := rng.choice(pool))}
                 for _ in range(rng.randint(0, 2))]
        closed = span_closure(n, seeds, maps)
        expected = _naive_closure(n, seeds, maps)
        assert closed == expected and closed.pivots == expected.pivots
        assert all(type(c) is Fraction or isinstance(c, Cyclotomic)
                   for v in closed.basis for c in v)


def test_from_columns_and_linear_combination():
    m = Matrix.from_columns([[1, 2], [3, 4], [5, 6]])
    assert m == Matrix.from_rows([[1, 3, 5], [2, 4, 6]])
    assert Matrix.from_columns([]) == Matrix(0, 0, [])
    combo = linear_combination([2, 0, -1], [[1, 2], [7, 7], [0, 3]])
    assert combo == [2, 1]
    assert all(type(c) is int for c in combo)  # int rows stay ints
    assert linear_combination([F(1, 2), 3], [[F(2), F(0)], [F(0), F(1)]]) == [F(1), F(3)]


# --- the sparse products, sums and matrix-vector products against naive loops --


def _sparse_pool(kind):
    rationals = [F(1), F(-1), F(2), F(1, 2), F(-3, 4), F(5, 3)]
    if kind == "fraction":
        return rationals
    z3, z4 = zeta(3), zeta(4)
    return rationals[:3] + [z3, -z3, F(1, 2) + z3, z4, z3 * z4]


def _random_sparse(rng, rows, cols, pool):
    """A rows x cols list of lists, mostly zero, with one all-zero row and
    one all-zero column whenever it has more than one of either."""
    out = [[rng.choice(pool) if rng.random() < 0.35 else F(0) for _ in range(cols)]
           for _ in range(rows)]
    if rows > 1:
        out[rng.randrange(rows)] = [F(0)] * cols
    if cols > 1:
        j = rng.randrange(cols)
        for row in out:
            row[j] = F(0)
    return out


def _naive_mul(a, b, inner, cols):
    return [[sum((r[k] * b[k][j] for k in range(inner)), F(0)) for j in range(cols)]
            for r in a]


def _as_matrix(rows, cols):
    return Matrix(len(rows), cols, [c for r in rows for c in r])


@pytest.mark.parametrize("kind", ["fraction", "cyclotomic"])
def test_sparse_matrix_ops_match_naive_loops(kind):
    rng = random.Random(2718 if kind == "fraction" else 3141)
    pool = _sparse_pool(kind)
    for _ in range(60):
        r, k, c = (rng.randint(0, 5) for _ in range(3))
        a_rows = _random_sparse(rng, r, k, pool)
        b_rows = _random_sparse(rng, k, c, pool)
        a, b = _as_matrix(a_rows, k), _as_matrix(b_rows, c)
        assert (a * b).row_lists() == _naive_mul(a_rows, b_rows, k, c)
        assert a.nonzero_rows() == [[(j, x) for j, x in enumerate(row) if x != 0]
                                    for row in a_rows]
        assert a.is_zero() == all(x == 0 for row in a_rows for x in row)

        vec = [rng.choice(pool) if rng.random() < 0.5 else F(0) for _ in range(k)]
        for v in (vec, [F(0)] * k):
            assert a.apply(v) == [sum((row[j] * v[j] for j in range(k)), F(0))
                                  for row in a_rows]

        s = rng.choice(pool + [F(0)])
        assert a.scale(s).row_lists() == [[s * x for x in row] for row in a_rows]
        assert (-a).row_lists() == [[-x for x in row] for row in a_rows]

        other_rows = _random_sparse(rng, r, k, pool)
        other = _as_matrix(other_rows, k)
        assert (a + other).row_lists() == [[x + y for x, y in zip(p, q)]
                                           for p, q in zip(a_rows, other_rows)]
        assert (a - other).row_lists() == [[x - y for x, y in zip(p, q)]
                                           for p, q in zip(a_rows, other_rows)]
        assert (a - a).is_zero()


def test_kron_matches_entrywise_products():
    rng = random.Random(577)
    pool = _sparse_pool("cyclotomic")
    for _ in range(20):
        ra, ca, rb, cb = (rng.randint(1, 3) for _ in range(4))
        a_rows = _random_sparse(rng, ra, ca, pool)
        b_rows = _random_sparse(rng, rb, cb, pool)
        got = _as_matrix(a_rows, ca).kron(_as_matrix(b_rows, cb))
        assert got.row_lists() == [[a_rows[i][j] * b_rows[k][l]
                                    for j in range(ca) for l in range(cb)]
                                   for i in range(ra) for k in range(rb)]


def test_matrix_shape_mismatch_raises_invariant_violation():
    a = Matrix.identity(2)
    for bad in (lambda: a * Matrix.identity(3), lambda: a + Matrix.identity(3),
                lambda: a - Matrix.identity(3), lambda: a.apply([F(1)]),
                lambda: Matrix(2, 2, [F(1)])):
        with pytest.raises(InvariantViolation):
            bad()

"""Group tables certified on generators, and builders that write their rows.

`_validate_group_table` tests associativity by Light's test on the greedy
generators of the table.  Its oracle is the ordered scan of every triple
(`cubic_validate`, kept here): on every table the two must return the same
(rows, identity) or raise the same InvalidGroupTable message.

`group_algebra`, `dual_hopf` and `quotient_hopf` write canonical rows
straight into `FinHopfAlgebra.from_rows`.  Each must give the rows, values
and value types that the entries constructor gives on the same structure
constants, and the generating set `group_algebra` hands over must be the one
`_certified_generators` finds on the entries-built copy.
"""

import random

import pytest

from hopfva import hopf
from hopfva.errors import InvalidGroupTable, ShapeMismatch
from hopfva.hopf import (
    FinHopfAlgebra,
    augmentation_ideal,
    cyclic_group_table,
    dual_hopf,
    generating_set,
    group_algebra,
    is_hopf_ideal,
    product_group_table,
    quotient_hopf,
    relabel_identity_first,
    sweedler,
    symmetric_group_table,
)
from hopfva.linalg import Subspace
from test_group_likes import GROUPS, _invertible, _rebased


def cubic_validate(table):
    """The group-table check with associativity scanned over every triple."""
    n = len(table)
    rows = [list(r) for r in table]
    for r in rows:
        if len(r) != n or any(not (0 <= x < n) for x in r):
            raise InvalidGroupTable("table is not n x n over 0..n-1")
    identity = None
    for e in range(n):
        if all(rows[e][j] == j and rows[j][e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise InvalidGroupTable("no identity element")
    for i, ri in enumerate(rows):
        for j in range(n):
            for k in range(n):
                if rows[ri[j]][k] != ri[rows[j][k]]:
                    raise InvalidGroupTable(f"not associative at ({i},{j},{k})")
    for i in range(n):
        if sorted(rows[i]) != list(range(n)) or \
                sorted(rows[j][i] for j in range(n)) != list(range(n)):
            raise InvalidGroupTable("rows/columns are not permutations")
        if identity not in rows[i]:
            raise InvalidGroupTable(f"element {i} has no inverse")
    return rows, identity


def _outcome(validate, table):
    try:
        return validate(table)
    except InvalidGroupTable as exc:
        return str(exc)


def assert_as_cubic(table):
    """The outcome of both checks on `table`, asserted equal."""
    expected = _outcome(cubic_validate, table)
    assert _outcome(hopf._validate_group_table, table) == expected
    return expected


def relabelled(table, rng):
    """`table` with its elements renamed by a seeded random permutation."""
    n = len(table)
    p = list(range(n))
    rng.shuffle(p)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[p[i]][p[j]] = p[table[i][j]]
    return out


def random_loop(n, rng):
    """A seeded random Latin square on 0..n-1 with identity 0 (a loop)."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(c):
        if c == len(cells):
            return True
        i, j = cells[c]
        options = [x for x in range(n) if x not in rows[i] and all(r[j] != x for r in rows)]
        rng.shuffle(options)
        for x in options:
            rows[i][j] = x
            if fill(c + 1):
                return True
        rows[i][j] = None
        return False

    assert fill(0)
    return rows


# every element its own inverse: a loop of order 5, so no group
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


# --- Light's test against the scan of every triple ------------------------------


@pytest.mark.parametrize("n", [5, 6])
def test_loops_are_named_as_the_cubic_scan_names_them(n):
    rng = random.Random(n)
    verdicts = [assert_as_cubic(relabelled(random_loop(n, rng), rng)) for _ in range(30)]
    failed = [v for v in verdicts if isinstance(v, str)]
    assert failed and all(v.startswith("not associative at (") for v in failed)


def test_a_nucleus_that_does_not_generate_does_not_certify():
    # Z2 x LOOP5: the right nucleus {a : (x y) a = x (y a) for all x, y} is
    # Z2 x {e}, a submagma that holds the identity but generates only itself
    table = product_group_table(cyclic_group_table(2), LOOP5)
    n = len(table)
    nucleus = [a for a in range(n) if all(table[table[x][y]][a] == table[x][table[y][a]]
                                          for x in range(n) for y in range(n))]
    assert nucleus == [0, 5]
    assert hopf._light_associative(table, [5])
    gens = hopf._table_generators(table, 0)
    assert not set(gens) <= set(nucleus)
    assert not hopf._light_associative(table, gens)
    assert assert_as_cubic(table) == "not associative at (1,1,2)"
    rng = random.Random(7)
    for _ in range(5):
        assert assert_as_cubic(relabelled(table, rng)).startswith("not associative at (")


TABLES = {
    "s4": symmetric_group_table(4),
    "a4": GROUPS["a4"][0],
    "d4": GROUPS["d4"][0],
    "q8": GROUPS["q8"][0],
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", TABLES)
def test_relabelled_groups_are_accepted(name, seed):
    table = relabelled(TABLES[name], random.Random(seed))
    rows, identity = assert_as_cubic(table)
    assert rows == table and table[identity] == list(range(len(table)))


@pytest.mark.parametrize("n", range(1, 7))
def test_random_magmas_with_an_identity_are_named_as_the_cubic_scan_names_them(n):
    rng = random.Random(100 + n)
    for _ in range(60):
        table = [list(range(n))] + [[i] + [rng.randrange(n) for _ in range(n - 1)]
                                    for i in range(1, n)]
        assert_as_cubic(relabelled(table, rng))


@pytest.mark.parametrize("table", [
    [], [[0]], [[0, 1], [1]], [[0, 2], [1, 0]], [[1, 0], [0, 1]], [[0, 1], [1, 1]],
    [[0, 1, 2], [1, 2, 0], [2, 1, 0]], [[0, 1, 2], [1, 0, 0], [2, 0, 0]],
])
def test_small_tables_are_named_as_the_cubic_scan_names_them(table):
    assert_as_cubic(table)


# --- builders that write rows, against the entries constructor -----------------


def entries_group_algebra(table):
    """Q[G] through the entries constructor, named as `group_algebra` names it."""
    order, tab = relabel_identity_first(table)
    n = len(tab)
    return FinHopfAlgebra(
        n, ["e"] + [f"g{i}" for i in range(1, n)],
        ((i, j, k, 1) for i, row in enumerate(tab) for j, k in enumerate(row)),
        [1] + [0] * (n - 1), ((k, k, k, 1) for k in range(n)), [1] * n,
        ((row.index(0), j, 1) for j, row in enumerate(tab)), group_table=tab)


def entries_dual(h):
    return FinHopfAlgebra(
        h.dim, tuple(f"{n}*" for n in h.names),
        ((i, j, k, c) for k, i, j, c in h.comul_entries()), h.counit,
        ((k, i, j, c) for i, j, k, c in h.mul_entries()), h.unit,
        ((j, i, c) for j, pairs in enumerate(h.antipode_nonzero) for i, c in pairs))


def entries_quotient(h, ideal):
    assert is_hopf_ideal(h, ideal)[0]
    pi = hopf.QuotientMap(ideal)
    complement = pi.complement
    dq = len(complement)
    return FinHopfAlgebra(
        dq, tuple(h.names[j] for j in complement),
        ((a, b, k, v) for a, row in enumerate(pi.products(h.mul_nonzero))
         for b, pairs in enumerate(row) for k, v in pairs),
        pi.project(h.unit),
        ((k, *divmod(t, dq), v) for k, c in enumerate(complement)
         for t, v in pi.of_tensor(h.comul_nonzero[c]).items()),
        [h.counit[c] for c in complement],
        ((k, a, v) for a, c in enumerate(complement)
         for k, v in pi.of(h.antipode_nonzero[c]).items()))


def structure(h):
    """Everything a FinHopfAlgebra holds, each value with its type."""
    def typed(rows):
        return [[(k, c, type(c)) for k, c in pairs] for pairs in rows]

    return (h.dim, h.names, [(c, type(c)) for c in h.unit + h.counit], h.group_table,
            [typed(row) for row in h.mul_nonzero], typed(h.comul_nonzero),
            typed(h.antipode_nonzero))


def normal_closure_ideal(h, x):
    """The kernel of Q[G] -> Q[G/N], N the normal closure of element x, as
    the span of the g - g n."""
    t, n = h.group_table, h.dim
    inverse = [row.index(0) for row in t]
    sub = {0} | {t[t[g][x]][inverse[g]] for g in range(n)}
    while (more := {t[a][b] for a in sub for b in sub} - sub):
        sub |= more
    return Subspace.from_vectors(n, [[int(k == g) - int(k == t[g][m]) for k in range(n)]
                                     for g in range(n) for m in sorted(sub)])


def vanishing_ideal(h, x):
    """The functions of Q[G]* that vanish on the cyclic subgroup of x, the
    kernel of the restriction to it."""
    t, n = h.group_table, h.dim
    sub, y = {0}, x
    while y not in sub:
        sub.add(y)
        y = t[y][x]
    return Subspace.from_vectors(n, [[int(k == g) for k in range(n)]
                                     for g in range(n) if g not in sub])


CORPUS = {
    "trivial": [[0]],
    "z2": cyclic_group_table(2),
    "z3": cyclic_group_table(3),
    "z4": cyclic_group_table(4),
    "klein": product_group_table(cyclic_group_table(2), cyclic_group_table(2)),
    "z2z4": product_group_table(cyclic_group_table(2), cyclic_group_table(4)),
    "s3": symmetric_group_table(3),
    "s3-relabelled": relabelled(symmetric_group_table(3), random.Random(3)),
    **{name: table for name, (table, _) in GROUPS.items() if name != "s3"},
    "s4": symmetric_group_table(4),
}


@pytest.mark.parametrize("name", CORPUS)
def test_group_algebra_rows_are_the_entries_constructors(name):
    table = CORPUS[name]
    h, reference = group_algebra(table), entries_group_algebra(table)
    assert structure(h) == structure(reference)
    handed = h._generators
    assert handed is not None   # set by the builder, not found on first use
    assert handed == (hopf._certified_generators(reference) or tuple(range(h.dim)))
    assert generating_set(h) == generating_set(reference) == handed
    assert structure(dual_hopf(h)) == structure(entries_dual(reference))
    assert structure(dual_hopf(dual_hopf(h))) == structure(entries_dual(entries_dual(reference)))
    ideals = [augmentation_ideal(h), Subspace.zero(h.dim)]
    if h.dim > 1:
        ideals.append(normal_closure_ideal(h, 1))
    for ideal in ideals:
        assert structure(quotient_hopf(h, ideal).hopf) == \
            structure(entries_quotient(reference, ideal))
    dual = dual_hopf(h)
    for x in range(1, h.dim):
        ideal = vanishing_ideal(h, x)
        assert structure(quotient_hopf(dual, ideal).hopf) == \
            structure(entries_quotient(dual, ideal))


@pytest.mark.parametrize("seed", range(3))
def test_dual_and_quotient_rows_carry_fractions_and_signs(seed):
    h = _rebased(sweedler(), _invertible(4, random.Random(seed)))
    for built in (h, sweedler()):
        assert structure(dual_hopf(built)) == structure(entries_dual(built))
    radical = Subspace.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert structure(quotient_hopf(sweedler(), radical).hopf) == \
        structure(entries_quotient(sweedler(), radical))


def test_row_counts_are_checked():
    h = group_algebra(cyclic_group_table(2))
    rows = (h.mul_nonzero, h.comul_nonzero, h.antipode_nonzero)
    with pytest.raises(ShapeMismatch, match="1 coproduct rows for dimension 2"):
        FinHopfAlgebra.from_rows(2, h.names, rows[0], h.unit, rows[1][:1], h.counit, rows[2])
    with pytest.raises(ShapeMismatch, match="1 products in a row for dimension 2"):
        FinHopfAlgebra.from_rows(2, h.names, [rows[0][0], rows[0][1][:1]], h.unit, rows[1],
                                 h.counit, rows[2])

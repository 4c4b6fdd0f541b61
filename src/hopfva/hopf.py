"""Finite-dimensional Hopf algebras presented by sparse structure constants.

A FinHopfAlgebra holds the five structure maps over its basis b_0..b_{d-1}
as their nonzero entries only: `mul_nonzero[i][j]` lists the (k, c) with
b_i b_j = sum c b_k, `comul_nonzero[k]` the (i d + j, c) with
Delta(b_k) = sum c b_i (x) b_j over the lexicographic pair basis and
`antipode_nonzero[j]` the (i, c) with S(b_j) = sum c b_i, each ascending by
index, integral values as ints.  The unit and counit are coordinate
vectors.  Products, coproducts, antipodes and the axiom loops run over the
nonzero lists, so a group algebra costs what its structure constants hold:
d^2 products and d coproducts, not d^3.

The container checks shapes, not axioms.  `verify_hopf_axioms` checks the
axioms where structure constants come from outside: the CLI runs it once
on each `tensors` entry it loads.  The builders here are Hopf by
construction and are not checked again: `group_algebra` (its group table
is validated, associativity by Light's test on the table's generators),
`sweedler` (a constant), `dual_hopf` (each Hopf axiom of H, transposed, is
one of H*) and `quotient_hopf` (H/I is Hopf once `is_hopf_ideal` has
passed).  `sweedler` and `tensors` entries go through the entries
constructor; `group_algebra`, `dual_hopf` and `quotient_hopf` write their
canonical rows directly (`FinHopfAlgebra.from_rows`), the first two with the
conductor of their products, and `group_algebra` with its table's generators.

Every test modulo an ideal I, held as its RREF Subspace, reads one
`QuotientMap` pi: H -> H/I, each b_j sent to its coset over the basis
elements off I's pivots: x is in I iff pi(x) = 0, and Delta(x) is in
H(x)I + I(x)H iff (pi (x) pi)(Delta(x)) = 0, as ker(pi (x) pi) is that
span (Montgomery, CBMS 82, ch. 1), so nothing is built over H (x) H.
`quotient_hopf` and `group_likes` read H/I through the same map.

Group-likes are computed for every H, as the characters of H*: G(H) =
Alg(H*, F) = Alg(H*/I, F) for I the two-sided ideal of H* generated by its
commutators.  The commutative algebra H*/I splits into primitive
idempotents, and each 1-dimensional block gives one group-like.  When H is
cocommutative, I = 0 and H* itself splits, with no quotient map (for a
group algebra its basis is already its primitive idempotents).  Otherwise I
grows in one sparse echelon form (`span_closure`) from the commutators
[b_s, b_j], s in the `generating_set` S of H* (every index when none is
certified), under the products with b_s on the left only.  The closure J is
I by three closure arguments in the associative H*.  {x : x J in J}
contains 1 and S and is closed under products, so J is the left ideal
generated by the [s, y].  It is two-sided: [s, y] z = [s, y z] - y [s, z]
lies in J for every z.  Then {x : [x, y] in J for all y} contains 1 and S
and is closed under products, as [x y, z] = x [y, z] + [x, z] y, so every
element is central modulo J and J holds every commutator.

A rule that holds on a set of elements containing 1 and closed under
products holds on all of H once it holds on generators.  `generating_set`
finds basis elements b_s whose right-nested products reach the whole basis
and certifies on them that H is associative and that Delta and eps are
algebra maps; `verify_hopf_axioms` then skips the d^3 associativity and the
d^2 algebra-map scans, and `ideal_escapes` (like the algebra-map and module
checks of `action`) scans the b_s first through `on_generators`, falling
back to the ordered scan of every basis element on any failure, so every
witness is the one the full scan names.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import (
    CheckReport,
    InvalidGroupTable,
    NotGroupAlgebra,
    NotHopfIdeal,
    ShapeMismatch,
    TruncationOverflow,
    require,
)
from .linalg import (
    Subspace,
    _kernel_of_columns,
    _sum,
    nonzero_pairs,
    span_closure,
    split_commutative_algebra,
)
from .scalars import (
    Cyclotomic,
    as_scalar,
    common_conductor,
    demoted,
    scalar_pretty,
    scalar_sort_key,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FinHopfAlgebra:
    """A Hopf algebra of dimension d over Q or a cyclotomic field.

    `mul` lists entries (i, j, k, c) of b_i b_j = sum c b_k, `comul`
    entries (k, i, j, c) of Delta(b_k) = sum c b_i (x) b_j and `antipode`
    entries (i, j, c) of S(b_j) = sum c b_i (row i, column j of S); every
    other structure constant is 0, and a repeated index sets its entry again.
    Indices and lengths are checked (ShapeMismatch); the Hopf axioms are
    not, see `verify_hopf_axioms`.  The entries are normalised into the
    rows that `from_rows` takes, and the algebra is assembled from them,
    with `mul_conductor`, the lcm of the conductors of its products.
    """

    __slots__ = ("dim", "names", "unit", "counit", "group_table", "mul_nonzero",
                 "comul_nonzero", "antipode_nonzero", "mul_conductor", "_generators")

    def __init__(self, dim, names, mul, unit, comul, counit, antipode, group_table=None):
        d = dim
        products = _nonzero_rows(mul, d, d * d, lambda i, j, k: (i * d + j, k), "mul")
        self._assemble(
            d, names, [products[i * d:(i + 1) * d] for i in range(d)], unit,
            _nonzero_rows(comul, d, d, lambda k, i, j: (k, i * d + j), "comul"), counit,
            _nonzero_rows(antipode, d, d, lambda i, j: (j, i), "antipode"), group_table)

    @classmethod
    def from_rows(cls, dim, names, products, unit, coproducts, counit, antipodes,
                  group_table=None, generators=None, mul_conductor=None):
        """The algebra with `mul_nonzero` `products`, `comul_nonzero`
        `coproducts` and `antipode_nonzero` `antipodes`, rows that are
        already canonical: ascending (index, value) pairs of nonzero values,
        integral rationals as ints.  Only the row counts are checked.

        A builder that knows a certified generating set hands it over as
        `generators`; `generating_set` then returns it unchecked.  One that
        knows `mul_conductor` hands it over too, instead of a scan.
        """
        h = cls.__new__(cls)
        h._assemble(dim, names, products, unit, coproducts, counit, antipodes, group_table,
                    generators, mul_conductor)
        return h

    def _assemble(self, d, names, products, unit, coproducts, counit, antipodes, group_table,
                  generators=None, mul_conductor=None):
        self.dim = d
        self.names = tuple(names)
        self.unit = tuple(as_scalar(c) for c in unit)
        self.counit = tuple(as_scalar(c) for c in counit)
        counts = [("basis names", len(self.names)), ("unit entries", len(self.unit)),
                  ("counit entries", len(self.counit)), ("product rows", len(products)),
                  ("coproduct rows", len(coproducts)), ("antipode rows", len(antipodes))]
        counts += (("products in a row", len(row)) for row in products)
        for what, n in counts:
            if n != d:
                raise ShapeMismatch(f"{n} {what} for dimension {d}")
        self.mul_nonzero = tuple(tuple(row) for row in products)
        self.comul_nonzero = tuple(coproducts)
        self.antipode_nonzero = tuple(antipodes)
        self.group_table = tuple(tuple(r) for r in group_table) if group_table is not None else None
        self.mul_conductor = mul_conductor or common_conductor(
            c for row in self.mul_nonzero for pairs in row for _, c in pairs)
        self._generators = generators   # `generating_set`; None until first use

    # -- the structure constants as entries, in the form the constructor takes

    def mul_entries(self):
        """(i, j, k, c) for each nonzero c in b_i b_j = sum c b_k."""
        for i, row in enumerate(self.mul_nonzero):
            for j, pairs in enumerate(row):
                for k, c in pairs:
                    yield i, j, k, c

    def comul_entries(self):
        """(k, i, j, c) for each nonzero c in Delta(b_k) = sum c b_i (x) b_j."""
        d = self.dim
        for k, pairs in enumerate(self.comul_nonzero):
            for t, c in pairs:
                yield (k, *divmod(t, d), c)

    # -- coordinate helpers

    def basis_vector(self, i):
        return _basis_vector(self.dim, i)

    def multiply(self, u, v):
        return _product(self.mul_nonzero, u, v)

    def comul_of(self, vec):
        out = [_ZERO] * (self.dim * self.dim)
        for t, v in self.comul_terms(vec):
            out[t] += v
        return out

    def comul_terms(self, vec):
        """The (i d + j, value) terms of Delta(vec), one per nonzero
        coordinate of vec and entry of its coproduct, not summed."""
        comul = self.comul_nonzero
        return [(t, a * c) for k, a in nonzero_pairs(vec) for t, c in comul[k]]

    def counit_of(self, vec):
        return sum((a * e for a, e in zip(vec, self.counit) if a != 0 and e != 0), _ZERO)

    def antipode_terms(self, vec):
        """The (i, value) terms of S(vec), one per nonzero coordinate of vec
        and entry of its antipode, not summed."""
        antipode = self.antipode_nonzero
        return [(i, a * c) for j, a in nonzero_pairs(vec) for i, c in antipode[j]]

    def antipode_of(self, vec):
        return _dense(_sum(self.antipode_terms(vec)).items(), self.dim)

    def element_text(self, vec):
        return " + ".join(f"{scalar_pretty(c)}*{name}"
                          for c, name in zip(vec, self.names) if c != 0) or "0"

    def __repr__(self):
        return f"FinHopfAlgebra(dim {self.dim}, basis {list(self.names)})"


def _nonzero_rows(entries, d, nrows, place, what):
    """Per row, the ascending (column, value) pairs of the nonzero values of
    `entries`, each a tuple of indices in 0..d-1 and a value that `place`
    sends, from the indices, to (row, column)."""
    rows = [{} for _ in range(nrows)]
    for entry in entries:
        *index, c = entry
        if any(not 0 <= x < d for x in index):
            raise ShapeMismatch(f"{what} entry {tuple(entry)} has an index outside 0..{d - 1}")
        r, col = place(*index)
        rows[r][col] = as_scalar(c)
    return [_pairs(row) for row in rows]


def _pairs(row):
    """The ascending (index, value) pairs of a dict's nonzero values, integral
    rationals as ints (which multiply far faster than Fractions)."""
    return [(k, demoted(c)) for k, c in sorted(row.items()) if c]


def _basis_vector(d, i):
    return [_ONE if j == i else _ZERO for j in range(d)]


def _dense(pairs, d):
    out = [_ZERO] * d
    for k, c in pairs:
        out[k] = as_scalar(c)
    return out


def _product(nonzero, u, v):
    """u v, for b_i b_j given by its nonzero (index, value) pairs `nonzero[i][j]`."""
    out = [_ZERO] * len(nonzero)
    nv = nonzero_pairs(v)
    for i, a in nonzero_pairs(u):
        row = nonzero[i]
        for j, b in nv:
            ab = a * b
            for k, c in row[j]:
                out[k] += ab * c
    return out


def is_associative_at(nonzero, i, j, k):
    """(b_i b_j) b_k == b_i (b_j b_k), for structure constants given as the
    nonzero (index, value) pairs `nonzero[i][j]` of each product b_i b_j."""
    left, right = {}, {}
    for m, c in nonzero[i][j]:
        for t, c2 in nonzero[m][k]:
            left[t] = left.get(t, 0) + c * c2
    for m, c in nonzero[j][k]:
        for t, c2 in nonzero[i][m]:
            right[t] = right.get(t, 0) + c * c2
    return {t: c for t, c in left.items() if c} == {t: c for t, c in right.items() if c}


def _tensor_product(mul, partners, d, s, t):
    """The product in H (x) H of two elements given by the (i d + j, value)
    pairs of their nonzero coordinates, as a dict without zeros.
    `partners[i]` is the set of k with b_i b_k != 0; a term b_i (x) b_j of s
    meets only the terms b_k (x) b_l of t with k among them."""
    by_first = {}
    for kt, b in t:
        k, l = divmod(kt, d)
        by_first.setdefault(k, []).append((l, b))
    out = {}
    for it, a in s:
        i, j = divmod(it, d)
        for k in partners[i] & by_first.keys():
            left = mul[i][k]
            for l, b in by_first[k]:
                right = mul[j][l]
                ab = a * b
                for p, cp in left:
                    abp = ab * cp
                    base = p * d
                    for q, cq in right:
                        out[base + q] = out.get(base + q, 0) + abp * cq
    return {t: v for t, v in out.items() if v}


# ---------------------------------------------------------------------------
# a certified generating set


def generating_set(h: FinHopfAlgebra):
    """Ascending basis indices S that generate H, certified for the closure
    arguments of the checks that read S; every index when there is none.

    S is returned when all of these hold:
    - the unit is a basis element b_u, with b_u b_i = b_i = b_i b_u for
      every i, Delta(b_u) = b_u (x) b_u and eps(b_u) = 1;
    - closing {b_u} under the products b_s b_a, s in S, that are a nonzero
      multiple of one basis element reaches every basis element, so the
      right-nested words s_1(s_2(...(s_k 1))) span H;
    - for s in S and all j, k: (b_s b_j) b_k = b_s (b_j b_k),
      Delta(b_s b_j) = Delta(b_s) Delta(b_j) and eps(b_s b_j) = eps(b_s) eps(b_j).

    A check that reads S holds on a set of elements that contains 1 and is
    closed under products, so when it holds on S it holds on every word and
    hence on all of H.  The left nucleus {x : (x y) z = x (y z) for all y, z}
    of any algebra is such a set (Teichmueller's identity), so the first
    certificate makes H associative; then {x : Delta(x y) = Delta(x) Delta(y)
    for all y} and the same set for eps are too, so Delta and eps are
    algebra maps (Montgomery, CBMS 82, ch. 1).

    S is greedy (`_greedy_generators`): the smallest basis index not yet
    reached joins it until every index is reached.  Group algebras and
    Sweedler's algebra get a few generators; the dual of a group algebra,
    whose unit is the sum of its basis, gets every index, and so does H = k.
    S is computed once per algebra from the structure constants, unless a
    builder handed it over: `group_algebra` passes the greedy S of its
    validated table, which is the S found here and certified by
    construction.
    """
    if h._generators is None:
        h._generators = _certified_generators(h) or tuple(range(h.dim))
    return h._generators


def _greedy_generators(n, unit, product):
    """Greedy generators of a structure on the indices 0..n-1 with unit
    `unit`: the smallest index not yet reached joins S until closing {unit}
    under a -> s a, s in S, reaches every index.  `product(s, a)` is the
    index that s a is a nonzero multiple of, or None when there is none.
    The reached set is that closure whatever the order of the walk, so S
    depends on the structure alone; it is () when n is 1."""
    gens, reached = [], {unit}
    for s in range(n):
        if s in reached:
            continue
        gens.append(s)
        pending = list(reached)
        while pending:
            a = pending.pop()
            for g in gens:
                b = product(g, a)
                if b is not None and b not in reached:
                    reached.add(b)
                    pending.append(b)
    return tuple(gens)


def _certified_generators(h):
    """The greedy S of `generating_set` when its certificate holds, else ()."""
    d = h.dim
    mul, comul, counit = h.mul_nonzero, h.comul_nonzero, h.counit
    unit = nonzero_pairs(h.unit)
    if len(unit) != 1 or unit[0][1] != 1:
        return ()
    u = unit[0][0]
    if comul[u] != [(u * d + u, 1)] or counit[u] != 1 or any(
            mul[u][i] != [(i, 1)] or mul[i][u] != [(i, 1)] for i in range(d)):
        return ()
    gens = _greedy_generators(
        d, u, lambda g, a: mul[g][a][0][0] if len(mul[g][a]) == 1 else None)
    if not gens:
        return ()
    partners = [{k for k in range(d) if row[k]} for row in mul]
    if all(is_associative_at(mul, s, j, k) for s in gens for j in range(d) for k in range(d)) \
            and all(_sum((t, a * c) for k, a in mul[s][j] for t, c in comul[k]) ==
                    _tensor_product(mul, partners, d, comul[s], comul[j]) and
                    sum(c * counit[k] for k, c in mul[s][j]) == counit[s] * counit[j]
                    for s in gens for j in range(d)):
        return gens
    return ()


def on_generators(failures, gens, dim):
    """The witnesses of a check over every basis index, in the order
    `failures(range(dim))` yields them; none when `failures(gens)` yields
    none.

    `failures(indices)` scans the check over the basis elements it is given.
    Callers pass a `generating_set` (or every index) only for a check whose
    passing elements form a set that contains 1 and is closed under
    products, so a clean scan of S proves the check on all of H.  Any
    failure on S, an exception included, reruns the ordered scan over every
    index, so the witness named, or the exception raised, is the full
    scan's.
    """
    if len(gens) < dim:
        try:
            if next(failures(gens), None) is None:
                return
        except (TruncationOverflow, ValueError):
            pass
    yield from failures(range(dim))


# ---------------------------------------------------------------------------
# axiom verification


def verify_hopf_axioms(h: FinHopfAlgebra) -> CheckReport:
    """Check all Hopf axioms as exact tensor identities on basis elements.

    Each witness names the first failing basis element, pair or triple in
    ascending index order.  Every side of every identity is accumulated as
    a dict of its nonzero coordinates.

    When `generating_set` certifies a proper generating set S, its
    certificate (associativity, Delta and eps multiplicative on the pairs
    (s, b_j), the unit axioms, Delta(1) = 1 (x) 1 and eps(1) = 1) proves
    associativity, `comul-is-algebra-map` and `counit-is-algebra-map` on all
    of H, so those scans are skipped: |S| d^2 associator checks instead of
    d^3.  Without S they scan every triple and pair, and name the same first
    witness as ever.
    """
    d = h.dim
    names = h.names
    mul, comul, counit = h.mul_nonzero, h.comul_nonzero, h.counit
    unit = nonzero_pairs(h.unit)
    certified = len(generating_set(h)) < d
    report = CheckReport()
    report.record("associativity", () if certified else (
        f"({names[i]},{names[j]},{names[k]})"
        for i in range(d) for j in range(d) for k in range(d)
        if not is_associative_at(mul, i, j, k)))

    def unit_ok(i):
        return _sum((k, a * c) for p, a in unit for k, c in mul[p][i]) == {i: 1} == \
            _sum((k, a * c) for p, a in unit for k, c in mul[i][p])

    report.record("unit", (names[i] for i in range(d) if not unit_ok(i)))

    def coassoc_ok(k):
        left, right = [], []   # (Delta (x) id) Delta and (id (x) Delta) Delta
        for t, a in comul[k]:
            i, j = divmod(t, d)
            left += ((t2 * d + j, a * b) for t2, b in comul[i])
            right += ((i * d * d + t2, a * b) for t2, b in comul[j])
        return _sum(left) == _sum(right)

    report.record("coassociativity", (names[k] for k in range(d) if not coassoc_ok(k)))

    def counit_ok(k):
        left, right = [], []
        for t, a in comul[k]:
            i, j = divmod(t, d)
            left.append((j, a * counit[i]))
            right.append((i, a * counit[j]))
        return _sum(left) == {k: 1} == _sum(right)

    report.record("counit", (names[k] for k in range(d) if not counit_ok(k)))
    partners = [{k for k in range(d) if row[k]} for row in mul]
    report.record("comul-is-algebra-map", () if certified else itertools.chain(
        ["1"] if _sum((t, a * c) for k, a in unit for t, c in comul[k]) !=
        {p * d + q: a * b for p, a in unit for q, b in unit} else [],
        (f"({names[i]},{names[j]})" for i in range(d) for j in range(d)
         if _sum((t, a * c) for k, a in mul[i][j] for t, c in comul[k]) !=
         _tensor_product(mul, partners, d, comul[i], comul[j]))))
    report.record("counit-is-algebra-map", () if certified else itertools.chain(
        ["1"] if h.counit_of(h.unit) != 1 else [],
        (f"({names[i]},{names[j]})" for i in range(d) for j in range(d)
         if sum(c * counit[k] for k, c in mul[i][j]) != counit[i] * counit[j])))
    antipode = h.antipode_nonzero

    def antipode_ok(k, side):
        terms = []
        for t, a in comul[k]:
            i, j = divmod(t, d)
            if side == "left":    # S(b_i) b_j
                terms += ((m, a * s * c) for p, s in antipode[i] for m, c in mul[p][j])
            else:                 # b_i S(b_j)
                terms += ((m, a * s * c) for p, s in antipode[j] for m, c in mul[i][p])
        return _sum(terms) == {m: counit[k] * u for m, u in unit if counit[k]}

    for side in ("left", "right"):
        report.record(f"antipode-{side}",
                      (names[k] for k in range(d) if not antipode_ok(k, side)))
    return report


def is_cocommutative(h: FinHopfAlgebra):
    """True iff flip o Delta = Delta; on failure returns a witness basis name."""
    d = h.dim
    for k, pairs in enumerate(h.comul_nonzero):
        row = dict(pairs)
        for t, c in pairs:
            i, j = divmod(t, d)
            if row.get(j * d + i, 0) != c:
                return False, h.names[k]
    return True, None


# ---------------------------------------------------------------------------
# dual Hopf algebra


def dual_hopf(h: FinHopfAlgebra) -> FinHopfAlgebra:
    """The dual Hopf algebra on the dual basis: every tensor transposed.

    b*_i b*_j = sum_k Delta_k^{ij} b*_k, Delta(b*_k) = sum m_{ij}^k b*_i (x)
    b*_j, the unit is eps, the counit 1 and the antipode S^T.  Each Hopf
    axiom of H transposes to one of H*, so H* is Hopf whenever H is.  The
    rows of H* are those of H transposed, read in ascending order, so they
    come out ascending and canonical.
    """
    d = h.dim
    products = _dual_products(h)
    coproducts = [[] for _ in range(d)]
    for i, row in enumerate(h.mul_nonzero):
        for j, pairs in enumerate(row):
            for k, c in pairs:
                coproducts[k].append((i * d + j, c))
    antipodes = [[] for _ in range(d)]
    for j, pairs in enumerate(h.antipode_nonzero):
        for i, c in pairs:
            antipodes[i].append((j, c))
    conductor = common_conductor(c for pairs in h.comul_nonzero for _, c in pairs)
    return FinHopfAlgebra.from_rows(d, tuple(f"{n}*" for n in h.names), products, h.counit,
                                    coproducts, h.unit, antipodes, mul_conductor=conductor)


def _dual_products(h):
    """`mul_nonzero` of H*, b*_i b*_j = sum_k Delta_k^{ij} b*_k: H's
    coproduct transposed, read in ascending order, so each row is canonical."""
    d = h.dim
    products = [[[] for _ in range(d)] for _ in range(d)]
    for k, pairs in enumerate(h.comul_nonzero):
        for t, c in pairs:
            i, j = divmod(t, d)
            products[i][j].append((k, c))
    return products


# ---------------------------------------------------------------------------
# group-likes and group-algebra recognition


def group_likes(h: FinHopfAlgebra, conductor=1):
    """All g with Delta(g) = g (x) g and eps(g) = 1 over Q(zeta_conductor),
    the unit first, the rest ascending by `scalar_sort_key`.

    G(H) = Alg(H*, F) = Alg(A, F) for A = H*/I, I the ideal of H* generated
    by its commutators (Montgomery, CBMS 82, ch. 1).  Each 1-dimensional
    block p of the commutative A gives a character, a p = chi(a) p, and the
    group-like g_j = chi(b*_j + I).  I is grown from generators of H*, as
    the module docstring says.  When H is cocommutative, I = 0: no ideal, no
    quotient map and of H* only its product is built, A is H* and g is chi.  For
    H = Q[G] that table has b*_i b*_j = b*_i for i = j and 0 otherwise, so
    the split returns the b*_i without a search and each g is one b_j.

    H must be Hopf: A is associative because H is coassociative, so the
    split is handed A's unit, the image of eps, and skips its own d^3
    associativity scan and unit solve.  Every CLI path guarantees this: the
    builders make Hopf algebras, `tensors` entries are checked against the
    axioms at load, and an entry loaded unchecked reaches only `verify-hopf`
    and `cocommutative`.

    chi is read at one coordinate: with ref the first nonzero coordinate of
    p, chi(b_a) = [b_a p]_ref / p_ref = sum_j p_j [b_a b_j]_ref / p_ref, from
    the table `into[j][k]` of the (a, [b_a b_j]_k) built once, over the
    nonzero p_j only; chi, g and the sort keys (`_sparse_sort_key`) hold
    nonzero entries only, and g is made dense once, on return.  That each
    block is 1-dimensional is certified by the split's exact trace check,
    and that chi is a unital algebra map by the group-like check below:
    Delta(g) = g (x) g and eps(g) = 1 hold exactly when it is one.
    """
    d = h.dim
    if is_cocommutative(h)[0]:
        # I = 0: pi is the identity, A is H* (its product and unit eps) and g is chi
        quotient, images, unit = _dual_products(h), None, h.counit
    else:
        dual_algebra = dual_hopf(h)
        dual = dual_algebra.mul_nonzero
        gens = generating_set(dual_algebra)
        ideal = span_closure(
            d, [_sum(itertools.chain(dual[s][j], ((k, -c) for k, c in dual[j][s])))
                for s in gens for j in range(d)],
            [lambda v, s=s: _sum((k, a * c) for j, a in v.items() for k, c in dual[s][j])
             for s in gens])
        pi = QuotientMap(ideal)
        quotient, images, unit = pi.products(dual), pi.images, pi.project(dual_algebra.unit)
    dq = len(quotient)
    into = [{} for _ in range(dq)]
    for a, row in enumerate(quotient):
        for j, pairs in enumerate(row):
            for k, c in pairs:
                into[j].setdefault(k, []).append((a, c))
    comul, counit = h.comul_nonzero, h.counit
    likes = []
    for p in split_commutative_algebra(quotient, dq, conductor=conductor, unit=unit):
        support = nonzero_pairs(p)
        ref = support[0][0]
        at_ref = {}  # the nonzero [b_a p]_ref
        for j, pj in support:
            for a, c in into[j].get(ref, ()):
                at_ref[a] = at_ref.get(a, _ZERO) + pj * c
        inv = 1 / p[ref]
        chi = {a: y * inv for a, y in at_ref.items() if y}
        if images is not None:
            chi = _sum((j, chi[a] * c) for j, image in enumerate(images)
                       for a, c in image if a in chi)
        g = sorted(chi.items())
        ng = [(j, demoted(y)) for j, y in g]
        require(_sum((t, a * c) for k, a in ng for t, c in comul[k])
                == {i * d + j: a * b for i, a in ng for j, b in ng}
                and sum((a * counit[k] for k, a in ng), _ZERO) == 1,
                "a character of the dual failed the group-like check")
        likes.append(g)
    unit = nonzero_pairs(h.unit)
    likes.sort(key=lambda g: (g != unit, _sparse_sort_key(g, d)))
    return [tuple(_dense(g, d)) for g in likes]


def _sparse_sort_key(pairs, d):
    """A key on the nonzero (index, value) pairs of a vector of length d that
    orders vectors as their dense tuples of `scalar_sort_key` do.

    The dense tuples first differ at some index k.  Where both vectors are
    nonzero at k, their values decide.  Where one is 0, the other's value
    decides by lying above or below 0, so a value above 0 counts for more
    at a smaller index and a value below 0 for less: the pair (k, c) has the
    key (1, -k, key c) above 0 and (0, k, key c) below, and the end of the
    pairs has (1, -d), which lies between.
    """
    zero = scalar_sort_key(_ZERO)
    keys = []
    for k, c in pairs:
        key = scalar_sort_key(c)
        keys.append((1, -k, key) if key > zero else (0, k, key))
    keys.append((1, -d))
    return keys


class GroupRecognition:
    """A group multiplication table recovered from group-like elements."""

    __slots__ = ("table", "elements")

    def __init__(self, table, elements):
        self.table = table
        self.elements = elements  # coordinate vectors in the Hopf basis, the identity first


def recognize_group_algebra(h: FinHopfAlgebra, conductor=1) -> GroupRecognition:
    """Succeeds iff h is cocommutative with a full basis of group-likes."""
    ok, _ = is_cocommutative(h)
    if not ok:
        raise NotGroupAlgebra("not cocommutative")
    likes = group_likes(h, conductor=conductor)
    if len(likes) != h.dim:
        raise NotGroupAlgebra(
            f"only {len(likes)} group-like elements in dimension {h.dim}")
    sparse = [nonzero_pairs(g) for g in likes]
    # the group-likes of a Hopf algebra form a group, so from here on only a
    # fault in `group_likes` can fail a check
    require(_kernel_of_columns([dict(g) for g in sparse], h.dim).is_zero(),
            "group-like elements are always linearly independent")
    require(likes[:1] == [tuple(h.unit)], "group_likes lists the unit first")
    # every product lies in Q(zeta_n) for n the lcm of the conductors of the
    # group-likes and of the structure constants; there equal cyclotomics
    # have equal coordinates, and rationals stay numbers, which never equal
    # a coordinate tuple.  Keys and products are sparse (index, value) pairs.
    n = math.lcm(common_conductor(c for g in sparse for _, c in g), h.mul_conductor)

    def key(pairs):
        return tuple((k, c.coeffs_at(n) if isinstance(c, Cyclotomic) else demoted(c))
                     for k, c in pairs)

    mul = h.mul_nonzero
    index = {key(g): k for k, g in enumerate(sparse)}
    table = []
    for gi in sparse:
        row = []
        for gj in sparse:
            product = _sum((k, a * b * c) for i, a in gi for j, b in gj for k, c in mul[i][j])
            hit = index.get(key(sorted(product.items())))
            require(hit is not None, "group-likes are closed under multiplication")
            row.append(hit)
        table.append(tuple(row))
    require(all(sorted(row) == list(range(len(likes))) for row in table),
            "group-likes multiply as a group table")
    return GroupRecognition(table=tuple(table), elements=tuple(likes))


# ---------------------------------------------------------------------------
# ideals and quotients


def augmentation_ideal(h: FinHopfAlgebra) -> Subspace:
    """ker(eps) as a canonical subspace."""
    return _kernel_of_columns([{0: c} if c else {} for c in h.counit], h.dim)


class QuotientMap:
    """The quotient map pi: H -> H/I of an ideal I held as its RREF Subspace.

    H/I has the basis b_c + I for the indices c off I's pivots, listed in
    `complement`, and `images[j]` holds the nonzero (a, value) pairs of
    b_j + I over it: a complement index maps to its own coset, the pivot p
    of basis row r to -sum_c row_r[c] (b_c + I).
    """

    __slots__ = ("complement", "images")

    def __init__(self, ideal: Subspace):
        rows = dict(zip(ideal.pivots, ideal.basis))
        self.complement = tuple(j for j in range(ideal.ambient) if j not in rows)
        position = {c: a for a, c in enumerate(self.complement)}
        self.images = tuple(
            [(position[j], 1)] if j in position else
            nonzero_pairs([-rows[j][c] for c in self.complement])
            for j in range(ideal.ambient))

    def of(self, terms):
        """pi(sum v b_k) for the (k, v) pairs `terms`, as a dict without zeros."""
        images = self.images
        return _sum((a, v * c) for k, v in terms for a, c in images[k])

    def of_tensor(self, terms):
        """(pi (x) pi)(sum v b_i (x) b_j) for the (i d + j, v) pairs `terms`,
        as a dict over the pair basis of H/I without zeros."""
        images, d, dq = self.images, len(self.images), len(self.complement)
        return _sum((a * dq + b, v * ca * cb) for t, v in terms
                    for a, ca in images[t // d] for b, cb in images[t % d])

    def project(self, vec):
        """pi(vec) as a coordinate list over the complement basis."""
        return _dense(self.of(nonzero_pairs(vec)).items(), len(self.complement))

    def products(self, nonzero):
        """The nonzero pairs of each product of two complement cosets, for
        the algebra whose b_i b_j has the nonzero pairs `nonzero[i][j]`."""
        return [[_pairs(self.of(nonzero[a][b])) for b in self.complement]
                for a in self.complement]


def ideal_escapes(h: FinHopfAlgebra, ideal: Subspace, pi: QuotientMap):
    """(i, witness) where b_i v and then where v b_i leaves I, for v over
    I's basis and then i ascending; pi is I's quotient map.

    In an associative H, {x : x I in I} and {x : I x in I} contain 1 and are
    closed under products ((x y) I = x (y I), I (x y) = (I x) y), so the
    b_s of a `generating_set` are scanned first (`on_generators`): when none
    of them moves I out of I, nothing does.
    """
    mul = h.mul_nonzero

    def escapes(indices):
        for v in ideal.basis:
            nv = nonzero_pairs(v)
            for i in indices:
                if pi.of((k, a * c) for j, a in nv for k, c in mul[i][j]):
                    yield i, f"HI escapes I at ({h.names[i]}, {h.element_text(v)})"
                if pi.of((k, a * c) for j, a in nv for k, c in mul[j][i]):
                    yield i, f"IH escapes I at ({h.element_text(v)}, {h.names[i]})"

    return on_generators(escapes, generating_set(h), h.dim)


def _bialgebra_failures(h, ideal, pi):
    """The witness texts of the bialgebra-ideal conditions I fails, in order."""
    yield from (why for _, why in ideal_escapes(h, ideal, pi))
    yield from (f"eps({h.element_text(v)}) != 0" for v in ideal.basis if h.counit_of(v) != 0)
    yield from (f"Delta({h.element_text(v)}) escapes H(x)I + I(x)H"
                for v in ideal.basis if pi.of_tensor(h.comul_terms(v)))


def _hopf_failures(h, ideal, pi):
    """The witness texts of the Hopf-ideal conditions I fails, in order."""
    yield from _bialgebra_failures(h, ideal, pi)
    yield from (f"S({h.element_text(v)}) escapes I"
                for v in ideal.basis if pi.of(h.antipode_terms(v)))


def is_bialgebra_ideal(h: FinHopfAlgebra, ideal: Subspace):
    """Checks HI, IH, eps(I) = 0 and Delta(I) in H(x)I + I(x)H as zero images
    under pi and pi (x) pi; returns (ok, the first failing condition)."""
    why = next(_bialgebra_failures(h, ideal, QuotientMap(ideal)), None)
    return why is None, why


def is_hopf_ideal(h: FinHopfAlgebra, ideal: Subspace):
    """`is_bialgebra_ideal` and then S(I) in I, as pi(S(I)) = 0."""
    why = next(_hopf_failures(h, ideal, QuotientMap(ideal)), None)
    return why is None, why


class HopfQuotient:
    """H/I on the basis elements of H off I's pivots, and the quotient map."""

    __slots__ = ("hopf", "ideal", "pi")

    def __init__(self, hopf: FinHopfAlgebra, ideal: Subspace, pi: QuotientMap):
        self.hopf, self.ideal, self.pi = hopf, ideal, pi

    def project(self, vec):
        return self.pi.project(vec)


def quotient_hopf(h: FinHopfAlgebra, ideal: Subspace) -> HopfQuotient:
    """H/I on the complement basis of a Hopf ideal I, checked as
    `is_hopf_ideal` does; every Hopf axiom of H then holds in H/I.  Every
    structure map of H/I is read through the one quotient map pi."""
    pi = QuotientMap(ideal)
    why = next(_hopf_failures(h, ideal, pi), None)
    if why is not None:
        raise NotHopfIdeal(why)
    complement = pi.complement
    return HopfQuotient(
        hopf=FinHopfAlgebra.from_rows(
            len(complement), tuple(h.names[j] for j in complement),
            pi.products(h.mul_nonzero), pi.project(h.unit),
            [_pairs(pi.of_tensor(h.comul_nonzero[c])) for c in complement],
            [h.counit[c] for c in complement],
            [_pairs(pi.of(h.antipode_nonzero[c])) for c in complement]),
        ideal=ideal, pi=pi)


# ---------------------------------------------------------------------------
# builders


def _validate_group_table(table):
    """(rows, identity) of a group table, or InvalidGroupTable naming the
    first fault: a shape or range error, no identity, the first (i, j, k) in
    ascending order with (i j) k != i (j k), rows or columns that are not
    permutations, an element without an inverse.

    Associativity is Light's test (Clifford-Preston, The Algebraic Theory of
    Semigroups I, 1961) on the greedy generators S of the table: A = {a :
    (x y) a = x (y a) for all x, y} holds the identity and is closed under
    products in any magma, as (x y)(a b) = ((x y) a) b = (x (y a)) b =
    x ((y a) b) = x (y (a b)) for a, b in A.  So A is the whole table once it
    holds S, at |S| n^2 lookups instead of n^3.  On any failure the ordered
    scan of every triple runs and names the first.
    """
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
    if not _light_associative(rows, _table_generators(rows, identity)):
        for i, ri in enumerate(rows):
            for j in range(n):
                # row (i j) must be row j followed by left multiplication with i
                if rows[ri[j]] != [ri[x] for x in rows[j]]:
                    k = next(k for k in range(n) if rows[ri[j]][k] != ri[rows[j][k]])
                    raise InvalidGroupTable(f"not associative at ({i},{j},{k})")
    for i in range(n):
        if sorted(rows[i]) != list(range(n)) or \
                sorted(rows[j][i] for j in range(n)) != list(range(n)):
            raise InvalidGroupTable("rows/columns are not permutations")
        if identity not in rows[i]:
            raise InvalidGroupTable(f"element {i} has no inverse")
    return rows, identity


def _light_associative(rows, gens):
    """Whether (x y) a = x (y a) for every a in `gens` and all x, y."""
    for a in gens:
        times_a = [r[a] for r in rows]   # z -> z a
        # per x: the row y -> (x y) a against the row y -> x (y a)
        if any([times_a[v] for v in r] != [r[w] for w in times_a] for r in rows):
            return False
    return True


def _table_generators(rows, identity):
    """The greedy generators (`_greedy_generators`) of a table with unit
    `identity`, a few indices; every index for the trivial group."""
    return _greedy_generators(len(rows), identity, lambda g, a: rows[g][a]) or \
        tuple(range(len(rows)))


def relabel_identity_first(table):
    """(order, table) with the identity first, the rest in their given order.

    `order[new]` is the old index of element `new`.  The group algebra uses
    this canonical element order, and so must anything indexed alongside it.
    """
    rows, identity = _validate_group_table(table)
    order = [identity] + [i for i in range(len(rows)) if i != identity]
    pos = {old: new for new, old in enumerate(order)}
    return order, [[pos[rows[a][b]] for b in order] for a in order]


def group_algebra(table, names=None) -> FinHopfAlgebra:
    """The group algebra Q[G] of a finite group given by its table.

    Basis elements are the group elements (identity first), Delta(g) = g(x)g,
    eps(g) = 1 and S(g) = g^{-1}.  The validated group table makes it Hopf,
    and its rows are written from the table.  The greedy generators of the
    relabelled table are the S that `generating_set` would find: the basis
    is group-like, the unit is e and the table passed Light's test, so the
    certificate holds by construction and S is handed over unchecked.
    """
    order, tab = relabel_identity_first(table)
    n = len(tab)
    if names is None:
        names = ["e"] + [f"g{i}" for i in range(1, n)]
    else:
        names = [names[order[i]] for i in range(n)]
    cells = [[(k, 1)] for k in range(n)]   # b_k, shared by every product equal to it
    return FinHopfAlgebra.from_rows(
        n, names, [[cells[k] for k in row] for row in tab], [_ONE] + [_ZERO] * (n - 1),
        [[(k * n + k, 1)] for k in range(n)], [_ONE] * n,
        [cells[row.index(0)] for row in tab], group_table=tab,
        generators=_table_generators(tab, 0), mul_conductor=1)


def sweedler() -> FinHopfAlgebra:
    """The 4-dimensional Sweedler Hopf algebra on basis {1, g, x, gx}."""
    one, g, x, gx = range(4)
    mul = [(one, b, b, 1) for b in range(4)] + [(a, one, a, 1) for a in (g, x, gx)] + [
        (g, g, one, 1), (g, x, gx, 1), (g, gx, x, 1),      # g^2 = 1
        (x, g, gx, -1), (gx, g, x, -1)]                    # xg = -gx, x^2 = 0
    comul = [(one, one, one, 1), (g, g, g, 1),
             (x, x, one, 1), (x, g, x, 1),                 # Delta(x) = x(x)1 + g(x)x
             (gx, gx, g, 1), (gx, one, gx, 1)]             # Delta(gx) = gx(x)g + 1(x)gx
    antipode = [(one, one, 1), (g, g, 1), (gx, x, -1), (x, gx, 1)]  # S(x) = -gx, S(gx) = x
    return FinHopfAlgebra(4, ("1", "g", "x", "gx"), mul, [1, 0, 0, 0], comul,
                          [1, 1, 0, 0], antipode)


# ---------------------------------------------------------------------------
# group table helpers


def cyclic_group_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_group_table(ta, tb):
    """The table of G x H, element (a, b) at index a |H| + b."""
    pairs = [(a, b) for a in range(len(ta)) for b in range(len(tb))]
    return [[ta[a1][a2] * len(tb) + tb[b1][b2] for a2, b2 in pairs] for a1, b1 in pairs]


def symmetric_group_table(n):
    perms = sorted(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[x]] for x in range(n))
    return [[pos[compose(p, q)] for q in perms] for p in perms]

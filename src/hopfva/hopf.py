"""Finite-dimensional Hopf algebras presented by structure constants.

A FinHopfAlgebra stores the five structure maps as exact tensors over the
basis: mul[i][j] is the coordinate vector of b_i b_j, comul[k] is the d^2
coordinate vector of Delta(b_k) over the lexicographic pair basis
b_i (x) b_j, counit is a covector and the antipode a matrix.  Axioms are
verified at construction unless explicitly deferred.  The nonzero
(index, value) pairs of every mul[i][j] and comul[k] are derived once
(`mul_nonzero`, `comul_nonzero`, integral values as ints); products,
coproducts, tensor products and the axiom loops run over them, so a group
algebra costs what its structure constants hold, not d^5.

Group-like enumeration routes through the primitive idempotents of the dual
algebra (multiplication Delta*), which is commutative exactly when the
algebra is cocommutative.  For non-cocommutative inputs the builders may
declare a group-like basis subset instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CheckReport,
    DualNotCommutative,
    InvalidGroupTable,
    NotGroupAlgebra,
    NotHopfIdeal,
    ShapeMismatch,
    require,
)
from .linalg import (
    Matrix,
    Subspace,
    is_associative_at,
    nonzero_pairs,
    split_commutative_algebra,
)
from .scalars import (
    Cyclotomic,
    as_scalar,
    common_conductor,
    scalar_pretty,
    scalar_sort_key,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FinHopfAlgebra:
    """A Hopf algebra of dimension d over Q or a cyclotomic field."""

    __slots__ = ("dim", "names", "mul", "unit", "comul", "counit", "antipode",
                 "group_like_basis", "group_table", "verified", "mul_nonzero",
                 "comul_nonzero")

    def __init__(self, dim, names, mul, unit, comul, counit, antipode,
                 group_like_basis=None, group_table=None, verify=True):
        self.dim = dim
        self.names = tuple(names)
        if len(self.names) != dim:
            raise ShapeMismatch(f"{len(self.names)} basis names for dimension {dim}")
        self.mul = tuple(tuple(tuple(as_scalar(c) for c in mul[i][j])
                               for j in range(dim)) for i in range(dim))
        self.unit = tuple(as_scalar(c) for c in unit)
        self.comul = tuple(tuple(as_scalar(c) for c in comul[k]) for k in range(dim))
        if any(len(row) != dim * dim for row in self.comul):
            raise ShapeMismatch(f"a coproduct needs {dim * dim} entries for dimension {dim}")
        # the nonzero (index, value) pairs of each b_i b_j and each Delta(b_k)
        self.mul_nonzero = tuple(tuple(nonzero_pairs(v) for v in row) for row in self.mul)
        self.comul_nonzero = tuple(nonzero_pairs(v) for v in self.comul)
        self.counit = tuple(as_scalar(c) for c in counit)
        self.antipode = antipode if isinstance(antipode, Matrix) else Matrix.from_rows(antipode)
        self.group_like_basis = tuple(group_like_basis) if group_like_basis is not None else None
        self.group_table = tuple(tuple(r) for r in group_table) if group_table is not None else None
        self.verified = False
        if verify:
            report = verify_hopf_axioms(self)
            if not report.passed:
                bad = ", ".join(f"{k} (witness {w})" for k, (ok, w) in report.items() if not ok)
                raise ValueError(f"Hopf axioms fail: {bad}")
            self.verified = True

    # -- coordinate helpers

    def basis_vector(self, i):
        return [_ONE if j == i else _ZERO for j in range(self.dim)]

    def multiply(self, u, v):
        out = [_ZERO] * self.dim
        nv = nonzero_pairs(v)
        for i, a in enumerate(u):
            if a:
                row = self.mul_nonzero[i]
                for j, b in nv:
                    ab = a * b
                    for k, c in row[j]:
                        out[k] += ab * c
        return out

    def comul_of(self, vec):
        d = self.dim
        out = [_ZERO] * (d * d)
        for k, a in enumerate(vec):
            if a:
                for t, c in self.comul_nonzero[k]:
                    out[t] += a * c
        return out

    def counit_of(self, vec):
        out = _ZERO
        for a, e in zip(vec, self.counit):
            if a != 0 and e != 0:
                out = out + a * e
        return out

    def antipode_of(self, vec):
        return self.antipode.apply(list(vec))

    def tensor_multiply(self, s, t):
        """Product in H (x) H of two d^2 coordinate vectors, each given by
        the (index, value) pairs of its nonzero entries."""
        d = self.dim
        mul = self.mul_nonzero
        out = [_ZERO] * (d * d)
        nt = [(divmod(kt, d), b) for kt, b in t]
        for it, a in s:
            i, j = divmod(it, d)
            for (k, l), b in nt:
                ab = a * b
                right = mul[j][l]
                for p, cp in mul[i][k]:
                    abp = ab * cp
                    for q, cq in right:
                        out[p * d + q] += abp * cq
        return out

    def element_text(self, vec):
        parts = []
        for c, name in zip(vec, self.names):
            if c != 0:
                parts.append(f"{scalar_pretty(c)}*{name}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FinHopfAlgebra(dim {self.dim}, basis {list(self.names)})"


# ---------------------------------------------------------------------------
# axiom verification


def verify_hopf_axioms(h: FinHopfAlgebra) -> CheckReport:
    """Check all Hopf axioms as exact tensor identities on basis elements."""
    d = h.dim
    names = h.names
    basis = [h.basis_vector(i) for i in range(d)]
    unit = list(h.unit)
    report = CheckReport()
    report.record("associativity", (
        f"({names[i]},{names[j]},{names[k]})"
        for i in range(d) for j in range(d) for k in range(d)
        if not is_associative_at(h.mul_nonzero, i, j, k)))
    report.record("unit", (
        names[i] for i in range(d)
        if h.multiply(unit, basis[i]) != basis[i] or h.multiply(basis[i], unit) != basis[i]))

    def coassoc_ok(k):
        left = [_ZERO] * (d ** 3)   # (Delta (x) id) Delta
        right = [_ZERO] * (d ** 3)  # (id (x) Delta) Delta
        for t, a in h.comul_nonzero[k]:
            i, j = divmod(t, d)
            for t2, b in h.comul_nonzero[i]:
                left[t2 * d + j] += a * b
            for t2, b in h.comul_nonzero[j]:
                right[i * d * d + t2] += a * b
        return left == right

    report.record("coassociativity", (names[k] for k in range(d) if not coassoc_ok(k)))

    def counit_ok(k):
        left = [_ZERO] * d
        right = [_ZERO] * d
        for t, a in h.comul_nonzero[k]:
            i, j = divmod(t, d)
            left[j] += a * h.counit[i]
            right[i] += a * h.counit[j]
        return left == basis[k] and right == basis[k]

    report.record("counit", (names[k] for k in range(d) if not counit_ok(k)))
    report.record("comul-is-algebra-map", itertools.chain(
        ["1"] if h.comul_of(unit) != _square(unit) else [],
        (f"({names[i]},{names[j]})" for i in range(d) for j in range(d)
         if h.comul_of(h.mul[i][j]) != h.tensor_multiply(h.comul_nonzero[i], h.comul_nonzero[j]))))
    report.record("counit-is-algebra-map", itertools.chain(
        ["1"] if h.counit_of(unit) != 1 else [],
        (f"({names[i]},{names[j]})" for i in range(d) for j in range(d)
         if h.counit_of(h.mul[i][j]) != h.counit[i] * h.counit[j])))

    antipode = [h.antipode_of(b) for b in basis]

    def antipode_ok(k, side):
        acc = [_ZERO] * d
        for t, a in h.comul_nonzero[k]:
            i, j = divmod(t, d)
            if side == "left":
                term = h.multiply(antipode[i], basis[j])
            else:
                term = h.multiply(basis[i], antipode[j])
            for m, c in nonzero_pairs(term):
                acc[m] += a * c
        return acc == [h.counit[k] * u for u in h.unit]

    for side in ("left", "right"):
        report.record(f"antipode-{side}",
                      (names[k] for k in range(d) if not antipode_ok(k, side)))
    return report


def _square(v):
    """v (x) v over the lexicographic pair basis."""
    return [a * b for a in v for b in v]


def is_cocommutative(h: FinHopfAlgebra):
    """True iff flip o Delta = Delta; on failure returns a witness basis name."""
    d = h.dim
    for k in range(d):
        row = h.comul[k]
        for i in range(d):
            for j in range(i + 1, d):
                if row[i * d + j] != row[j * d + i]:
                    return False, h.names[k]
    return True, None


# ---------------------------------------------------------------------------
# dual Hopf algebra


def dual_hopf(h: FinHopfAlgebra) -> FinHopfAlgebra:
    """The dual Hopf algebra on the dual basis (transpose all tensors)."""
    d = h.dim
    mul_d = _dual_mul(h)
    unit_d = list(h.counit)
    comul_d = [[h.mul[i][j][k] for i in range(d) for j in range(d)]
               for k in range(d)]
    counit_d = list(h.unit)
    antipode_d = h.antipode.transpose()
    names = tuple(f"{n}*" for n in h.names)
    return FinHopfAlgebra(d, names, mul_d, unit_d, comul_d, counit_d,
                          antipode_d, verify=True)


def _dual_mul(h):
    """Structure constants of the dual algebra: b*_i b*_j = sum_k Delta_k^{ij} b*_k."""
    d = h.dim
    return [[[h.comul[k][i * d + j] for k in range(d)] for j in range(d)]
            for i in range(d)]


# ---------------------------------------------------------------------------
# group-likes and group-algebra recognition


def group_likes(h: FinHopfAlgebra, conductor=1):
    """All nonzero g with Delta(g) = g (x) g and eps(g) = 1.

    Cocommutative route: dual basis to the primitive idempotents of the dual
    algebra.  Non-cocommutative inputs must declare their group-like basis
    elements; otherwise DualNotCommutative is raised.
    """
    d = h.dim
    dual_mult = _dual_mul(h)
    commutative = all(dual_mult[i][j] == dual_mult[j][i]
                      for i in range(d) for j in range(d))
    if not commutative:
        if h.group_like_basis is None:
            raise DualNotCommutative(
                "dual algebra is not commutative and no group-like basis is declared")
        out = []
        for i in h.group_like_basis:
            g = h.basis_vector(i)
            if not _is_group_like(h, g):
                raise ValueError(f"declared group-like {h.names[i]} is not group-like")
            out.append(tuple(g))
        return out

    idems = split_commutative_algebra(dual_mult, d, conductor=conductor)
    dual_nonzero = [[nonzero_pairs(v) for v in row] for row in dual_mult]
    likes = []
    for p in idems:
        ref = next(l for l, c in enumerate(p) if c != 0)
        inv = 1 / p[ref]
        g = []
        for j in range(d):
            y = [_ZERO] * d  # b*_j p, which is g_j p on a 1-dimensional block
            for i, a in nonzero_pairs(p):
                for k, c in dual_nonzero[j][i]:
                    y[k] += a * c
            c = y[ref] * inv
            require(all(yc == c * pc if pc else not yc for yc, pc in zip(y, p)),
                    "idempotent block is not 1-dimensional")
            g.append(c)
        require(_is_group_like(h, g), "dual-route element failed the group-like check")
        likes.append(tuple(g))
    likes.sort(key=lambda v: tuple(scalar_sort_key(c) for c in v))
    return likes


def _is_group_like(h, g):
    return h.comul_of(g) == _square(g) and h.counit_of(g) == 1


@dataclass
class GroupRecognition:
    """A group multiplication table recovered from group-like elements."""

    table: tuple
    elements: tuple  # coordinate vectors in the Hopf basis
    identity_index: int = 0


def recognize_group_algebra(h: FinHopfAlgebra, conductor=1) -> GroupRecognition:
    """Succeeds iff h is cocommutative with a full basis of group-likes."""
    ok, _ = is_cocommutative(h)
    if not ok:
        raise NotGroupAlgebra("not cocommutative")
    likes = group_likes(h, conductor=conductor)
    if len(likes) != h.dim:
        raise NotGroupAlgebra(
            f"only {len(likes)} group-like elements in dimension {h.dim}")
    require(Matrix.from_rows([list(g) for g in likes]).rank() == h.dim,
            "group-like elements are always linearly independent")
    unit = tuple(h.unit)
    try:
        e_idx = likes.index(unit)
    except ValueError:
        raise NotGroupAlgebra("unit is not among the group-likes") from None
    order = [e_idx] + [i for i in range(len(likes)) if i != e_idx]
    elems = [likes[i] for i in order]
    # every product lies in Q(zeta_n) for n the lcm of the conductors of the
    # group-likes and of the structure constants; there equal cyclotomics
    # have equal coordinates, and rationals stay Fractions, which never
    # equal a canonical cyclotomic
    n = math.lcm(common_conductor(c for g in elems for c in g),
                 common_conductor(c for row in h.mul for v in row for c in v))

    def key(vec):
        return tuple(c.coeffs_at(n) if isinstance(c, Cyclotomic) else c for c in vec)

    index = {key(g): k for k, g in enumerate(elems)}
    table = []
    for gi in elems:
        row = []
        for gj in elems:
            hit = index.get(key(h.multiply(list(gi), list(gj))))
            if hit is None:
                raise NotGroupAlgebra("group-likes are not closed under multiplication")
            row.append(hit)
        table.append(tuple(row))
    for row in table:
        if sorted(row) != list(range(len(elems))):
            raise NotGroupAlgebra("multiplication table is not a group table")
    return GroupRecognition(table=tuple(table), elements=tuple(elems))


# ---------------------------------------------------------------------------
# ideals and quotients


def augmentation_ideal(h: FinHopfAlgebra) -> Subspace:
    """ker(eps) as a canonical subspace."""
    return Matrix.from_rows([list(h.counit)]).kernel()


def is_bialgebra_ideal(h: FinHopfAlgebra, ideal: Subspace):
    """Checks HI, IH, eps(I) = 0 and Delta(I) in H(x)I + I(x)H; returns
    (ok, failing-condition description)."""
    d = h.dim
    for v in ideal.basis:
        for i in range(d):
            if not ideal.contains(h.multiply(h.basis_vector(i), list(v))):
                return False, f"HI escapes I at ({h.names[i]}, {h.element_text(v)})"
            if not ideal.contains(h.multiply(list(v), h.basis_vector(i))):
                return False, f"IH escapes I at ({h.element_text(v)}, {h.names[i]})"
    for v in ideal.basis:
        if h.counit_of(v) != 0:
            return False, f"eps({h.element_text(v)}) != 0"
    mixed = mixed_tensor_span(d, ideal.basis)
    for v in ideal.basis:
        if not mixed.contains(h.comul_of(v)):
            return False, f"Delta({h.element_text(v)}) escapes H(x)I + I(x)H"
    return True, None


def mixed_tensor_span(d, vectors):
    """H (x) I + I (x) H over the pair basis, for I spanned by `vectors`."""
    rows = []
    for v in vectors:
        for j in range(d):
            left = [_ZERO] * (d * d)
            right = [_ZERO] * (d * d)
            for p, c in enumerate(v):
                left[p * d + j] = c
                right[j * d + p] = c
            rows += (left, right)
    return Subspace.from_vectors(d * d, rows)


def is_hopf_ideal(h: FinHopfAlgebra, ideal: Subspace):
    ok, why = is_bialgebra_ideal(h, ideal)
    if not ok:
        return False, why
    for v in ideal.basis:
        if not ideal.contains(h.antipode_of(v)):
            return False, f"S({h.element_text(v)}) escapes I"
    return True, None


@dataclass
class HopfQuotient:
    """H/I with the complement-basis section and the projection map."""

    hopf: FinHopfAlgebra
    ideal: Subspace
    complement: tuple
    projection: Matrix  # (dim H/I) x (dim H)

    def project(self, vec):
        return self.projection.apply(list(vec))

    def section(self, qvec):
        out = [_ZERO] * self.projection.cols
        for c, j in zip(qvec, self.complement):
            out[j] = as_scalar(c)
        return out


def quotient_hopf(h: FinHopfAlgebra, ideal: Subspace) -> HopfQuotient:
    """Structure constants of H/I on the complement basis of a Hopf ideal."""
    ok, why = is_hopf_ideal(h, ideal)
    if not ok:
        raise NotHopfIdeal(why)
    d = h.dim
    pivot_set = set(ideal.pivots)
    complement = tuple(j for j in range(d) if j not in pivot_set)
    dq = len(complement)

    projection = Matrix.from_columns(
        [[reduced[c] for c in complement]
         for reduced in (ideal.reduce(h.basis_vector(j)) for j in range(d))])
    q = HopfQuotient(hopf=None, ideal=ideal, complement=complement,
                     projection=projection)
    project = q.project
    basis_q = [q.section([_ONE if r == a else _ZERO for r in range(dq)])
               for a in range(dq)]
    mul_q = [[project(h.multiply(basis_q[a], basis_q[b])) for b in range(dq)]
             for a in range(dq)]
    unit_q = project(h.unit)
    counit_q = [h.counit_of(basis_q[a]) for a in range(dq)]
    antipode_q = Matrix.from_columns([project(h.antipode_of(b)) for b in basis_q])
    comul_q = []
    for a in range(dq):
        t = h.comul_of(basis_q[a])
        out = [_ZERO] * (dq * dq)
        for it, val in enumerate(t):
            if val == 0:
                continue
            i, j = divmod(it, d)
            pi = project(h.basis_vector(i))
            pj = project(h.basis_vector(j))
            for r, cr in enumerate(pi):
                if cr == 0:
                    continue
                for s, cs in enumerate(pj):
                    if cs != 0:
                        out[r * dq + s] = out[r * dq + s] + val * cr * cs
        comul_q.append(out)

    names = tuple(h.names[j] for j in complement)
    q.hopf = FinHopfAlgebra(dq, names, mul_q, unit_q, comul_q, counit_q,
                            antipode_q, verify=True)
    return q


# ---------------------------------------------------------------------------
# builders


def _validate_group_table(table):
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
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[rows[i][j]][k] != rows[i][rows[j][k]]:
                    raise InvalidGroupTable(f"not associative at ({i},{j},{k})")
    for i in range(n):
        if sorted(rows[i]) != list(range(n)) or \
                sorted(rows[j][i] for j in range(n)) != list(range(n)):
            raise InvalidGroupTable("rows/columns are not permutations")
        if identity not in rows[i]:
            raise InvalidGroupTable(f"element {i} has no inverse")
    return rows, identity


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
    eps(g) = 1 and S(g) = g^{-1}.
    """
    order, tab = relabel_identity_first(table)
    n = len(tab)
    if names is None:
        names = ["e"] + [f"g{i}" for i in range(1, n)]
    else:
        names = [names[order[i]] for i in range(n)]

    mul = [[[_ONE if k == tab[i][j] else _ZERO for k in range(n)]
            for j in range(n)] for i in range(n)]
    unit = [_ONE] + [_ZERO] * (n - 1)
    comul = [[_ONE if t == k * n + k else _ZERO for t in range(n * n)]
             for k in range(n)]
    counit = [_ONE] * n
    inverse = [tab[i].index(0) for i in range(n)]
    antipode = Matrix(n, n, [_ONE if i == inverse[j] else _ZERO
                             for i in range(n) for j in range(n)])
    return FinHopfAlgebra(n, names, mul, unit, comul, counit, antipode,
                          group_like_basis=tuple(range(n)),
                          group_table=tab, verify=True)


def sweedler() -> FinHopfAlgebra:
    """The 4-dimensional Sweedler Hopf algebra on basis {1, g, x, gx}."""
    names = ("1", "g", "x", "gx")
    z, o = _ZERO, _ONE
    e1, eg, ex, egx = ([o, z, z, z], [z, o, z, z], [z, z, o, z], [z, z, z, o])
    zero = [z, z, z, z]
    mul = [
        [e1, eg, ex, egx],
        [eg, e1, egx, ex],
        [ex, [z, z, z, -o], zero, zero],
        [egx, [z, z, -o, z], zero, zero],
    ]
    unit = e1
    comul = [[z] * 16 for _ in range(4)]
    comul[0][0 * 4 + 0] = o                       # Delta(1) = 1(x)1
    comul[1][1 * 4 + 1] = o                       # Delta(g) = g(x)g
    comul[2][2 * 4 + 0] = o                       # Delta(x) = x(x)1 + g(x)x
    comul[2][1 * 4 + 2] = o
    comul[3][3 * 4 + 1] = o                       # Delta(gx) = gx(x)g + 1(x)gx
    comul[3][0 * 4 + 3] = o
    counit = [o, o, z, z]
    # S(1)=1, S(g)=g, S(x)=-gx, S(gx)=x
    antipode = Matrix.from_rows([
        [o, z, z, z],
        [z, o, z, z],
        [z, z, z, o],
        [z, z, -o, z],
    ])
    return FinHopfAlgebra(4, names, mul, unit, comul, counit, antipode,
                          group_like_basis=(0, 1), verify=True)


# ---------------------------------------------------------------------------
# group table helpers


def cyclic_group_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_group_table(ta, tb):
    na, nb = len(ta), len(tb)
    idx = lambda a, b: a * nb + b
    out = [[0] * (na * nb) for _ in range(na * nb)]
    for a1 in range(na):
        for b1 in range(nb):
            for a2 in range(na):
                for b2 in range(nb):
                    out[idx(a1, b1)][idx(a2, b2)] = idx(ta[a1][a2], tb[b1][b2])
    return out


def symmetric_group_table(n):
    perms = sorted(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[x]] for x in range(n))
    return [[pos[compose(p, q)] for q in perms] for p in perms]

"""Finite-group Schur-Weyl machinery on graded backends.

A representation comes only from a Hopf action: its group elements (the
basis of a group algebra, or the recognised group-likes) and their
matrices, read from the action's sparse map.  The action has already been
checked to be an algebra map, so only the grading is checked here.

Character tables are input (and verified exactly), never computed.  The
isotypic projectors are the classical averaging operators; multiplicity
spaces are extracted as exact intertwiner solution spaces when explicit
irrep matrices are supplied.  Dual-pair evidence at truncation consists of
decomposition bookkeeping, commutant checks, cyclic reachability inside an
isotype, and pairwise distinguishability with an honest "inconclusive".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .action import _matrix, invariants
from .errors import CheckReport, MatricesRequired, require
from .hopf import _validate_group_table, recognize_group_algebra
from .linalg import Matrix, Subspace, _kernel_of_columns
from .scalars import as_scalar, scalar_conjugate
from .vertexalg import Poly, poly_to_text

_ZERO = Fraction(0)


class FinGroupRep:
    """The group elements of a Hopf action on a graded carrier, as a view
    over the action: the group table (identity first), the element names
    and each element's matrix over the carrier's monomials."""

    __slots__ = ("action", "table", "element_names", "matrices", "degree_dims")

    def __init__(self, action, table, element_names, matrices):
        self.action = action
        self.table = table
        self.element_names = element_names
        self.matrices = matrices
        degrees = [sum(e) for e in action.monomials]
        for name, m in zip(element_names, matrices):
            if any(degrees[i] != degrees[j]
                   for i, row in enumerate(m.nonzero_rows()) for j, _ in row):
                raise ValueError(f"element {name} does not preserve the grading")
        self.degree_dims = tuple(degrees.count(k) for k in range(max(degrees) + 1))

    def _offsets(self):
        out = [0]
        for d in self.degree_dims:
            out.append(out[-1] + d)
        return out

    @property
    def backend(self):
        return self.action.backend

    @property
    def order(self):
        return len(self.table)

    @property
    def carrier_dim(self):
        return len(self.action.monomials)

    def inverse(self, g):
        return self.table[g].index(0)

    @classmethod
    def from_hopf_action(cls, act):
        """Restrict a group-algebra Hopf action to its group elements."""
        h = act.hopf
        if h.group_table is not None:
            # the group elements are the basis: their matrices are the action's
            return cls(act, h.group_table, h.names, act.matrices)
        rec = recognize_group_algebra(h)  # the unit is its first group-like
        names = tuple(f"gl{i}" for i in range(len(rec.table)))
        mats = [act.rho(list(v)) for v in rec.elements]
        return cls(act, rec.table, names, mats)

    def block_rows(self, g, deg):
        """The nonzero rows of rho(g) on the degree-`deg` monomials, indexed
        within that degree; the grading check keeps each row inside it."""
        start = self._offsets()[deg]
        rows = self.matrices[g].nonzero_rows()[start:start + self.degree_dims[deg]]
        return [[(j - start, a) for j, a in row] for row in rows]

    def block(self, g, deg):
        dim = self.degree_dims[deg]
        return Matrix.from_nonzero_rows(dim, dim, self.block_rows(g, deg))

    def fixed_points(self) -> Subspace:
        """V^G, which is V^H: the group elements span H and eps(g) = 1."""
        return invariants(self.action)


@dataclass
class IrrepCharacter:
    name: str
    degree: int
    values: tuple            # one scalar per conjugacy class
    matrices: tuple = None   # optional: one Matrix per group element


class CharacterTable:
    """Conjugacy classes plus one exact character row per irreducible."""

    __slots__ = ("group_table", "identity", "classes", "chars", "class_of")

    def __init__(self, group_table, classes, chars):
        self.group_table = tuple(tuple(r) for r in group_table)
        self.identity = _validate_group_table(self.group_table)[1]
        n = len(self.group_table)
        self.classes = tuple(tuple(sorted(c)) for c in classes)
        seen = sorted(g for c in self.classes for g in c)
        if seen != list(range(n)):
            raise ValueError("classes do not partition the group")
        inverse = [self.group_table[g].index(self.identity) for g in range(n)]
        self.class_of = {}
        for ci, cls_ in enumerate(self.classes):
            for g in cls_:
                self.class_of[g] = ci
        for ci, cls_ in enumerate(self.classes):
            for g in cls_:
                for h in range(n):
                    conj = self.group_table[self.group_table[h][g]][inverse[h]]
                    if self.class_of[conj] != ci:
                        raise ValueError("classes are not conjugation-closed")
        out = []
        for ch in chars:
            values = tuple(as_scalar(v) for v in ch.values)
            require(len(values) == len(self.classes),
                    f"character {ch.name!r} needs one value per conjugacy class")
            mats = tuple(ch.matrices) if ch.matrices is not None else None
            out.append(IrrepCharacter(name=ch.name, degree=ch.degree,
                                      values=values, matrices=mats))
        self.chars = tuple(out)

    @property
    def order(self):
        return len(self.group_table)

    def char(self, name) -> IrrepCharacter:
        for ch in self.chars:
            if ch.name == name:
                return ch
        raise KeyError(f"no irreducible named {name!r}")

    def value_at_element(self, ch, g):
        return ch.values[self.class_of[g]]


def verify_character_table(table: CharacterTable, rep: FinGroupRep = None) -> CheckReport:
    """Exact orthogonality, degree-sum and trace-consistency checks."""
    report = CheckReport()
    n = table.order
    sizes = [len(c) for c in table.classes]

    def orthogonality_failures():
        for a, ca in enumerate(table.chars):
            for b, cb in enumerate(table.chars):
                total = _ZERO
                for ci, size in enumerate(sizes):
                    total = total + size * (ca.values[ci] * scalar_conjugate(cb.values[ci]))
                if total != (Fraction(n) if a == b else _ZERO):
                    yield f"({ca.name}, {cb.name})"

    report.record("row-orthogonality", orthogonality_failures())
    total = sum(ch.degree ** 2 for ch in table.chars)
    report.record("degree-sum", [] if total == n else [f"sum {total} != {n}"])
    report.record("degree-matches-identity-value", (
        ch.name for ch in table.chars
        if ch.values[table.class_of[table.identity]] != ch.degree))

    # the irreps with matrices are checked in order, both checks on one irrep
    # at a time, up to the first irrep that fails either of them
    matrices = CheckReport.fromkeys(
        ("matrices-multiplicative", "trace-consistency"), (True, None))
    for ch in table.chars:
        if ch.matrices is None:
            continue
        mats = ch.matrices
        if mats[table.identity] != Matrix.identity(ch.degree):
            matrices.record("matrices-multiplicative", [f"{ch.name} at identity"])
            break
        matrices.record("matrices-multiplicative", (
            f"{ch.name} at ({a},{b})" for a in range(n) for b in range(n)
            if mats[a] * mats[b] != mats[table.group_table[a][b]]))
        matrices.record("trace-consistency", (
            f"{ch.name} at element {g}" for g in range(n)
            if sum((mats[g][i, i] for i in range(ch.degree)), _ZERO)
            != table.value_at_element(ch, g)))
        if not matrices.passed:
            break
    report.update(matrices)

    if rep is not None:
        report.record("rep-table-match", [] if rep.table == table.group_table else [None])
    return report


# ---------------------------------------------------------------------------
# projectors and decomposition


def _require_same_group(table: CharacterTable, rep: FinGroupRep):
    if rep.table != table.group_table:
        raise ValueError("character table and representation use different groups")


def isotypic_projector(table: CharacterTable, rep: FinGroupRep, name):
    """P = (d/|G|) sum_g chi(g^{-1}) rho(g) per degree block, verified."""
    ch = table.char(name)
    n = rep.order
    factor = Fraction(ch.degree, n)
    out = []
    for deg, dim in enumerate(rep.degree_dims):
        rho = [rep.block(g, deg) for g in range(n)]
        acc = Matrix.zeros(dim, dim)
        for g, m in enumerate(rho):
            coeff = table.value_at_element(ch, rep.inverse(g)) * factor
            if coeff != 0:
                acc = acc + m.scale(coeff)
        require(acc * acc == acc, "isotypic projector must be idempotent")
        for m in rho:
            require(acc * m == m * acc, "projector must centralise the group action")
        out.append(acc)
    return out


@dataclass
class IsotypicDecomposition:
    rep: FinGroupRep
    table: CharacterTable
    multiplicities: dict     # name -> tuple of multiplicities per degree
    isotypes: dict           # name -> list of Subspace per degree
    projectors: dict         # name -> list of Matrix per degree

    def isotype_full(self, name) -> Subspace:
        """The isotypic component embedded in the full carrier."""
        n = self.rep.carrier_dim
        offsets = self.rep._offsets()
        vecs = []
        for deg, sub in enumerate(self.isotypes[name]):
            for row in sub.basis:
                v = [_ZERO] * n
                for k, c in enumerate(row):
                    v[offsets[deg] + k] = c
                vecs.append(v)
        return Subspace.from_vectors(n, vecs)


def decompose(table: CharacterTable, rep: FinGroupRep) -> IsotypicDecomposition:
    """Exact multiplicities and isotype bases, with full bookkeeping checks."""
    _require_same_group(table, rep)
    mults = {}
    projectors = {}
    isotypes = {}
    for ch in table.chars:
        per_degree = mults[ch.name] = _multiplicities(table, rep, ch)
        projectors[ch.name] = isotypic_projector(table, rep, ch.name)
        per_iso = []
        for deg, dim in enumerate(rep.degree_dims):
            p = projectors[ch.name][deg]
            cols = [list(p.col(j)) for j in range(dim)]
            sub = Subspace.from_vectors(dim, cols)
            require(sub.dim == ch.degree * per_degree[deg],
                    "projector rank must match d * multiplicity")
            per_iso.append(sub)
        isotypes[ch.name] = per_iso

    for deg, dim in enumerate(rep.degree_dims):
        total = Matrix.zeros(dim, dim)
        for ch in table.chars:
            total = total + projectors[ch.name][deg]
            for other in table.chars:
                if other.name != ch.name:
                    prod = projectors[ch.name][deg] * projectors[other.name][deg]
                    require(prod.is_zero(), "distinct projectors must be orthogonal")
        require(total == Matrix.identity(dim), "projectors must sum to the identity")
        require(sum(ch.degree * mults[ch.name][deg] for ch in table.chars) == dim,
                "dimension bookkeeping failed")
    return IsotypicDecomposition(rep=rep, table=table, multiplicities=mults,
                                 isotypes=isotypes, projectors=projectors)


def _multiplicities(table, rep, ch):
    """<chi, rho> on each degree block, by the character inner product."""
    n = rep.order
    out = []
    for deg in range(len(rep.degree_dims)):
        total = _ZERO
        for g in range(n):
            tr = sum((a for i, row in enumerate(rep.block_rows(g, deg))
                      for j, a in row if j == i), _ZERO)
            total = total + tr * table.value_at_element(ch, rep.inverse(g))
        mult = total / n
        require(isinstance(mult, Fraction) and mult.denominator == 1 and mult >= 0,
                f"character multiplicity must be a nonnegative integer, got {mult}")
        out.append(int(mult))
    return tuple(out)


def multiplicity_space(table: CharacterTable, rep: FinGroupRep, name):
    """Bases of Hom_G(W, M) per degree, solved as exact intertwiner systems.

    The unknowns are f[r][k], row-major; equation (g, r, c) is entry (r, c)
    of f rho_W(g) - rho_M(g) f, so f[r][k] enters it with rho_W(g)[k, c] and
    equation (g, i, k) with -rho_M(g)[i, r].
    """
    _require_same_group(table, rep)
    ch = table.char(name)
    if ch.matrices is None:
        raise MatricesRequired(f"irreducible {name!r} carries no matrices")
    d = ch.degree
    expected = _multiplicities(table, rep, ch)
    w_rows = [m.nonzero_rows() for m in ch.matrices]
    out = []
    for deg, dim in enumerate(rep.degree_dims):
        columns = [{} for _ in range(dim * d)]
        for g in range(rep.order):
            for r in range(dim):
                for k, row in enumerate(w_rows[g]):
                    col = columns[r * d + k]
                    for c, a in row:
                        col[g, r, c] = a
            for i, row in enumerate(rep.block_rows(g, deg)):
                for r, a in row:
                    for k in range(d):
                        col = columns[r * d + k]
                        x = col.get((g, i, k))
                        col[g, i, k] = -a if x is None else x - a
        kern = _kernel_of_columns(
            [{key: c for key, c in col.items() if c} for col in columns], dim * d)
        basis = [Matrix(dim, d, list(v)) for v in kern.basis]
        require(len(basis) == expected[deg],
                "intertwiner count must equal the character multiplicity")
        out.append(basis)
    return out


# ---------------------------------------------------------------------------
# commutant, reachability, distinguishability


def _mode_matrix(rep: FinGroupRep, poly: Poly):
    """Truncated multiplication by `poly` as a matrix on the carrier."""
    monos = rep.action.monomials
    cap = rep.backend.degree_cap
    return _matrix(monos, [poly.shift(e).truncated(cap).terms for e in monos])


def _modes(rep: FinGroupRep, u: Poly, order):
    """(k, deg d^k u, the operator of d^k u / k!) for k <= order, up to the
    first zero derivative."""
    dku = u
    for k in range(order + 1):
        if k:
            dku = rep.backend.derive(dku)
        if dku.is_zero():
            return
        yield k, dku.degree(), _mode_matrix(rep, dku.scale(Fraction(1, math.factorial(k))))


def _invariant_modes(rep: FinGroupRep, order):
    """(k, operator of d^k v / k!) for the RREF basis vectors v of V^G, k <= order."""
    backend = rep.backend
    return [(k, op) for v in rep.fixed_points().basis
            for k, _, op in _modes(rep, backend.poly_from_coords(list(v)), order)]


def check_commutant(rep: FinGroupRep, samples, max_order) -> CheckReport:
    """[rho(g), multiplication by d^k u / k!] = 0 within cap, per sample u."""
    backend = rep.backend
    report = CheckReport()
    cap = backend.degree_cap

    def failures(u):
        for k, deg_u, op in _modes(rep, u, max_order):
            # only the columns where the product stays within the cap count
            within = [sum(e) + deg_u <= cap for e in rep.action.monomials]
            for g, m in enumerate(rep.matrices):
                lhs = (m * op).nonzero_rows()
                rhs = (op * m).nonzero_rows()
                if any([t for t in left if within[t[0]]] != [t for t in right if within[t[0]]]
                       for left, right in zip(lhs, rhs)):
                    yield f"element {rep.element_names[g]} at order {k}"

    for u in samples:
        report.record(poly_to_text(u, backend.variables), failures(u))
    return report


@dataclass
class ReachResult:
    reachable: Subspace
    isotype: Subspace
    fills_isotype: bool


def cyclic_reachability(rep: FinGroupRep, table: CharacterTable, name,
                        seed: Poly, mode_order) -> ReachResult:
    """Smallest mode-closed subspace of the isotype containing the seed.

    Modes are truncated multiplications by d^k v / k! for v in V^G and
    k <= mode_order; filling the whole isotype is desk-scale evidence of
    irreducibility of the multiplicity space over the invariants.
    """
    backend = rep.backend
    decomp = decompose(table, rep)
    isotype = decomp.isotype_full(name)
    seed_coords = backend.coords_of(seed)
    if all(c == 0 for c in seed_coords):
        raise ValueError("seed must be nonzero")
    if not isotype.contains(seed_coords):
        raise ValueError("seed does not lie in the requested isotype")

    ops = [op for _, op in _invariant_modes(rep, mode_order)]

    current = Subspace.from_vectors(len(seed_coords), [seed_coords])
    while True:
        vecs = list(current.basis)
        for op in ops:
            for b in current.basis:
                vecs.append(op.apply(list(b)))
        bigger = Subspace.from_vectors(len(seed_coords), vecs)
        if bigger.dim == current.dim:
            break
        current = bigger
    require(isotype.contains_subspace(current), "modes must keep the isotype stable")
    return ReachResult(reachable=current, isotype=isotype,
                       fills_isotype=current == isotype)


@dataclass
class DistinguishVerdict:
    kind: str          # "degreewise-dims" | "mode-fingerprint" | "inconclusive"
    detail: str = ""


def _isotype_fingerprints(decomp: IsotypicDecomposition, name, modes):
    """Traces and per-degree ranks of the canonical mode family `modes`
    (from `_invariant_modes`) on one isotype, scaled by the irrep degree so
    different-degree isotypes are comparable."""
    rep = decomp.rep
    d = decomp.table.char(name).degree
    iso = decomp.isotype_full(name)
    # the degree of each isotype basis vector, read at its pivot
    basis_degrees = [sum(rep.action.monomials[p]) for p in iso.pivots]
    prints = []
    for k, op in modes:
        images = [op.apply(list(b)) for b in iso.basis]
        coords = [iso.coordinates_of(img) for img in images]
        require(all(c is not None for c in coords), "mode left the isotype")
        # column i of the mode on the isotype holds coords[i]
        trace = sum((c[i] for i, c in enumerate(coords)), _ZERO) / d
        rank_profile = []
        for deg in range(len(rep.degree_dims)):
            rows = [img for img, bd in zip(images, basis_degrees) if bd == deg]
            if not rows:
                continue
            r = Subspace.from_vectors(iso.ambient, rows).dim
            require(r % d == 0, "a mode rank is not a multiple of the irrep degree")
            rank_profile.append((deg, r // d))
        prints.append((k, trace, tuple(rank_profile)))
    return prints


def distinguish_isotypes(decomp: IsotypicDecomposition, name_a, name_b,
                         mode_order=2) -> DistinguishVerdict:
    """Try degreewise dimensions first, then exact mode fingerprints."""
    dims_a = decomp.multiplicities[name_a]
    dims_b = decomp.multiplicities[name_b]
    if dims_a != dims_b:
        return DistinguishVerdict(kind="degreewise-dims",
                                  detail=f"{dims_a} vs {dims_b}")
    # V^G and its mode operators are shared by both isotypes
    modes = _invariant_modes(decomp.rep, mode_order)
    fp_a = _isotype_fingerprints(decomp, name_a, modes)
    fp_b = _isotype_fingerprints(decomp, name_b, modes)
    if fp_a != fp_b:
        return DistinguishVerdict(kind="mode-fingerprint",
                                  detail="a canonical mode operator separates them")
    return DistinguishVerdict(kind="inconclusive")

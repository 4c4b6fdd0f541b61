"""Finite-group Schur-Weyl machinery on graded backends.

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

from .errors import CheckReport, MatricesRequired, require
from .hopf import _validate_group_table, recognize_group_algebra
from .linalg import Matrix, Subspace
from .scalars import as_scalar, scalar_conjugate
from .vertexalg import Poly, poly_to_text

_ZERO = Fraction(0)


class FinGroupRep:
    """A finite group acting degree-preservingly on a graded carrier."""

    __slots__ = ("table", "identity", "element_names", "backend", "monomials",
                 "degree_dims", "full", "blocks")

    def __init__(self, table, element_names, matrices, backend=None):
        self.table = tuple(tuple(r) for r in table)
        self.identity = _validate_group_table(self.table)[1]
        self.element_names = tuple(element_names)
        self.backend = backend
        self.monomials = backend.monomials() if backend is not None else None
        self.full = tuple(matrices)
        n = self.full[0].rows
        if backend is not None:
            degrees = [sum(e) for e in self.monomials]
        else:
            degrees = [0] * n
        for g, m in enumerate(self.full):
            if any(degrees[i] != degrees[j]
                   for i, row in enumerate(m.nonzero_rows()) for j, _ in row):
                raise ValueError(
                    f"element {self.element_names[g]} does not preserve the grading")
        cap = max(degrees) if degrees else 0
        self.degree_dims = tuple(sum(1 for d in degrees if d == k)
                                 for k in range(cap + 1))
        offsets = self._offsets()
        self.blocks = []
        for m in self.full:
            per_degree = []
            for k, dim in enumerate(self.degree_dims):
                start = offsets[k]
                rows = [[m[i, j] for j in range(start, start + dim)]
                        for i in range(start, start + dim)]
                per_degree.append(Matrix.from_rows(rows) if dim else Matrix.zeros(0, 0))
            self.blocks.append(tuple(per_degree))
        self.blocks = tuple(self.blocks)
        ident = Matrix.identity(n)
        if self.full[self.identity] != ident:
            raise ValueError("the identity element must act as the identity")
        for a in range(len(self.table)):
            for b in range(len(self.table)):
                if self.full[a] * self.full[b] != self.full[self.table[a][b]]:
                    raise ValueError("matrices do not satisfy the group table")

    def _offsets(self):
        out = [0]
        for d in self.degree_dims:
            out.append(out[-1] + d)
        return out

    @property
    def order(self):
        return len(self.table)

    @property
    def carrier_dim(self):
        return self.full[0].rows

    def inverse(self, g):
        return self.table[g].index(self.identity)

    @classmethod
    def from_hopf_action(cls, act):
        """Restrict a group-algebra Hopf action to its group elements."""
        h = act.hopf
        if h.group_table is not None:
            # the group elements are the basis: their matrices are the action's
            return cls(h.group_table, h.names, act.matrices, backend=act.backend)
        rec = recognize_group_algebra(h)
        names = tuple(f"gl{i}" for i in range(len(rec.table)))
        mats = [act.rho(list(v)) for v in rec.elements]
        return cls(rec.table, names, mats, backend=act.backend)

    def fixed_points(self) -> Subspace:
        n = self.carrier_dim
        rows = []
        for g, m in enumerate(self.full):
            if g != self.identity:
                rows.extend((m - Matrix.identity(n)).row_lists())
        if not rows:
            return Subspace.full(n)
        return Matrix.from_rows(rows).kernel()


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


def isotypic_projector(table: CharacterTable, rep: FinGroupRep, name):
    """P = (d/|G|) sum_g chi(g^{-1}) rho(g) per degree block, verified."""
    ch = table.char(name)
    n = rep.order
    factor = Fraction(ch.degree, n)
    out = []
    for deg, dim in enumerate(rep.degree_dims):
        acc = Matrix.zeros(dim, dim)
        for g in range(n):
            coeff = table.value_at_element(ch, rep.inverse(g)) * factor
            if coeff != 0:
                acc = acc + rep.blocks[g][deg].scale(coeff)
        require(acc * acc == acc, "isotypic projector must be idempotent")
        for g in range(n):
            require(acc * rep.blocks[g][deg] == rep.blocks[g][deg] * acc,
                    "projector must centralise the group action")
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
    if rep.table != table.group_table:
        raise ValueError("character table and representation use different groups")
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
    for deg, dim in enumerate(rep.degree_dims):
        total = _ZERO
        for g in range(n):
            tr = sum((rep.blocks[g][deg][i, i] for i in range(dim)), _ZERO)
            total = total + tr * table.value_at_element(ch, rep.inverse(g))
        mult = total / n
        require(isinstance(mult, Fraction) and mult.denominator == 1 and mult >= 0,
                f"character multiplicity must be a nonnegative integer, got {mult}")
        out.append(int(mult))
    return tuple(out)


def multiplicity_space(table: CharacterTable, rep: FinGroupRep, name):
    """Bases of Hom_G(W, M) per degree, solved as exact intertwiner systems."""
    ch = table.char(name)
    if ch.matrices is None:
        raise MatricesRequired(f"irreducible {name!r} carries no matrices")
    d = ch.degree
    n = rep.order
    expected = _multiplicities(table, rep, ch)
    out = []
    for deg, dim in enumerate(rep.degree_dims):
        rows = []
        for g in range(n):
            rho_w = ch.matrices[g]
            rho_m = rep.blocks[g][deg]
            # unknowns f[r][c], row-major; equation block (r, c) for each g
            for r in range(dim):
                for c in range(d):
                    row = [_ZERO] * (dim * d)
                    for k in range(d):
                        row[r * d + k] = row[r * d + k] + rho_w[k, c]
                    for k in range(dim):
                        row[k * d + c] = row[k * d + c] - rho_m[r, k]
                    rows.append(row)
        kern = Matrix.from_rows(rows).kernel() if rows else Subspace.full(dim * d)
        basis = [Matrix(dim, d, list(v)) for v in kern.basis]
        require(len(basis) == expected[deg],
                "intertwiner count must equal the character multiplicity")
        out.append(basis)
    return out


# ---------------------------------------------------------------------------
# commutant, reachability, distinguishability


def _mode_matrix(rep: FinGroupRep, poly: Poly):
    """Truncated multiplication by `poly` as a matrix on the carrier."""
    backend = rep.backend
    monos = rep.monomials
    index = {e: i for i, e in enumerate(monos)}
    n = len(monos)
    cols = []
    for e in monos:
        prod = poly.shift(e).truncated(backend.degree_cap)
        col = [_ZERO] * n
        for ee, c in prod.terms.items():
            col[index[ee]] = c
        cols.append(col)
    return Matrix.from_columns(cols)


def check_commutant(rep: FinGroupRep, samples, max_order) -> CheckReport:
    """[rho(g), multiplication by d^k u / k!] = 0 within cap, per sample u."""
    backend = rep.backend
    report = CheckReport()
    cap = backend.degree_cap

    def failures(u):
        dku = u
        for k in range(max_order + 1):
            if k:
                dku = backend.derive(dku)
            if dku.is_zero():
                return
            op = _mode_matrix(rep, dku.scale(Fraction(1, math.factorial(k))))
            deg_u = dku.degree()
            # only the columns where the product stays within the cap count
            within = [sum(e) + deg_u <= cap for e in rep.monomials]
            for g in range(rep.order):
                lhs = (rep.full[g] * op).nonzero_rows()
                rhs = (op * rep.full[g]).nonzero_rows()
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

    ops = []
    for v in rep.fixed_points().basis:
        vp = backend.poly_from_coords(list(v))
        dkv = vp
        for k in range(mode_order + 1):
            if k:
                dkv = backend.derive(dkv)
            if dkv.is_zero():
                break
            ops.append(_mode_matrix(rep, dkv.scale(Fraction(1, math.factorial(k)))))

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


def _isotype_fingerprints(decomp: IsotypicDecomposition, name, mode_order):
    """Traces and per-degree ranks of the canonical mode family, scaled by
    the irrep degree so different-degree isotypes are comparable."""
    rep = decomp.rep
    backend = rep.backend
    d = decomp.table.char(name).degree
    iso = decomp.isotype_full(name)
    degrees = [sum(e) for e in rep.monomials]
    prints = []
    for v in rep.fixed_points().basis:  # RREF order, already canonical
        vp = backend.poly_from_coords(list(v))
        dkv = vp
        for k in range(mode_order + 1):
            if k:
                dkv = backend.derive(dkv)
            if dkv.is_zero():
                break
            op = _mode_matrix(rep, dkv.scale(Fraction(1, math.factorial(k))))
            images = [op.apply(list(b)) for b in iso.basis]
            coords = [iso.coordinates_of(img) for img in images]
            require(all(c is not None for c in coords), "mode left the isotype")
            square = Matrix.from_columns(coords)
            trace = sum((square[i, i] for i in range(iso.dim)), _ZERO) / d
            rank_profile = []
            for deg in range(len(rep.degree_dims)):
                rows = [img for b, img in zip(iso.basis, images)
                        if degrees[next(i for i, c in enumerate(b) if c != 0)] == deg]
                if not rows:
                    continue
                r = Matrix.from_rows(rows).rank()
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
    fp_a = _isotype_fingerprints(decomp, name_a, mode_order)
    fp_b = _isotype_fingerprints(decomp, name_b, mode_order)
    if fp_a != fp_b:
        return DistinguishVerdict(kind="mode-fingerprint",
                                  detail="a canonical mode operator separates them")
    return DistinguishVerdict(kind="inconclusive")

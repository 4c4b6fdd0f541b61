"""Finite-group Schur-Weyl machinery on graded backends.

A representation comes only from a Hopf action: its group elements (the
basis of a group algebra, or the recognised group-likes) and their sparse
columns, read from the action.  The action has already been checked to be
an algebra map, so g -> rho(g) is a group homomorphism and only the grading
is checked here.

Character tables are input (and verified exactly), never computed.  The
isotypic projectors are rho(e_chi) for the central idempotents e_chi of the
group algebra, whose identities are checked on the group table, and each
isotype is one subspace of the whole carrier: the image of rho(e_chi),
reduced once on the sparse echelon form.  Multiplicity spaces are extracted
as exact intertwiner solution spaces when explicit irrep matrices are
supplied.  Dual-pair evidence at truncation consists of
decomposition bookkeeping, commutant checks, cyclic reachability inside an
isotype, and pairwise distinguishability by the degreewise multiplicities,
with an honest "inconclusive" where they agree.
Projectors, mode operators and irrep matrices are columns too, so no Matrix
and no Poly sits between an action or a character table and its isotypes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .action import _sum_columns, invariants
from .errors import CheckReport, MatricesRequired, UnresolvedReference, require
from .hopf import _table_generators, _validate_group_table, on_generators, recognize_group_algebra
from .linalg import Subspace, _kernel_of_columns, span_closure
from .scalars import as_scalar, demoted, scalar_conjugate
from .vertexalg import Poly, _mul, poly_to_text

_ZERO = Fraction(0)


class FinGroupRep:
    """The group elements of a Hopf action on a graded carrier, as a view
    over the action: the group table (identity first), the element names
    and each element's columns, keyed like the action's `_columns[b]`.
    `graded[k]` lists the carrier's monomials of degree k in basis order."""

    __slots__ = ("action", "table", "element_names", "columns", "graded")

    def __init__(self, action, table, element_names, columns):
        self.action = action
        self.table = table
        self.element_names = element_names
        self.columns = columns
        for name, cols in zip(element_names, columns):
            if any(sum(t) != sum(e) for e, col in cols.items() for t in col):
                raise ValueError(f"element {name} does not preserve the grading")
        monos = action.monomials
        self.graded = tuple([e for e in monos if sum(e) == k]
                            for k in range(max(map(sum, monos)) + 1))

    @property
    def backend(self):
        return self.action.backend

    @classmethod
    def from_hopf_action(cls, act):
        """Restrict a group-algebra Hopf action to its group elements."""
        h = act.hopf
        if h.group_table is not None:
            # the group elements are the basis: their columns are the action's
            return cls(act, h.group_table, h.names, act._columns)
        rec = recognize_group_algebra(h)  # the unit is its first group-like
        names = tuple(f"gl{i}" for i in range(len(rec.table)))
        return cls(act, rec.table, names, [act.rho(v) for v in rec.elements])

    def fixed_points(self) -> Subspace:
        """V^G, which is V^H: the group elements span H and eps(g) = 1."""
        return invariants(self.action)


@dataclass
class IrrepCharacter:
    name: str
    degree: int
    values: tuple            # one scalar per conjugacy class
    matrices: tuple = None   # optional: rows per group element; a table holds columns


def _irrep_columns(ch, n):
    """`ch.matrices`, one degree x degree matrix of scalar rows per group
    element, as columns {c: {r: entry}} without zeros; a ValueError if not."""
    d, mats = ch.degree, ch.matrices
    if len(mats) != n:
        raise ValueError(f"character {ch.name!r}: {len(mats)} matrices for {n} group elements")
    for rows in mats:
        if len(rows) != d or any(len(row) != d for row in rows):
            widths = sorted({len(row) for row in rows}) or [0]
            raise ValueError(f"character {ch.name!r}: a matrix is {len(rows)}x"
                             f"{'/'.join(map(str, widths))}, but degree {d} needs {d}x{d}")
    return tuple({c: {r: v for r, row in enumerate(rows) if (v := demoted(as_scalar(row[c])))}
                  for c in range(d)} for rows in mats)


class CharacterTable:
    """Conjugacy classes plus one exact character row per irreducible.

    The group table is validated here unless the caller passes the
    `identity` of a table it has validated itself (`relabel_identity_first`
    puts it at 0).  `generators` are its greedy generators, every index for
    the trivial group; the checks whose passing elements hold e and are
    closed under products scan them first (`hopf.on_generators`).
    """

    __slots__ = ("group_table", "identity", "generators", "inverse", "classes", "chars",
                 "class_of", "_idempotent_check")

    def __init__(self, group_table, classes, chars, identity=None):
        self.group_table = tuple(tuple(r) for r in group_table)
        if identity is None:
            identity = _validate_group_table(self.group_table)[1]
        self.identity = identity
        self.generators = _table_generators(self.group_table, identity)
        n = len(self.group_table)
        self.classes = tuple(tuple(sorted(c)) for c in classes)
        seen = sorted(g for c in self.classes for g in c)
        if seen != list(range(n)):
            raise ValueError("classes do not partition the group")
        self.inverse = inverse = tuple(row.index(self.identity) for row in self.group_table)
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
            if len(values) != len(self.classes):
                raise ValueError(f"character {ch.name!r} needs one value per conjugacy class")
            mats = None if ch.matrices is None else _irrep_columns(ch, n)
            out.append(IrrepCharacter(name=ch.name, degree=ch.degree,
                                      values=values, matrices=mats))
        self.chars = tuple(out)
        self._idempotent_check = None

    def idempotent_check(self):
        """[(require message, witness)] for the first identity of the central
        idempotents e_chi that fails (`_idempotent_failures`), or [] when all
        hold.  The table check and the projectors both read it, so it is
        computed once per table."""
        if self._idempotent_check is None:
            self._idempotent_check = list(itertools.islice(_idempotent_failures(self), 1))
        return self._idempotent_check

    @property
    def order(self):
        return len(self.group_table)

    def char(self, name) -> IrrepCharacter:
        for ch in self.chars:
            if ch.name == name:
                return ch
        raise UnresolvedReference(f"no irreducible named {name!r}")

    def value_at_element(self, ch, g):
        return ch.values[self.class_of[g]]


def verify_character_table(table: CharacterTable) -> CheckReport:
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
        mats, degree = ch.matrices, range(ch.degree)
        if mats[table.identity] != {c: {c: 1} for c in degree}:
            matrices.record("matrices-multiplicative", [f"{ch.name} at identity"])
            break
        # column c of rho(a) rho(b) against column c of rho(ab); the a with
        # rho(a) rho(b) = rho(ab) for every b hold e (checked above) and are
        # closed under products, so the generators are scanned first
        def product_failures(indices):
            return (f"{ch.name} at ({a},{b})" for a in indices for b in range(n)
                    if any(_sum_columns((x, mats[a][r]) for r, x in mats[b][c].items())
                           != mats[table.group_table[a][b]][c] for c in degree))

        matrices.record("matrices-multiplicative",
                        on_generators(product_failures, table.generators, n))
        matrices.record("trace-consistency", (
            f"{ch.name} at element {g}" for g in range(n)
            if sum((mats[g][i].get(i, 0) for i in degree), _ZERO)
            != table.value_at_element(ch, g)))
        if not matrices.passed:
            break
    report.update(matrices)

    report.record("central-idempotents", (w for _, w in table.idempotent_check()))
    return report


# ---------------------------------------------------------------------------
# projectors and decomposition


def _require_same_group(table: CharacterTable, rep: FinGroupRep):
    if rep.table != table.group_table:
        raise ValueError("character table and representation use different groups")


def _class_sum(table, ch):
    """f_chi = sum_g chi(g^{-1}) g = (|G|/d) e_chi as {element: value}, zeros left out."""
    return {g: v for g in range(table.order)
            if (v := demoted(table.value_at_element(ch, table.inverse[g])))}


def _idempotent_failures(table: CharacterTable):
    """(require message, witness) for each failed identity of the central
    idempotents e_chi = (d/|G|) sum_g chi(g^{-1}) g of the group algebra, in
    order: each e_chi idempotent, distinct ones orthogonal, their sum 1.
    They run on f_chi = (|G|/d) e_chi, so an integral table stays on ints:
    e_chi^2 = e_chi is d f_chi^2 = |G| f_chi.  Each e_chi is central on any
    table `CharacterTable` accepts, as f_chi is read per class and the
    classes are conjugation-closed.  Each identity is tested given those
    before it, as `CharacterTable.idempotent_check` keeps only the first
    failure: the product p of two commuting idempotents is one, and p = 0
    exactly where its coefficient at 1, rank(h -> p h) / |G|, is 0."""
    gt, n, inv = table.group_table, table.order, table.inverse

    def product(a, b):
        # sum_g a(g) (g b), g b the translate of b by g
        return _sum_columns((x, {gt[g][h]: y for h, y in b.items()}) for g, x in a.items())

    fs = [(ch, _class_sum(table, ch)) for ch in table.chars]
    for ch, f in fs:
        square = product(f, f)
        if {g: ch.degree * v for g, v in square.items()} != {g: n * v for g, v in f.items()}:
            yield "isotypic projector must be idempotent", f"e_{ch.name}^2 != e_{ch.name}"
    for i, (a, fa) in enumerate(fs):
        for b, fb in fs[i + 1:]:
            if sum(v * fb.get(inv[g], 0) for g, v in fa.items()):
                yield "distinct projectors must be orthogonal", f"e_{a.name} e_{b.name} != 0"
    if _sum_columns((ch.degree, f) for ch, f in fs) != {table.identity: n}:
        yield "projectors must sum to the identity", "the sum of the e_chi != 1"


def isotypic_projector(table: CharacterTable, rep: FinGroupRep, name):
    """rho(e_chi) for e_chi = (d/|G|) sum_g chi(g^{-1}) g, as columns keyed
    like the action's, summed on the group elements' columns once the
    identities of the e_chi hold on the group table."""
    _require_same_group(table, rep)
    for message, _ in table.idempotent_check():
        require(False, message)
    ch = table.char(name)
    factor = Fraction(ch.degree, table.order)
    terms = [(demoted(factor * v), rep.columns[g]) for g, v in _class_sum(table, ch).items()]
    return {e: _sum_columns((c, cols[e]) for c, cols in terms) for e in rep.action.monomials}


@dataclass
class IsotypicDecomposition:
    """Each irreducible's multiplicities per degree and its isotype, the
    image of rho(e_chi) as one Subspace of the whole carrier."""

    rep: FinGroupRep
    table: CharacterTable
    multiplicities: dict     # name -> tuple of multiplicities per degree
    isotypes: dict           # name -> Subspace of the carrier


def decompose(table: CharacterTable, rep: FinGroupRep) -> IsotypicDecomposition:
    """Exact multiplicities and isotypes, with full bookkeeping checks.

    Each isotype is the image of rho(e_chi), reduced once over the whole
    carrier.  rho(e_chi) keeps each degree and the carrier lists its
    monomials by degree, so that echelon basis is the union of the
    per-degree ones, and its pivots count the rank in each degree."""
    monos = rep.action.monomials
    position = {e: i for i, e in enumerate(monos)}
    mults = {}
    isotypes = {}
    for ch in table.chars:
        p = isotypic_projector(table, rep, ch.name)
        per_degree = mults[ch.name] = _multiplicities(table, rep, ch)
        iso = isotypes[ch.name] = span_closure(
            len(monos), [{position[t]: c for t, c in p[e].items()} for e in monos], ())
        ranks = [0] * len(rep.graded)
        for q in iso.pivots:
            ranks[sum(monos[q])] += 1
        require(ranks == [ch.degree * m for m in per_degree],
                "projector rank must match d * multiplicity")
    for deg, block in enumerate(rep.graded):
        require(sum(ch.degree * mults[ch.name][deg] for ch in table.chars) == len(block),
                "dimension bookkeeping failed")
    return IsotypicDecomposition(rep=rep, table=table, multiplicities=mults, isotypes=isotypes)


def _multiplicities(table, rep, ch):
    """<chi, rho> on each degree block, by the character inner product."""
    n = table.order
    out = []
    for monos in rep.graded:
        total = _ZERO
        for g, cols in enumerate(rep.columns):
            tr = sum((cols[e].get(e, 0) for e in monos), _ZERO)
            total = total + tr * table.value_at_element(ch, table.inverse[g])
        mult = total / n
        require(isinstance(mult, Fraction) and mult.denominator == 1 and mult >= 0,
                f"character multiplicity must be a nonnegative integer, got {mult}")
        out.append(int(mult))
    return tuple(out)


def multiplicity_space(table: CharacterTable, rep: FinGroupRep, name):
    """Bases of Hom_G(W, M) per degree, solved as exact intertwiner systems.

    Each f is its vector of unknowns f[r][k], row-major; equation (g, r, c)
    is entry (r, c) of f rho_W(g) - rho_M(g) f, so f[r][k] enters it with
    rho_W(g)[k, c] and equation (g, i, k) with -rho_M(g)[i, r].
    """
    _require_same_group(table, rep)
    ch = table.char(name)
    if ch.matrices is None:
        raise MatricesRequired(f"irreducible {name!r} carries no matrices")
    d = ch.degree
    expected = _multiplicities(table, rep, ch)
    out = []
    for deg, monos in enumerate(rep.graded):
        dim = len(monos)
        index = {e: i for i, e in enumerate(monos)}
        columns = [{} for _ in range(dim * d)]
        for g, cols in enumerate(rep.columns):
            for r in range(dim):
                for c, w_col in ch.matrices[g].items():
                    for k, a in w_col.items():
                        columns[r * d + k][g, r, c] = a
            # rho_M(g)[i, r] is the coefficient of monos[i] in the image of monos[r]
            for r, e in enumerate(monos):
                for t, a in cols[e].items():
                    i = index[t]
                    for k in range(d):
                        col = columns[r * d + k]
                        x = col.get((g, i, k))
                        col[g, i, k] = -a if x is None else x - a
        kern = _kernel_of_columns(
            [{key: c for key, c in col.items() if c} for col in columns], dim * d)
        require(len(kern.basis) == expected[deg],
                "intertwiner count must equal the character multiplicity")
        out.append(list(kern.basis))
    return out


# ---------------------------------------------------------------------------
# commutant, reachability, distinguishability


def _mode_matrix(rep: FinGroupRep, terms):
    """Truncated multiplication by the {exponent: coefficient} polynomial
    `terms` as columns on the carrier."""
    cap = rep.backend.degree_cap
    return {e: {t: c for t, c in _mul(terms, {e: 1}).items() if sum(t) <= cap}
            for e in rep.action.monomials}


def _modes(rep: FinGroupRep, terms, order):
    """(k, deg d^k u, the columns of d^k u / k!) for k <= order, up to the
    first zero derivative, u given by its {exponent: coefficient} terms."""
    dku = {e: demoted(c) for e, c in terms.items()}
    for k in range(order + 1):
        if k:
            dku = rep.backend.derive_terms(dku)
        if not dku:
            return
        inv = Fraction(1, math.factorial(k))
        yield k, max(map(sum, dku)), _mode_matrix(
            rep, {e: demoted(c * inv) for e, c in dku.items()})


def _invariant_modes(rep: FinGroupRep, order):
    """(k, columns of d^k v / k!) for the RREF basis vectors v of V^G, k <= order."""
    monos = rep.action.monomials
    return [(k, op) for v in rep.fixed_points().basis
            for k, _, op in _modes(rep, {e: c for e, c in zip(monos, v) if c}, order)]


def check_commutant(rep: FinGroupRep, samples, max_order) -> CheckReport:
    """[rho(g), multiplication by d^k u / k!] = 0 within cap, per sample u."""
    backend = rep.backend
    report = CheckReport()
    cap = backend.degree_cap

    def failures(u):
        for k, deg_u, op in _modes(rep, u.terms, max_order):
            # only the columns where the product stays within the cap count
            within = [e for e in rep.action.monomials if sum(e) + deg_u <= cap]
            for g, cols in enumerate(rep.columns):
                # column e of rho(g) op against column e of op rho(g)
                if any(_sum_columns((c, cols[t]) for t, c in op[e].items())
                       != _sum_columns((c, op[t]) for t, c in cols[e].items()) for e in within):
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
                        seed: Poly, max_order) -> ReachResult:
    """Smallest mode-closed subspace of the isotype containing the seed.

    Modes are truncated multiplications by d^k v / k! for v in V^G and
    k <= max_order; filling the whole isotype is desk-scale evidence of
    irreducibility of the multiplicity space over the invariants.  The
    subspace grows in one sparse echelon form (`span_closure`), from the
    seed under every mode.
    """
    backend = rep.backend
    ch = table.char(name)
    isotype = decompose(table, rep).isotypes[ch.name]
    seed_coords = backend.coords_of(seed)
    if all(c == 0 for c in seed_coords):
        raise ValueError("seed must be nonzero")
    if not isotype.contains(seed_coords):
        raise ValueError("seed does not lie in the requested isotype")

    monos = rep.action.monomials
    position = {e: i for i, e in enumerate(monos)}

    def mode(op):
        return lambda v: {position[t]: c for t, c in
                          _sum_columns((a, op[monos[i]]) for i, a in v.items()).items()}

    current = span_closure(len(seed_coords), [dict(enumerate(seed_coords))],
                           [mode(op) for _, op in _invariant_modes(rep, max_order)])
    require(isotype.contains_subspace(current), "modes must keep the isotype stable")
    return ReachResult(reachable=current, isotype=isotype,
                       fills_isotype=current == isotype)


@dataclass
class DistinguishVerdict:
    kind: str          # "degreewise-dims" | "inconclusive"
    detail: str = ""


def distinguish_isotypes(decomp: IsotypicDecomposition, name_a, name_b) -> DistinguishVerdict:
    """Separate two isotypes by their degreewise multiplicities, or answer
    "inconclusive" where those agree.

    The invariant modes (multiplication by d^k v / k! for v in V^G,
    truncated at the cap) would separate nothing more.  `FinGroupRep`
    refuses a group element that does not keep the degree, so each isotype
    is graded and its RREF basis is homogeneous.  A mode multiplies by a
    polynomial f; with f_j its lowest-degree part and b a homogeneous basis
    vector, the lowest-degree part of f b is f_j b != 0, as the carrier is
    a domain, and multiplication by f_j is injective.  So on the isotype of
    an irreducible of degree d, the rank of a mode on the basis vectors of
    one degree is d times the multiplicity there, or 0 where f_j b passes
    the cap, and its trace is f_0 times the isotype's dimension: both are
    fixed by the multiplicities.
    """
    table, mults = decomp.table, decomp.multiplicities
    dims_a = mults[table.char(name_a).name]
    dims_b = mults[table.char(name_b).name]
    if dims_a != dims_b:
        return DistinguishVerdict(kind="degreewise-dims",
                                  detail=f"{dims_a} vs {dims_b}")
    return DistinguishVerdict(kind="inconclusive")

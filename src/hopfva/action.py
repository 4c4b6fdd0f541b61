"""Hopf actions on truncated commutative differential backends.

An action stores, for each Hopf basis element, its image of each monomial
of the carrier A_{<=D} as a sparse column (monomial -> coefficient, integral
rationals held as ints, which multiply far faster than Fractions); these
columns are the action's only store.  Actions can be entered as columns
(the CLI converts a workspace's full matrices once) or as generator images
extended through the coproduct (the module-algebra rule), which is how
non-group examples like the Sweedler action on Q[z] are specified.

The generator extension, the algebra-map check, the module-vertex-algebra
checks, the fixed points, the annihilators and the tensor powers run on
those columns as {exponent: coefficient} dicts; no Matrix is built, and no
Poly unless a witness is reported.  Derivatives are read as the same kind
of dict from the backend's one store, the chains of d' = L d
(`CommDiffVA.chain`): each identity checked here has as many d's on both
sides, so it holds for d' exactly when it holds for d.

The algebra-map check, the Leibniz rule, [rho(h), d] = 0 and the vertex
identity walk the basis elements of a `hopf.generating_set` first: each
holds on a set of h that contains 1 and is closed under products (the
conditions are in each docstring), so a clean walk there proves it for
every basis element.  The module checks take that route only when rho
keeps degrees (`filtration_compatible`), and the identity only when d is
homogeneous and commutes with rho as well.
A failure on the generators reruns the ordered walk over every basis
element, so the witness reported is the same.

The theorem checkers at the bottom refuse (raise HypothesesNotMet) rather
than report vacuous passes when the stated hypotheses fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add as _add

from .errors import (
    BudgetExceeded,
    CheckReport,
    FiltrationFlagRequired,
    HypothesesNotMet,
    NotAnIdeal,
    TruncationOverflow,
    require,
)
from .hopf import (
    FinHopfAlgebra,
    HopfQuotient,
    QuotientMap,
    generating_set,
    ideal_escapes,
    is_cocommutative,
    is_hopf_ideal,
    on_generators,
    quotient_hopf,
    recognize_group_algebra,
)
from .linalg import Subspace, _kernel_of_columns, linear_combination, nonzero_pairs
from .scalars import demoted
from .vertexalg import CommDiffVA, Poly, _mul, pi2_kernel, poly_to_text

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _sum_columns(scaled):
    """sum c * col over the (c, col) pairs, each col a monomial -> coefficient
    dict, as such a dict without zero coefficients."""
    out = {}
    for c, col in scaled:
        for t, a in col.items():
            x = out.get(t)
            out[t] = c * a if x is None else x + c * a
    return {t: v for t, v in out.items() if v}


def _monomial_text(e, variables):
    return poly_to_text(Poly.monomial(e), variables)


def _coproduct_pairs(h, bi):
    """((p, q), c) for Delta(b_bi) = sum c b_p (x) b_q."""
    return [(divmod(t, h.dim), c) for t, c in h.comul_nonzero[bi]]


class HopfAction:
    """A Hopf algebra acting on A_{<=D}, one sparse column per basis element
    and monomial: `_columns[b][e]` is b.e as a monomial -> coefficient dict,
    integral rationals as ints.  `columns` gives, per basis element, such a
    dict for every monomial of the carrier.

    `_generators` are the basis indices the module checks scan first: the
    `generating_set` of H when rho keeps degrees (`filtration_compatible`),
    else every index.  Construction runs the algebra-map check."""

    __slots__ = ("hopf", "backend", "filtration_compatible", "monomials", "_columns",
                 "_generators")

    def __init__(self, hopf: FinHopfAlgebra, backend: CommDiffVA, columns):
        self.hopf = hopf
        self.backend = backend
        self.monomials = monos = backend.monomials()
        carrier = set(monos)
        require(len(columns) == hopf.dim and all(
            cols.keys() == carrier and all(map(carrier.issuperset, cols.values()))
            for cols in columns), "one column map per Hopf basis element, from the carrier to it")
        self._columns = tuple({e: {t: demoted(c) for t, c in cols[e].items() if c} for e in monos}
                              for cols in columns)
        self.filtration_compatible = all(
            sum(t) <= sum(e)
            for cols in self._columns for e, col in cols.items() for t in col)
        self._check_algebra_map()
        self._generators = generating_set(hopf) if self.filtration_compatible \
            else tuple(range(hopf.dim))

    def _check_algebra_map(self):
        """rho(1) = id, and rho(b_i b_j) = rho(b_i) rho(b_j) on every
        monomial, else a ValueError naming the first failing pair (i, j).

        In an associative H, {x : rho(x y) = rho(x) rho(y) for all y} is
        closed under products, rho((x x') y) = rho(x) rho(x') rho(y) =
        rho(x x') rho(y), and contains 1 once rho(1) = id.  So the pairs
        (s, b_j), s in `generating_set`, are checked first, and every pair
        only when one of them fails (`on_generators`).
        """
        h = self.hopf
        cols = self._columns
        unit = nonzero_pairs(h.unit)
        for e in self.monomials:
            if _sum_columns((c, cols[k][e]) for k, c in unit) != {e: 1}:
                raise ValueError("action of the Hopf unit is not the identity")

        def product_failures(indices):
            for i in indices:
                for j in range(h.dim):
                    for e in self.monomials:
                        lhs = _sum_columns((c, cols[i][t]) for t, c in cols[j][e].items())
                        rhs = _sum_columns((c, cols[k][e]) for k, c in h.mul_nonzero[i][j])
                        if lhs != rhs:
                            yield f"action is not multiplicative at ({h.names[i]}, {h.names[j]})"
                            break

        why = next(on_generators(product_failures, generating_set(h), h.dim), None)
        if why is not None:
            raise ValueError(why)

    # -- basic application

    def rho(self, hvec):
        """The columns of an arbitrary element of H, keyed like `_columns[b]`."""
        terms = [(demoted(c), bc) for c, bc in zip(hvec, self._columns) if c]
        return {e: _sum_columns((c, bc[e]) for c, bc in terms) for e in self.monomials}

    def _apply(self, b_index, terms):
        """b.f for an {exponent: coefficient} polynomial f within the cap."""
        cols = self._columns[b_index]
        for e in terms:
            if e not in cols:
                raise TruncationOverflow(sum(e), self.backend.degree_cap)
        return _sum_columns((c, cols[e]) for e, c in terms.items())

    def act_basis_on_poly(self, b_index, poly):
        return Poly(poly.nvars, self._apply(b_index, poly.terms))

    @classmethod
    def from_generator_images(cls, hopf, backend, images):
        """Extend generator images to all monomials via the coproduct rule.

        `images[name][var]` is h.var as a Poly; the unit row may be omitted
        when the Hopf unit is the first basis element.
        """
        d = hopf.dim
        nvars = backend.nvars
        cap = backend.degree_cap
        img = {}
        for bi, name in enumerate(hopf.names):
            if name in images:
                img[bi] = [{e: demoted(c) for e, c in images[name][v].terms.items()}
                           for v in backend.variables]
            elif list(hopf.unit) == [_ONE if k == bi else _ZERO for k in range(d)]:
                img[bi] = [{tuple(int(k == i) for k in range(nvars)): 1} for i in range(nvars)]
            else:
                raise ValueError(f"no generator images for basis element {name}")
        coproducts = [_coproduct_pairs(hopf, bi) for bi in range(d)]
        memo = {}

        def act(bi, mono):
            """b_bi . mono = sum c (b_p x_var)(b_q rest) over Delta(b_bi),
            for mono = x_var rest with var its first variable."""
            out = memo.get((bi, mono))
            if out is not None:
                return out
            if sum(mono) == 0:
                eps = demoted(hopf.counit[bi])
                out = {mono: eps} if eps else {}
            else:
                var = next(i for i, k in enumerate(mono) if k)
                rest = mono[:var] + (mono[var] - 1,) + mono[var + 1:]
                terms = []
                for (p, q), c in coproducts[bi]:
                    left = img[p][var]
                    if not left:
                        continue
                    right = act(q, rest)
                    if right:
                        terms.append((c, _mul(left, right)))
                out = _sum_columns(terms)
            degree = max(map(sum, out), default=-1)
            if degree > cap:
                raise TruncationOverflow(degree, cap, f"extending {hopf.names[bi]} to monomials")
            memo[bi, mono] = out
            return out

        monos = backend.monomials()
        return cls(hopf, backend, [{e: act(bi, e) for e in monos} for bi in range(d)])


def trivial_action(hopf, backend) -> HopfAction:
    """h v = eps(h) v."""
    return HopfAction(hopf, backend, [{e: {e: eps} for e in backend.monomials()}
                                      for eps in hopf.counit])


# ---------------------------------------------------------------------------
# module-algebra and module-vertex-algebra axioms
#
# Each check walks (basis element, monomial, ...) in a fixed order and
# reports its first failure.  Both sides of an identity are built from the
# action's columns as {exponent: coefficient} dicts, and it holds where
# their difference sums to the empty dict.  The Leibniz rule, [rho(h), d] = 0
# and the vertex identity walk the action's `_generators` first
# (`on_generators`); each docstring gives the closure argument that makes a
# clean walk there a proof for every basis element.


def verify_module_algebra(act: HopfAction) -> CheckReport:
    """h 1 = eps(h) 1 and h(fg) = sum (h1 f)(h2 g) on monomial pairs.

    The h for which the rule holds on every pair of degree <= D contain 1
    and are closed under products when rho is multiplicative, Delta is an
    algebra map and rho keeps degrees: (x y)(u v) = x(sum (y1 u)(y2 v)),
    whose factors y1 u and y2 v have degrees <= deg u and deg v, so x's rule
    applies to them and gives sum ((x y)1 u)((x y)2 v).
    """
    h, a = act.hopf, act.backend
    cols = act._columns
    report = CheckReport()
    one = (0,) * a.nvars
    report.record("unit-compatibility", (
        h.names[bi] for bi in range(h.dim)
        if act._apply(bi, {one: 1}) != ({one: h.counit[bi]} if h.counit[bi] else {})))

    def leibniz_failures(indices):
        monos = act.monomials
        cap = a.degree_cap
        for bi in indices:
            col = cols[bi]
            coproduct = _coproduct_pairs(h, bi)
            for e1 in monos:
                # the monomials of degree <= D - |e1|, a prefix of the deglex basis
                for e2 in a.monomials(cap - sum(e1)):
                    # h(e1 e2) - sum (h1 e1)(h2 e2), zero where the rule holds
                    residual = [(1, col[tuple(map(_add, e1, e2))])]
                    residual += [(-c, _mul(cols[p][e1], cols[q][e2])) for (p, q), c in coproduct]
                    if _sum_columns(residual):
                        yield (f"({h.names[bi]}, {_monomial_text(e1, a.variables)}, "
                               f"{_monomial_text(e2, a.variables)})")

    report.record("module-algebra-rule",
                  on_generators(leibniz_failures, act._generators, h.dim))
    return report


def check_D_commute(act: HopfAction):
    """[rho(h), d] = 0 on the part of the carrier where both sides stay in cap,
    read as [rho(h), d'] = 0 for d' = L d (`CommDiffVA.chain`).

    The h for which it holds on the monomials of degree <= D - max(w, 0)
    contain 1 and are closed under products when rho is multiplicative and
    keeps degrees: rho(x y) d m = rho(x) d rho(y) m, and x commutes with d
    on rho(y) m, whose degree is at most deg m.
    """
    h, a = act.hopf, act.backend
    wplus = max(a.weight, 0)

    def commute_failures(indices):
        for bi in indices:
            col = act._columns[bi]
            for mono in a.monomials(a.degree_cap - wplus):
                lhs = act._apply(bi, a.chain(mono, 1)[1])
                rhs = a.derived(col[mono], 1)
                if lhs != rhs:
                    yield h.names[bi], _monomial_text(mono, a.variables)

    witness = next(on_generators(commute_failures, act._generators, h.dim), None)
    return witness is None, witness


def verify_module_vertex_algebra(act: HopfAction, order=None) -> CheckReport:
    """The module-vertex-algebra identity, coefficientwise:
    h((d^k u) v) = sum (d^k(h1 u))(h2 v), the k! cancelling on both sides.
    It is read in d' = L d (`CommDiffVA.chain`): both sides scale by L^k.

    Reported as the module-algebra part plus the derivation-commutation part,
    with the combined identity checked directly as well.

    The identity walks the action's `_generators` first when d is
    homogeneous (every term of d m has degree deg m + w) and
    derivation-commutation passed.  Then, as rho is multiplicative and keeps
    degrees and Delta is an algebra map, the h for which it holds contain 1
    and are closed under products: (x y)((d^k u) v) =
    x(sum (d^k(y1 u))(y2 v)), and y1 u, y2 v are sums of monomials m, m2 of
    degrees <= deg u, deg v.  When d^k m != 0, its degree deg m + k w is at
    most that of d^k u, so x's identity at (m, k, m2) is walked; when
    d^k m = 0, d^k(x1 m) = x1 d^k m = 0 by commutation, which applies as
    every d^j m, j < k, has degree <= D - max(w, 0).  Either way the sum is
    sum (d^k((x y)1 u))((x y)2 v).  For a homogeneous d with w >= 0 the
    degree of d^k e1 grows with k, so the walk of e1 ends at its first order
    past D.
    """
    h, a = act.hopf, act.backend
    cols = act._columns
    order = len(act.monomials) if order is None else order
    report = verify_module_algebra(act)
    report["derivation-commutation"] = check_D_commute(act)
    gens = act._generators if a.homogeneous and report["derivation-commutation"][0] \
        else range(h.dim)
    grows = a.homogeneous and a.weight >= 0

    def identity_failures(indices):
        monos = act.monomials
        cap = a.degree_cap
        for bi in indices:
            col = cols[bi]
            coproduct = _coproduct_pairs(h, bi)
            for e1 in monos:
                for k in range(order + 1):
                    dku = a.chain(e1, k)[k]
                    if not dku:
                        break
                    room = cap - max(map(sum, dku))
                    if room < 0:
                        if grows:
                            break
                        continue
                    left = [(q, c, a.derived(cols[p][e1], k)) for (p, q), c in coproduct]
                    for e2 in a.monomials(room):
                        # h((d^k e1) e2) - sum (d^k(h1 e1))(h2 e2), zero where it holds
                        residual = [(c, col[tuple(map(_add, t, e2))]) for t, c in dku.items()]
                        residual += [(-c, _mul(dkp, cols[q][e2])) for q, c, dkp in left]
                        if _sum_columns(residual):
                            yield (f"({h.names[bi]}, {_monomial_text(e1, a.variables)}, "
                                   f"{_monomial_text(e2, a.variables)}) at order {k}")

    report.record("hopf-vertex-identity", on_generators(identity_failures, gens, h.dim))
    return report


# ---------------------------------------------------------------------------
# fixed points


def invariants(act: HopfAction) -> Subspace:
    """V^H = {v : h v = eps(h) v} over the monomial basis, in RREF."""
    counit = act.hopf.counit
    # column e holds the rows (b, t) of rho(b) e - eps(b) e
    return _kernel_of_columns(
        [{(bi, t): c for bi, bc in enumerate(act._columns)
          for t, c in _sum_columns([(1, bc[e]), (-demoted(counit[bi]), {e: 1})]).items()}
         for e in act.monomials], len(act.monomials))


def fixed_subspace(act: HopfAction):
    """V^H plus vertex-subalgebra closure evidence.

    The basis vectors of V^H are {exponent: coefficient} dicts, derived by
    d' = L d (`CommDiffVA.chain`): V^H holds d'^k u exactly when it holds
    d^k u, so the closure checks read the store as it is.
    """
    a = act.backend
    monos = act.monomials
    cap = a.degree_cap
    fixed = invariants(act)
    report = CheckReport()
    report.record("contains-vacuum",
                  [] if fixed.contains([int(sum(e) == 0) for e in monos]) else [None])
    vectors = [{e: c for e, c in zip(monos, v) if c} for v in fixed.basis]

    def outside(terms):
        """Within the cap and not in V^H."""
        return max(map(sum, terms), default=-1) <= cap and \
            not fixed.contains([terms.get(e, 0) for e in monos])

    def text(terms):
        return poly_to_text(Poly(a.nvars, terms), a.variables)

    def mode_failures():
        for u in vectors:
            for k in range(cap + 1):
                dku = a.derived(u, k)
                if not dku or max(map(sum, dku)) > cap:
                    break
                for v in vectors:
                    if outside(_mul(dku, v)):
                        yield f"({text(u)}, k={k}, {text(v)})"

    report.record("derivation-closed", (text(u) for u in vectors if outside(a.derived(u, 1))))
    report.record("vertex-mode-closed", mode_failures())
    return fixed, report


# ---------------------------------------------------------------------------
# annihilators, inner faithfulness


@dataclass
class AnnihilatorResult:
    kernel: Subspace      # subspace of H
    stabilized: bool      # agrees with the cap-(D-1) computation


def annihilator(act: HopfAction, limit=None) -> Subspace:
    """{h in H : rho(h) = 0 on A_{<=limit}}, limit defaulting to the cap D."""
    if not act.filtration_compatible:
        raise FiltrationFlagRequired(
            "annihilator stabilisation needs a filtration-compatible action")
    if limit is None:
        limit = act.backend.degree_cap
    return _kernel_of_columns(
        [{(t, e): v for e, col in cols.items() if sum(e) <= limit
          for t, v in col.items() if sum(t) <= limit} for cols in act._columns], act.hopf.dim)


def action_annihilator(act: HopfAction) -> AnnihilatorResult:
    """K = {h in H : rho(h) = 0 on A_{<=D}}, with downward-cap evidence."""
    kern = annihilator(act)
    cap = act.backend.degree_cap
    if cap == 0:
        return AnnihilatorResult(kernel=kern, stabilized=True)
    return AnnihilatorResult(kernel=kern, stabilized=annihilator(act, cap - 1) == kern)


def maximal_hopf_ideal_in(hopf: FinHopfAlgebra, sub: Subspace) -> Subspace:
    """Largest Hopf ideal inside a two-sided ideal, by shrinking iteration:
    each step keeps the combinations of the current basis on which eps,
    pi o S and (pi (x) pi) o Delta vanish, pi the current quotient map."""
    current, pi = sub, QuotientMap(sub)
    for i, _ in ideal_escapes(hopf, sub, pi):
        raise NotAnIdeal(f"subspace is not a two-sided ideal (fails at {hopf.names[i]})")
    while not current.is_zero():
        columns = [{("S", a): c for a, c in pi.of(hopf.antipode_terms(v)).items()}
                   | {("Delta", t): c for t, c in pi.of_tensor(hopf.comul_terms(v)).items()}
                   | {("eps", 0): hopf.counit_of(v)}
                   for v in current.basis]
        coeff_kernel = _kernel_of_columns(columns, current.dim)
        if coeff_kernel.dim == current.dim:
            break
        current = Subspace.from_vectors(
            hopf.dim, [linear_combination(lam, current.basis) for lam in coeff_kernel.basis])
        pi = QuotientMap(current)
    return current


def is_inner_faithful(act: HopfAction) -> bool:
    """True iff no nonzero Hopf ideal annihilates the carrier."""
    ann = annihilator(act)
    return maximal_hopf_ideal_in(act.hopf, ann).is_zero()


@dataclass
class InnerFaithfulQuotient:
    quotient: HopfQuotient
    action: HopfAction
    fixed_preserved: bool


def inner_faithful_quotient(act: HopfAction) -> InnerFaithfulQuotient:
    """H/I for the maximal Hopf ideal I annihilating V; V^H is unchanged."""
    ann = annihilator(act)
    ideal = maximal_hopf_ideal_in(act.hopf, ann)
    q = quotient_hopf(act.hopf, ideal)
    # the quotient's basis element a is the coset of H's basis element complement[a]
    induced = HopfAction(q.hopf, act.backend, [act._columns[j] for j in q.pi.complement])
    require(is_inner_faithful(induced), "quotient action must be inner faithful")
    return InnerFaithfulQuotient(quotient=q, action=induced,
                                 fixed_preserved=invariants(act) == invariants(induced))


# ---------------------------------------------------------------------------
# tensor powers: where does the annihilator chain stabilise


@dataclass
class TensorFaithfulnessResult:
    table: list       # s -> annihilator dimension on V^{(x) s}
    stabilization_index: int


def _iterated_comul(h: FinHopfAlgebra, b, s):
    terms = {(b,): _ONE}
    for _ in range(s - 1):
        new = {}
        for idx, c in terms.items():
            for t, cc in h.comul_nonzero[idx[-1]]:
                key = idx[:-1] + divmod(t, h.dim)
                new[key] = new.get(key, _ZERO) + c * cc
        terms = new
    return terms


def tensor_power_faithfulness(act: HopfAction, s_max, budget=512) -> TensorFaithfulnessResult:
    """Annihilator dimension of H acting on V^{(x) s} for s = 1..s_max.

    rho(b) on V^{(x) s} is sum c rho(b_1) (x) ... (x) rho(b_s) over the
    iterated coproduct of b; its entries are built as products of the
    nonzero entries of the factors, keyed by (row, column) multi-indices
    read left factor major.  The kernel of b -> rho(b) only sees the
    positions where some rho(b) is nonzero, so only those rows are reduced.
    """
    h = act.hopf
    n = len(act.monomials)
    index = {e: i for i, e in enumerate(act.monomials)}
    entries = [[((index[t], index[e]), a) for e, col in cols.items() for t, a in col.items()]
               for cols in act._columns]
    table = []
    for s in range(1, s_max + 1):
        if n ** s > budget:
            raise BudgetExceeded(f"tensor dimension {n ** s} exceeds budget {budget}")
        images = []
        for b in range(h.dim):
            acc = {}
            for idx, c in sorted(_iterated_comul(h, b, s).items()):
                prod = [(pos, c * a) for pos, a in entries[idx[0]]]
                for slot in idx[1:]:
                    prod = [((r * n + i, q * n + j), v * a)
                            for (r, q), v in prod for (i, j), a in entries[slot]]
                for pos, v in prod:
                    x = acc.get(pos)
                    acc[pos] = v if x is None else x + v
            images.append({pos: v for pos, v in acc.items() if v})
        dim = _kernel_of_columns(images, h.dim).dim
        if table:
            require(dim <= table[-1], "tensor-power annihilators must shrink")
        table.append(dim)
    s0 = next((s + 1 for s in range(len(table) - 1, 0, -1) if table[s] != table[s - 1]), 1)
    return TensorFaithfulnessResult(table=table, stabilization_index=s0)


# ---------------------------------------------------------------------------
# theorem checkers


@dataclass
class TheoremVerdict:
    status: str          # "PASS" | "FAIL" | "hypothesis-not-established"
    detail: str = ""


def check_thm_kernel_bialgebra_ideal(act: HopfAction, pi2_order=None) -> TheoremVerdict:
    """Action kernel is a bialgebra (hence Hopf) ideal, on a pi2-injective
    backend; refuses when the module-vertex-algebra axioms fail."""
    va_report = verify_module_vertex_algebra(act)
    if not va_report.passed:
        raise HypothesesNotMet(["not a module vertex algebra"])
    p2 = pi2_kernel(act.backend, order=pi2_order)
    if not (p2.kernel.is_zero() and p2.stabilized):
        return TheoremVerdict(status="hypothesis-not-established",
                              detail="pi2 kernel nonzero or unstabilised at these caps")
    ann = annihilator(act)
    ok, why = is_hopf_ideal(act.hopf, ann)
    if ok:
        return TheoremVerdict(status="PASS",
                              detail=f"kernel dimension {ann.dim}")
    return TheoremVerdict(status="FAIL", detail=why)


def check_thm_group_algebra(act: HopfAction, pi2_order=None, conductor=1) -> TheoremVerdict:
    """Inner-faithful actions on pi2-injective backends force group algebras."""
    failed = []
    va_report = verify_module_vertex_algebra(act)
    if not va_report.passed:
        failed.append("module-vertex-algebra")
    p2 = pi2_kernel(act.backend, order=pi2_order)
    if not (p2.kernel.is_zero() and p2.stabilized):
        failed.append("pi2-injectivity")
    if not failed and not is_inner_faithful(act):
        failed.append("inner-faithful")
    if failed:
        raise HypothesesNotMet(failed)
    cocomm, witness = is_cocommutative(act.hopf)
    if not cocomm:
        return TheoremVerdict(status="FAIL",
                              detail=f"not cocommutative (witness {witness})")
    rec = recognize_group_algebra(act.hopf, conductor=conductor)
    return TheoremVerdict(status="PASS",
                          detail=f"group algebra of order {len(rec.table)}")

"""Hopf actions on truncated commutative differential backends.

An action stores one matrix per Hopf basis element over the monomial basis
of the carrier A_{<=D}.  Actions can be entered as full matrices or as
generator images extended through the coproduct (the module-algebra rule),
which is how non-group examples like the Sweedler action on Q[z] are
specified.

The theorem checkers at the bottom refuse (raise HypothesesNotMet) rather
than report vacuous passes when the stated hypotheses fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    CheckReport,
    FiltrationFlagRequired,
    HypothesesNotMet,
    NotAnIdeal,
    TruncationOverflow,
)
from .hopf import (
    FinHopfAlgebra,
    HopfQuotient,
    is_bialgebra_ideal,
    is_cocommutative,
    is_hopf_ideal,
    mixed_tensor_span,
    quotient_hopf,
    recognize_group_algebra,
)
from .linalg import Matrix, Subspace, linear_combination
from .vertexalg import CommDiffVA, Poly, pi2_kernel, poly_to_text

_ZERO = Fraction(0)
_ONE = Fraction(1)


class HopfAction:
    """A Hopf algebra acting on A_{<=D} by one matrix per basis element."""

    __slots__ = ("hopf", "backend", "matrices", "filtration_compatible",
                 "monomials", "_degrees")

    def __init__(self, hopf: FinHopfAlgebra, backend: CommDiffVA, matrices,
                 check=True):
        self.hopf = hopf
        self.backend = backend
        self.monomials = backend.monomials()
        n = len(self.monomials)
        self.matrices = tuple(matrices)
        assert len(self.matrices) == hopf.dim
        assert all(m.rows == n and m.cols == n for m in self.matrices)
        self._degrees = tuple(sum(e) for e in self.monomials)
        self.filtration_compatible = all(
            self._degrees[i] <= self._degrees[j] or m[i, j] == 0
            for m in self.matrices for j in range(n) for i in range(n))
        if check:
            self._check_algebra_map()

    def _check_algebra_map(self):
        h = self.hopf
        n = len(self.monomials)
        ident = Matrix.identity(n)
        if self.rho(h.unit) != ident:
            raise ValueError("action of the Hopf unit is not the identity")
        for i in range(h.dim):
            for j in range(h.dim):
                lhs = self.matrices[i] * self.matrices[j]
                rhs = self.rho(h.mul[i][j])
                if lhs != rhs:
                    raise ValueError(
                        f"action is not multiplicative at ({h.names[i]}, {h.names[j]})")

    # -- basic application

    def rho(self, hvec):
        """The matrix of an arbitrary element of H."""
        n = len(self.monomials)
        out = Matrix.zeros(n, n)
        for c, m in zip(hvec, self.matrices):
            if c != 0:
                out = out + m.scale(c)
        return out

    def act_basis_on_poly(self, b_index, poly):
        coords = self.backend.coords_of(poly)
        return self.backend.poly_from_coords(self.matrices[b_index].apply(coords))

    @classmethod
    def from_generator_images(cls, hopf, backend, images, check=True):
        """Extend generator images to all monomials via the coproduct rule.

        `images[name][var]` is h.var as a Poly; the unit row may be omitted
        when the Hopf unit is the first basis element.
        """
        d = hopf.dim
        nvars = backend.nvars
        img = {}
        for bi, name in enumerate(hopf.names):
            if name in images:
                img[bi] = [images[name][v] for v in backend.variables]
            elif list(hopf.unit) == [_ONE if k == bi else _ZERO for k in range(d)]:
                img[bi] = [Poly.variable(nvars, i) for i in range(nvars)]
            else:
                raise ValueError(f"no generator images for basis element {name}")

        memo = {}

        def act(bi, mono):
            key = (bi, mono)
            if key in memo:
                return memo[key]
            if sum(mono) == 0:
                out = Poly.const(nvars, hopf.counit[bi])
            else:
                var = next(i for i, k in enumerate(mono) if k)
                rest = list(mono)
                rest[var] -= 1
                rest = tuple(rest)
                out = Poly.zero(nvars)
                row = hopf.comul[bi]
                for t, c in enumerate(row):
                    if c == 0:
                        continue
                    p, q = divmod(t, d)
                    left = img[p][var]
                    if left.is_zero():
                        continue
                    right = act(q, rest)
                    if right.is_zero():
                        continue
                    out = out + (left * right).scale(c)
            if out.degree() > backend.degree_cap:
                raise TruncationOverflow(out.degree(), backend.degree_cap,
                                         f"extending {hopf.names[bi]} to monomials")
            memo[key] = out
            return out

        monos = backend.monomials()
        mats = [Matrix.from_columns([backend.coords_of(act(bi, mono)) for mono in monos])
                for bi in range(d)]
        return cls(hopf, backend, mats, check=check)


def trivial_action(hopf, backend) -> HopfAction:
    """h v = eps(h) v."""
    n = len(backend.monomials())
    mats = [Matrix.identity(n).scale(hopf.counit[i]) for i in range(hopf.dim)]
    return HopfAction(hopf, backend, mats)


# ---------------------------------------------------------------------------
# module-algebra and module-vertex-algebra axioms


def _coproduct_sum(act, bi, term):
    """sum c term(p, q) over Delta(b_bi) = sum c b_p (x) b_q, as a Poly."""
    h = act.hopf
    out = Poly.zero(act.backend.nvars)
    for t, c in enumerate(h.comul[bi]):
        if c != 0:
            out = out + term(*divmod(t, h.dim)).scale(c)
    return out


def verify_module_algebra(act: HopfAction) -> CheckReport:
    """h 1 = eps(h) 1 and h(fg) = sum (h1 f)(h2 g) on monomial pairs."""
    h, a = act.hopf, act.backend
    report = CheckReport()
    one = Poly.const(a.nvars, _ONE)
    report.record("unit-compatibility", (
        h.names[bi] for bi in range(h.dim)
        if act.act_basis_on_poly(bi, one) != one.scale(h.counit[bi])))

    def leibniz_failures():
        monos = act.monomials
        for bi in range(h.dim):
            for e1 in monos:
                u = Poly.monomial(e1)
                for e2 in monos:
                    if sum(e1) + sum(e2) > a.degree_cap:
                        continue
                    v = Poly.monomial(e2)
                    lhs = act.act_basis_on_poly(
                        bi, Poly.monomial(tuple(x + y for x, y in zip(e1, e2))))
                    rhs = _coproduct_sum(act, bi, lambda p, q: act.act_basis_on_poly(p, u) *
                                         act.act_basis_on_poly(q, v))
                    if lhs != rhs:
                        yield (f"({h.names[bi]}, {poly_to_text(u, a.variables)}, "
                               f"{poly_to_text(v, a.variables)})")

    report.record("module-algebra-rule", leibniz_failures())
    return report


def check_D_commute(act: HopfAction):
    """[rho(h), d] = 0 on the part of the carrier where both sides stay in cap."""
    h, a = act.hopf, act.backend
    wplus = max(a.weight, 0)
    for bi in range(h.dim):
        for mono in act.monomials:
            if sum(mono) + wplus > a.degree_cap:
                continue
            m_poly = Poly.monomial(mono)
            lhs = act.act_basis_on_poly(bi, a.derive(m_poly))
            rhs = a.derive(act.act_basis_on_poly(bi, m_poly))
            if lhs != rhs:
                return False, (h.names[bi], poly_to_text(m_poly, a.variables))
    return True, None


def verify_module_vertex_algebra(act: HopfAction, order=None) -> CheckReport:
    """The module-vertex-algebra identity, coefficientwise:
    h((d^k u) v) = sum (d^k(h1 u))(h2 v), the k! cancelling on both sides.

    Reported as the module-algebra part plus the derivation-commutation part,
    with the combined identity checked directly as well.
    """
    h, a = act.hopf, act.backend
    order = len(act.monomials) if order is None else order
    report = verify_module_algebra(act)
    report["derivation-commutation"] = check_D_commute(act)

    def identity_failures():
        monos = act.monomials
        for bi in range(h.dim):
            for e1 in monos:
                u = Poly.monomial(e1)
                dku = u
                for k in range(order + 1):
                    if k:
                        dku = a.derive(dku)
                    if dku.is_zero():
                        break
                    for e2 in monos:
                        v = Poly.monomial(e2)
                        prod = dku * v
                        if prod.degree() > a.degree_cap:
                            continue
                        lhs = act.act_basis_on_poly(bi, prod)
                        rhs = _coproduct_sum(act, bi, lambda p, q: a.derive_k(
                            act.act_basis_on_poly(p, u), k) * act.act_basis_on_poly(q, v))
                        if lhs != rhs:
                            yield (f"({h.names[bi]}, {poly_to_text(u, a.variables)}, "
                                   f"{poly_to_text(v, a.variables)}) at order {k}")

    report.record("hopf-vertex-identity", identity_failures())
    return report


# ---------------------------------------------------------------------------
# fixed points


def fixed_subspace(act: HopfAction):
    """V^H = {v : h v = eps(h) v} plus vertex-subalgebra closure evidence."""
    h, a = act.hopf, act.backend
    n = len(act.monomials)
    rows = []
    for bi in range(h.dim):
        diff = act.matrices[bi] - Matrix.identity(n).scale(h.counit[bi])
        rows.extend(diff.row_lists())
    fixed = Matrix.from_rows(rows).kernel() if rows else Subspace.full(n)

    report = CheckReport()
    one = Poly.const(a.nvars, _ONE)
    report.record("contains-vacuum", [] if fixed.contains(a.coords_of(one)) else [None])
    polys = [a.poly_from_coords(list(v)) for v in fixed.basis]

    def derivation_failures():
        for p in polys:
            dp = a.derive(p)
            if dp.degree() <= a.degree_cap and not fixed.contains(a.coords_of(dp)):
                yield poly_to_text(p, a.variables)

    def mode_failures():
        for u in polys:
            dku = u
            for k in range(a.degree_cap + 1):
                if k:
                    dku = a.derive(dku)
                if dku.is_zero() or dku.degree() > a.degree_cap:
                    break
                for v in polys:
                    prod = dku * v
                    if prod.degree() <= a.degree_cap and not fixed.contains(a.coords_of(prod)):
                        yield (f"({poly_to_text(u, a.variables)}, k={k}, "
                               f"{poly_to_text(v, a.variables)})")

    report.record("derivation-closed", derivation_failures())
    report.record("vertex-mode-closed", mode_failures())
    return fixed, report


# ---------------------------------------------------------------------------
# annihilators, inner faithfulness


@dataclass
class AnnihilatorResult:
    kernel: Subspace      # subspace of H
    stabilized: bool      # agrees with the cap-(D-1) computation


def action_annihilator(act: HopfAction) -> AnnihilatorResult:
    """K = {h in H : rho(h) = 0 on A_{<=D}}, with downward-cap evidence."""
    if not act.filtration_compatible:
        raise FiltrationFlagRequired(
            "annihilator stabilisation needs a filtration-compatible action")
    h = act.hopf

    def annihilator_at(limit):
        keep = [i for i, e in enumerate(act.monomials) if sum(e) <= limit]
        rows = []
        for r in keep:
            for c in keep:
                rows.append([act.matrices[bi][r, c] for bi in range(h.dim)])
        return Matrix.from_rows(rows).kernel()

    cap = act.backend.degree_cap
    kern = annihilator_at(cap)
    if cap == 0:
        return AnnihilatorResult(kernel=kern, stabilized=True)
    below = annihilator_at(cap - 1)
    return AnnihilatorResult(kernel=kern, stabilized=below == kern)


def maximal_hopf_ideal_in(hopf: FinHopfAlgebra, sub: Subspace) -> Subspace:
    """Largest Hopf ideal inside a two-sided ideal, by shrinking iteration."""
    d = hopf.dim
    for v in sub.basis:
        for i in range(d):
            if not sub.contains(hopf.multiply(hopf.basis_vector(i), list(v))) or \
                    not sub.contains(hopf.multiply(list(v), hopf.basis_vector(i))):
                raise NotAnIdeal(
                    f"subspace is not a two-sided ideal (fails at {hopf.names[i]})")
    current = sub
    while True:
        if current.is_zero():
            return current
        r = current.dim
        mixed = mixed_tensor_span(d, current.basis)
        rows = [[hopf.counit_of(v) for v in current.basis]]
        s_resid = [current.reduce(hopf.antipode_of(v)) for v in current.basis]
        for coord in range(d):
            rows.append([s_resid[c][coord] for c in range(r)])
        c_resid = [mixed.reduce(hopf.comul_of(v)) for v in current.basis]
        for coord in range(d * d):
            rows.append([c_resid[c][coord] for c in range(r)])
        coeff_kernel = Matrix.from_rows(rows).kernel()
        if coeff_kernel.dim == r:
            return current
        current = Subspace.from_vectors(
            d, [linear_combination(lam, current.basis) for lam in coeff_kernel.basis])


def is_inner_faithful(act: HopfAction) -> bool:
    """True iff no nonzero Hopf ideal annihilates the carrier."""
    ann = action_annihilator(act).kernel
    return maximal_hopf_ideal_in(act.hopf, ann).is_zero()


@dataclass
class InnerFaithfulQuotient:
    quotient: HopfQuotient
    action: HopfAction
    fixed_preserved: bool


def inner_faithful_quotient(act: HopfAction) -> InnerFaithfulQuotient:
    """H/I for the maximal Hopf ideal I annihilating V; V^H is unchanged."""
    ann = action_annihilator(act).kernel
    ideal = maximal_hopf_ideal_in(act.hopf, ann)
    q = quotient_hopf(act.hopf, ideal)
    mats = [act.rho(q.section([_ONE if r == a else _ZERO
                               for r in range(q.hopf.dim)]))
            for a in range(q.hopf.dim)]
    induced = HopfAction(q.hopf, act.backend, mats)
    before, _ = fixed_subspace(act)
    after, _ = fixed_subspace(induced)
    assert is_inner_faithful(induced), "quotient action must be inner faithful"
    return InnerFaithfulQuotient(quotient=q, action=induced,
                                 fixed_preserved=before.basis == after.basis)


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
            row = h.comul[idx[-1]]
            for t, cc in enumerate(row):
                if cc != 0:
                    key = idx[:-1] + divmod(t, h.dim)
                    new[key] = new.get(key, _ZERO) + c * cc
        terms = new
    return terms


def tensor_power_faithfulness(act: HopfAction, s_max, budget=512) -> TensorFaithfulnessResult:
    """Annihilator dimension of H acting on V^{(x) s} for s = 1..s_max."""
    h = act.hopf
    n = len(act.monomials)
    table = []
    for s in range(1, s_max + 1):
        if n ** s > budget:
            raise BudgetExceeded(f"tensor dimension {n ** s} exceeds budget {budget}")
        rhos = []
        for b in range(h.dim):
            acc = None
            for idx, c in sorted(_iterated_comul(h, b, s).items()):
                mat = act.matrices[idx[0]]
                for slot in idx[1:]:
                    mat = mat.kron(act.matrices[slot])
                mat = mat.scale(c)
                acc = mat if acc is None else acc + mat
            rhos.append(acc)
        rows = [[rhos[b].entries[t] for b in range(h.dim)]
                for t in range(n ** (2 * s))]
        dim = Matrix.from_rows(rows).kernel().dim
        if table:
            assert dim <= table[-1], "tensor-power annihilators must shrink"
        table.append(dim)
    s0 = 1
    for s in range(len(table) - 1, 0, -1):
        if table[s] != table[s - 1]:
            s0 = s + 1
            break
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
    ann = action_annihilator(act).kernel
    ok_bi, why_bi = is_bialgebra_ideal(act.hopf, ann)
    ok_hopf, why_hopf = is_hopf_ideal(act.hopf, ann)
    if ok_bi and ok_hopf:
        return TheoremVerdict(status="PASS",
                              detail=f"kernel dimension {ann.dim}")
    return TheoremVerdict(status="FAIL", detail=why_bi or why_hopf or "")


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

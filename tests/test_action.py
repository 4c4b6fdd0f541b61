from fractions import Fraction

import pytest

from conftest import (
    action_matrices,
    columns_matrix,
    cyclic_scaling_action,
    edited_action,
    euler_backend,
    groups_are_isomorphic,
    s3_action,
    sweedler_poly_action,
    through_first_factor_action,
)
from hopfva.action import (
    HopfAction,
    action_annihilator,
    annihilator,
    check_D_commute,
    check_thm_group_algebra,
    check_thm_kernel_bialgebra_ideal,
    fixed_subspace,
    inner_faithful_quotient,
    invariants,
    is_inner_faithful,
    maximal_hopf_ideal_in,
    tensor_power_faithfulness,
    trivial_action,
    verify_module_algebra,
    verify_module_vertex_algebra,
)
from hopfva.errors import (
    BudgetExceeded,
    FiltrationFlagRequired,
    HypothesesNotMet,
    NotAnIdeal,
    TruncationOverflow,
)
from hopfva.hopf import (
    augmentation_ideal,
    cyclic_group_table,
    group_algebra,
    recognize_group_algebra,
    sweedler,
)
from hopfva import linalg
from hopfva.linalg import Matrix, Subspace, _kernel_of_columns
from hopfva.scalars import zeta
from hopfva.vertexalg import CommDiffVA, Poly

F = Fraction


def z_pow(k, c=1):
    return Poly.monomial((k,), F(c))


# --- construction -------------------------------------------------------------


def test_sweedler_extension_matches_hand_computation():
    act = sweedler_poly_action(m=0, cap=5)
    x_idx = act.hopf.names.index("x")
    # x z^2 = (x z) z + (g z)(x z) = z - z = 0, and x z^3 = z^2
    assert act.act_basis_on_poly(x_idx, z_pow(2)).is_zero()
    assert act.act_basis_on_poly(x_idx, z_pow(3)) == z_pow(2)
    assert act.act_basis_on_poly(x_idx, z_pow(1)) == Poly.const(1, F(1))
    assert act.filtration_compatible


def test_construction_rejects_non_multiplicative_matrices():
    h = group_algebra(cyclic_group_table(2))
    backend = euler_backend(2)
    monos = backend.monomials()
    identity = {e: {e: 1} for e in monos}
    shift = {e: {} for e in monos} | {monos[1]: {monos[0]: 1}}  # the entry (0, 1)
    with pytest.raises(ValueError):
        HopfAction(h, backend, [identity, shift])


# --- module algebra / module vertex algebra ------------------------------------


def test_sweedler_is_module_algebra():
    act = sweedler_poly_action(m=0, cap=5)
    assert verify_module_algebra(act).passed


def test_sign_action_is_module_algebra():
    act = cyclic_scaling_action(2, cap=5)
    assert verify_module_algebra(act).passed


def test_corrupted_action_fails_module_algebra():
    act = sweedler_poly_action(m=0, cap=3)
    x_idx = act.hopf.names.index("x")
    # overwrite x . z^2 := 1 instead of 0
    broken = edited_action(act, x_idx, (2,), (0,), F(1))
    report = verify_module_algebra(broken)
    ok, witness = report["module-algebra-rule"]
    assert not ok
    assert witness is not None


def test_scaling_actions_are_module_vertex_algebras():
    for n in (2, 3):
        act = cyclic_scaling_action(n, cap=4)
        report = verify_module_vertex_algebra(act, order=4)
        assert report.passed, (n, report)


def test_trivial_action_is_module_vertex_algebra():
    act = trivial_action(sweedler(), euler_backend(3))
    assert verify_module_vertex_algebra(act, order=3).passed


@pytest.mark.parametrize("m", [0, 1, 2])
def test_sweedler_action_fails_vertex_axioms(m):
    act = sweedler_poly_action(m=m, cap=4)
    report = verify_module_vertex_algebra(act, order=4)
    assert report["module-algebra-rule"][0]
    ok, witness = report["derivation-commutation"]
    assert not ok
    assert not report.passed


def _d_commutes_at(act, hopf_name, poly):
    bi = act.hopf.names.index(hopf_name)
    a = act.backend
    return act.act_basis_on_poly(bi, a.derive(poly)) == \
        a.derive(act.act_basis_on_poly(bi, poly))


def test_sweedler_d_commutation_witnesses_per_weight():
    # (x, z^2) is a genuine witness for m = 0 and m = 2; for m = 1 that pair
    # commutes and the violation appears at (x, z) instead
    for m in (0, 2):
        act = sweedler_poly_action(m=m, cap=4)
        assert not _d_commutes_at(act, "x", z_pow(2))
    act1 = sweedler_poly_action(m=1, cap=4)
    assert _d_commutes_at(act1, "x", z_pow(2))
    assert not _d_commutes_at(act1, "x", z_pow(1))


def test_check_d_commute_passes_for_scaling():
    act = cyclic_scaling_action(3, cap=5)
    assert check_D_commute(act) == (True, None)


# --- fixed points ---------------------------------------------------------------


def test_fixed_subspace_sign_action():
    act = cyclic_scaling_action(2, cap=6)
    fixed, report = fixed_subspace(act)
    assert fixed.dim == 4  # 1, x^2, x^4, x^6
    monos = list(act.monomials)
    for k in (0, 2, 4, 6):
        v = [F(0)] * len(monos)
        v[monos.index((k,))] = F(1)
        assert fixed.contains(v)
    assert report.passed


def test_fixed_subspace_trivial_action():
    act = trivial_action(sweedler(), euler_backend(3))
    fixed, report = fixed_subspace(act)
    assert fixed.dim == len(act.monomials)
    assert report.passed


def test_fixed_subspace_z3_over_cyclotomics():
    act = cyclic_scaling_action(3, cap=6)
    fixed, report = fixed_subspace(act)
    assert fixed.dim == 3  # 1, x^3, x^6
    monos = list(act.monomials)
    for k in (0, 3, 6):
        v = [F(0)] * len(monos)
        v[monos.index((k,))] = F(1)
        assert fixed.contains(v)
    assert report.passed


def test_sweedler_fixed_points_are_even_annihilated():
    act = sweedler_poly_action(m=0, cap=5)
    fixed, report = fixed_subspace(act)
    # g v = v and x v = 0 forces the even monomials
    assert fixed.dim == 3  # 1, z^2, z^4
    assert report["contains-vacuum"][0]
    # not a module vertex algebra, so V^H need not be derivation-closed:
    # d(z^2) = 2z leaves the fixed space
    assert not report["derivation-closed"][0]


# --- annihilator and inner faithfulness ----------------------------------------


def test_annihilator_faithful_action_is_zero():
    res = action_annihilator(cyclic_scaling_action(2, cap=4))
    assert res.kernel.is_zero()
    assert res.stabilized


def test_annihilator_through_first_factor():
    res = action_annihilator(through_first_factor_action(cap=4))
    expected = Subspace.from_vectors(4, [[-1, 1, 0, 0], [0, 0, -1, 1]])
    assert res.kernel == expected
    assert res.stabilized


def test_annihilator_trivial_sweedler_is_augmentation_ideal():
    act = trivial_action(sweedler(), euler_backend(3))
    res = action_annihilator(act)
    assert res.kernel == augmentation_ideal(sweedler())
    assert res.kernel.dim == 3


def test_annihilator_at_one_cap_is_the_kernel_that_action_annihilator_reports():
    for act in (cyclic_scaling_action(3, cap=4), through_first_factor_action(cap=4),
                sweedler_poly_action(m=0, cap=4), trivial_action(sweedler(), euler_backend(3))):
        res = action_annihilator(act)
        assert annihilator(act) == res.kernel
        assert res.stabilized == (annihilator(act, act.backend.degree_cap - 1) == res.kernel)
    # g swaps x and x^2 at D = 2: rho raises degrees, so no cap bounds it
    backend = euler_backend(2)
    swap = {(0,): {(0,): 1}, (1,): {(2,): 1}, (2,): {(1,): 1}}
    act = HopfAction(group_algebra(cyclic_group_table(2)), backend,
                     [{e: {e: 1} for e in backend.monomials()}, swap], check=False)
    for needs_caps in (annihilator, action_annihilator, is_inner_faithful):
        with pytest.raises(FiltrationFlagRequired):
            needs_caps(act)


def test_invariants_of_an_integral_action_reach_the_kernel_as_ints(monkeypatch):
    act = s3_action()
    # the columns of rho(b) e - eps(b) e with a Fraction coefficient 1, as
    # `invariants` built them before it kept ints
    one = Fraction(1)
    fraction_columns = [
        {(bi, t): c for bi, bc in enumerate(act._columns) for t, c in
         {**{t: one * a for t, a in bc[e].items()},
          e: one * bc[e].get(e, 0) - act.hopf.counit[bi]}.items() if c}
        for e in act.monomials]
    assert any(type(c) is Fraction for col in fraction_columns for c in col.values())
    rows = []
    component_kernel = linalg._component_kernel

    def recording(component_rows, ncols, kinds):
        rows.extend(component_rows)
        return component_kernel(component_rows, ncols, kinds)

    monkeypatch.setattr(linalg, "_component_kernel", recording)
    fixed = invariants(act)
    assert rows and all(type(c) is int for row in rows for c in row.values())
    monkeypatch.undo()
    assert fixed == _kernel_of_columns(fraction_columns, len(act.monomials))
    assert fixed.dim > 0


def test_maximal_hopf_ideal_examples():
    h2 = group_algebra(cyclic_group_table(2))
    ker_eps = augmentation_ideal(h2)
    assert maximal_hopf_ideal_in(h2, ker_eps) == ker_eps

    hs = sweedler()
    with pytest.raises(NotAnIdeal):
        maximal_hopf_ideal_in(hs, Subspace.from_vectors(4, [[0, 0, 1, 0]]))

    res = action_annihilator(through_first_factor_action(cap=3))
    ideal = maximal_hopf_ideal_in(group_algebra(
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]), res.kernel)
    assert ideal == res.kernel  # already a Hopf ideal


def test_inner_faithfulness():
    assert is_inner_faithful(cyclic_scaling_action(3, cap=4))
    assert not is_inner_faithful(through_first_factor_action(cap=4))
    # the Sweedler module-algebra action is inner faithful but not faithful
    act = sweedler_poly_action(m=0, cap=4)
    assert not action_annihilator(act).kernel.is_zero()
    assert is_inner_faithful(act)


def test_inner_faithful_quotient_through_first_factor():
    act = through_first_factor_action(cap=4)
    out = inner_faithful_quotient(act)
    assert out.quotient.hopf.dim == 2
    rec = recognize_group_algebra(out.quotient.hopf)
    assert groups_are_isomorphic([list(r) for r in rec.table], cyclic_group_table(2))
    assert out.fixed_preserved
    before, _ = fixed_subspace(act)
    after, _ = fixed_subspace(out.action)
    assert before.basis == after.basis


def test_inner_faithful_quotient_identity_when_already_faithful():
    act = cyclic_scaling_action(2, cap=3)
    out = inner_faithful_quotient(act)
    assert out.quotient.hopf.dim == 2
    assert out.fixed_preserved


def test_inner_faithful_quotient_trivial_sweedler():
    act = trivial_action(sweedler(), euler_backend(3))
    out = inner_faithful_quotient(act)
    assert out.quotient.hopf.dim == 1
    assert out.fixed_preserved


# --- tensor powers ---------------------------------------------------------------


def test_tensor_power_faithful_action():
    act = cyclic_scaling_action(2, cap=2)
    res = tensor_power_faithfulness(act, 3)
    assert res.table == [0, 0, 0]
    assert res.stabilization_index == 1


def test_tensor_power_sweedler_strictly_decreases():
    # x - gx annihilates Q[z] but not its tensor square
    act = sweedler_poly_action(m=0, cap=2)
    res = tensor_power_faithfulness(act, 2)
    assert res.table == [1, 0]
    assert res.stabilization_index == 2


def test_tensor_power_truncation_degenerate_z4():
    # at cap 2 the Z/4 scaling action misses the eigenvalue zeta^3, so the
    # interpolating combination (g-e)(g-zeta e)(g+e) kills the carrier but
    # not its tensor square: inner faithful, faithful only from s = 2 on
    act = cyclic_scaling_action(4, cap=2)
    assert is_inner_faithful(act)
    res = tensor_power_faithfulness(act, 3)
    assert res.table == [1, 0, 0]
    assert res.stabilization_index == 2


def test_tensor_power_through_first_factor_constant():
    act = through_first_factor_action(cap=2)
    res = tensor_power_faithfulness(act, 3)
    assert res.table == [2, 2, 2]
    assert res.stabilization_index == 1


def _kronecker_table(act, s_max):
    """Annihilator dimensions on V^{(x) s}, from dense Kronecker products of
    the action matrices over an iterated coproduct computed here."""
    h = act.hopf
    d = h.dim
    matrices = action_matrices(act)
    table = []
    for s in range(1, s_max + 1):
        rhos = []
        for b in range(d):
            terms = {(b,): F(1)}
            for _ in range(s - 1):
                longer = {}
                for idx, c in terms.items():
                    for t, cc in enumerate(h.comul_of(h.basis_vector(idx[-1]))):
                        if cc != 0:
                            key = idx[:-1] + divmod(t, d)
                            longer[key] = longer.get(key, F(0)) + c * cc
                terms = longer
            total = None
            for idx, c in terms.items():
                mat = matrices[idx[0]]
                for slot in idx[1:]:
                    mat = mat.kron(matrices[slot])
                scaled = [c * a for a in mat.entries]
                total = scaled if total is None else [x + y for x, y in zip(total, scaled)]
            rhos.append(total)
        cells = len(rhos[0])
        table.append(Matrix.from_rows([[rho[t] for rho in rhos]
                                       for t in range(cells)]).kernel().dim)
    return table


@pytest.mark.parametrize("make,s_max", [
    (lambda: cyclic_scaling_action(3, cap=2), 3),
    (lambda: cyclic_scaling_action(4, cap=2), 3),
    (lambda: through_first_factor_action(cap=2), 3),
    (lambda: sweedler_poly_action(m=0, cap=2), 3),
    (lambda: sweedler_poly_action(m=1, cap=1), 3),
    (lambda: s3_action(cap=1), 2),
], ids=["z3", "z4", "v4-first", "sweedler", "sweedler-m1", "s3"])
def test_tensor_power_faithfulness_matches_kronecker_oracle(make, s_max):
    act = make()
    assert tensor_power_faithfulness(act, s_max).table == _kronecker_table(act, s_max)


def test_tensor_power_through_first_factor_at_343_dimensions():
    # Z/2 x Z/2 acts through its first factor, so the second factor's
    # augmentation (e - t) and its translate (s - st) kill every tensor power
    act = through_first_factor_action(cap=6)
    res = tensor_power_faithfulness(act, 3)
    assert res.table == [2, 2, 2]
    assert res.stabilization_index == 1


def test_tensor_power_budget():
    act = cyclic_scaling_action(2, cap=6)
    with pytest.raises(BudgetExceeded):
        tensor_power_faithfulness(act, 4, budget=100)


# --- fixed vectors act centrally through all their modes --------------------------


def _modes_commute(act, max_k):
    a = act.backend
    fixed, _ = fixed_subspace(act)
    for v in fixed.basis:
        u = a.poly_from_coords(list(v))
        for k in range(max_k + 1):
            dku = a.derive_k(u, k)
            if dku.is_zero():
                continue
            for bi in range(act.hopf.dim):
                for mono in act.monomials:
                    m_poly = Poly.monomial(mono)
                    if (dku * m_poly).degree() > a.degree_cap:
                        continue
                    lhs = act.act_basis_on_poly(bi, dku * m_poly)
                    rhs = dku * act.act_basis_on_poly(bi, m_poly)
                    if lhs != rhs:
                        return False
    return True


def test_fixed_modes_commute_with_action():
    # module vertex algebras: all modes of V^H commute with the action
    assert _modes_commute(cyclic_scaling_action(3, cap=5), 3)
    assert _modes_commute(through_first_factor_action(cap=5), 3)
    # a bare module algebra only guarantees k = 0 (plain multiplication)
    sw = sweedler_poly_action(m=0, cap=5)
    assert _modes_commute(sw, 0)
    assert not _modes_commute(sw, 1)


# --- the section-5 cocommutativity mechanism ------------------------------------


def test_faithful_tensor_action_forces_cocommutativity():
    act = cyclic_scaling_action(3, cap=3)
    h = act.hopf
    d = h.dim
    matrices = action_matrices(act)
    cols = []
    for i in range(d):
        for j in range(d):
            cols.append(matrices[i].kron(matrices[j]).vec())
    pair_map = Matrix.from_rows(cols).transpose()
    assert pair_map.kernel().is_zero()  # rho (x) rho is injective on H (x) H
    for k in range(d):
        row = h.comul_of(h.basis_vector(k))
        flipped = [row[j * d + i] for i in range(d) for j in range(d)]
        diff = [a - b for a, b in zip(flipped, row)]
        assert all(c == 0 for c in pair_map.apply(diff))
        assert all(c == 0 for c in diff)  # hence Delta is symmetric


# --- theorem checkers -------------------------------------------------------------


def test_thm_kernel_bialgebra_ideal_corpus_passes():
    from conftest import corpus_module_va_actions

    for name, act in corpus_module_va_actions(cap=3).items():
        verdict = check_thm_kernel_bialgebra_ideal(act)
        assert verdict.status == "PASS", (name, verdict)


def test_thm_kernel_refuses_sweedler_action():
    act = sweedler_poly_action(m=0, cap=3)
    with pytest.raises(HypothesesNotMet) as exc:
        check_thm_kernel_bialgebra_ideal(act)
    assert "not a module vertex algebra" in exc.value.failed


def test_thm_kernel_hypothesis_not_established_on_degenerate_backend():
    one = Poly.const(2, F(1))
    xy = CommDiffVA(["x", "y"], {"x": one, "y": one}, 1)
    act = trivial_action(group_algebra(cyclic_group_table(2)), xy)
    verdict = check_thm_kernel_bialgebra_ideal(act, pi2_order=8)
    assert verdict.status == "hypothesis-not-established"


def test_thm_group_algebra_passes_on_inner_faithful_corpus():
    for n in (2, 3, 4):
        verdict = check_thm_group_algebra(cyclic_scaling_action(n, cap=3))
        assert verdict.status == "PASS", n


def test_thm_group_algebra_refusals():
    with pytest.raises(HypothesesNotMet) as exc:
        check_thm_group_algebra(sweedler_poly_action(m=0, cap=3))
    assert "module-vertex-algebra" in exc.value.failed

    with pytest.raises(HypothesesNotMet) as exc:
        check_thm_group_algebra(through_first_factor_action(cap=3))
    assert "inner-faithful" in exc.value.failed

    with pytest.raises(HypothesesNotMet) as exc:
        check_thm_group_algebra(trivial_action(sweedler(), euler_backend(3)))
    assert "inner-faithful" in exc.value.failed


# --- the sparse columns against the dense matrices --------------------------------


ACTION_FIXTURES = {
    "s3": lambda: s3_action(cap=3),
    "sweedler": lambda: sweedler_poly_action(m=0, cap=4),
    "sweedler-m2": lambda: sweedler_poly_action(m=2, cap=4),
    "z3-diagonal": lambda: cyclic_scaling_action(3, cap=4),
    "v4-diagonal": lambda: through_first_factor_action(cap=4),
}


def _dense_route(act, bi, poly):
    """coords_of, a dense matrix-vector loop over every entry, poly_from_coords."""
    a = act.backend
    coords = a.coords_of(poly)
    m = columns_matrix(act.monomials, act._columns[bi])
    n = len(coords)
    return a.poly_from_coords([sum((m[i, j] * coords[j] for j in range(n)), F(0))
                               for i in range(n)])


@pytest.mark.parametrize("name", sorted(ACTION_FIXTURES))
def test_act_basis_on_poly_matches_dense_route(name):
    act = ACTION_FIXTURES[name]()
    a = act.backend
    monos = act.monomials
    mixed = Poly(a.nvars, {e: F(k + 1, 2) for k, e in enumerate(monos)})
    for bi in range(act.hopf.dim):
        for e in monos:
            poly = Poly.monomial(e)
            assert act.act_basis_on_poly(bi, poly) == _dense_route(act, bi, poly)
        assert act.act_basis_on_poly(bi, mixed) == _dense_route(act, bi, mixed)
    beyond = Poly.monomial((a.degree_cap + 1,) + (0,) * (a.nvars - 1))
    with pytest.raises(TruncationOverflow) as exc:
        act.act_basis_on_poly(0, beyond)
    with pytest.raises(TruncationOverflow) as dense:
        a.coords_of(beyond)
    assert str(exc.value) == str(dense.value)


@pytest.mark.parametrize("name", sorted(ACTION_FIXTURES))
def test_rho_is_the_combination_of_the_matrices(name):
    act = ACTION_FIXTURES[name]()
    h = act.hopf
    n = len(act.monomials)
    hvec = [F(k + 1, 3) * (-1) ** k for k in range(h.dim)]
    got = columns_matrix(act.monomials, act.rho(hvec))
    mats = action_matrices(act)
    assert got.row_lists() == [
        [sum((c * m[i, j] for c, m in zip(hvec, mats)), F(0)) for j in range(n)]
        for i in range(n)]


def test_non_multiplicative_witness_keeps_the_first_pair():
    # Sweedler's x acting as g would: multiplicativity first fails at (g, x)
    act = sweedler_poly_action(m=0, cap=2)
    columns = list(act._columns)
    names = act.hopf.names
    columns[names.index("x")] = columns[names.index("g")]
    with pytest.raises(ValueError, match=r"not multiplicative at \(g, x\)"):
        HopfAction(act.hopf, act.backend, columns)


# --- known answers at caps beyond the desk-scale corpus -------------------------


def test_s3_permutations_form_a_module_vertex_algebra_at_cap_3():
    # permutations of the variables are algebra automorphisms, and they
    # commute with d = sum x_i d/dx_i, which fixes every generator
    act = s3_action(cap=3)
    report = verify_module_vertex_algebra(act)   # default order: 20 monomials
    assert report.passed, report

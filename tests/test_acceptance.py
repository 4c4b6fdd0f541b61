"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import itertools
import json
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources

import pytest

from conftest import (
    corpus_module_va_actions,
    cyclic_scaling_action,
    euler_backend,
    groups_are_isomorphic,
    sweedler_poly_action,
    through_first_factor_action,
)
from hopfva import cli
from hopfva.action import (
    check_thm_group_algebra,
    check_thm_kernel_bialgebra_ideal,
    fixed_subspace,
    inner_faithful_quotient,
    is_inner_faithful,
    tensor_power_faithfulness,
    trivial_action,
    verify_module_algebra,
    verify_module_vertex_algebra,
)
from hopfva.errors import HypothesesNotMet
from hopfva.hopf import (
    FinHopfAlgebra,
    cyclic_group_table,
    group_algebra,
    is_hopf_ideal,
    product_group_table,
    recognize_group_algebra,
    sweedler,
    symmetric_group_table,
    verify_hopf_axioms,
)
from hopfva.hopf import NotGroupAlgebra
from hopfva.action import action_annihilator
from hopfva.schurweyl import (
    FinGroupRep,
    check_commutant,
    cyclic_reachability,
    decompose,
    distinguish_isotypes,
    multiplicity_space,
)
from hopfva.vertexalg import (
    Poly,
    falling_bracket,
    pi2_kernel,
    single_variable_backend,
    vandermonde_monomial_decision,
    z2_kernel,
)
from test_schurweyl import s3_action, s3_chartable
from test_vertexalg import _oracle_pi2_dim, xy_diagonal

F = Fraction


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num:2d}: PASS - {desc}")


GROUPS = {
    "Z/2": cyclic_group_table(2),
    "Z/3": cyclic_group_table(3),
    "Z/4": cyclic_group_table(4),
    "Z/2xZ/2": product_group_table(cyclic_group_table(2), cyclic_group_table(2)),
    "S3": symmetric_group_table(3),
}


def test_criterion_1_hopf_axioms():
    with criterion(1, "Hopf axioms pass for the group algebras and Sweedler; "
                      "a mutated antipode fails with witness"):
        for name, table in GROUPS.items():
            assert verify_hopf_axioms(group_algebra(table)).passed, name
        hs = sweedler()
        assert verify_hopf_axioms(hs).passed
        bad_antipode = [(0, 0, 1), (1, 1, 1), (2, 3, 1), (3, 2, 1)]  # S(x) = +gx
        mutated = FinHopfAlgebra(4, hs.names, hs.mul_entries(), hs.unit, hs.comul_entries(),
                                 hs.counit, bad_antipode)
        report = verify_hopf_axioms(mutated)
        assert not report.passed
        ok, witness = report["antipode-left"]
        assert not ok and witness == "x"


def test_criterion_2_cocommutativity_and_recognition():
    with criterion(2, "Sweedler is non-cocommutative with witness x; all five "
                      "group algebras are recognized; Sweedler is refused"):
        from hopfva.hopf import is_cocommutative

        ok, witness = is_cocommutative(sweedler())
        assert not ok and witness == "x"
        for name, table in GROUPS.items():
            rec = recognize_group_algebra(group_algebra(table))
            assert groups_are_isomorphic([list(r) for r in rec.table], table), name
        with pytest.raises(NotGroupAlgebra):
            recognize_group_algebra(sweedler())


def _laplace_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _laplace_det(minor)
        out += term if j % 2 == 0 else -term
    return out


def _enumerate_pair_families(limit):
    families = []
    for m in range(4):
        for total in range(9):
            for s in (1, 2, 3, 4):
                for ns in itertools.combinations(range(min(8, total) + 1), s):
                    ns = tuple(reversed(ns))  # strictly decreasing
                    pairs = [(n, total - n) for n in ns]
                    families.append((m, pairs))
                    if len(families) == limit:
                        return families
    return families


def test_criterion_3_pi2_injectivity_and_vandermonde():
    with criterion(3, "pi2 kernel is zero and stabilized for x^m d/dx at D=6; "
                      "50 Vandermonde families independent vs determinant oracle"):
        for m in (0, 1, 2, 3):
            res = pi2_kernel(single_variable_backend(m, 6))  # default order 49
            assert res.kernel.is_zero(), m
            assert res.stabilized, m
        families = _enumerate_pair_families(50)
        assert len(families) == 50
        for m, pairs in families:
            verdict = vandermonde_monomial_decision(m, pairs)
            rows = [[falling_bracket(n, k, m) for n, _ in pairs]
                    for k in range(len(pairs))]
            assert (_laplace_det(rows) != 0) == (verdict == "independent")
            assert verdict == "independent", (m, pairs)


def test_criterion_4_pi2_counterexample():
    with criterion(4, "xy-diagonal pi2 kernel contains the flip witness and "
                      "matches the brute-force oracle at D in {1, 2}"):
        for cap in (1, 2):
            backend = xy_diagonal(cap)
            res = pi2_kernel(backend, order=10)
            assert res.kernel.dim == _oracle_pi2_dim(cap, 10), cap
            monos = list(res.monomials)
            i1 = monos.index((0, 0))
            ix, iy = monos.index((1, 0)), monos.index((0, 1))
            witness = res.vector(
                {(ix, i1): 1, (iy, i1): -1, (i1, ix): -1, (i1, iy): 1})
            assert res.kernel.contains(witness)


def test_criterion_5_nondegeneracy_linkage():
    with criterion(5, "Z2 kernel nonzero for the xy-diagonal backend with the "
                      "embedded pi2 witness; zero for (Q[x], x d/dx) at D=4"):
        backend = xy_diagonal(1)
        z2 = z2_kernel(backend, order=8, laurent_bound=1)
        assert not z2.kernel.is_zero()
        p2 = pi2_kernel(backend, order=8)
        for row in p2.kernel.nonzero_rows():
            entries = {key + (0, 0): c for key, c in p2.entries(row)}
            assert z2.kernel.contains(z2.vector(entries))
        euler = single_variable_backend(1, 4)
        assert z2_kernel(euler, order=20, laurent_bound=2).kernel.is_zero()


def test_criterion_6_def31_discriminates():
    with criterion(6, "Sweedler on Q[z] is an inner-faithful module algebra but "
                      "no module vertex algebra: derivation-commutation fails "
                      "for m in {0,1,2}"):
        for m in (0, 1, 2):
            act = sweedler_poly_action(m=m, cap=4)
            assert verify_module_algebra(act).passed, m
            assert is_inner_faithful(act), m
            report = verify_module_vertex_algebra(act, order=4)
            assert not report["derivation-commutation"][0], m
            assert not report.passed, m
            # the stated witness pair (x, z^2): valid for m = 0 and m = 2;
            # at m = 1 that pair commutes and (x, z) witnesses instead
            x_idx = act.hopf.names.index("x")
            a = act.backend
            z2_poly = Poly.monomial((2,))
            z1_poly = Poly.monomial((1,))
            mismatch_z2 = act.act_basis_on_poly(x_idx, a.derive(z2_poly)) != \
                a.derive(act.act_basis_on_poly(x_idx, z2_poly))
            mismatch_z1 = act.act_basis_on_poly(x_idx, a.derive(z1_poly)) != \
                a.derive(act.act_basis_on_poly(x_idx, z1_poly))
            if m in (0, 2):
                assert mismatch_z2, m
            else:
                assert not mismatch_z2 and mismatch_z1, m


def test_criterion_7_thm54_corpus():
    with criterion(7, "every corpus action kernel is a bialgebra ideal, hence "
                      "in finite dimension a Hopf ideal"):
        for name, act in corpus_module_va_actions(cap=4).items():
            verdict = check_thm_kernel_bialgebra_ideal(act)
            assert verdict.status == "PASS", (name, verdict)
            ann = action_annihilator(act).kernel
            ok, why = is_hopf_ideal(act.hopf, ann)
            assert ok, (name, why)


def test_criterion_8_thm51_pipeline():
    with criterion(8, "group-algebra checker: PASS on inner-faithful corpus "
                      "actions, HypothesesNotMet (never FAIL) on the others"):
        for n in (2, 3, 4):
            verdict = check_thm_group_algebra(cyclic_scaling_action(n, cap=4))
            assert verdict.status == "PASS", n
        refusing = {
            "v4-through-first": through_first_factor_action(cap=4),
            "trivial-sweedler": trivial_action(sweedler(), euler_backend(4)),
            "trivial-s3": trivial_action(group_algebra(symmetric_group_table(3)),
                                         euler_backend(4)),
            "sweedler-module-algebra": sweedler_poly_action(m=0, cap=4),
        }
        for name, act in refusing.items():
            with pytest.raises(HypothesesNotMet):
                check_thm_group_algebra(act)


def test_criterion_9_inner_faithful_quotient():
    with criterion(9, "through-first-factor quotient is Q[Z/2] with the fixed "
                      "subspace byte-identical before and after"):
        act = through_first_factor_action(cap=4)
        out = inner_faithful_quotient(act)
        assert out.quotient.hopf.dim == 2
        rec = recognize_group_algebra(out.quotient.hopf)
        assert groups_are_isomorphic([list(r) for r in rec.table],
                                     cyclic_group_table(2))
        before, _ = fixed_subspace(act)
        after, _ = fixed_subspace(out.action)
        from hopfva.scalars import scalar_to_text

        serialize = lambda sub: json.dumps(
            [[scalar_to_text(c) for c in row] for row in sub.basis],
            sort_keys=True, separators=(",", ":")).encode()
        assert serialize(before) == serialize(after)
        assert out.fixed_preserved


def test_criterion_10_tensor_power_faithfulness():
    with criterion(10, "tensor powers: s0 = 1 for faithful corpus actions, "
                       "constant nonzero annihilator through the first factor"):
        for n in (2, 3, 4):
            # the scaling action is faithful once the cap reaches n - 1
            res = tensor_power_faithfulness(cyclic_scaling_action(n, cap=3), 3)
            assert res.table == [0, 0, 0], n
            assert res.stabilization_index == 1, n
        res = tensor_power_faithfulness(through_first_factor_action(cap=2), 3)
        assert res.table == [2, 2, 2]
        assert res.stabilization_index == 1


def test_criterion_11_schur_weyl_mechanism():
    with criterion(11, "Z/2 at D=6: even/odd decomposition (4, 3), exact "
                       "projectors, commutant, full reachability, distinguish; "
                       "S3 degree-1 multiplicities (1, 1)"):
        from test_schurweyl import z2_chartable

        rep = FinGroupRep.from_hopf_action(cyclic_scaling_action(2, cap=6))
        table = z2_chartable()
        decomp = decompose(table, rep)  # asserts idempotence + completeness
        assert decomp.isotypes["triv"].dim == 4
        assert decomp.isotypes["sign"].dim == 3
        evens = [Poly.monomial((k,)) for k in (0, 2, 4, 6)]
        assert check_commutant(rep, evens, 2).passed
        reach = cyclic_reachability(rep, table, "sign", Poly.monomial((1,)), 2)
        assert reach.fills_isotype
        verdict = distinguish_isotypes(decomp, "triv", "sign")
        assert verdict.kind == "degreewise-dims"
        spaces = multiplicity_space(table, rep, "sign")
        assert [len(s) for s in spaces] == [0, 1, 0, 1, 0, 1, 0]

        s3rep = FinGroupRep.from_hopf_action(s3_action(cap=2))
        s3table = s3_chartable()
        s3decomp = decompose(s3table, s3rep)
        assert s3decomp.multiplicities["triv"][1] == 1
        assert s3decomp.multiplicities["std"][1] == 1
        assert s3decomp.multiplicities["sign"][1] == 0
        # character oracle: <(3,1,0), chi> with class sizes (1,3,2)
        perm_char = [F(3), F(1), F(0)]
        sizes = [1, 3, 2]
        for name, expect in (("triv", 1), ("std", 1), ("sign", 0)):
            ch = s3table.char(name)
            inner = sum(s * c * v
                        for s, c, v in zip(sizes, perm_char, ch.values)) / 6
            assert inner == expect


def _fixture(name):
    return str(resources.files("hopfva") / "fixtures" / name)


def test_criterion_12_cli_determinism(capsys):
    with criterion(12, "every CLI command emits byte-identical machine blocks "
                       "across two runs"):
        sw, z2, xy = (_fixture("sweedler.json"), _fixture("z2_on_xddx.json"),
                      _fixture("xy_diagonal.json"))
        invocations = [
            ["verify-hopf", "--workspace", sw, "--object", "sweedler"],
            ["cocommutative", "--workspace", sw, "--object", "sweedler"],
            ["group-likes", "--workspace", z2, "--object", "qz2"],
            ["recognize-group-algebra", "--workspace", z2, "--object", "qz2"],
            ["verify-action", "--workspace", sw, "--object", "sweedler_on_z"],
            ["pi2-kernel", "--workspace", xy, "--object", "xy_diag",
             "--cap-d", "1", "--order-k", "10"],
            ["pin-check", "--workspace", z2, "--object", "xddx",
             "--cap-d", "2", "--order-k", "6"],
            ["z2-kernel", "--workspace", xy, "--object", "xy_diag",
             "--cap-d", "1", "--order-k", "6", "--laurent-b", "1"],
            ["fixed-points", "--workspace", z2, "--object", "z2_on_xddx",
             "--cap-d", "4"],
            ["annihilator", "--workspace", sw, "--object", "sweedler_on_z"],
            ["inner-faithful", "--workspace", sw, "--object", "sweedler_on_z"],
            ["quotient", "--workspace", sw, "--object", "sweedler_on_z"],
            ["tensor-faithful", "--workspace", sw, "--object", "sweedler_on_z",
             "--cap-d", "2", "--s-max", "2"],
            ["thm-5-1", "--workspace", z2, "--object", "z2_on_xddx",
             "--cap-d", "4"],
            ["thm-5-4", "--workspace", z2, "--object", "z2_on_xddx",
             "--cap-d", "4"],
            ["decompose", "--workspace", z2, "--object", "z2_on_xddx",
             "--characters", "z2chars"],
            ["multiplicity", "--workspace", z2, "--object", "z2_on_xddx",
             "--characters", "z2chars", "--irrep", "sign"],
            ["commutant", "--workspace", z2, "--object", "z2_on_xddx",
             "--cap-d", "4"],
            ["reach", "--workspace", z2, "--object", "z2_on_xddx",
             "--characters", "z2chars", "--irrep", "sign", "--seed", "x"],
            ["distinguish", "--workspace", z2, "--object", "z2_on_xddx",
             "--characters", "z2chars", "--irrep", "triv", "--irrep2", "sign"],
        ]
        assert {argv[0] for argv in invocations} == set(cli.COMMANDS)
        for argv in invocations:
            cli.main(argv + ["--json-only"])
            first = capsys.readouterr().out
            cli.main(argv + ["--json-only"])
            second = capsys.readouterr().out
            assert first == second and first.strip(), argv[0]

import json
from fractions import Fraction

import pytest

from conftest import count_constructions, groups_are_isomorphic, tensors_entry
from hopfva import cli
from hopfva.action import maximal_hopf_ideal_in
from hopfva.errors import (
    InvalidGroupTable,
    NotGroupAlgebra,
    NotHopfIdeal,
    SplitFailure,
)
from hopfva.hopf import (
    FinHopfAlgebra,
    augmentation_ideal,
    cyclic_group_table,
    dual_hopf,
    generating_set,
    group_algebra,
    group_likes,
    on_generators,
    is_bialgebra_ideal,
    is_cocommutative,
    is_hopf_ideal,
    product_group_table,
    quotient_hopf,
    recognize_group_algebra,
    sweedler,
    symmetric_group_table,
    verify_hopf_axioms,
)
from hopfva.linalg import Subspace
from hopfva.scalars import common_conductor, zeta

F = Fraction

klein_table = product_group_table(cyclic_group_table(2), cyclic_group_table(2))


def all_group_algebras():
    return {
        "z2": group_algebra(cyclic_group_table(2)),
        "z3": group_algebra(cyclic_group_table(3)),
        "z4": group_algebra(cyclic_group_table(4)),
        "klein": group_algebra(klein_table),
        "s3": group_algebra(symmetric_group_table(3)),
    }


def test_axioms_pass_for_group_algebras_and_sweedler():
    for name, h in all_group_algebras().items():
        report = verify_hopf_axioms(h)
        assert report.passed, (name, report)
    assert verify_hopf_axioms(sweedler()).passed


def _mutated_sweedler():
    """Sweedler with S(x) redefined to +gx; breaks the antipode axiom."""
    h = sweedler()
    bad_antipode = [(0, 0, 1), (1, 1, 1), (2, 3, 1),
                    (3, 2, 1)]  # S(x) = +gx instead of -gx
    return FinHopfAlgebra(4, h.names, h.mul_entries(), h.unit, h.comul_entries(), h.counit,
                          bad_antipode)


def test_mutated_antipode_fails_with_witness_x():
    report = verify_hopf_axioms(_mutated_sweedler())
    ok, witness = report["antipode-left"]
    # mu(S(x)id)Delta(x) = S(x)*1 + S(g)*x = gx + gx = 2gx != 0 by hand
    assert not ok
    assert witness == "x"
    assert not report.passed


def test_cocommutativity():
    assert is_cocommutative(group_algebra(cyclic_group_table(3))) == (True, None)
    ok, witness = is_cocommutative(sweedler())
    assert not ok
    assert witness == "x"
    # group algebras of nonabelian groups are still cocommutative
    assert is_cocommutative(group_algebra(symmetric_group_table(3)))[0]
    assert is_cocommutative(dual_hopf(group_algebra(cyclic_group_table(2))))[0]


def test_group_likes_of_group_algebra():
    h = group_algebra(cyclic_group_table(2))
    likes = group_likes(h)
    assert likes == [(F(1), F(0)), (F(0), F(1))]  # the unit first


def test_group_likes_of_sweedler_are_computed():
    # the dual of Sweedler's algebra is not commutative; its commutator
    # ideal is spanned by x*, gx* and the quotient is Q[Z/2]*, whose two
    # characters are 1 and g
    likes = group_likes(sweedler())
    assert likes == [(F(1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0))]


def test_group_likes_of_sweedler_in_reversed_basis():
    # the same tensors on the basis gx, x, g, 1: the unit still comes first
    h = sweedler()
    r = [3, 2, 1, 0]  # new basis element i is old basis element r[i], and r = r^-1
    rev = FinHopfAlgebra(
        4, [h.names[k] for k in r],
        [(r[i], r[j], r[k], c) for i, j, k, c in h.mul_entries()],
        [h.unit[k] for k in r],
        [(r[k], r[i], r[j], c) for k, i, j, c in h.comul_entries()],
        [h.counit[k] for k in r],
        [(r[i], r[j], c) for j, pairs in enumerate(h.antipode_nonzero) for i, c in pairs])
    assert verify_hopf_axioms(rev).passed
    assert group_likes(rev) == [(F(0), F(0), F(0), F(1)), (F(0), F(0), F(1), F(0))]
    # the unit b_3 is found where it is; gx gx = x x = 0 reach nothing
    assert generating_set(rev) == (0, 1, 2)


def test_group_likes_of_dual_z3_needs_conductor():
    # the dual of Q[Z/3] has group-likes = characters of Z/3, which live in
    # Q(zeta_3); over Q the dual-algebra split hits x^2 + x + 1
    hd = dual_hopf(group_algebra(cyclic_group_table(3)))
    with pytest.raises(SplitFailure) as exc:
        group_likes(hd)
    assert exc.value.reason == "extend-conductor"
    likes = group_likes(hd, conductor=3)
    assert len(likes) == 3
    rec = recognize_group_algebra(hd, conductor=3)
    assert groups_are_isomorphic([list(r) for r in rec.table], cyclic_group_table(3))


def test_recognize_group_algebras():
    expected = {
        "z2": cyclic_group_table(2),
        "z3": cyclic_group_table(3),
        "z4": cyclic_group_table(4),
        "klein": klein_table,
        "s3": symmetric_group_table(3),
    }
    for name, h in all_group_algebras().items():
        rec = recognize_group_algebra(h)
        assert groups_are_isomorphic([list(r) for r in rec.table], expected[name]), name


def test_recognize_rejects_sweedler():
    with pytest.raises(NotGroupAlgebra) as exc:
        recognize_group_algebra(sweedler())
    assert "cocommutative" in str(exc.value)


def test_bialgebra_ideal_checks():
    h2 = group_algebra(cyclic_group_table(2))
    ok, _ = is_bialgebra_ideal(h2, augmentation_ideal(h2))
    assert ok

    hs = sweedler()
    span_x = Subspace.from_vectors(4, [[0, 0, 1, 0]])
    ok, why = is_bialgebra_ideal(hs, span_x)
    assert not ok and "escapes I" in why

    span_x_gx = Subspace.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert is_bialgebra_ideal(hs, span_x_gx) == (True, None)


def test_hopf_ideal_checks():
    hs = sweedler()
    span_x_gx = Subspace.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert is_hopf_ideal(hs, span_x_gx) == (True, None)  # S(x) = -gx stays inside
    assert is_hopf_ideal(hs, Subspace.zero(4)) == (True, None)
    for h in all_group_algebras().values():
        assert is_hopf_ideal(h, augmentation_ideal(h)) == (True, None)


def test_quotient_sweedler_by_radical_is_qz2():
    hs = sweedler()
    ideal = Subspace.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    q = quotient_hopf(hs, ideal)
    hq = q.hopf
    z2 = group_algebra(cyclic_group_table(2))
    assert hq.dim == 2
    assert verify_hopf_axioms(hq).passed
    assert hq.mul_nonzero == z2.mul_nonzero
    assert hq.comul_nonzero == z2.comul_nonzero
    assert hq.counit == z2.counit
    assert hq.unit == z2.unit
    assert hq.antipode_nonzero == z2.antipode_nonzero
    rec = recognize_group_algebra(hq)
    assert groups_are_isomorphic([list(r) for r in rec.table], cyclic_group_table(2))


def test_the_product_conductor_is_read_once_and_equals_the_scan():
    z3 = group_algebra(cyclic_group_table(3))
    radical = Subspace.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    # shapes only, not Hopf: a product over Q(zeta_12), a coproduct over Q(zeta_5)
    skewed = FinHopfAlgebra(2, ("a", "b"), [(0, 0, 0, 1), (0, 1, 1, zeta(3)), (1, 1, 0, zeta(4))],
                            [1, 0], [(0, 0, 0, 1), (1, 0, 1, zeta(5))], [1, 0],
                            [(0, 0, 1), (1, 1, 1)])
    algebras = [z3, dual_hopf(z3), group_algebra(symmetric_group_table(3)), sweedler(),
                quotient_hopf(sweedler(), radical).hopf, skewed, dual_hopf(skewed)]
    assert [h.mul_conductor for h in algebras] == \
        [common_conductor(c for *_, c in h.mul_entries()) for h in algebras] == \
        [1, 1, 1, 1, 1, 12, 5]


def test_quotient_by_zero_is_identity():
    hs = sweedler()
    q = quotient_hopf(hs, Subspace.zero(4))
    assert verify_hopf_axioms(q.hopf).passed
    assert q.hopf.mul_nonzero == hs.mul_nonzero
    assert q.hopf.comul_nonzero == hs.comul_nonzero
    assert q.hopf.antipode_nonzero == hs.antipode_nonzero


def test_quotient_z4_by_square_relation():
    h = group_algebra(cyclic_group_table(4))
    # span{g^2 - e, g^3 - g} is a Hopf ideal; the quotient is Q[Z/2]
    ideal = Subspace.from_vectors(4, [[-1, 0, 1, 0], [0, -1, 0, 1]])
    assert is_hopf_ideal(h, ideal) == (True, None)
    q = quotient_hopf(h, ideal)
    assert q.hopf.dim == 2
    assert verify_hopf_axioms(q.hopf).passed
    rec = recognize_group_algebra(q.hopf)
    assert groups_are_isomorphic([list(r) for r in rec.table], cyclic_group_table(2))


def test_quotient_rejects_non_hopf_ideal():
    hs = sweedler()
    with pytest.raises(NotHopfIdeal):
        quotient_hopf(hs, Subspace.from_vectors(4, [[0, 0, 1, 0]]))


def test_quotient_projection_preserves_structure_maps():
    hs = sweedler()
    ideal = Subspace.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    q = quotient_hopf(hs, ideal)
    hq = q.hopf
    assert verify_hopf_axioms(hq).passed
    for i in range(4):
        for j in range(4):
            lhs = q.project(hs.multiply(hs.basis_vector(i), hs.basis_vector(j)))
            rhs = hq.multiply(q.project(hs.basis_vector(i)),
                              q.project(hs.basis_vector(j)))
            assert lhs == rhs
    for k in range(4):
        t = hs.comul_of(hs.basis_vector(k))
        pushed = [F(0)] * (hq.dim ** 2)
        for it, val in enumerate(t):
            if val == 0:
                continue
            i, j = divmod(it, 4)
            pi, pj = q.project(hs.basis_vector(i)), q.project(hs.basis_vector(j))
            for r, cr in enumerate(pi):
                for s, cs in enumerate(pj):
                    pushed[r * hq.dim + s] += val * cr * cs
        assert pushed == list(hq.comul_of(q.project(hs.basis_vector(k))))
    # counit, unit and antipode factor through the projection as well
    assert q.project(hs.unit) == list(hq.unit)
    for k in range(4):
        b = hs.basis_vector(k)
        assert hq.counit_of(q.project(b)) == hs.counit_of(b)
        assert q.project(hs.antipode_of(b)) == hq.antipode_of(q.project(b))


def test_dual_hopf():
    z2 = group_algebra(cyclic_group_table(2))
    d = dual_hopf(z2)
    assert verify_hopf_axioms(d).passed
    # dual multiplication is pointwise in the dual basis
    assert d.multiply(d.basis_vector(0), d.basis_vector(0)) == d.basis_vector(0)
    assert d.multiply(d.basis_vector(0), d.basis_vector(1)) == [F(0), F(0)]
    dd = dual_hopf(d)
    assert verify_hopf_axioms(dd).passed
    assert dd.mul_nonzero == z2.mul_nonzero
    assert dd.comul_nonzero == z2.comul_nonzero
    assert dd.counit == z2.counit
    assert dd.unit == z2.unit
    assert dd.antipode_nonzero == z2.antipode_nonzero
    assert verify_hopf_axioms(dual_hopf(sweedler())).passed


def test_invalid_group_tables_rejected():
    with pytest.raises(InvalidGroupTable):
        group_algebra([[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # not associative/latin
    with pytest.raises(InvalidGroupTable):
        group_algebra([[0, 1], [1, 1]])  # second row is not a permutation


def test_builder_output_passes_the_axioms():
    # the builders do not check their output; each is Hopf by construction
    for name, h in all_group_algebras().items():
        for built in (h, dual_hopf(h), dual_hopf(dual_hopf(h)),
                      quotient_hopf(h, augmentation_ideal(h)).hopf):
            assert verify_hopf_axioms(built).passed, (name, built)
    for built in (sweedler(), dual_hopf(sweedler())):
        assert verify_hopf_axioms(built).passed


def test_group_likes_closed_under_multiplication():
    for h in all_group_algebras().values():
        likes = group_likes(h)
        like_set = set(likes)
        for a in likes:
            for b in likes:
                assert tuple(h.multiply(list(a), list(b))) in like_set


# --- the sparse antipode ---------------------------------------------------------


def _loaded(tmp_path, h):
    """h written as a `tensors` workspace entry and loaded back, axioms checked."""
    ws = tmp_path / "tensors.json"
    ws.write_text(json.dumps({"schema_version": 1, "hopf_algebras": [tensors_entry(h, "h")]}))
    return cli.load([str(ws)]).get("hopf_algebras", "h")


def test_tensors_entry_round_trip_keeps_every_structure_map(tmp_path):
    s3 = group_algebra(symmetric_group_table(3))
    hs = sweedler()
    radical = Subspace.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    for h in (s3, dual_hopf(s3), hs, quotient_hopf(hs, radical).hopf):
        back = _loaded(tmp_path, h)
        assert (back.names, back.unit, back.counit) == (h.names, h.unit, h.counit)
        assert back.mul_nonzero == h.mul_nonzero
        assert back.comul_nonzero == h.comul_nonzero
        assert back.antipode_nonzero == h.antipode_nonzero


def test_antipode_of_group_algebras_and_sweedler():
    s3 = group_algebra(symmetric_group_table(3))
    inverse = [row.index(0) for row in s3.group_table]
    assert s3.antipode_nonzero == tuple([(inverse[j], 1)] for j in range(6))
    # S(1) = 1, S(g) = g, S(x) = -gx, S(gx) = x
    assert sweedler().antipode_nonzero == ([(0, 1)], [(1, 1)], [(3, -1)], [(2, 1)])
    assert dual_hopf(sweedler()).antipode_nonzero == ([(0, 1)], [(1, 1)], [(3, 1)], [(2, -1)])


def test_hopf_paths_build_no_matrix(monkeypatch, tmp_path):
    # every structure map is held as nonzero pairs, so building, loading,
    # the axiom check and the Hopf-ideal tests construct no dense Matrix
    built = count_constructions(monkeypatch)
    s3 = group_algebra(symmetric_group_table(3))
    hs = sweedler()
    radical = Subspace.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    for h in (s3, dual_hopf(s3), quotient_hopf(hs, radical).hopf, _loaded(tmp_path, hs)):
        assert verify_hopf_axioms(h).passed
    assert is_hopf_ideal(hs, radical) == (True, None)
    assert maximal_hopf_ideal_in(hs, radical) == radical
    augmentation = augmentation_ideal(s3)
    assert maximal_hopf_ideal_in(s3, augmentation) == augmentation
    monkeypatch.undo()
    assert built["Matrix"] == 0


def test_on_generators_names_the_first_witness_of_the_full_scan():
    walked = []

    def failures(indices):
        # index 1 fails; index 2 raises, as a derivation table without a
        # monomial may
        for i in indices:
            walked.append(i)
            if i == 2:
                raise ValueError("no derivative")
            if i == 1:
                yield f"fails at {i}"

    assert list(on_generators(failures, (0, 3), 4)) == [] and walked == [0, 3]
    del walked[:]
    assert next(on_generators(failures, (1, 3), 4)) == "fails at 1"
    assert walked == [1, 0, 1]
    del walked[:]
    # the generators' walk raises: the full walk names its first witness
    assert next(on_generators(failures, (0, 2), 4)) == "fails at 1"
    assert walked == [0, 2, 0, 1]
    with pytest.raises(ValueError):
        list(on_generators(failures, range(4), 4))

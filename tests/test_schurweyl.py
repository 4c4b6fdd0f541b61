from fractions import Fraction

import pytest

from conftest import (
    columns_matrix,
    count_constructions,
    cyclic_scaling_action,
    euler_backend,
    s3_action,
    s3_perms,
)
from hopfva import schurweyl
from hopfva.action import HopfAction, _sum_columns, trivial_action
from hopfva.errors import InvariantViolation, MatricesRequired, UnresolvedReference
from hopfva.hopf import (
    cyclic_group_table,
    dual_hopf,
    group_algebra,
    on_generators,
    symmetric_group_table,
)
from hopfva.linalg import Matrix, Subspace
from hopfva.scalars import zeta
from hopfva.schurweyl import (
    CharacterTable,
    FinGroupRep,
    IrrepCharacter,
    _invariant_modes,
    check_commutant,
    cyclic_reachability,
    decompose,
    distinguish_isotypes,
    isotypic_projector,
    multiplicity_space,
    verify_character_table,
)
from hopfva.vertexalg import CommDiffVA, Poly

F = Fraction


def x_pow(k):
    return Poly.monomial((k,))


def z2_irreps():
    return [IrrepCharacter("triv", 1, (F(1), F(1)), ([[1]], [[1]])),
            IrrepCharacter("sign", 1, (F(1), F(-1)), ([[1]], [[-1]]))]


def z2_chartable():
    return CharacterTable([[0, 1], [1, 0]], [[0], [1]], z2_irreps())


def z2_rep(cap=6):
    return FinGroupRep.from_hopf_action(cyclic_scaling_action(2, cap))


def z3_chartable():
    z = zeta(3)
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    chars = [IrrepCharacter(f"chi{j}", 1, tuple(z ** (j * k) for k in range(3)))
             for j in range(3)]
    return CharacterTable(table, [[0], [1], [2]], chars)


# --- the S3 fixtures -----------------------------------------------------------


def _std_rep_matrix(perm):
    # action on span{e0-e1, e1-e2}: express perm(e_i) - perm(e_j) in the basis
    def coords(i, j):  # e_i - e_j
        vec = [0, 0, 0]
        vec[i] += 1
        vec[j] -= 1
        # e0-e1 = u1, e1-e2 = u2, so (a,b,c) with a+b+c=0 is a*u1 - c*u2
        return [vec[0], -vec[2]]

    c1 = coords(perm[0], perm[1])
    c2 = coords(perm[1], perm[2])
    return [[F(c1[0]), F(c2[0])], [F(c1[1]), F(c2[1])]]


S3_CLASSES = [[0], [1, 2, 5], [3, 4]]  # identity, transpositions, 3-cycles


def s3_irreps():
    perms = s3_perms()
    classes = S3_CLASSES
    trivial = IrrepCharacter("triv", 1, (F(1), F(1), F(1)), tuple([[1]] for _ in perms))
    sign_vals = []
    sign_mats = []
    for p in perms:
        inv = sum(1 for a in range(3) for b in range(a + 1, 3) if p[a] > p[b])
        sign_mats.append([[F(-1) ** inv]])
    for c in classes:
        p = perms[c[0]]
        inv = sum(1 for a in range(3) for b in range(a + 1, 3) if p[a] > p[b])
        sign_vals.append(F(-1) ** inv)
    sign = IrrepCharacter("sign", 1, tuple(sign_vals), tuple(sign_mats))
    std_mats = tuple(_std_rep_matrix(p) for p in perms)
    std_vals = tuple(std_mats[c[0]][0][0] + std_mats[c[0]][1][1] for c in classes)
    return [trivial, sign, IrrepCharacter("std", 2, std_vals, std_mats)]


def s3_chartable():
    return CharacterTable(symmetric_group_table(3), S3_CLASSES, s3_irreps())


def s3_rep(cap=2):
    return FinGroupRep.from_hopf_action(s3_action(cap))


# --- character tables ------------------------------------------------------------


def test_verify_z2_chartable():
    assert verify_character_table(z2_chartable()).passed


def test_verify_s3_chartable():
    t = s3_chartable()
    report = verify_character_table(t)
    assert report.passed, report
    assert sum(ch.degree ** 2 for ch in t.chars) == 6
    assert t.char("std").values == (F(2), F(0), F(-1))


def test_duplicated_row_fails_orthogonality():
    t = CharacterTable(
        [[0, 1], [1, 0]], [[0], [1]],
        [IrrepCharacter("a", 1, (F(1), F(1))),
         IrrepCharacter("b", 1, (F(1), F(1)))])
    report = verify_character_table(t)
    assert list(report.items()) == [
        ("row-orthogonality", (False, "(a, b)")),
        ("degree-sum", (True, None)),
        ("degree-matches-identity-value", (True, None)),
        ("matrices-multiplicative", (True, None)),
        ("trace-consistency", (True, None)),
        ("central-idempotents", (False, "e_a e_b != 0")),
    ]


def _z2_table(*chars):
    return CharacterTable([[0, 1], [1, 0]], [[0], [1]], chars)


def _one_by_one(*values):
    return tuple([[F(v)]] for v in values)


@pytest.mark.parametrize("chars,failures", [
    # a degree that breaks the degree sum and the value at the identity
    ((IrrepCharacter("triv", 1, (F(1), F(1))),
      IrrepCharacter("sign", 2, (F(1), F(-1)))),
     {"degree-sum": "sum 5 != 2", "degree-matches-identity-value": "sign",
      "central-idempotents": "e_sign^2 != e_sign"}),
    # the first irrep with matrices to fail stops the matrix checks: the
    # trace of triv is wrong, so sign's non-multiplicative matrices go unseen
    ((IrrepCharacter("triv", 1, (F(1), F(1)), _one_by_one(1, -1)),
      IrrepCharacter("sign", 1, (F(1), F(-1)), _one_by_one(1, 2))),
     {"trace-consistency": "triv at element 1"}),
    # a failure at the identity leaves the traces of that irrep unchecked
    ((IrrepCharacter("triv", 1, (F(1), F(1)), _one_by_one(2, 1)),
      IrrepCharacter("sign", 1, (F(1), F(-1)), _one_by_one(1, 2))),
     {"matrices-multiplicative": "triv at identity"}),
    # irreps without matrices are skipped; both checks report the same irrep
    ((IrrepCharacter("triv", 1, (F(1), F(1))),
      IrrepCharacter("sign", 1, (F(1), F(-1)), _one_by_one(1, 3))),
     {"matrices-multiplicative": "sign at (1,1)",
      "trace-consistency": "sign at element 1"}),
    # a missing irrep: e_triv alone is a central idempotent, but not 1
    ((IrrepCharacter("triv", 1, (F(1), F(1))),),
     {"degree-sum": "sum 1 != 2", "central-idempotents": "the sum of the e_chi != 1"}),
])
def test_character_table_report_witnesses(chars, failures):
    names = ["row-orthogonality", "degree-sum", "degree-matches-identity-value",
             "matrices-multiplicative", "trace-consistency", "central-idempotents"]
    report = verify_character_table(_z2_table(*chars))
    assert list(report.items()) == [
        (k, (False, failures[k]) if k in failures else (True, None)) for k in names]


def test_decompose_requires_central_idempotents():
    # Z/4 rows zeta_4^(j s(g)), s swapping g and g^2: orthonormal, of degree 1,
    # but chi1 = (1, -1, i, -i) is no homomorphism, so e_chi1^2 != e_chi1
    z, swap = zeta(4), [0, 2, 1, 3]
    chars = [IrrepCharacter(f"chi{j}", 1, tuple(z ** (j * swap[g]) for g in range(4)))
             for j in range(4)]
    table = CharacterTable(cyclic_group_table(4), [[g] for g in range(4)], chars)
    report = verify_character_table(table)
    assert [k for k, (ok, _) in report.items() if not ok] == ["central-idempotents"]
    assert report["central-idempotents"] == (False, "e_chi1^2 != e_chi1")
    rep = FinGroupRep.from_hopf_action(cyclic_scaling_action(4, cap=3))
    with pytest.raises(InvariantViolation, match="isotypic projector must be idempotent"):
        decompose(table, rep)


def test_chartable_rejects_bad_classes():
    with pytest.raises(ValueError):
        CharacterTable([[0, 1], [1, 0]], [[0]], [])
    with pytest.raises(ValueError):
        CharacterTable(symmetric_group_table(3), [[0], [1, 2], [3, 4, 5]], [])


@pytest.mark.parametrize("char,message", [
    (IrrepCharacter("a", 1, (F(1),)), "character 'a' needs one value per conjugacy class"),
    (IrrepCharacter("a", 1, (F(1), F(1)), ([[1]],)), "character 'a': 1 matrices for 2 group"),
    (IrrepCharacter("a", 2, (F(2), F(0)), ([[1, 0], [0, 1]], [[1], [0, 1]])),
     "character 'a': a matrix is 2x1/2, but degree 2 needs 2x2"),
], ids=["values", "matrix-count", "matrix-shape"])
def test_chartable_rejects_malformed_characters(char, message):
    with pytest.raises(ValueError, match=message):
        _z2_table(char)


@pytest.fixture
def scans(monkeypatch):
    """The index lists each `on_generators` scan of `schurweyl` runs over."""
    seen = []

    def recording(failures, gens, dim):
        def logged(indices):
            seen.append(list(indices))
            return failures(indices)
        return on_generators(logged, gens, dim)

    monkeypatch.setattr(schurweyl, "on_generators", recording)
    return seen


def test_character_checks_scan_the_generators_of_the_table(scans):
    table = s3_chartable()
    assert table.generators == (1, 2)
    assert verify_character_table(table).passed
    # the three irreps with matrices
    assert scans == [[1, 2]] * 3


def _first_non_multiplicative(table, name, mats):
    """The first (a, b) in ascending order with M_a M_b != M_ab, on dense
    matrices."""
    n, d = len(table), len(mats[0])
    for a in range(n):
        for b in range(n):
            product = [[sum(mats[a][i][k] * mats[b][k][j] for k in range(d)) for j in range(d)]
                       for i in range(d)]
            if product != mats[table[a][b]]:
                return f"{name} at ({a},{b})"
    return None


@pytest.mark.parametrize("g", [3, 4, 5])
def test_a_matrix_corrupted_off_the_generators_is_named_as_the_full_scan_names_it(scans, g):
    group = symmetric_group_table(3)
    irreps = s3_irreps()
    std = irreps[2]
    mats = [[list(row) for row in m] for m in std.matrices]
    mats[g][0][1] += 1   # keeps the trace
    irreps[2] = IrrepCharacter("std", 2, std.values, tuple(mats))
    table = CharacterTable(group, S3_CLASSES, irreps)
    assert g not in table.generators
    report = verify_character_table(table)
    witness = _first_non_multiplicative(group, "std", mats)
    assert witness is not None
    assert report["matrices-multiplicative"] == (False, witness)
    assert report["trace-consistency"] == (True, None)
    # triv and sign pass on the generators; std fails there and is rescanned
    assert scans[:4] == [[1, 2], [1, 2], [1, 2], list(range(6))]


def test_irrep_matrices_are_held_as_columns():
    std = s3_chartable().char("std")
    rows = _std_rep_matrix(s3_perms()[1])
    assert std.matrices[1] == {c: {r: row[c] for r, row in enumerate(rows) if row[c]}
                               for c in range(2)}
    assert std.matrices[0] == {0: {0: 1}, 1: {1: 1}}


# --- projectors ------------------------------------------------------------------


def _degree_blocks(rep, columns):
    """The Matrix of a grading-preserving column map on each degree."""
    return [columns_matrix(monos, columns) for monos in rep.graded]


def test_sign_projector_z2():
    rep = z2_rep(3)
    projs = _degree_blocks(rep, isotypic_projector(z2_chartable(), rep, "sign"))
    # image should be x and x^3; degree dims are (1,1,1,1) for one variable
    assert [p.rank() for p in projs] == [0, 1, 0, 1]


def test_trivial_group_projector_is_identity():
    h = group_algebra([[0]])
    act = trivial_action(h, euler_backend(3))
    rep = FinGroupRep.from_hopf_action(act)
    t = CharacterTable([[0]], [[0]], [IrrepCharacter("triv", 1, (F(1),), ([[1]],))])
    projs = _degree_blocks(rep, isotypic_projector(t, rep, "triv"))
    for deg, p in enumerate(projs):
        assert p == Matrix.identity(len(rep.graded[deg]))


def test_z3_projector_over_cyclotomics():
    rep = FinGroupRep.from_hopf_action(cyclic_scaling_action(3, cap=3))
    projs = _degree_blocks(rep, isotypic_projector(z3_chartable(), rep, "chi1"))
    # exponent k has eigenvalue zeta^k, so chi1 catches only x^1 here
    assert [p.rank() for p in projs] == [0, 1, 0, 0]


# --- decompose -------------------------------------------------------------------


def test_decompose_z2_even_odd():
    rep = z2_rep(6)
    decomp = decompose(z2_chartable(), rep)
    assert decomp.multiplicities["triv"] == (1, 0, 1, 0, 1, 0, 1)
    assert decomp.multiplicities["sign"] == (0, 1, 0, 1, 0, 1, 0)
    assert decomp.isotypes["triv"].dim == 4
    assert decomp.isotypes["sign"].dim == 3


def test_decompose_trivial_action_single_isotype():
    h = group_algebra([[0]])
    rep = FinGroupRep.from_hopf_action(trivial_action(h, euler_backend(4)))
    t = CharacterTable([[0]], [[0]], [IrrepCharacter("triv", 1, (F(1),))])
    decomp = decompose(t, rep)
    assert decomp.multiplicities["triv"] == (1, 1, 1, 1, 1)


def test_decompose_s3_degree_one():
    decomp = decompose(s3_chartable(), s3_rep(2))
    # degree-1 slice is the permutation representation: trivial + standard
    assert decomp.multiplicities["triv"][1] == 1
    assert decomp.multiplicities["std"][1] == 1
    assert decomp.multiplicities["sign"][1] == 0
    # and the oracle <(3,1,0), chi> over the class sizes (1,3,2)
    perm_char = [F(3), F(1), F(0)]
    sizes = [1, 3, 2]
    for name, expect in (("triv", 1), ("std", 1), ("sign", 0)):
        ch = s3_chartable().char(name)
        inner = sum(s * c * v for s, c, v in zip(sizes, perm_char, ch.values)) / 6
        assert inner == expect


# --- multiplicity spaces -----------------------------------------------------------


def test_multiplicity_space_z2_sign():
    rep = z2_rep(3)
    spaces = multiplicity_space(z2_chartable(), rep, "sign")
    assert [len(s) for s in spaces] == [0, 1, 0, 1]


def test_multiplicity_space_requires_matrices():
    rep = FinGroupRep.from_hopf_action(cyclic_scaling_action(3, cap=2))
    with pytest.raises(MatricesRequired):
        multiplicity_space(z3_chartable(), rep, "chi1")


def test_multiplicity_space_s3_std_degree_one():
    spaces = multiplicity_space(s3_chartable(), s3_rep(2), "std")
    assert len(spaces[1]) == 1  # one intertwiner in degree 1
    rep = s3_rep(2)
    f = Matrix(len(rep.graded[1]), 2, list(spaces[1][0]))  # f[r][k] at 2 r + k
    for g, p in enumerate(s3_perms()):
        assert f * Matrix.from_rows(_std_rep_matrix(p)) == _dense_block(rep, g, 1) * f


def test_theta_dimension_bookkeeping():
    t = s3_chartable()
    rep = s3_rep(2)
    decomp = decompose(t, rep)
    monos = rep.action.monomials
    for name in ("triv", "sign", "std"):
        spaces = multiplicity_space(t, rep, name)
        d = t.char(name).degree
        pivot_degrees = [sum(monos[p]) for p in decomp.isotypes[name].pivots]
        for deg, basis in enumerate(spaces):
            assert len(basis) * d == pivot_degrees.count(deg)


# --- commutant ---------------------------------------------------------------------


def test_commutant_even_multipliers():
    rep = z2_rep(6)
    report = check_commutant(rep, [x_pow(2), Poly.const(1, F(1))], 2)
    assert report.passed


def test_commutant_negative_control():
    rep = z2_rep(6)
    report = check_commutant(rep, [x_pow(2), x_pow(1), x_pow(3)], 2)
    # x and x^3 are not invariant, expected failures
    assert list(report.items()) == [
        ("1/1*x^2", (True, None)),
        ("1/1*x", (False, "element g1 at order 0")),
        ("1/1*x^3", (False, "element g1 at order 0")),
    ]


def test_s3_commutant_at_cap_3():
    # the invariant multipliers d^k v / k! commute with every permutation,
    # because permutations are algebra automorphisms that commute with d
    rep = s3_rep(3)
    samples = [rep.backend.poly_from_coords(list(v)) for v in rep.fixed_points().basis]
    assert len(samples) == 7      # 1, e1, e1^2, e2, e1^3, e1 e2, e3
    report = check_commutant(rep, samples, 2)
    assert report.passed, report


def test_group_rep_of_a_group_algebra_uses_the_action_matrices():
    act = s3_action(2)
    rep = FinGroupRep.from_hopf_action(act)
    assert rep.columns is act._columns
    assert rep.columns == tuple(act.rho(act.hopf.basis_vector(g)) for g in range(act.hopf.dim))


# --- cyclic reachability -------------------------------------------------------------


def test_reach_fills_odd_isotype():
    rep = z2_rep(6)
    res = cyclic_reachability(rep, z2_chartable(), "sign", x_pow(1), 2)
    assert res.fills_isotype
    assert res.reachable.dim == 3  # x, x^3, x^5


def test_reach_trivial_isotype_from_vacuum():
    rep = z2_rep(6)
    res = cyclic_reachability(rep, z2_chartable(), "triv", Poly.const(1, F(1)), 2)
    assert res.fills_isotype
    assert res.reachable.dim == 4


def test_reach_trivial_group_everything():
    h = group_algebra([[0]])
    rep = FinGroupRep.from_hopf_action(trivial_action(h, euler_backend(4)))
    t = CharacterTable([[0]], [[0]], [IrrepCharacter("triv", 1, (F(1),))])
    res = cyclic_reachability(rep, t, "triv", Poly.const(1, F(1)), 2)
    assert res.fills_isotype
    assert res.reachable.dim == 5


def test_reach_rejects_bad_seed():
    rep = z2_rep(4)
    with pytest.raises(ValueError):
        cyclic_reachability(rep, z2_chartable(), "sign", x_pow(2), 1)
    with pytest.raises(ValueError):
        cyclic_reachability(rep, z2_chartable(), "sign", Poly.zero(1), 1)


# --- distinguishing isotypes ----------------------------------------------------------


def test_distinguish_z2_by_dims():
    decomp = decompose(z2_chartable(), z2_rep(4))
    verdict = distinguish_isotypes(decomp, "triv", "sign")
    assert verdict.kind == "degreewise-dims"


def test_distinguish_z3_characters_by_dims():
    # at cap 6 the chi1/chi2 isotypes already have different degree profiles
    rep = FinGroupRep.from_hopf_action(cyclic_scaling_action(3, cap=6))
    decomp = decompose(z3_chartable(), rep)
    verdict = distinguish_isotypes(decomp, "chi1", "chi2")
    assert verdict.kind == "degreewise-dims"


def _apply(columns, monos, vec):
    """The column map applied to a coordinate vector over `monos`, as one."""
    image = _sum_columns((c, columns[e]) for e, c in zip(monos, vec) if c)
    return [image.get(e, 0) for e in monos]


def oracle_fingerprints(decomp, name, modes):
    """Traces and per-degree ranks of the invariant modes `modes` (from
    `_invariant_modes`) on one isotype, scaled by the irrep degree so
    different-degree isotypes are comparable: the fingerprints that
    `distinguish_isotypes` once compared after the multiplicities."""
    rep = decomp.rep
    d = decomp.table.char(name).degree
    iso = decomp.isotypes[name]
    # the degree of each isotype basis vector, read at its pivot
    monos = rep.action.monomials
    basis_degrees = [sum(monos[p]) for p in iso.pivots]
    prints = []
    for k, op in modes:
        images = [_apply(op, monos, b) for b in iso.basis]
        coords = [iso.coordinates_of(img) for img in images]
        assert all(c is not None for c in coords), "mode left the isotype"
        # column i of the mode on the isotype holds coords[i]
        trace = sum((c[i] for i, c in enumerate(coords)), F(0)) / d
        rank_profile = []
        for deg in range(len(rep.graded)):
            rows = [img for img, bd in zip(images, basis_degrees) if bd == deg]
            if not rows:
                continue
            r = Subspace.from_vectors(iso.ambient, rows).dim
            assert r % d == 0, "a mode rank is not a multiple of the irrep degree"
            rank_profile.append((deg, r // d))
        prints.append((k, trace, tuple(rank_profile)))
    return prints


def test_distinguish_control_same_isotype():
    decomp = decompose(z2_chartable(), z2_rep(4))
    modes = _invariant_modes(decomp.rep, 2)
    fp1 = oracle_fingerprints(decomp, "sign", modes)
    fp2 = oracle_fingerprints(decomp, "sign", modes)
    assert fp1 == fp2  # no false distinction
    assert distinguish_isotypes(decomp, "sign", "sign").kind == "inconclusive"


def _z3_xy_action(cap=3):
    # sigma: x -> zeta x, y -> zeta^2 y with the degree-preserving derivation
    from hopfva.hopf import cyclic_group_table

    h = group_algebra(cyclic_group_table(3))
    z = zeta(3)
    backend = CommDiffVA(["x", "y"],
                         {"x": Poly.variable(2, 0), "y": Poly.variable(2, 1)},
                         cap)
    images = {}
    for k, name in enumerate(["e", "g1", "g2"]):
        images[name] = {"x": Poly.monomial((1, 0), z ** k),
                        "y": Poly.monomial((0, 1), z ** (2 * k))}
    return HopfAction.from_generator_images(h, backend, images)


def test_distinguish_symmetric_pair_is_inconclusive():
    # chi1 and chi2 isotypes are swapped by the x<->y symmetry: equal degree
    # profiles, equal fingerprints, so the honest verdict is inconclusive
    rep = FinGroupRep.from_hopf_action(_z3_xy_action(3))
    decomp = decompose(z3_chartable(), rep)
    assert decomp.multiplicities["chi1"] == decomp.multiplicities["chi2"]
    verdict = distinguish_isotypes(decomp, "chi1", "chi2")
    assert verdict.kind == "inconclusive"


def test_unknown_irreducible_names_are_unresolved_references():
    table, rep = z2_chartable(), z2_rep(4)
    decomp = decompose(table, rep)
    for name in ("nope", None):
        with pytest.raises(UnresolvedReference, match=f"no irreducible named {name!r}"):
            table.char(name)
        with pytest.raises(UnresolvedReference):
            distinguish_isotypes(decomp, "triv", name)
        with pytest.raises(UnresolvedReference):
            distinguish_isotypes(decomp, name, "triv")
        with pytest.raises(UnresolvedReference):
            cyclic_reachability(rep, table, name, x_pow(1), 2)
        with pytest.raises(UnresolvedReference):
            multiplicity_space(table, rep, name)


def _s3_action_with(derivation, cap):
    """S3 permuting the variables of Q[x1, x2, x3] with d x_i = derivation(x_i, e1)."""
    h = group_algebra(symmetric_group_table(3))
    xs = [Poly.variable(3, i) for i in range(3)]
    e1 = xs[0] + xs[1] + xs[2]
    backend = CommDiffVA(["x1", "x2", "x3"],
                         {f"x{i + 1}": derivation(x, e1) for i, x in enumerate(xs)}, cap)
    images = {name: {f"x{i + 1}": xs[p[i]] for i in range(3)}
              for name, p in zip(h.names, s3_perms())}
    return HopfAction.from_generator_images(h, backend, images)


S3_DERIVATIONS = {
    "e1+xi^2": lambda x, e1: e1 + x * x,
    "xi": lambda x, e1: x,
    "e1": lambda x, e1: e1,
    "xi+xi*e1": lambda x, e1: x + x * e1,
    "2xi^2-e1": lambda x, e1: 2 * (x * x) - e1,
}

# each case: a character table and a representation; their isotypes with
# equal multiplicities, a pair with itself included, number 48 in all
EQUAL_MULTIPLICITY_CASES = {
    **{f"s3-{name}-cap{c}": (lambda d=d, c=c: (s3_chartable(),
                                               FinGroupRep.from_hopf_action(_s3_action_with(d, c))))
       for name, d in S3_DERIVATIONS.items() for c in (2, 3)},
    **{f"z3-xy-cap{c}": (lambda c=c: (z3_chartable(),
                                      FinGroupRep.from_hopf_action(_z3_xy_action(c))))
       for c in (2, 3, 4)},
    **{f"z2-cap{c}": (lambda c=c: (z2_chartable(), z2_rep(c))) for c in (2, 3, 4)},
}


def _fingerprints_from_multiplicities(decomp, name, modes):
    """The oracle's fingerprints as the multiplicities fix them: a mode is
    truncated multiplication by f, its column at 1; with j the lowest degree
    of f, its trace over d is f_0 times the sum of the multiplicities, and its
    rank over d in a degree is the multiplicity there, or 0 past cap - j."""
    rep = decomp.rep
    mults = decomp.multiplicities[name]
    cap = rep.backend.degree_cap
    one = rep.graded[0][0]
    prints = []
    for k, op in modes:
        f = op[one]
        low = min(map(sum, f), default=cap + 1)
        profile = tuple((deg, m if deg + low <= cap else 0)
                        for deg, m in enumerate(mults) if m)
        prints.append((k, f.get(one, 0) * sum(mults), profile))
    return prints


@pytest.mark.parametrize("case", sorted(EQUAL_MULTIPLICITY_CASES))
def test_modes_never_separate_equal_multiplicities(case):
    # the argument of `distinguish_isotypes`: the oracle's fingerprints are
    # fixed by the multiplicities, so isotypes with equal ones never separate
    table, rep = EQUAL_MULTIPLICITY_CASES[case]()
    decomp = decompose(table, rep)
    modes = _invariant_modes(rep, 2)
    names = [ch.name for ch in table.chars]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i:]
             if decomp.multiplicities[a] == decomp.multiplicities[b]]
    assert pairs
    for a, b in pairs:
        fp_a = oracle_fingerprints(decomp, a, modes)
        assert fp_a == _fingerprints_from_multiplicities(decomp, a, modes)
        assert fp_a == oracle_fingerprints(decomp, b, modes), (a, b)
        assert distinguish_isotypes(decomp, a, b).kind == "inconclusive"


def test_reach_is_contained_in_isotype():
    rep = FinGroupRep.from_hopf_action(_z3_xy_action(3))
    t = z3_chartable()
    res = cyclic_reachability(rep, t, "chi1", Poly.variable(2, 0), 2)
    assert res.isotype.contains_subspace(res.reachable)


def test_identity_need_not_be_element_zero():
    # Z/2 with its elements listed as (g, e): the table finds the identity at 1
    table = CharacterTable(
        [[1, 0], [0, 1]],
        [[1], [0]],
        [IrrepCharacter("triv", 1, (F(1), F(1)), ([[1]], [[1]])),
         IrrepCharacter("sign", 1, (F(1), F(-1)), ([[-1]], [[1]]))])
    assert table.identity == 1
    assert verify_character_table(table).passed


# --- dense oracles: the formulations the sparse view replaced ---------------------


def _dense_block(rep, g, deg):
    """rho(g) on the degree-`deg` monomials, read entry by entry."""
    start = sum(map(len, rep.graded[:deg]))
    m = columns_matrix(rep.action.monomials, rep.columns[g])
    span = range(start, start + len(rep.graded[deg]))
    return Matrix.from_rows([[m[i, j] for j in span] for i in span])


def _dense_fixed_points(rep):
    """V^G as the kernel of the stacked rows of rho(g) - I, g != e."""
    n = len(rep.action.monomials)
    mats = [columns_matrix(rep.action.monomials, cols) for cols in rep.columns[1:]]
    rows = [row for m in mats for row in (m - Matrix.identity(n)).row_lists()]
    return Matrix.from_rows(rows).kernel() if rows else Subspace.full(n)


def _dense_intertwiners(matrices, rep, deg):
    """Hom_G(W, M) in degree `deg`, for W given by its `matrices` as entered
    (rows of scalars): one dense row per entry (r, c) of f rho_W(g) -
    rho_M(g) f, the unknowns f[r][k] row-major."""
    d, dim = len(matrices[0]), len(rep.graded[deg])
    rows = []
    for g, entered in enumerate(matrices):
        rho_w, rho_m = Matrix.from_rows(entered), _dense_block(rep, g, deg)
        for r in range(dim):
            for c in range(d):
                row = [F(0)] * (dim * d)
                for k in range(d):
                    row[r * d + k] = row[r * d + k] + rho_w[k, c]
                for k in range(dim):
                    row[k * d + c] = row[k * d + c] - rho_m[r, k]
                rows.append(row)
    return Matrix.from_rows(rows).kernel() if rows else Subspace.full(dim * d)


def _dense_projector(table, rep, name, deg):
    ch = table.char(name)
    dim = len(rep.graded[deg])
    acc = Matrix.zeros(dim, dim)
    for g in range(table.order):
        coeff = table.value_at_element(ch, table.inverse[g]) * F(ch.degree, table.order)
        acc = acc + _dense_block(rep, g, deg).scale(coeff)
    return acc


def _dense_multiplicity(table, rep, name, deg):
    ch = table.char(name)
    dim = len(rep.graded[deg])
    total = sum((sum((_dense_block(rep, g, deg)[i, i] for i in range(dim)), F(0))
                 * table.value_at_element(ch, table.inverse[g]) for g in range(table.order)), F(0))
    return total / table.order


def z3_irreps_with_matrices():
    z = zeta(3)
    return [IrrepCharacter(f"chi{j}", 1, tuple(z ** (j * k) for k in range(3)),
                           tuple([[z ** (j * k)]] for k in range(3)))
            for j in range(3)]


def z3_chartable_with_matrices():
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    return CharacterTable(table, [[0], [1], [2]], z3_irreps_with_matrices())


def trivial_group_case(cap=3):
    rep = FinGroupRep.from_hopf_action(trivial_action(group_algebra([[0]]), euler_backend(cap)))
    irreps = [IrrepCharacter("triv", 1, (F(1),), ([[1]],))]
    return irreps, CharacterTable([[0]], [[0]], irreps), rep


def dual_z2_case(cap=4):
    """Q[Z2]* acting on Q[x] by its two idempotents, the even and odd parts;
    its group-likes 1 and delta_e - delta_g are recognised, not given."""
    h = dual_hopf(group_algebra(cyclic_group_table(2)))
    backend = euler_backend(cap)
    columns = [{e: {e: 1} if e[0] % 2 == parity else {} for e in backend.monomials()}
               for parity in (0, 1)]
    return z2_chartable(), FinGroupRep.from_hopf_action(HopfAction(h, backend, columns))


# each case: the irreps as entered, their character table and a representation
ORACLE_CASES = {
    "z2-cap6": lambda: (z2_irreps(), z2_chartable(), z2_rep(6)),
    "z3-xy-zeta3": lambda: (z3_irreps_with_matrices(), z3_chartable_with_matrices(),
                            FinGroupRep.from_hopf_action(_z3_xy_action(3))),
    "s3-cap2": lambda: (s3_irreps(), s3_chartable(), s3_rep(2)),
    "s3-cap3": lambda: (s3_irreps(), s3_chartable(), s3_rep(3)),
    "trivial-group": trivial_group_case,
    "dual-z2-group-likes": lambda: (z2_irreps(), *dual_z2_case()),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_sparse_view_matches_dense_oracles(case):
    irreps, table, rep = ORACLE_CASES[case]()
    entered = {ch.name: ch.matrices for ch in irreps}
    assert rep.fixed_points() == _dense_fixed_points(rep)
    decomp = decompose(table, rep)
    for ch in table.chars:
        projectors = _degree_blocks(rep, isotypic_projector(table, rep, ch.name))
        spaces = multiplicity_space(table, rep, ch.name)
        for deg in range(len(rep.graded)):
            assert projectors[deg] == _dense_projector(table, rep, ch.name, deg)
            assert decomp.multiplicities[ch.name][deg] == \
                _dense_multiplicity(table, rep, ch.name, deg)
            assert [list(f) for f in spaces[deg]] == \
                [list(v) for v in _dense_intertwiners(entered[ch.name], rep, deg).basis]


def _padded_isotype(table, rep, name):
    """The isotype built degree by degree: the dense RREF of the image of
    rho(e_chi) on each degree, each block padded to the whole carrier, and
    the padded rows reduced again."""
    n = len(rep.action.monomials)
    vecs, offset = [], 0
    for deg, monos in enumerate(rep.graded):
        p = _dense_projector(table, rep, name, deg)
        block = Subspace.from_vectors(len(monos), [p.col(j) for j in range(len(monos))])
        after = n - offset - len(monos)
        vecs += [[F(0)] * offset + list(row) + [F(0)] * after for row in block.basis]
        offset += len(monos)
    return Subspace.from_vectors(n, vecs)


def z4_chartable():
    z = zeta(4)
    chars = [IrrepCharacter(f"chi{j}", 1, tuple(z ** (j * k) for k in range(4)))
             for j in range(4)]
    return CharacterTable(cyclic_group_table(4), [[g] for g in range(4)], chars)


def _cyclic_case(table, n, cap):
    return lambda: (table(), FinGroupRep.from_hopf_action(cyclic_scaling_action(n, cap)))


ISOTYPE_CASES = {
    **{f"z2-cap{c}": (lambda c=c: (z2_chartable(), z2_rep(c))) for c in (0, 3, 6)},
    **{f"z3-cap{c}": _cyclic_case(z3_chartable, 3, c) for c in (1, 4, 6)},
    "z3-xy-cap3": lambda: (z3_chartable(), FinGroupRep.from_hopf_action(_z3_xy_action(3))),
    **{f"z4-cap{c}": _cyclic_case(z4_chartable, 4, c) for c in (2, 5)},
    **{f"s3-cap{c}": (lambda c=c: (s3_chartable(), s3_rep(c))) for c in (0, 1, 2, 3)},
    "dual-z2-group-likes": lambda: dual_z2_case(4),
}


@pytest.mark.parametrize("case", sorted(ISOTYPE_CASES))
def test_isotypes_match_the_padded_per_degree_blocks(case):
    table, rep = ISOTYPE_CASES[case]()
    monos = rep.action.monomials
    decomp = decompose(table, rep)
    for ch in table.chars:
        iso = decomp.isotypes[ch.name]
        assert iso == _padded_isotype(table, rep, ch.name)
        assert iso.ambient == len(monos)
        pivot_degrees = [sum(monos[p]) for p in iso.pivots]
        assert [pivot_degrees.count(deg) for deg in range(len(rep.graded))] == \
            [ch.degree * m for m in decomp.multiplicities[ch.name]]


@pytest.fixture
def reductions(monkeypatch):
    """{"isotype": n, "dense": m}: the span closures `schurweyl` runs and the
    Subspace.from_vectors reductions anyone runs, from now on."""
    counts = {"isotype": 0, "dense": 0}
    closure, from_vectors = schurweyl.span_closure, Subspace.__dict__["from_vectors"].__func__

    def counting_closure(*args):
        counts["isotype"] += 1
        return closure(*args)

    def counting_from_vectors(cls, *args):
        counts["dense"] += 1
        return from_vectors(cls, *args)

    monkeypatch.setattr(schurweyl, "span_closure", counting_closure)
    monkeypatch.setattr(Subspace, "from_vectors", classmethod(counting_from_vectors))
    return counts


def test_decompose_reduces_once_per_irreducible(reductions):
    # S3 permuting Q[x1, x2, x3] at D=3: one sparse reduction per irreducible,
    # not one dense reduction per irreducible and degree (3 x 4)
    table, rep = s3_chartable(), s3_rep(3)
    decomp = decompose(table, rep)
    assert reductions == {"isotype": 3, "dense": 0}
    # distinguishing by dimensions reduces nothing more
    assert distinguish_isotypes(decomp, "triv", "sign").kind == "degreewise-dims"
    assert reductions == {"isotype": 3, "dense": 0}


def test_fingerprints_reduce_only_the_mode_images(reductions):
    decomp = decompose(s3_chartable(), s3_rep(3))
    modes = _invariant_modes(decomp.rep, 2)
    reductions.update(isotype=0, dense=0)
    prints = oracle_fingerprints(decomp, "std", modes)
    # one rank per mode and degree the isotype meets, and no isotype reduced again
    assert reductions == {"isotype": 0,
                          "dense": sum(len(profile) for _, _, profile in prints)}
    # the verdict reads the multiplicities alone and reduces nothing
    reductions.update(isotype=0, dense=0)
    assert distinguish_isotypes(decomp, "std", "std").kind == "inconclusive"
    assert reductions == {"isotype": 0, "dense": 0}


def test_recognised_group_likes_act_like_the_group_algebra():
    table, rep = dual_z2_case(4)
    assert rep.element_names == ("gl0", "gl1")
    assert decompose(table, rep).multiplicities == decompose(table, z2_rep(4)).multiplicities


# --- the work the isotype paths do -------------------------------------------------


def test_isotype_paths_build_no_matrix_and_no_poly(monkeypatch):
    # S3 permuting Q[x1, x2, x3] at D=3: from the action and the character
    # table to the isotypes every map is a column dict, the irrep matrices
    # included, and each intertwiner is a coordinate vector
    rep = s3_rep(3)
    samples = [rep.backend.poly_from_coords(list(v)) for v in rep.fixed_points().basis]
    seed = Poly.variable(3, 0) - Poly.variable(3, 1)
    built = count_constructions(monkeypatch)
    table = s3_chartable()
    decomp = decompose(table, rep)
    spaces = [multiplicity_space(table, rep, ch.name) for ch in table.chars]
    report = check_commutant(rep, samples, 2)
    reach = cyclic_reachability(rep, table, "std", seed, 2)
    verdict = distinguish_isotypes(decomp, "std", "std")
    monkeypatch.undo()
    assert report.passed and reach.isotype.contains_subspace(reach.reachable)
    assert verdict.kind == "inconclusive"
    intertwiners = sum(len(basis) for per_degree in spaces for basis in per_degree)
    assert intertwiners == 7 + 1 + 6  # triv (1, 1, 2, 3), sign (0, 0, 0, 1), std (0, 1, 2, 3)
    assert built == {"Matrix": 0, "Poly": 0}

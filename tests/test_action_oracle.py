"""The action's checks against a Poly oracle.

`action` builds and checks every action on its sparse integer columns:
the generator extension, the algebra-map check, the module-algebra rule,
[rho(h), d] = 0 and the direct vertex identity are dict convolutions.  The
oracle here is the direct formulation on `Poly` objects: each basis element
acts through the dense Matrix of its columns (coordinates in, coordinates
out), the derivation is re-derived from the backend's generator images by
the Leibniz rule, and the algebra map is checked with dense matrix
products.  On seeded single-entry corruptions of the columns (built
unchecked) of S3 permuting three variables, the Z3 and Z4 scalings, the
Sweedler actions on z^m (m = 0, 1, 2), a trivial action and S3 conjugated by
a rational change of variables, the reports (verdicts and witnesses, in
order) and the ValueError messages of construction must agree.

The checks walk the generating set of H first (`hopf.on_generators`); the
walks are recorded, so that the route each check takes is checked too: the
generators for degree-keeping actions, every basis element for one that
raises degree, and, for the vertex identity, a
derivation that is not homogeneous or does not commute with the action.
A homogeneous derivation of weight 1 ends each walk of the identity at the
cap: the report and the derived chains at the default order are those at
order D.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    UncheckedAction,
    action_matrices,
    cyclic_scaling_action,
    edited_action,
    euler_backend,
    s3_action,
    sweedler_poly_action,
    through_first_factor_action,
)
from hopfva import action
from hopfva.action import HopfAction, trivial_action, verify_module_vertex_algebra
from hopfva.errors import CheckReport, TruncationOverflow
from hopfva.hopf import (
    cyclic_group_table,
    generating_set,
    group_algebra,
    sweedler,
    symmetric_group_table,
)
from hopfva.linalg import Matrix
from hopfva.scalars import zeta
from hopfva.vertexalg import CommDiffVA, Poly, poly_to_text

F = Fraction


# --- the Poly oracle ---------------------------------------------------------------


dense_matrices = functools.cache(action_matrices)


def image(act, bi, poly):
    """b_bi . poly through the dense coordinates of the action matrix."""
    a = act.backend
    return a.poly_from_coords(dense_matrices(act)[bi].apply(a.coords_of(poly)))


def derive(a, poly):
    """d poly = sum_i (d/dx_i poly) d(x_i), from the generator images."""
    out = Poly.zero(a.nvars)
    for e, c in poly.terms.items():
        for i, k in enumerate(e):
            if k:
                lowered = e[:i] + (k - 1,) + e[i + 1:]
                out = out + (a.images[i] * Poly.monomial(lowered)).scale(c * k)
    return out


def coproduct_sum(h, bi, term):
    """sum c term(p, q) over Delta(b_bi) = sum c b_p (x) b_q."""
    out = None
    for k, i, j, c in h.comul_entries():
        if k == bi:
            t = term(i, j).scale(c)
            out = t if out is None else out + t
    return out


def text(e, a):
    return poly_to_text(Poly.monomial(e), a.variables)


def oracle_module_algebra(act):
    h, a = act.hopf, act.backend
    report = CheckReport()
    one = Poly.const(a.nvars, F(1))
    report.record("unit-compatibility", (
        h.names[bi] for bi in range(h.dim) if image(act, bi, one) != one.scale(h.counit[bi])))

    def leibniz_failures():
        for bi in range(h.dim):
            for e1 in act.monomials:
                for e2 in act.monomials:
                    if sum(e1) + sum(e2) > a.degree_cap:
                        continue
                    u, v = Poly.monomial(e1), Poly.monomial(e2)
                    lhs = image(act, bi, u * v)
                    rhs = coproduct_sum(h, bi, lambda p, q: image(act, p, u) * image(act, q, v))
                    if lhs != rhs:
                        yield f"({h.names[bi]}, {text(e1, a)}, {text(e2, a)})"

    report.record("module-algebra-rule", leibniz_failures())
    return report


def oracle_d_commute(act):
    h, a = act.hopf, act.backend
    for bi in range(h.dim):
        for mono in act.monomials:
            if sum(mono) + max(a.weight, 0) > a.degree_cap:
                continue
            u = Poly.monomial(mono)
            if image(act, bi, derive(a, u)) != derive(a, image(act, bi, u)):
                return False, (h.names[bi], text(mono, a))
    return True, None


def oracle_module_vertex_algebra(act, order=None):
    h, a = act.hopf, act.backend
    order = len(act.monomials) if order is None else order
    report = oracle_module_algebra(act)
    report["derivation-commutation"] = oracle_d_commute(act)

    def identity_failures():
        chains = {}

        def derived(p, e1, k):
            """d^k (b_p e1), each derivative taken once."""
            chain = chains.setdefault((p, e1), [image(act, p, Poly.monomial(e1))])
            while len(chain) <= k:
                chain.append(derive(a, chain[-1]))
            return chain[k]

        for bi in range(h.dim):
            for e1 in act.monomials:
                dku = Poly.monomial(e1)
                for k in range(order + 1):
                    if k:
                        dku = derive(a, dku)
                    if dku.is_zero():
                        break
                    for e2 in act.monomials:
                        if dku.degree() + sum(e2) > a.degree_cap:
                            continue
                        v = Poly.monomial(e2)
                        rhs = coproduct_sum(
                            h, bi, lambda p, q: derived(p, e1, k) * image(act, q, v))
                        if image(act, bi, dku * v) != rhs:
                            yield f"({h.names[bi]}, {text(e1, a)}, {text(e2, a)}) at order {k}"

    report.record("hopf-vertex-identity", identity_failures())
    return report


def oracle_algebra_map(act):
    """The ValueError message of construction, or None, by dense products."""
    h, mats = act.hopf, dense_matrices(act)
    n = len(act.monomials)

    def combination(vec):
        out = Matrix.zeros(n, n)
        for c, m in zip(vec, mats):
            if c:
                out = out + m.scale(c)
        return out

    if combination(h.unit) != Matrix.identity(n):
        return "action of the Hopf unit is not the identity"
    for i, j in itertools.product(range(h.dim), repeat=2):
        if mats[i] * mats[j] != combination(h.multiply(h.basis_vector(i), h.basis_vector(j))):
            return f"action is not multiplicative at ({h.names[i]}, {h.names[j]})"
    return None


def oracle_extension(h, backend, images):
    """Generator images extended to every monomial by the coproduct rule, on
    Polys, one matrix column per monomial."""
    memo = {}
    d = h.dim

    def act(bi, mono):
        if (bi, mono) not in memo:
            if sum(mono) == 0:
                out = Poly.const(backend.nvars, h.counit[bi])
            else:
                var = next(i for i, k in enumerate(mono) if k)
                rest = mono[:var] + (mono[var] - 1,) + mono[var + 1:]
                out = Poly.zero(backend.nvars)
                for k, p, q, c in h.comul_entries():
                    if k == bi:
                        left = images[h.names[p]][backend.variables[var]] \
                            if h.names[p] in images else Poly.variable(backend.nvars, var)
                        out = out + (left * act(q, rest)).scale(c)
            if out.degree() > backend.degree_cap:
                raise TruncationOverflow(out.degree(), backend.degree_cap,
                                         f"extending {h.names[bi]} to monomials")
            memo[bi, mono] = out
        return memo[bi, mono]

    monos = backend.monomials()
    return [Matrix.from_columns([backend.coords_of(act(bi, e)) for e in monos])
            for bi in range(d)]


# --- the corpus -------------------------------------------------------------------


# the change of variables y = P x, P upper unitriangular, and its inverse
P = [[1, F(1, 2), 0], [0, 1, F(1, 3)], [0, 0, 1]]
P_INV = [[1, F(-1, 2), F(1, 6)], [0, 1, F(-1, 3)], [0, 0, 1]]


def s3_rational_images(cap):
    """S3 permuting x1, x2, x3, written in the variables y = P x: g.y_i is
    sum_k (P Perm_g P^-1)_ik y_k, an action with non-integral entries."""
    h = group_algebra(symmetric_group_table(3))
    ys = ["y1", "y2", "y3"]
    backend = CommDiffVA(ys, {y: Poly.variable(3, i) for i, y in enumerate(ys)}, cap)
    images = {}
    for name, perm in zip(h.names, sorted(itertools.permutations(range(3)))):
        # g.x_j = x_perm(j), so g.y_i = sum_j P_ij x_perm(j) = sum_j P_ij (P^-1 y)_perm(j)
        images[name] = {ys[i]: Poly(3, {tuple(int(t == k) for t in range(3)):
                                        sum(P[i][j] * P_INV[perm[j]][k] for j in range(3))
                                        for k in range(3)})
                        for i in range(3)}
    return h, backend, images


def s3_rational_action(cap=2):
    return HopfAction.from_generator_images(*s3_rational_images(cap))


ACTIONS = {
    "s3": (lambda: s3_action(cap=2), (0, 1, -1, 2, F(1, 2))),
    "s3-rational": (lambda: s3_rational_action(cap=2), (0, 1, F(-1, 2), F(1, 3))),
    "z3-scaling": (lambda: cyclic_scaling_action(3, cap=3), (0, 1, zeta(3), F(1, 2))),
    "z4-scaling": (lambda: cyclic_scaling_action(4, cap=3), (0, -1, zeta(4), zeta(4) + 1)),
    "sweedler-m0": (lambda: sweedler_poly_action(m=0, cap=3), (0, 1, -1, 2)),
    "sweedler-m1": (lambda: sweedler_poly_action(m=1, cap=3), (0, 1, -1, F(1, 2))),
    "sweedler-m2": (lambda: sweedler_poly_action(m=2, cap=3), (0, 1, -1, 3)),
    "trivial": (lambda: trivial_action(sweedler(), euler_backend(3)), (0, 1, -1, F(2, 3))),
}
CORRUPTIONS = 6


def corrupted(name, seed):
    """The action with one entry (row i, column j) of the matrix of one basis
    element set to a value from its pool, built unchecked."""
    make, pool = ACTIONS[name]
    act = make()
    rng = random.Random(f"{name}-{seed}")
    n = len(act.monomials)
    bi = rng.randrange(act.hopf.dim)
    value = rng.choice(pool)
    i, j = rng.randrange(n), rng.randrange(n)
    return edited_action(act, bi, act.monomials[j], act.monomials[i], value)


def construction_error(act):
    try:
        HopfAction(act.hopf, act.backend, act._columns)
    except ValueError as exc:
        return str(exc)
    return None


def corpus():
    for name, (make, _) in ACTIONS.items():
        yield name, make()
        for seed in range(CORRUPTIONS):
            yield f"{name}-{seed}", corrupted(name, seed)


CORPUS = dict(corpus())


@functools.cache
def oracle(name):
    """The oracle's report and construction message for a corpus action."""
    act = CORPUS[name]
    return list(oracle_module_vertex_algebra(act).items()), oracle_algebra_map(act)


# --- the checks -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_checks_match_the_poly_oracle(name):
    act = CORPUS[name]
    report, error = oracle(name)
    assert list(verify_module_vertex_algebra(act).items()) == report
    assert construction_error(act) == error


def test_the_corpus_reaches_every_failure():
    # the comparison means little unless each check fails somewhere, and the
    # vertex identity beyond plain multiplication
    seen = set()
    for name in CORPUS:
        report, error = oracle(name)
        seen.update(key for key, (ok, _) in report if not ok)
        ok, witness = dict(report)["hopf-vertex-identity"]
        if not ok and not witness.endswith(" at order 0"):
            seen.add("identity at order >= 1")
        if error is not None:
            seen.add(error.split(" at ")[0])
    assert seen == {"unit-compatibility", "module-algebra-rule", "derivation-commutation",
                    "hopf-vertex-identity", "identity at order >= 1",
                    "action of the Hopf unit is not the identity",
                    "action is not multiplicative"}, seen


def test_passing_actions_pass():
    for name in ("s3", "s3-rational", "z3-scaling", "z4-scaling", "trivial"):
        assert verify_module_vertex_algebra(CORPUS[name]).passed, name
        assert construction_error(CORPUS[name]) is None, name


def _sweedler_images(m, cap):
    z, one = Poly.monomial((1,)), Poly.const(1, F(1))
    return sweedler(), CommDiffVA(["z"], {"z": Poly.monomial((m,))}, cap), {
        "1": {"z": z}, "g": {"z": -1 * z}, "x": {"z": one}, "gx": {"z": one}}


def _s3_images(cap):
    h = group_algebra(symmetric_group_table(3))
    backend = CommDiffVA(["x1", "x2", "x3"], {f"x{i + 1}": Poly.variable(3, i)
                                              for i in range(3)}, cap)
    return h, backend, {name: {f"x{i + 1}": Poly.variable(3, p[i]) for i in range(3)}
                        for name, p in zip(h.names, sorted(itertools.permutations(range(3))))}


def _z4_images(cap):
    h = group_algebra([[(a + b) % 4 for b in range(4)] for a in range(4)])
    images = {name: {"x": Poly.monomial((1,), zeta(4) ** k)} for k, name in enumerate(h.names)}
    del images[h.names[0]]  # the unit row may be left out
    return h, euler_backend(3), images


def _overflowing_images(cap):
    # g.x = x^2 leaves the cap when it is extended to x^2
    h = group_algebra([[0, 1], [1, 0]])
    return h, euler_backend(cap), {h.names[1]: {"x": Poly.monomial((2,))}}


@pytest.mark.parametrize("make", [
    lambda: _sweedler_images(0, 4), lambda: _sweedler_images(2, 3), lambda: _s3_images(2),
    lambda: s3_rational_images(2), lambda: _z4_images(3), lambda: _overflowing_images(2),
], ids=["sweedler", "sweedler-m2", "s3", "s3-rational", "z4", "overflow"])
def test_generator_extension_matches_the_poly_oracle(make):
    h, backend, images = make()
    try:
        expected = oracle_extension(h, backend, images)
    except TruncationOverflow as exc:
        with pytest.raises(TruncationOverflow) as got:
            UncheckedAction.from_generator_images(h, backend, images)
        assert str(got.value) == str(exc)
        return
    act = UncheckedAction.from_generator_images(h, backend, images)
    assert action_matrices(act) == expected


# --- the work the checks do --------------------------------------------------------


def test_building_and_checking_an_action_builds_no_poly(monkeypatch):
    h, backend, images = _s3_images(2)
    built = []
    init = Poly.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", counting)
    act = HopfAction.from_generator_images(h, backend, images)
    HopfAction(act.hopf, act.backend, act._columns)
    report = verify_module_vertex_algebra(act)
    monkeypatch.undo()
    assert report.passed
    assert built == []


# --- the checks walk a generating set of H first ---------------------------------


@pytest.fixture
def walks(monkeypatch):
    """{scan name: [the basis indices of each walk]} for the scans the
    action's checks run through `on_generators`."""
    seen = {}
    certified = action.on_generators

    def recording(failures, gens, dim):
        def walk(indices):
            seen.setdefault(failures.__name__, []).append(list(indices))
            return failures(indices)
        return certified(walk, gens, dim)

    monkeypatch.setattr(action, "on_generators", recording)
    return seen


SCANS = ("product_failures", "leibniz_failures", "commute_failures", "identity_failures")


@pytest.mark.parametrize("make", [
    lambda: s3_action(cap=2), lambda: cyclic_scaling_action(4, cap=3),
    lambda: through_first_factor_action(cap=3)], ids=["s3", "z4", "v4"])
def test_the_checks_visit_only_the_generators(walks, make):
    act = make()
    assert verify_module_vertex_algebra(act).passed
    gens = list(generating_set(act.hopf))
    assert 0 < len(gens) < act.hopf.dim
    assert walks == {scan: [gens] for scan in SCANS}


def test_an_action_that_raises_degree_walks_every_basis_element(walks):
    # g swaps x and x^2 on (Q[x], x d/dx) at D = 2: an algebra map of Q[Z2]
    # on the carrier, which the Leibniz rule then rejects
    h = group_algebra(cyclic_group_table(2))
    backend = euler_backend(2)
    swap = {(0,): {(0,): 1}, (1,): {(2,): 1}, (2,): {(1,): 1}}
    act = HopfAction(h, backend, [{e: {e: 1} for e in backend.monomials()}, swap])
    assert not act.filtration_compatible
    report = verify_module_vertex_algebra(act)
    assert list(report.items()) == list(oracle_module_vertex_algebra(act).items())
    assert walks == {"product_failures": [[1]],
                     **{scan: [[0, 1]] for scan in SCANS[1:]}}


def test_a_derivation_rho_does_not_commute_with_walks_every_basis_element_for_the_identity(
        walks):
    # Sweedler's action on (Q[z], z^2 d/dz): g z^2 = z^2 but d(g z) = -z^2,
    # so the identity may not take the generators' route
    act = sweedler_poly_action(m=2, cap=3)
    walks.clear()
    report = verify_module_vertex_algebra(act)
    assert list(report.items()) == list(oracle_module_vertex_algebra(act).items())
    assert not report["derivation-commutation"][0]
    gens = list(generating_set(act.hopf))
    assert walks == {"leibniz_failures": [gens], "commute_failures": [gens, [0, 1, 2, 3]],
                     "identity_failures": [[0, 1, 2, 3]]}


def test_a_non_homogeneous_derivation_walks_every_basis_element_for_the_identity(walks):
    # S3 acting trivially on (Q[x], d x = 1 + x^2): the Leibniz rule and
    # [rho(h), d] = 0 walk the generators, the identity every basis element
    h = group_algebra(symmetric_group_table(3))
    backend = CommDiffVA(["x"], {"x": Poly(1, {(0,): 1, (2,): 1})}, 3)
    assert not backend.homogeneous
    report = verify_module_vertex_algebra(trivial_action(h, backend))
    assert report.passed
    gens = list(generating_set(h))
    assert walks == {**{scan: [gens] for scan in SCANS[:3]},
                     "identity_failures": [list(range(h.dim))]}


# --- a known answer at a larger cap -----------------------------------------------


def permutation_action(n, cap):
    """S_n permuting the variables of (Q[x1..xn], sum x_i d/dx_i)."""
    h = group_algebra(symmetric_group_table(n))
    xs = [f"x{i + 1}" for i in range(n)]
    backend = CommDiffVA(xs, {x: Poly.variable(n, i) for i, x in enumerate(xs)}, cap)
    images = {name: {xs[i]: Poly.variable(n, p[i]) for i in range(n)}
              for name, p in zip(h.names, sorted(itertools.permutations(range(n))))}
    return HopfAction.from_generator_images(h, backend, images)


def squares_action(cap):
    """S3 permuting the variables of (Q[x1, x2, x3], d x_i = x_i^2), whose
    derivation is homogeneous of weight 1."""
    h = group_algebra(symmetric_group_table(3))
    xs = ["x1", "x2", "x3"]
    backend = CommDiffVA(xs, {x: Poly.monomial(tuple(2 * (j == i) for j in range(3)))
                              for i, x in enumerate(xs)}, cap)
    images = {name: {xs[i]: Poly.variable(3, p[i]) for i in range(3)}
              for name, p in zip(h.names, sorted(itertools.permutations(range(3))))}
    return HopfAction.from_generator_images(h, backend, images)


@pytest.mark.parametrize("broken", [False, True], ids=["passing", "negated"])
def test_a_weight_one_identity_walk_ends_at_the_cap(monkeypatch, broken):
    # d^k e1 has degree deg e1 + k, so no order past D = 3 is walked: the
    # report at the default order (the 20 monomials) is the report at order
    # D, witnesses included, and both derive the same chains
    act = squares_action(3)
    if broken:  # negate the image of one transposition, built unchecked
        columns = list(act._columns)
        columns[1] = {e: {m: -c for m, c in col.items()} for e, col in columns[1].items()}
        act = UncheckedAction(act.hopf, act.backend, columns)
    derived = []
    derive = CommDiffVA.derive_terms

    def counting(self, terms):
        derived.append(terms)
        return derive(self, terms)

    monkeypatch.setattr(CommDiffVA, "derive_terms", counting)
    runs = []
    for order in (None, 3):
        derived.clear()
        runs.append((list(verify_module_vertex_algebra(act, order).items()), len(derived)))
    assert runs[0] == runs[1]
    assert runs[0][0][-1][1][0] is not broken
    if broken:
        assert runs[0][0] == list(oracle_module_vertex_algebra(act, 3).items())


def test_s5_permutations_form_a_module_vertex_algebra_at_cap_2():
    # 120 basis elements; the checks walk the four adjacent transpositions
    # that `generating_set` finds
    assert verify_module_vertex_algebra(permutation_action(5, 2)).passed


def test_s4_permutations_form_a_module_vertex_algebra_at_cap_2():
    act = permutation_action(4, 2)
    assert verify_module_vertex_algebra(act).passed
    # negate the image of one transposition, (x3 x4)
    t = sorted(itertools.permutations(range(4))).index((0, 1, 3, 2))
    columns = list(act._columns)
    columns[t] = {e: {m: -c for m, c in col.items()} for e, col in columns[t].items()}
    broken = UncheckedAction(act.hopf, act.backend, columns)
    report = verify_module_vertex_algebra(broken)
    assert not report.passed
    assert list(report.items()) == list(oracle_module_vertex_algebra(broken).items())
    assert construction_error(broken) == oracle_algebra_map(broken)

"""Every ideal test against a dense oracle.

`hopf` tests "modulo I" through one quotient map pi: H -> H/I, with
pi (x) pi for the coproduct, since ker(pi (x) pi) = H (x) I + I (x) H.  The
oracle here is the direct formulation: membership by reducing against I's
echelon basis, Delta(v) reduced against the d^2-dimensional span
H (x) I + I (x) H, the maximal Hopf ideal by shrinking with dense residual
rows, and the projection as the reduced coordinates off I's pivots.  On
seeded random subspaces and ideals of Q[S3], Sweedler's algebra, Q[S3]* and
Q[Z2 x Z2], plus the augmentation ideals, span{x, gx} and the annihilators
of the diagonal actions, the verdicts, the witness texts, the maximal Hopf
ideals (or the NotAnIdeal message) and the projections must agree.
"""

import random
from fractions import Fraction

import pytest

from conftest import cyclic_scaling_action, s3_action, through_first_factor_action
from hopfva.action import action_annihilator, maximal_hopf_ideal_in
from hopfva.errors import NotAnIdeal, NotHopfIdeal
from hopfva.hopf import (
    augmentation_ideal,
    cyclic_group_table,
    dual_hopf,
    group_algebra,
    is_bialgebra_ideal,
    is_hopf_ideal,
    product_group_table,
    quotient_hopf,
    sweedler,
    symmetric_group_table,
)
from hopfva.linalg import Matrix, Subspace, linear_combination

F = Fraction


# --- the dense oracle -------------------------------------------------------------


def mixed_tensor_span(d, vectors):
    """H (x) I + I (x) H over the pair basis, for I spanned by `vectors`."""
    rows = []
    for v in vectors:
        for j in range(d):
            left = [F(0)] * (d * d)
            right = [F(0)] * (d * d)
            for p, c in enumerate(v):
                left[p * d + j] = c
                right[j * d + p] = c
            rows += (left, right)
    return Subspace.from_vectors(d * d, rows)


def oracle_bialgebra_ideal(h, ideal):
    d = h.dim
    for v in ideal.basis:
        for i in range(d):
            if not ideal.contains(h.multiply(h.basis_vector(i), list(v))):
                return False, f"HI escapes I at ({h.names[i]}, {h.element_text(v)})"
            if not ideal.contains(h.multiply(list(v), h.basis_vector(i))):
                return False, f"IH escapes I at ({h.element_text(v)}, {h.names[i]})"
    for v in ideal.basis:
        if h.counit_of(v) != 0:
            return False, f"eps({h.element_text(v)}) != 0"
    mixed = mixed_tensor_span(d, ideal.basis)
    for v in ideal.basis:
        if not mixed.contains(h.comul_of(v)):
            return False, f"Delta({h.element_text(v)}) escapes H(x)I + I(x)H"
    return True, None


def oracle_hopf_ideal(h, ideal):
    ok, why = oracle_bialgebra_ideal(h, ideal)
    if not ok:
        return False, why
    for v in ideal.basis:
        if not ideal.contains(h.antipode_of(v)):
            return False, f"S({h.element_text(v)}) escapes I"
    return True, None


def oracle_maximal_hopf_ideal(h, sub):
    d = h.dim
    for v in sub.basis:
        for i in range(d):
            if not sub.contains(h.multiply(h.basis_vector(i), list(v))) or \
                    not sub.contains(h.multiply(list(v), h.basis_vector(i))):
                raise NotAnIdeal(f"subspace is not a two-sided ideal (fails at {h.names[i]})")
    current = sub
    while not current.is_zero():
        r = current.dim
        mixed = mixed_tensor_span(d, current.basis)
        rows = [[h.counit_of(v) for v in current.basis]]
        s_resid = [current.reduce(h.antipode_of(v)) for v in current.basis]
        rows += ([s_resid[c][k] for c in range(r)] for k in range(d))
        c_resid = [mixed.reduce(h.comul_of(v)) for v in current.basis]
        rows += ([c_resid[c][k] for c in range(r)] for k in range(d * d))
        coeff_kernel = Matrix.from_rows(rows).kernel()
        if coeff_kernel.dim == r:
            break
        current = Subspace.from_vectors(
            d, [linear_combination(lam, current.basis) for lam in coeff_kernel.basis])
    return current


def oracle_project(ideal, vec):
    """vec + I as the reduced coordinates off I's pivots."""
    reduced = ideal.reduce(vec)
    return [reduced[c] for c in range(ideal.ambient) if c not in ideal.pivots]


def ideal_generated(h, generators, two_sided=True):
    """The ideal generated by `generators`: their span, closed under left
    products with the basis and, if `two_sided`, under right products."""
    ideal = Subspace.zero(h.dim)
    pending = [list(g) for g in generators]
    while pending:
        v = pending.pop()
        if not ideal.contains(v):
            ideal = ideal + Subspace.from_vectors(h.dim, [v])
            for i in range(h.dim):
                b = h.basis_vector(i)
                pending.append(h.multiply(b, v))
                if two_sided:
                    pending.append(h.multiply(v, b))
    return ideal


# --- the corpus -------------------------------------------------------------------


ALGEBRAS = {
    "Q[S3]": lambda: group_algebra(symmetric_group_table(3)),
    "sweedler": sweedler,
    "Q[S3]*": lambda: dual_hopf(group_algebra(symmetric_group_table(3))),
    "Q[Z2xZ2]": lambda: group_algebra(product_group_table(cyclic_group_table(2),
                                                          cyclic_group_table(2))),
}
SEEDS = range(6)


def random_subspace(d, rng):
    vectors = [[F(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(d)]
               for _ in range(rng.randint(1, d - 1))]
    return Subspace.from_vectors(d, vectors)


def random_ideal(h, rng, two_sided=True):
    """The ideal generated by one or two combinations +-b_i +- b_j."""
    gens = []
    for _ in range(rng.randint(1, 2)):
        i, j = rng.sample(range(h.dim), 2)
        gens.append([F(rng.choice((1, -1))) if k in (i, j) else F(0) for k in range(h.dim)])
    return ideal_generated(h, gens, two_sided)


def corpus(name, seed):
    h = ALGEBRAS[name]()
    rng = random.Random(f"{name}-{seed}")
    subs = [random_subspace(h.dim, rng), random_ideal(h, rng), random_ideal(h, rng),
            random_ideal(h, rng, two_sided=False)]  # a left ideal
    if seed == 0:
        subs += [augmentation_ideal(h), Subspace.zero(h.dim), Subspace.full(h.dim)]
        if name == "sweedler":
            subs.append(Subspace.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]]))  # span{x, gx}
    return h, subs


def annihilator_cases():
    return [(act.hopf, action_annihilator(act).kernel) for act in (
        cyclic_scaling_action(3, cap=3), through_first_factor_action(cap=3), s3_action(cap=1))]


def all_cases():
    cases = [corpus(name, seed) for name in ALGEBRAS for seed in SEEDS]
    return [(h, sub) for h, subs in cases for sub in subs] + annihilator_cases()


# --- the checks -------------------------------------------------------------------


def _maximal(fn, h, sub):
    try:
        return fn(h, sub)
    except NotAnIdeal as exc:
        return "NotAnIdeal", str(exc)


def _check_against_oracle(h, sub):
    assert is_bialgebra_ideal(h, sub) == oracle_bialgebra_ideal(h, sub)
    expected = oracle_hopf_ideal(h, sub)
    assert is_hopf_ideal(h, sub) == expected
    assert _maximal(maximal_hopf_ideal_in, h, sub) == _maximal(oracle_maximal_hopf_ideal, h, sub)
    if not expected[0]:
        with pytest.raises(NotHopfIdeal) as exc:
            quotient_hopf(h, sub)
        assert str(exc.value) == expected[1]
        return
    q = quotient_hopf(h, sub)
    mixed = [F(k + 1, 3) * (-1) ** k for k in range(h.dim)]
    for vec in [h.basis_vector(j) for j in range(h.dim)] + [mixed]:
        assert q.project(vec) == oracle_project(sub, vec)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("seed", SEEDS)
def test_ideal_tests_match_the_dense_oracle(name, seed):
    h, subs = corpus(name, seed)
    for sub in subs:
        _check_against_oracle(h, sub)


def test_annihilators_of_the_diagonal_actions_match_the_dense_oracle():
    for h, ann in annihilator_cases():
        _check_against_oracle(h, ann)
        ideal = maximal_hopf_ideal_in(h, ann)
        _check_against_oracle(h, ideal)


def test_the_corpus_reaches_every_verdict():
    # the oracle comparison means little unless each kind of witness, the
    # NotAnIdeal refusal, a shrinking search and nonzero proper Hopf ideals occur
    seen = set()
    for h, sub in all_cases():
        ok, why = oracle_hopf_ideal(h, sub)
        seen.add("proper Hopf ideal" if ok and 0 < sub.dim < h.dim else (why or "").split("(")[0])
        result = _maximal(oracle_maximal_hopf_ideal, h, sub)
        seen.add("NotAnIdeal" if isinstance(result, tuple) else
                 "shrunk" if result != sub else "kept")
    assert {"proper Hopf ideal", "HI escapes I at ", "IH escapes I at ", "eps", "Delta",
            "NotAnIdeal", "shrunk", "kept"} <= seen, seen

import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import TableDerivation, derive

from hopfva import vertexalg
from hopfva.errors import MalformedPairs, TruncationOverflow
from hopfva.linalg import Matrix, Subspace
from hopfva.scalars import zeta
from hopfva.vertexalg import (
    CommDiffVA,
    Poly,
    _derivative_chains,
    _order_ladder,
    falling_bracket,
    flip_skew_check,
    pi2_kernel,
    pin_injectivity_check,
    poly_from_text,
    poly_to_text,
    single_variable_backend,
    vandermonde_monomial_decision,
    verify_comm_va_axioms,
    z2_kernel,
)

F = Fraction


def x_poly(k=1, c=1):
    return Poly.monomial((k,), F(c))


def xy_diagonal(cap):
    # (Q[x,y], dx = dy = 1), the tensor square of (Q[x], d/dx)
    one = Poly.const(2, F(1))
    return CommDiffVA(["x", "y"], {"x": one, "y": one}, cap)


# --- derivation and coefficients ---------------------------------------------


def apply_derivation(backend, poly, k=1):
    """k-fold derivation, erroring when a step leaves the carrier."""
    for _ in range(k):
        poly = derive(backend, poly)
        if poly.degree() > backend.degree_cap:
            raise TruncationOverflow(poly.degree(), backend.degree_cap,
                                     "derivation left the degree cap")
    return poly


def vertex_coefficients(backend, a, b, order):
    """c_0..c_order with Y(a,z)b = sum c_k z^k, c_k = (d^k a) b / k!."""
    out = []
    da = a
    for k in range(order + 1):
        if k:
            da = derive(backend, da)
            if da.degree() > backend.degree_cap:
                raise TruncationOverflow(da.degree(), backend.degree_cap,
                                         f"d^{k} of the left argument")
        ck = (da * b).scale(F(1, math.factorial(k)))
        if ck.degree() > backend.degree_cap:
            raise TruncationOverflow(ck.degree(), backend.degree_cap,
                                     f"coefficient {k} of the product")
        out.append(ck)
    return out


def test_apply_derivation_ddx():
    a = single_variable_backend(0, 6)
    assert apply_derivation(a, x_poly(3), 2) == x_poly(1, 6)


def test_apply_derivation_euler():
    a = single_variable_backend(1, 8)
    for n in range(1, 8):
        for k in range(4):
            assert apply_derivation(a, x_poly(n), k) == x_poly(n, n ** k)


def test_apply_derivation_overflow():
    a = single_variable_backend(2, 3)
    assert apply_derivation(a, x_poly(2)) == x_poly(3, 2)
    with pytest.raises(TruncationOverflow) as exc:
        apply_derivation(a, x_poly(2), 2)
    assert exc.value.degree == 4


def test_vertex_coefficients_vacuum():
    a = single_variable_backend(1, 5)
    one = Poly.const(1, F(1))
    b = x_poly(2, 3)
    coeffs = vertex_coefficients(a, one, b, 5)
    assert coeffs[0] == b
    assert all(c.is_zero() for c in coeffs[1:])


def test_vertex_coefficients_ddx():
    # oracle: (x+z)*x = x^2 + z x, so coefficients are (x^2, x, 0)
    a = single_variable_backend(0, 4)
    coeffs = vertex_coefficients(a, x_poly(1), x_poly(1), 2)
    assert coeffs == [x_poly(2), x_poly(1), Poly.zero(1)]


def test_vertex_coefficients_euler():
    a = single_variable_backend(1, 4)
    one = Poly.const(1, F(1))
    coeffs = vertex_coefficients(a, x_poly(1), one, 3)
    assert coeffs == [x_poly(1), x_poly(1), x_poly(1, F(1, 2)), x_poly(1, F(1, 6))]


def test_vertex_coefficients_overflow():
    a = single_variable_backend(1, 3)
    with pytest.raises(TruncationOverflow):
        vertex_coefficients(a, x_poly(2), x_poly(2), 1)


# --- axiom checks -------------------------------------------------------------


def test_axioms_pass_euler_backend():
    a = single_variable_backend(1, 6)
    samples = [Poly.const(1, F(1)), x_poly(1), x_poly(2)]
    report = verify_comm_va_axioms(a, samples, 4)
    assert report.passed, report


def test_axioms_trivial_sample():
    a = single_variable_backend(2, 5)
    report = verify_comm_va_axioms(a, [Poly.const(1, F(1))], 6)
    assert report.passed


def _corrupted_ddx(cap):
    # d(x^n) = n x^(n-1) except d(x^2) = x, which violates Leibniz
    table = {}
    for n in range(0, 2 * cap + 6):
        if n == 2:
            table[(n,)] = x_poly(1)
        else:
            table[(n,)] = Poly.zero(1) if n == 0 else x_poly(n - 1, n)
    return TableDerivation(["x"], table, cap)


def test_corrupted_derivation_fails_skew_symmetry():
    a = _corrupted_ddx(4)
    samples = [x_poly(1), x_poly(2)]
    report = verify_comm_va_axioms(a, samples, 3)
    assert report == {
        "vacuum": (True, None),
        "creation": (True, None),
        "skew-symmetry": (False, "(1/1*x, 1/1*x)"),
        "mutual-commutativity": (True, None),
    }
    assert list(report) == ["vacuum", "creation", "skew-symmetry", "mutual-commutativity"]


# --- pi2 kernels ---------------------------------------------------------------


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_pi2_injective_for_xm_ddx(m):
    a = single_variable_backend(m, 4)
    res = pi2_kernel(a)
    assert res.kernel.is_zero()
    assert res.stabilized


def test_pi2_zero_derivation_degenerates_to_multiplication():
    a = CommDiffVA(["x"], {"x": Poly.zero(1)}, 1)
    res = pi2_kernel(a, order=3)
    assert res.kernel.dim == 1
    witness = res.vector({(1, 0): 1, (0, 1): -1})  # x(x)1 - 1(x)x
    assert res.kernel.contains(witness)
    assert res.stabilized


def _oracle_pi2_dim(cap, order):
    """Independent brute force for (Q[x,y], dx=dy=1): dense matrix + naive
    rational elimination, with its own polynomial arithmetic."""
    monos = []
    for d in range(cap + 1):
        for i in range(d + 1):
            monos.append((d - i, i))
    monos.sort(key=lambda e: (sum(e), e))

    def derive(p):
        out = {}
        for (a, b), c in p.items():
            if a:
                out[(a - 1, b)] = out.get((a - 1, b), F(0)) + a * c
            if b:
                out[(a, b - 1)] = out.get((a, b - 1), F(0)) + b * c
        return {k: v for k, v in out.items() if v}

    def mul(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                out[e] = out.get(e, F(0)) + c1 * c2
        return {k: v for k, v in out.items() if v}

    rows = {}
    ncols = len(monos) ** 2
    for ci, (ei, ej) in enumerate((a, b) for a in monos for b in monos):
        p = {ei: F(1)}
        for k in range(order + 1):
            prod = mul(p, {ej: F(1)})
            for e, c in prod.items():
                rows.setdefault((k, e), [F(0)] * ncols)[ci] = c
            p = derive(p)
    mat = [rows[k] for k in sorted(rows)]
    # naive Gauss
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][col]
        mat[rank] = [c / lead for c in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [c - f * d for c, d in zip(mat[r], mat[rank])]
        rank += 1
    return ncols - rank


@pytest.mark.parametrize("cap", [1, 2])
def test_pi2_xy_diagonal_matches_bruteforce(cap):
    a = xy_diagonal(cap)
    res = pi2_kernel(a, order=10)
    assert res.kernel.dim == _oracle_pi2_dim(cap, 10)
    # the witness (x-y)(x)1 - 1(x)(x-y)
    monos = list(res.monomials)
    ix, iy = monos.index((1, 0)), monos.index((0, 1))
    i1 = monos.index((0, 0))
    witness = res.vector({(ix, i1): 1, (iy, i1): -1, (i1, ix): -1, (i1, iy): 1})
    assert res.kernel.contains(witness)


def test_pi2_kernel_chain_monotone():
    a = xy_diagonal(2)
    k_small = pi2_kernel(a, order=3)
    k_big = pi2_kernel(a, order=4)
    assert k_small.kernel.contains_subspace(k_big.kernel)


# --- pi_n ----------------------------------------------------------------------


def test_pin_injective_euler():
    a = single_variable_backend(1, 3)
    res = pin_injectivity_check(a, 3, order=12)
    assert res.kernel.is_zero()


def test_pin_fails_on_xy_diagonal():
    a = xy_diagonal(1)
    res = pin_injectivity_check(a, 3, order=6)
    assert not res.kernel.is_zero()
    monos = list(res.monomials)
    ix, iy, i1 = monos.index((1, 0)), monos.index((0, 1)), monos.index((0, 0))
    # the pi2 witness tensored with 1 on the right
    v = res.vector({(ix, i1, i1): 1, (iy, i1, i1): -1, (i1, ix, i1): -1, (i1, iy, i1): 1})
    assert v[(ix * len(monos) + i1) * len(monos) + i1] == 1  # last axis fastest
    assert res.kernel.contains(v)


def test_pin_n2_matches_pi2():
    a = xy_diagonal(1)
    p2 = pi2_kernel(a, order=5)
    pn = pin_injectivity_check(a, 2, order=5)
    assert not p2.kernel.is_zero()
    assert pn.kernel == p2.kernel


def test_pin_rejects_unary():
    with pytest.raises(ValueError):
        pin_injectivity_check(single_variable_backend(1, 2), 1)


# --- Z2 ------------------------------------------------------------------------


def test_z2_zero_for_euler_small():
    a = single_variable_backend(1, 2)
    res = z2_kernel(a, order=10, laurent_bound=1)
    assert res.kernel.is_zero()


def test_z2_nonzero_for_xy_diagonal_and_pi2_linkage():
    a = xy_diagonal(1)
    res = z2_kernel(a, order=8, laurent_bound=1)
    assert not res.kernel.is_zero()
    monos = list(res.monomials)
    ix, iy, i1 = monos.index((1, 0)), monos.index((0, 1)), monos.index((0, 0))
    witness = res.vector({
        (ix, i1, 0, 0): 1, (iy, i1, 0, 0): -1,
        (i1, ix, 0, 0): -1, (i1, iy, 0, 0): 1,
    })
    assert res.kernel.contains(witness)

    # nondegeneracy linkage: every pi2 kernel vector embeds with f = 1
    p2 = pi2_kernel(a, order=8)
    for row in p2.kernel.nonzero_rows():
        emb = {key + (0, 0): c for key, c in p2.entries(row)}
        assert res.kernel.contains(res.vector(emb))


def _support(vec):
    """The (flat index, coefficient) pairs of a dense vector's nonzero entries."""
    return [(t, c) for t, c in enumerate(vec) if c]


@pytest.mark.parametrize("arity, laurent_bound", [(2, None), (3, None), (2, 2), (3, 1)])
def test_entries_inverts_vector(arity, laurent_bound):
    # the flat index puts the monomial axes first and varies the last axis
    # fastest; shifts run over [-B, B], so negative ones occur
    monos = ((0, 0), (1, 0), (0, 1))
    res = vertexalg.CoefficientKernel(Subspace.zero(0), monos, arity, 4, laurent_bound)
    axes = [range(len(monos))] * arity
    if laurent_bound is not None:
        axes += [range(-laurent_bound, laurent_bound + 1)] * arity
    keys = list(itertools.product(*axes))
    for t, key in enumerate(keys):
        vec = res.vector({key: 3})
        assert vec[t] == 3 and sum(map(bool, vec)) == 1
        assert res.entries(_support(vec)) == [(key, 3)]
    rng = random.Random(arity * 10 + (laurent_bound or 0))
    for _ in range(20):
        chosen = rng.sample(keys, rng.randint(0, min(6, len(keys))))
        entries = {key: F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)) for key in chosen}
        vec = res.vector(entries)
        got = res.entries(_support(vec))
        assert got == sorted(entries.items(), key=lambda kc: keys.index(kc[0]))
        assert got == [(key, c) for key, c in zip(keys, vec) if c != 0]
    if laurent_bound is not None:
        low = (0,) * arity + (-laurent_bound,) * arity
        assert res.entries(_support(res.vector({low: 1}))) == [(low, 1)]


# --- Vandermonde certificate ---------------------------------------------------


def _laplace_det_int(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _laplace_det_int(minor)
        out += term if j % 2 == 0 else -term
    return out


def test_vandermonde_example_m1():
    verdict = vandermonde_monomial_decision(1, [(2, 0), (1, 1), (0, 2)])
    assert verdict == "independent"
    rows = [[falling_bracket(n, k, 1) for n in (2, 1, 0)] for k in range(3)]
    assert rows == [[1, 1, 1], [2, 1, 0], [4, 1, 0]]
    assert _laplace_det_int(rows) != 0


def test_vandermonde_single_pair():
    assert vandermonde_monomial_decision(2, [(3, 1)]) == "independent"


def test_vandermonde_m0_is_pure_vandermonde():
    assert vandermonde_monomial_decision(0, [(3, 0), (2, 1)]) == "independent"
    rows = [[falling_bracket(n, k, 0) for n in (3, 2)] for k in range(2)]
    assert abs(_laplace_det_int(rows)) == 3 - 2  # up to the Vandermonde sign


def test_vandermonde_verdict_matches_the_dense_determinant():
    # the determinant is +-prod_{i<j} (n_i - n_j), nonzero for the strictly
    # decreasing n_i a valid family has; the dense determinant of the matrix
    # ([n_i, k]) is the oracle
    rng = random.Random(20)
    for _ in range(300):
        m, s = rng.randint(0, 6), rng.randint(1, 6)
        total = rng.randint(s - 1, 12)
        ns = sorted(rng.sample(range(total + 1), s), reverse=True)
        det = Matrix.from_rows([[falling_bracket(n, k, m) for n in ns] for k in range(s)]).det()
        assert abs(det) == abs(math.prod(a - b for i, a in enumerate(ns) for b in ns[i + 1:]))
        assert det != 0
        assert vandermonde_monomial_decision(m, [(n, total - n) for n in ns]) == "independent"


def test_vandermonde_malformed():
    with pytest.raises(MalformedPairs):
        vandermonde_monomial_decision(1, [])
    with pytest.raises(MalformedPairs):
        vandermonde_monomial_decision(1, [(2, 0), (2, 0)])
    with pytest.raises(MalformedPairs):
        vandermonde_monomial_decision(1, [(2, 0), (1, 5)])


@pytest.mark.parametrize("m", ["a", None, 1.0, -1])
def test_vandermonde_m_must_be_a_nonnegative_int(m):
    with pytest.raises(MalformedPairs, match="m must be a nonnegative integer"):
        vandermonde_monomial_decision(m, [(2, 0), (1, 1)])
    # bools are not integers here, nor are the entries of a pair, which has two
    with pytest.raises(MalformedPairs, match="m must be a nonnegative integer"):
        vandermonde_monomial_decision(True, [(2, 0), (1, 1)])
    for pairs in ([(2.5, 0.5), (1.5, 1.5)], [("a", 0)], [(2, 0, 1)], [(2,)], [(True, 1)],
                  [(2, 0), (1, False)], [3], [None]):
        with pytest.raises(MalformedPairs, match="two integers"):
            vandermonde_monomial_decision(1, pairs)


# --- flip/skew -----------------------------------------------------------------


def test_flip_skew_pass():
    a = single_variable_backend(1, 6)
    report = flip_skew_check(a, [(x_poly(1), x_poly(2))], 6)
    assert report.passed


def test_flip_skew_trivial_pair():
    a = single_variable_backend(2, 4)
    one = Poly.const(1, F(1))
    report = flip_skew_check(a, [(one, x_poly(3, 5))], 3)
    assert report.passed


def test_flip_skew_corrupted_fails():
    a = _corrupted_ddx(4)
    report = flip_skew_check(a, [(x_poly(1), x_poly(2)), (Poly.const(1, F(1)), x_poly(1))], 3)
    assert not report.passed
    assert list(report.items()) == [
        ("(1/1*x, 1/1*x^2)", (False, "coefficient 1")),
        ("(1/1, 1/1*x)", (True, None)),
    ]


def _flip_failures(backend, u, v, order):
    """The z^k coefficients, as "coefficient k", at which
    e^{-z d}((e^{z d}u) v) and (e^{-z d}v) u differ, expanded directly."""
    for k in range(order + 1):
        lhs = Poly.zero(backend.nvars)
        for i in range(k + 1):
            j = k - i
            inner = (derive(backend, u, j) * v).scale(Fraction(1, math.factorial(j)))
            lhs = lhs + derive(backend, inner, i).scale(F(-1) ** i / math.factorial(i))
        rhs = (derive(backend, v, k) * u).scale(F(-1) ** k / math.factorial(k))
        if lhs != rhs:
            yield f"coefficient {k}"


def _random_poly(rng, monos, nvars):
    return Poly(nvars, {e: F(rng.randint(-3, 3), rng.randint(1, 3))
                        for e in rng.sample(monos, rng.randint(0, min(3, len(monos))))})


@pytest.mark.parametrize("seed", range(12))
def test_flip_skew_check_matches_the_direct_expansion_on_corrupted_tables(seed):
    # a random linear d that lowers or keeps the degree, so the table covers
    # every monomial a product of two samples reaches
    rng = random.Random(seed)
    nvars = 1 + seed % 2
    variables = ["x", "y"][:nvars]
    backend = CommDiffVA(variables, {v: Poly.zero(nvars) for v in variables}, 3)
    monos = backend.monomials(6)
    table = {e: _random_poly(rng, [t for t in monos if sum(t) <= sum(e)], nvars)
             for e in monos}
    corrupted = TableDerivation(variables, table, 3)
    pairs = [(_random_poly(rng, backend.monomials(3), nvars),
              _random_poly(rng, backend.monomials(3), nvars)) for _ in range(6)]
    report = flip_skew_check(corrupted, pairs, 4)
    vars_ = corrupted.variables
    assert list(report.items()) == [
        (f"({poly_to_text(u, vars_)}, {poly_to_text(v, vars_)})",
         next(((False, w) for w in _flip_failures(corrupted, u, v, 4)), (True, None)))
        for u, v in pairs]
    # every failing order, not only the first one the report keeps
    for u, v in pairs:
        assert [f"coefficient {k}" for k in vertexalg._skew_failures(corrupted, v, u, 4)] == \
            list(_flip_failures(corrupted, u, v, 4))


# --- text forms ----------------------------------------------------------------


def test_poly_text_roundtrip():
    p = Poly(2, {(2, 1): F(1, 2), (0, 0): F(-3), (1, 0): F(1)})
    text = poly_to_text(p, ["x", "y"])
    assert poly_from_text(text, ["x", "y"]) == p
    assert poly_from_text("x^2*y - y", ["x", "y"]) == \
        Poly(2, {(2, 1): F(1), (0, 1): F(-1)})
    assert poly_from_text("0", ["x"]).is_zero()


def test_poly_text_deterministic_order():
    p = Poly(1, {(3,): F(1), (1,): F(2)})
    assert poly_to_text(p, ["x"]) == "2/1*x + 1/1*x^3"


# --- structural invariants -------------------------------------------------------


def test_translation_operator_equals_derivation():
    # the z^1 coefficient of Y(f, z)1 recovers df exactly
    a = single_variable_backend(2, 5)
    one = Poly.const(1, F(1))
    for k in (0, 1, 2):
        f = x_poly(k, 3)
        coeffs = vertex_coefficients(a, f, one, 1)
        assert coeffs[1] == derive(a, f)


def test_exp_derivation_is_algebra_map_orderwise():
    # coefficient k of e^{zd}(fg) equals sum_{i+j=k} (d^i f / i!)(d^j g / j!)
    import math
    import random

    rng = random.Random(5)
    a = single_variable_backend(1, 8)
    for _ in range(8):
        f = Poly(1, {(rng.randint(0, 2),): F(rng.randint(-3, 3))})
        g = Poly(1, {(rng.randint(0, 2),): F(rng.randint(-3, 3))})
        for k in range(6):
            rhs = Poly.zero(1)
            for i in range(k + 1):
                j = k - i
                rhs = rhs + (derive(a, f, i) * derive(a, g, j)).scale(
                    F(1, math.factorial(i) * math.factorial(j)))
            assert derive(a, f * g, k).scale(F(1, math.factorial(k))) == rhs


def test_pi2_zero_implies_pi3_injective():
    # pair-map injectivity propagates to triples at fixed caps
    a = single_variable_backend(1, 3)
    p2 = pi2_kernel(a, order=9)
    assert p2.kernel.is_zero() and p2.stabilized
    assert pin_injectivity_check(a, 3, order=9).kernel.is_zero()


# --- the integer coefficient-map core against naive dense maps --------------------


def _naive_derive(backend):
    """d on {exponent: scalar} dicts, from the generator images (Leibniz) or,
    for a `TableDerivation`, its raw table, with its own arithmetic."""
    images = backend.images

    def on_monomial(e):
        if isinstance(backend, TableDerivation):
            return backend._monomial_derivative(e)
        out = {}
        for i, k in enumerate(e):
            if k:
                for f, c in images[i].terms.items():
                    g = tuple(a + b - (t == i) for t, (a, b) in enumerate(zip(e, f)))
                    out[g] = out.get(g, 0) + k * c
        return out

    def derive(p):
        out = {}
        for e, c in p.items():
            for g, dc in on_monomial(e).items():
                out[g] = out.get(g, 0) + c * dc
        return {g: c for g, c in out.items() if c != 0}

    return derive


def _naive_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _naive_chains(backend, order):
    derive = _naive_derive(backend)
    chains = []
    for m in backend.monomials():
        chain = [{m: F(1)}]
        for _ in range(order):
            chain.append(derive(chain[-1]))
        chains.append(chain)
    return chains


def _stacked(entries, ncols):
    """Dense matrix from {column: {row key: scalar}}, rows in key order."""
    keys = sorted({k for col in entries.values() for k in col})
    return Matrix.from_rows([[entries.get(ci, {}).get(k, F(0)) for ci in range(ncols)]
                             for k in keys])


def _naive_pi2(backend, chains, order):
    monos = backend.monomials()
    n = len(monos)
    cols = {}
    for i in range(n):
        for j in range(n):
            col = cols.setdefault(i * n + j, {})
            for k in range(order + 1):
                for e, c in _naive_mul(chains[i][k], {monos[j]: F(1)}).items():
                    col[(k, e)] = c
    return _stacked(cols, n * n)


def _naive_pi3(backend, chains, order):
    monos = backend.monomials()
    n = len(monos)
    cols = {}
    for i0, i1, i2 in itertools.product(range(n), repeat=3):
        col = cols.setdefault((i0 * n + i1) * n + i2, {})
        for k0 in range(order + 1):
            for k1 in range(order + 1):
                prod = _naive_mul(_naive_mul(chains[i0][k0], chains[i1][k1]),
                                  {monos[i2]: F(1)})
                for e, c in prod.items():
                    col[(k0, k1, e)] = c
    return _stacked(cols, n ** 3)


def _naive_z2(backend, chains, order, bb):
    monos = backend.monomials()
    n = len(monos)
    w = 2 * bb + 1
    cols = {}
    for i in range(n):
        for j in range(n):
            for a in range(-bb, bb + 1):
                for b in range(-bb, bb + 1):
                    col = cols.setdefault(((i * n + j) * w + a + bb) * w + b + bb, {})
                    for s in range(order + 2 * bb + 1):
                        for t in range(order + 2 * bb + 1 - s):
                            if a + s + b + t > order:
                                continue
                            weight = F(1, math.factorial(s) * math.factorial(t))
                            for e, c in _naive_mul(chains[i][s], chains[j][t]).items():
                                col[(a + s, b + t, e)] = c * weight
    return _stacked(cols, n * n * w * w)


def _half_square_backend(cap):
    return CommDiffVA(["x"], {"x": Poly.monomial((2,), F(1, 2))}, cap)


def _third_table_backend(cap):
    # d(x^n) = (n/3) x^(n-1), except d(x^2) = (1/2) x: not a derivation
    table = {(n,): Poly.monomial((n - 1,), F(n, 3)) if n else Poly.zero(1)
             for n in range(4 * cap + 8)}
    table[(2,)] = Poly.monomial((1,), F(1, 2))
    return TableDerivation(["x"], table, cap)


def _zeta3_backend(cap):
    return CommDiffVA(["x", "y"], {"x": Poly(2, {(1, 0): zeta(3)}),
                                   "y": Poly(2, {(0, 2): F(1, 2)})}, cap)


def _zeta3_cancel_backend(variables, cap):
    # L = 1, but d(xy) = (1/2 + zeta_3 - zeta_3) xy = (1/2) xy: a rational
    # coefficient whose denominator the derivation's own ones do not cover;
    # a third variable z with d(z) = z has the eigenvalue xy has if it is lost
    third = zeta(3)
    nvars = len(variables)
    images = {"x": F(1, 2) + third, "y": -third, "z": F(1)}
    return CommDiffVA(variables, {
        v: Poly(nvars, {tuple(int(i == k) for i in range(nvars)): images[v]})
        for k, v in enumerate(variables)}, cap)


def _sixth_backend(cap):
    # d x = x^2/3 + x/2: L = 6, given by images
    return CommDiffVA(["x"], {"x": Poly(1, {(2,): F(1, 3), (1,): F(1, 2)})}, cap)


ORACLE_BACKENDS = {
    "euler": lambda: (single_variable_backend(1, 2), 3),
    "half-square": lambda: (_half_square_backend(2), 3),
    "sixth": lambda: (_sixth_backend(2), 3),
    "table": lambda: (_third_table_backend(2), 3),
    "zeta3": lambda: (_zeta3_backend(1), 2),
    "zeta3-cancel": lambda: (_zeta3_cancel_backend(["x", "y"], 2), 2),
}


def _assert_same_kernel(kernel, stacked):
    expected = stacked.kernel()
    assert kernel == expected
    assert kernel.pivots == expected.pivots
    for v in kernel.basis:
        assert all(c == 0 for c in stacked.apply(list(v)))
    # the basis is already in reduced echelon form
    assert Subspace.from_vectors(kernel.ambient, kernel.basis) == kernel


@pytest.mark.parametrize("name", sorted(ORACLE_BACKENDS))
def test_integer_kernels_match_dense_oracle(name):
    backend, order = ORACLE_BACKENDS[name]()
    chains = _naive_chains(backend, order + 2)
    dims = []
    for k in (1, order):  # order 1 is not stabilised: it exercises _impose_order
        res = pi2_kernel(backend, order=k)
        stacked = _naive_pi2(backend, chains, k)
        _assert_same_kernel(res.kernel, stacked)
        assert res.stabilized == (_naive_pi2(backend, chains, k - 1).kernel() ==
                                  stacked.kernel())
        dims.append(res.kernel.dim)
    for k in (1, order):  # several orders share the prefix products
        res = pin_injectivity_check(backend, 3, order=k)
        _assert_same_kernel(res.kernel, _naive_pi3(backend, chains, k))
        dims.append(res.kernel.dim)
    res = z2_kernel(backend, order=order - 1, laurent_bound=1)
    if not isinstance(backend, TableDerivation):
        _assert_same_kernel(res.kernel, _naive_z2(backend, chains, order - 1, 1))
        dims.append(res.kernel.dim)
    else:  # the table breaks Leibniz, which the Z_2 rewriting needs
        assert res.kernel != _naive_z2(backend, chains, order - 1, 1).kernel()
    # a nonzero kernel occurs, so the comparison is not vacuous; all but the
    # cancelling backend also give a zero kernel for some map
    assert max(dims) > 0
    assert (0 in dims) == (name != "zeta3-cancel")


# K from 0, below, at and above 2B: for K < 2B the columns with a + b > K + 2B
# (shifted to 0..2B) are empty, and for K <= 2B - 2 some have a + b > K + 2B + 1
Z2_CASES = [(bb, k) for bb in (0, 1, 2) for k in sorted({0, 2 * bb - 1, 2 * bb, 2 * bb + 1})
            if k >= 0]


@pytest.mark.parametrize("bb,order", Z2_CASES)
@pytest.mark.parametrize("name", sorted(n for n in ORACLE_BACKENDS if n != "table"))
def test_z2_kernel_matches_dense_oracle(name, bb, order):
    backend, _ = ORACLE_BACKENDS[name]()
    chains = _naive_chains(backend, order + 2 * bb)
    res = z2_kernel(backend, order=order, laurent_bound=bb)
    _assert_same_kernel(res.kernel, _naive_z2(backend, chains, order, bb))


@pytest.mark.parametrize("name", sorted(n for n in ORACLE_BACKENDS if n != "table"))
def test_z2_kernel_without_laurent_shifts_is_the_flipped_pi2_kernel(name):
    backend, _ = ORACLE_BACKENDS[name]()
    n = len(backend.monomials())
    for k in range(4):
        pi2 = pi2_kernel(backend, order=k).kernel
        flipped = [[v[j * n + i] for i in range(n) for j in range(n)] for v in pi2.basis]
        assert z2_kernel(backend, order=k, laurent_bound=0).kernel == \
            Subspace.from_vectors(n * n, flipped)


def test_cancelling_cyclotomic_derivation_keeps_its_denominator():
    backend = _zeta3_cancel_backend(["x", "y", "z"], 2)
    assert backend.denominator == 1
    res = pi2_kernel(backend, order=2)
    chains = _naive_chains(backend, 2)
    _assert_same_kernel(res.kernel, _naive_pi2(backend, chains, 2))
    # d(xy) = xy / 2 and d(z) = z: xy (x) z - z (x) xy is not in the kernel
    index = {e: i for i, e in enumerate(res.monomials)}
    xy, z = index[(1, 1, 0)], index[(0, 0, 1)]
    assert not res.kernel.contains(res.vector({(xy, z): 1, (z, xy): -1}))


def test_derivative_chains_are_integral():
    backend = _half_square_backend(3)
    assert backend.denominator == 2
    assert _third_table_backend(2).denominator == 6
    chains = _derivative_chains(backend, backend.monomials(), 4)
    for chain in chains:
        for k, dk in enumerate(chain):
            for c in dk.values():
                assert type(c) is int
    # d'^k = 2^k d^k, against d read from the generator image
    assert Poly(1, chains[1][3]) == Poly(1, _naive_chains(backend, 3)[1][3]).scale(8)


def test_a_store_extended_further_returns_chains_of_the_asked_length():
    # d x = x^2, d y = 0 at D = 1: y (x) 1 - 1 (x) y stays in Ker(pi_2), so
    # pi_2 imposes every order up to K = 9 and extends the chains that far
    def make():
        return CommDiffVA(["x", "y"], {"x": Poly(2, {(2, 0): 1}), "y": Poly.zero(2)}, 1)

    backend = make()
    assert pi2_kernel(backend, order=9).kernel.dim == 1
    monos = backend.monomials()
    assert [len(chain) for chain in _derivative_chains(backend, monos, 9)] == [10] * 3
    assert [len(chain) for chain in _derivative_chains(backend, monos, 3)] == [4] * 3
    # Z_2 at K = 1, B = 1 reads the chains to order 3 only
    res, fresh = z2_kernel(backend, 1, 1), z2_kernel(make(), 1, 1)
    assert (res.kernel, res.kernel.pivots) == (fresh.kernel, fresh.kernel.pivots)


def test_zeta3_pi2_and_z2_dimensions():
    backend = _zeta3_backend(2)
    res = pi2_kernel(backend)
    assert res.kernel.dim == 0 and res.stabilized
    assert z2_kernel(backend, order=3, laurent_bound=1).kernel.dim == 57


# --- the order ladder against the stacked maps -------------------------------------


def _euler(nvars, cap):
    names = [f"x{i}" for i in range(1, nvars + 1)]
    return CommDiffVA(names, {v: Poly.variable(nvars, i) for i, v in enumerate(names)}, cap)


def _rotation(cap):
    # d x = y, d y = -x: eigenvalues 0, +-i, +-2i, ... on the carrier
    return CommDiffVA(["x", "y"], {"x": Poly.variable(2, 1), "y": Poly.variable(2, 0).scale(-1)},
                      cap)


def _zeta_scaling(cap):
    # d x = zeta_3 x, d y = zeta_3 y: r = 2 at D = 1, below the bound m = 3
    z = zeta(3)
    return CommDiffVA(["x", "y"], {"x": Poly(2, {(1, 0): z}), "y": Poly(2, {(0, 1): z})}, cap)


# name -> (backend, deg mu(d) on the carrier or None where d raises degree,
# the order the ladder starts at for K = m^2)
LADDER_BACKENDS = {
    "ddx": lambda: (single_variable_backend(0, 3), 4, 3),
    "xy": lambda: (xy_diagonal(1), 2, 1),
    "euler2": lambda: (_euler(2, 1), 2, 1),
    "rotation": lambda: (_rotation(1), 3, 2),
    # cyclotomic entries, reduced exactly by the same search
    "zeta-scaling": lambda: (_zeta_scaling(1), 2, 1),
    # d raises degree: K stays a truncation, and the ladder starts at m - 1
    "x2ddx": lambda: (single_variable_backend(2, 3), None, 3),
    "zeta3": lambda: (_zeta3_backend(1), None, 2),
}


def _krylov_degree(backend, chains):
    """deg mu(d) on the carrier by dense ranks of the flattened powers d^k."""
    monos = backend.monomials()
    flat = [[chain[k].get(e, F(0)) for chain in chains for e in monos]
            for k in range(len(monos) + 1)]
    return next(k for k in range(1, len(flat))
                if Matrix.from_rows(flat[:k + 1]).rank() == k)


@pytest.mark.parametrize("name", sorted(LADDER_BACKENDS))
def test_order_ladder_matches_stacked_maps(name):
    backend, r, start = LADDER_BACKENDS[name]()
    m = len(backend.monomials())
    chains = _naive_chains(backend, m * m)
    if r is None:
        assert any(e not in backend.monomials() for chain in chains for e in chain[1])
    else:
        assert _krylov_degree(backend, chains) == r
    # the ladder stops at its start order exactly when d preserves the carrier
    assert _order_ladder(backend, backend.monomials(), m * m) == (start, r is not None)
    top = r or m
    for k in sorted({1, top - 1, top, top + 1, m * m}):
        res = pi2_kernel(backend, order=k)
        stacked = _naive_pi2(backend, chains, k)
        _assert_same_kernel(res.kernel, stacked)
        assert res.order == k
        assert res.stabilized == (_naive_pi2(backend, chains, k - 1).kernel() ==
                                  stacked.kernel())
        res = pin_injectivity_check(backend, 3, order=k)
        _assert_same_kernel(res.kernel, _naive_pi3(backend, chains, k))
        assert res.order == k


def test_ladder_derives_no_further_than_the_minimal_polynomial(monkeypatch):
    derived = []
    chain = CommDiffVA.chain

    def counted(self, mono, k):
        derived.append(k)
        return chain(self, mono, k)

    monkeypatch.setattr(CommDiffVA, "chain", counted)
    # Euler on Q[x1, x2, x3] at D = 4: m = 35 monomials, d has the
    # eigenvalues 0..4 there, so r = 5 and the default K is 35^2
    backend = _euler(3, 4)
    res = pi2_kernel(backend)
    assert max(derived) <= 5
    assert (res.order, res.stabilized) == (35 ** 2, True)
    # d u = deg(u) u, so the pairs (u, v) with one product uv and one deg(u)
    # form a block, on which the kernel is the hyperplane of coefficient sum 0
    blocks = {}
    for u in backend.monomials():
        for v in backend.monomials():
            key = (tuple(map(sum, zip(u, v))), sum(u))
            blocks[key] = blocks.get(key, 0) + 1
    assert res.kernel.dim == sum(n - 1 for n in blocks.values()) == 800

    derived.clear()
    res = pin_injectivity_check(single_variable_backend(1, 4), 4)
    assert max(derived) <= 5
    assert res.order == 25 and res.kernel.is_zero()


@pytest.mark.parametrize("name", ["ddx", "xy", "x2ddx"])
def test_climbing_from_any_start_order_keeps_kernel_and_flag(name, monkeypatch):
    # the ladder may start at any order below K: the orders above its start
    # are imposed on the surviving kernel, and K alone decides the flag
    backend, _, _ = LADDER_BACKENDS[name]()
    m = len(backend.monomials())
    orders = (1, 2, m, m * m)
    expected = {k: (pi2_kernel(backend, order=k), pin_injectivity_check(backend, 3, order=k))
                for k in orders}
    for k in orders:
        for start in range(k):
            monkeypatch.setattr(vertexalg, "_order_ladder",
                                lambda b, monos, order, s=start: (s, False))
            p2, p3 = expected[k]
            res = pi2_kernel(backend, order=k)
            assert (res.kernel, res.kernel.pivots, res.stabilized) == \
                (p2.kernel, p2.kernel.pivots, p2.stabilized)
            assert pin_injectivity_check(backend, 3, order=k).kernel == p3.kernel

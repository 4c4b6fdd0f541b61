import itertools
from fractions import Fraction

from hopfva.action import HopfAction, trivial_action
from hopfva.hopf import (
    cyclic_group_table,
    group_algebra,
    product_group_table,
    sweedler,
    symmetric_group_table,
)
from hopfva.linalg import Matrix, nonzero_pairs, split_commutative_algebra
from hopfva.scalars import scalar_to_text, zeta
from hopfva.vertexalg import CommDiffVA, Poly, single_variable_backend

F = Fraction


def groups_are_isomorphic(ta, tb):
    """Brute-force isomorphism test for small group tables (identity at 0)."""
    n = len(ta)
    if len(tb) != n:
        return False

    def order(t, x):
        k, y = 1, x
        while y != 0:
            y = t[y][x]
            k += 1
        return k

    prof_a = sorted(order(ta, x) for x in range(n))
    prof_b = sorted(order(tb, x) for x in range(n))
    if prof_a != prof_b:
        return False
    for perm in itertools.permutations(range(1, n)):
        p = (0,) + perm
        if all(p[ta[i][j]] == tb[p[i]][p[j]] for i in range(n) for j in range(n)):
            return True
    return False


# ---------------------------------------------------------------------------
# dense oracles: an action's sparse columns as Matrices


def columns_matrix(monos, columns):
    """The Matrix over the monomial basis `monos` whose j-th column is
    columns[monos[j]], a monomial -> coefficient dict."""
    return Matrix.from_columns([[columns[e].get(t, 0) for t in monos] for e in monos])


def action_matrices(act):
    """The Matrix of each basis element of an action, over its monomials."""
    return [columns_matrix(act.monomials, cols) for cols in act._columns]


def edited_action(act, bi, e, t, value):
    """`act` with the coefficient of t in b_bi . e set to `value`, built
    unchecked."""
    columns = list(act._columns)
    columns[bi] = {**columns[bi], e: {**columns[bi][e], t: value}}
    return HopfAction(act.hopf, act.backend, columns, check=False)


# ---------------------------------------------------------------------------
# the shared action corpus


def euler_backend(cap=6, name="x"):
    """(Q[x], x d/dx), the workhorse pi2-injective backend."""
    return single_variable_backend(1, cap, name=name)


def cyclic_scaling_action(n, cap=6):
    """Z/n acting on (Q(zeta_n)[x], x d/dx) by x -> zeta_n^k x."""
    h = group_algebra(cyclic_group_table(n))
    backend = euler_backend(cap)
    z = zeta(n)
    images = {}
    for k in range(n):
        name = "e" if k == 0 else f"g{k}"
        images[name] = {"x": Poly.monomial((1,), z ** k if n > 2 else F(-1) ** k)}
    return HopfAction.from_generator_images(h, backend, images)


def through_first_factor_action(cap=6):
    """Z/2 x Z/2 acting on (Q[x], x d/dx) through its first factor only."""
    table = product_group_table(cyclic_group_table(2), cyclic_group_table(2))
    h = group_algebra(table)  # basis order: (e,e), (e,t), (s,e), (s,t)
    backend = euler_backend(cap)
    x = Poly.monomial((1,))
    images = {
        "e": {"x": x},
        "g1": {"x": x},        # (e, t): acts trivially
        "g2": {"x": -1 * x},   # (s, e)
        "g3": {"x": -1 * x},   # (s, t)
    }
    return HopfAction.from_generator_images(h, backend, images)


def sweedler_poly_action(m=0, cap=6):
    """Sweedler's Hopf algebra on (Q[z], z^m d/dz) via gz = -z, xz = 1."""
    h = sweedler()
    backend = single_variable_backend(m, cap, name="z")
    z = Poly.monomial((1,))
    one = Poly.const(1, F(1))
    images = {
        "1": {"z": z},
        "g": {"z": -1 * z},
        "x": {"z": one},
        "gx": {"z": one},  # (gx) z = g (x z) = g 1 = 1
    }
    return HopfAction.from_generator_images(h, backend, images)


def s3_perms():
    return sorted(itertools.permutations(range(3)))


def s3_action(cap=2):
    """S3 permuting the variables of (Q[x1, x2, x3], sum x_i d/dx_i)."""
    h = group_algebra(symmetric_group_table(3))
    backend = CommDiffVA(
        ["x1", "x2", "x3"],
        {"x1": Poly.variable(3, 0), "x2": Poly.variable(3, 1),
         "x3": Poly.variable(3, 2)},  # the Euler derivation sum x_i d_i
        cap)
    images = {}
    for name, p in zip(h.names, s3_perms()):
        images[name] = {f"x{i + 1}": Poly.variable(3, p[i]) for i in range(3)}
    return HopfAction.from_generator_images(h, backend, images)


def corpus_module_va_actions(cap=4):
    """The module-vertex-algebra action corpus used by the acceptance suite."""
    return {
        "z2-scaling": cyclic_scaling_action(2, cap),
        "z3-scaling": cyclic_scaling_action(3, cap),
        "z4-scaling": cyclic_scaling_action(4, cap),
        "v4-through-first": through_first_factor_action(cap),
        "trivial-sweedler": trivial_action(sweedler(), euler_backend(cap)),
        "trivial-s3": trivial_action(group_algebra(symmetric_group_table(3)),
                                     euler_backend(cap)),
    }


def count_constructions(monkeypatch):
    """{"Matrix": n, "Poly": m}, the Matrices and Polys built from now until
    `monkeypatch.undo()`."""
    built = {"Matrix": 0, "Poly": 0}
    init, exact, poly_init = Matrix.__init__, Matrix.__dict__["_exact"].__func__, Poly.__init__

    def counting_init(self, *args):
        built["Matrix"] += 1
        init(self, *args)

    def counting_exact(cls, *args):
        built["Matrix"] += 1
        return exact(cls, *args)

    def counting_poly(self, *args):
        built["Poly"] += 1
        poly_init(self, *args)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    monkeypatch.setattr(Matrix, "_exact", classmethod(counting_exact))
    monkeypatch.setattr(Poly, "__init__", counting_poly)
    return built


def tensors_entry(h, name, **extra):
    """A `tensors` workspace entry with the structure constants of `h`."""
    text = scalar_to_text
    d = h.dim
    return {"name": name, "builder": "tensors", "dim": d, "basis": list(h.names),
            "mul": [[i, j, k, text(c)] for i, j, k, c in h.mul_entries()],
            "comul": [[k, i, j, text(c)] for k, i, j, c in h.comul_entries()],
            "antipode": [[i, j, text(c)] for j, pairs in enumerate(h.antipode_nonzero)
                         for i, c in pairs],
            "unit": [text(c) for c in h.unit], "counit": [text(c) for c in h.counit],
            **extra}


def split_dense(mult, dim, conductor=1):
    """`split_commutative_algebra` on a dense structure tensor, mult[i][j]
    the coordinate vector of b_i * b_j."""
    return split_commutative_algebra([[nonzero_pairs(v) for v in row] for row in mult], dim,
                                     conductor)

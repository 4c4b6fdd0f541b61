"""Seeded workspaces and query lists, one builder per workload.

Each builder writes one JSON workspace and returns the queries to run
against it.  A query is the argv of one `hopfva` command plus the exit
status it must end with and a check that compares its machine block with
an independent computation from `oracle`.  The seed relabels group
elements (the identity stays first, see README), renames variables and
element names, and orders the queries; it never changes which queries run.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle as O

VAR_POOL = "abcfhkmnpqrstuvwxy"
NAME_POOL = [a + b for a in "bcdfghjklm" for b in "aeiouy"]

SETUP_ARGV = ["verify-hopf", "--object", "probe"]


@dataclass
class Query:
    argv: list
    exit_code: int
    check: Callable  # check(result dict) -> None, raises O.Mismatch

    @property
    def label(self):
        return " ".join(self.argv)


class Builder:
    """Collects workspace sections and queries for one workload."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.ws = {"schema_version": 1, "groups": [], "hopf_algebras": [],
                   "backends": [], "actions": [], "character_tables": []}
        self.queries = []
        self._vars = self.rng.sample(VAR_POOL, len(VAR_POOL))
        self._names = self.rng.sample(NAME_POOL, len(NAME_POOL))
        self.group("probe", O.cyclic_table(2), relabel=False)
        self.ws["hopf_algebras"].append(
            {"name": "probe", "builder": "group_algebra", "group": "probe"})

    def variables(self, k):
        out, self._vars = self._vars[:k], self._vars[k:]
        return out

    def names(self, k):
        out, self._names = self._names[:k], self._names[k:]
        return out

    def group(self, name, table, relabel=True):
        """Add a group; returns (table, names, original->new index)."""
        n = len(table)
        perm = list(range(n))
        if relabel:
            rest = perm[1:]
            self.rng.shuffle(rest)
            perm = [0] + rest
            table = O.relabel(table, perm)
        names = self.names(n)
        self.ws["groups"].append({"name": name, "table": table, "element_names": names})
        return table, names, perm

    def hopf(self, name, **fields):
        self.ws["hopf_algebras"].append(dict(name=name, **fields))

    def backend(self, name, variables, derivation, cap):
        self.ws["backends"].append({"name": name, "variables": variables,
                                    "derivation": derivation, "degree_cap": cap})

    def action(self, name, hopf, backend, images):
        self.ws["actions"].append({"name": name, "hopf": hopf, "backend": backend,
                                   "generator_images": images})

    def query(self, argv, check, exit_code=0):
        self.queries.append(Query(list(argv), exit_code, check))

    def write(self, workdir, stem):
        path = os.path.join(workdir, f"{stem}.json")
        with open(path, "w") as fh:
            json.dump(self.ws, fh, sort_keys=True)
        self.rng.shuffle(self.queries)
        for q in self.queries:
            q.argv[1:1] = ["--workspace", path]
        return path, self.queries


# ---------------------------------------------------------------------------
# shared checks


def check_zero_kernel(order=None, stabilized=None):
    """x^m d/dx: pi_2, pi_n and Z_2 are injective (Vandermonde argument)."""
    def check(res):
        O.expect(res["dim"] == 0 and res["basis"] == [],
                 f"kernel of dimension {res['dim']} where the theorem gives 0")
        if order is not None:
            O.expect(res["order"] == order, f"order {res['order']}, expected {order}")
        if stabilized is not None:
            O.expect(res["stabilized"] is stabilized, "stabilisation flag is wrong")
    return check


def check_pi2(variables, images, cap, order):
    """Kernel vectors by direct evaluation; dimension and the stabilisation
    flag by brute-force modular rank of the stacked map."""
    deriv = O.Derivation([O.parse_poly(images[v], variables) for v in variables])
    monos = O.monomials(len(variables), cap)
    cache = {}

    def columns(k_max):
        if k_max not in cache:
            cols = [O.pi2_column(deriv, ei, ej, k_max) for ei in monos for ej in monos]
            cache[k_max] = cols, O.nullity_mod_p(cols)
        return cache[k_max]

    def check(res):
        O.expect(res["order"] == order, f"order {res['order']}, expected {order}")
        index = {(ei, ej): t for t, (ei, ej) in
                 enumerate((ei, ej) for ei in monos for ej in monos)}
        vectors = []
        for vec in res["basis"]:
            v = {}
            for mi, mj, c in vec:
                key = (O.parse_monomial(mi, variables), O.parse_monomial(mj, variables))
                O.expect(key in index, f"pair {mi}, {mj} is outside the carrier")
                v[index[key]] = O.parse_rational(c)
            vectors.append(v)
        O.check_kernel(*columns(order), vectors, res["dim"], "pi2 kernel")
        below = columns(order - 1)[1]
        O.expect(res["stabilized"] is (below == res["dim"]),
                 f"stabilized={res['stabilized']} but the order-{order - 1} "
                 f"kernel has dimension {below}")
    return check


def check_z2(variables, images, cap, order, bound):
    deriv = O.Derivation([O.parse_poly(images[v], variables) for v in variables])
    monos = O.monomials(len(variables), cap)
    keys = [(ei, ej, a, b) for ei in monos for ej in monos
            for a in range(-bound, bound + 1) for b in range(-bound, bound + 1)]
    cache = []

    def check(res):
        if not cache:
            cols = [O.z2_column(deriv, ei, ej, a, b, order, bound) for ei, ej, a, b in keys]
            cache.extend((cols, O.nullity_mod_p(cols)))
        index = {k: t for t, k in enumerate(keys)}
        vectors = []
        for vec in res["basis"]:
            v = {}
            for mi, mj, a, b, c in vec:
                key = (O.parse_monomial(mi, variables), O.parse_monomial(mj, variables), a, b)
                O.expect(key in index, f"entry {mi}, {mj}, {a}, {b} is outside the map")
                v[index[key]] = O.parse_rational(c)
            vectors.append(v)
        O.check_kernel(*cache, vectors, res["dim"], "Z2 kernel")
    return check


def check_pin(variables, images, cap, arity, order, injective_by_theorem=False):
    cache = [0] if injective_by_theorem else []

    def check(res):
        O.expect(res["arity"] == arity, f"arity {res['arity']}, expected {arity}")
        if not cache:
            deriv = O.Derivation([O.parse_poly(images[v], variables) for v in variables])
            monos = O.monomials(len(variables), cap)
            cache.append(O.nullity_mod_p([O.pin_column(deriv, idx, order) for idx in
                                          itertools.product(monos, repeat=arity)]))
        nullity = cache[0]
        O.expect(res["kernel_dim"] == nullity,
                 f"kernel dimension {res['kernel_dim']}, brute force {nullity}")
        O.expect(res["injective"] is (nullity == 0), "injectivity flag is wrong")
    return check


def check_all_ok(key, names=None, failing=()):
    """A report whose entries pass except exactly those in `failing`."""
    def check(res):
        report = res[key]
        if names is not None:
            O.expect(sorted(report) == sorted(names), f"report entries {sorted(report)}")
        for name, entry in report.items():
            O.expect(entry["ok"] is (name not in failing),
                     f"{name}: ok={entry['ok']}, expected {name not in failing}")
    return check


HOPF_AXIOMS = ("associativity", "unit", "coassociativity", "counit",
               "comul-is-algebra-map", "counit-is-algebra-map",
               "antipode-left", "antipode-right")
ACTION_CHECKS = ("unit-compatibility", "module-algebra-rule",
                 "derivation-commutation", "hopf-vertex-identity")


def check_characters(table, conductor):
    def check(res):
        O.expect(res["count"] == len(res["elements"]), "count disagrees with the list")
        O.check_characters(table, res["elements"], conductor)
    return check


def check_recognized(table):
    """The recovered table is a group table isomorphic to the input group."""
    def check(res):
        O.expect(res["group_algebra"] is True, "not recognised as a group algebra")
        out = res["table"]
        O.expect(O.is_group_table(out), "recovered table is not a group table")
        O.expect(O.identity_of(out) == 0, "recovered table does not start at the unit")
        if O.is_abelian(table):
            # finite abelian groups are determined by their element orders
            O.expect(O.is_abelian(out) and O.order_profile(out) == O.order_profile(table),
                     "recovered group is not isomorphic to the input")
        else:
            O.expect(O.find_isomorphism(table, out) is not None,
                     "recovered group is not isomorphic to the input")
    return check


def check_verdict(verdict, detail):
    def check(res):
        O.expect(res.get("verdict") == verdict and res.get("detail") == detail,
                 f"verdict {res.get('verdict')!r} ({res.get('detail')!r}), "
                 f"expected {verdict!r} ({detail!r})")
    return check


def check_refused(failed):
    def check(res):
        O.expect(res.get("refusal") == "hypotheses-not-met" and res.get("failed") == failed,
                 f"refusal {res}, expected hypotheses-not-met {failed}")
    return check


# ---------------------------------------------------------------------------
# diagonal actions: Z/n scaling and Z/2 x Z/2 through its first factor


class Diagonal:
    """A group acting on (Q(zeta_m)[x], x d/dx) by x -> lam(g) x."""

    def __init__(self, b, name, table, names, lam_exp, m, backend, cap, var):
        self.name, self.names, self.table = name, names, table
        self.field = O.Field(m)
        self.lam = [self.field.root(e) for e in lam_exp]
        self.cap = cap
        self.var = var
        b.hopf(f"h_{name}", builder="group_algebra", group=f"g_{name}", element_names=names)
        images = {}
        for g, nm in enumerate(names):
            e = lam_exp[g] % m
            if e == 0:
                text = var
            elif 2 * e == m:
                text = f"-1*{var}"
            else:
                text = f"zeta({m}):[{','.join(['0'] * e + ['1'])}]*{var}"
            images[nm] = {var: text}
        b.action(name, f"h_{name}", backend, images)

    def model(self, cap=None):
        return O.DiagonalAction(self.table, self.lam, self.field,
                                self.cap if cap is None else cap)

    def faithful(self, cap=None):
        return len(self.model(cap).kernel_subgroup()) == 1

    def check_fixed(self, cap=None):
        model = self.model(cap)
        expected = model.invariant_degrees()

        def check(res):
            O.expect(res["dim"] == len(expected),
                     f"fixed dimension {res['dim']}, expected {len(expected)}")
            polys = [O.parse_poly(t, [self.var]) for t in res["basis"]]
            for p in polys:
                O.expect(p and all(e[0] in expected for e in p),
                         f"{p} is not an invariant polynomial")
            O.check_echelon(polys, "fixed-point basis")
            check_all_ok("closure", ("contains-vacuum", "derivation-closed",
                                     "vertex-mode-closed"))(res)
        return check

    def check_annihilator(self, cap=None):
        model = self.model(cap)
        dim = model.annihilator_dim()
        stable = model.distinct_chars(model.cap - 1) == model.distinct_chars(model.cap) \
            if model.cap > 0 else True

        def check(res):
            O.expect(res["dim"] == dim, f"annihilator dimension {res['dim']}, expected {dim}")
            vecs = [[self.field.parse(t) for t in v] for v in res["basis"]]
            O.expect(len(vecs) == dim, "basis length disagrees with the dimension")
            for v in vecs:
                O.expect(model.annihilates(v), "a basis element does not annihilate")
            O.check_echelon([dict(enumerate(v)) for v in vecs], "annihilator",
                            self.field.one(), self.field.zero())
            O.expect(res["stabilized"] is stable, "stabilisation flag is wrong")
        return check

    def check_inner_faithful(self, cap=None):
        expected = self.faithful(cap)
        return (lambda res: O.expect(res["inner_faithful"] is expected,
                                     f"inner_faithful should be {expected}")), \
            0 if expected else 3

    def check_quotient(self, cap=None):
        kernel = self.model(cap).kernel_subgroup()
        qdim = len(self.table) // len(kernel)
        cosets = {}
        for g in range(len(self.table)):
            cosets[g] = frozenset(self.table[g][k] for k in kernel)

        def check(res):
            O.expect(res["quotient_dim"] == qdim and res["ideal_dim"] == len(self.table) - qdim,
                     f"quotient {res['quotient_dim']}/{res['ideal_dim']}, expected "
                     f"{qdim}/{len(self.table) - qdim}")
            O.expect(res["fixed_preserved"] is True, "fixed points not preserved")
            chosen = [self.names.index(n) for n in res["quotient_basis"]]
            O.expect(len({cosets[g] for g in chosen}) == qdim == len(chosen),
                     "quotient basis does not pick one element per coset")
        return check

    def check_tensor(self, s_max, cap=None):
        table, s0 = self.model(cap).tensor_table(s_max)

        def check(res):
            O.expect(res["table"] == table and res["s0"] == s0,
                     f"tensor table {res['table']} s0={res['s0']}, expected {table} s0={s0}")
        return check

    def thm_5_1(self, cap=None):
        if self.faithful(cap):
            return check_verdict("PASS", f"group algebra of order {len(self.table)}"), 0
        return check_refused(["inner-faithful"]), 2

    def thm_5_4(self, cap=None):
        dim = self.model(cap).annihilator_dim()
        return check_verdict("PASS", f"kernel dimension {dim}"), 0

    def char_mults(self, chars, cap=None):
        """Per-degree multiplicity of each named character (as field tuples)."""
        model = self.model(cap)
        out = {}
        for name, chi in chars.items():
            out[name] = [1 if model.char_power(k) == chi else 0 for k in range(model.cap + 1)]
        return out

    def check_decompose(self, chars, cap=None):
        mults = self.char_mults(chars, cap)

        def check(res):
            O.expect(res["multiplicities"] == mults, f"multiplicities {res['multiplicities']}, "
                     f"expected {mults}")
            O.expect(res["isotype_dims"] == {k: sum(v) for k, v in mults.items()},
                     "isotype dimensions are wrong")
        return check

    def check_multiplicity(self, chars, irrep, cap=None):
        mults = self.char_mults(chars, cap)[irrep]
        return lambda res: O.expect(res["dims_per_degree"] == mults and res["irrep"] == irrep,
                                    f"dims {res['dims_per_degree']}, expected {mults}")

    def check_commutant(self, cap=None):
        expected = self.model(cap).invariant_degrees()

        def check(res):
            report = res["checks"]
            O.expect(len(report) == len(expected), f"{len(report)} samples, "
                     f"{len(expected)} invariant monomials")
            check_all_ok("checks")(res)
            for label in report:
                p = O.parse_poly(label, [self.var])
                O.expect(p and all(e[0] in expected for e in p), f"{label} is not invariant")
        return check

    def check_reach(self, chars, irrep, seed_degree, cap=None):
        model = self.model(cap)
        inv = model.invariant_degrees(model.cap - seed_degree)
        iso = self.char_mults(chars, cap)[irrep]

        def check(res):
            O.expect(res["reachable_dim"] == len(inv) and res["isotype_dim"] == sum(iso)
                     and res["fills_isotype"] is (len(inv) == sum(iso)),
                     f"reach {res}, expected {len(inv)} of {sum(iso)}")
        return check

    def check_distinguish(self, chars, a, b, cap=None):
        mults = self.char_mults(chars, cap)
        da, db = tuple(mults[a]), tuple(mults[b])
        O.expect(da != db, "benchmark pair must differ degreewise")
        return check_verdict("degreewise-dims", f"{da} vs {db}")


def abelian_chartable(b, name, group, table, field, gens):
    """Characters of a cyclic group given by chi_j(g) = zeta^(j * k(g))."""
    chars = {}
    entries = []
    for j, k_of in gens:
        values = [field.power(field.root(1), (j * k_of[g]) % field.m) for g in range(len(table))]
        chars[f"chi{j}"] = tuple(values)
        texts = [_field_text(field, v) for v in values]
        entries.append({"name": f"chi{j}", "degree": 1, "values": texts,
                        "matrices": [[[t]] for t in texts]})
    b.ws["character_tables"].append(
        {"name": name, "group": group, "classes": [[g] for g in range(len(table))],
         "characters": entries})
    return chars


def _field_text(field, v):
    if all(c == 0 for c in v[1:]):
        return O.scalar_text(v[0])
    return f"zeta({field.m}):[{','.join(O.scalar_text(c) for c in v)}]"


# ---------------------------------------------------------------------------
# coeff-kernels


def coeff_kernels(seed, workdir):
    b = Builder(seed)
    (v,) = b.variables(1)
    b.backend("euler", [v], {v: v}, 4)
    # zero kernels by the Vandermonde argument; selftest.py certifies them mod p
    b.query(["z2-kernel", "--object", "euler", "--cap-d", "3", "--order-k", "16",
             "--laurent-b", "1"], check_zero_kernel())
    b.query(["z2-kernel", "--object", "euler", "--cap-d", "2", "--order-k", "12",
             "--laurent-b", "2"], check_zero_kernel())
    b.query(["pin-check", "--object", "euler", "--arity-n", "3", "--cap-d", "3"],
            check_pin([v], {v: v}, 3, 3, 16, injective_by_theorem=True))
    for m in range(4):
        (w,) = b.variables(1)
        image = "1" if m == 0 else (w if m == 1 else f"{w}^{m}")
        b.backend(f"xm{m}", [w], {w: image}, 8)
        b.query(["pi2-kernel", "--object", f"xm{m}"], check_pi2([w], {w: image}, 8, 81))
    xy = b.variables(2)
    diag = {xy[0]: "1", xy[1]: "1"}
    b.backend("xy", xy, diag, 2)
    b.query(["pi2-kernel", "--object", "xy", "--cap-d", "1", "--order-k", "10"],
            check_pi2(xy, diag, 1, 10))
    b.query(["pi2-kernel", "--object", "xy"], check_pi2(xy, diag, 2, 36))
    b.query(["z2-kernel", "--object", "xy", "--cap-d", "1"], check_z2(xy, diag, 1, 9, 2))
    b.query(["z2-kernel", "--object", "xy", "--order-k", "3", "--laurent-b", "1"],
            check_z2(xy, diag, 2, 3, 1))
    return b.write(workdir, "coeff-kernels")


# ---------------------------------------------------------------------------
# action-checks


S3_PERMS = sorted(itertools.permutations(range(3)))


def _std_matrix(p):
    """S3 on {w in Q^3 : sum w = 0} in the basis e0 - e1, e1 - e2."""
    cols = []
    for f in ((1, -1, 0), (0, 1, -1)):
        w = [0, 0, 0]
        for i in range(3):
            w[p[i]] += f[i]
        cols.append((w[0], -w[2]))
    return [[str(cols[c][r]) for c in range(2)] for r in range(2)]


def s3_objects(b, cap):
    """S3 permuting three variables with the Euler derivation."""
    table, names, perm = b.group("s3", O.permutation_table(S3_PERMS))
    perms = [None] * 6
    for old, new in enumerate(perm):
        perms[new] = S3_PERMS[old]
    xs = b.variables(3)
    b.backend("cube", xs, {x: x for x in xs}, cap)
    b.hopf("qs3", builder="group_algebra", group="s3", element_names=names)
    b.action("s3perm", "qs3", "cube",
             {names[g]: {xs[i]: xs[perms[g][i]] for i in range(3)} for g in range(6)})
    classes = {}
    for g, p in enumerate(perms):
        key = (O.perm_sign(p), sum(1 for i, x in enumerate(p) if i == x))
        classes.setdefault(key, []).append(g)
    classes = sorted(classes.values())
    chars = []
    for name in ("triv", "sign", "std"):
        values = [str(O.symmetric_characters(perms[c[0]])[name]) for c in classes]
        if name == "std":
            mats = [_std_matrix(p) for p in perms]
        else:
            mats = [[[str(O.symmetric_characters(p)[name])]] for p in perms]
        chars.append({"name": name, "degree": 2 if name == "std" else 1,
                      "values": values, "matrices": mats})
    b.ws["character_tables"].append(
        {"name": "s3chars", "group": "s3", "classes": classes, "characters": chars})
    return xs, perms


def s3_checks(xs, perms):
    """Checks for the S3 permutation action, from the character inner product."""
    def mults(cap):
        return O.permutation_multiplicities(perms, 3, cap)

    def invariant(poly):
        return all(O.permute_poly(poly, p) == poly for p in perms)

    def verify(res):
        # permutations of the variables are algebra automorphisms, and they
        # commute with d = sum x_i d/dx_i because d fixes every generator
        deriv = O.Derivation([{tuple(int(j == i) for j in range(3)): Fraction(1)}
                              for i in range(3)])
        for p in perms:
            for i in range(3):
                xi = {tuple(int(j == i) for j in range(3)): Fraction(1)}
                O.expect(O.permute_poly(deriv(xi), p) == deriv(O.permute_poly(xi, p)),
                         "a permutation does not commute with d")
        check_all_ok("checks", ACTION_CHECKS)(res)

    def commutant(cap):
        def check(res):
            report = res["checks"]
            inv = mults(cap)["triv"]
            O.expect(len(report) == sum(inv), f"{len(report)} samples, {sum(inv)} invariants")
            check_all_ok("checks")(res)
            polys = [O.parse_poly(label, xs) for label in report]
            for p in polys:
                O.expect(p and invariant(p), "a commutant sample is not invariant")
            O.expect(O.rank_mod_p(polys) == len(polys), "samples are dependent")
        return check

    def decompose(cap):
        m = mults(cap)

        def check(res):
            O.expect(res["multiplicities"] == m, f"multiplicities {res['multiplicities']}, "
                     f"expected {m}")
            O.expect(res["isotype_dims"] == {"triv": sum(m["triv"]), "sign": sum(m["sign"]),
                                             "std": 2 * sum(m["std"])},
                     "isotype dimensions are wrong")
        return check

    def multiplicity(cap, irrep):
        m = mults(cap)[irrep]
        return lambda res: O.expect(res["dims_per_degree"] == m and res["irrep"] == irrep,
                                    f"dims {res['dims_per_degree']}, expected {m}")

    def reach(cap, irrep, seed_degree):
        # the modes are multiplications by invariants (d scales a homogeneous
        # invariant), so the reachable space is seed * invariants of degree
        # <= cap - deg(seed); multiplication by a nonzero seed is injective
        m = mults(cap)
        reachable = sum(m["triv"][:cap - seed_degree + 1])
        iso = (2 if irrep == "std" else 1) * sum(m[irrep])

        def check(res):
            O.expect(res["reachable_dim"] == reachable and res["isotype_dim"] == iso
                     and res["fills_isotype"] is (reachable == iso),
                     f"reach {res}, expected {reachable} of {iso}")
        return check

    def distinguish(cap, a, b):
        m = mults(cap)
        return check_verdict("degreewise-dims", f"{tuple(m[a])} vs {tuple(m[b])}")

    return verify, commutant, decompose, multiplicity, reach, distinguish


def diagonal_objects(b, var, backend, cap):
    """Z/2, Z/3, Z/4 scaling and Z/2 x Z/2 through its first factor."""
    out = {}
    for n in (2, 3, 4):
        table, names, perm = b.group(f"g_z{n}scale", O.cyclic_table(n))
        lam = [0] * n
        for old, new in enumerate(perm):
            lam[new] = old
        out[f"z{n}"] = Diagonal(b, f"z{n}scale", table, names, lam, n, backend, cap, var)
    table, names, perm = b.group("g_v4first",
                                 O.product_table(O.cyclic_table(2), O.cyclic_table(2)))
    lam = [0] * 4
    for old, new in enumerate(perm):
        lam[new] = old // 2  # the first factor acts by -1
    out["v4"] = Diagonal(b, "v4first", table, names, lam, 2, backend, cap, var)
    return out


def action_checks(seed, workdir):
    b = Builder(seed)
    xs, perms = s3_objects(b, 3)
    verify, commutant, decompose, multiplicity, reach, distinguish = s3_checks(xs, perms)
    (v,) = b.variables(1)
    b.backend("line", [v], {v: v}, 6)
    diag = diagonal_objects(b, v, "line", 6)

    s3 = ["--object", "s3perm", "--characters", "s3chars"]
    d2 = ["--cap-d", "2"]
    b.query(["verify-action", "--object", "s3perm", "--order-k", "4"] + d2, verify)
    b.query(["commutant", "--object", "s3perm"] + d2, commutant(2))
    b.query(["decompose"] + s3, decompose(3))
    b.query(["multiplicity"] + s3 + ["--irrep", "std"] + d2, multiplicity(2, "std"))
    b.query(["reach"] + s3 + ["--irrep", "std", "--seed", f"{xs[0]} - {xs[1]}"] + d2,
            reach(2, "std", 1))
    b.query(["distinguish"] + s3 + ["--irrep", "triv", "--irrep2", "sign"] + d2,
            distinguish(2, "triv", "sign"))
    # 5^3 = 125 dimensions of dense Kronecker products
    b.query(["tensor-faithful", "--object", "v4first", "--cap-d", "4"],
            diag["v4"].check_tensor(3, 4))
    for key in ("z3", "z4", "v4"):
        check, code = diag[key].thm_5_1(4)
        b.query(["thm-5-1", "--object", diag[key].name, "--cap-d", "4"], check, code)
    for key in ("z2", "v4"):
        check, code = diag[key].thm_5_4(4)
        b.query(["thm-5-4", "--object", diag[key].name, "--cap-d", "4"], check, code)
    for key in ("z3", "v4"):
        b.query(["quotient", "--object", diag[key].name, "--cap-d", "4"],
                diag[key].check_quotient(4))
    return b.write(workdir, "action-checks")


# ---------------------------------------------------------------------------
# cyclo-group-likes


def cyclo_group_likes(seed, workdir):
    b = Builder(seed)
    c2 = O.cyclic_table(2)
    groups = {
        "z3": O.cyclic_table(3),
        "z6": O.cyclic_table(6),
        "z2z4": O.product_table(c2, O.cyclic_table(4)),
        "z2z2z2": O.product_table(O.product_table(c2, c2), c2),
    }
    for name, base in groups.items():
        # the splitting work depends on the element order (see README), so
        # these tables keep the builders' order and only get seeded names
        table, names, _ = b.group(name, base, relabel=False)
        b.hopf(f"q{name}", builder="group_algebra", group=name, element_names=names)
        b.hopf(f"d{name}", builder="dual", of=f"q{name}")
        n = str(O.exponent(table))
        b.query(["group-likes", "--object", f"d{name}", "--conductor", n],
                check_characters(table, int(n)))
        if name in ("z6", "z2z2z2"):
            b.query(["recognize-group-algebra", "--object", f"d{name}", "--conductor", n],
                    check_recognized(table))
    perms4 = sorted(itertools.permutations(range(4)))
    edges = {frozenset((i, (i + 1) % 4)) for i in range(4)}
    square = [p for p in perms4 if {frozenset(p[i] for i in e) for e in edges} == edges]
    for name, perms in (("a4", [p for p in perms4 if O.perm_sign(p) == 1]), ("d4", square)):
        table, names, _ = b.group(name, O.permutation_table(perms), relabel=False)
        b.hopf(f"q{name}", builder="group_algebra", group=name, element_names=names)
        # building Q[G] runs the d^3 axiom loops; recognition splits its dual
        b.query(["recognize-group-algebra", "--object", f"q{name}"], check_recognized(table))
    return b.write(workdir, "cyclo-group-likes")


# ---------------------------------------------------------------------------
# small-sweep


def small_sweep(seed, workdir):
    b = Builder(seed)
    (v,) = b.variables(1)
    b.backend("eul", [v], {v: v}, 4)
    diag = diagonal_objects(b, v, "eul", 4)
    z2, z3, z4, v4 = diag["z2"], diag["z3"], diag["z4"], diag["v4"]
    f2, f4 = O.Field(2), O.Field(4)
    z2chars = abelian_chartable(b, "z2chars", "g_z2scale", z2.table, f2,
                                [(j, _exponents(z2)) for j in range(2)])
    z4chars = abelian_chartable(b, "z4chars", "g_z4scale", z4.table, f4,
                                [(j, _exponents(z4)) for j in range(4)])

    b.hopf("sweedler", builder="sweedler")
    sw_vars = {}
    for m in range(3):
        (z,) = b.variables(1)
        sw_vars[m] = z
        b.backend(f"sw{m}", [z], {z: "1" if m == 0 else (z if m == 1 else f"{z}^2")}, 3)
        b.action(f"swe{m}", "sweedler", f"sw{m}",
                 {"g": {z: f"-1*{z}"}, "x": {z: "1"}, "gx": {z: "1"}})
    for n in (2, 3, 4):
        table, names, _ = b.group(f"c{n}", O.cyclic_table(n))
        b.hopf(f"qc{n}", builder="group_algebra", group=f"c{n}", element_names=names)
        b.hopf(f"dc{n}", builder="dual", of=f"qc{n}")
    v4table = next(g["table"] for g in b.ws["groups"] if g["name"] == "g_v4first")
    xy = b.variables(2)
    diagxy = {xy[0]: "1", xy[1]: "1"}
    b.backend("xy", xy, diagxy, 2)

    def q(argv, check, code=0):
        b.query(argv, check, code)

    def cap(k):
        return ["--cap-d", str(k)]

    # Hopf layer
    q(["verify-hopf", "--object", "sweedler"], check_all_ok("axioms", HOPF_AXIOMS))
    q(["verify-hopf", "--object", "h_z4scale"], check_all_ok("axioms", HOPF_AXIOMS))
    q(["verify-hopf", "--object", "dc3"], check_all_ok("axioms", HOPF_AXIOMS))
    # Delta(x) = x (x) 1 + g (x) x is the first asymmetric coproduct
    q(["cocommutative", "--object", "sweedler"],
      lambda r: O.expect(r["cocommutative"] is False and r["witness"] == "x",
                         f"sweedler cocommutativity {r}"), 3)
    q(["cocommutative", "--object", "dc4"],
      lambda r: O.expect(r["cocommutative"] is True, "dual of Q[Z4] is cocommutative"))
    # G(H4) = {1, g}: the declared group-like basis elements
    q(["group-likes", "--object", "sweedler"],
      lambda r: O.expect(r["elements"] == [["1/1", "0/1", "0/1", "0/1"],
                                           ["0/1", "1/1", "0/1", "0/1"]],
                         f"sweedler group-likes {r['elements']}"))
    for n in (2, 3, 4):
        table = next(g["table"] for g in b.ws["groups"] if g["name"] == f"c{n}")
        cond = 1 if n == 2 else n
        q(["group-likes", "--object", f"dc{n}", "--conductor", str(cond)],
          check_characters(table, n if n > 2 else 2))
    q(["recognize-group-algebra", "--object", "dc3", "--conductor", "3"],
      check_recognized(next(g["table"] for g in b.ws["groups"] if g["name"] == "c3")))
    q(["recognize-group-algebra", "--object", "h_v4first"], check_recognized(v4table))
    q(["recognize-group-algebra", "--object", "sweedler"],
      lambda r: O.expect(r == {"group_algebra": False, "reason": "not cocommutative"},
                         f"sweedler recognition {r}"), 3)
    # the characters of Z/4 take the values +-i, which Q does not contain
    q(["recognize-group-algebra", "--object", "dc4"],
      lambda r: O.expect(r.get("refusal") == "SplitFailure"
                         and r.get("message", "").startswith("extend-conductor"),
                         f"Q[Z4]* over Q should need a larger conductor: {r}"), 2)

    # coefficient maps
    q(["pi2-kernel", "--object", "xy", "--cap-d", "1", "--order-k", "10"],
      check_pi2(xy, diagxy, 1, 10))
    q(["pi2-kernel", "--object", "eul"] + cap(3), check_zero_kernel(order=16, stabilized=True))
    q(["pi2-kernel", "--object", "sw2"] + cap(2), check_zero_kernel(order=9, stabilized=True))
    q(["pin-check", "--object", "eul", "--arity-n", "3"] + cap(2),
      check_pin([v], {v: v}, 2, 3, 9, injective_by_theorem=True))
    q(["pin-check", "--object", "xy", "--arity-n", "2"] + cap(1),
      check_pin(xy, diagxy, 1, 2, 9), 3)
    q(["z2-kernel", "--object", "xy", "--order-k", "3"] + cap(1),
      check_z2(xy, diagxy, 1, 3, 2))
    q(["z2-kernel", "--object", "eul", "--order-k", "4"] + cap(2), check_z2([v], {v: v}, 2, 4, 2))

    # actions: each diagonal action at several caps
    for d in (z2, z3, z4, v4):
        q(["verify-action", "--object", d.name] + cap(2), check_all_ok("checks", ACTION_CHECKS))
        for k in (1, 2, 3, 4):
            q(["fixed-points", "--object", d.name] + cap(k), d.check_fixed(k))
            q(["annihilator", "--object", d.name] + cap(k), d.check_annihilator(k))
        for k in (1, 2, 3):
            check, code = d.check_inner_faithful(k)
            q(["inner-faithful", "--object", d.name] + cap(k), check, code)
            q(["quotient", "--object", d.name] + cap(k), d.check_quotient(k))
            check, code = d.thm_5_1(k)
            q(["thm-5-1", "--object", d.name] + cap(k), check, code)
        # below cap n - 1 the characters lambda^k, k <= cap, are not yet a
        # group, and the truncated annihilator is no Hopf ideal
        for k in (3, 4):
            check, code = d.thm_5_4(k)
            q(["thm-5-4", "--object", d.name] + cap(k), check, code)
        for k in (1, 2):
            q(["tensor-faithful", "--object", d.name] + cap(k), d.check_tensor(3, k))
    for m in range(3):
        # Sweedler's action is a module algebra but never commutes with
        # z^m d/dz for m <= 2, so the vertex identity fails at v = 1
        O.expect(O.sweedler_module_algebra_ok(3) and not O.sweedler_commutes_with_d(m, 3),
                 "Sweedler expectations")
        q(["verify-action", "--object", f"swe{m}"],
          check_all_ok("checks", ACTION_CHECKS,
                       failing=("derivation-commutation", "hopf-vertex-identity")), 3)
    q(["thm-5-1", "--object", "swe0"], check_refused(["module-vertex-algebra"]), 2)
    q(["thm-5-4", "--object", "swe1"], check_refused(["not a module vertex algebra"]), 2)

    # Schur-Weyl layer
    z2c = ["--object", "z2scale", "--characters", "z2chars"]
    z4c = ["--object", "z4scale", "--characters", "z4chars"]
    for k in (2, 3, 4):
        q(["decompose"] + z2c + cap(k), z2.check_decompose(z2chars, k))
        q(["decompose"] + z4c + cap(k), z4.check_decompose(z4chars, k))
        q(["multiplicity"] + z2c + ["--irrep", "chi1"] + cap(k),
          z2.check_multiplicity(z2chars, "chi1", k))
        q(["multiplicity"] + z4c + ["--irrep", "chi1"] + cap(k),
          z4.check_multiplicity(z4chars, "chi1", k))
        q(["commutant", "--object", "z2scale"] + cap(k), z2.check_commutant(k))
        q(["commutant", "--object", "z3scale"] + cap(k), z3.check_commutant(k))
        q(["reach"] + z2c + ["--irrep", "chi1", "--seed", v] + cap(k),
          z2.check_reach(z2chars, "chi1", 1, k))
        q(["reach"] + z4c + ["--irrep", "chi1", "--seed", v] + cap(k),
          z4.check_reach(z4chars, "chi1", 1, k))
        q(["distinguish"] + z2c + ["--irrep", "chi0", "--irrep2", "chi1"] + cap(k),
          z2.check_distinguish(z2chars, "chi0", "chi1", k))
        q(["distinguish"] + z4c + ["--irrep", "chi0", "--irrep2", "chi2"] + cap(k),
          z4.check_distinguish(z4chars, "chi0", "chi2", k))
    return b.write(workdir, "small-sweep")


def _exponents(d):
    """k(g) with lam(g) = zeta^k(g), read back from the scaling action."""
    out = []
    for g in range(len(d.table)):
        k = next(k for k in range(d.field.m) if d.field.root(k) == d.lam[g])
        out.append(k)
    return out


WORKLOADS = {
    "coeff-kernels": coeff_kernels,
    "action-checks": action_checks,
    "cyclo-group-likes": cyclo_group_likes,
    "small-sweep": small_sweep,
}

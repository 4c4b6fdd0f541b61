"""Independent mathematics for checking hopfva answers.

Nothing here imports hopfva.  Rationals are `fractions.Fraction`; elements of
Q(zeta_m) are tuples of phi(m) rational coordinates in the power basis,
reduced modulo the m-th cyclotomic polynomial computed here from scratch.
Ranks that only need to bound a kernel from above are taken modulo a large
prime: rank mod p <= rank over Q, so a modular nullity that equals the
number of verified, independent kernel vectors proves the exact dimension.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

P = (1 << 61) - 1


class Mismatch(Exception):
    """An answer disagrees with the independent computation."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# scalars


def _poly_divmod_int(num, den):
    """Exact quotient of integer polynomials (ascending), den monic."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
    if any(num[:len(den) - 1]):
        raise ArithmeticError("inexact cyclotomic division")
    return out


_CYCLO = {}


def cyclotomic_poly(m):
    """Phi_m as ascending integer coefficients."""
    if m not in _CYCLO:
        poly = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                poly = _poly_divmod_int(poly, cyclotomic_poly(d))
        _CYCLO[m] = tuple(poly)
    return _CYCLO[m]


class Field:
    """Q(zeta_m) with elements as coordinate tuples."""

    def __init__(self, m):
        self.m = m
        self.phi = cyclotomic_poly(m)
        self.deg = len(self.phi) - 1

    def reduce(self, coeffs):
        c = [Fraction(x) for x in coeffs]
        for k in range(len(c) - 1, self.deg - 1, -1):
            lead = c[k]
            if lead:
                for i, p in enumerate(self.phi):
                    c[k - self.deg + i] -= lead * p
        c = c[:self.deg] + [Fraction(0)] * (self.deg - len(c))
        return tuple(c)

    def rational(self, q):
        return self.reduce([q])

    def root(self, k):
        """zeta_m ** k."""
        k %= self.m
        return self.reduce([0] * k + [1])

    def one(self):
        return self.rational(1)

    def zero(self):
        return self.rational(0)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def mul(self, a, b):
        out = [Fraction(0)] * (2 * self.deg)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return self.reduce(out)

    def power(self, a, k):
        out = self.one()
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def parse(self, text):
        """'p/q' or 'zeta(N):[c0,...]' with N dividing m."""
        text = text.strip()
        if text.startswith("zeta("):
            n = int(text[5:text.index(")")])
            expect(self.m % n == 0, f"conductor {n} does not divide {self.m}")
            body = text[text.index("[") + 1:text.rindex("]")]
            coeffs = [parse_rational(t) for t in body.split(",")] if body.strip() else []
            step = self.m // n
            lifted = [Fraction(0)] * (step * max(len(coeffs) - 1, 0) + 1)
            for k, c in enumerate(coeffs):
                lifted[k * step] += c
            return self.reduce(lifted)
        return self.rational(parse_rational(text))


def parse_rational(text):
    text = text.strip()
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def scalar_text(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# polynomials over Q: {exponent tuple: Fraction}


def parse_poly(text, variables):
    """Parse hopfva's canonical polynomial text ('1/2*x^2*y + -1/1*x')."""
    index = {v: i for i, v in enumerate(variables)}
    out = {}
    text = text.strip()
    if text == "0":
        return out
    for term in text.split(" + "):
        coeff = Fraction(1)
        expo = [0] * len(variables)
        for factor in term.split("*"):
            name, _, power = factor.partition("^")
            if name in index:
                expo[index[name]] += int(power) if power else 1
            else:
                coeff *= parse_rational(factor)
        key = tuple(expo)
        out[key] = out.get(key, Fraction(0)) + coeff
    return {e: c for e, c in out.items() if c}


def parse_monomial(text, variables):
    poly = parse_poly(text, variables)
    expect(len(poly) == 1 and list(poly.values()) == [1],
           f"{text!r} is not a bare monomial")
    return next(iter(poly))


def poly_add(a, b, scale=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, Fraction(0)) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


class Derivation:
    """d on Q[x_1..x_n] from the images of the generators."""

    def __init__(self, images):
        self.images = images  # list of polys, one per variable
        self._memo = {}

    def of_monomial(self, e):
        if e not in self._memo:
            out = {}
            for i, k in enumerate(e):
                if k:
                    low = list(e)
                    low[i] -= 1
                    out = poly_add(out, poly_mul({tuple(low): Fraction(k)}, self.images[i]))
            self._memo[e] = out
        return self._memo[e]

    def __call__(self, poly):
        out = {}
        for e, c in poly.items():
            out = poly_add(out, self.of_monomial(e), c)
        return out

    def chain(self, e, length):
        """[e, d e, d^2 e, ...] as polys, `length + 1` entries."""
        out = [{e: Fraction(1)}]
        for _ in range(length):
            out.append(self(out[-1]))
        return out


def monomials(nvars, cap):
    out = [e for e in itertools.product(range(cap + 1), repeat=nvars) if sum(e) <= cap]
    out.sort(key=lambda e: (sum(e), e))
    return out


# ---------------------------------------------------------------------------
# coefficient maps as sparse columns, and ranks


def pi2_column(deriv, ei, ej, order):
    """(f, g) -> ((d^k f) g)_{k <= order}, keyed by (k, monomial)."""
    col = {}
    for k, dk in enumerate(deriv.chain(ei, order)):
        for e, c in poly_mul(dk, {ej: Fraction(1)}).items():
            col[(k, e)] = c
    return col


def z2_column(deriv, ei, ej, a, b, order, bound):
    """z1^a z2^b (e^{z1 d} u)(e^{z2 d} v), coefficients with p + q <= order."""
    col = {}
    top = order + 2 * bound
    di = deriv.chain(ei, top)
    dj = deriv.chain(ej, top)
    for s, ds in enumerate(di):
        for t, dt in enumerate(dj):
            if a + s + b + t > order:
                break
            w = Fraction(1, math.factorial(s) * math.factorial(t))
            for e, c in poly_mul(ds, dt).items():
                key = (a + s, b + t, e)
                col[key] = col.get(key, Fraction(0)) + w * c
    return {k: v for k, v in col.items() if v}


def pin_column(deriv, idx, order):
    """n-fold map: prod_{slot < n-1} d^{k_slot} m_slot * m_last, keyed (ks, e)."""
    chains = [deriv.chain(e, order) for e in idx[:-1]]
    col = {}
    for ks in itertools.product(range(order + 1), repeat=len(chains)):
        prod = {idx[-1]: Fraction(1)}
        for chain, k in zip(chains, ks):
            prod = poly_mul(prod, chain[k])
            if not prod:
                break
        for e, c in prod.items():
            col[(ks, e)] = col.get((ks, e), Fraction(0)) + c
    return col


def _mod(c):
    c = Fraction(c)
    return c.numerator % P * pow(c.denominator, P - 2, P) % P


def rank_mod_p(columns):
    """Rank of a family of sparse columns {key: rational} modulo P."""
    pivots = {}
    rank = 0
    for col in columns:
        v = {k: _mod(c) for k, c in col.items()}
        v = {k: c for k, c in v.items() if c}
        while v:
            lead = min(v)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(v[lead], P - 2, P)
                pivots[lead] = {k: c * inv % P for k, c in v.items()}
                rank += 1
                break
            f = v[lead]
            for k, c in piv.items():
                nv = (v.get(k, 0) - f * c) % P
                if nv:
                    v[k] = nv
                else:
                    v.pop(k, None)
    return rank


def apply_columns(columns, vector):
    """Sum of columns weighted by a sparse {index: rational} vector."""
    out = {}
    for i, c in vector.items():
        for k, x in columns[i].items():
            out[k] = out.get(k, Fraction(0)) + c * x
    return {k: v for k, v in out.items() if v}


def check_echelon(vectors, what, one=1, zero=0):
    """hopfva keeps subspace bases in reduced row-echelon form: each
    vector's first nonzero coordinate (its pivot) is 1, pivots increase, and
    every vector is zero at the other vectors' pivots.  `vectors` are dicts
    from coordinate keys, in the program's coordinate order, to values."""
    pivots = []
    for n, v in enumerate(vectors):
        support = sorted(k for k, c in v.items() if c != zero)
        expect(support, f"{what}: basis vector {n} is zero")
        expect(v[support[0]] == one, f"{what}: basis vector {n} does not start with 1")
        pivots.append(support[0])
    expect(pivots == sorted(set(pivots)), f"{what}: pivots do not increase")
    for n, v in enumerate(vectors):
        for m, p in enumerate(pivots):
            expect(m == n or v.get(p, zero) == zero, f"{what}: basis vector {n} is not reduced")


def check_kernel(columns, nullity, vectors, reported_dim, what):
    """Each vector is in the kernel, the basis is in reduced echelon form
    (so the vectors are independent), and no larger kernel exists: the
    modular nullity of the columns equals the reported dimension."""
    expect(len(vectors) == reported_dim,
           f"{what}: {len(vectors)} basis vectors for dimension {reported_dim}")
    check_echelon(vectors, what)
    for n, vec in enumerate(vectors):
        residue = apply_columns(columns, vec)
        expect(not residue, f"{what}: basis vector {n} is not in the kernel")
    expect(nullity == reported_dim,
           f"{what}: kernel dimension {reported_dim}, brute-force nullity {nullity}")


def nullity_mod_p(columns):
    return len(columns) - rank_mod_p(columns)


# ---------------------------------------------------------------------------
# finite groups given by multiplication tables


def identity_of(table):
    n = len(table)
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            return e
    raise Mismatch("table has no identity")


def is_group_table(table):
    n = len(table)
    if any(sorted(row) != list(range(n)) for row in table):
        return False
    if any(sorted(table[i][j] for i in range(n)) != list(range(n)) for j in range(n)):
        return False
    try:
        identity_of(table)
    except Mismatch:
        return False
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def element_order(table, g):
    e = identity_of(table)
    k, x = 1, g
    while x != e:
        x = table[x][g]
        k += 1
    return k


def order_profile(table):
    return sorted(element_order(table, g) for g in range(len(table)))


def exponent(table):
    return math.lcm(*order_profile(table))


def is_abelian(table):
    n = len(table)
    return all(table[a][b] == table[b][a] for a in range(n) for b in range(n))


def _generators(table):
    """A small generating set, greedily by element order (largest first)."""
    e = identity_of(table)
    gens = []
    span = {e}
    for g in sorted(range(len(table)), key=lambda x: -element_order(table, x)):
        if g in span:
            continue
        gens.append(g)
        frontier = list(span)
        span = set(span)
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = table[x][s]
                if y not in span:
                    span.add(y)
                    frontier.append(y)
        if len(span) == len(table):
            break
    return gens


def find_isomorphism(ta, tb):
    """A bijection phi with phi(ta[x][y]) = tb[phi x][phi y], or None."""
    n = len(ta)
    if len(tb) != n or order_profile(ta) != order_profile(tb):
        return None
    gens = _generators(ta)
    ea, eb = identity_of(ta), identity_of(tb)
    cands = [[h for h in range(n) if element_order(tb, h) == element_order(ta, g)]
             for g in gens]
    for images in itertools.product(*cands):
        phi = {ea: eb}
        frontier = [ea]
        ok = True
        while frontier and ok:
            x = frontier.pop()
            for g, h in zip(gens, images):
                y, z = ta[x][g], tb[phi[x]][h]
                if y in phi:
                    if phi[y] != z:
                        ok = False
                        break
                else:
                    phi[y] = z
                    frontier.append(y)
        if not ok or len(phi) != n or len(set(phi.values())) != n:
            continue
        if all(phi[ta[x][y]] == tb[phi[x]][phi[y]] for x in range(n) for y in range(n)):
            return phi
    return None


def relabel(table, perm):
    """The same group with element x renamed perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_table(ta, tb):
    na, nb = len(ta), len(tb)
    return [[ta[a1][a2] * nb + tb[b1][b2] for a2 in range(na) for b2 in range(nb)]
            for a1 in range(na) for b1 in range(nb)]


def permutation_table(perms):
    pos = {p: i for i, p in enumerate(perms)}
    k = len(perms[0])
    return [[pos[tuple(p[q[x]] for x in range(k))] for q in perms] for p in perms]


def hopf_basis_order(table):
    """Group-algebra basis order: identity first, the rest as given."""
    e = identity_of(table)
    return [e] + [g for g in range(len(table)) if g != e]


# ---------------------------------------------------------------------------
# group-likes of Q[A]* are the characters of A


def check_characters(table, elements, conductor):
    """`elements` (coordinate texts over the basis of Q[A]*) must be exactly
    the |A| distinct homomorphisms A -> Q(zeta_conductor)^*."""
    expect(is_abelian(table), "characters are checked on abelian groups only")
    field = Field(conductor)
    order = hopf_basis_order(table)
    pos = {g: i for i, g in enumerate(order)}
    e = identity_of(table)
    n = len(table)
    seen = set()
    for k, elem in enumerate(elements):
        expect(len(elem) == n, f"group-like {k} has {len(elem)} coordinates, not {n}")
        chi = [field.parse(t) for t in elem]
        expect(chi[pos[e]] == field.one(), f"group-like {k} is not 1 at the identity")
        for a in range(n):
            for b in range(n):
                expect(chi[pos[table[a][b]]] == field.mul(chi[pos[a]], chi[pos[b]]),
                       f"group-like {k} is not multiplicative")
        key = tuple(chi)
        expect(key not in seen, f"group-like {k} is repeated")
        seen.add(key)
    expect(len(seen) == n, f"{len(seen)} characters listed, the group has {n}")


# ---------------------------------------------------------------------------
# diagonal actions: g x = lam(g) x on (Q(zeta)[x], x d/dx)


class DiagonalAction:
    """A finite abelian group acting on x by a character lam (values in
    Q(zeta_m)), so x^k spans the lam^k eigenline."""

    def __init__(self, table, lam, field, cap):
        self.table = table
        self.lam = lam      # element index -> field element
        self.field = field
        self.cap = cap
        self.order = hopf_basis_order(table)

    def char_power(self, k):
        return tuple(self.field.power(self.lam[g], k) for g in self.order)

    def trivial(self):
        return tuple(self.field.one() for _ in self.order)

    def distinct_chars(self, top):
        return len({self.char_power(k) for k in range(top + 1)})

    def invariant_degrees(self, top=None):
        top = self.cap if top is None else top
        return [k for k in range(top + 1) if self.char_power(k) == self.trivial()]

    def annihilator_dim(self, top=None):
        top = self.cap if top is None else top
        return len(self.table) - self.distinct_chars(top)

    def kernel_subgroup(self):
        return [g for g in range(len(self.table))
                if all(self.field.power(self.lam[g], k) == self.field.one()
                       for k in range(self.cap + 1))]

    def tensor_table(self, s_max):
        table = [len(self.table) - self.distinct_chars(s * self.cap)
                 for s in range(1, s_max + 1)]
        s0 = 1
        for s in range(len(table) - 1, 0, -1):
            if table[s] != table[s - 1]:
                s0 = s + 1
                break
        return table, s0

    def annihilates(self, coords):
        """Does sum_g c_g rho(g) vanish on x^0..x^cap?"""
        for k in range(self.cap + 1):
            chi = self.char_power(k)
            total = self.field.zero()
            for c, v in zip(coords, chi):
                total = self.field.add(total, self.field.mul(c, v))
            if total != self.field.zero():
                return False
        return True


# ---------------------------------------------------------------------------
# permutation actions on Q[x_1..x_n] with the Euler derivation


def fixed_monomials(perm, nvars, degree):
    """Degree-`degree` monomials fixed by permuting the variables by perm."""
    count = 0
    for e in itertools.product(range(degree + 1), repeat=nvars):
        if sum(e) == degree and all(e[perm[i]] == e[i] for i in range(nvars)):
            count += 1
    return count


def perm_sign(p):
    return (-1) ** sum(1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b])


def symmetric_characters(p):
    """Values of triv, sign and std of S3 at permutation p."""
    fixed = sum(1 for i, x in enumerate(p) if i == x)
    return {"triv": 1, "sign": perm_sign(p), "std": fixed - 1}


def permutation_multiplicities(perms, nvars, cap):
    """irrep name -> multiplicity per degree, by <chi_V, chi> over |G|."""
    out = {}
    for name in ("triv", "sign", "std"):
        per = []
        for k in range(cap + 1):
            total = sum(fixed_monomials(p, nvars, k) * symmetric_characters(p)[name]
                        for p in perms)
            expect(total % len(perms) == 0, "character inner product is not integral")
            per.append(total // len(perms))
        out[name] = per
    return out


def permute_poly(poly, perm):
    """x_i -> x_{perm[i]}."""
    out = {}
    for e, c in poly.items():
        f = [0] * len(e)
        for i, k in enumerate(e):
            f[perm[i]] += k
        out[tuple(f)] = c
    return out


# ---------------------------------------------------------------------------
# Sweedler's algebra acting on (Q[z], z^m d/dz) by g z = -z, x z = 1


SWEEDLER_BASIS = ("1", "g", "x", "gx")
# Delta as {basis: [(coeff, left, right)]}
SWEEDLER_COMUL = {
    "1": [(1, "1", "1")],
    "g": [(1, "g", "g")],
    "x": [(1, "x", "1"), (1, "g", "x")],
    "gx": [(1, "gx", "g"), (1, "1", "gx")],
}


def sweedler_on_power(h, k):
    """h . z^k as {exponent: coeff}: g z^k = (-z)^k, x z^k = z^(k-1) for odd k."""
    if h == "1":
        return {k: Fraction(1)}
    if h == "g":
        return {k: Fraction((-1) ** k)}
    if k % 2 == 1:
        return {k - 1: Fraction(1)}   # x and gx agree on odd powers
    return {}


def _sw_apply(h, poly):
    out = {}
    for k, c in poly.items():
        for j, v in sweedler_on_power(h, k).items():
            out[j] = out.get(j, Fraction(0)) + c * v
    return {j: c for j, c in out.items() if c}


def _sw_derive(poly, m):
    out = {}
    for k, c in poly.items():
        if k:
            out[k - 1 + m] = out.get(k - 1 + m, Fraction(0)) + k * c
    return {j: c for j, c in out.items() if c}


def _sw_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, Fraction(0)) + x * y
    return {k: c for k, c in out.items() if c}


def sweedler_module_algebra_ok(cap):
    for h, terms in SWEEDLER_COMUL.items():
        for i in range(cap + 1):
            for j in range(cap + 1 - i):
                lhs = _sw_apply(h, {i + j: Fraction(1)})
                rhs = {}
                for c, left, right in terms:
                    prod = _sw_mul(_sw_apply(left, {i: Fraction(1)}),
                                   _sw_apply(right, {j: Fraction(1)}))
                    for k, v in prod.items():
                        rhs[k] = rhs.get(k, Fraction(0)) + c * v
                if lhs != {k: v for k, v in rhs.items() if v}:
                    return False
    return True


def sweedler_commutes_with_d(m, cap):
    """[h, d] = 0 on z^k wherever k + max(m - 1, 0) <= cap."""
    for h in SWEEDLER_BASIS:
        for k in range(cap + 1 - max(m - 1, 0)):
            if _sw_apply(h, _sw_derive({k: Fraction(1)}, m)) != \
                    _sw_derive(_sw_apply(h, {k: Fraction(1)}), m):
                return False
    return True

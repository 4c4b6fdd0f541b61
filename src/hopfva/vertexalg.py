"""Commutative differential algebras as vertex-algebra backends.

The carrier is the space of polynomials of total degree <= D in finitely
many variables; the state-field map is Y(a,z)b = (e^{z d}a) b, so every
structural question reduces to exact polynomial algebra.

The coefficient maps pi_2, pi_n and Z_2 are one family.  A pi column is a
tuple of monomials, one per tensor slot, read to per-slot order tops by one
assembler (`_coefficient_columns`); a Z_2 column is an order-T pi_2 column,
T = K + 2B, re-indexed for its Laurent shift (`z2_kernel`).  The kernels
are computed in automatically enlarged scratch degrees, so truncation never
loses kernel vectors, and come back as one `CoefficientKernel`; the columns,
and those of the kernel-restricted rows of `_impose_order`, go as they are
to `linalg._kernel_of_columns`.

pi_2 and pi_n share one order ladder (`_order_ladder`).  The kernels only
shrink as the order bound K grows.  When d maps A_{<=D} into itself, its
minimal polynomial there has some degree r <= m (m monomials), found by a
Krylov search over the derivative chains, and rows of order >= r are
combinations of lower ones, so the kernel at order r - 1 is the
untruncated one: both maps start at order min(K - 1, r - 1), and stop
there once K >= r.  When d raises degree they start at min(K - 1, m - 1).
For pi_2 a zero kernel stops the ladder too; otherwise it imposes the
orders up to K on the surviving kernel.  pi_n, whose slots are capped
separately, is computed at r - 1 when that is exact and at K otherwise.  The
derivative chains are derived once, one order at a time, only as far as
the ladder climbs.  Z_2 is always computed at K.

The columns are assembled over the integers.  Let L be the lcm of the
denominators in the derivation, so d' = L d sends monomials to integer
combinations, and d'^k = L^k d^k.  Scaling a row of a linear map, or the
whole map, by a nonzero constant leaves its kernel unchanged.  A pi_2 or
pi_n row key contains the orders k of the factors, so using d'^k in place of
d^k scales each row by a power of L.  A Z_2 row key contains the exponent j
of t = z2 - z1, and scaling that row by j! L^j makes its entries the pi_2
entries times integers (see `z2_kernel`).

For a rational derivation the columns then hold Python ints, the
fraction-free reducer takes them as they are, and Fractions appear only in
the returned kernel basis.  Cyclotomic derivation coefficients pass through
the same code as cyclotomic entries and are reduced by field elimination.
There L covers only the rational coefficients, and a Leibniz sum whose
irrational parts cancel can leave a rational coefficient with a denominator
L misses; it stays a Fraction, so no denominator is ever dropped.

Monomial bases are ordered degree-lexicographically throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add as _add

from .errors import CheckReport, MalformedPairs, TruncationOverflow
from .linalg import (
    Subspace,
    _cleared,
    _first_dependence,
    _kernel_of_columns,
    _sum,
    span_closure,
)
from .scalars import Cyclotomic, as_scalar, demoted, scalar_to_text

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Poly:
    """A multivariate polynomial: exponent tuple -> exact coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        for e, c in (terms or {}).items():
            c = as_scalar(c)
            if c != 0:
                clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i, power=1):
        e = [0] * nvars
        e[i] = power
        return cls(nvars, {tuple(e): _ONE})

    @classmethod
    def monomial(cls, e, c=_ONE):
        return cls(len(e), {tuple(e): c})

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, _ZERO) + c
        return Poly(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, _ZERO) - c
        return Poly(self.nvars, out)

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def scale(self, s):
        s = as_scalar(s)
        return Poly(self.nvars, {e: s * c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, _ZERO) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = scale

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"Poly({self.terms})"


def poly_to_text(poly, variables):
    """Canonical text form, deterministic: terms in deglex order."""
    if poly.is_zero():
        return "0"
    parts = []
    for e, c in poly.sorted_terms():
        factors = [scalar_to_text(c)]
        for name, k in zip(variables, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def _split_top_level(text):
    """Split on top-level +/- (signs inside brackets belong to scalars, and
    a sign right after ^ to its exponent)."""
    chunks = []
    depth = 0
    cur = ""
    sign = "+"
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if depth == 0 and ch in "+-" and not cur.rstrip().endswith("^"):
            if cur.strip():
                chunks.append((sign, cur))
                cur = ""
                sign = ch
            else:
                sign = "-" if (sign == "-") != (ch == "-") else "+"
            continue
        cur += ch
    if cur.strip():
        chunks.append((sign, cur))
    return chunks


def poly_from_text(text, variables):
    """Parse sums of scalar*monomial terms like '1/2*x^2*y - x + 3'."""
    from .scalars import scalar_from_text

    nvars = len(variables)
    index = {name: i for i, name in enumerate(variables)}
    out = Poly.zero(nvars)
    text = text.strip()
    if text == "0" or not text:
        return out
    for sign, chunk in _split_top_level(text):
        coeff = _ONE if sign == "+" else -_ONE
        expo = [0] * nvars
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                continue
            if "^" in factor and not factor.startswith("zeta"):
                base, _, power = factor.partition("^")
                base = base.strip()
                if base not in index:
                    raise ValueError(f"unknown variable {base!r}")
                try:
                    k = int(power)
                except ValueError:
                    raise ValueError(f"exponent {power.strip()!r} of {base!r} is not "
                                     f"an integer") from None
                if k < 0:
                    raise ValueError(f"exponent {k} of {base!r} is negative")
                expo[index[base]] += k
            elif factor in index:
                expo[index[factor]] += 1
            else:
                coeff = coeff * scalar_from_text(factor)
        out = out + Poly.monomial(tuple(expo), coeff)
    return out


# ---------------------------------------------------------------------------
# the backend


class CommDiffVA:
    """A commutative differential algebra truncated by total degree.

    The derivation is specified on the generators only and extended by the
    Leibniz rule, so it is a derivation by construction.
    """

    def __init__(self, variables, derivation_images, degree_cap):
        self.variables = tuple(variables)
        self.nvars = len(self.variables)
        self.degree_cap = degree_cap
        images = []
        for name in self.variables:
            img = derivation_images[name]
            if not (isinstance(img, Poly) and img.nvars == self.nvars):
                raise ValueError(f"the derivation of {name} must be a Poly in "
                                 f"{self.nvars} variables, got {img!r}")
            images.append(img)
        self.images = tuple(images)
        degs = [img.degree() for img in self.images if not img.is_zero()]
        # d raises total degree by at most this much (may be negative)
        self.weight = max(d - 1 for d in degs) if degs else 0
        # every term of d m has degree deg m + weight: each d x_i is
        # homogeneous of degree weight + 1
        self.homogeneous = all(
            sum(e) == self.weight + 1 for img in self.images for e in img.terms)
        # L: the lcm of the derivation's rational denominators, so L d maps
        # monomials to integer combinations (cyclotomic coefficients stay)
        self.denominator = math.lcm(*(c.denominator for p in self.images
                                      for c in p.terms.values()
                                      if isinstance(c, Fraction)))
        self._dmemo = {}
        self._mono_cache = {}

    # -- monomial bases

    def monomials(self, cap=None):
        cap = self.degree_cap if cap is None else cap
        if cap not in self._mono_cache:
            out = []

            def rec(prefix, remaining, slot):
                if slot == self.nvars:
                    out.append(tuple(prefix))
                    return
                for k in range(remaining + 1):
                    rec(prefix + [k], remaining - k, slot + 1)

            rec([], cap, 0)
            out.sort(key=lambda e: (sum(e), e))
            self._mono_cache[cap] = tuple(out)
        return self._mono_cache[cap]

    def poly_from_coords(self, coords):
        monos = self.monomials()
        return Poly(self.nvars, {e: c for e, c in zip(monos, coords)})

    def coords_of(self, poly):
        monos = self.monomials()
        index = {e: i for i, e in enumerate(monos)}
        out = [_ZERO] * len(monos)
        for e, c in poly.terms.items():
            if e not in index:
                raise TruncationOverflow(sum(e), self.degree_cap)
            out[index[e]] = c
        return out

    # -- derivation

    def _monomial_derivative(self, mono):
        """d(mono) as {exponent: coefficient} without zeros, integral
        rationals as ints; each monomial is derived once per backend."""
        out = self._dmemo.get(mono)
        if out is None:
            out = self._dmemo[mono] = {t: demoted(c)
                                       for t, c in _leibniz(mono, self.images).items()}
        return out

    def derive_terms(self, terms):
        """d of an {exponent: coefficient} polynomial, as such a dict
        without zeros (no cap)."""
        out = {}
        for e, c in terms.items():
            for g, a in self._monomial_derivative(e).items():
                x = out.get(g)
                out[g] = c * a if x is None else x + c * a
        return {g: v for g, v in out.items() if v}

    def derive(self, poly):
        """One exact application of the derivation (no cap)."""
        return Poly(self.nvars, self.derive_terms(poly.terms))

    def derive_k(self, poly, k):
        for _ in range(k):
            poly = self.derive(poly)
        return poly

    def exp_derivation_series(self, poly, order):
        """Raw coefficients of e^{z d} poly up to z^order (no cap)."""
        out = [poly]
        cur = poly
        for k in range(1, order + 1):
            cur = self.derive(cur)
            out.append(cur.scale(Fraction(1, math.factorial(k))))
        return out

    def __repr__(self):
        imgs = {n: poly_to_text(img, self.variables)
                for n, img in zip(self.variables, self.images)}
        return f"CommDiffVA({list(self.variables)}, d={imgs}, cap={self.degree_cap})"


def _leibniz(mono, images):
    """d(mono), without zeros, for the derivation with d x_k = images[k]."""
    acc = {}
    for i, k in enumerate(mono):
        if k:
            lowered = mono[:i] + (k - 1,) + mono[i + 1:]
            for g, c in images[i].terms.items():
                t = tuple(map(_add, g, lowered))
                acc[t] = acc.get(t, 0) + k * c
    return {t: c for t, c in acc.items() if c}


def single_variable_backend(m, cap, name="x"):
    """(Q[x], x^m d/dx) truncated at total degree `cap`."""
    if m < 0:
        raise ValueError(f"x^m d/dx needs m >= 0, got {m}")
    return CommDiffVA([name], {name: Poly.monomial((m,))}, cap)


# ---------------------------------------------------------------------------
# kernels of the coefficient maps


def _mul(p, q):
    """Product of two {exponent: coefficient} polynomials."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(_add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


@dataclass
class CoefficientKernel:
    """The kernel of a coefficient map on A^{(x) arity}, times Laurent
    monomials for the Z maps.

    A coordinate is named by its key (i_1, ..., i_n) of monomial indices,
    followed for the Z maps by the Laurent exponents (a_1, ..., a_n), each in
    [-laurent_bound, laurent_bound].  The flat index puts the monomial axes
    first and varies the last axis fastest.  `stabilized` records whether the
    order-K kernel equals the order-(K-1) kernel; it is None where that is
    not checked.
    """

    kernel: Subspace
    monomials: tuple
    arity: int
    order: int
    laurent_bound: int | None = None
    stabilized: bool | None = None

    def _axes(self):
        shifts = () if self.laurent_bound is None else \
            (range(-self.laurent_bound, self.laurent_bound + 1),) * self.arity
        return (range(len(self.monomials)),) * self.arity + shifts

    def vector(self, entries):
        """The coordinate vector of {key: coefficient}."""
        index = {key: t for t, key in enumerate(itertools.product(*self._axes()))}
        v = [_ZERO] * len(index)
        for key, c in entries.items():
            v[index[tuple(key)]] = as_scalar(c)
        return v

    def entries(self, pairs):
        """[(key, coefficient)] for the (flat index, coefficient) pairs of a
        vector's nonzero coordinates, such as a row of
        `kernel.nonzero_rows()`, in their order: the inverse of `vector`.
        Each key is read off its flat index, whose digits in the axes'
        radices, last axis lowest, are the key's positions on its axes."""
        axes = self._axes()[::-1]
        out = []
        for t, c in pairs:
            key = []
            for axis in axes:
                t, r = divmod(t, len(axis))
                key.append(axis[r])
            out.append((tuple(reversed(key)), c))
        return out


def _coefficient_columns(derivs, monos, tops):
    """The columns {row key: entry} of a coefficient map, one per coordinate
    key of `CoefficientKernel`, in index order.

    Slot s of column (i_1, ..., i_n) carries d'^k m_(i_s) for k <= tops[s];
    the last slot, held at order 0 (tops[-1] = 0), enters as an exponent
    shift by its monomial.  A row key is (c, exponent), where c packs the
    orders k_s of the other slots as the digits of one integer, so each row
    is scaled by the powers of L and the factorials that its orders fix,
    which keeps the kernel.  Products over a prefix of slots are computed
    once and shared by every column that starts with it.
    """
    base = max(tops) + 1
    memo = {}

    def products(idx):
        """(packed orders, product of d'^k_s m_(i_s)) over idx."""
        chain = list(itertools.takewhile(bool, derivs[idx[-1]][:tops[len(idx) - 1] + 1]))
        if len(idx) == 1:
            return list(enumerate(chain))
        if idx[:-1] not in memo:
            memo[idx[:-1]] = products(idx[:-1])
        return [(code * base + k, _mul(p, dk)) for code, p in memo[idx[:-1]]
                for k, dk in enumerate(chain)]

    columns = []
    for head in itertools.product(range(len(monos)), repeat=len(tops) - 1):
        prods = products(head)
        columns += ({(code, tuple(map(_add, e, last))): c for code, p in prods
                     for e, c in p.items()} for last in monos)
    return columns


def pi2_kernel(backend, order=None) -> CoefficientKernel:
    """Ker(pi_2) on A_{<=D} (x) A_{<=D}, coefficients to z^order.

    Products are computed in an enlarged scratch degree, so the result is the
    exact kernel of the truncated map.  The stabilisation flag records
    whether the order-(K) kernel equals the order-(K-1) kernel.

    K = `order` (default m^2 for m monomials) caps the orders; the kernel is
    computed on the ladder of `_order_ladder`.  When d maps A_{<=D} into
    itself, with minimal polynomial of degree r there, the order-k kernel is
    the same for every k >= r - 1, so at K >= r - 1 the result is the kernel
    of the untruncated map, computed at order r - 1.
    """
    monos = backend.monomials()
    order = len(monos) ** 2 if order is None else order
    chains, start, exact = _order_ladder(backend, monos, order)
    columns = _coefficient_columns(chains.upto(start), monos, (start, 0))
    kern, stable = _kernel_of_columns(columns, len(columns)), True
    if not (exact or kern.is_zero()):
        # impose the orders up to K - 1 on the surviving kernel, then K alone
        _, kern = _impose_order(monos, kern, chains.upto(order - 1), range(start + 1, order))
        stable, kern = _impose_order(monos, kern, chains.upto(order), range(order, order + 1))
    return CoefficientKernel(kern, monos, 2, order, stabilized=stable)


def _derivative_chains(backend, monos):
    """The levels [d'^k m for each monomial m], as {exponent: coefficient},
    for k = 0, 1, 2, ...: one level per step, as far as the caller reads.

    d' = L d, where L is the backend's `denominator`; for a rational
    derivation every coefficient is then a Python int.  A cyclotomic
    derivation can still produce a rational coefficient whose denominator L
    misses, when the irrational parts of a Leibniz sum cancel; such a
    coefficient stays a Fraction, and the reducer clears it.
    """
    scale = backend.denominator
    steps = {}

    def step(e):
        out = steps.get(e)
        if out is None:
            out = steps[e] = {g: demoted(c * scale)
                              for g, c in backend._monomial_derivative(e).items()}
        return out

    level = [{m: 1} for m in monos]
    while True:
        yield level
        nexts = []
        for p in level:
            nxt = {}
            for e, c in p.items():
                for g, dc in step(e).items():
                    nxt[g] = nxt.get(g, 0) + c * dc
            nexts.append({g: c for g, c in nxt.items() if c != 0})
        level = nexts


class _Chains:
    """The chains d'^k m of each monomial m, read from one
    `_derivative_chains` pass as far as `upto` has asked."""

    def __init__(self, backend, monos):
        self._levels = _derivative_chains(backend, monos)
        self.derivs = [[] for _ in monos]

    def upto(self, order):
        """The chains, each extended to hold d'^k m for k = 0..order."""
        while len(self.derivs[0]) <= order:
            for chain, dk in zip(self.derivs, next(self._levels)):
                chain.append(dk)
        return self.derivs


def _order_ladder(backend, monos, order):
    """Where pi_2 starts: (chains, K0, exact) for order bound K; pi_n
    reads K0 only when it is exact.

    The order-k kernels only shrink as k grows.  When every d'm, m in the
    carrier, is supported on carrier monomials, d preserves A_{<=D} and
    has a minimal polynomial mu there of degree r <= m.  A row of order
    k >= r is then a combination of rows of lower order, one slot at a
    time, so the kernel at any order k >= r - 1 is the untruncated one.
    K0 = min(K - 1, r - 1), and `exact` says K0 = r - 1: nothing above K0
    can change the kernel.  When d leaves the carrier, K0 = min(K - 1, m - 1)
    and K stays a truncation.  The chains are derived to order min(r, K)
    at most.
    """
    chains = _Chains(backend, monos)
    carrier = set(monos)
    if order >= 1 and all(e in carrier for chain in chains.upto(1) for e in chain[1]):
        r = _minimal_order(chains, order)
        return chains, min(order - 1, r - 1), r <= order
    return chains, min(order - 1, len(monos) - 1), False


def _minimal_order(chains, limit):
    """deg mu(d) on the carrier if it is at most `limit`, else limit + 1.

    `linalg._first_dependence` on the operators d'^k, each flattened to
    {(i, exponent): entry} over the chains d'^k m_i: the first power that
    depends on the lower ones has order deg mu (d' = L d has the same
    degree).  The search is fraction-free, so a non-integer entry of d'
    (cyclotomic, or an uncleared Fraction) gives the Cayley-Hamilton bound
    m instead; when d' is integral on the carrier, so are its powers.
    """
    derivs = chains.upto(1)
    if any(type(c) is not int for chain in derivs for c in chain[1].values()):
        return len(derivs)
    powers = ({(i, e): c for i, chain in enumerate(chains.upto(k)) for e, c in chain[k].items()}
              for k in range(limit + 1))
    r = _first_dependence(powers)
    return limit + 1 if r is None else r


def _impose_order(monos, kern, derivs, orders):
    """Restrict the rows of the given orders to the current kernel; returns
    (stable, new), stable when they vanish on it.

    Each kernel vector is scaled to an integral one before it is mapped,
    which rescales the columns of the restricted map; the new kernel is
    spanned by the scaled vectors combined with the restricted kernel.
    """
    if kern.is_zero():
        return True, kern
    n = len(monos)
    vectors = [row if any(isinstance(c, Cyclotomic) for _, c in row)
               else list(zip([t for t, _ in row], _cleared([c for _, c in row])))
               for row in kern.nonzero_rows()]
    cols = [_sum(((k, tuple(map(_add, e, monos[t % n]))), c * dc) for t, c in w
                 for k in orders for e, dc in derivs[t // n][k].items()) for w in vectors]
    if not any(cols):
        return True, kern
    local = _kernel_of_columns(cols, len(cols))
    return False, span_closure(n * n, [_sum((t, a * c) for k, a in lv for t, c in vectors[k])
                                       for lv in local.nonzero_rows()], ())


def pin_injectivity_check(backend, arity, order=None) -> CoefficientKernel:
    """Ker(pi_n) on A^{(x) n}, n >= 2; pi_n is injective when it is zero.

    Each of the first n - 1 slots takes the orders 0..K, K = `order`
    (default m^2).  Each slot is capped separately, so when d preserves
    A_{<=D} with minimal polynomial of degree r <= K there, the kernel is
    computed once at the start order r - 1 of `_order_ladder` and is the
    kernel of the untruncated map; otherwise it is computed at K.
    """
    if arity < 2:
        raise ValueError("pi_n requires n >= 2")
    monos = backend.monomials()
    order = len(monos) ** 2 if order is None else order
    chains, start, exact = _order_ladder(backend, monos, order)
    top = start if exact else order
    columns = _coefficient_columns(chains.upto(top), monos, (top,) * (arity - 1) + (0,))
    return CoefficientKernel(_kernel_of_columns(columns, len(columns)), monos, arity, order)


def z2_kernel(backend, order=None, laurent_bound=1) -> CoefficientKernel:
    """Kernel of (u, v, f) -> f (e^{z1 d}u)(e^{z2 d}v), f in span{z1^a z2^b :
    |a|, |b| <= B}, truncated at total z-degree K (default m^2, m monomials).

    Shifting a, b to 0..2B by z1^B z2^B moves the truncation to total degree
    T = K + 2B.  Two invertible row operations on A[z1, z2]/(degree > T)
    keep the kernel: e^{-z1 d}, unipotent there and, as d is a derivation,
    an algebra automorphism, which takes (e^{z1 d}u)(e^{z2 d}v) to
    u e^{(z2 - z1) d}v; then z1 = s, z2 = s + t, a graded automorphism of
    k[z1, z2].  Column (u, v, a, b) becomes the sum over c <= b and
    q <= T - a - b of C(b, c) s^{a+b-c} t^{c+q} u d^q v / q!, empty when
    a + b > T: the order-T pi_2 column of (v, u), re-indexed.  With row
    (i, j, exponent) scaled by j! L^j, the entry at s^i t^j is u d'^q v
    times the integer C(b, c) j! / (j - c)! L^c.
    """
    monos = backend.monomials()
    order = len(monos) ** 2 if order is None else order
    top = order + 2 * laurent_bound
    shifts = range(2 * laurent_bound + 1)
    scales = [[[math.comb(b, c) * math.perm(j, c) * backend.denominator ** c
                for j in range(top + 1)] for c in range(b + 1)] for b in shifts]
    columns = []
    for u, chain in itertools.product(monos, _Chains(backend, monos).upto(top)):
        # the order-T pi_2 column of (v, u) per order q: u d'^q v, until it vanishes
        pi2 = [[(tuple(map(_add, e, u)), x) for e, x in dk.items()]
               for dk in itertools.takewhile(bool, chain)]
        for a, b in itertools.product(shifts, repeat=2):
            orders = range(min(len(pi2), top - a - b + 1))  # empty when a + b > T
            columns.append({(a + b - c, c + q, e): w[c + q] * x
                            for c, w in enumerate(scales[b]) for q in orders
                            for e, x in pi2[q]})
    return CoefficientKernel(_kernel_of_columns(columns, len(columns)), monos, 2, order,
                             laurent_bound)


# ---------------------------------------------------------------------------
# axiom checks and identities


def verify_comm_va_axioms(backend, samples, order) -> CheckReport:
    """Vacuum, creation (D = d), skew symmetry and mutual commutativity,
    checked coefficientwise to z^order on the sample set.

    They hold for every derivation, so no `CommDiffVA` (whose d is the
    Leibniz extension of its images) fails them; the check stays as their
    executable statement, run by the tests on corrupted derivations, and
    `bench/spans.py` `TARGETS` times it by name.
    """
    report = CheckReport()
    vars_ = backend.variables
    one = Poly.const(backend.nvars, _ONE)

    def vacuum_ok(b):
        coeffs = [(backend.derive_k(one, k) * b).scale(Fraction(1, math.factorial(k)))
                  for k in range(order + 1)]
        return coeffs[0] == b and all(c.is_zero() for c in coeffs[1:])

    def creation_failures():
        for u in samples:
            series = backend.exp_derivation_series(u, order)
            for k in range(order + 1):
                got = (backend.derive_k(u, k) * one).scale(Fraction(1, math.factorial(k)))
                if got != series[k]:
                    yield f"{poly_to_text(u, vars_)} at order {k}"

    def commutativity_failures():
        for u, v, w in itertools.product(samples, repeat=3):
            for a in range(order + 1):
                for b in range(order + 1 - a):
                    du = backend.derive_k(u, a)
                    dv = backend.derive_k(v, b)
                    if du * (dv * w) != dv * (du * w):
                        yield (f"({poly_to_text(u, vars_)},{poly_to_text(v, vars_)},"
                               f"{poly_to_text(w, vars_)})")

    report.record("vacuum", (poly_to_text(b, vars_) for b in samples if not vacuum_ok(b)))
    report.record("creation", creation_failures())
    report.record("skew-symmetry", (
        f"({poly_to_text(u, vars_)}, {poly_to_text(v, vars_)})"
        for u, v in itertools.product(samples, repeat=2)
        if not _skew_ok(backend, u, v, order)))
    report.record("mutual-commutativity", commutativity_failures())
    return report


def _skew_failures(backend, u, v, order):
    """The orders k <= order at which skew symmetry Y(u, z)v = e^{zD} Y(v, -z)u
    fails, compared coefficientwise with d in the place of D."""
    for k in range(order + 1):
        lhs = (backend.derive_k(u, k) * v).scale(Fraction(1, math.factorial(k)))
        rhs = Poly.zero(backend.nvars)
        for j in range(k + 1):
            i = k - j
            inner = (backend.derive_k(v, j) * u).scale(Fraction(1, math.factorial(j)))
            sign = _ONE if j % 2 == 0 else -_ONE
            rhs = rhs + backend.derive_k(inner, i).scale(
                sign * Fraction(1, math.factorial(i)))
        if lhs != rhs:
            yield k


def _skew_ok(backend, u, v, order):
    return next(_skew_failures(backend, u, v, order), None) is None


def flip_skew_check(backend, pairs, order) -> CheckReport:
    """Checks e^{-z d}((e^{z d}u) v) = (e^{-z d}v) u coefficientwise.

    Its z^k coefficients are (-1)^k times those of skew symmetry at (v, u)
    for any linear d, so it fails exactly at the orders where that does.
    Together with a zero pi_2 kernel this certifies at truncation that the
    tensor flip factors through the vertex structure.  Like
    `verify_comm_va_axioms` it cannot fail on a `CommDiffVA`, as skew
    symmetry holds for every derivation; it stays for the same reasons.
    """
    report = CheckReport()
    vars_ = backend.variables
    for u, v in pairs:
        report.record(f"({poly_to_text(u, vars_)}, {poly_to_text(v, vars_)})",
                      (f"coefficient {k}" for k in _skew_failures(backend, v, u, order)))
    return report


# ---------------------------------------------------------------------------
# the Vandermonde-style independence certificate


def falling_bracket(n, k, m):
    """[n, k] = n (n + (m-1)) (n + 2(m-1)) ... with k factors; [n, 0] = 1."""
    out = 1
    for t in range(k):
        out *= n + t * (m - 1)
    return out


def vandermonde_monomial_decision(m, pairs):
    """Verdict on whether the colliding-degree monomial family is independent.

    `pairs` are (n_i, m_i) with equal totals and strictly decreasing n_i;
    the s x s matrix with rows ([n_i, k]) for k < s has nonzero determinant
    exactly when no nonzero weight combination lies in Ker(pi_2).  Row k,
    [n, k] = prod_{t<k} (n + t(m - 1)), is a monic polynomial of degree k in
    n, so the matrix is a unit lower-triangular matrix times the Vandermonde
    matrix of the n_i, and its determinant is +-prod_{i<j} (n_i - n_j).
    The n_i are distinct, so that is never 0: every family that passes the
    validation is independent.
    """
    if type(m) is not int or m < 0:  # bool is not accepted as an int
        raise MalformedPairs("m must be a nonnegative integer")
    if not pairs:
        raise MalformedPairs("empty pair list")
    if not all(isinstance(p, (tuple, list)) and len(p) == 2
               and type(p[0]) is type(p[1]) is int for p in pairs):
        raise MalformedPairs("each pair must be two integers (n_i, m_i)")
    ns = [p[0] for p in pairs]
    if any(n < 0 or mm < 0 for n, mm in pairs):
        raise MalformedPairs("exponents must be nonnegative")
    totals = {n + mm for n, mm in pairs}
    if len(totals) != 1:
        raise MalformedPairs("pairs must share a common total degree")
    if any(ns[i] <= ns[i + 1] for i in range(len(ns) - 1)):
        raise MalformedPairs("n_i must be strictly decreasing")
    return "independent"

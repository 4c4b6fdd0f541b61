"""Exact scalars: rationals and cyclotomic numbers.

A scalar is either a `fractions.Fraction` or a `Cyclotomic`.  Cyclotomic
values are stored as the fully reduced residue modulo the N-th cyclotomic
polynomial Phi_N: a tuple of phi(N) Fraction coordinates in the power basis
1, zeta, ..., zeta^(phi-1), so equality at a fixed conductor is
coefficientwise.  Values whose residue is constant are demoted to plain
fractions, and arithmetic between different conductors lifts both operands
into Q(zeta_lcm), so user code never has to track conductors by hand.

How values are reduced: Phi_N is monic with integer coefficients, so every
power zeta^s, s < N, has integer coordinates; `zeta_powers(N)` computes them
once per conductor.  A coefficient of degree k >= phi(N) is folded into the
coordinates through row k mod N of that table, a linear map with no
division.  Sums and differences of two residues are residues already (only
a check for a constant result remains), adding or scaling by a rational
needs nothing, a product multiplies the nonzero integer numerators over a
common denominator and folds the degrees from phi(N) to 2 phi(N) - 2, and
lifting to a multiple conductor M maps zeta_N^k to row k M/N of the table
for M.  `inverse` divides no polynomial either: 1/x is the product of the
other Galois conjugates of x over the norm of x, which is rational.

All operations are pure and all values are immutable.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from .errors import require

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, ascending degree)


def _int_poly_div_exact(num, den):
    """Divide integer polynomials exactly; `den` must be monic."""
    num = list(num)
    dd = len(den) - 1
    require(den[-1] == 1, "divisor must be monic")
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, d in enumerate(den):
                num[i - dd + j] -= c * d
    require(all(c == 0 for c in num), "non-exact polynomial division")
    return out


def _divisors(n):
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n):
        if d < n:
            poly = _int_poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def zeta_powers(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The integer coordinates of zeta_n^s, s < n, in the power basis.

    Row s lists the nonzero (k, c), k < phi(n), with zeta_n^s = sum c zeta_n^k.
    The rows below phi(n) are the basis itself; each later row is the one
    before times zeta, using zeta^phi = -sum_{k<phi} Phi_n[k] zeta^k, which
    holds because Phi_n is monic with integer coefficients.
    """
    poly = cyclotomic_polynomial(n)
    phi = len(poly) - 1
    rows = [((s, 1),) for s in range(phi)]
    dense = [0] * (phi - 1) + [1]
    for _ in range(phi, n):
        top = dense[-1]
        dense = [(dense[k - 1] if k else 0) - top * poly[k] for k in range(phi)]
        rows.append(tuple((k, c) for k, c in enumerate(dense) if c))
    return tuple(rows)


def _reduce_mod_cyclo(coeffs, n):
    """The phi(n) power-basis coordinates of sum_k coeffs[k] zeta_n^k.

    A coefficient of degree k >= phi(n) is folded in through row k mod n of
    `zeta_powers(n)`: a linear map with integer entries, so there is no
    division, and the coordinates stay ints where the input is integral.
    """
    phi = euler_phi(n)
    out = list(coeffs)
    if len(out) <= phi:
        out += [0] * (phi - len(out))
        return out
    powers = zeta_powers(n)
    for k in range(phi, len(out)):
        c = out[k]
        if c:
            for t, z in powers[k % n]:
                out[t] += c if z == 1 else c * z
    del out[phi:]
    return out


def _canonical(n, coords):
    """The scalar with these phi(n) power-basis coordinates at conductor n:
    a Fraction when only the constant coordinate is nonzero, else a
    Cyclotomic with a tuple of Fractions."""
    if not any(coords[1:]):
        c = coords[0]
        return c if c.__class__ is Fraction else Fraction(c)
    return Cyclotomic(n, tuple(c if c.__class__ is Fraction else Fraction(c) if c else _ZERO
                               for c in coords))


def _cleared(coords):
    """Integer numerators of rational coordinates over their least common
    denominator, and that denominator."""
    den = math.lcm(*[c.denominator for c in coords])
    if den == 1:
        return [c.numerator for c in coords], 1
    return [c.numerator * (den // c.denominator) for c in coords], den


def _mul_coords(a, b, n):
    """Power-basis coordinates of the product of two residues at conductor n.

    Both are cleared to integer numerators, the nonzero numerators are
    multiplied, the degrees >= phi(n) folded back, and the product of the
    two denominators divided out once per coordinate.
    """
    a, da = _cleared(a)
    b, db = _cleared(b)
    raw = [0] * (2 * len(a) - 1)
    nb = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nb:
                raw[i + j] += x * y
    out = _reduce_mod_cyclo(raw, n)
    den = da * db
    if den == 1:
        return out
    return [Fraction(c, den) if c else _ZERO for c in out]


# ---------------------------------------------------------------------------
# the Cyclotomic class


class Cyclotomic:
    """An element of Q(zeta_N), reduced modulo the N-th cyclotomic polynomial.

    Instances are produced by `cyclotomic()` / `zeta()`, which keep the
    canonical-form invariant: the stored residue is never constant (constant
    values are returned as plain fractions instead).
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor, coeffs):
        # trusted constructor; use cyclotomic() to build from raw data
        self.conductor = conductor
        self.coeffs = coeffs

    # -- conversions

    def coeffs_at(self, m):
        """Coefficient tuple of this value inside Q(zeta_m); conductor | m."""
        n = self.conductor
        if m == n:
            return self.coeffs
        if m % n != 0:
            raise ValueError(f"cannot embed conductor {n} into {m}")
        # zeta_n^k = zeta_m^(k * step), and k * step < m
        step = m // n
        powers = zeta_powers(m)
        out = [_ZERO] * euler_phi(m)
        for k, c in enumerate(self.coeffs):
            if c:
                for t, z in powers[k * step]:
                    out[t] += c if z == 1 else c * z
        return tuple(out)

    def _operands(self, other):
        """The conductor and both coordinate tuples, lifted to the lcm."""
        n = self.conductor
        if other.conductor == n:
            return n, self.coeffs, other.coeffs
        n = math.lcm(n, other.conductor)
        return n, self.coeffs_at(n), other.coeffs_at(n)

    # -- arithmetic; a residue plus, minus or times a nonzero rational is
    # never constant, so those results need no reduction and no check

    def __add__(self, other):
        if isinstance(other, Cyclotomic):
            n, a, b = self._operands(other)
            return _canonical(n, [x + y for x, y in zip(a, b)])
        if isinstance(other, (Fraction, int)):
            if not other:
                return self
            return Cyclotomic(self.conductor, (self.coeffs[0] + other,) + self.coeffs[1:])
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Cyclotomic):
            n, a, b = self._operands(other)
            return _canonical(n, [x - y for x, y in zip(a, b)])
        if isinstance(other, (Fraction, int)):
            if not other:
                return self
            return Cyclotomic(self.conductor, (self.coeffs[0] - other,) + self.coeffs[1:])
        return NotImplemented

    def __rsub__(self, other):
        if not isinstance(other, (Fraction, int)):
            return NotImplemented
        coeffs = self.coeffs
        return Cyclotomic(self.conductor,
                          (other - coeffs[0],) + tuple(-c for c in coeffs[1:]))

    def __mul__(self, other):
        if isinstance(other, Cyclotomic):
            n, a, b = self._operands(other)
            return _canonical(n, _mul_coords(a, b, n))
        if isinstance(other, (Fraction, int)):
            if other == 1:
                return self
            if not other:
                return _ZERO
            return Cyclotomic(self.conductor, tuple(c * other if c else c for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        """1/x = others / N(x), `others` the product of the Galois conjugates
        sigma_k(x) over the units k != 1 mod N.  The norm N(x) = x * others,
        the product of all phi(N) conjugates, is fixed by every sigma_k, so
        it is rational, and nonzero as x is (Cohen, GTM 138, ch. 4)."""
        n = self.conductor
        others = _ONE
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                others = self.galois(k) * others
        norm = self * others
        require(norm.__class__ is Fraction and norm != 0,
                "the norm of a nonzero residue must be a nonzero rational")
        return others / norm

    def __truediv__(self, other):
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        if isinstance(other, (Fraction, int)):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            return Cyclotomic(self.conductor, tuple(c / other for c in self.coeffs))
        return NotImplemented

    def __rtruediv__(self, other):
        if not isinstance(other, (Fraction, int)):
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return Cyclotomic(self.conductor, tuple(-c for c in self.coeffs))

    def __pos__(self):
        return self

    def __bool__(self):
        return True  # canonical cyclotomics are never zero

    # -- structure maps

    def galois(self, k):
        """Apply the Galois automorphism zeta -> zeta^k (gcd(k, N) = 1)."""
        n = self.conductor
        if math.gcd(k, n) != 1:
            raise ValueError(f"zeta -> zeta^{k} is not an automorphism of Q(zeta_{n})")
        out = [_ZERO] * n
        for i, c in enumerate(self.coeffs):
            out[(i * k) % n] += c
        return cyclotomic(n, out)

    def conjugate(self):
        """Complex conjugation, i.e. zeta -> zeta^(-1)."""
        return self.galois(self.conductor - 1)

    # -- comparison / display

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            _, a, b = self._operands(other)
            return a == b
        if isinstance(other, (Fraction, int)):
            return False  # canonical cyclotomics are irrational
        return NotImplemented

    __hash__ = None  # equal values at different conductors would hash apart

    def __repr__(self):
        return scalar_to_text(self)


def cyclotomic(n, coeffs):
    """Build sum(coeffs[k] * zeta_n^k) in canonical form (may be a Fraction)."""
    coeffs = [c if c.__class__ is Fraction or c.__class__ is int else Fraction(c)
              for c in coeffs]
    return _canonical(n, _reduce_mod_cyclo(coeffs, n))


def zeta(n, k=1):
    """The primitive root of unity zeta_n raised to the k-th power."""
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    k %= n
    return cyclotomic(n, [_ZERO] * k + [_ONE])


# ---------------------------------------------------------------------------
# scalar-level helpers


def as_scalar(x):
    """Coerce ints/Fractions/Cyclotomics into canonical scalar form."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x) if x else _ZERO
    if isinstance(x, Cyclotomic):
        return x
    raise TypeError(f"not a scalar: {x!r}")


def demoted(s):
    """An integral rational as an int, which multiplies far faster than a
    Fraction; every other scalar as it is."""
    return s.numerator if s.__class__ is Fraction and s.denominator == 1 else s


def scalar_conductor(s):
    return s.conductor if isinstance(s, Cyclotomic) else 1


def common_conductor(scalars):
    n = 1
    for s in scalars:
        n = math.lcm(n, scalar_conductor(s))
    return n


def scalar_conjugate(s):
    return s.conjugate() if isinstance(s, Cyclotomic) else s


def cyclo_coords(s, n):
    """Rational coordinates of `s` in the power basis of Q(zeta_n)."""
    if isinstance(s, Cyclotomic):
        return list(s.coeffs_at(n))
    return [Fraction(s)] + [_ZERO] * (euler_phi(n) - 1)


def scalar_sort_key(s):
    """A total order on scalars, used only to make outputs deterministic."""
    if isinstance(s, Cyclotomic):
        return (1, s.conductor, s.coeffs)
    return (0, 1, (s,))


def field_arithmetic(a, b, op):
    """Named-operation dispatch: op in {add, sub, mul, div}; exact result."""
    a, b = as_scalar(a), as_scalar(b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0:
            raise ZeroDivisionError("division by zero scalar")
        return a / b
    raise ValueError(f"unknown operation {op!r}")


# ---------------------------------------------------------------------------
# text form: "p/q" for rationals, "zeta(N):[c0,c1,...]" for cyclotomics

_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_ZETA_RE = re.compile(r"^zeta\((\d+)\):\[(.*)\]$")


def scalar_to_text(s):
    if isinstance(s, Cyclotomic):
        inner = ",".join(scalar_to_text(c) for c in s.coeffs)
        return f"zeta({s.conductor}):[{inner}]"
    return f"{s.numerator}/{s.denominator}"


def scalar_pretty(s):
    """Human-facing rendering; not part of the machine format."""
    if isinstance(s, Cyclotomic):
        return scalar_to_text(s)
    if s.denominator == 1:
        return str(s.numerator)
    return f"{s.numerator}/{s.denominator}"


def scalar_from_text(text):
    text = text.strip()
    m = _ZETA_RE.match(text)
    if m:
        n = int(m.group(1))
        body = m.group(2).strip()
        coeffs = [scalar_from_text(t) for t in body.split(",")] if body else []
        if any(isinstance(c, Cyclotomic) for c in coeffs):
            raise ValueError(f"nested cyclotomics in {text!r}")
        return cyclotomic(n, coeffs)
    m = _RAT_RE.match(text)
    if m:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ValueError(f"zero denominator in scalar {text!r}")
        return Fraction(num, den)
    raise ValueError(f"cannot parse scalar {text!r}")

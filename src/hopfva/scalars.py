"""Exact scalars: rationals and cyclotomic numbers.

A scalar is either a `fractions.Fraction` or a `Cyclotomic`.  Cyclotomic
values are stored as the fully reduced residue modulo the N-th cyclotomic
polynomial, so equality at a fixed conductor is coefficientwise.  Values
whose residue is constant are demoted to plain fractions, and arithmetic
between different conductors lifts both operands into Q(zeta_lcm), so user
code never has to track conductors by hand.

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
# integer / fraction polynomial helpers (coefficient lists, ascending degree)


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


def _fp_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _fp_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _fp_trim(out)


def _fp_sub(a, b):
    out = [_ZERO] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _fp_trim(out)


def _fp_divmod(a, b):
    a = list(a)
    _fp_trim(a)
    db = len(b) - 1
    lead = b[-1]
    q = [_ZERO] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        c = a[-1] / lead
        k = len(a) - 1 - db
        q[k] = c
        for j, d in enumerate(b):
            a[k + j] -= c * d
        _fp_trim(a)
    return q, a


def _fp_xgcd(a, b):
    """Extended Euclid for fraction polynomials: g, u, v with u*a + v*b = g."""
    r0, r1 = list(a), list(b)
    u0, u1 = [_ONE], []
    v0, v1 = [], [_ONE]
    while r1:
        q, r = _fp_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _fp_sub(u0, _fp_mul(q, u1))
        v0, v1 = v1, _fp_sub(v0, _fp_mul(q, v1))
    return r0, u0, v0


def _reduce_mod_cyclo(coeffs, n):
    """Reduce a fraction-coefficient polynomial modulo Phi_n."""
    phi_poly = [Fraction(c) for c in cyclotomic_polynomial(n)]
    c = [Fraction(x) for x in coeffs]
    _fp_trim(c)
    if len(c) - 1 >= n:
        # cheap pre-reduction via zeta^n = 1
        folded = [_ZERO] * n
        for k, x in enumerate(c):
            folded[k % n] += x
        c = _fp_trim(folded)
    _, rem = _fp_divmod(c, phi_poly)
    return rem


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
        step = m // n
        lifted = [_ZERO] * ((len(self.coeffs) - 1) * step + 1)
        for k, c in enumerate(self.coeffs):
            lifted[k * step] = c
        rem = _reduce_mod_cyclo(lifted, m)
        rem += [_ZERO] * (euler_phi(m) - len(rem))
        return tuple(rem)

    def _common(self, other):
        if isinstance(other, Cyclotomic):
            n = math.lcm(self.conductor, other.conductor)
            return n, self.coeffs_at(n), other.coeffs_at(n)
        other = Fraction(other)
        n = self.conductor
        pad = (other,) + (_ZERO,) * (euler_phi(n) - 1)
        return n, self.coeffs, pad

    # -- arithmetic

    def __add__(self, other):
        if not isinstance(other, (Cyclotomic, Fraction, int)):
            return NotImplemented
        n, a, b = self._common(other)
        return cyclotomic(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (Cyclotomic, Fraction, int)):
            return NotImplemented
        n, a, b = self._common(other)
        return cyclotomic(n, [x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        if not isinstance(other, (Fraction, int)):
            return NotImplemented
        n, a, b = self._common(other)
        return cyclotomic(n, [y - x for x, y in zip(a, b)])

    def __mul__(self, other):
        if not isinstance(other, (Cyclotomic, Fraction, int)):
            return NotImplemented
        if isinstance(other, (Fraction, int)):
            return cyclotomic(self.conductor, [c * other for c in self.coeffs])
        n, a, b = self._common(other)
        return cyclotomic(n, _fp_mul(list(a), list(b)))

    __rmul__ = __mul__

    def inverse(self):
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        g, u, _ = _fp_xgcd(list(self.coeffs), phi_poly)
        require(len(g) == 1, "nonzero residue must be invertible mod Phi_n")
        return cyclotomic(self.conductor, [c / g[0] for c in u])

    def __truediv__(self, other):
        if not isinstance(other, (Cyclotomic, Fraction, int)):
            return NotImplemented
        if isinstance(other, (Fraction, int)):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            return cyclotomic(self.conductor, [c / other for c in self.coeffs])
        return self * other.inverse()

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
            if self.conductor == other.conductor:
                return self.coeffs == other.coeffs
            _, a, b = self._common(other)
            return a == b
        if isinstance(other, (Fraction, int)):
            return False  # canonical cyclotomics are irrational
        return NotImplemented

    __hash__ = None  # equal values at different conductors would hash apart

    def __repr__(self):
        return scalar_to_text(self)


def cyclotomic(n, coeffs):
    """Build sum(coeffs[k] * zeta_n^k) in canonical form (may be a Fraction)."""
    rem = _reduce_mod_cyclo(coeffs, n)
    if len(rem) <= 1:
        return rem[0] if rem else _ZERO
    rem += [_ZERO] * (euler_phi(n) - len(rem))
    return Cyclotomic(n, tuple(rem))


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
        return Fraction(x)
    if isinstance(x, Cyclotomic):
        return x
    raise TypeError(f"not a scalar: {x!r}")


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


def from_cyclo_coords(coords, n):
    return cyclotomic(n, coords)


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

import math
import random
from fractions import Fraction

import pytest

from hopfva.scalars import (
    Cyclotomic,
    cyclo_coords,
    cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    field_arithmetic,
    from_cyclo_coords,
    scalar_conjugate,
    scalar_from_text,
    scalar_to_text,
    zeta,
    zeta_powers,
)


# independent oracle: divide x^n - 1 by the product of all lower Phi_d,
# with its own naive polynomial arithmetic
def _oracle_cyclotomic(n):
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def divexact(num, den):
        num = list(num)
        out = [0] * (len(num) - len(den) + 1)
        for i in range(len(num) - 1, len(den) - 2, -1):
            c = num[i] // den[-1]
            out[i - len(den) + 1] = c
            for j, d in enumerate(den):
                num[i - len(den) + 1 + j] -= c * d
        assert all(v == 0 for v in num)
        return out

    if n == 1:
        return [-1, 1]
    denom = [1]
    for d in range(1, n):
        if n % d == 0:
            denom = mul(denom, _oracle_cyclotomic(d))
    return divexact([-1] + [0] * (n - 1) + [1], denom)


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)


def test_cyclotomic_polynomial_12_against_oracle():
    assert list(cyclotomic_polynomial(12)) == _oracle_cyclotomic(12)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)  # x^4 - x^2 + 1


@pytest.mark.parametrize("n", range(1, 31))
def test_cyclotomic_polynomial_matches_oracle_and_degree(n):
    assert list(cyclotomic_polynomial(n)) == _oracle_cyclotomic(n)
    assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_field_arithmetic_examples():
    assert field_arithmetic(Fraction(1, 2), Fraction(1, 3), "add") == Fraction(5, 6)
    assert field_arithmetic(zeta(4), zeta(4), "mul") == Fraction(-1)
    # zeta_3 + zeta_3^2 reduces to -1 modulo x^2 + x + 1
    assert field_arithmetic(zeta(3), zeta(3) ** 2, "add") == Fraction(-1)


def test_division_by_zero_is_distinct():
    with pytest.raises(ZeroDivisionError):
        field_arithmetic(zeta(3), Fraction(0), "div")
    with pytest.raises(ZeroDivisionError):
        field_arithmetic(Fraction(1), Fraction(0), "div")


def test_roots_of_unity_basics():
    assert zeta(1) == Fraction(1)
    assert zeta(2) == Fraction(-1)
    assert zeta(4) ** 2 == Fraction(-1)
    assert zeta(5) ** 5 == Fraction(1)
    assert zeta(8) * zeta(8) == zeta(4)


def _sample_scalars(rng, n):
    vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 5))]
    for _ in range(3):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(euler_phi(n))]
        vals.append(cyclotomic(n, coeffs))
    return vals


def test_field_axioms_hold_exactly():
    rng = random.Random(20240811)
    for n in (3, 4, 5, 8, 12):
        for a in _sample_scalars(rng, n):
            assert a + 0 == a
            assert a * 1 == a
            if a != 0:
                assert a * (Fraction(1) / a if isinstance(a, Fraction) else a.inverse()) == 1
        for a in _sample_scalars(rng, n):
            for b in _sample_scalars(rng, n):
                assert a + b == b + a
                assert a * b == b * a
                for c in _sample_scalars(rng, n):
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c


def test_mixed_conductor_lifts_to_lcm():
    s = zeta(3) + zeta(4)
    assert isinstance(s, Cyclotomic)
    assert s.conductor == 12
    # subtracting the parts again recovers the originals
    assert s - zeta(4) == zeta(3)
    assert s - zeta(3) == zeta(4)


def test_embedding_commutes_with_arithmetic():
    rng = random.Random(7)
    for _ in range(25):
        a_small = cyclotomic(6, [Fraction(rng.randint(-3, 3)) for _ in range(2)])
        b_small = cyclotomic(6, [Fraction(rng.randint(-3, 3)) for _ in range(2)])
        lift = lambda v: from_cyclo_coords(cyclo_coords(v, 24), 24)
        assert lift(a_small * b_small) == lift(a_small) * lift(b_small)
        assert lift(a_small + b_small) == lift(a_small) + lift(b_small)


def test_canonical_form_demotes_rationals():
    v = zeta(3) + zeta(3) ** 2  # equals -1
    assert isinstance(v, Fraction)
    w = zeta(5) + zeta(5) ** 2 + zeta(5) ** 3 + zeta(5) ** 4
    assert w == Fraction(-1)


def test_conjugation_and_galois():
    z = zeta(5)
    assert z * scalar_conjugate(z) == Fraction(1)
    assert scalar_conjugate(Fraction(3, 7)) == Fraction(3, 7)
    assert zeta(7).galois(2) == zeta(7) ** 2
    with pytest.raises(ValueError):
        zeta(6).galois(2)


def test_text_roundtrip():
    for s in (Fraction(-5, 6), zeta(4), zeta(12) + 2, Fraction(7)):
        assert scalar_from_text(scalar_to_text(s)) == s
    assert scalar_from_text("5/6") == Fraction(5, 6)
    assert scalar_from_text("-3") == Fraction(-3)
    assert scalar_from_text("zeta(4):[0/1,1/1]") == zeta(4)
    with pytest.raises(ValueError):
        scalar_from_text("three halves")


def test_equality_across_conductors():
    # zeta_3 expressed inside Q(zeta_6) equals zeta_3 at its own conductor
    z6sq = zeta(6) ** 2
    assert z6sq == zeta(3)
    assert zeta(3) == z6sq
    assert not (zeta(3) == zeta(4))


# ---------------------------------------------------------------------------
# oracle for Q(zeta_N) arithmetic: raw polynomials in x, multiplied modulo
# x^N - 1, then reduced by Fraction long division by Phi_N


ORACLE_CONDUCTORS = list(range(1, 31))
ORACLE_PAIRS = [(3, 4), (4, 6), (5, 3), (8, 12), (9, 6), (7, 3), (10, 15), (16, 12)]


def _oracle_reduce(poly, n):
    """Remainder of a Fraction polynomial (ascending) on division by Phi_n."""
    phi_poly = _oracle_cyclotomic(n)
    rem = [Fraction(c) for c in poly]
    d = len(phi_poly) - 1
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]  # Phi_n is monic
        if c:
            for j, p in enumerate(phi_poly):
                rem[top - d + j] -= c * p
    rem = rem[:d] + [Fraction(0)] * (d - len(rem))
    return rem


def _oracle_mul(a, b, n):
    """Product of two polynomials modulo x^n - 1, as a list of length n."""
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % n] += x * y
    return out


def _oracle_lift(s, n):
    """A raw polynomial in zeta_n whose value is the scalar s (conductor | n)."""
    if isinstance(s, Fraction):
        return [s]
    step = n // s.conductor
    out = [Fraction(0)] * ((len(s.coeffs) - 1) * step + 1)
    for k, c in enumerate(s.coeffs):
        out[k * step] = c
    return out


def _assert_canonical(s, n):
    """A Fraction, or a Cyclotomic at n storing a non-constant tuple of
    phi(n) Fractions."""
    if type(s) is Fraction:
        return
    assert type(s) is Cyclotomic and s.conductor == n
    assert type(s.coeffs) is tuple and len(s.coeffs) == euler_phi(n)
    assert all(type(c) is Fraction for c in s.coeffs)
    assert any(s.coeffs[1:])


def _assert_is(s, coords, n):
    """s is the canonical scalar with power-basis coordinates `coords` at n."""
    _assert_canonical(s, n)
    if not any(coords[1:]):
        assert type(s) is Fraction and s == coords[0], (s, coords)
    else:
        assert type(s) is Cyclotomic and list(s.coeffs) == coords, (s, coords)


def _random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))


def _random_raw(rng, length):
    return [_random_rational(rng) if rng.random() < 0.7 else Fraction(0)
            for _ in range(length)]


@pytest.mark.parametrize("n", ORACLE_CONDUCTORS)
def test_zeta_power_table_matches_division(n):
    table = zeta_powers(n)
    assert len(table) == n
    for s, row in enumerate(table):
        dense = [0] * euler_phi(n)
        for k, c in row:
            assert type(c) is int and c != 0
            dense[k] = c
        assert dense == _oracle_reduce([0] * s + [1], n)


@pytest.mark.parametrize("n", ORACLE_CONDUCTORS)
def test_cyclotomic_arithmetic_matches_oracle(n):
    rng = random.Random(9000 + n)
    phi = euler_phi(n)
    for _ in range(3):
        # raw coefficient lists longer than n are reduced like any polynomial
        raw_a = _random_raw(rng, rng.randint(n + 1, 2 * n + 3))
        raw_b = _random_raw(rng, rng.randint(1, phi + 1))
        a, b = cyclotomic(n, raw_a), cyclotomic(n, raw_b)
        ra, rb = _oracle_reduce(raw_a, n), _oracle_reduce(raw_b, n)
        _assert_is(a, ra, n)
        _assert_is(b, rb, n)
        _assert_is(a + b, [x + y for x, y in zip(ra, rb)], n)
        _assert_is(a - b, [x - y for x, y in zip(ra, rb)], n)
        _assert_is(a * b, _oracle_reduce(_oracle_mul(raw_a, raw_b, n), n), n)
        q = _random_rational(rng)
        _assert_is(a * q, [x * q for x in ra], n)
        _assert_is(q * a, [x * q for x in ra], n)
        _assert_is(a + q, [ra[0] + q] + ra[1:], n)
        _assert_is(q - a, [q - ra[0]] + [-x for x in ra[1:]], n)
        k = rng.randint(0, 4)
        power = [Fraction(1)]
        for _ in range(k):
            power = _oracle_mul(power, raw_a, n)
        _assert_is(a ** k, _oracle_reduce(power, n), n)
        # a value minus its irrational part is demoted to a Fraction
        _assert_is(a - (a - ra[0]), [ra[0]] + [Fraction(0)] * (phi - 1), n)
        if any(rb):
            # a / b times b is a, and b^-k times b^k is 1, in the oracle's ring
            one = [Fraction(1)] + [Fraction(0)] * (phi - 1)
            quotient = a / b
            _assert_canonical(quotient, n)
            assert _oracle_reduce(_oracle_mul(_oracle_lift(quotient, n), raw_b, n), n) == ra
            inv = b ** -k
            _assert_canonical(inv, n)
            bk = [Fraction(1)]
            for _ in range(k):
                bk = _oracle_mul(bk, raw_b, n)
            assert _oracle_reduce(_oracle_mul(_oracle_lift(inv, n), bk, n), n) == one


@pytest.mark.parametrize("n,m", ORACLE_PAIRS)
def test_mixed_conductors_match_oracle(n, m):
    rng = random.Random(100 * n + m)
    big = math.lcm(n, m)
    def irrational(k):
        while True:
            s = cyclotomic(k, _random_raw(rng, euler_phi(k)))
            if isinstance(s, Cyclotomic):
                return s

    for _ in range(3):
        # a rational operand would keep the other's conductor, not the lcm
        a, b = irrational(n), irrational(m)
        la, lb = _oracle_lift(a, big), _oracle_lift(b, big)
        ra, rb = _oracle_reduce(la, big), _oracle_reduce(lb, big)
        assert list(a.coeffs_at(big)) == ra
        assert list(a.coeffs_at(2 * big)) == _oracle_reduce(_oracle_lift(a, 2 * big), 2 * big)
        _assert_is(a + b, [x + y for x, y in zip(ra, rb)], big)
        _assert_is(a - b, [x - y for x, y in zip(ra, rb)], big)
        _assert_is(a * b, _oracle_reduce(_oracle_mul(la, lb, big), big), big)
        quotient = a / b
        _assert_canonical(quotient, big)
        assert _oracle_reduce(_oracle_mul(_oracle_lift(quotient, big), lb, big), big) == ra

"""Exact scalar arithmetic against an independent oracle."""

import random
from fractions import Fraction

import pytest

from wsdalg.scalars import (
    DEFAULT_PRIMES,
    GaussRational,
    I,
    ONE,
    PrimeCollision,
    balanced_residue,
    gauss,
    is_prime,
    root_of_minus_one,
    validate_prime,
)


def _rand_gauss(rng):
    def frac():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 30))

    return GaussRational(frac(), frac())


# independent oracle: arithmetic on (re, im) Fraction pairs written from the
# field axioms, no GaussRational methods involved
def _o_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _o_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _o_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def test_examples():
    one_plus_i = GaussRational(1, 1)
    one_minus_i = GaussRational(1, -1)
    assert one_plus_i * one_minus_i == GaussRational(2)
    assert GaussRational(Fraction(3, 2), -1).conjugate() == GaussRational(Fraction(3, 2), 1)
    assert one_plus_i / one_plus_i == ONE


def test_arithmetic_matches_oracle():
    rng = random.Random(20240811)
    for _ in range(400):
        a, b = _rand_gauss(rng), _rand_gauss(rng)
        ta, tb = (a.re, a.im), (b.re, b.im)
        s = a + b
        assert (s.re, s.im) == _o_add(ta, tb)
        m = a * b
        assert (m.re, m.im) == _o_mul(ta, tb)
        if b:
            q = a / b
            assert (q.re, q.im) == _o_div(ta, tb)
            assert q * b == a
        assert a.conjugate().conjugate() == a
        n = a * a.conjugate()
        assert n.im == 0 and n.re >= 0


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / GaussRational(0)


def test_canonical_form():
    z = GaussRational(Fraction(2, 4), Fraction(-6, 9))
    assert z.re == Fraction(1, 2) and z.im == Fraction(-2, 3)
    assert z.re.denominator == 2 and z.im.denominator == 3


def test_default_primes():
    for p in DEFAULT_PRIMES:
        assert p % 4 == 1 and is_prime(p)
        r = root_of_minus_one(p)
        assert 0 < r < p and (r * r + 1) % p == 0
        assert r == min(r, p - r)
    # the sizing constraint behind the defaults: a balanced dot product of
    # length 8448 must stay below 2**53 for exact float64 accumulation
    for p in DEFAULT_PRIMES:
        assert 8448 * ((p - 1) // 2) ** 2 + p < 2**53


def test_validate_prime():
    with pytest.raises(ValueError, match="21 is not prime"):
        validate_prime(21)
    with pytest.raises(ValueError, match="not prime"):
        validate_prime(1)
    with pytest.raises(ValueError, match="7 is not 1 \\(mod 4\\)"):
        validate_prime(7)
    with pytest.raises(ValueError, match="1000000009 is too large"):
        validate_prime(1000000009)
    for p in (5, 13) + DEFAULT_PRIMES:
        assert validate_prime(p) == p
    # 2065121 is the largest prime the float64 bound admits: the next
    # prime = 1 (mod 4) is prime and = 1 (mod 4) but fails the bound
    q = 2065121 + 4
    while not is_prime(q):
        q += 4
    with pytest.raises(ValueError, match=f"{q} is too large"):
        validate_prime(q)
    # root_of_minus_one applies the same check
    with pytest.raises(ValueError, match="1000000009 is too large"):
        root_of_minus_one(1000000009)


def test_mod_project_examples():
    root = root_of_minus_one(5)
    assert root == 2
    assert balanced_residue(I, 5, root) == 2
    assert balanced_residue(GaussRational(Fraction(1, 2)), 5, root) == -2  # 3 = -2 mod 5
    assert balanced_residue(Fraction(1, 2), 5, root) == -2
    assert balanced_residue(GaussRational(0), 5, root) == 0
    assert balanced_residue(GaussRational(1, 1), 5, root) == -2  # 1 + 2 = 3
    # balanced representatives cover [-(p-1)/2, (p-1)/2]
    assert sorted(balanced_residue(n, 13, 5) for n in range(13)) == list(range(-6, 7))


def test_mod_project_prime_collision():
    with pytest.raises(PrimeCollision):
        balanced_residue(GaussRational(Fraction(1, 5)), 5, 2)
    with pytest.raises(PrimeCollision):
        balanced_residue(GaussRational(1, Fraction(2, 5)), 5, 2)


@pytest.mark.parametrize("p", [5, 13, DEFAULT_PRIMES[0]])
def test_mod_project_homomorphism(p):
    rng = random.Random(p)
    root = root_of_minus_one(p)

    def sample():
        # denominators prime to p, so the projection is defined
        def frac():
            while True:
                d = rng.randint(1, 30)
                if d % p:
                    return Fraction(rng.randint(-50, 50), d)

        return GaussRational(frac(), frac())

    # reduced denominators of sums and products divide the factor
    # denominators, so every projection below is defined
    for _ in range(3334):  # 3 primes x 3334 > 10000 pairs overall
        a, b = sample(), sample()
        fa, fb = balanced_residue(a, p, root), balanced_residue(b, p, root)
        assert abs(fa) <= p // 2 and abs(fb) <= p // 2
        assert (balanced_residue(a * b, p, root) - fa * fb) % p == 0
        assert (balanced_residue(a + b, p, root) - fa - fb) % p == 0


def test_coercion_and_power():
    assert gauss(3) == GaussRational(3)
    assert I**2 == GaussRational(-1)
    assert I**4 == ONE

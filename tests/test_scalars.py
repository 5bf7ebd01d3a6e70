"""Exact scalar arithmetic against an independent oracle."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest

from wsdalg.closure import lie_closure
from wsdalg.linalg import SparseEchelon
from wsdalg.scalars import (
    DEFAULT_PRIMES,
    GaussRational,
    I,
    ONE,
    PrimeCollision,
    balanced_residue,
    balanced_residues,
    gauss,
    is_prime,
    root_of_minus_one,
    validate_prime,
)


def _rand_gauss(rng, kind="rational"):
    """A random Gaussian rational: "rational" components have random
    denominators, "integer" ones are ints, and "mixed" draws each component
    from either kind."""

    def frac():
        if kind == "integer" or (kind == "mixed" and rng.random() < 0.5):
            return rng.randint(-50, 50)
        return Fraction(rng.randint(-50, 50), rng.randint(1, 30))

    return GaussRational(frac(), frac())


def _assert_canonical(z):
    """Each component is an int exactly when its denominator is 1."""
    for x in (z.re, z.im):
        assert type(x) is (int if Fraction(x).denominator == 1 else Fraction), repr(x)


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
    for a, b in (
        (_rand_gauss(rng, kind), _rand_gauss(rng, kind))
        for kind in ("rational", "integer", "mixed")
        for _ in range(400)
    ):
        # the oracle runs on Fraction pairs, whatever type the components have
        ta, tb = (Fraction(a.re), Fraction(a.im)), (Fraction(b.re), Fraction(b.im))
        s = a + b
        assert (s.re, s.im) == _o_add(ta, tb)
        d = a - b
        assert (d.re, d.im) == _o_add(ta, (-tb[0], -tb[1]))
        m = a * b
        assert (m.re, m.im) == _o_mul(ta, tb)
        results = [s, d, m, -a, a.conjugate(), a**3]
        if b:
            q = a / b
            assert (q.re, q.im) == _o_div(ta, tb)
            assert q * b == a
            results.append(q)
        for z in results:
            _assert_canonical(z)
        assert a.conjugate().conjugate() == a
        n = a * a.conjugate()
        assert n.im == 0 and n.re >= 0


def test_canonical_component_types():
    q = GaussRational(2, 2) / GaussRational(1, 1)
    assert q == GaussRational(2) and type(q.re) is int and q.re == 2 and type(q.im) is int
    h = GaussRational(1) / GaussRational(2)
    assert type(h.re) is Fraction and h.re == Fraction(1, 2) and type(h.im) is int
    # a Fraction whose denominator cancels comes back as an int
    s = GaussRational(Fraction(1, 2), Fraction(1, 3)) + GaussRational(Fraction(1, 2), Fraction(2, 3))
    assert type(s.re) is int and type(s.im) is int and (s.re, s.im) == (1, 1)
    assert type(GaussRational(Fraction(4, 2)).re) is int
    assert type((GaussRational(Fraction(1, 2)) * 2).re) is int
    assert type((GaussRational(0, Fraction(1, 2)) ** 2).re) is Fraction
    assert type((GaussRational(0, Fraction(1, 2)) * 2).conjugate().im) is int
    # integer division stays exact: never a float, even when it does not divide
    for z in (GaussRational(3) / 2, 3 / GaussRational(2), GaussRational(3, 5) / GaussRational(0, 2)):
        assert all(type(x) in (int, Fraction) for x in (z.re, z.im))
    assert GaussRational(3) / 2 == GaussRational(Fraction(3, 2))


def test_equality_and_hash_independent_of_construction():
    pairs = [
        (GaussRational(2), GaussRational(Fraction(2))),
        (GaussRational(2, -3), GaussRational(Fraction(4, 2), Fraction(-9, 3))),
        (GaussRational(Fraction(1, 2), 1), GaussRational("1/2", Fraction(1))),
        (GaussRational(0), GaussRational(Fraction(0), Fraction(0))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert hash(GaussRational(2)) == hash(2) == hash(Fraction(2))
    assert GaussRational(2) == 2 and GaussRational(2) == Fraction(2)
    assert hash(GaussRational(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert GaussRational(6) / GaussRational(3) == GaussRational(2)
    assert len({GaussRational(2), GaussRational(Fraction(2)), GaussRational(4) / 2}) == 1


def test_repr_and_str():
    assert repr(GaussRational(1, 2)) == "GaussRational(Fraction(1, 1), Fraction(2, 1))"
    assert repr(GaussRational(Fraction(1, 2), -3)) == "GaussRational(Fraction(1, 2), Fraction(-3, 1))"
    assert repr(GaussRational()) == "GaussRational(Fraction(0, 1), Fraction(0, 1))"
    assert str(GaussRational(2)) == "2"
    assert str(GaussRational(0, -1)) == "-1*i"
    assert str(GaussRational(Fraction(1, 2), -3)) == "(1/2-3*i)"


def test_constructor_accepts_exact_input_only():
    assert GaussRational("1/2", "3/4") == GaussRational(Fraction(1, 2), Fraction(3, 4))
    assert GaussRational(True) == GaussRational(1) and type(GaussRational(True).re) is int
    for bad in (0.1, 1.0, 1j, None, [1]):
        with pytest.raises(TypeError, match=type(bad).__name__):
            GaussRational(bad)
        with pytest.raises(TypeError, match=type(bad).__name__):
            GaussRational(0, bad)
    with pytest.raises(TypeError, match="float"):
        gauss(0.5)
    with pytest.raises(TypeError, match="float"):
        GaussRational(1) * 0.5


def test_sparse_echelon_int_rows_stay_exact():
    ech = SparseEchelon()
    assert ech.insert({0: 2, 1: 3}) == 0
    assert ech.rows[0] == {0: 1, 1: Fraction(3, 2)}
    assert ech.insert({0: 1, 1: 1, 2: 5}) == 1
    assert ech.contains({0: 4, 1: 6})
    assert not ech.contains({2: 1, 3: 1})
    for row in ech.rows.values():
        for v in row.values():
            assert type(v) in (int, Fraction), repr(v)
    g = SparseEchelon()
    g.insert({0: GaussRational(0, 2), 3: GaussRational(1)})
    assert g.rows[0] == {0: ONE, 3: GaussRational(0, Fraction(-1, 2))}


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
    # a float, a string or a bool is no prime, whatever its value
    for bad in (2065121.0, "2065121", True):
        with pytest.raises(ValueError, match=f"prime {re.escape(repr(bad))} is not an integer"):
            validate_prime(bad)
    with pytest.raises(ValueError, match="prime 2065121.0 is not an integer"):
        lie_closure(blocks=(3,), prime=2065121.0)
    for p in (5, 13) + DEFAULT_PRIMES:
        assert validate_prime(p) == p
        assert type(validate_prime(np.int64(p))) is int and validate_prime(np.int64(p)) == p
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


def test_mod_project_collision_is_raised_every_time():
    """The cached inverse never caches a collision: the same vanishing
    denominator raises on every call, also after a valid one."""
    z = GaussRational(Fraction(1, 10))
    for _ in range(2):
        with pytest.raises(PrimeCollision):
            balanced_residue(z, 5, 2)
        with pytest.raises(PrimeCollision):
            balanced_residue(Fraction(3, 5), 5, 2)
        assert balanced_residue(Fraction(1, 10), 13, 5) == 4  # 10 * 4 = 40 = 1 mod 13


def test_mod_project_fractions_match_direct_inverse():
    rng = random.Random(29)
    for p in (13, DEFAULT_PRIMES[1]):
        for _ in range(300):
            den = rng.randint(1, 50)
            if den % p == 0:
                continue
            num = rng.randint(-10**6, 10**6)
            want = num * pow(den, -1, p) % p
            want = want - p if want > p // 2 else want
            assert balanced_residue(Fraction(num, den), p, 5) == want, (num, den, p)


@pytest.mark.parametrize("p", [5, 13, DEFAULT_PRIMES[0]])
def test_balanced_residues_match_the_scalar_reference(p):
    """The list projection equals ``balanced_residue`` value by value, an
    int each, for ints, Fractions and GaussRationals (as complex-mode
    entries come), numerators beyond 2^63 included."""
    rng = random.Random(p + 1)
    root = root_of_minus_one(p)
    big = 2**63 + 12345

    def den():
        while True:
            d = rng.randint(1, 40)
            if d % p:
                return d

    values = [0, 1, -1, p, -p, p // 2, p // 2 + 1, big, -big, 3**90, -(7**40),
              Fraction(big, 5 if p != 5 else 7), Fraction(-(3**50), 11 if p != 11 else 13),
              GaussRational(big, -big), GaussRational(Fraction(1, 2), Fraction(-(2**70), 3)), I]
    for _ in range(300):
        values += [rng.randint(-10**6, 10**6), Fraction(rng.randint(-10**20, 10**20), den()),
                   GaussRational(Fraction(rng.randint(-10**20, 10**20), den()),
                                 rng.choice([0, rng.randint(-99, 99), Fraction(1, den())]))]
    got = balanced_residues(values, p, root)
    assert got == [balanced_residue(v, p, root) for v in values]
    assert all(type(x) is int and abs(x) <= p // 2 for x in got)
    assert balanced_residues([], p, root) == []


def test_balanced_residues_prime_collision():
    """A denominator divisible by p raises, in a real part, an imaginary
    part and a bare Fraction, whatever comes before it in the list."""
    for bad in (GaussRational(Fraction(1, 5)), GaussRational(1, Fraction(2, 5)), Fraction(3, 10)):
        with pytest.raises(PrimeCollision):
            balanced_residues([1, Fraction(1, 2), bad], 5, 2)
    assert balanced_residues([Fraction(1, 10)], 13, 5) == [4]


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

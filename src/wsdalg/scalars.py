"""Exact scalar arithmetic: Gaussian rationals and their projection to F_p.

Every certified computation in this package runs either over Q(i), with
numerators and denominators as arbitrary-precision integers, or over a prime
field F_p with p = 1 (mod 4), where -1 has a square root and

    Q(i) -> F_p,   i |-> root_i,

is a ring homomorphism on every Gaussian rational whose denominators are
prime to p.  ``balanced_residue`` is that projection and ``validate_prime``
the single check a modular prime must pass.  Floating point never enters a
certified value; the closure engine stores F_p residues in float64 words
purely as exact small integers.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "GaussRational",
    "PrimeCollision",
    "DEFAULT_PRIMES",
    "ZERO",
    "ONE",
    "I",
    "gauss",
    "balanced_residue",
    "validate_prime",
    "root_of_minus_one",
    "is_prime",
]


class PrimeCollision(ArithmeticError):
    """A denominator vanished mod p; the caller should retry with another prime."""


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for every n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Dot-product length the modular primes are sized for: a parity half of the
# real layout (8448 coordinates).  The graded engine's longest dot product
# is 448, the size of its largest shift class, so the bound has slack.
_DOT_LENGTH = 8448


def validate_prime(p: int) -> int:
    """Return p if it can serve as a modular prime, else raise ValueError.

    p must be prime, = 1 (mod 4) so that -1 has a square root mod p, and
    small enough that a balanced-residue dot product of length 8448 stays
    below 2^53, so float64 matrix products are exact:
        8448 * ((p-1)/2)^2 + p < 2^53,
    which holds up to p = 2065121.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % 4 != 1:
        raise ValueError(f"prime {p} is not 1 (mod 4)")
    if _DOT_LENGTH * ((p - 1) // 2) ** 2 + p >= 2**53:
        raise ValueError(
            f"prime {p} is too large for exact float64 products (largest valid prime: 2065121)"
        )
    return p


def root_of_minus_one(p: int) -> int:
    """Smallest positive square root of -1 mod p, for a prime p accepted by
    ``validate_prime``.

    Found by exponentiation: g^((p-1)/4) is a root of -1 for any
    quadratic non-residue g; scanning g upward and folding r -> min(r, p-r)
    makes the choice deterministic.
    """
    validate_prime(p)
    for g in range(2, p):
        r = pow(g, (p - 1) // 4, p)
        if r * r % p == p - 1:
            return min(r, p - r)
    raise ArithmeticError(f"no root of -1 mod {p}")  # unreachable for valid p


# Default primes for the modular rank engine: the two largest primes that
# ``validate_prime`` accepts.
DEFAULT_PRIMES = (2065121, 2065117)


class GaussRational:
    """An exact Gaussian rational re + im*i with Fraction components.

    Values are immutable and hashable; arithmetic always returns canonical
    reduced form (Fraction keeps gcd(|num|, den) = 1 and den >= 1).
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    # -- ring/field operations -------------------------------------------

    def __add__(self, other) -> "GaussRational":
        other = gauss(other)
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussRational":
        return GaussRational(-self.re, -self.im)

    def __sub__(self, other) -> "GaussRational":
        other = gauss(other)
        return GaussRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussRational":
        return gauss(other) - self

    def __mul__(self, other) -> "GaussRational":
        other = gauss(other)
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussRational":
        other = gauss(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        return GaussRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other) -> "GaussRational":
        return gauss(other) / self

    def __pow__(self, n: int) -> "GaussRational":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    # -- predicates & hashing --------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- formatting -------------------------------------------------------

    def __repr__(self) -> str:
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


def gauss(value) -> GaussRational:
    """Coerce an int, Fraction or GaussRational to GaussRational."""
    if isinstance(value, GaussRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussRational(value, 0)
    raise TypeError(f"cannot coerce {type(value).__name__} to GaussRational")


ZERO = GaussRational(0, 0)
ONE = GaussRational(1, 0)
I = GaussRational(0, 1)


def balanced_residue(z: GaussRational | int | Fraction, p: int, root_i: int) -> int:
    """Project a Gaussian rational to F_p, sending i to root_i; the result
    is the balanced representative in [-(p-1)/2, (p-1)/2].

    Raises PrimeCollision when a denominator is divisible by p, in which
    case the caller retries with a different prime.
    """
    # ints and Fractions are projected directly: coercing them to
    # GaussRational would triple the cost of flattening an operator
    if isinstance(z, GaussRational):
        v = _residue(z.re, p) + _residue(z.im, p) * root_i
    else:
        v = _residue(z, p)
    v %= p
    return v - p if v > p // 2 else v


def _residue(x: int | Fraction, p: int) -> int:
    if x.denominator % p == 0:
        raise PrimeCollision(f"denominator divisible by {p}")
    return x.numerator * pow(x.denominator, -1, p)

"""Exact scalar arithmetic: Gaussian rationals and their projection to F_p.

Every certified computation in this package runs either over Q(i), with
numerators and denominators as arbitrary-precision integers, or over a prime
field F_p with p = 1 (mod 4), where -1 has a square root and

    Q(i) -> F_p,   i |-> root_i,

is a ring homomorphism on every Gaussian rational whose denominators are
prime to p.  ``balanced_residue`` is that projection, ``balanced_residues``
maps it over a list, and ``validate_prime`` is the single check a modular
prime must pass.  Floating point never enters a certified value; the
closure engine stores F_p residues in float64 words purely as exact small
integers.

A ``GaussRational`` keeps each component as a Python ``int`` when it is
integral and as a reduced ``Fraction`` only otherwise.  Almost every value
in the package (operator entries, Gram matrices, the kernels of the
isotypical decomposition) is a Gaussian integer, so arithmetic mostly runs
on machine-speed small ints; the canonical form keeps equality, hashing
and printing independent of how a value was computed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

__all__ = [
    "GaussRational",
    "PrimeCollision",
    "DEFAULT_PRIMES",
    "ZERO",
    "ONE",
    "I",
    "gauss",
    "balanced_residue",
    "balanced_residues",
    "validate_prime",
    "validate_primes",
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
    which holds up to p = 2065121.  p may be a Python or numpy integer
    (not a bool); it is returned as an int.
    """
    if isinstance(p, bool) or not hasattr(p, "__index__"):
        raise ValueError(f"prime {p!r} is not an integer")
    p = p.__index__()
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % 4 != 1:
        raise ValueError(f"prime {p} is not 1 (mod 4)")
    if _DOT_LENGTH * ((p - 1) // 2) ** 2 + p >= 2**53:
        raise ValueError(
            f"prime {p} is too large for exact float64 products (largest valid prime: 2065121)"
        )
    return p


def validate_primes(primes) -> tuple[int, ...]:
    """Return the primes as a tuple if there is at least one, each passes
    ``validate_prime`` and none repeats, else raise ValueError."""
    out = tuple(map(validate_prime, primes))
    if not out:
        raise ValueError("no prime given")
    for i, p in enumerate(out):
        if p in out[:i]:
            raise ValueError(f"prime {p} is repeated")
    return out


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
    """An exact Gaussian rational re + im*i.

    Each component is an ``int`` when it is integral and a reduced
    ``Fraction`` (gcd(|num|, den) = 1, den >= 2) otherwise.  Every operation
    returns this canonical form, so the Gaussian integers that make up
    almost every value in this package never pay for Fraction arithmetic,
    and equal values always have equal components.  Division goes through
    ``Fraction`` and never produces a float.

    Values are immutable and hashable; a real value hashes like the int or
    Fraction it equals.  The constructor accepts ints, Fractions and
    strings that ``Fraction`` parses; floats and other types raise
    TypeError, since they would smuggle rounding into exact arithmetic.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set_re(self, _coerce(re))
        _set_im(self, _coerce(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    # -- ring/field operations -------------------------------------------

    def __add__(self, other) -> "GaussRational":
        if type(other) is not GaussRational:
            other = gauss(other)
        return _make(_canon(self.re + other.re), _canon(self.im + other.im))

    __radd__ = __add__

    def __neg__(self) -> "GaussRational":
        return _make(-self.re, -self.im)

    def __sub__(self, other) -> "GaussRational":
        if type(other) is not GaussRational:
            other = gauss(other)
        return _make(_canon(self.re - other.re), _canon(self.im - other.im))

    def __rsub__(self, other) -> "GaussRational":
        return gauss(other) - self

    def __mul__(self, other) -> "GaussRational":
        if type(other) is not GaussRational:
            other = gauss(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return _make(_canon(a * c), 0)
        return _make(_canon(a * c - b * d), _canon(a * d + b * c))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussRational":
        if type(other) is not GaussRational:
            other = gauss(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero GaussRational")
            return _make(_quotient(a, c), _quotient(b, c))
        n = c * c + d * d
        return _make(_quotient(a * c + b * d, n), _quotient(b * c - a * d, n))

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
        return _make(self.re, -self.im)

    # -- predicates & hashing --------------------------------------------

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

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
        return f"GaussRational({Fraction(self.re)!r}, {Fraction(self.im)!r})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


_set_re = GaussRational.re.__set__
_set_im = GaussRational.im.__set__
_new = object.__new__


def _make(re, im) -> GaussRational:
    """Build a GaussRational from components already in canonical form."""
    z = _new(GaussRational)
    _set_re(z, re)
    _set_im(z, im)
    return z


def _canon(x):
    """The canonical component for an int or Fraction x."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


def _quotient(x, n):
    """Exact canonical x / n for ints or Fractions, n nonzero: int / int
    would give a float, so that case goes through Fraction."""
    if type(x) is int and type(n) is int:
        q, r = divmod(x, n)
        return q if not r else Fraction(x, n)
    return _canon(x / n)


def _coerce(x):
    """Canonical component for constructor input: an int, a Fraction or a
    string that Fraction parses."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, (Fraction, str)):
        return _canon(Fraction(x))
    raise TypeError(f"GaussRational components must be int, Fraction or str, not {type(x).__name__}")


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


def balanced_residues(values, p: int, root_i: int) -> list[int]:
    """``balanced_residue`` of each value, its branches inlined for speed:
    exact Python ints, which a caller may cast to float64 (|x| < p < 2^53)."""
    h = p // 2
    out = []
    for z in values:
        if type(z) is int:
            v = z % p
        elif type(z) is GaussRational:
            v = (_residue(z.re, p) + _residue(z.im, p) * root_i) % p
        else:
            v = z.numerator * _inverse(z.denominator, p) % p
        out.append(v - p if v > h else v)
    return out


def _residue(x: int | Fraction, p: int) -> int:
    if type(x) is int:
        return x
    return x.numerator * _inverse(x.denominator, p)


@lru_cache(maxsize=256)
def _inverse(den: int, p: int) -> int:
    """den^-1 mod p, cached: the certificate's denominators all divide 6.
    A PrimeCollision is raised, and not cached, whenever p divides den."""
    if den % p == 0:
        raise PrimeCollision(f"denominator divisible by {p}")
    return pow(den, -1, p)

"""Seeded inputs of the benchmark workloads.

Everything here is plain data derived from the seed alone, so the same
seed always yields the same prime, generator order and query stream, and
the program under test only ever sees the generated values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# Largest p = 1 (mod 4) for which a balanced-residue dot product of the
# full 8448-long flat coordinate vector stays exact in float64:
# 8448 * ((p - 1) / 2)^2 + p < 2^53.
PRIME_LIMIT = 2065121
FLAT_LENGTH = 8448
PRIME_CHOICES = 64

GENERATOR_NAMES = (
    "iL0", "iL1", "iL2",
    "iLambda0", "iLambda1", "iLambda2",
    "iV0", "iV1", "iV2",
    "A0", "A1", "A2",
)
EVEN_GENERATOR_NAMES = GENERATOR_NAMES[:6]

# membership query stream per pass: more real queries than complex ones, so
# the latency median sits inside the (slower) real-state cluster instead of
# on the boundary between the two
HW0_HALF_DIM = 20  # even (and odd) basis vectors of hw0
REAL_QUERIES = 64
COMPLEX_QUERIES = 32
TERMS_PER_QUERY = 3
# generator orders per run; the modular passes cycle through them, so that
# one run covers several of the batch sizes the closure adapts to the order
ORDERS = 8


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def candidate_primes() -> tuple[int, ...]:
    """The PRIME_CHOICES largest primes p = 1 (mod 4) with p <= PRIME_LIMIT,
    in decreasing order."""
    out = []
    p = PRIME_LIMIT - (PRIME_LIMIT - 1) % 4
    while len(out) < PRIME_CHOICES:
        if _is_prime(p):
            out.append(p)
        p -= 4
    return tuple(out)


@dataclass(frozen=True)
class Term:
    """coeff * (generator or its dagger), coeff = re + im*i."""

    generator: str
    dagger: bool
    re: Fraction
    im: Fraction


@dataclass(frozen=True)
class QuerySpec:
    """One membership query against the real or the complexified state.

    A member is a combination of same-parity generators and daggers; a
    non-member is an even member plus 1 on the diagonal entry ``bump`` of
    the even sub-block, which makes its supertrace nonzero."""

    state: str  # "modular" or "modular-complex"
    parity: int
    terms: tuple[Term, ...]
    bump: int | None

    @property
    def member(self) -> bool:
        return self.bump is None


@dataclass(frozen=True)
class Inputs:
    seed: int
    prime: int
    orders: tuple[tuple[str, ...], ...]
    even_order: tuple[str, ...]
    queries: tuple[QuerySpec, ...]

    @property
    def order(self) -> tuple[str, ...]:
        return self.orders[0]


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))


def query_specs(rng: random.Random, n: int, state: str, half_dim: int) -> list[QuerySpec]:
    """n queries in a fixed pattern: even member, non-member, odd member,
    non-member.  Complex-state queries get Gaussian-rational coefficients,
    real-state queries real ones."""
    out = []
    for q in range(n):
        member = q % 2 == 0
        parity = 1 if q % 4 == 2 else 0
        names = [g for g in GENERATOR_NAMES if (g in EVEN_GENERATOR_NAMES) == (parity == 0)]
        pool = [(g, d) for g in names for d in (False, True)]
        terms = tuple(
            Term(g, d, _coeff(rng), _coeff(rng) if state == "modular-complex" else Fraction(0))
            for g, d in rng.sample(pool, TERMS_PER_QUERY)
        )
        out.append(QuerySpec(state, parity, terms, None if member else rng.randrange(half_dim)))
    return out


def pick_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    prime = rng.choice(candidate_primes())
    order = tuple(rng.sample(GENERATOR_NAMES, len(GENERATOR_NAMES)))
    even_order = tuple(rng.sample(EVEN_GENERATOR_NAMES, len(EVEN_GENERATOR_NAMES)))
    queries = query_specs(rng, REAL_QUERIES, "modular", HW0_HALF_DIM)
    queries += query_specs(rng, COMPLEX_QUERIES, "modular-complex", HW0_HALF_DIM)
    rng.shuffle(queries)
    orders = (order,) + tuple(tuple(rng.sample(GENERATOR_NAMES, len(GENERATOR_NAMES)))
                              for _ in range(ORDERS - 1))
    return Inputs(seed, prime, orders, even_order, tuple(queries))

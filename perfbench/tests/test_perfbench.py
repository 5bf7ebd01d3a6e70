"""Tests of the benchmark's own code: seeded inputs, the prime choice, the
membership oracle and the agreement of BENCHMARK.json with the code."""

from __future__ import annotations

import importlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench.inputs import (
    EVEN_GENERATOR_NAMES,
    FLAT_LENGTH,
    GENERATOR_NAMES,
    HW0_HALF_DIM,
    PRIME_LIMIT,
    candidate_primes,
    pick_inputs,
    query_specs,
)
from perfbench.workloads import MODULAR_FIELDS, PROGRAM_MODULES, WORKLOADS, build_queries

ROOT = Path(__file__).resolve().parents[2]


def _exact_in_float64(p: int) -> bool:
    return FLAT_LENGTH * ((p - 1) // 2) ** 2 + p < 2**53


def test_same_seed_gives_identical_inputs():
    for seed in (0, 1, 7, 123456):
        assert pick_inputs(seed) == pick_inputs(seed)
    assert pick_inputs(1) != pick_inputs(2)


def test_inputs_permute_the_program_generators():
    from wsdalg.closure import EVEN_GENERATOR_NAMES as program_even
    from wsdalg.operators import GENERATOR_NAMES as program_names

    assert GENERATOR_NAMES == tuple(program_names)
    assert EVEN_GENERATOR_NAMES == tuple(program_even)
    for seed in range(20):
        inp = pick_inputs(seed)
        assert inp.order == inp.orders[0] and len(set(inp.orders)) == len(inp.orders)
        for order in inp.orders:
            assert sorted(order) == sorted(GENERATOR_NAMES)
        assert sorted(inp.even_order) == sorted(EVEN_GENERATOR_NAMES)


def test_every_pickable_prime_is_valid():
    from wsdalg.scalars import is_prime

    primes = candidate_primes()
    assert len(set(primes)) == len(primes)
    for p in primes:
        assert is_prime(p) and p % 4 == 1 and p <= PRIME_LIMIT and _exact_in_float64(p)
    assert {pick_inputs(seed).prime for seed in range(300)} <= set(primes)
    # the limit is tight: the next prime = 1 (mod 4) above it is inexact
    q = PRIME_LIMIT + 4
    while not is_prime(q):
        q += 4
    assert not _exact_in_float64(q)


def test_query_stream_shape():
    queries = pick_inputs(3).queries
    for q in queries:
        assert len({(t.generator, t.dagger) for t in q.terms}) == len(q.terms)
        for t in q.terms:
            assert (t.generator in EVEN_GENERATOR_NAMES) == (q.parity == 0)
            if q.state == "modular":
                assert t.im == 0
        if not q.member:
            assert q.parity == 0 and 0 <= q.bump < HW0_HALF_DIM
    assert any(t.im for q in queries if q.state == "modular-complex" for t in q.terms)


@pytest.fixture(scope="module")
def hw3_closures():
    """Real and complexified modular closures of the generators on hw3."""
    prog = SimpleNamespace(**{m: importlib.import_module(f"wsdalg.{m}") for m in PROGRAM_MODULES})
    ralg = prog.closure.RestrictedAlgebra()
    full = prog.operators.standard_generators()
    gens = {name: ralg.restrict(full[name], (3,)) for name in GENERATOR_NAMES}
    states = {
        field: prog.closure.lie_closure([gens[n] for n in GENERATOR_NAMES], field=field,
                                        blocks=(3,), prime=candidate_primes()[0], ralg=ralg)
        for field in MODULAR_FIELDS
    }
    return prog, ralg, gens, states


def test_membership_oracle_on_hw3(hw3_closures):
    prog, ralg, gens, states = hw3_closures
    assert {f: s.dim for f, s in states.items()} == {"modular": 15, "modular-complex": 15}
    rng = random.Random(5)
    specs = query_specs(rng, 24, "modular", 4) + query_specs(rng, 24, "modular-complex", 4)
    queries = build_queries(prog, ralg, tuple(specs), 3, gens)
    assert {member for _, _, member in queries} == {True, False}
    for field, rop, member in queries:
        assert states[field].contains_modular(rop) is member


def test_gaussian_combinations_are_not_in_the_real_algebra(hw3_closures):
    prog, ralg, gens, states = hw3_closures
    rng = random.Random(11)
    specs = [s for s in query_specs(rng, 40, "modular-complex", 4) if s.member and s.parity == 0]
    assert specs
    for spec in specs:
        real_part = replace(spec, terms=tuple(replace(t, im=Fraction(0)) for t in spec.terms))
        (_, gaussian, _), (_, real, _) = build_queries(prog, ralg, (spec, real_part), 3, gens)
        assert states["modular"].contains_modular(real)
        assert not states["modular"].contains_modular(gaussian)
        assert states["modular-complex"].contains_modular(gaussian)


def test_benchmark_json_matches_the_code():
    from perfbench.run import END_TO_END
    from perfbench.spans import PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)

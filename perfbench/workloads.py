"""The benchmark workloads: set-up, timed part and reference gate.

Each workload has three steps.  ``setup`` builds what the timed part
needs.  ``timed`` makes only the calls into the program that are measured.
``check`` compares their outputs with the reference values recorded below.
Checks run outside the timed region, and every mismatch counts as one
failed check.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import os
import sys
import time
from types import SimpleNamespace

from .inputs import GENERATOR_NAMES, Inputs, QuerySpec

PROGRAM_MODULES = (
    "scalars", "forms", "operators", "linalg", "reptheory", "hwbases", "closure", "suites",
)
EXACT_SUITES = ["relations", "table1", "bases", "appendix", "structure"]
MODULAR_FIELDS = ("modular", "modular-complex")


def fresh_program() -> SimpleNamespace:
    """Import wsdalg afresh, dropping any copy already loaded, so that
    module state and every lru_cache start empty, as in a new interpreter."""
    for name in [n for n in sys.modules if n == "wsdalg" or n.startswith("wsdalg.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"wsdalg.{m}") for m in PROGRAM_MODULES})


class Gate:
    """Counts reference checks; ``failures`` names the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def expect(self, what: str, got, want) -> None:
        self.check(f"{what}: got {got!r}, expected {want!r}", got == want)


def _timed_call(latencies: list[float], fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    latencies.append(time.perf_counter() - t0)
    return out


def _summary(state) -> dict:
    """The invariants of a closure state that every change must keep."""
    return {
        "dim": state.dim,
        "block_dims": dict(state.block_dims()),
        "parity_dims": tuple(state.parity_dims()),
        "pivot_hash": state.pivot_hash(),
    }


def _expect_state(gate: Gate, what: str, state, want: dict) -> None:
    got = _summary(state)
    for key, value in want.items():
        gate.expect(f"{what} {key}", got[key], value)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def generators_digest(ralg) -> str:
    """Digest of the twelve restricted generators' block entries."""
    lines = []
    for name in GENERATOR_NAMES:
        rop = ralg.generator(name)
        for k in sorted(rop.blocks):
            for (r, c), v in sorted(rop.block(k).items()):
                lines.append(f"{name}|{k}|{r}|{c}|{v.re}|{v.im}")
    return _sha256("\n".join(lines))


def build_queries(prog, ralg, specs: tuple[QuerySpec, ...], block: int, gens: dict) -> list:
    """Materialize query specs as restricted operators on one block.

    ``gens`` maps generator names to their restricted operators; the
    daggers are restricted here, to ``block`` only.
    Returns (state field, operator, expected membership) triples."""
    ops, scalars = prog.operators, prog.scalars
    full = ops.standard_generators()
    operands: dict[tuple[str, bool], dict] = {}

    def operand(name: str, dag: bool) -> dict:
        if (name, dag) not in operands:
            rop = ralg.restrict(ops.dagger(full[name]), (block,)) if dag else gens[name]
            operands[(name, dag)] = rop.block(block)
        return operands[(name, dag)]

    out = []
    for spec in specs:
        acc: dict = {}
        for t in spec.terms:
            c = scalars.GaussRational(t.re, t.im)
            for key, v in operand(t.generator, t.dagger).items():
                acc[key] = acc.get(key, scalars.ZERO) + c * v
        if spec.bump is not None:
            key = (spec.bump, spec.bump)
            acc[key] = acc.get(key, scalars.ZERO) + 1
        entries = {key: v for key, v in acc.items() if v}
        rop = prog.closure.RestrictedOperator({block: entries}, spec.parity)
        out.append((spec.state, rop, spec.member))
    return out


class Workload:
    """``cold_timed``: each timed pass must follow a fresh set-up, because
    the timed calls fill the program's caches.  ``min_passes``: the timed
    part runs at least this often per run, so that its median spans more
    than one of the shared machine's slow or fast spells."""

    name = ""
    cold_timed = True
    min_passes = 1

    def setup(self, prog, inputs: Inputs, workdir: str) -> SimpleNamespace:
        raise NotImplementedError

    def timed(self, prog, ctx: SimpleNamespace, latencies: list[float]):
        raise NotImplementedError

    def check(self, ctx: SimpleNamespace, out, gate: Gate) -> None:
        raise NotImplementedError


HW0_REFERENCE = {
    "modular": {"dim": 1599, "block_dims": {0: 1599},
                "parity_dims": (799, 800), "pivot_hash": "9db1b3b25abc0c18"},
    "modular-complex": {"dim": 1599, "block_dims": {0: 1599},
                        "parity_dims": (799, 800), "pivot_hash": "b3440c22516b072b"},
}


class ModularHw0(Workload):
    """The modular engine on the hw0 sub-closure: the write path (real and
    complexified closures, verify_structure) and then the read path (save,
    reload, supertrace residues, one membership reduce per query).  A pass
    takes about 6 s, short enough to repeat several times per run; it fills
    no cache, so the passes share one set-up.  Successive passes take the
    seeded generator orders in turn."""

    name = "modular-hw0"
    cold_timed = False
    min_passes = 4
    BLOCK = 0

    def setup(self, prog, inputs, workdir):
        ralg = prog.closure.default_algebra()
        gens = dict(zip(GENERATOR_NAMES, ralg.generators()))
        queries = build_queries(prog, ralg, inputs.queries, self.BLOCK, gens)
        paths = {field: os.path.join(workdir, f"hw0-{field}.npz") for field in MODULAR_FIELDS}
        return SimpleNamespace(inputs=inputs, ralg=ralg, queries=queries, paths=paths,
                               orders=itertools.cycle(inputs.orders))

    def timed(self, prog, ctx, latencies):
        cl, inp = prog.closure, ctx.inputs
        order = next(ctx.orders)
        built = {field: cl.lie_closure(order, field=field, blocks=(self.BLOCK,),
                                       prime=inp.prime)
                 for field in MODULAR_FIELDS}
        report = cl.verify_structure(built["modular"], ctx.ralg, built["modular-complex"])
        for field, state in built.items():
            state.save(ctx.paths[field])
        ctx.state_bytes = sum(os.path.getsize(p) for p in ctx.paths.values())
        loaded = {field: cl.load_state(path) for field, path in ctx.paths.items()}
        residues = {field: st.supertrace_residues() for field, st in loaded.items()}
        answers = [_timed_call(latencies, loaded[field].contains_modular, rop)
                   for field, rop, _ in ctx.queries]
        return built, report, loaded, residues, answers

    def check(self, ctx, out, gate):
        built, report, loaded, residues, answers = out
        for field, want in HW0_REFERENCE.items():
            _expect_state(gate, f"{field} hw0", built[field], want)
        gate.check(f"verify_structure: {report['failures']}", report["pass"])
        for field, state in loaded.items():
            saved = built[field]
            gate.check(f"loaded {field} state differs from the saved one",
                       state.report() == saved.report()
                       and state.pivots == saved.pivots
                       and state.parities == saved.parities)
            gate.expect(f"{field} supertrace residue", residues[field], 0.0)
        for i, ((field, _, member), got) in enumerate(zip(ctx.queries, answers)):
            gate.expect(f"query {i} on {field}", got, member)


class ExactSuites(Workload):
    """Fraction-backed Q(i) work: the exact suites, the restriction of the
    twelve generators and two small exact closures.  Its query latencies
    are the twelve ``generator(name)`` calls, one restriction each, in the
    seeded order, so that the median is taken over calls of one kind."""

    name = "exact-suites"
    min_passes = 3
    REFERENCE = {
        "results_sha": "da6e706193de1e69",
        "generators_sha": "9c1fc5c00851cd2f",
        "hw3": {"dim": 15, "block_dims": {3: 15}, "parity_dims": (15, 0),
                "pivot_hash": "c8ed13bb169e713f"},
        "even": {"dim": 15, "block_dims": {0: 15, 1: 0, 2: 0, 3: 0}, "parity_dims": (15, 0),
                 "pivot_hash": "fd2dcc1c795c5fbe"},
    }

    def setup(self, prog, inputs, workdir):
        prog.hwbases.all_bases()
        return SimpleNamespace(inputs=inputs)

    def timed(self, prog, ctx, latencies):
        cl, inp = prog.closure, ctx.inputs
        report = prog.suites.run_suites(EXACT_SUITES)
        ralg = cl.default_algebra()
        for name in inp.order:
            _timed_call(latencies, ralg.generator, name)
        hw3 = cl.lie_closure(inp.order, field="exact", blocks=(3,))
        even = cl.lie_closure(inp.even_order, field="exact")
        return report, ralg, hw3, even

    def check(self, ctx, out, gate):
        report, ralg, hw3, even = out
        results = report["results"]
        for name in EXACT_SUITES:
            gate.check(f"suite {name} fails", results.get(name, {}).get("pass") is True)
        gate.expect("suite results hash",
                    _sha256(json.dumps(results, sort_keys=True)), self.REFERENCE["results_sha"])
        gate.expect("restricted generators hash", generators_digest(ralg),
                    self.REFERENCE["generators_sha"])
        _expect_state(gate, "exact hw3", hw3, self.REFERENCE["hw3"])
        _expect_state(gate, "exact even", even, self.REFERENCE["even"])


WORKLOADS = {w.name: w for w in (ModularHw0(), ExactSuites())}

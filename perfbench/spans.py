"""Traced run: spans around the program's public calls, plus profiler
attribution of self time to modules and closure phases.

Spans are recorded from outside the program.  ``Tracer.install`` replaces
each public function by a wrapper in every wsdalg module that binds it,
so names copied by ``from ... import`` are covered too.  ``uninstall``
puts the originals back.  Each span holds (name, start, end, parent).
"""

from __future__ import annotations

import fractions
import functools
import os
import pstats
import sys
import time
from collections import defaultdict

# (module, function, span name); lie_closure is named by its field
SPAN_FUNCTIONS = (
    ("operators", "standard_generators", "operators.standard_generators"),
    ("operators", "clifford_relations_report", "operators.clifford_relations"),
    ("operators", "serre_check", "operators.serre_check"),
    ("reptheory", "isotypical_table", "reptheory.isotypical_table"),
    ("reptheory", "restrict_operator", "reptheory.restrict"),
    ("hwbases", "all_bases", "hwbases.all_bases"),
    ("hwbases", "basis_report", "hwbases.basis_report"),
    ("hwbases", "verify_pattern_tables", "hwbases.pattern_tables"),
    ("closure", "lie_closure", None),
    ("closure", "verify_structure", "closure.verify_structure"),
    ("closure", "load_state", "closure.load"),
)
SPAN_METHODS = (
    ("ClosureState", "save", "closure.save"),
    ("ClosureState", "supertrace_residues", "closure.supertrace_residues"),
    ("ClosureState", "contains_modular", "closure.contains"),
)
CLOSURE_SPANS = {"exact": "closure.exact", "modular": "closure.modular",
                 "modular-complex": "closure.complex"}
SUITE_NAMES = ("relations", "table1", "bases", "appendix", "structure")

# profiler-derived closure phases: (attribute path in closure, time kind);
# _bracket_rows is taken with its callees (its balancing step), the other
# four by self time, so the five do not overlap
PHASES = (
    ("bracket", "_bracket_rows", "cumulative"),
    ("reduce", "_HalfEngine.reduce_rows", "self"),
    ("balance", "_HalfEngine._balance", "self"),
    ("insert", "_HalfEngine.insert_batch", "self"),
    ("merge", "_HalfEngine.merge", "self"),
)
SELF_MODULES = ("scalars", "forms", "operators", "linalg", "reptheory", "hwbases", "closure")

# every per-layer metric, in output order, with its unit
PER_LAYER = (
    [(f"{name}_s", "s") for name in (
        "operators.standard_generators", "operators.clifford_relations",
        "operators.serre_check", "reptheory.isotypical_table", "reptheory.restrict")]
    + [("reptheory.restrict_calls", "count")]
    + [(f"hwbases.{name}_s", "s") for name in ("all_bases", "basis_report", "pattern_tables")]
    + [(f"suites.{name}_s", "s") for name in SUITE_NAMES]
    + [(f"closure.{name}_s", "s") for name in ("exact", "modular", "complex", "verify_structure")]
    + [("closure.brackets", "count"), ("closure.dim", "count"), ("closure.survival", "ratio")]
    + [("closure.load_s", "s"), ("closure.save_s", "s"), ("closure.state_bytes", "bytes"),
       ("closure.supertrace_residues_s", "s"), ("closure.contains_s", "s"),
       ("closure.contains_calls", "count")]
    + [(f"closure.phase.{name}_s", "s") for name, _, _ in PHASES]
    + [(f"{name}.self_s", "s") for name in SELF_MODULES + ("fractions",)]
    + [("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio")]
)
PROFILER_DERIVED = tuple(
    n for n, _ in PER_LAYER if n.startswith("closure.phase.") or n.endswith(".self_s")
)


def _program_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "wsdalg" or n.startswith("wsdalg."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.closures: list[tuple[int, int]] = []  # (dim, brackets) per lie_closure
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if span is None:  # lie_closure(generators, field, ...)
                field = kwargs.get("field", args[1] if len(args) > 1 else "modular")
                span = CLOSURE_SPANS.get(field, f"closure.{field}")
            idx = len(tracer.spans)
            tracer.spans.append([span, time.perf_counter(), None,
                                 tracer._stack[-1] if tracer._stack else None])
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.spans[idx][2] = time.perf_counter()
                tracer._stack.pop()
            if name is None:
                tracer.closures.append((out.dim, out.brackets))
            return out

        return wrapper

    def _replace(self, owner, attr, value):
        """Set owner.attr (or owner[attr] for a dict) and remember how to undo it."""
        if isinstance(owner, dict):
            orig = owner[attr]
            owner[attr] = value
            self._undo.append(lambda: owner.__setitem__(attr, orig))
        else:
            orig = getattr(owner, attr)
            setattr(owner, attr, value)
            self._undo.append(lambda: setattr(owner, attr, orig))

    def install(self, prog) -> None:
        modules = _program_modules()
        for mod, attr, span in SPAN_FUNCTIONS:
            orig = getattr(getattr(prog, mod), attr)
            wrapper = self._wrap(orig, span)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._replace(m, key, wrapper)
        for cls, meth, span in SPAN_METHODS:
            owner = getattr(prog.closure, cls)
            self._replace(owner, meth, self._wrap(vars(owner)[meth], span))
        registry = prog.suites._SUITES
        for name in SUITE_NAMES:
            self._replace(registry, name, self._wrap(registry[name], f"suites.{name}"))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def self_times(self) -> dict[str, float]:
        """Per span name: its duration minus the part its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out: dict[str, float] = defaultdict(float)
        for (name, _, _, _), t in zip(self.spans, own):
            out[name] += t
        return dict(out)

    def metrics(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, _ in self.spans:
            totals[f"{name}_s"] += end - start
            calls[name] += 1
        dim = sum(d for d, _ in self.closures)
        brackets = sum(b for _, b in self.closures)
        out = dict(totals)
        out.update({
            "reptheory.restrict_calls": calls["reptheory.restrict"],
            "closure.contains_calls": calls["closure.contains"],
            "closure.dim": dim,
            "closure.brackets": brackets,
            "closure.survival": dim / brackets if brackets else 0.0,
        })
        return out


def _code_key(obj):
    code = obj.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _lookup(root, path: str):
    for part in path.split("."):
        root = getattr(root, part, None)
    return root


def profile_metrics(profiler, prog) -> dict[str, float]:
    """Closure phase times and per-module self times from a cProfile run.
    A phase whose function the program no longer has reads 0."""
    stats = pstats.Stats(profiler).stats  # key -> (cc, nc, tottime, cumtime, callers)
    out: dict[str, float] = {}
    for phase, path, kind in PHASES:
        fn = _lookup(prog.closure, path)
        row = stats.get(_code_key(fn)) if fn is not None else None
        column = 3 if kind == "cumulative" else 2  # cumtime or tottime
        out[f"closure.phase.{phase}_s"] = 0.0 if row is None else row[column]
    files = {os.path.realpath(getattr(prog, m).__file__): m for m in SELF_MODULES}
    files[os.path.realpath(fractions.__file__)] = "fractions"
    self_s = dict.fromkeys(files.values(), 0.0)
    for (filename, _, _), (_, _, tottime, _, _) in stats.items():
        owner = files.get(os.path.realpath(filename)) if filename.endswith(".py") else None
        if owner:
            self_s[owner] += tottime
    out.update({f"{m}.self_s": v for m, v in self_s.items()})
    return out

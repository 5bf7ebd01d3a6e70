"""Named verification suites and their orchestration.

Each suite returns a JSON-serializable dict with at least a ``pass`` key;
``run_suites`` executes a selection in dependency order and collects a
report whose ``results`` member is stable across runs (timings and other
volatile data live in ``meta``).
"""

from __future__ import annotations

import json
import os
import resource
import time
from typing import Callable

from .scalars import DEFAULT_PRIMES, validate_primes
from . import operators as ops
from .reptheory import isotypical_table, HW_DIMS, HW_HALF_DIMS
from . import hwbases
from . import closure as cl

__all__ = ["SUITE_ORDER", "run_suites", "report_json", "default_primes_from_env"]


def default_primes_from_env() -> tuple[int, ...]:
    """Default modular primes, overridable via WSDALG_PRIMES="p1,p2"; raises
    ValueError unless the tokens are primes accepted by ``validate_primes``."""
    raw = os.environ.get("WSDALG_PRIMES")
    if not raw:
        return DEFAULT_PRIMES
    try:
        return validate_primes(int(tok) for tok in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ValueError(f"WSDALG_PRIMES={raw!r}: {exc}") from None


def _config_primes(config) -> tuple[int, ...]:
    """config["primes"] as accepted by ``validate_primes`` (ValueError
    naming a bad prime), or ``default_primes_from_env()`` without them."""
    primes = config.get("primes")
    return validate_primes(primes) if primes else default_primes_from_env()


def _suite_relations(config) -> dict:
    rep = ops.clifford_relations_report()
    serre = ops.serre_check()
    rep["serre"] = serre
    rep["pass"] = rep["pass"] and serre["pass"]
    return rep


def _suite_table1(config) -> dict:
    table = isotypical_table()
    hw_dims = []
    splits = []
    for k in range(4):
        b = hwbases.all_bases()[k]
        total, even, odd = b.dims()
        hw_dims.append(total)
        splits.append([even, odd])
    ok = (
        table.dimension_check()
        and tuple(hw_dims) == HW_DIMS
        and all(tuple(s) == (HW_HALF_DIMS[k],) * 2 for k, s in enumerate(splits))
    )
    return {
        "pass": bool(ok),
        "rows": [list(r) for r in table.rows()],
        "column_totals": [table.column_total(k) for k in range(4)],
        "hw_dims": hw_dims,
        "parity_splits": splits,
    }


def _suite_bases(config) -> dict:
    reports = [hwbases.basis_report(b) for b in hwbases.all_bases()]
    relation_zero = hwbases.relation_vector().is_zero()
    ok = all(r["pass"] for r in reports) and relation_zero
    return {
        "pass": bool(ok),
        "spaces": {f"hw{r['k']}": {"dims": list(r["dims"]), "pass": r["pass"],
                                   "failures": r["failures"]} for r in reports},
        "relation_is_zero": relation_zero,
    }


def _suite_appendix(config) -> dict:
    return hwbases.verify_pattern_tables()


def _suite_structure(config) -> dict:
    """Generator-level structural checks (cheap, exact)."""
    ralg = cl.default_algebra()
    failures = []
    for name, g in ralg.operators().items():
        if not ralg.pairing_identity[name]:
            failures.append(f"{name}: pairing preservation fails")
        if ops.supertrace(g):
            failures.append(f"{name}: nonzero supertrace")
        if ralg.generator_daggers[name].parity() is None:
            failures.append(f"dagger({name}): mixed parity")
    oracle = {n: cl.su_pair_dimension(n) for n in (1, 2)}
    formula_ok = all(oracle[n] == 4 * n * n - 1 for n in oracle)
    if not formula_ok:
        failures.append("pairing-preserving dimension formula mismatch at n=1,2")
    return {
        "pass": not failures,
        "failures": failures,
        "su_pair_dims": {str(n): v for n, v in oracle.items()},
        "formula_4nn_minus_1": formula_ok,
    }


def _suite_closure(config) -> dict:
    primes = _config_primes(config)
    blocks = config.get("blocks", (0, 1, 2, 3))
    field = config.get("field", "modular")
    progress = config.get("progress")
    ralg = cl.default_algebra()
    runs = []
    failures = []
    meta = {"wall_s": {}, "levels": {}, "phase_s": {}, "survival": {}}

    def run(key: str, **kwargs) -> cl.ClosureState:
        if progress and kwargs["field"] != "exact":  # an exact run has no levels
            kwargs["progress"] = lambda *a: progress(key, *a)
        st = cl.lie_closure(blocks=blocks, ralg=ralg, **kwargs)
        meta["wall_s"][key] = round(st.wall_s, 3)
        if st.field != "exact":
            meta["levels"][key] = st.levels
            meta["phase_s"][key] = {k: round(v, 3) for k, v in st.phases.items()}
        meta["survival"][key] = round(st.dim / st.brackets, 4) if st.brackets else None
        return st

    if field == "exact":
        st = run("exact", field="exact")
        runs.append(st.report())
        last = st
        complex_report = None
    else:
        last = None
        for p in primes:
            st = run(f"modular-{p}", field="modular", prime=p)
            runs.append(st.report())
            if last is not None and st.dim != last.dim:
                failures.append(f"dimension disagrees between primes: {st.dim} vs {last.dim}")
            last = st
        complex_state = run(f"complex-{primes[0]}", field="modular-complex", prime=primes[0])
        complex_report = complex_state.report()
    expected_full = tuple(blocks) == (0, 1, 2, 3)
    result = {
        "runs": runs,
        "complexified": complex_report if field != "exact" else None,
    }
    if expected_full and field != "exact":
        if last.dim != cl.EXPECTED_DIMENSION:
            failures.append(f"dimension {last.dim} != {cl.EXPECTED_DIMENSION}")
        bd = tuple(last.block_dims()[k] for k in range(4))
        if bd != cl.EXPECTED_BLOCK_DIMS:
            failures.append(f"block dims {bd} != {cl.EXPECTED_BLOCK_DIMS}")
        if complex_report is not None and complex_report["dim"] != cl.EXPECTED_DIMENSION:
            failures.append("complexified dimension mismatch")
        structure = cl.verify_structure(last, ralg, complex_state)
        result["structure"] = structure
        if not structure["pass"]:
            failures.extend(structure["failures"])
        result["bound_gap"] = cl.DIMENSION_BOUND - last.dim
    result["pass"] = not failures
    result["failures"] = failures
    meta["peak_rss_mib"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    result["_meta"] = meta
    return result


SUITE_ORDER = ("relations", "table1", "bases", "appendix", "structure", "closure")

_SUITES: dict[str, Callable[[dict], dict]] = {
    "relations": _suite_relations,
    "table1": _suite_table1,
    "bases": _suite_bases,
    "appendix": _suite_appendix,
    "structure": _suite_structure,
    "closure": _suite_closure,
}


def run_suites(names, config: dict | None = None) -> dict:
    """Run the named suites (or all of them, in dependency order); the
    primes are validated by ``_config_primes`` before any suite runs."""
    config = config or {}
    if names in ("all", ["all"], ("all",)):
        names = SUITE_ORDER
    elif isinstance(names, str):
        names = (names,)
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise KeyError(f"unknown suite(s): {', '.join(unknown)}")
    config = {**config, "primes": _config_primes(config)}
    ordered = [n for n in SUITE_ORDER if n in names]
    results = {}
    timings = {}
    extra_meta = {}
    for n in ordered:
        t0 = time.time()
        results[n] = _SUITES[n](config)
        timings[n] = round(time.time() - t0, 3)
        if "_meta" in results[n]:
            extra_meta[n] = results[n].pop("_meta")
    return {
        "schema": "wsdalg-report/1",
        "results": results,
        "pass": all(r.get("pass") for r in results.values()),
        "meta": {
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "wall_s": timings,
            "suites": extra_meta,
            "primes": list(config["primes"]),
        },
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"

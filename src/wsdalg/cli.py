"""Command-line entry point.

    wsdalg verify {relations|table1|bases|appendix|structure|closure|all} [options]
    wsdalg closure [--block hw0..hw3|all] [--field exact|modular] [options]
    wsdalg report [--out PATH] [options]

``--progress`` writes one line per modular closure level to stderr; it and
``--prime`` are usage errors with ``closure --field exact`` and with
``verify`` of a suite that runs no closure.
``--format csv`` is only defined for ``verify table1`` and ``verify all``.

Exit codes: 0 when every selected check passes, 1 on a failed check,
2 on usage errors.  Reports are written atomically; the ``results``
object is deterministic for a fixed configuration, volatile fields live
under ``meta``.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import suites
from .closure import _write_atomic
from .reptheory import isotypical_table
from .scalars import validate_primes

_BLOCK_CHOICES = {"hw0": (0,), "hw1": (1,), "hw2": (2,), "hw3": (3,), "all": (0, 1, 2, 3)}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", help="write the report to this path (atomic)")
    p.add_argument(
        "--prime",
        type=int,
        action="append",
        help="modular prime p = 1 (mod 4), p <= 2065121; repeatable (default: built-in pair)",
    )
    p.add_argument(
        "--progress",
        action="store_true",
        help="write one line per modular closure level to stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsdalg",
        description="exact verification suites for the rank-three structure algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run named verification suites")
    pv.add_argument(
        "suite",
        choices=suites.SUITE_ORDER + ("all",),
        help="suite to run ('all' runs every suite in dependency order)",
    )
    _add_common(pv)

    pc = sub.add_parser("closure", help="run the algebra closure")
    pc.add_argument("--block", choices=sorted(_BLOCK_CHOICES), default="all")
    pc.add_argument("--field", choices=("exact", "modular"), default="modular")
    pc.set_defaults(suite="closure")
    _add_common(pc)
    for p in (pv, pc):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text",
                       help="csv is only defined for 'verify table1' and 'verify all'")

    pr = sub.add_parser("report", help="run every suite and emit the full JSON report")
    pr.set_defaults(suite="all", format="json")
    _add_common(pr)
    return parser


def _progress_line(run: str, level: int, dim: int, brackets: int, frontier: int) -> None:
    print(f"closure {run}: level {level} dim {dim} brackets {brackets} frontier {frontier}",
          file=sys.stderr, flush=True)


def _emit(text: str, out: str | None):
    if out:
        _write_atomic(out, "w", lambda fh: fh.write(text))
    else:
        sys.stdout.write(text)


def _format_text(report: dict) -> str:
    lines = []
    for name, res in report["results"].items():
        status = "PASS" if res.get("pass") else "FAIL"
        lines.append(f"[{status}] {name}")
        for f in res.get("failures", []) or []:
            lines.append(f"    failure: {f}")
        if name == "table1" and res.get("pass") is False:
            lines.append(f"    rows: {res['rows']}")
        if name == "appendix":
            for tname, tr in res.get("tables", {}).items():
                lines.append(
                    f"    table {tname}: "
                    f"{'ok' if tr['pass'] else 'MISMATCH'} "
                    f"({tr['marked_cells']} marked, {tr['unmarked_cells']} blank)"
                )
                for mm in tr["mismatches"]:
                    lines.append(f"        {mm}")
        if name == "closure":
            for run in res.get("runs", []):
                lines.append(
                    f"    field={run['field']} prime={run['prime']} dim={run['dim']} "
                    f"blocks={run['block_dims']}"
                )
            if res.get("complexified"):
                c = res["complexified"]
                lines.append(
                    f"    complexified: dim={c['dim']} (real dimension {2 * c['dim']})"
                )
            if "bound_gap" in res:
                lines.append(f"    gap to invariant bound: {res['bound_gap']}")
    lines.append("overall: " + ("PASS" if report["pass"] else "FAIL"))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a run with no modular closure has no prime and no levels
    where = ("--field exact" if args.command == "closure" and args.field == "exact"
             else f"verify {args.suite}" if args.suite not in ("closure", "all") else None)
    for flag, given in (("--prime", args.prime), ("--progress", args.progress)):
        if where and given:
            parser.error(f"{flag} does not apply to {where}")
    if args.format == "csv" and args.suite not in ("table1", "all"):
        parser.error("csv output is only defined for the table1 suite")
    try:
        # default_primes_from_env validates WSDALG_PRIMES itself
        primes = validate_primes(args.prime) if args.prime else suites.default_primes_from_env()
    except ValueError as exc:
        parser.error(str(exc))
    if args.out:
        if os.path.isdir(args.out):
            parser.error(f"--out {args.out} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            parser.error(f"--out {args.out}: its directory does not exist")
    config = {"primes": primes}
    if args.progress:
        config["progress"] = _progress_line

    if args.command == "closure":
        config["blocks"] = _BLOCK_CHOICES[args.block]
        config["field"] = args.field
    report = suites.run_suites(args.suite, config)

    if args.format == "json":
        text = suites.report_json(report)
    elif args.format == "csv":
        text = isotypical_table().as_csv()
    else:
        text = _format_text(report)
    _emit(text, args.out)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

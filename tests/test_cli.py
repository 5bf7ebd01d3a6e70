"""Command-line interface: suites, formats, exit codes, failure paths."""

import json
import re

import pytest

from wsdalg import cli, suites
from wsdalg import operators as ops
from opcolumns import columns


def test_verify_relations_text(capsys):
    rc = cli.main(["verify", "relations"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] relations" in out
    assert "overall: PASS" in out


def test_verify_table1_json(capsys):
    rc = cli.main(["verify", "table1", "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "wsdalg-report/1"
    res = report["results"]["table1"]
    assert res["pass"] is True
    assert res["rows"][3] == [10, 9, 8, 1]
    assert res["hw_dims"] == [40, 72, 40, 8]
    assert res["parity_splits"] == [[20, 20], [36, 36], [20, 20], [4, 4]]


def test_verify_table1_csv(capsys):
    rc = cli.main(["verify", "table1", "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "degree,rho0,rho1,rho2,rho3"
    assert out.splitlines()[4] == "3,10,9,8,1"


def test_verify_appendix(capsys):
    rc = cli.main(["verify", "appendix"])
    assert rc == 0
    assert "table hw0: ok" in capsys.readouterr().out


def test_closure_hw3_exact(capsys):
    rc = cli.main(["closure", "--block", "hw3", "--field", "exact", "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    run = report["results"]["closure"]["runs"][0]
    assert run["dim"] == 15
    assert run["field"] == "exact"


def test_report_written_atomically(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(["verify", "bases", "--format", "json", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["results"]["bases"]["pass"] is True
    assert report["results"]["bases"]["relation_is_zero"] is True
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".wsdalg-")]
    assert not leftovers


def test_results_object_stable(tmp_path):
    a = suites.run_suites(["table1"])
    b = suites.run_suites(["table1"])
    assert a["results"] == b["results"]  # meta may differ, results may not


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def _assert_usage_error(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0]


# 7 and 3 are 3 (mod 4), 21 is not prime, and 1000000009 is a prime
# 1 (mod 4) too large for exact float64 products
@pytest.mark.parametrize("prime", ["7", "3", "21", "1000000009"])
def test_bad_prime_rejected(capsys, prime):
    _assert_usage_error(capsys, ["closure", "--block", "hw3", "--prime", prime], prime)


@pytest.mark.parametrize("flags", [["--prime", "13"], ["--progress"]], ids=["prime", "progress"])
def test_exact_field_rejects_modular_flags(capsys, flags):
    """The exact closure has no prime and no levels, so --prime and
    --progress are usage errors with --field exact."""
    _assert_usage_error(capsys, ["closure", "--block", "hw3", "--field", "exact"] + flags,
                        flags[0])


@pytest.mark.parametrize("flags", [["--prime", "13"], ["--progress"]], ids=["prime", "progress"])
@pytest.mark.parametrize("suite", ["relations", "table1", "bases", "appendix", "structure"])
def test_suites_without_closure_reject_modular_flags(monkeypatch, capsys, suite, flags):
    """These suites run no closure, so --prime and --progress would do
    nothing there: they are usage errors naming the flag and the suite,
    raised before any suite runs."""
    monkeypatch.setattr(suites, "run_suites", lambda *args: pytest.fail("a suite ran"))
    _assert_usage_error(capsys, ["verify", suite] + flags,
                        f"{flags[0]} does not apply to verify {suite}")


@pytest.mark.parametrize("argv", [["verify", "closure"], ["verify", "all"], ["closure"],
                                  ["report"]], ids=["verify-closure", "verify-all", "closure",
                                                    "report"])
def test_closure_runs_keep_modular_flags(monkeypatch, argv):
    """Every command that runs a modular closure passes --prime and
    --progress on to the suites."""
    seen = []
    monkeypatch.setattr(suites, "run_suites", lambda names, config: seen.append(config)
                        or {"pass": True, "results": {}, "meta": {}})
    assert cli.main(argv + ["--prime", "13", "--progress"]) == 0
    assert len(seen) == 1
    assert tuple(seen[0]["primes"]) == (13,) and seen[0]["progress"] is cli._progress_line


@pytest.mark.parametrize("value", ["21", "13,abc", ","])
def test_bad_primes_env_rejected(monkeypatch, capsys, value):
    monkeypatch.setenv("WSDALG_PRIMES", value)
    _assert_usage_error(capsys, ["closure", "--block", "hw3"], "WSDALG_PRIMES")


def test_repeated_prime_rejected(monkeypatch, capsys):
    """A repeated prime would run one closure twice under one report key,
    from --prime and from WSDALG_PRIMES alike."""
    monkeypatch.setattr(suites, "run_suites", lambda *args: pytest.fail("a suite ran"))
    argv = ["closure", "--block", "hw3"]
    _assert_usage_error(capsys, argv + ["--prime", "13", "--prime", "5", "--prime", "13"],
                        "prime 13 is repeated")
    monkeypatch.setenv("WSDALG_PRIMES", "13,13")
    _assert_usage_error(capsys, argv, "WSDALG_PRIMES='13,13': prime 13 is repeated")


# rejected before any suite runs: a path whose directory does not exist,
# and a path that is itself a directory
@pytest.mark.parametrize("out", ["missing/report.txt", ""], ids=["no-dir", "is-dir"])
def test_bad_out_rejected(monkeypatch, capsys, tmp_path, out):
    monkeypatch.setattr(suites, "run_suites", lambda *args: pytest.fail("a suite ran"))
    path = str(tmp_path / out)
    _assert_usage_error(capsys, ["verify", "table1", "--out", path], "--out")
    assert list(tmp_path.iterdir()) == []


# rejected before any suite runs: csv for a selection without table1, and
# --format on report, which always writes JSON
@pytest.mark.parametrize("argv,named", [
    (["verify", "relations", "--format", "csv"], "csv"),
    (["closure", "--block", "hw3", "--format", "csv"], "csv"),
    (["report", "--format", "text"], "--format"),
], ids=["verify-relations-csv", "closure-csv", "report-format"])
def test_bad_format_rejected(monkeypatch, capsys, argv, named):
    monkeypatch.setattr(suites, "run_suites", lambda *args: pytest.fail("a suite ran"))
    _assert_usage_error(capsys, argv, named)


def test_corrupted_operator_fails_relations(monkeypatch, capsys):
    """Damaging one creation operator must fail the relations suite with
    the offending identity named, and exit with status 1."""
    real_build_E = ops.build_E

    def corrupted_E(i, j):
        op = real_build_E(i, j)
        if (i, j) == (1, 0):
            cols = columns(op)
            col = cols.setdefault(0, {})
            col[1] = col.get(1, ops.ZERO) + ops.ONE  # spurious entry
            return ops.Operator(cols)
        return op

    monkeypatch.setattr(ops, "build_E", corrupted_E)
    rc = cli.main(["verify", "relations"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] relations" in out
    assert "E(1, 0)" in out


def test_primes_env_override(monkeypatch):
    monkeypatch.setenv("WSDALG_PRIMES", "13,5")
    assert suites.default_primes_from_env() == (13, 5)
    monkeypatch.setenv("WSDALG_PRIMES", "7")
    with pytest.raises(ValueError):
        suites.default_primes_from_env()


@pytest.mark.parametrize("primes, message", [((13, 13), "prime 13 is repeated"),
                                             ((13, 15), "15 is not prime")])
def test_run_suites_validates_primes(monkeypatch, primes, message):
    """A repeated prime or a non-prime in the config is refused, naming
    the prime, before any closure runs."""
    def no_closure(*args, **kwargs):
        raise AssertionError("a closure ran")

    monkeypatch.setattr(suites.cl, "lie_closure", no_closure)
    with pytest.raises(ValueError, match=message):
        suites.run_suites("closure", {"primes": primes, "blocks": (3,)})


def test_suite_registry_complete():
    assert suites.SUITE_ORDER == (
        "relations", "table1", "bases", "appendix", "structure", "closure",
    )
    with pytest.raises(KeyError):
        suites.run_suites(["unknown-suite"])


def test_progress_lines(capsys):
    """--progress adds one stderr line per closure level and changes
    neither stdout nor the results."""
    argv = ["closure", "--block", "hw3"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr()
    assert cli.main(argv + ["--progress"]) == 0
    traced = capsys.readouterr()
    assert traced.out == plain.out and plain.err == ""
    assert traced.err.splitlines()

    reports = []
    for extra in ([], ["--progress"]):
        assert cli.main(argv + ["--format", "json"] + extra) == 0
        captured = capsys.readouterr()  # the last one carries the progress lines
        reports.append(json.loads(captured.out))
    a, b = reports
    assert json.dumps(a["results"], sort_keys=True) == json.dumps(b["results"], sort_keys=True)

    runs: dict[str, list] = {}
    for line in captured.err.splitlines():
        m = re.fullmatch(r"closure (\S+): level (\d+) dim (\d+) brackets (\d+) frontier (\d+)",
                         line)
        assert m, line
        runs.setdefault(m[1], []).append(tuple(int(x) for x in m.groups()[1:]))
    meta = b["meta"]["suites"]["closure"]
    assert {k: len(v) for k, v in runs.items()} == meta["levels"]
    assert set(runs) == {"modular-2065121", "modular-2065117", "complex-2065121"}
    for lines in runs.values():
        assert [lv for lv, *_ in lines] == list(range(1, len(lines) + 1))
        dims = [dim for _, dim, _, _ in lines]
        assert dims == sorted(dims)
        assert lines[-1][3] == 0
    closure = b["results"]["closure"]
    by_key = {f"modular-{r['prime']}": r for r in closure["runs"]}
    by_key[f"complex-{closure['complexified']['prime']}"] = closure["complexified"]
    assert meta["survival"] == {k: round(r["dim"] / r["brackets"], 4) for k, r in by_key.items()}
    assert meta["peak_rss_mib"] > 0

"""End-to-end runs of the command line adapter, in process plus real
subprocesses for the console script and for ``python -m peaklab.cli``."""

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peaklab import cli, limits
from peaklab.cli import main
from peaklab.groupalgebra import (
    CLASS_FAMILIES,
    STRUCTURE_FAMILIES,
    all_theorem_ids,
    idempotent_powers,
)
from peaklab.orderpolys import ORDER_POLY_KINDS
from peaklab.qsym import _FLAVORS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out else None
    return code, payload, out.err


def test_stats_example(capsys):
    code, payload, _ = run(capsys, "stats", "[2,1,4,3,5]")
    assert code == 0
    assert payload["peak_interior"] == {"set": [3], "count": 1}
    assert payload["peak_left"] == {"set": [1, 3], "count": 2}
    assert payload["descent"] == {"set": [1, 3], "count": 2}
    assert payload["signed"] is False


def test_stats_signed(capsys):
    code, payload, _ = run(capsys, "stats", "[-2,4,-5,3,1]", "--signed")
    assert code == 0
    assert payload["peak"]["set"] == [2, 4]
    assert payload["sign"]["count"] == 1  # sign of pi(1)
    assert set(payload) >= {"descent", "cyclic_descent", "peak", "sign"}


def test_order_poly(capsys):
    code, payload, _ = run(capsys, "order-poly", "[1,2]", "--kind", "A_ordinary")
    assert code == 0
    assert payload["poly"] == ["0", "1/2", "1/2"]
    code, payload, _ = run(
        capsys, "order-poly", "[1,3,2]", "--kind", "enriched_interior", "--gf"
    )
    assert code == 0
    assert "gf" in payload and set(payload["gf"]) == {"num", "den"}


def test_idempotents_power_alignment(capsys):
    code, payload, _ = run(capsys, "idempotents", "--family", "rho", "-n", "4")
    assert code == 0
    assert payload["group"] == "S"
    assert [e["power"] for e in payload["idempotents"]] == idempotent_powers(4, "rho")
    first = payload["idempotents"][0]["element"]
    assert first["n"] == 4 and first["terms"]
    perms = [t["perm"] for t in first["terms"]]
    assert perms == sorted(perms)


def test_verify_pass(capsys):
    code, payload, _ = run(capsys, "verify", "--theorem", "ges", "-n", "3")
    assert code == 0
    assert payload["failed"] == 0 and payload["checked"] == 1
    assert payload["results"][0]["ok"] is True


def test_verify_negative_exits_one(capsys):
    code, payload, _ = run(capsys, "verify", "--theorem", "right_peak_num_closure", "-n", "3")
    assert code == 1
    res = payload["results"][0]
    assert res["ok"] is False and res["expected_ok"] is False
    assert res["counterexample"] is not None


def test_verify_counterexample_prints_as_an_array(monkeypatch, capsys):
    from peaklab import qsym

    monkeypatch.setattr(qsym, "fibonacci", lambda k: 0)
    code, payload, _ = run(capsys, "verify", "--theorem", "fib_rank_interior", "-n", "4")
    assert code == 1
    assert payload["results"][0]["counterexample"] == ["interior", "3", "fibonacci 0"]


def test_verify_all(capsys):
    code, payload, _ = run(capsys, "verify", "--all", "-n", "2")
    assert code == 0
    assert payload["checked"] == len(all_theorem_ids()) == 44
    assert payload["failed"] == 0


def test_exit_codes(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "ges", "-n", "9")
    assert code == 3 and "resource guard" in err
    code, _, err = run(capsys, "verify", "--theorem", "unreal", "-n", "3")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "stats", "[2,2]")
    assert code == 2
    code, _, err = run(capsys, "stats", "not json")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["stats", "[1,2]", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_has_no_sample_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "ges", "-n", "3", "--sample", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sample 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("peak-table", "-n", "0"),
    ("peak-table", "-n", "-2"),
    ("verify", "--theorem", "bpeeul1", "-n", "0"),
])
def test_nonpositive_n_exits_two(capsys, argv):
    code, payload, err = run(capsys, *argv)
    assert code == 2 and payload is None
    assert "need n >= 1" in err


def test_negative_n_structure_constants_exits_two(capsys):
    code, payload, err = run(capsys, "structure-constants", "--family", "descent_set", "-n", "-1")
    assert code == 2 and payload is None
    assert "need n >= 0" in err


def test_verify_all_reports_each_refusal(capsys):
    # the peak-polynomial checks refuse n = 0; the others still run
    code, payload, err = run(capsys, "verify", "--all", "-n", "0")
    assert code == 2 and err == ""
    results = {r["theorem"]: r for r in payload["results"]}
    assert sorted(results) == all_theorem_ids() and payload["checked"] == 44
    assert results["bpeeul1"] == {"theorem": "bpeeul1", "n": 0, "ok": None,
                                  "refused": "need n >= 1"}
    assert results["gf_B"]["ok"] is True
    assert payload["failed"] == 0


@pytest.mark.parametrize("ids,n,code", [
    (["ges"], 3, 0),
    (["ges", "gf_B"], 0, 2),
    (["chow", "ges"], 3, 3),
    (["chow", "nope"], 3, 3),
    (["chow", "nope", "phi_times_rho"], 3, 1),
])
def test_verify_all_exit_rule(capsys, monkeypatch, ids, n, code):
    # 1 if a check that ran failed, else 3 for a guard, else 2 for an input
    monkeypatch.setattr(cli, "all_theorem_ids", lambda: ids)
    monkeypatch.setitem(limits.VERIFY_MAX, "B", 2)
    got, payload, err = run(capsys, "verify", "--all", "-n", str(n))
    assert got == code and err == ""
    assert [r["theorem"] for r in payload["results"]] == ids


def test_invalid_max_n_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("PEAKLAB_MAX_N", "x")
    code, payload, err = run(capsys, "verify", "--theorem", "ges", "-n", "3")
    assert code == 2 and payload is None
    assert "PEAKLAB_MAX_N must be an integer, not 'x'" in err


def test_refusal_names_both_overrides(capsys, monkeypatch):
    with pytest.raises(limits.ResourceLimitError) as exc:
        limits.check_limit("S-group table", 9, 6)
    overrides = "pass force=True in Python or --force on the command line"
    assert overrides in str(exc.value)
    code, _, err = run(capsys, "verify", "--theorem", "ges", "-n", "9")
    assert code == 3 and overrides in err
    monkeypatch.setattr(cli, "all_theorem_ids", lambda: ["gf_B"])
    code, payload, _ = run(capsys, "verify", "--all", "-n", "6")
    assert code == 3 and overrides in payload["results"][0]["refused"]


def test_guard_override_with_force(capsys):
    # n=7 is past the default S-group sweep guard; --force accepts the cost
    code, payload, _ = run(
        capsys, "verify", "--theorem", "fib_rank_interior", "-n", "7", "--force"
    )
    assert code == 0 and payload["failed"] == 0


def test_qsym_expand(capsys):
    code, payload, _ = run(
        capsys, "qsym", "expand", "[-1]", "--flavor", "B", "--basis", "fundamental"
    )
    assert code == 0
    assert payload["basis"] == "L"
    assert payload["terms"] == [{"set": [0], "coeff": "2"}]


def test_structure_constants_failure_reported(capsys):
    code, payload, _ = run(capsys, "structure-constants", "--family", "right_peak_set", "-n", "3")
    assert code == 0  # computing the tensor succeeded; the failure is data
    assert payload["well_defined"] is False
    v = payload["violation"]
    assert set(v) == {"pair", "class", "elements", "counts"}
    assert v["counts"][0] != v["counts"][1]


def test_peak_table(capsys):
    code, payload, _ = run(capsys, "peak-table", "-n", "2")
    assert code == 0
    assert all(payload["identities"].values())
    assert payload["polynomials"]["A_eulerian"] == ["0", "1", "1"]
    assert len(payload["weighted_by_negatives"]) == 3


def test_closure(capsys):
    code, payload, _ = run(capsys, "closure", "--family", "right_peak_num", "-n", "3")
    assert code == 0
    assert payload["closed"] is False
    assert (payload["span_rank"], payload["closure_rank"]) == (2, 3)
    assert len(payload["closure_basis"]) == 3


def test_byte_determinism(capsys):
    argv = ["verify", "--all", "-n", "2"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second and first


def test_console_script_subprocess():
    exe = shutil.which("peaklab")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "stats", "[2,1,4,3,5]"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["peak_interior"]["set"] == [3]


def _fresh_process(*argv, env_extra=None, stdout=subprocess.PIPE):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **(env_extra or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PEAKLAB_MAX_N", None)
    return subprocess.run([sys.executable, "-m", "peaklab.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120, env=env)


def test_module_subprocess_exit_codes():
    proc = _fresh_process("stats", "[2,1,4,3,5]")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["peak_interior"]["set"] == [3]
    proc = _fresh_process("peak-table", "-n", "0")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    proc = _fresh_process("verify", "--theorem", "ges", "-n", "7")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr


_DEEP = "[" * 1000 + "]" * 1000


def test_deeply_nested_permutation_text_exits_2(capsys):
    # json.loads gives up on deep nesting with a RecursionError, not a
    # decode error; every subcommand that reads a permutation reports it
    for argv in (["stats", _DEEP], ["order-poly", _DEEP, "--kind", "A_ordinary"],
                 ["qsym", "expand", _DEEP, "--flavor", "interior"]):
        code, payload, err = run(capsys, *argv)
        assert (code, payload) == (2, None), argv
        assert err.startswith("error: cannot parse permutation") and err.count("\n") == 1
    proc = _fresh_process("stats", _DEEP)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("perm", ["[1.5,2]", "[true,1]", '["1"]', "[[1]]", "[null]", "[1e400]"])
@pytest.mark.parametrize("command", [["stats"], ["stats", "--signed"],
                                     ["order-poly", "--kind", "A_ordinary"],
                                     ["order-poly", "--kind", "A_ordinary", "--gf"],
                                     ["qsym", "expand"]])
def test_non_integer_permutation_entries_exit_2(capsys, command, perm):
    # the library refuses the entries; the CLI only parses the JSON text
    argv = [*command, perm]
    if command[0] == "qsym":
        argv += ["--flavor", "interior"]
    code, payload, err = run(capsys, *argv)
    assert (code, payload) == (2, None)
    assert err.startswith("error: permutation entries must be integers") and err.count("\n") == 1


def test_closed_stdout_keeps_the_exit_code():
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _fresh_process("stats", "[2,1,3]", stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 0  # the request's own code, not a crash
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


# --- one parser per process ----------------------------------------------------


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = 0
    build = cli._build_parser

    def counting():
        nonlocal built
        built += 1
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting)
    monkeypatch.setattr(limits, "_CACHES", {})
    for _ in range(3):
        assert main(["stats", "[2,1,4,3,5]"]) == 0
        assert main(["peak-table", "-n", "2"]) == 0
        assert main(["verify", "--theorem", "ges", "-n", "2"]) == 0
        assert main(["closure", "--family", "descent_num", "-n", "-1"]) == 0
    capsys.readouterr()
    assert built == 1


def test_parser_is_not_built_at_import():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import peaklab.cli, peaklab.limits as l; print(sorted(l._CACHES))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_usage_error_and_help_leave_the_parser_as_new(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("PEAKLAB_MAX_N", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["peak-table", "-n", "x"])
    assert exc.value.code == 2
    usage = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    valid = ["verify", "--theorem", "peeul2", "-n", "3"]
    assert main(valid) == 0
    out = capsys.readouterr().out
    for argv, code, stdout, stderr in (
        (["peak-table", "-n", "x"], 2, "", usage.err),
        (["verify", "--help"], 0, help_text, ""),
        (valid, 0, out, ""),
    ):
        proc = _fresh_process(*argv, env_extra={"COLUMNS": "80"})
        assert (proc.returncode, proc.stdout) == (code, stdout), argv
        assert proc.stderr == stderr


@pytest.mark.parametrize("first, second, checked", [
    (["--all"], ["--theorem", "ges"], 1),
    (["--theorem", "ges"], ["--all"], len(all_theorem_ids())),
])
def test_verify_requests_carry_no_state(capsys, first, second, checked):
    main(["verify", *first, "-n", "2"])
    capsys.readouterr()
    code, payload, _ = run(capsys, "verify", *second, "-n", "2")
    assert code == 0 and payload["checked"] == checked
    if checked == 1:
        assert [r["theorem"] for r in payload["results"]] == ["ges"]


# --- argv fuzzing ------------------------------------------------------------------
#
# Names come from the registries, with one unknown name mixed in; sizes stay
# at n <= 3 and permutations at 4 entries or fewer, and --force is never
# drawn, so every request is small or refused by a guard.  Malformed
# permutation texts include brackets nested up to 3000 deep and one number
# too long to parse.


def _named(names):
    return st.sampled_from(sorted(names) + ["nope"])


def _argv(*parts):
    """One argv from strategies that each draw a list of arguments."""
    return st.tuples(*parts).map(lambda drawn: [arg for part in drawn for arg in part])


def _opt(flag, values):
    return values.map(lambda v: [flag, v])


def _signs(perm):
    return st.tuples(*(st.sampled_from((v, -v)) for v in perm)).map(list)


def _switch(flag):
    return st.sampled_from([[], [flag]])


_N = _opt("-n", st.integers(-2, 3).map(str))
_UNSIGNED = st.integers(0, 4).flatmap(lambda k: st.permutations(range(1, k + 1)))
_DEPTH = st.integers(0, 3000)
_PERM = st.one_of(
    _UNSIGNED.map(json.dumps),
    _UNSIGNED.flatmap(_signs).map(json.dumps),
    st.lists(st.integers(-5, 5), max_size=4).map(json.dumps),
    st.text("[]-,0123456789x. ", max_size=8),
    _DEPTH.map(lambda d: "[" * d + "]" * d),
    st.tuples(_DEPTH, _DEPTH).map(lambda d: "[" * d[0] + "]" * d[1]),
    st.just("9" * 4301),  # past the int parser's 4300-digit limit
).map(lambda text: [text])
_FUZZ = {
    "stats": _argv(_PERM, _switch("--signed")),
    "order-poly": _argv(_PERM, _opt("--kind", _named(ORDER_POLY_KINDS)), _switch("--gf")),
    "idempotents": _argv(_opt("--family", _named(STRUCTURE_FAMILIES)), _N),
    "verify": _argv(st.one_of(_opt("--theorem", _named(all_theorem_ids())),
                              st.just(["--all"])), _N),
    "structure-constants": _argv(_opt("--family", _named(CLASS_FAMILIES)), _N),
    "qsym": _argv(st.just(["expand"]), _PERM, _opt("--flavor", _named(_FLAVORS)),
                  _opt("--basis", st.sampled_from(["monomial", "fundamental"]))),
    "peak-table": _N,
    "closure": _argv(_opt("--family", _named(CLASS_FAMILIES)), _N),
}


def test_fuzz_covers_every_subcommand():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(_FUZZ)


@given(st.sampled_from(sorted(_FUZZ)).flatmap(
    lambda command: _FUZZ[command].map(lambda args: [command, *args])))
@settings(max_examples=150, deadline=None)
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code in (0, 1):
        json.loads(out.getvalue())

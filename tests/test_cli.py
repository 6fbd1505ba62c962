"""Command-line interface: frozen output strings, exit codes, JSON schema,
and determinism."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlvir import cli, selftest, vertex
from hlvir.exactnum import RhoSpec
from hlvir.vertex import clear_caches, hl_q, set_cache_enabled
from hlvir.virasoro import IDENTITIES

# verify outputs of every CLI case name, recorded from the hand-written
# handlers that the identity table replaced:
# {case name: {"args": ..., "text": stdout, "json": stdout}}
GOLDEN_VERIFY = json.loads(
    (pathlib.Path(__file__).with_name("verify_golden.json")).read_text("utf-8"))

# q / straighten / coeff / mulp / apply outputs at each kind of rho, recorded
# before TPoly and QCombination moved onto one sparse core:
# {name: {"args": ..., "text": stdout, "json": stdout}}
GOLDEN_QUERIES = json.loads(
    (pathlib.Path(__file__).with_name("cli_golden.json")).read_text("utf-8"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- frozen text outputs

def test_q_at_second_root(capsys):
    code, out, _ = run_cli(capsys, "q", "--rho", "xi:2", "--lambda", "2")
    assert code == 0 and out == "2*t1^2\n"


def test_q_at_zero(capsys):
    code, out, _ = run_cli(capsys, "q", "--rho", "0", "--lambda", "1,1")
    assert code == 0 and out == "1/2*t1^2 - 1*t2\n"


def test_q_negative_tail_is_zero(capsys):
    code, out, _ = run_cli(capsys, "q", "--rho", "generic", "--lambda", "2,-1")
    assert code == 0 and out == "0\n"


def test_q_empty_label(capsys):
    code, out, _ = run_cli(capsys, "q", "--rho", "0", "--lambda", "")
    assert code == 0 and out == "1\n"


def test_q_long_weight_zero_label(capsys):
    lam = ",".join(["-1,1"] * 1500)
    try:
        code, out, _ = run_cli(capsys, "q", "--rho", "0", f"--lambda={lam}")
    finally:
        clear_caches()
    assert code == 0 and out == "1\n"


def test_straighten_long_weight_zero_label(capsys):
    lam = ",".join(["-1,1"] * 200)
    try:
        code, out, _ = run_cli(capsys, "straighten", "--rho", "0",
                               f"--lambda={lam}")
    finally:
        clear_caches()
    assert code == 0 and out == "1*Q[]\n"


def test_coeff_output(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--rho", "xi:2", "--mu", "2,1")
    assert code == 0 and out == "-1/2\n"


def test_straighten_output(capsys):
    code, out, _ = run_cli(capsys, "straighten", "--rho", "generic",
                           "--lambda", "1,2")
    assert code == 0 and out == "(ρ)*Q[2,1]\n"


def test_apply_output(capsys):
    code, out, _ = run_cli(capsys, "apply", "--op", "L:n=2,m=-1",
                           "--rho", "xi:2", "--lambda", "0")
    assert code == 0 and out == "1/2*t1^2\n"


def test_mulp_output(capsys):
    code, out, _ = run_cli(capsys, "mulp", "--rho", "0", "--lambda", "2",
                           "--r", "2")
    assert code == 0 and out == "1*Q[4] + 1*Q[2,2] - 1*Q[2,1,1]\n"


def test_verify_anchor(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "T1.2", "--n", "2",
                           "--m", "1", "--lambda", "0")
    assert code == 0
    assert out == "equal\nlhs: 1/2*t1^2\nrhs: 1/2*t1^2\n"


def test_verify_bracket(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "bracket", "--n", "3",
                           "--i", "1", "--j=-1", "--degree", "6")
    assert code == 0 and out.startswith("equal\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY))
def test_verify_golden(capsys, name, fmt):
    entry = GOLDEN_VERIFY[name]
    code, out, _ = run_cli(capsys, "verify", "--case", name,
                           *entry["args"].split(), "--format", fmt)
    assert code == 0 and out == entry[fmt]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN_QUERIES))
def test_query_golden(capsys, name, fmt):
    entry = GOLDEN_QUERIES[name]
    code, out, _ = run_cli(capsys, *entry["args"].split(), "--format", fmt)
    assert code == 0 and out == entry[fmt]


@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY))
def test_verify_refuses_a_parameter_its_case_does_not_read(capsys, name):
    """Each golden call plus one valid option its row does not read: no row
    reads both rho and n."""
    row = next(row for row in IDENTITIES if row.name == name)
    extra = "n" if "rho" in row.fields else "rho"
    code, out, err = run_cli(capsys, "verify", "--case", name,
                             *GOLDEN_VERIFY[name]["args"].split(), f"--{extra}", "2")
    assert (code, out) == (2, "")
    assert err == f"error: case {row.id} does not take parameter {extra!r}\n"


def test_verify_refuses_an_empty_rho(capsys):
    for case in (["T1.1", "--n", "2", "--m", "1", "--lambda", "1"],
                 ["mult", "--r", "1", "--lambda", "1"]):
        code, out, err = run_cli(capsys, "verify", "--case", *case, "--rho=")
        assert (code, out) == (2, "") and err.startswith("error: ")


def test_case_names_come_from_the_identity_table():
    assert cli._CASE_NAMES == {row.name: row.id for row in IDENTITIES}
    assert set(GOLDEN_VERIFY) == set(cli._CASE_NAMES)


# -- exit codes

def test_usage_error_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "q", "--rho", "xi:1", "--lambda", "1")
    assert code == 2 and "error" in err


def test_singular_coefficient_is_exit_3(capsys):
    code, _, err = run_cli(capsys, "mulp", "--rho", "xi:2", "--lambda", "1",
                           "--r", "2")
    assert code == 3 and "pole" in err


@pytest.mark.parametrize("rho, mu", [("1", "2,1"), ("-1", "1,1")])
def test_pole_at_rational_rho_names_that_rho(capsys, rho, mu):
    code, out, err = run_cli(capsys, "coeff", "--rho", rho, "--mu", mu)
    assert code == 3 and not out
    assert err == f"error: c_[{mu.replace(',', ', ')}] has a pole at rho = {rho}\n"


def test_degenerate_pairing_is_exit_4(capsys):
    code, _, err = run_cli(capsys, "verify", "--case", "trPerpB", "--r", "2",
                           "--m", "1", "--rho", "xi:2", "--degree", "3")
    assert code == 4 and "adjoint" in err


def test_empty_sweep_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--case", "bracket", "--n", "2",
                             "--i", "1", "--j", "1", "--degree", "-3")
    assert code == 2 and out == "" and "degree >= 0" in err


@pytest.mark.parametrize("r, rho", [("0", "generic"), ("-1", "generic"),
                                    ("-1", "0")])
def test_deriv_needs_positive_r(capsys, r, rho):
    code, out, err = run_cli(capsys, "verify", "--case", "deriv", f"--r={r}",
                             "--lambda", "2,1", "--rho", rho)
    assert code == 2 and out == "" and "r >= 1" in err


def test_internal_error_is_exit_5(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_q", broken)
    code, out, err = run_cli(capsys, "q", "--rho", "0", "--lambda", "1")
    assert code == cli.EXIT_INTERNAL == 5
    assert out == "" and err == "error: internal: RuntimeError: boom\n"


def test_root_order_cap(capsys):
    code, _, err = run_cli(capsys, "q", "--rho", "xi:70", "--lambda", "1")
    assert code == 2 and "--max-xi-order" in err
    code, _, _ = run_cli(capsys, "q", "--rho", "xi:70", "--lambda", "1",
                         "--max-xi-order", "128")
    assert code == 0
    # every verify --n is a root order too
    code, _, err = run_cli(capsys, "verify", "--case", "T1.1", "--n", "70",
                           "--m", "0", "--lambda", "1")
    assert code == 2 and "--max-xi-order" in err
    code, _, _ = run_cli(capsys, "verify", "--case", "T1.1", "--n", "70",
                         "--m", "0", "--lambda", "1", "--max-xi-order", "128")
    assert code == 0
    # and so is an operator's n
    code, _, err = run_cli(capsys, "apply", "--op", "L:n=70,m=1", "--rho", "0",
                           "--lambda", "1")
    assert code == 2 and "--max-xi-order" in err
    code, out, _ = run_cli(capsys, "apply", "--op", "L:n=70,m=1", "--rho", "0",
                           "--lambda", "1", "--max-xi-order", "128")
    assert code == 0 and out == "0\n"


def test_zero_denominator_rho_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "q", "--rho", "1/0", "--lambda", "1")
    assert code == 2 and out == ""
    assert err == "error: rho '1/0' has a zero denominator\n"


@pytest.mark.parametrize("text", ["", "pi", "xi:", "xi:abc"])
def test_unreadable_rho_names_the_accepted_forms(capsys, text):
    want = (f"error: rho {text!r} is not 'generic', 'xi:<n>' or a rational"
            " such as 0, -1, 1/2\n")
    for argv in (["q", "--lambda", "1"], ["verify", "--case", "mult", "--r", "1",
                                            "--lambda", "1"]):
        assert run_cli(capsys, *argv, f"--rho={text}") == (2, "", want)


@pytest.mark.parametrize("rho", ["generic", "0", "1", "-1", "2", "xi:2", "xi:5"])
def test_coeff_of_the_empty_partition_is_one(capsys, rho):
    """c_() = 1 is stated outright: the formula's sign (-1)^(l-1) gives -1."""
    assert run_cli(capsys, "coeff", "--rho", rho, "--mu", "") == (0, "1\n", "")


def test_argparse_usage_exit():
    with pytest.raises(SystemExit) as exc:
        cli.main(["q", "--rho", "0"])  # missing --lambda
    assert exc.value.code == 2


# -- JSON output

def test_q_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "q", "--rho", "0", "--lambda", "2,1",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"] == "0" and payload["lambda"] == [2, 1]
    assert payload["poly"] == hl_q((2, 1), RhoSpec.rational(0)).to_json()


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "T1.2", "--n", "2",
                           "--m", "1", "--lambda", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["case"] == {"id": "T1.2", "n": 2, "m": 1, "lambda": [0]}
    assert payload["lhs"] == payload["rhs"]


def test_json_is_deterministic(capsys):
    args = ("straighten", "--rho", "xi:3", "--lambda", "1,3",
            "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# -- field plumbing

def test_rational_minus_one_matches_second_root(capsys):
    """rho = -1 over the rationals and the second root of unity are different
    coefficient fields that must print the same polynomials."""
    for lam in ("2", "2,1", "3,1,1"):
        _, a, _ = run_cli(capsys, "q", "--rho", "-1", "--lambda", lam)
        _, b, _ = run_cli(capsys, "q", "--rho", "xi:2", "--lambda", lam)
        assert a == b


def test_text_runs_are_byte_identical(capsys):
    args = ("apply", "--op", "Ltilde:n=2,m=1", "--rho", "xi:2",
            "--lambda", "3,1")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_no_cache_flag_gives_same_answer(capsys):
    # without a memo per call, straightening (0,1,...,7) takes about a minute
    try:
        for argv in (("q", "--rho", "xi:3", "--lambda", "3,2"),
                     ("straighten", "--rho", "generic", "--lambda", "0,1,2,3,4,5,6,7")):
            for fmt in ("text", "json"):
                clear_caches()
                code, cached, _ = run_cli(capsys, *argv, "--format", fmt)
                assert code == 0
                assert run_cli(capsys, *argv, "--format", fmt, "--no-cache") == (0, cached, "")
    finally:
        set_cache_enabled(True)


def _touch_every_table(capsys, *extra):
    for rho in ("generic", "0", "2", "xi:3"):
        for argv in (("q", "--lambda", "2,1"), ("straighten", "--lambda", "1,2"),
                     ("coeff", "--mu", "2,1"), ("mulp", "--lambda", "2", "--r", "2")):
            code, _, _ = run_cli(capsys, *argv, "--rho", rho, *extra)
            assert code == 0, (argv, rho)
    code, _, _ = run_cli(capsys, "verify", "--case", "T1.2", "--n", "3",
                         "--m", "1", "--lambda", "2,1", *extra)
    assert code == 0


def test_clear_caches_and_no_cache_reach_every_table(capsys):
    clear_caches()
    _touch_every_table(capsys)
    assert all(vertex._CACHES)
    clear_caches()
    assert not any(vertex._CACHES)
    try:
        _touch_every_table(capsys, "--no-cache")
        assert not any(vertex._CACHES)
    finally:
        set_cache_enabled(True)


@pytest.mark.parametrize("bound", ["abc", "0", "-3", "1.5", ""])
def test_bad_cache_bound_is_a_usage_error(bound):
    proc = subprocess.run(
        [sys.executable, "-m", "hlvir", "q", "--rho", "0", "--lambda", "1"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "HLVIR_CACHE_MAX": bound})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        f"error: HLVIR_CACHE_MAX must be an integer >= 1, got {bound!r}\n")


def test_cache_bound_of_one_entry(capsys, monkeypatch):
    monkeypatch.setenv("HLVIR_CACHE_MAX", "1")
    monkeypatch.setattr(vertex, "_CACHE_MAX", None)
    clear_caches()
    try:
        code, out, _ = run_cli(capsys, "q", "--rho", "0", "--lambda", "1,1")
        assert code == 0 and out == "1/2*t1^2 - 1*t2\n"
        assert all(len(cache) <= 1 for cache in vertex._CACHES)
    finally:
        clear_caches()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hlvir", "q", "--rho", "xi:2", "--lambda", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "2*t1^2\n"


def test_selftest_keeps_five_failures_and_reports_json(capsys, monkeypatch):
    def seven_failures():
        yield False, lambda: "case 0"
        for k in range(1, 7):
            yield False, f"case {k}"

    monkeypatch.setattr(selftest, "CRITERIA", (
        selftest.Criterion(1, "passes", (
            selftest.Grid("BaseA", {"m": (1, 2)}),)),
        selftest.Criterion(2, "fails", (seven_failures,))))
    code, out, _ = run_cli(capsys, "selftest", "--format", "json")
    report = json.loads(out)
    assert code == 1 and report["failed"] == 1
    passes, fails = report["criteria"]
    assert set(passes) == {"number", "name", "passed", "cases", "seconds",
                           "failures"}
    assert list(passes) == sorted(passes)  # printed with sort_keys
    assert list(selftest.CriterionResult(1, "x", True, 2, 0.5).to_json()) == [
        "number", "name", "passed", "cases", "seconds", "failures"]
    assert (passes["number"], passes["name"], passes["passed"],
            passes["cases"], passes["failures"]) == (1, "passes", True, 2, [])
    assert (fails["passed"], fails["cases"]) == (False, 7)
    assert fails["failures"] == [f"case {k}" for k in range(5)] + ["..."]

    code, out, _ = run_cli(capsys, "selftest")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 3
    assert lines[1].startswith("[ 2] FAIL  fails  cases=7  t=")
    assert lines[1].endswith("s  first: case 0")
    assert lines[2].startswith("desk suite: 2 criteria, 1 failed, ")


def test_desk_runs_each_criterion_from_empty_caches(monkeypatch):
    """run_desk empties every registered cache before each row, so a row's
    time does not depend on the caches the rows before it warmed."""
    seen = []

    def warm_and_record(row):
        seen.append([len(cache) for cache in vertex._CACHES])
        hl_q((2, 1), RhoSpec.rational(2))  # fills the Q and B tables
        return selftest.CriterionResult(row.number, row.name, True, 1, 0.0)
    monkeypatch.setattr(selftest, "run_criterion", warm_and_record)
    hl_q((1,), RhoSpec.rational(2))
    selftest.run_desk()
    assert len(seen) == len(selftest.CRITERIA)
    assert not any(n for sizes in seen for n in sizes)
    assert any(vertex._CACHES)  # the stand-in did warm them


def test_grid_failure_names_the_cell(monkeypatch):
    monkeypatch.setattr(selftest, "verify_case", lambda case: SimpleNamespace(
        equal=case.params["r"] != 1, detail="first failure on 1"))
    row = selftest.Criterion(1, "grid", (selftest.Grid(
        "PrB", {"rho": (RhoSpec.root(2),), "r": (1, 2, 3), "m": (0,)},
        lambda rho, r, m: r == 3),))
    result = selftest.run_criterion(row)
    assert (result.passed, result.cases) == (False, 2)
    assert result.failures == ["PrB rho=xi:2 r=1 m=0 first failure on 1"]


def test_operator_spec_parse_errors(capsys):
    code, _, err = run_cli(capsys, "apply", "--op", "L:n=2", "--rho", "xi:2",
                           "--lambda", "1")
    assert code == 2 and "missing m" in err
    code, _, err = run_cli(capsys, "apply", "--op", "Q:m=1", "--rho", "0",
                           "--lambda", "1")
    assert code == 2


def test_repeated_operator_key_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "apply", "--op", "L:n=2,m=-1,n=3",
                             "--rho", "xi:2", "--lambda", "1")
    assert code == 2 and out == "" and "repeated parameter 'n'" in err


# verify refusals as the hand-written handlers printed them; each row checks
# its inputs in the same order (the operator's "Vmn is defined for m >= 1
# only" before the right-hand side's "needs n >= 2 and m >= 1")
_PINNED_REFUSALS = [
    ("mult --r 0 --lambda 2,1 --rho generic", 2, "power sum index must be >= 1"),
    ("deriv --r 0 --lambda 2,1 --rho generic", 2, "DerivFormula needs r >= 1"),
    ("T1.1 --n 1 --m 0 --lambda 1", 2, "root of unity order must be >= 2"),
    ("T1.2 --n 2 --m 0 --lambda 1", 2, "needs n >= 2 and m >= 1"),
    ("vm --n 2 --m 0 --lambda 1", 2, "Vmn is defined for m >= 1 only"),
    ("baseA --m 0", 2, "BaseA needs m >= 1"),
    ("remarkA --m -2", 2, "RemarkA needs m >= 1"),
    ("TA.3 --m 0 --lambda 1", 2, "needs m >= 1"),
    ("mult --r 3 --rho xi:3 --lambda 1", 3, "c_[1, 1, 1] has a pole at rho = xi:3"),
]


@pytest.mark.parametrize("args, code, err", _PINNED_REFUSALS,
                         ids=[args for args, _, _ in _PINNED_REFUSALS])
def test_verify_refusals_are_pinned(capsys, args, code, err):
    got = run_cli(capsys, "verify", "--case", *args.split())
    assert got == (code, "", f"error: {err}\n")


# -- fuzzing the whole command line in-process
#
# Mostly well-formed values, so that most calls get past parsing, plus junk.

_FUZZ_RHOS = st.sampled_from(
    3 * (["generic", "0", "2", "-1", "1/2", "-2/3"] + [f"xi:{n}" for n in range(1, 9)])
    + ["", "pi", "xi:", "xi:x", "xi:-3", "1/0", "generic2"])
_FUZZ_LABELS = st.one_of(
    st.lists(st.integers(-3, 4), max_size=3).map(lambda parts: ",".join(map(str, parts))),
    st.sampled_from(["a", "1,,2", "1.5", " , "]))
_FUZZ_INTS = st.sampled_from(3 * [str(k) for k in range(-3, 5)] + ["x", ""])
_FUZZ_OPS = st.one_of(
    st.builds("{}:n={},m={}".format, st.sampled_from(["L", "Lhat", "Ltilde", "W", "V"]),
              st.integers(-1, 3), st.integers(-3, 3)),
    st.builds("{}:m={}".format, st.sampled_from(["LS", "WS"]), st.integers(-3, 3)),
    st.sampled_from(["", "L", "Q:m=1", "L:m=1,m=2", "W:n=2"]))
_FUZZ_VALUES = {"rho": _FUZZ_RHOS, "lambda": _FUZZ_LABELS, "n": _FUZZ_INTS,
                "m": _FUZZ_INTS, "i": _FUZZ_INTS, "j": _FUZZ_INTS, "r": _FUZZ_INTS,
                "degree": st.integers(-1, 2).map(str)}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(
        ["q", "straighten", "coeff", "mulp", "apply", "verify", "selftest"]))
    rho = [f"--rho={draw(_FUZZ_RHOS)}"]
    label = [f"--lambda={draw(_FUZZ_LABELS)}"]
    if command in ("q", "straighten"):
        argv = rho + label
    elif command == "coeff":
        argv = rho + [f"--mu={draw(_FUZZ_LABELS)}"]
    elif command == "mulp":
        argv = rho + label + [f"--r={draw(_FUZZ_INTS)}"]
    elif command == "apply":
        argv = [f"--op={draw(_FUZZ_OPS)}"] + rho + label
    elif command == "verify":
        row = draw(st.sampled_from(IDENTITIES))
        wanted = {"lambda" if f == "lam" else f for f in row.fields}
        if row.sweep:
            wanted.add("degree")
        argv = [f"--case={draw(st.sampled_from([row.name] * 9 + ['nope']))}"]
        for name, values in _FUZZ_VALUES.items():
            # a field the case reads is usually given, any other seldom
            if (draw(st.integers(0, 9)) < 9) == (name in wanted):
                argv.append(f"--{name}={draw(values)}")
    else:  # a valid selftest runs the whole desk, so only its refusals here
        argv = draw(st.sampled_from([["--suite=frontier"], ["--bogus"], ["--format=xml"]]))
    argv += draw(st.sampled_from([[], ["--format=json"], ["--no-cache"]]))
    return [command] + draw(st.permutations(argv))


@settings(max_examples=150, deadline=None)
@given(_fuzz_argv())
def test_cli_fuzz_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        set_cache_enabled(True)
    assert code in range(6), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv

"""Command-line interface: frozen output strings, exit codes, JSON schema,
and determinism."""

import json
import pathlib
import subprocess
import sys

import pytest

from hlvir import cli, structure
from hlvir.exactnum import QQ, RhoSpec
from hlvir.tring import TPoly
from hlvir.vertex import clear_caches, hl_q, set_cache_enabled
from hlvir.virasoro import CASE_IDS, IDENTITIES

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


def test_case_names_come_from_the_identity_table():
    assert cli._CASE_NAMES == {row.name: row.id for row in IDENTITIES}
    assert CASE_IDS == tuple(row.id for row in IDENTITIES)
    assert set(GOLDEN_VERIFY) == set(cli._CASE_NAMES)


# -- exit codes

def test_usage_error_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "q", "--rho", "xi:1", "--lambda", "1")
    assert code == 2 and "error" in err


def test_singular_coefficient_is_exit_3(capsys):
    code, _, err = run_cli(capsys, "mulp", "--rho", "xi:2", "--lambda", "1",
                           "--r", "2")
    assert code == 3 and "pole" in err


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
    poly = TPoly.from_json(QQ, payload["poly"])
    assert poly == hl_q((2, 1), RhoSpec.rational(0))


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
    try:
        _, cached, _ = run_cli(capsys, "q", "--rho", "xi:3", "--lambda", "3,2")
        _, uncached, _ = run_cli(capsys, "q", "--rho", "xi:3",
                                 "--lambda", "3,2", "--no-cache")
        assert cached == uncached
    finally:
        set_cache_enabled(True)


def test_no_cache_flag_covers_straightening_and_c_coeff(capsys):
    try:
        code, _, _ = run_cli(capsys, "straighten", "--rho", "generic",
                             "--lambda", "1,2,3", "--no-cache")
        assert code == 0 and not structure._STRAIGHTEN_CACHE
        code, _, _ = run_cli(capsys, "mulp", "--rho", "0", "--lambda", "2",
                             "--r", "2", "--no-cache")
        assert code == 0 and not structure._C_CACHE
    finally:
        set_cache_enabled(True)
    structure.straighten((1, 2), RhoSpec.parse("generic"))
    structure.c_coeff((2, 1), RhoSpec.parse("0"))
    assert structure._STRAIGHTEN_CACHE and structure._C_CACHE
    clear_caches()
    assert not structure._STRAIGHTEN_CACHE and not structure._C_CACHE


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hlvir", "q", "--rho", "xi:2", "--lambda", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "2*t1^2\n"


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

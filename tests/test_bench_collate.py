"""The BENCH collator (tools/bench_collate.py) on hand-made result files:
per-side summaries, the pairwise comparison and the recorded sweeps (with
stand-ins for the timed sweep and the reference loop).  tools/ is not a
package, so this loads the script by file."""

import importlib.util
import json
import math
import pathlib

import pytest

TOOL_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_collate.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_collate", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_results(checkout, digest, ops_per_s, trace=0):
    out = checkout / ".bench_out"
    out.mkdir(parents=True, exist_ok=True)
    for seed, value in enumerate(ops_per_s, start=1):
        record = {"attempted": 10, "failed": 0, "correct": True, "failures": [],
                  "context": {"workload": "generic-rho", "seed": seed, "trace": trace,
                              "src_digest": digest, "git_rev": "unknown"},
                  "metrics": {"ops_per_s": {"unit": "1/s", "value": value},
                              "setup_s": {"unit": "s", "value": 0.1}}}
        name = f"result-generic-rho-seed{seed}-trace{trace}.json"
        (out / name).write_text(json.dumps(record))


def test_collate_two_sides(tmp_path, monkeypatch):
    tool = _load_tool()
    swept = []
    seconds = iter(range(1, 100))

    def fake_sweep(checkout, body):
        swept.append((body, checkout.name))
        second = float(next(seconds))
        return {"seconds": second, "cpu_s": second / 2, "cases": 3, "failed": 0}
    monkeypatch.setattr(tool, "run_sweep", fake_sweep)
    # a host that runs the reference loop twice as fast as the reference one
    monkeypatch.setattr(tool, "reference_s", lambda: tool.REFERENCE_S / 2)
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_results(parent, "aaa", [10.0, 12.0, 11.0, 13.0])
    _write_results(change, "bbb", [15.0, 11.5, 16.0, 17.0])
    out = tmp_path / "BENCH_1.json"
    assert tool.main(["--out", str(out), str(parent), str(change)]) == 0
    record = json.loads(out.read_text())
    # each sweep REPEATS times per side, parent and change alternating
    assert swept == [(body, side) for body in tool.SWEEPS.values()
                     for _ in range(tool.REPEATS) for side in ("parent", "change")]
    assert set(record["sides"]["change"]["sweeps"]) == set(tool.SWEEPS)
    assert {"exchange_rational", "c11_rational", "operators_roots", "b_roots", "t1_2_xi5",
            "t1_2_xi7", "cold_import"} <= set(tool.SWEEPS)
    # five runs a side: three cannot resolve a 10% change in a sweep
    assert tool.REPEATS == 5
    first = record["sides"]["change"]["sweeps"]["c7_generic_sweep"]
    assert first == {"seconds": [2.0, 4.0, 6.0, 8.0, 10.0], "host_scale": [2.0] * 5,
                     "median_s": 6.0, "scaled_median_s": 12.0,
                     "cpu_s": [1.0, 2.0, 3.0, 4.0, 5.0], "median_cpu_s": 3.0,
                     "cases": 3, "failed": 0}

    side = record["sides"]["change"]["workloads"]["generic-rho"]["untraced"]
    assert side["seeds"] == [1, 2, 3, 4] and side["src_digests"] == ["bbb"]
    assert side["metrics"]["ops_per_s"] == {"median": 15.5, "min": 11.5,
                                            "max": 17.0, "runs": 4}
    assert "machine" in record and "nproc" in record["machine"]

    cmp = record["comparison"]["generic-rho"]["ops_per_s"]
    assert cmp["better"] == "higher" and cmp["pairs"] == 4
    assert cmp["wins"] == 3  # seed 2 got slower
    assert cmp["median_before"] == 11.5 and cmp["median_after"] == 15.5
    # quartiles of 10, 11, 12, 13 as perfbench/spread.py takes them: 10.25, 12.75
    assert cmp["iqr_before"] == 2.5 and cmp["gap"] == 4.0
    # setup_s is equal in every pair: no wins for "lower is better"
    assert record["comparison"]["generic-rho"]["setup_s"]["wins"] == 0


@pytest.mark.parametrize("name, n", [("t1_2_xi5", 5), ("t1_2_xi7", 7)])
def test_xi_sweep_checks_t1_2_on_every_small_partition(monkeypatch, name, n):
    """A t1_2_xi<n> body, run with a stand-in verify_case: T1.2 at n, m = 1
    on each of the 30 partitions of size at most 6."""
    from hlvir import virasoro
    from hlvir.structure import partitions

    tool = _load_tool()
    seen = []

    class Verdict:
        equal = True

    def fake_verify(case):
        seen.append(case)
        return Verdict()
    monkeypatch.setattr(virasoro, "verify_case", fake_verify)
    scope = {"clock": lambda: 0.0}
    exec(tool.SWEEPS[name], scope)
    assert (scope["cases"], scope["failed"]) == (30, 0)
    assert [(c.id, c.params["n"], c.params["m"]) for c in seen] == [("T1.2", n, 1)] * 30
    assert [c.params["lam"] for c in seen] == [lam for size in range(7)
                                               for lam in partitions(size)]


def test_cold_import_sweep_times_the_cli_import_in_a_fresh_child():
    tool = _load_tool()
    # the child imports nothing before the timed import, json included
    assert tool._SWEEP_WRAPPER.index("import json") > tool._SWEEP_WRAPPER.index("{body}")
    res = tool.run_sweep(TOOL_PATH.parents[1], tool.SWEEPS["cold_import"])
    assert (res["cases"], res["failed"]) == (1, 0) and 0 < res["seconds"] < 10
    # the child's own CPU time, its interpreter start included
    assert res["seconds"] < res["cpu_s"] < 10


def _run_grid_sweep(monkeypatch, name):
    """A grid sweep's body, run with a stand-in verify_case: the cases it
    checked and the desk's grids by case id."""
    from hlvir import selftest

    tool = _load_tool()
    seen = []

    class Verdict:
        equal, detail = True, ""

    def fake_verify(case):
        seen.append(case)
        return Verdict()
    monkeypatch.setattr(selftest, "verify_case", fake_verify)
    scope = {"clock": lambda: 0.0}
    exec(tool.SWEEPS[name], scope)
    assert scope["cases"] == len(seen) and scope["failed"] == 0
    grids = {g.case_id: g for row in selftest.CRITERIA for g in row.checks
             if isinstance(g, selftest.Grid)}
    return seen, grids


def _cases_by_id(seen):
    got: dict = {}
    for case in seen:
        rho = case.params.get("rho")
        got.setdefault(case.id, set()).add(rho and rho.to_text())
    return got


@pytest.mark.parametrize("name, want", [
    ("exchange_generic", {"Exchange": {"generic"}}),
    ("exchange_rational", {"Exchange": {"2"}}),
    ("c11_rational", {"Lemma32": {"0"}, "LemmaA1": {None}, "CorA2": {None}})])
def test_c11_sweeps_run_criterion_11_grids_at_their_fields(monkeypatch, name, want):
    """Every cell of each named criterion-11 grid, its rho axis cut to the
    one field."""
    seen, grids = _run_grid_sweep(monkeypatch, name)
    # none of these grids skips a cell; a cut rho axis has one value
    cells = sum(math.prod(len(v) for k, v in grids[case_id].axes.items() if k != "rho")
                for case_id in want)
    assert len(seen) == cells
    assert _cases_by_id(seen) == want


def test_operators_roots_sweep_runs_the_operator_grids_at_xi_2_and_xi_3(monkeypatch):
    """Criterion 4's Bracket grid and criterion 11's Prop33 and CorLtilde
    grids, whole: 182 cases, each at n = 2 or 3."""
    seen, grids = _run_grid_sweep(monkeypatch, "operators_roots")
    want = ("Bracket", "Prop33", "CorLtilde")
    assert len(seen) == 182 == sum(math.prod(map(len, grids[case_id].axes.values()))
                                   for case_id in want)
    assert _cases_by_id(seen) == {case_id: {None} for case_id in want}
    assert {case.params["n"] for case in seen} == {2, 3}


def test_b_roots_sweep_applies_every_row_operator_from_cold(monkeypatch):
    """The b_roots body, run with stand-ins for apply_B and clear_caches:
    B_m on each monomial of degree at most 8 (67 of them) for m = -3..4, at
    xi_3, xi_5, xi_7 and rho = 2, the caches emptied before each field."""
    from hlvir import vertex
    from hlvir.structure import partitions

    tool = _load_tool()
    seen = []
    monkeypatch.setattr(vertex, "apply_B", lambda m, f, rho: seen.append((rho.to_text(), m, f)))
    monkeypatch.setattr(vertex, "clear_caches", lambda: seen.append("clear"))
    scope = {"clock": lambda: 0.0}
    exec(tool.SWEEPS["b_roots"], scope)
    monos = sum(len(partitions(size)) for size in range(9))
    assert monos == 67 and (scope["cases"], scope["failed"]) == (4 * 8 * monos, 0)
    calls = [x for x in seen if x != "clear"]
    assert seen[0] == "clear" and seen.count("clear") == 4
    assert [rho for rho, _, _ in calls[::8 * monos]] == ["xi:3", "xi:5", "xi:7", "2"]
    assert {m for _, m, _ in calls} == set(range(-3, 5))
    for _, _, f in calls:
        (mono, c), = f.terms.items()
        assert c == 1
    assert len({(rho, m, next(iter(f.terms))) for rho, m, f in calls}) == len(calls)

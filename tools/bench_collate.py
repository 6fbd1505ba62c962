"""Collate perfbench results into a committed ``BENCH_<k>.json``.

    python3 tools/bench_collate.py --out BENCH_1.json PARENT CHANGE

PARENT and CHANGE are checkouts of hlvir (the parent commit and the change)
whose ``.bench_out/result-<workload>-seed<n>-trace<0|1>.json`` files were
written by ``perfbench/run.py``.  For each side the file records the git
revision, the digests of the measured sources, and per workload the median,
min and max of every metric over its untraced runs (and over its traced
runs, for the per-layer metrics).  It then compares the sides pair by pair:
runs of the same workload and seed are a pair, a win is judged by the
metric's ``better`` in ``BENCHMARK.json``, and the gap between the medians
is set against the parent's interquartile range (quartiles as
``perfbench/spread.py`` takes them).

It also times the heavy sweeps the benchmark leaves out, each in a fresh
interpreter (cold caches): the criterion-7 straightening sweep at generic
rho; criterion 11's ``Exchange`` grid at generic rho and at rho = 2, and its
sweeps over Q alone (``Lemma32`` at rho = 0, ``LemmaA1`` and ``CorA2``);
the operator sweeps at xi_2 and xi_3 (criterion 4's ``Bracket`` grid and
criterion 11's ``Prop33`` and ``CorLtilde``), where operator application
is the largest cost; the row operators B_m, m = -3..4, on every monomial
of degree at most 8, each field from cold, at xi_3, xi_5, xi_7 and rho = 2
(``b_roots``, which times the B table's fill through the public API);
``T1.2`` with m = 1 on every partition of size at most 6 at xi_5 and at
xi_7, fields with phi(n) = 4 and 6; and ``import hlvir.cli`` itself, the
cold start every hlvir process pays (the child imports nothing else first).
Each sweep runs REPEATS times per side, parent and change alternating, and
``perfbench/run.py``'s reference loop is timed just before and just after
every run.  The record keeps every sample, its host scale (REFERENCE_S over
the mean of the two reference times), the median, and the median of the
scaled samples; and beside them the child's CPU time (its ``ru_utime``,
interpreter start and imports included), which a busy host slows less than
the wall time.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import REFERENCE_S, reference_s  # noqa: E402

REPEATS = 5

# the desk grids named in ``cells``, a list of (case id, rho); a rho cuts
# the grid's rho axis to that one field, and None keeps the grid whole
_GRIDS = """
from hlvir.exactnum import RHO_GENERIC, RHO_ZERO, RhoSpec
from hlvir.selftest import CRITERIA, Grid
grids = {{g.case_id: g for row in CRITERIA for g in row.checks if isinstance(g, Grid)}}
def cut(case_id, rho):
    grid = grids[case_id]
    return grid if rho is None else Grid(case_id, {{**grid.axes, "rho": (rho,)}}, grid.skip)
run = [cut(case_id, rho) for case_id, rho in {cells}]
t0 = clock()
oks = [ok for grid in run for ok, _ in grid()]
cases, failed = len(oks), oks.count(False)
"""

# T1.2 at xi_n, m = 1, on the 30 partitions of size at most 6
_T1_2 = """
from hlvir.structure import partitions
from hlvir.virasoro import TheoremCase, verify_case
lams = [lam for size in range(7) for lam in partitions(size)]
t0 = clock()
oks = [verify_case(TheoremCase("T1.2", n={n}, m=1, lam=lam)).equal for lam in lams]
cases, failed = len(oks), oks.count(False)
"""

# Each sweep runs in a child interpreter on the side's own sources; it sets
# ``cases`` and ``failed``, and only the sweep itself is timed.
SWEEPS = {
    "c7_generic_sweep": """
import itertools
from hlvir.exactnum import RHO_GENERIC as rho
from hlvir.structure import straighten
from hlvir.vertex import hl_q
labels = [lam for n in range(5) for lam in itertools.product(range(-3, 5), repeat=n)]
t0 = clock()
failed = sum(1 for lam in labels if straighten(lam, rho).evaluate(rho) != hl_q(lam, rho))
cases = len(labels)
""",
    "exchange_generic": _GRIDS.format(cells='[("Exchange", RHO_GENERIC)]'),
    "exchange_rational": _GRIDS.format(cells='[("Exchange", RhoSpec.rational(2))]'),
    "c11_rational": _GRIDS.format(
        cells='[("Lemma32", RHO_ZERO), ("LemmaA1", None), ("CorA2", None)]'),
    "operators_roots": _GRIDS.format(
        cells='[("Bracket", None), ("Prop33", None), ("CorLtilde", None)]'),
    "b_roots": """
from hlvir.exactnum import RhoSpec
from hlvir.structure import partitions
from hlvir.tring import TPoly, mono_from_exponents
from hlvir.vertex import apply_B, clear_caches
monos = [mono_from_exponents((v, lam.count(v)) for v in set(lam))
         for size in range(9) for lam in partitions(size)]
rhos = [RhoSpec.root(3), RhoSpec.root(5), RhoSpec.root(7), RhoSpec.rational(2)]
t0 = clock()
cases = 0
for rho in rhos:
    clear_caches()
    one = rho.field.one
    for m in range(-3, 5):
        for mono in monos:
            apply_B(m, TPoly(rho.field, {mono: one}), rho)
            cases += 1
failed = 0
""",
    "t1_2_xi5": _T1_2.format(n=5),
    "t1_2_xi7": _T1_2.format(n=7),
    "cold_import": """
t0 = clock()
import hlvir.cli
cases, failed = 1, 0
""",
}

# json is imported after the body, so that a body that times an import
# (cold_import) finds nothing loaded beyond a bare interpreter and time
_SWEEP_WRAPPER = """
import time
clock = time.perf_counter
{body}
seconds = clock() - t0
import json
print(json.dumps({{"seconds": seconds, "cases": cases, "failed": failed}}))
"""


def machine_info() -> dict:
    info = {"platform": platform.platform(), "python": platform.python_version(),
            "nproc": os.cpu_count()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                info["mem_total_kb"] = int(line.split()[1])
                break
    except OSError:
        pass
    return info


def git_rev(checkout: Path) -> str:
    try:
        out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_results(checkout: Path) -> list[dict]:
    return [json.loads(p.read_text())
            for p in sorted((checkout / ".bench_out").glob("result-*.json"))]


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "runs": len(values)}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def collate_side(results: list[dict]) -> dict:
    """Per workload and trace mode: the seeds, the source digests, and a
    summary of each metric."""
    out: dict = {}
    for res in results:
        ctx = res["context"]
        mode = "traced" if ctx["trace"] else "untraced"
        entry = out.setdefault(ctx["workload"], {}).setdefault(
            mode, {"seeds": [], "src_digests": [], "failed": 0, "metrics": {}})
        entry["seeds"].append(ctx["seed"])
        if ctx["src_digest"] not in entry["src_digests"]:
            entry["src_digests"].append(ctx["src_digest"])
        entry["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            entry["metrics"].setdefault(name, []).append(m["value"])
    for modes in out.values():
        for entry in modes.values():
            entry["seeds"].sort()
            entry["metrics"] = {name: summary(vals)
                                for name, vals in sorted(entry["metrics"].items())}
    return out


def compare(base: list[dict], other: list[dict], better: dict) -> dict:
    """Pairwise comparison of untraced runs with the same workload and seed."""
    def by_key(results):
        return {(r["context"]["workload"], r["context"]["seed"]): r["metrics"]
                for r in results if not r["context"]["trace"]}
    a, b = by_key(base), by_key(other)
    out: dict = {}
    for wl, seed in sorted(set(a) & set(b)):
        for name, direction in better.items():
            if name not in a[(wl, seed)] or name not in b[(wl, seed)]:
                continue
            row = out.setdefault(wl, {}).setdefault(name, {"pairs": [], "better": direction})
            row["pairs"].append([seed, a[(wl, seed)][name]["value"],
                                 b[(wl, seed)][name]["value"]])
    for metrics in out.values():
        for row in metrics.values():
            pairs = row.pop("pairs")
            before = [p[1] for p in pairs]
            after = [p[2] for p in pairs]
            sign = 1 if row["better"] == "higher" else -1
            q1, q3 = quartiles(before)
            med_a, med_b = statistics.median(before), statistics.median(after)
            row.update(seeds=[p[0] for p in pairs],
                       wins=sum(1 for x, y in zip(before, after) if sign * (y - x) > 0),
                       pairs=len(pairs), median_before=med_a, median_after=med_b,
                       ratio=med_b / med_a if med_a else None,
                       iqr_before=q3 - q1, gap=abs(med_b - med_a))
    return out


def run_sweep(checkout: Path, body: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0")
    cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    proc = subprocess.run([sys.executable, "-c", _SWEEP_WRAPPER.format(body=body)],
                          capture_output=True, text=True, env=env, cwd=checkout)
    if proc.returncode:
        raise SystemExit(f"sweep failed in {checkout}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["cpu_s"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime - cpu_before
    return res


def sweep_summary(samples: list[dict]) -> dict:
    return {"seconds": [r["seconds"] for r in samples],
            "host_scale": [r["host_scale"] for r in samples],
            "median_s": statistics.median(r["seconds"] for r in samples),
            "scaled_median_s": statistics.median(r["seconds"] * r["host_scale"]
                                                 for r in samples),
            "cpu_s": [r["cpu_s"] for r in samples],
            "median_cpu_s": statistics.median(r["cpu_s"] for r in samples),
            "cases": samples[0]["cases"],
            "failed": max(r["failed"] for r in samples)}


def time_sweeps(checkouts: dict[str, Path]) -> dict:
    """Per side and sweep: REPEATS cold runs, the sides alternating run by
    run, each scaled to the reference host as ``perfbench/run.py`` does."""
    runs: dict = {label: {name: [] for name in SWEEPS} for label in checkouts}
    for name, body in SWEEPS.items():
        for _ in range(REPEATS):
            for label, checkout in checkouts.items():
                ref_before = reference_s()
                res = run_sweep(checkout, body)
                res["host_scale"] = 2 * REFERENCE_S / (ref_before + reference_s())
                runs[label][name].append(res)
    return {label: {name: sweep_summary(samples) for name, samples in sweeps.items()}
            for label, sweeps in runs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    checkouts = {label: getattr(args, label).resolve() for label in ("parent", "change")}
    record: dict = {"machine": machine_info(), "sides": {}}
    results = {}
    for label, checkout in checkouts.items():
        results[label] = load_results(checkout)
        if not results[label]:
            parser.error(f"no result files under {checkout / '.bench_out'}")
        record["sides"][label] = {"git_rev": git_rev(checkout),
                                  "workloads": collate_side(results[label])}
    for label, sweeps in time_sweeps(checkouts).items():
        record["sides"][label]["sweeps"] = sweeps
    record["comparison"] = compare(results["parent"], results["change"], better)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    # the reference loop and the sweeps it scales run on one CPU, as in
    # perfbench/run.py
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(main())

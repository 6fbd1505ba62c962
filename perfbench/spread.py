"""Run-to-run spread of the end-to-end metrics, against the bounds.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs ``run.py`` once per seed for each workload (default: all), then prints
for every end-to-end metric its median, quartiles and spread (the distance
between the quartiles as a share of the median) next to the bound in
``BENCHMARK.json``.  A spread above a third of its bound is marked, as is
any failed op.  For each timed metric it also prints the spread the same
runs would show without scaling each unit to the reference host (from the
units kept in each run's result file): how far the host drifted.
``--out FILE`` also writes the figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import ops as opsmod
import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def unscaled_metrics(workload: str, seed: int) -> dict:
    """The timed metrics of a run's result file with every host scale 1."""
    path = run.OUT_DIR / f"result-{workload}-seed{seed}-trace0.json"
    units = json.loads(path.read_text())["detail"]["units"]
    return run.summarize([(*unit[:3], 1.0) for unit in units])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(opsmod.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, ok = {}, True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        unscaled: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 2
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += line["failed"]
            attempted += line["attempted"]
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
            for name, value in unscaled_metrics(workload, seed).items():
                unscaled.setdefault(name, []).append(value)
        print(f"{workload}: {args.runs} runs, {failed}/{attempted} ops failed")
        ok &= failed == 0
        summary[workload] = {}
        for name, vals in values.items():
            med, q1, q3, rel = spread(vals)
            steady = rel < bounds[name] / 3
            ok &= steady
            mark = "" if steady else "   <-- above a third of the bound"
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": rel, "values": vals}
            raw = ""
            if name in unscaled:
                summary[workload][name]["unscaled_spread"] = spread(unscaled[name])[3]
                raw = f"  unscaled {summary[workload][name]['unscaled_spread']:6.3f}"
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {rel:6.3f}  bound {bounds[name]}{raw}{mark}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

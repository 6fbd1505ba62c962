"""The hlvir benchmark: one command, stdlib only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it measures the ``src/hlvir`` found there.
``--workload all`` runs every workload in turn.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  The lines before it print each metric with its unit
and the run's context (seed, source revision, Python, nproc, load).

Each session runs in a fresh interpreter with empty caches, because every
``hlvir`` call and every ``selftest`` starts cold; sessions run one after
another (a closed loop with one client).  Every output is checked: verify
ops must be equal, straightening ops must be sound, and every op's
canonical output (for CLI ops, stdout and exit code) must match the digest
recorded at the seed commit in ``digests.json``.

The host this runs on is shared, and its speed for the same Python code
can drop by nearly half for seconds to minutes at a time.  So a fixed reference loop is timed
just before and just after every session (every CLI call), and that unit's
times are scaled to a host that runs the loop in REFERENCE_S.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import ops as opsmod
from tracer import TARGETS, hl_q_hits, layer_self_times
from worker import digest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKER = BENCH_DIR / "worker.py"
DIGESTS = BENCH_DIR / "digests.json"

MIN_OPS = 100            # so at least ten samples lie beyond the 90th percentile
INTERP_PROBES = 5        # bare interpreter starts timed per traced run
CLI_OPS_PER_PROBE = 8    # cli-queries times a set-up probe before every 8th op
DEADLINE_S = 150         # no new round after this
REFERENCE_S = 0.004      # times are reported as on a host that runs reference_loop in 4 ms
CHILD_TIMEOUT_S = 120

# the rho of each in-process workload, for its traced CLI probe
PROBE_RHO = {"generic-rho": "generic", "root-of-unity": "xi:3", "rational-rho": "0"}

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))

# every counted function but the CLI entry point, whose time is reported instead
COUNT_METRICS = tuple(m for _, _, m in TARGETS if m and m != "cli.main")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a crashed child)."""


# ---------------------------------------------------------------------------
# the correctness gate


def gate(op, outcome: dict, digests: dict) -> str | None:
    """Why an op failed, or None when it passed.

    ``outcome`` holds ``error`` (an exception text or None), ``ok`` (the
    op's own equality check), ``digest`` (of its canonical output) and, for
    CLI ops, ``exit`` and ``stderr``."""
    if outcome.get("error"):
        return outcome["error"]
    key = opsmod.op_key(op)
    if op[0] == "cli":
        if outcome["exit"] != op[2]:
            return f"exit code {outcome['exit']}, expected {op[2]}"
        if "Traceback" in outcome.get("stderr", ""):
            return "printed a traceback"
    elif not outcome["ok"]:
        return "the two sides differ"
    expected = digests.get(key)
    if expected is None:
        return "no digest recorded for this op"
    if outcome["digest"] != expected:
        return "output differs from the recorded digest"
    return None


# ---------------------------------------------------------------------------
# child processes


def _child_env() -> dict:
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["HLVIR_BENCH_SRC"] = src
    env["PYTHONHASHSEED"] = "0"   # the same work, and the same counts, every run
    return env


def _check_sources() -> None:
    if not (ROOT / "src" / "hlvir" / "__init__.py").is_file():
        raise BenchError(f"no hlvir sources under {ROOT / 'src'}")
    if not DIGESTS.is_file():
        raise BenchError(f"missing {DIGESTS.name}")


def run_session(batch: list, trace_path: Path | None = None) -> dict:
    """One fresh worker process running ``batch``; times its set-up."""
    cmd = [sys.executable, str(WORKER), "session"]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_child_env(), text=True)
    try:
        proc.stdin.write(json.dumps(batch))
        proc.stdin.close()
        proc.stdin = None   # already sent; communicate() must not flush it
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall_s = time.perf_counter() - t0
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    out = json.loads(rest.strip().splitlines()[-1])
    return {"setup_s": setup_s, "wall_s": wall_s, "import_s": out["import_s"],
            "ops": out["ops"]}


def run_probe() -> float:
    """Interpreter start plus the hlvir import, timed as ``run_session``
    times them, for the workload whose ops are whole processes."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), "probe"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_child_env(), text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {err.strip()[-2000:]}")
    return setup_s


def run_cli(op, trace_path: Path | None = None) -> dict:
    """One fresh ``python -m hlvir`` process (or its traced equivalent)."""
    argv = op[1]
    if trace_path is None:
        cmd = [sys.executable, "-m", "hlvir", *argv]
    else:
        cmd = [sys.executable, str(WORKER), "cli", "--trace", str(trace_path), "--", *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=_child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "exit": proc.returncode, "digest": digest(proc.stdout),
            "stderr": proc.stderr.decode(errors="replace"), "error": None, "ok": True}


def _session_outcomes(batch, session) -> list[tuple]:
    return [(op, seconds, {"ok": ok, "digest": dig, "error": error})
            for op, (seconds, dig, ok, error) in zip(batch, session["ops"])]


# ---------------------------------------------------------------------------
# end-to-end run


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def reference_loop() -> None:
    """Fixed pure-Python work of the kind hlvir does (Fraction arithmetic,
    dicts keyed by tuples); its time tracks how fast the host runs Python
    right now."""
    for _ in range(4):
        acc, memo = Fraction(0), {}
        for i in range(1, 160):
            acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
            key = (i % 17, i % 5)
            memo[key] = memo.get(key, 0) + acc.numerator % 97


def reference_s() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Run whole rounds until ``seconds`` have passed and MIN_OPS ops ran.

    Every session (every call, for ``cli-queries``) is one unit: its
    set-up time (for ``cli-queries``, a probe before every
    CLI_OPS_PER_PROBE-th call, not counted in the run's length), its wall
    time and its op latencies.  The reference loop runs just before and
    just after each unit, on the same CPU, and the unit's times are scaled
    by REFERENCE_S over the mean of the two."""
    cli = workload == "cli-queries"
    # the reference loop and the children it scales run on one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    outcomes: list[tuple] = []   # (op, outcome)
    units: list[tuple] = []      # (setup_s or None, wall_s, [op seconds], host scale)
    stream = opsmod.rounds(workload, seed)
    t_start = time.perf_counter()
    probe_s = 0.0
    n_rounds = 0
    while True:
        elapsed = time.perf_counter() - t_start - probe_s
        if elapsed >= DEADLINE_S or (elapsed >= seconds and len(outcomes) >= MIN_OPS):
            break
        n_rounds += 1
        for k, batch in enumerate(next(stream)):
            ref_before = reference_s()
            if cli:
                setup = None
                if k % CLI_OPS_PER_PROBE == 0:
                    setup = run_probe()
                    probe_s += setup
                res = run_cli(batch[0])
                outcomes.append((batch[0], res))
                unit = (setup, res["seconds"], [res["seconds"]])
            else:
                session = run_session(batch)
                outcomes += [(op, res) for op, _, res in _session_outcomes(batch, session)]
                unit = (session["setup_s"], session["wall_s"],
                        [op_s for op_s, *_ in session["ops"]])
            units.append(unit + (2 * REFERENCE_S / (ref_before + reference_s()),))
    digests = load_digests()
    failures = [(op, why) for op, res in outcomes
                if (why := gate(op, res, digests)) is not None]
    metrics = summarize(units)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"attempted": len(outcomes), "failures": failures,
            "wall_s": sum(u[1] for u in units),
            "metrics": {name: (metrics[name], unit) for name, unit in END_TO_END},
            "extra": {"rounds": n_rounds,
                      "setup_samples": sum(u[0] is not None for u in units),
                      "host_scale_median": statistics.median(u[3] for u in units)},
            "detail": {"units": units}}


def summarize(units: list[tuple]) -> dict:
    """The timed end-to-end metrics of a run's units, each
    ``(setup_s or None, wall_s, [op seconds], host scale)``; every time is
    multiplied by its unit's host scale."""
    setups = [u[0] * u[3] for u in units if u[0] is not None]
    latencies = [s * u[3] for u in units for s in u[2]]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(u[1] * u[3] for u in units),
        "op_p50_ms": 1000 * _percentile(latencies, 50),
        "op_p90_ms": 1000 * _percentile(latencies, 90),
    }


# ---------------------------------------------------------------------------
# traced run


def trace(workload: str, seed: int) -> dict:
    """The seed's first round, run once untraced and once traced: fixed
    work, so the counts repeat exactly, and the difference in wall time is
    the tracing overhead."""
    trace_dir = OUT_DIR / f"trace-{workload}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    interp = statistics.median(_bare_start() for _ in range(INTERP_PROBES))
    digests = load_digests()
    outcomes = []
    plain_s = traced_s = 0.0
    records, cli_records = [], []
    for k, batch in enumerate(next(opsmod.rounds(workload, seed))):
        path = trace_dir / f"{k}.json"
        if workload == "cli-queries":
            plain, traced = run_cli(batch[0]), run_cli(batch[0], path)
            outcomes += [(batch[0], plain), (batch[0], traced)]
            plain_s += plain["seconds"]
            traced_s += traced["seconds"]
            cli_records.append(_load(path))
        else:
            plain, traced = run_session(batch), run_session(batch, path)
            outcomes += [(op, res) for session in (plain, traced)
                         for op, _, res in _session_outcomes(batch, session)]
            plain_s += plain["wall_s"]
            traced_s += traced["wall_s"]
            records.append(_load(path))
    if workload == "cli-queries":
        records = cli_records
    else:
        # the CLI layer of an in-process workload: a few calls at its rho
        probes = [op for op in opsmod.families("cli-queries")[0].ops
                  if PROBE_RHO[workload] in op[1]][:3]
        for k, op in enumerate(probes):
            path = trace_dir / f"cli-{k}.json"
            outcomes.append((op, run_cli(op, path)))
            cli_records.append(_load(path))
    failures = [(op, why) for op, res in outcomes
                if (why := gate(op, res, digests)) is not None]
    metrics = layer_metrics(records, cli_records, interp)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    return {"attempted": len(outcomes), "failures": failures, "metrics": metrics,
            "wall_s": traced_s + plain_s, "extra": {"trace_dir": str(trace_dir)}}


def _bare_start() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def _load(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"no trace written to {path}: {exc}") from None


def layer_metrics(records: list[dict], cli_records: list[dict], interp_s: float) -> dict:
    """Per-layer metrics summed over the traced processes of a run."""
    counts: dict[str, int] = {name: 0 for name in COUNT_METRICS}
    self_s = {"tring": 0.0, "exactnum": 0.0, "vertex": 0.0, "structure": 0.0,
              "virasoro": 0.0}
    busy = terms = hits = calls = 0
    for rec in records:
        for name in COUNT_METRICS:
            counts[name] += rec["counts"].get(name, 0)
        for layer, value in rec["agg_self_s"].items():
            self_s[layer] += value
        for layer, value in layer_self_times(rec["spans"]).items():
            if layer in self_s:
                self_s[layer] += value
        busy += rec["exactnum_busy_s"]
        terms += rec["terms_out"]
        h, c = hl_q_hits(rec["spans"])
        hits, calls = hits + h, calls + c
    main_s = [span[2] - span[1] for rec in cli_records for span in rec["spans"]
              if span[0] == "cli.main"]
    out = {name: (value, "count") for name, value in counts.items()}
    out["exactnum.busy_s"] = (busy, "s")
    out["tring.terms_out"] = (terms, "count")
    out["vertex.q_hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    for layer in ("tring", "vertex", "structure", "virasoro"):
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    out["cli.interp_s"] = (interp_s, "s")
    out["cli.import_s"] = (statistics.median(r["import_s"] for r in cli_records), "s")
    out["cli.main_s"] = (statistics.median(main_s), "s")
    return out


# ---------------------------------------------------------------------------
# reporting


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def source_revision() -> dict:
    """The git commit when run inside a clone, and a digest of the sources,
    which also identifies a checkout that is not a git repository."""
    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                rev = ref_path.read_text().strip()
            else:
                packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
                rev = next((ln.split()[0] for ln in packed if ln.endswith(" " + ref[5:])),
                           "unknown")
        else:
            rev = ref
    except OSError:
        pass
    blob = b"".join(p.name.encode() + p.read_bytes()
                    for p in sorted((ROOT / "src" / "hlvir").glob("*.py")))
    return {"git_rev": rev, "src_digest": digest(blob)}


def report(workload: str, seed: int, traced: bool, result: dict, context: dict) -> dict:
    attempted, failures = result["attempted"], result["failures"]
    print(f"workload {workload}  seed {seed}  trace {int(traced)}:"
          f" {attempted} ops in {result['wall_s']:.2f} s")
    for op, why in failures[:10]:
        print(f"  FAILED {opsmod.op_key(op)}: {why}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(f"  {'failed_frac':28s} {len(failures) / attempted:.6g}"
          f" ({len(failures)}/{attempted})")
    context = dict(context, workload=workload, seed=seed, trace=int(traced),
                   op_count=attempted, **result["extra"])
    print("context " + json.dumps(context, sort_keys=True))
    line = {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in result["metrics"].items()}}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{workload}-seed{seed}-trace{int(traced)}.json", "w") as fh:
        json.dump(dict(line, context=context, detail=result.get("detail"),
                       failures=[[opsmod.op_key(op), why] for op, why in failures]),
                  fh, indent=1, sort_keys=True)
    return line


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    context = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "loadavg_start": list(os.getloadavg()), **source_revision()}
    if traced:
        result = trace(workload, seed)
    else:
        result = measure(workload, seed, seconds)
    return report(workload, seed, traced, result, context)


def default_seconds() -> float:
    """The run length fixed in ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *opsmod.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=default_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _check_sources()
        if args.workload != "all":
            line = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            line = _run_all(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line, sort_keys=True))
    return 0


def _run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is per workload; the
    combined line names each metric ``<workload>/<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in opsmod.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload} failed: {proc.stderr.strip()[-2000:]}")
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for name, value in line["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    return combined


if __name__ == "__main__":
    sys.exit(main())

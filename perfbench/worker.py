"""One benchmark process, started fresh so that every cache is empty.

    python3 perfbench/worker.py session [--trace FILE]
        imports hlvir, prints "ready", reads a JSON list of ops from stdin,
        runs them one at a time and prints one JSON line of results;
    python3 perfbench/worker.py probe
        imports hlvir, prints "ready" and exits (set-up time only);
    python3 perfbench/worker.py cli --trace FILE -- ARGV...
        runs ``hlvir.cli.main(ARGV)`` under the tracer and exits with its
        code, as ``python -m hlvir ARGV...`` would.

The parent puts the checkout's ``src`` first on PYTHONPATH; this process
refuses to run an hlvir imported from anywhere else.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _import_hlvir() -> float:
    """Import every module the ops use; return the seconds it took."""
    t0 = time.perf_counter()
    import hlvir.cli  # noqa: F401  (imports exactnum, tring, vertex, structure, virasoro)
    elapsed = time.perf_counter() - t0
    expected = os.environ.get("HLVIR_BENCH_SRC")
    found = os.path.dirname(os.path.dirname(os.path.abspath(hlvir.cli.__file__)))
    if expected is None or os.path.realpath(found) != os.path.realpath(expected):
        raise SystemExit(f"hlvir imported from {found}, expected {expected}")
    return elapsed


def run_op(op):
    """Run one in-process op; return (result, ok).  Library functions are
    looked up on their modules at call time, so the tracer sees the calls."""
    from fractions import Fraction

    from hlvir import structure, vertex, virasoro
    from hlvir.exactnum import QQ, RHO_ZERO, RhoSpec

    kind = op[0]
    if kind == "straighten":
        rho, lam = RhoSpec.parse(op[1]), tuple(op[2])
        comb = structure.straighten(lam, rho)
        return comb, comb.evaluate(rho) == vertex.hl_q(lam, rho)
    if kind == "verify":
        fields = dict(op[1])
        case_id = fields.pop("id")
        if "rho" in fields:
            fields["rho"] = RhoSpec.parse(fields["rho"])
        if "lam" in fields:
            fields["lam"] = tuple(fields["lam"])
        verdict = virasoro.verify_case(virasoro.TheoremCase(case_id, **fields))
        return verdict, verdict.equal
    if kind == "strips":
        r, lam = op[1], tuple(op[2])
        want = vertex.QCombination.from_terms(QQ, (
            (mu, Fraction(sign)) for sign, mu in structure.mn_expand(r, lam)))
        got = vertex.QCombination.zero(QQ)
        product = structure.multiply_p(r, vertex.QCombination.single(QQ, lam), RHO_ZERO)
        for label, c in product.terms.items():
            got = got + structure.straighten(label, RHO_ZERO).scale(c)
        return got, got == want
    raise ValueError(f"not an in-process op: {op!r}")


def render(result) -> str:
    """Canonical text of a result, the input of its digest."""
    return json.dumps(result.to_json(), sort_keys=True)


def _session(trace_path: str | None) -> None:
    import_s = _import_hlvir()
    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    batch = json.loads(sys.stdin.read())
    clock = time.perf_counter
    timed = []
    for index, op in enumerate(batch):
        if tracer is not None:
            tracer.op_id = index
        t0 = clock()
        try:
            result, ok = run_op(op)
            timed.append((clock() - t0, result, ok, None))
        except Exception as exc:  # an op failure is scored, not fatal
            timed.append((clock() - t0, None, False, f"{type(exc).__name__}: {exc}"))
    if tracer is not None:
        tracer.uninstall()
    out = [[seconds, None if error else digest(render(result).encode()), ok, error]
           for seconds, result, ok, error in timed]
    if tracer is not None:
        tracer.write(trace_path, {"import_s": import_s})
    print(json.dumps({"import_s": import_s, "ops": out}), flush=True)


def _cli(trace_path: str, argv: list[str]) -> int:
    import_s = _import_hlvir()
    import hlvir.cli
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = hlvir.cli.main(argv)
    except SystemExit as exc:   # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write(trace_path, {"import_s": import_s})
    return code


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "probe":
        _import_hlvir()
        print("ready", flush=True)
        return 0
    if mode == "session":
        _session(argv[2] if argv[1:2] == ["--trace"] else None)
        return 0
    if mode == "cli" and argv[1:2] == ["--trace"] and argv[3:4] == ["--"]:
        return _cli(argv[2], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

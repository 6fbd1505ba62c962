"""Record the digest of every op's output into ``digests.json``.

    python3 perfbench/record.py

Run it at the commit whose outputs are the reference (the outputs must stay
byte-identical afterwards).  It fails, and writes nothing, if any op is
unequal, unsound, raises, or exits with another code than its documented
one.  In-process ops share one interpreter here, since a digest does not
depend on cache state; each CLI op is its own process.
"""

from __future__ import annotations

import json
import sys
import time

import ops as opsmod
import run
from worker import digest, render, run_op


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    digests, problems = {}, []
    t0 = time.perf_counter()
    for op in opsmod.all_ops():
        key = opsmod.op_key(op)
        if op[0] == "cli":
            res = run.run_cli(op)
            if res["exit"] != op[2] or "Traceback" in res["stderr"]:
                problems.append(f"{key}: exit {res['exit']} {res['stderr'][-200:]}")
            digests[key] = res["digest"]
            continue
        try:
            result, ok = run_op(op)
        except Exception as exc:
            problems.append(f"{key}: {type(exc).__name__}: {exc}")
            continue
        if not ok:
            problems.append(f"{key}: not equal")
        digests[key] = digest(render(result).encode())
    for line in problems:
        print("PROBLEM", line)
    if problems:
        return 1
    with open(run.DIGESTS, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in sorted(digests.items())) + "\n}\n")
    print(f"{len(digests)} digests in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

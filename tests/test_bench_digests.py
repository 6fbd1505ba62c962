"""The benchmark's correctness gate, in-process: every op of one round of each
in-process workload must pass its own check and give the output whose digest
perfbench/digests.json recorded.  perfbench/ is not a test path, so this
loads its op pools and its worker by file, as the benchmark's workers run
them."""

import importlib.util
import json
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = json.loads((BENCH_DIR / "digests.json").read_text("utf-8"))


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # ops' dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


ops, worker = _load("ops"), _load("worker")


@pytest.mark.parametrize("workload", ["generic-rho", "root-of-unity", "rational-rho"])
def test_round_ops_match_their_recorded_digests(workload):
    round_ops = ops.round_ops(workload)
    failures = []
    for op in round_ops:
        key = ops.op_key(op)
        result, ok = worker.run_op(op)
        if not ok:
            failures.append(f"{key}: the two sides differ")
        elif worker.digest(worker.render(result).encode()) != DIGESTS.get(key):
            failures.append(f"{key}: output differs from the recorded digest")
    assert round_ops and not failures, failures

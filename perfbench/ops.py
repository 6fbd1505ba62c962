"""Workload pools and seeded op generation for the hlvir benchmark.

An op is a small JSON value.  Its canonical text (``op_key``) names it in
the digest table recorded at the seed commit.  Kinds:

* ``["straighten", rho, label]``: straightening soundness, as in desk
  criterion 7: ``straighten(label).evaluate(rho) == hl_q(label, rho)``;
* ``["verify", {case fields}]``: one ``verify_case`` call, which must be
  equal;
* ``["strips", r, label]``: the rho = 0 border-strip rule of criterion 9,
  multiplication plus straightening against ``mn_expand``;
* ``["cli", argv, exit_code]``: one fresh ``python -m hlvir`` process with
  its documented exit code.

This module does not import hlvir: the parent process only generates and
gates ops, and the worker processes run them.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass


def op_key(op) -> str:
    return json.dumps(op, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# label sets, as in the desk sweeps


def partitions(n: int, max_part: int | None = None) -> list[tuple]:
    if n == 0:
        return [()]
    if max_part is None or max_part > n:
        max_part = n
    return [(first,) + rest for first in range(max_part, 0, -1)
            for rest in partitions(n - first, first)]


def partitions_upto(max_size: int, max_len: int | None = None) -> list[tuple]:
    return [mu for d in range(max_size + 1) for mu in partitions(d)
            if max_len is None or len(mu) <= max_len]


NON_PARTITIONS = [(0,), (0, 2), (2, -1, 1), (1, 0, 2)]


def _has_ascent(label) -> bool:
    return any(a < b for a, b in zip(label, label[1:]))


def _tails_nonnegative(label) -> bool:
    tail = 0
    for x in reversed(label):
        tail += x
        if tail < 0:
            return False
    return True


def criterion7_labels(max_degree: int) -> tuple[list, list]:
    """Criterion-7 labels (length <= 4, entries -3..4) of degree at most
    ``max_degree``, split into those that need an exchange (an ascent and
    no negative tail sum) and the rest."""
    ascent, other = [], []
    for length in range(5):
        for lam in itertools.product(range(-3, 5), repeat=length):
            if sum(lam) > max_degree:
                continue
            if _has_ascent(lam) and _tails_nonnegative(lam):
                ascent.append(list(lam))
            else:
                other.append(list(lam))
    return ascent, other


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class Family:
    """Interchangeable ops of one shape; every round runs each of them once."""

    name: str
    ops: tuple


def _family(name: str, count: int, ops) -> Family:
    """``count`` evenly spaced ops out of the candidates ``ops``."""
    ops = tuple(ops)
    if len(ops) < count:
        raise ValueError(f"family {name} has {len(ops)} candidates, wants {count}")
    return Family(name, tuple(ops[i * len(ops) // count] for i in range(count)))


def _verify(case_id: str, **fields):
    return ["verify", dict(id=case_id, **fields)]


def _straighten_families(rho: str, max_degree: int, n_ascent: int,
                         n_other: int, tag: str = "") -> list[Family]:
    ascent, other = criterion7_labels(max_degree)
    return [
        _family(f"straighten-ascent{tag}", n_ascent,
                (["straighten", rho, lam] for lam in ascent)),
        _family(f"straighten-other{tag}", n_other,
                (["straighten", rho, lam] for lam in other)),
    ]


def _sweep_families(rho: str, tag: str, counts: tuple, max_load: int,
                    lemma32_max_r: int, skip_perp=()) -> list[Family]:
    """Exchange, PrB, TrPerpB and Lemma32 at degree 6, as in criterion 11.

    Cold cost grows with the degree a sweep reaches (i + j, r + m, r), ten
    times over across criterion 11's ranges, so those are capped;
    ``skip_perp`` lists the r where t_r has no adjoint."""
    n_exchange, n_prb, n_perp, n_lemma = counts
    return [
        _family(f"exchange{tag}", n_exchange, (
            _verify("Exchange", i=i, j=j, rho=rho, degree=6)
            for i in range(-2, 3) for j in range(-4, 7) if i + j <= max_load)),
        _family(f"prB{tag}", n_prb, (
            _verify("PrB", r=r, m=m, rho=rho, degree=6)
            for r in range(1, 7) for m in range(-2, 3) if r + m <= max_load + 3)),
        _family(f"trPerpB{tag}", n_perp, (
            _verify("TrPerpB", r=r, m=m, rho=rho, degree=6)
            for r in range(1, 7) for m in range(-2, 3) if r not in skip_perp)),
        _family(f"lemma32{tag}", n_lemma, (
            _verify("Lemma32", r=r, rho=rho, degree=6)
            for r in range(-4, lemma32_max_r + 1))),
    ]


def _formula_families(rho: str, tag: str, n_mult: int, n_deriv: int,
                      skip_r=()) -> list[Family]:
    """MultFormula and DerivFormula over the criterion-5/6 labels; a product
    of degree above 7 costs ten times more, so it is left out."""
    lams = [list(lam) for lam in partitions_upto(6, 3) + NON_PARTITIONS]
    return [
        _family(f"mult{tag}", n_mult, (
            _verify("MultFormula", r=r, lam=lam, rho=rho)
            for r in range(1, 6) if r not in skip_r for lam in lams
            if sum(lam) + r <= 7)),
        _family(f"deriv{tag}", n_deriv, (
            _verify("DerivFormula", r=r, lam=lam, rho=rho)
            for r in range(1, 6) for lam in lams)),
    ]


def _generic_rho() -> list[Family]:
    # as many cheap ops as heavy ones, so that the median op is a
    # straightening with an exchange
    return (_straighten_families("generic", 6, 36, 16)
            + _sweep_families("generic", "", (6, 6, 6, 4), 1, 2)
            + _formula_families("generic", "", 12, 18))


def _root_of_unity() -> list[Family]:
    lams = [list(lam) for lam in partitions_upto(6, 3) + NON_PARTITIONS]
    t11_lams = [list(v) for length in range(4)
                for v in itertools.product(range(-2, 5), repeat=length)
                if sum(v) <= 6]
    # n*m = 6 costs ten times n*m <= 4 for the same label, so it is left out
    small_nm = ((2, 1), (2, 2), (3, 1))
    theorems = [
        _family("T1.1", 8, (_verify("T1.1", n=n, m=m, lam=lam)
                            for n in (2, 3) for m in (0, 1, 2) for lam in t11_lams)),
        _family("T1.2", 8, (_verify("T1.2", n=n, m=m, lam=lam)
                            for n, m in small_nm for lam in lams)),
        _family("T3.3", 8, (_verify("T3.3", n=n, m=m, lam=lam)
                            for n, m in small_nm for lam in lams)),
        _family("prop33", 6, (_verify("Prop33", n=n, m=m, r=r, degree=6)
                              for n in (2, 3) for m in (-2, -1, 1, 2)
                              for r in range(-4, 7) if r - n * m <= 2)),
        _family("corLtilde", 6, (_verify("CorLtilde", n=n, m=m, r=r, degree=6)
                                 for n in (2, 3) for m in (1, 2)
                                 for r in range(-4, 7) if r <= 4)),
        _family("bracket", 6, (_verify("Bracket", n=n, i=i, j=j, degree=8)
                               for n in (2, 3) for i in range(-2, 3)
                               for j in range(-2, 3))),
        _family("vm", 6, (_verify("VmQ", n=n, m=m, lam=lam)
                          for n, m in small_nm for lam in ([], [1], [2, 1]))),
    ]
    # a thin slice at xi_5, which costs about eight times xi_3 for one mix
    xi5 = _family("xi5", 8, itertools.chain(
        (["straighten", "xi:5", lam] for lam in
         ([1, 2], [0, 3], [1, 3], [2, 3], [1, 1, 2], [1, 2, 1], [-1, 2, 2])),
        (_verify("T1.1", n=5, m=m, lam=lam)
         for m in (0, 1) for lam in ([], [1], [2], [1, 1], [2, 1])),
        (_verify("T3.3", n=5, m=1, lam=lam) for lam in ([], [1], [2])),
    ))
    return (_straighten_families("xi:3", 6, 24, 8)
            + _sweep_families("xi:3", "", (4, 4, 4, 3), 1, 1, skip_perp=(3, 6))
            + _formula_families("xi:3", "", 8, 8, skip_r=(3,))
            + theorems + [xi5])


def _rational_rho() -> list[Family]:
    lams8 = [list(lam) for lam in partitions_upto(8, 3) + NON_PARTITIONS]
    schur = [
        _family("TA", 16, (_verify(case, m=m, lam=lam)
                           for case in ("TA.3", "TA.4")
                           for m in range(1, 5) for lam in lams8)),
        _family("schur-commutators", 8, (
            _verify(case, m=m, r=r, degree=6)
            for case in ("LemmaA1", "CorA2") for m in (-2, -1, 1, 2)
            for r in range(-4, 7) if r <= 4)),
        _family("base-remark", 6, (_verify(case, m=m)
                                   for case in ("BaseA", "RemarkA")
                                   for m in range(1, 7))),
        _family("border-strips", 10, (["strips", r, list(lam)]
                                      for r in range(1, 5)
                                      for lam in partitions_upto(6))),
    ]
    per_rho = []
    for rho, tag in (("0", "@0"), ("2", "@2")):
        per_rho += _straighten_families(rho, 7, 16, 6, tag)
        per_rho += _sweep_families(rho, tag, (4, 4, 4, 3), 2, 2)
        per_rho += _formula_families(rho, tag, 6, 6)
    return per_rho + schur


def _cli_pool() -> list[Family]:
    """Fresh ``python -m hlvir`` calls with their documented exit codes."""
    ok = [
        "q --rho generic --lambda 2,1", "q --rho 0 --lambda 3,1",
        "q --rho 2 --lambda 2,2", "q --rho -1 --lambda 3,1",
        "q --rho 1/2 --lambda 2,1", "q --rho xi:2 --lambda 3,2",
        "q --rho xi:3 --lambda 2,1,1", "q --rho xi:5 --lambda 3",
        "q --rho generic --lambda ''", "q --rho 0 --lambda 1,-2",
        "straighten --rho generic --lambda 1,2",
        "straighten --rho 0 --lambda 1,3,2", "straighten --rho 2 --lambda 0,2,1",
        "straighten --rho xi:2 --lambda 1,3", "straighten --rho xi:3 --lambda 2,-1,3",
        "coeff --rho generic --mu 2,1", "coeff --rho 0 --mu 2,1,1",
        "coeff --rho xi:2 --mu 2,1", "coeff --rho xi:3 --mu 3,2,1",
        "coeff --rho -1 --mu 3,1",
        "mulp --rho 0 --lambda 2 --r 2", "mulp --rho generic --lambda 1,1 --r 2",
        "mulp --rho xi:3 --lambda 2,1 --r 2", "mulp --rho 2 --lambda 1,2 --r 1",
        "apply --op L:n=2,m=-1 --rho xi:2 --lambda 0",
        "apply --op Lhat:n=3,m=1 --rho xi:3 --lambda 2,1",
        "apply --op Ltilde:n=2,m=1 --rho generic --lambda 2",
        "apply --op W:n=2,m=1 --rho 0 --lambda 2,1",
        "apply --op V:n=3,m=1 --rho xi:3 --lambda 1",
        "apply --op LS:m=-2 --rho 0 --lambda 2,1",
        "apply --op WS:m=3 --rho 0 --lambda 2,1",
        "verify --case T1.1 --n 2 --m 1 --lambda 2,1",
        "verify --case T1.2 --n 2 --m 1 --lambda 0",
        "verify --case T3.3 --n 3 --m 1 --lambda 1",
        "verify --case TA.3 --m 2 --lambda 3,1",
        "verify --case TA.4 --m 1 --lambda 2,1",
        "verify --case bracket --n 2 --i 1 --j -1 --degree 4",
        "verify --case mult --r 2 --lambda 2,1 --rho generic",
        "verify --case deriv --r 1 --lambda 2,1 --rho xi:3",
        "verify --case baseA --m 3", "verify --case remarkA --m 4",
        "verify --case exchange --i 0 --j 1 --rho generic --degree 3",
        "verify --case prB --r 2 --m 1 --rho xi:2 --degree 3",
        "verify --case trPerpB --r 1 --m 0 --rho 0 --degree 3",
        "verify --case prop33 --n 2 --m 1 --r 1 --degree 3",
        "verify --case corLtilde --n 3 --m 1 --r 0 --degree 3",
        "verify --case lemma32 --r 1 --rho 2 --degree 3",
        "verify --case lemmaA1 --m -1 --r 1 --degree 3",
        "verify --case corA2 --m 1 --r 2 --degree 3",
        "verify --case vm --n 2 --m 1 --lambda 1",
    ]
    usage = [
        "q --rho xi:100 --lambda 1", "q --rho 0 --lambda 1,a",
        "q --rho xi:1 --lambda 1", "verify --case nope --m 1",
        "verify --case T1.1 --n 2 --lambda 1", "apply --op X:m=1 --rho 0 --lambda 1",
        "apply --op L:n=2 --rho xi:2 --lambda 1",
        "mulp --rho 0 --lambda 1 --r 0",
    ]
    singular = ["coeff --rho xi:2 --mu 1,1", "mulp --rho xi:2 --lambda 1 --r 2",
                "coeff --rho 1 --mu 1,1"]
    degenerate = ["verify --case trPerpB --r 2 --m 0 --rho xi:2 --degree 3",
                  "verify --case trPerpB --r 3 --m 1 --rho xi:3 --degree 2"]
    families = []
    for name, lines, code in (("cli-ok", ok, 0), ("cli-usage", usage, 2),
                              ("cli-singular", singular, 3),
                              ("cli-degenerate", degenerate, 4)):
        families.append(Family(name, tuple(
            ["cli", _split(line) + ["--format=" + ("json" if k % 2 else "text")], code]
            for k, line in enumerate(lines))))
    return families


def _split(line: str) -> list[str]:
    return [("" if tok == "''" else tok) for tok in line.split()]


WORKLOADS = {
    "generic-rho": _generic_rho,
    "root-of-unity": _root_of_unity,
    "rational-rho": _rational_rho,
    "cli-queries": _cli_pool,
}


def families(workload: str) -> list[Family]:
    try:
        build = WORKLOADS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         + ", ".join(WORKLOADS)) from None
    return build()


def round_ops(workload: str) -> list:
    """The fixed multiset of ops that one round runs."""
    return [op for fam in families(workload) for op in fam.ops]


def all_ops() -> list:
    """Every op of every workload, each once, in a fixed order."""
    seen, out = set(), []
    for workload in WORKLOADS:
        for op in round_ops(workload):
            key = op_key(op)
            if key not in seen:
                seen.add(key)
                out.append(op)
    return out


# ---------------------------------------------------------------------------
# seeded streams

SESSION_OPS = 32   # ops per fresh interpreter in the in-process workloads


def rounds(workload: str, seed: int):
    """Endless stream of rounds, each a list of sessions (lists of ops).

    A round runs every op of ``round_ops`` once.  The seed draws which
    session each op goes to and the order of ops and of sessions, so runs of
    different seeds do the same work in different orders and with different
    cache sharing.  Each family is dealt out evenly over the sessions, so
    every session holds the same mix.  The same seed gives the same
    stream."""
    rng = random.Random(f"{workload}/{seed}")
    fams = families(workload)
    size = 1 if workload == "cli-queries" else SESSION_OPS
    n_sessions = -(-sum(len(f.ops) for f in fams) // size)
    while True:
        sessions = [[] for _ in range(n_sessions)]
        dealt = 0
        for fam in fams:
            ops = list(fam.ops)
            rng.shuffle(ops)
            for op in ops:
                sessions[dealt % n_sessions].append(op)
                dealt += 1
        for batch in sessions:
            rng.shuffle(batch)
        rng.shuffle(sessions)
        yield sessions

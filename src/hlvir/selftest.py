"""Desk-scale self-verification: sweep every identity the package implements
over small exact parameter ranges and report one pass/fail line per criterion.

Everything here is exact; a criterion passes only if every single case in its
sweep holds as an equality of canonical polynomial forms.  The criteria are
the rows of one table, ``CRITERIA``, each run by ``run_criterion``.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from typing import Callable, Optional

from .exactnum import QQ, RHO_GENERIC, RHO_ZERO, RhoSpec
from .structure import (SingularCoefficientError, c_coeff, mn_expand,
                        multiply_p, p_expand, partitions, straighten)
from .tring import TPoly
from .vertex import QCombination, clear_caches, hl_q
from .virasoro import TheoremCase, build_operator, verify_case

MAX_FAILURES_KEPT = 5


class CriterionResult:
    __slots__ = ("number", "name", "passed", "cases", "seconds", "failures")

    def __init__(self, number: int, name: str, passed: bool, cases: int,
                 seconds: float, failures=()):
        self.number, self.name, self.passed = number, name, passed
        self.cases, self.seconds, self.failures = cases, seconds, list(failures)

    def to_json(self) -> dict:
        return {"number": self.number, "name": self.name, "passed": self.passed,
                "cases": self.cases, "seconds": self.seconds,
                "failures": self.failures}

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (f"[{self.number:2d}] {status}  {self.name}"
               f"  cases={self.cases}  t={self.seconds:.1f}s")
        if not self.passed and self.failures:
            out += f"  first: {self.failures[0]}"
        return out


class Grid:
    """``verify_case(case_id, **cell)`` at every cell of the product of the
    axes, taken in the order given; a cell where ``skip(**cell)`` holds is
    not a case.  A failure reads ``<case id> k=v ... [detail]``."""

    __slots__ = ("case_id", "axes", "skip")

    def __init__(self, case_id: str, axes: dict,
                 skip: Optional[Callable[..., bool]] = None):
        self.case_id, self.axes, self.skip = case_id, axes, skip

    def __call__(self):
        for values in itertools.product(*self.axes.values()):
            cell = dict(zip(self.axes, values))
            if self.skip is not None and self.skip(**cell):
                continue
            v = verify_case(TheoremCase(self.case_id, **cell))
            yield v.equal, lambda: " ".join(
                [self.case_id] + [f"{k}={x.to_text() if k == 'rho' else x}"
                                  for k, x in cell.items()]
                + ([v.detail] if v.detail else []))


class Criterion:
    __slots__ = ("number", "name", "checks")

    def __init__(self, number: int, name: str, checks: tuple):
        # Grids and generator functions, run in order; each yields checks (ok,
        # describe): the failure text, or a thunk called before the source
        # resumes
        self.number, self.name, self.checks = number, name, checks


def run_criterion(row: Criterion) -> CriterionResult:
    """Run every check of one row; keep the first failures and mark the
    rest with a single "..."."""
    t0 = time.monotonic()
    cases, failures = 0, []
    for source in row.checks:
        for ok, describe in source():
            cases += 1
            if not ok and len(failures) < MAX_FAILURES_KEPT:
                failures.append(describe() if callable(describe) else describe)
            elif not ok:
                failures[MAX_FAILURES_KEPT:] = ["..."]
    return CriterionResult(row.number, row.name, not failures, cases,
                           time.monotonic() - t0, failures)


def _int_vectors(max_len: int, lo: int, hi: int, max_size: int):
    """All integer vectors of length <= max_len, entries in [lo, hi],
    entry sum <= max_size."""
    yield ()
    for length in range(1, max_len + 1):
        for v in itertools.product(range(lo, hi + 1), repeat=length):
            if sum(v) <= max_size:
                yield v


def _partitions_upto(max_size: int, max_len: int | None = None):
    return [mu for d in range(max_size + 1) for mu in partitions(d)
            if max_len is None or len(mu) <= max_len]


_NON_PARTITIONS = ((0,), (0, 2), (2, -1, 1), (1, 0, 2))
_LAMS6 = tuple(_partitions_upto(6, 3)) + _NON_PARTITIONS
_LAMS8 = tuple(_partitions_upto(8, 3)) + _NON_PARTITIONS
_X2, _X3 = RhoSpec.root(2), RhoSpec.root(3)
_R_RANGE = range(-4, 7)
_M_RANGE = (-2, -1, 1, 2)


def _anchor():
    v = verify_case(TheoremCase("T1.2", n=2, m=1, lam=(0,)))
    yield (v.equal and v.lhs.to_text() == "1/2*t1^2",
           lambda: f"anchor sides {v.lhs.to_text()} / {v.rhs.to_text()}")


def _central_constant():
    yield (Fraction(2 * 2 * (2 - 1) * (2 ** 3 - 2), 12) == 2,
           "central constant at n=2, i=2 is not 2")


def _refusals_and_p_expansions():
    for rho in (_X2, _X3):
        for r in range(rho.order, 6, rho.order):
            try:
                multiply_p(r, QCombination.single(rho.field, (1,)), rho)
                yield False, f"rho={rho.to_text()} r={r}: no refusal"
            except SingularCoefficientError:
                yield True, ""
    for r in range(1, 7):
        got = p_expand(r, RHO_GENERIC).evaluate(RHO_GENERIC)
        want = TPoly.var(RHO_GENERIC.field, r, r)
        yield got == want, lambda: f"p-expansion r={r}: {got.to_text()}"


def _straightening():
    for rho in (RHO_GENERIC, RHO_ZERO, _X2, _X3):
        for length in range(0, 5):
            for lam in itertools.product(range(-3, 5), repeat=length):
                ok = straighten(lam, rho).evaluate(rho) == hl_q(lam, rho)
                yield ok, lambda: f"rho={rho.to_text()} lam={lam}"


def _coefficients():
    # hooks at rho = 0
    for mu in _partitions_upto(8):
        if not mu:
            continue
        hook = all(x == 1 for x in mu[1:])
        want = Fraction((-1) ** (len(mu) - 1)) if hook else Fraction(0)
        got = c_coeff(mu, RHO_ZERO)
        yield got == want, lambda: f"c_{mu} at 0: {got} != {want}"
    # two-row coefficients at the second root of unity
    for k in range(1, 9):
        for m in range(0, min(k, 9 - k)):
            mu = (k, m) if m else (k,)
            want = _X2.field.from_fraction(Fraction((-1) ** m, 2))
            try:
                got = c_coeff(mu, _X2)
                yield got == want, lambda: f"c_{mu} at xi_2: {got}"
            except SingularCoefficientError:
                yield False, f"c_{mu} at xi_2: undefined"
    # claimed vanishing for long partitions: checked literally
    for rho in (_X2, _X3):
        n = rho.order
        for mu in _partitions_upto(8):
            if len(mu) < n + 1:
                continue
            try:
                got = c_coeff(mu, rho)
                yield (got == rho.field.zero,
                       lambda: f"c_{mu} at xi_{n} = {got.to_text()} != 0")
            except SingularCoefficientError:
                yield False, f"c_{mu} at xi_{n}: undefined"


def _border_strips():
    """The border-strip rule against multiplication plus straightening."""
    for r in range(1, 5):
        for lam in _partitions_upto(6):
            want = QCombination.from_terms(QQ, (
                (mu, Fraction(sign)) for sign, mu in mn_expand(r, lam)))
            got = QCombination.zero(QQ)
            mp = multiply_p(r, QCombination.single(QQ, lam), RHO_ZERO)
            for label, c in mp.terms.items():
                got = got + straighten(label, RHO_ZERO).scale(c)
            yield got == want, lambda: f"border strips r={r} lam={lam}"


def _schur_normalization():
    """The two published normalizations of the Schur-side operator coincide
    for m >= 1: no multiplication-only quadratic terms may appear."""
    for m in range(1, 5):
        op = build_operator("LS", m)
        ok = all(all(kind == "der" for kind, _ in term.factors)
                 for term in op.finite)
        ok = ok and op.skip is None
        yield ok, lambda: f"normalization mismatch at m={m}"


def _variable_independence():
    for rho in (_X2, _X3):
        n = rho.order
        for lam in _partitions_upto(8, 3):
            f = hl_q(lam, rho)
            bad = sorted({v for mono in f.terms for v, _ in mono if v % n == 0})
            yield not bad, lambda: f"n={n} lam={lam}: contains t{bad[0]}"


CRITERIA = (
    Criterion(1, "nonnegative-mode action sweep", (
        Grid("T1.1", dict(n=(2, 3, 4), m=(0, 1, 2),
                          lam=tuple(_int_vectors(3, -2, 4, 8)))),)),
    Criterion(2, "negative-mode action sweep", (
        Grid("T1.2", dict(n=(2, 3), m=(1, 2), lam=_LAMS6)), _anchor)),
    Criterion(3, "first-order negative-mode action sweep", (
        Grid("T3.3", dict(n=(2, 3), m=(1, 2), lam=_LAMS6)),)),
    Criterion(4, "commutation relations", (
        _central_constant,
        Grid("Bracket", dict(n=(2, 3), i=range(-2, 3), j=range(-2, 3),
                             degree=(8,))))),
    Criterion(5, "power-sum multiplication rule", (
        Grid("MultFormula", dict(rho=(RHO_GENERIC, RHO_ZERO, _X2, _X3),
                                 r=range(1, 6), lam=_LAMS6),
             lambda rho, r, lam: rho.kind == "root" and r % rho.order == 0),
        _refusals_and_p_expansions)),
    Criterion(6, "derivative rule", (
        Grid("DerivFormula", dict(rho=(RHO_GENERIC, _X2, _X3),
                                  r=range(1, 6), lam=_LAMS6)),)),
    Criterion(7, "straightening soundness", (_straightening,)),
    Criterion(8, "coefficient spot checks", (_coefficients,)),
    Criterion(9, "Schur specialization suite", (
        Grid("TA.3", dict(m=range(1, 5), lam=_LAMS8)),
        Grid("TA.4", dict(m=range(1, 5), lam=_LAMS8)),
        Grid("BaseA", dict(m=range(1, 7))),
        Grid("RemarkA", dict(m=range(1, 7))),
        _border_strips, _schur_normalization)),
    Criterion(10, "root-of-unity variable independence",
              (_variable_independence,)),
    Criterion(11, "operator-identity suite", (
        Grid("Exchange", dict(rho=(RHO_GENERIC, _X2), i=range(-2, 3),
                              j=_R_RANGE, degree=(6,))),
        Grid("PrB", dict(rho=(RHO_GENERIC, _X2), r=range(1, 7),
                         m=range(-2, 3), degree=(6,))),
        Grid("TrPerpB", dict(rho=(RHO_GENERIC, _X2), r=range(1, 7),
                             m=range(-2, 3), degree=(6,)),
             lambda rho, r, **_: not rho.one_minus_rho_pow(r)),
        Grid("Prop33", dict(n=(2, 3), m=_M_RANGE, r=_R_RANGE, degree=(6,))),
        Grid("CorLtilde", dict(n=(2, 3), m=(1, 2), r=_R_RANGE, degree=(6,))),
        Grid("Lemma32", dict(rho=(RHO_GENERIC, RHO_ZERO, _X2, _X3),
                             r=_R_RANGE, degree=(6,))),
        Grid("LemmaA1", dict(m=_M_RANGE, r=_R_RANGE, degree=(6,))),
        Grid("CorA2", dict(m=_M_RANGE, r=_R_RANGE, degree=(6,))),
        Grid("VmQ", dict(n=(2, 3), m=(1, 2), lam=((), (1,), (2, 1)))))),
)


def run_desk(echo=None) -> list[CriterionResult]:
    """Run every row of ``CRITERIA``, each from empty caches so that its time
    does not depend on the rows before it; optionally print each line as it
    completes."""
    results = []
    for row in CRITERIA:
        clear_caches()
        res = run_criterion(row)
        results.append(res)
        if echo is not None:
            echo(res.line())
    return results

"""Virasoro-type operators on the t-ring, the closed-form right-hand sides of
their action on the Q polynomials, and exact verification drivers.

Families (all coefficients rational, applied over any coefficient field):

* Lmn:   sum_{k>=1, n!|k} k t_k d_{k+nm} + (1/2) sum_{k=1, n!|k}^{mn-1} d_k d_{mn-k}
         - (1/2) sum_{k=1, n!|k}^{-mn-1} k(mn+k) t_k t_{-mn-k} + delta_{m,0} (n^2-1)/24,
         with t_k = 0 and d_k = 0 for k <= 0.
* Lhat:  sum_{k>=1} k t_k d_{k+mn}  (no divisibility filter).
* Ltilde: Lhat + (1/2) sum_{k=1}^{mn-1} d_k d_{mn-k}.
* Wmn:   sum_{k=1}^{mn-1} d_k d_{mn-k}  (m >= 1).
* Vmn:   sum_{k=1, n!|k}^{mn-1} p_k p_{mn-k}  (m >= 1, multiplication only).
* LS/WS: the n = 1 forms acting on Schur polynomials (no filter, no constant).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .exactnum import QQ, RHO_ZERO, RhoSpec
from .structure import c_coeff, multiply_p, partitions
from .tring import (FamilyRule, LinOperator, OpTerm, TPoly, apply,
                    commutator_apply, mono_from_exponents)
from .vertex import Label, QCombination, apply_B, hl_q, perp_t

FAMILIES = ("Lmn", "Lhat", "Ltilde", "Wmn", "Vmn", "LS", "WS")


@dataclass(frozen=True)
class VirasoroSpec:
    """Which operator to build: family, mode index m, and (except for the
    Schur families LS/WS) the root-of-unity order n >= 2."""

    family: str
    m: int
    n: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown operator family {self.family!r}")
        if self.family in ("LS", "WS"):
            if self.n is not None:
                raise ValueError(f"{self.family} does not take an order n")
        else:
            if self.n is None or self.n < 2:
                raise ValueError(f"{self.family} needs an order n >= 2")
        if self.family in ("Wmn", "Vmn") and self.m < 1:
            raise ValueError(f"{self.family} is defined for m >= 1 only")


def _grading_family(n: int, m: int, skip: Optional[int]) -> FamilyRule:
    """sum_k k t_k d_{k+nm}, truncated to derivative indices >= 1."""
    nm = n * m
    return FamilyRule(factors=(("mul", 0), ("der", nm)), k_power=1,
                      k_min=max(1, 1 - nm), skip_multiples_of=skip)


def _second_order_terms(n: int, m: int, skip: Optional[int]) -> list[OpTerm]:
    nm = n * m
    out = []
    if m > 0:
        for k in range(1, nm):
            if skip is not None and k % skip == 0:
                continue
            out.append(OpTerm(Fraction(1, 2), (("der", k), ("der", nm - k))))
    elif m < 0:
        for k in range(1, -nm):
            if skip is not None and k % skip == 0:
                continue
            out.append(OpTerm(Fraction(-k * (nm + k), 2),
                              (("mul", k), ("mul", -nm - k))))
    return out


# Not in the vertex cache registry: small rho-free term lists, one per
# operator spec, shared by every field.
@lru_cache(maxsize=None)
def build_operator(spec: VirasoroSpec) -> LinOperator:
    family, m, n = spec.family, spec.m, spec.n
    if family == "Lmn":
        finite = _second_order_terms(n, m, n)
        if m == 0:
            finite.append(OpTerm(Fraction(n * n - 1, 24), ()))
        return LinOperator(tuple(finite), (_grading_family(n, m, n),))
    if family == "LS":
        finite = _second_order_terms(1, m, None)
        return LinOperator(tuple(finite), (_grading_family(1, m, None),))
    if family == "Lhat":
        return LinOperator((), (_grading_family(n, m, None),))
    if family == "Ltilde":
        finite = []
        if m > 0:
            finite = [OpTerm(Fraction(1, 2), (("der", k), ("der", n * m - k)))
                      for k in range(1, n * m)]
        return LinOperator(tuple(finite), (_grading_family(n, m, None),))
    if family == "Wmn":
        return LinOperator(tuple(
            OpTerm(Fraction(1), (("der", k), ("der", n * m - k)))
            for k in range(1, n * m)), ())
    if family == "Vmn":
        return LinOperator(tuple(
            OpTerm(Fraction(k * (n * m - k)), (("mul", k), ("mul", n * m - k)))
            for k in range(1, n * m) if k % n != 0), ())
    if family == "WS":
        if m >= 0:
            return LinOperator(tuple(
                OpTerm(Fraction(1), (("der", k), ("der", m - k)))
                for k in range(1, m)), ())
        return LinOperator(tuple(
            OpTerm(Fraction(k * (-m - k)), (("mul", k), ("mul", -m - k)))
            for k in range(1, -m)), ())
    raise AssertionError(family)


# ---------------------------------------------------------------------------
# right-hand sides of the action formulas


def _shift(lam: Label, i: int, a: int) -> Label:
    return lam[:i] + (lam[i] + a,) + lam[i + 1:]


def rhs_T1_1(n: int, m: int, lam) -> QCombination:
    """L_m action on Q_lam at a primitive n-th root of unity, m >= 0."""
    if n < 2 or m < 0:
        raise ValueError("needs n >= 2 and m >= 0")
    rho = RhoSpec.root(n)
    field = rho.field
    lam = tuple(int(x) for x in lam)
    l = len(lam)
    nm = n * m
    items = []
    for i in range(l):
        items.append((_shift(lam, i, -nm), field.from_fraction(lam[i])))
    for k in range(1, nm):
        coeff = field.one - rho.rho_pow(-k)
        if not coeff:
            continue
        for i in range(1, l):
            for j in range(i):
                items.append((_shift(_shift(lam, i, -k), j, -(nm - k)), coeff))
    if m == 0:
        items.append((lam, field.from_fraction(Fraction(n * n - 1, 24))))
    return QCombination.from_terms(field, items)


def rhs_T1_2(n: int, m: int, lam) -> QCombination:
    """L_{-m} action on Q_lam at a primitive n-th root of unity, m >= 1."""
    if n < 2 or m < 1:
        raise ValueError("needs n >= 2 and m >= 1")
    rho = RhoSpec.root(n)
    field = rho.field
    lam = tuple(int(x) for x in lam)
    l = len(lam)
    nm = n * m
    half = field.from_fraction(Fraction(1, 2))
    items = []
    for i in range(l):
        items.append((_shift(lam, i, nm),
                      field.from_fraction(lam[i] + Fraction(m * (n - 1), 2))))
    for k in range(1, nm):
        if k % n == 0:
            continue
        xik = rho.rho_pow(k)
        for i in range(1, l):
            for j in range(i):
                items.append((_shift(_shift(lam, i, k), j, nm - k), xik))
        for mu in partitions(k):
            cmu = c_coeff(mu, rho)
            for i in range(l):
                items.append((_shift(lam, i, nm - k) + mu, xik * cmu))
            for j in range(len(mu)):
                items.append((lam + _shift(mu, j, nm - k), half * cmu))
            for nu in partitions(nm - k):
                items.append((lam + mu + nu, half * cmu * c_coeff(nu, rho)))
    return QCombination.from_terms(field, items)


def rhs_T3_3(n: int, m: int, lam) -> QCombination:
    """Lhat_{-m} action on Q_lam at a primitive n-th root of unity, m >= 1.

    The k-sums of the formula run over 1..mn with weight xi^k - 1, which
    vanishes exactly when n | k; those terms are skipped outright.
    """
    if n < 2 or m < 1:
        raise ValueError("needs n >= 2 and m >= 1")
    rho = RhoSpec.root(n)
    field = rho.field
    lam = tuple(int(x) for x in lam)
    l = len(lam)
    nm = n * m
    items = []
    for i in range(l):
        items.append((_shift(lam, i, nm), field.from_fraction(lam[i])))
    for k in range(1, nm + 1):
        if k % n == 0:
            continue
        coeff = rho.rho_pow(k) - field.one
        for i in range(1, l):
            for j in range(i):
                items.append((_shift(_shift(lam, i, k), j, nm - k), coeff))
        for mu in partitions(k):
            cmu = c_coeff(mu, rho)
            for i in range(l):
                items.append((_shift(lam, i, nm - k) + mu, coeff * cmu))
    return QCombination.from_terms(field, items)


def rhs_TA3(m: int, lam) -> QCombination:
    """L^S_m action on s_lam (rho = 0), m >= 1."""
    if m < 1:
        raise ValueError("needs m >= 1")
    lam = tuple(int(x) for x in lam)
    items = []
    for i in range(1, len(lam) + 1):
        coeff = lam[i - 1] - Fraction(2 * i + m - 1, 2)
        items.append((_shift(lam, i - 1, -m), coeff))
    return QCombination.from_terms(QQ, items)


def rhs_TA4(m: int, lam) -> QCombination:
    """L^S_{-m} action on s_lam (rho = 0), m >= 1."""
    if m < 1:
        raise ValueError("needs m >= 1")
    lam = tuple(int(x) for x in lam)
    l = len(lam)
    items = []
    for i in range(1, l + 1):
        coeff = lam[i - 1] - i + Fraction(m + 1, 2)
        items.append((_shift(lam, i - 1, m), coeff))
    for k in range(1, m + 1):
        coeff = -Fraction((-1) ** (m - k)) * (l - k + Fraction(m + 1, 2))
        items.append((lam + (k,) + (1,) * (m - k), coeff))
    return QCombination.from_terms(QQ, items)


def rhs_Vm(n: int, m: int, lam) -> QCombination:
    """V_m action on Q_lam at a primitive n-th root of unity, m >= 1."""
    if n < 2 or m < 1:
        raise ValueError("needs n >= 2 and m >= 1")
    rho = RhoSpec.root(n)
    field = rho.field
    lam = tuple(int(x) for x in lam)
    l = len(lam)
    nm = n * m
    two = field.from_fraction(2)
    items = []
    for i in range(l):
        items.append((_shift(lam, i, nm), field.from_fraction(m * (n - 1))))
    for k in range(1, nm):
        if k % n == 0:
            continue
        for i in range(1, l):
            for j in range(i):
                items.append((_shift(_shift(lam, i, k), j, nm - k), two))
        for mu in partitions(k):
            cmu = c_coeff(mu, rho)
            for i in range(l):
                items.append((_shift(lam, i, nm - k) + mu, two * cmu))
            for j in range(len(mu)):
                items.append((lam + _shift(mu, j, nm - k), cmu))
            for nu in partitions(nm - k):
                items.append((lam + mu + nu, cmu * c_coeff(nu, rho)))
    return QCombination.from_terms(field, items)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class TheoremCase:
    """One verifiable instance: a theorem id plus its parameters.

    Single-instance ids compare the two sides on one lam; operator-identity
    ids sweep all monomials up to the degree bound.
    """

    id: str
    n: Optional[int] = None
    m: Optional[int] = None
    i: Optional[int] = None
    j: Optional[int] = None
    r: Optional[int] = None
    lam: Optional[tuple] = None
    degree: Optional[int] = None
    rho: Optional[RhoSpec] = None


@dataclass(frozen=True)
class Verdict:
    case: TheoremCase
    equal: bool
    lhs: TPoly
    rhs: TPoly
    diff: TPoly
    detail: str = ""

    def to_json(self) -> dict:
        case: dict = {"id": self.case.id}
        for name in ("n", "m", "i", "j", "r", "degree"):
            value = getattr(self.case, name)
            if value is not None:
                case[name] = value
        if self.case.lam is not None:
            case["lambda"] = list(self.case.lam)
        if self.case.rho is not None:
            case["rho"] = self.case.rho.to_text()
        out = {"case": case, "equal": self.equal,
               "lhs": self.lhs.to_json(), "rhs": self.rhs.to_json(),
               "diff": self.diff.to_json()}
        if self.detail:
            out["detail"] = self.detail
        return out


def monomial_basis(field, max_degree: int) -> list[TPoly]:
    """All monomials t_mu (coefficient 1) of degree <= max_degree."""
    out = []
    for d in range(max_degree + 1):
        for mu in partitions(d):
            counts: dict[int, int] = {}
            for x in mu:
                counts[x] = counts.get(x, 0) + 1
            mono = mono_from_exponents(counts.items())
            out.append(TPoly(field, {mono: field.one}))
    return out


def _p_mul(r: int, f: TPoly) -> TPoly:
    return f.mul_var(r, Fraction(r))


def _commutator_with_b(op: LinOperator, r: int, f: TPoly, rho: RhoSpec) -> TPoly:
    return apply(op, apply_B(r, f, rho)) - apply_B(r, apply(op, f), rho)


# single-instance identities: each returns (lhs, rhs)


def _action(rho: RhoSpec, spec: VirasoroSpec, lam, rhs_comb: QCombination):
    """An operator applied to Q_lam, against the closed form of its action."""
    return apply(build_operator(spec), hl_q(lam, rho)), rhs_comb.evaluate(rho)


def _base_a(m: int):
    lhs = apply(build_operator(VirasoroSpec("LS", -m)), TPoly.one(QQ))
    rhs = QCombination.from_terms(QQ, (
        ((k,) + (1,) * (m - k),
         Fraction((-1) ** (m - k + 1)) * (Fraction(m + 1, 2) - k))
        for k in range(1, m + 1))).evaluate(RHO_ZERO)
    return lhs, rhs


def _remark_a(m: int):
    lhs = TPoly.zero(QQ)
    for k in range(1, m):
        lhs = lhs + TPoly.one(QQ).mul_var(k).mul_var(m - k, Fraction(k * (m - k)))
    rhs = QCombination.from_terms(QQ, (
        ((k,) + (1,) * (m - k), Fraction((-1) ** (m - k) * (2 * k - m - 1)))
        for k in range(1, m + 1))).evaluate(RHO_ZERO)
    return lhs, rhs


def _mult(r: int, lam, rho: RhoSpec):
    return (_p_mul(r, hl_q(lam, rho)),
            multiply_p(r, QCombination.single(rho.field, lam), rho).evaluate(rho))


def _deriv(r: int, lam, rho: RhoSpec):
    lam = tuple(lam)
    lhs = hl_q(lam, rho).diff(r)
    rhs = TPoly.zero(rho.field)
    for i in range(len(lam)):
        rhs = rhs + hl_q(_shift(lam, i, -r), rho)
    return lhs, rhs.scale(rho.one_minus_rho_pow(r))


# sweeps: each returns (rho, sides), with sides(f) -> (lhs, rhs)


def _bracket(n: int, i: int, j: int):
    rho = RhoSpec.root(n)
    op_i = build_operator(VirasoroSpec("Lmn", i, n))
    op_j = build_operator(VirasoroSpec("Lmn", j, n))
    op_ij = build_operator(VirasoroSpec("Lmn", i + j, n))
    central = Fraction(n * n * (n - 1) * (i ** 3 - i), 12) if i + j == 0 else Fraction(0)
    return rho, lambda f: (
        commutator_apply(op_i, op_j, f),
        apply(op_ij, f).scale(Fraction(n * (i - j))) + f.scale(central))


def _exchange(i: int, j: int, rho: RhoSpec):
    rho1 = rho.rho_pow(1)
    return rho, lambda f: (
        apply_B(i - 1, apply_B(j, f, rho), rho)
        - apply_B(i, apply_B(j - 1, f, rho), rho).scale(rho1),
        apply_B(j, apply_B(i - 1, f, rho), rho).scale(rho1)
        - apply_B(j - 1, apply_B(i, f, rho), rho))


def _pr_b(r: int, m: int, rho: RhoSpec):
    return rho, lambda f: (
        _p_mul(r, apply_B(m, f, rho)),
        apply_B(m, _p_mul(r, f), rho) + apply_B(m + r, f, rho))


def _tr_perp_b(r: int, m: int, rho: RhoSpec):
    return rho, lambda f: (
        perp_t(r, apply_B(m, f, rho), rho),
        apply_B(m - r, f, rho).scale(Fraction(1, r))
        + apply_B(m, perp_t(r, f, rho), rho))


def _prop33(rho: RhoSpec, op: LinOperator, n: int, m: int, r: int):
    """[Lhat_m, B_r] in closed form (Prop. 3.3); at n = 1 and rho = 0, where
    every weight 1 - rho^k is 1, this is Lemma A.1."""
    nm = n * m

    def sides(f: TPoly):
        lhs = _commutator_with_b(op, r, f, rho)
        if m >= 1:
            rhs = apply_B(r - nm, f, rho).scale(Fraction(r - nm))
            for k in range(1, nm + 1):
                df = f.diff(k)
                if df:
                    rhs = rhs - apply_B(r - nm + k, df, rho)
        else:
            rhs = apply_B(r - nm, f, rho).scale(Fraction(r))
            for k in range(1, -nm + 1):
                coeff = rho.one_minus_rho_pow(k)
                if coeff:
                    rhs = rhs - apply_B(r - nm - k, _p_mul(k, f), rho).scale(coeff)
        return lhs, rhs

    return rho, sides


def _cor_ltilde(n: int, m: int, r: int):
    rho = RhoSpec.root(n)
    op = build_operator(VirasoroSpec("Ltilde", m, n))
    nm = n * m

    def sides(f: TPoly):
        lhs = _commutator_with_b(op, r, f, rho)
        rhs = apply_B(r - nm, f, rho).scale(Fraction(r))
        for k in range(1, nm + 1):
            df = f.diff(k)
            if df:
                rhs = rhs - apply_B(r - nm + k, df, rho).scale(rho.rho_pow(-k))
        return lhs, rhs

    return rho, sides


def _lemma32(r: int, rho: RhoSpec):
    def sides(f: TPoly):
        a = max(f.degree(), 0)
        big_n = max(a, a + r) + 1
        lhs = TPoly.zero(rho.field)
        rhs = TPoly.zero(rho.field)
        for k in range(1, big_n + 1):
            omr = rho.one_minus_rho_pow(k)
            if omr:
                lhs = lhs + apply_B(r - k, _p_mul(k, f), rho).scale(omr)
            df = f.diff(k)
            if df:
                rhs = rhs - apply_B(r + k, df, rho)
        scalar = rho.field.from_fraction(Fraction(r))
        for k in range(1, big_n + 1):
            scalar = scalar - rho.one_minus_rho_pow(k)
        return lhs, rhs + apply_B(r, f, rho).scale(scalar)

    return rho, sides


def _cor_a2(m: int, r: int):
    op = build_operator(VirasoroSpec("LS", m))

    def sides(f: TPoly):
        lhs = _commutator_with_b(op, r, f, RHO_ZERO)
        rhs = apply_B(r - m, f, RHO_ZERO).scale(r - Fraction(m + 1, 2))
        if m >= 1:
            df = f.diff(m)
            if df:
                rhs = rhs - apply_B(r, df, RHO_ZERO)
        else:
            rhs = rhs - apply_B(r, _p_mul(-m, f), RHO_ZERO)
        return lhs, rhs

    return RHO_ZERO, sides


@dataclass(frozen=True)
class Identity:
    """One verifiable identity: its case id, its CLI name, and ``fn``, a
    function of the case's ``fields`` in order.  A single-instance ``fn``
    returns (lhs, rhs).  A sweep also needs the case's ``degree``; its ``fn``
    returns (rho, sides), and sides(f) -> (lhs, rhs) is compared on every
    monomial f up to that degree.  ``guard`` is an extra condition on one
    field, such as "m >= 1"."""

    id: str
    name: str
    fields: tuple[str, ...]
    sweep: bool
    fn: Callable
    guard: Optional[str] = None


IDENTITIES = (
    Identity("T1.1", "T1.1", ("n", "m", "lam"), False, lambda n, m, lam: _action(
        RhoSpec.root(n), VirasoroSpec("Lmn", m, n), lam, rhs_T1_1(n, m, lam))),
    Identity("T1.2", "T1.2", ("n", "m", "lam"), False, lambda n, m, lam: _action(
        RhoSpec.root(n), VirasoroSpec("Lmn", -m, n), lam, rhs_T1_2(n, m, lam))),
    Identity("T3.3", "T3.3", ("n", "m", "lam"), False, lambda n, m, lam: _action(
        RhoSpec.root(n), VirasoroSpec("Lhat", -m, n), lam, rhs_T3_3(n, m, lam))),
    Identity("TA.3", "TA.3", ("m", "lam"), False, lambda m, lam: _action(
        RHO_ZERO, VirasoroSpec("LS", m), lam, rhs_TA3(m, lam))),
    Identity("TA.4", "TA.4", ("m", "lam"), False, lambda m, lam: _action(
        RHO_ZERO, VirasoroSpec("LS", -m), lam, rhs_TA4(m, lam))),
    Identity("BaseA", "baseA", ("m",), False, _base_a, "m >= 1"),
    Identity("RemarkA", "remarkA", ("m",), False, _remark_a, "m >= 1"),
    Identity("MultFormula", "mult", ("r", "lam", "rho"), False, _mult),
    Identity("DerivFormula", "deriv", ("r", "lam", "rho"), False, _deriv, "r >= 1"),
    Identity("Bracket", "bracket", ("n", "i", "j"), True, _bracket),
    Identity("Exchange", "exchange", ("i", "j", "rho"), True, _exchange),
    Identity("PrB", "prB", ("r", "m", "rho"), True, _pr_b, "r >= 1"),
    Identity("TrPerpB", "trPerpB", ("r", "m", "rho"), True, _tr_perp_b, "r >= 1"),
    Identity("Prop33", "prop33", ("n", "m", "r"), True, lambda n, m, r: _prop33(
        RhoSpec.root(n), build_operator(VirasoroSpec("Lhat", m, n)), n, m, r),
        "m != 0"),
    Identity("CorLtilde", "corLtilde", ("n", "m", "r"), True, _cor_ltilde, "m >= 1"),
    Identity("Lemma32", "lemma32", ("r", "rho"), True, _lemma32),
    Identity("LemmaA1", "lemmaA1", ("m", "r"), True, lambda m, r: _prop33(
        RHO_ZERO, LinOperator((), (_grading_family(1, m, None),)), 1, m, r),
        "m != 0"),
    Identity("CorA2", "corA2", ("m", "r"), True, _cor_a2, "m != 0"),
    Identity("VmQ", "vm", ("n", "m", "lam"), False, lambda n, m, lam: _action(
        RhoSpec.root(n), VirasoroSpec("Vmn", m, n), lam, rhs_Vm(n, m, lam))),
)

_BY_ID = {row.id: row for row in IDENTITIES}
CASE_IDS = tuple(_BY_ID)
_GUARD_OPS = {">=": operator.ge, "!=": operator.ne}


def verify_case(case: TheoremCase) -> Verdict:
    """Compare both sides exactly; a sweep reports its first failing monomial."""
    row = _BY_ID.get(case.id)
    if row is None:
        raise ValueError(f"unknown theorem case id {case.id!r}")
    for name in row.fields + (("degree",) if row.sweep else ()):
        if getattr(case, name) is None:
            raise ValueError(f"case {case.id} needs parameter {name!r}")
    if row.guard:
        name, op, bound = row.guard.split()
        if not _GUARD_OPS[op](getattr(case, name), int(bound)):
            raise ValueError(f"{case.id} needs {row.guard}")
    result = row.fn(*(getattr(case, name) for name in row.fields))
    if not row.sweep:
        lhs, rhs = result
        return Verdict(case, lhs == rhs, lhs, rhs, lhs - rhs)
    rho, sides = result
    if case.degree < 0:
        raise ValueError(f"case {case.id} needs degree >= 0, got {case.degree}")
    for f in monomial_basis(rho.field, case.degree):
        lhs, rhs = sides(f)
        if lhs != rhs:
            return Verdict(case, False, lhs, rhs, lhs - rhs,
                           detail=f"first failure on {f.to_text()}")
    zero = TPoly.zero(rho.field)
    return Verdict(case, True, zero, zero, zero)

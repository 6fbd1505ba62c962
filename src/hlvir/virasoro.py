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
* LS/WS: the n = 1 forms of Lmn and Wmn acting on Schur polynomials (no
         filter, no constant); for m < 0, WS is sum_{k=1}^{-m-1} p_k p_{-m-k}.

Each is built from at most two sums, the grading sum sum_k k t_k d_{k+nm}
(``LinOperator.shift`` and ``skip``) and one second-order sum over
k = 1..p-1, plus the constant of Lmn at m = 0.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Optional

from .exactnum import QQ, RHO_ZERO, RhoSpec
from .structure import c_coeff, multiplicities, multiply_p, partitions
from .tring import (LinOperator, OpTerm, TPoly, apply, commutator_apply,
                    mono_from_exponents)
from .vertex import Label, QCombination, apply_B, apply_B_sum, hl_q, perp_t

FAMILIES = ("Lmn", "Lhat", "Ltilde", "Wmn", "Vmn", "LS", "WS")


def _second_order(p: int, kind: str, c: Fraction,
                  skip: Optional[int] = None) -> tuple[OpTerm, ...]:
    """sum_{k=1}^{p-1} c d_k d_{p-k} ("der") or c k(p-k) t_k t_{p-k} ("mul"),
    without the k that are multiples of skip."""
    return tuple(
        OpTerm(c * k * (p - k) if kind == "mul" else c, ((kind, k), (kind, p - k)))
        for k in range(1, p) if skip is None or k % skip)


_HALF, _ONE = Fraction(1, 2), Fraction(1)


def build_operator(family: str, m: int, n: Optional[int] = None) -> LinOperator:
    """The operator of a family at mode index m and, except for the Schur
    families LS/WS, root-of-unity order n >= 2."""
    if family not in FAMILIES:
        raise ValueError(f"unknown operator family {family!r}")
    if family in ("LS", "WS"):
        if n is not None:
            raise ValueError(f"{family} does not take an order n")
    elif n is None or n < 2:
        raise ValueError(f"{family} needs an order n >= 2")
    if family in ("Wmn", "Vmn") and m < 1:
        raise ValueError(f"{family} is defined for m >= 1 only")
    nm = (n or 1) * m
    if family == "Wmn" or (family == "WS" and m >= 0):
        return LinOperator(_second_order(nm, "der", _ONE))
    if family == "WS":
        return LinOperator(_second_order(-m, "mul", _ONE))
    if family == "Vmn":
        return LinOperator(_second_order(nm, "mul", _ONE, n))
    skip = n if family == "Lmn" else None
    finite = ()
    if m > 0 and family != "Lhat":
        finite = _second_order(nm, "der", _HALF, skip)
    elif m < 0 and family in ("Lmn", "LS"):
        finite = _second_order(-nm, "mul", _HALF, skip)
    elif m == 0 and family == "Lmn":
        finite = (OpTerm(Fraction(n * n - 1, 24), ()),)
    return LinOperator(finite, nm, skip)


# ---------------------------------------------------------------------------
# right-hand sides of the action formulas


def _shift(lam: Label, i: int, a: int) -> Label:
    return lam[:i] + (lam[i] + a,) + lam[i + 1:]


def _pair_shifts(lam: Label, a: int, b: int, coeff) -> list:
    """(lam + a e_i + b e_j, coeff) for every i > j."""
    return [(_shift(_shift(lam, i, a), j, b), coeff)
            for i in range(1, len(lam)) for j in range(i)]


def rhs_T1_1(n: int, m: int, lam) -> QCombination:
    """L_m action on Q_lam at a primitive n-th root of unity, m >= 0."""
    if n < 2 or m < 0:
        raise ValueError("needs n >= 2 and m >= 0")
    rho = RhoSpec.root(n)
    field = rho.field
    lam = tuple(int(x) for x in lam)
    nm = n * m
    items = [(_shift(lam, i, -nm), field.from_fraction(x)) for i, x in enumerate(lam)]
    for k in range(1, nm):
        coeff = field.one - rho.rho_pow(-k)
        if coeff:
            items += _pair_shifts(lam, -k, -(nm - k), coeff)
    if m == 0:
        items.append((lam, field.from_fraction(Fraction(n * n - 1, 24))))
    return QCombination.from_terms(field, items)


def _lowering_sum(n: int, m: int, lam, at_root: bool) -> QCombination:
    """The right side of L_{-m} on Q_lam at a primitive n-th root of unity xi
    (at_root), or the same sum with weight 1 in place of xi^k and without
    lam_i in the first coefficient, which is half that of V_m; m >= 1."""
    if n < 2 or m < 1:
        raise ValueError("needs n >= 2 and m >= 1")
    rho = RhoSpec.root(n)
    field = rho.field
    lam = tuple(int(x) for x in lam)
    nm = n * m
    half = field.from_fraction(Fraction(1, 2))
    first = Fraction(m * (n - 1), 2)
    items = [(_shift(lam, i, nm), field.from_fraction(x + first if at_root else first))
             for i, x in enumerate(lam)]
    for k in range(1, nm):
        if k % n == 0:
            continue
        xik = rho.rho_pow(k) if at_root else field.one
        items += _pair_shifts(lam, k, nm - k, xik)
        for mu in partitions(k):
            cmu = c_coeff(mu, rho)
            for i in range(len(lam)):
                items.append((_shift(lam, i, nm - k) + mu, xik * cmu))
            for j in range(len(mu)):
                items.append((lam + _shift(mu, j, nm - k), half * cmu))
            for nu in partitions(nm - k):
                items.append((lam + mu + nu, half * cmu * c_coeff(nu, rho)))
    return QCombination.from_terms(field, items)


def rhs_T1_2(n: int, m: int, lam) -> QCombination:
    """L_{-m} action on Q_lam at a primitive n-th root of unity, m >= 1."""
    return _lowering_sum(n, m, lam, True)


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
    nm = n * m
    items = [(_shift(lam, i, nm), field.from_fraction(x)) for i, x in enumerate(lam)]
    for k in range(1, nm + 1):
        if k % n == 0:
            continue
        coeff = rho.rho_pow(k) - field.one
        items += _pair_shifts(lam, k, nm - k, coeff)
        for mu in partitions(k):
            cmu = c_coeff(mu, rho)
            for i in range(len(lam)):
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
    """V_m action on Q_lam at a primitive n-th root of unity, m >= 1: twice
    the L_{-m} sum with weight 1 in place of xi^k and without lam_i in the
    first coefficient."""
    return _lowering_sum(n, m, lam, False).scale(2)


# ---------------------------------------------------------------------------
# verification


class TheoremCase:
    """One verifiable instance: a theorem id plus the parameters it was given
    (one passed as None is not given), such as n, m, lam, rho and a sweep's
    degree bound.

    Single-instance ids compare the two sides on one lam; operator-identity
    ids sweep all monomials up to the degree bound.
    """

    __slots__ = ("id", "params")

    def __init__(self, id: str, **params):
        self.id = id
        self.params = {name: value for name, value in params.items() if value is not None}


class Verdict:
    __slots__ = ("case", "equal", "lhs", "rhs", "diff", "detail")

    def __init__(self, case: TheoremCase, equal: bool, lhs: TPoly, rhs: TPoly,
                 diff: TPoly, detail: str = ""):
        self.case, self.equal, self.lhs, self.rhs = case, equal, lhs, rhs
        self.diff, self.detail = diff, detail

    def to_json(self) -> dict:
        case: dict = {"id": self.case.id}
        for name, value in self.case.params.items():
            if name == "lam":
                case["lambda"] = list(value)
            else:
                case[name] = value.to_text() if name == "rho" else value
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
            mono = mono_from_exponents(multiplicities(mu).items())
            out.append(TPoly(field, {mono: field.one}))
    return out


def _p_mul(r: int, f: TPoly) -> TPoly:
    return f.mul_var(r, Fraction(r))


# single-instance identities: each returns (rho, op, lam, comb), and
# verify_case compares op applied to Q_lam with comb evaluated at rho


def _mult(r: int, lam, rho: RhoSpec):
    comb = multiply_p(r, lam, rho)  # its r >= 1 refusal comes before OpTerm's
    return rho, LinOperator((OpTerm(Fraction(r), (("mul", r),)),)), lam, comb


# sweeps: each returns (rho, sides), with sides(f) -> (lhs, rhs)


def _bracket(n: int, i: int, j: int):
    rho = RhoSpec.root(n)
    op_i = build_operator("Lmn", i, n)
    op_j = build_operator("Lmn", j, n)
    op_ij = build_operator("Lmn", i + j, n)
    central = Fraction(n * n * (n - 1) * (i ** 3 - i), 12) if i + j == 0 else Fraction(0)
    return rho, lambda f: (
        commutator_apply(op_i, op_j, f),
        apply(op_ij, f).scale(Fraction(n * (i - j))) + f.scale(central))


def _exchange(i: int, j: int, rho: RhoSpec):
    rho1 = rho.rho_pow(1)
    return rho, lambda f: (
        apply_B_sum(rho, ((1, i - 1, apply_B(j, f, rho)),
                          (-rho1, i, apply_B(j - 1, f, rho)))),
        apply_B_sum(rho, ((rho1, j, apply_B(i - 1, f, rho)),
                          (-1, j - 1, apply_B(i, f, rho)))))


def _pr_b(r: int, m: int, rho: RhoSpec):
    return rho, lambda f: (
        _p_mul(r, apply_B(m, f, rho)),
        apply_B_sum(rho, ((1, m, _p_mul(r, f)), (1, m + r, f))))


def _tr_perp_b(r: int, m: int, rho: RhoSpec):
    return rho, lambda f: (
        perp_t(r, apply_B(m, f, rho), rho),
        apply_B_sum(rho, ((Fraction(1, r), m - r, f), (1, m, perp_t(r, f, rho)))))


def _commutator(rho: RhoSpec, op: LinOperator, r: int, parts: Callable):
    """[op, B_r] f against sum s B_m g over the parts (s, m, g) of f."""
    return rho, lambda f: (
        apply(op, apply_B(r, f, rho)) - apply_B(r, apply(op, f), rho),
        apply_B_sum(rho, parts(f)))


def _prop33(rho: RhoSpec, op: LinOperator, nm: int, r: int):
    """[Lhat_m, B_r] in closed form (Prop. 3.3), nm = n*m; at n = 1 and
    rho = 0, where every weight 1 - rho^k is 1, this is Lemma A.1."""
    def parts(f: TPoly):
        if nm >= 1:
            return [(r - nm, r - nm, f)] + [
                (-1, r - nm + k, f.diff(k)) for k in range(1, nm + 1)]
        return [(r, r - nm, f)] + [
            (-coeff, r - nm - k, _p_mul(k, f)) for k in range(1, -nm + 1)
            if (coeff := rho.one_minus_rho_pow(k))]

    return _commutator(rho, op, r, parts)


def _cor_ltilde(n: int, m: int, r: int):
    rho, nm = RhoSpec.root(n), n * m
    op = build_operator("Ltilde", m, n)
    return _commutator(rho, op, r, lambda f: [(r, r - nm, f)] + [
        (-rho.rho_pow(-k), r - nm + k, f.diff(k)) for k in range(1, nm + 1)])


def _lemma32(r: int, rho: RhoSpec):
    def sides(f: TPoly):
        a = max(f.degree(), 0)
        ks = range(1, max(a, a + r) + 2)
        scalar = rho.field.from_fraction(Fraction(r))
        for k in ks:
            scalar = scalar - rho.one_minus_rho_pow(k)
        return (apply_B_sum(rho, [(omr, r - k, _p_mul(k, f)) for k in ks
                                  if (omr := rho.one_minus_rho_pow(k))]),
                apply_B_sum(rho, [(scalar, r, f)] + [(-1, r + k, f.diff(k)) for k in ks]))

    return rho, sides


class Identity:
    """One verifiable identity: its case id, its CLI name, and ``fn``, a
    function of the case's ``fields`` in order.  A single-instance ``fn``
    returns (rho, op, lam, comb): the operator op applied to Q_lam at rho is
    compared with the Q combination comb evaluated there.  A sweep also
    needs the case's ``degree``; its ``fn`` returns (rho, sides), and
    sides(f) -> (lhs, rhs) is compared on every monomial f up to that
    degree.  ``guard`` is an extra condition on one field, such as
    "m >= 1"."""

    __slots__ = ("id", "name", "fields", "sweep", "fn", "guard")

    def __init__(self, id: str, name: str, fields: tuple[str, ...], sweep: bool,
                 fn: Callable, guard: Optional[str] = None):
        self.id, self.name, self.fields = id, name, fields
        self.sweep, self.fn, self.guard = sweep, fn, guard


IDENTITIES = (
    Identity("T1.1", "T1.1", ("n", "m", "lam"), False, lambda n, m, lam: (
        RhoSpec.root(n), build_operator("Lmn", m, n), lam, rhs_T1_1(n, m, lam))),
    Identity("T1.2", "T1.2", ("n", "m", "lam"), False, lambda n, m, lam: (
        RhoSpec.root(n), build_operator("Lmn", -m, n), lam, rhs_T1_2(n, m, lam))),
    Identity("T3.3", "T3.3", ("n", "m", "lam"), False, lambda n, m, lam: (
        RhoSpec.root(n), build_operator("Lhat", -m, n), lam, rhs_T3_3(n, m, lam))),
    Identity("TA.3", "TA.3", ("m", "lam"), False, lambda m, lam: (
        RHO_ZERO, build_operator("LS", m), lam, rhs_TA3(m, lam))),
    Identity("TA.4", "TA.4", ("m", "lam"), False, lambda m, lam: (
        RHO_ZERO, build_operator("LS", -m), lam, rhs_TA4(m, lam))),
    # L^S_{-m} 1 is TA.4 at lam = (); W^S_{-m} 1 = sum p_k p_{m-k} is twice it
    Identity("BaseA", "baseA", ("m",), False, lambda m: (
        RHO_ZERO, build_operator("LS", -m), (), rhs_TA4(m, ())), "m >= 1"),
    Identity("RemarkA", "remarkA", ("m",), False, lambda m: (
        RHO_ZERO, build_operator("WS", -m), (), rhs_TA4(m, ()).scale(2)), "m >= 1"),
    Identity("MultFormula", "mult", ("r", "lam", "rho"), False, _mult),
    Identity("DerivFormula", "deriv", ("r", "lam", "rho"), False, lambda r, lam, rho: (
        rho, LinOperator((OpTerm(_ONE, (("der", r),)),)), lam, QCombination.from_terms(
            rho.field, ((_shift(lam, i, -r), rho.one_minus_rho_pow(r))
                        for i in range(len(lam))))), "r >= 1"),
    Identity("Bracket", "bracket", ("n", "i", "j"), True, _bracket),
    Identity("Exchange", "exchange", ("i", "j", "rho"), True, _exchange),
    Identity("PrB", "prB", ("r", "m", "rho"), True, _pr_b, "r >= 1"),
    Identity("TrPerpB", "trPerpB", ("r", "m", "rho"), True, _tr_perp_b, "r >= 1"),
    Identity("Prop33", "prop33", ("n", "m", "r"), True, lambda n, m, r: _prop33(
        RhoSpec.root(n), build_operator("Lhat", m, n), n * m, r), "m != 0"),
    Identity("CorLtilde", "corLtilde", ("n", "m", "r"), True, _cor_ltilde, "m >= 1"),
    Identity("Lemma32", "lemma32", ("r", "rho"), True, _lemma32),
    Identity("LemmaA1", "lemmaA1", ("m", "r"), True, lambda m, r: _prop33(
        RHO_ZERO, LinOperator(shift=m), m, r), "m != 0"),
    Identity("CorA2", "corA2", ("m", "r"), True, lambda m, r: _commutator(
        RHO_ZERO, build_operator("LS", m), r, lambda f: (
            (r - Fraction(m + 1, 2), r - m, f),
            (-1, r, f.diff(m) if m >= 1 else _p_mul(-m, f)))), "m != 0"),
    Identity("VmQ", "vm", ("n", "m", "lam"), False, lambda n, m, lam: (
        RhoSpec.root(n), build_operator("Vmn", m, n), lam, rhs_Vm(n, m, lam))),
)

_BY_ID = {row.id: row for row in IDENTITIES}
_GUARD_OPS = {">=": operator.ge, "!=": operator.ne}


def verify_case(case: TheoremCase) -> Verdict:
    """Compare both sides exactly; a sweep reports its first failing monomial."""
    row = _BY_ID.get(case.id)
    if row is None:
        raise ValueError(f"unknown theorem case id {case.id!r}")
    params, wanted = case.params, row.fields + (("degree",) if row.sweep else ())
    for name in wanted:
        if name not in params:
            raise ValueError(f"case {case.id} needs parameter {name!r}")
    for name in params:
        if name not in wanted:
            raise ValueError(f"case {case.id} does not take parameter {name!r}")
    if row.guard:
        name, op, bound = row.guard.split()
        if not _GUARD_OPS[op](params[name], int(bound)):
            raise ValueError(f"{case.id} needs {row.guard}")
    result = row.fn(*(tuple(int(x) for x in params["lam"]) if name == "lam"
                      else params[name] for name in row.fields))
    if not row.sweep:
        rho, op, lam, comb = result
        lhs, rhs = apply(op, hl_q(lam, rho)), comb.evaluate(rho)
        equal = lhs == rhs
        return Verdict(case, equal, lhs, rhs, TPoly.zero(rho.field) if equal else lhs - rhs)
    rho, sides = result
    degree = params["degree"]
    if degree < 0:
        raise ValueError(f"case {case.id} needs degree >= 0, got {degree}")
    for f in monomial_basis(rho.field, degree):
        lhs, rhs = sides(f)
        if lhs != rhs:
            return Verdict(case, False, lhs, rhs, lhs - rhs,
                           detail=f"first failure on {f.to_text()}")
    zero = TPoly.zero(rho.field)
    return Verdict(case, True, zero, zero, zero)

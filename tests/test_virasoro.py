"""Operator construction and exact verification of the action formulas.
Anchor values here were computed by hand from the defining series."""

import itertools
import json
from fractions import Fraction

import pytest

from hlvir.exactnum import QQ, RHO_GENERIC, RHO_ZERO, RhoSpec
from hlvir.selftest import CRITERIA, Grid
from hlvir.tring import LinOperator, OpTerm, TPoly, apply, commutator_apply
from hlvir.structure import multiply_p
from hlvir.vertex import QCombination, apply_B, hl_q, perp_t
from hlvir.virasoro import (FAMILIES, IDENTITIES, TheoremCase,
                            build_operator, monomial_basis, rhs_T1_1, rhs_T1_2,
                            verify_case)

X2 = RhoSpec.root(2)
X3 = RhoSpec.root(3)


# -- operator construction

def test_spec_validation():
    for args, message in [
            (("Lmn", 1), "Lmn needs an order n >= 2"),                  # missing order
            (("Lmn", 1, 1), "Lmn needs an order n >= 2"),               # order too small
            (("LS", 1, 2), "LS does not take an order n"),              # Schur family
            (("Wmn", 0, 2), "Wmn is defined for m >= 1 only"),
            (("nope", 1, 2), "unknown operator family 'nope'")]:
        with pytest.raises(ValueError) as err:
            build_operator(*args)
        assert str(err.value) == message


@pytest.mark.parametrize("record, name", [
    (RhoSpec.root(3), "order"), (RHO_GENERIC, "kind"),
    (OpTerm(Fraction(1), (("der", 1),)), "coeff"), (LinOperator(shift=0), "skip")])
def test_records_are_immutable(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 5)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == before


def test_operator_shapes():
    lhat = build_operator("Lhat", 2, 2)
    assert not lhat.finite and (lhat.shift, lhat.skip) == (4, None)
    lmn = build_operator("Lmn", -1, 3)
    assert (lmn.shift, lmn.skip) == (-3, 3) and len(lmn.finite) == 2
    w = build_operator("Wmn", 1, 3)
    assert w.shift is None and len(w.finite) == 2
    v = build_operator("Vmn", 1, 2)
    assert all(kind == "mul" for term in v.finite for kind, _ in term.factors)
    assert len(v.finite) == 1  # k = 1 only; k = 2 is filtered


def test_zero_mode_constant_term():
    l0 = build_operator("Lmn", 0, 2)
    consts = [t for t in l0.finite if not t.factors]
    assert len(consts) == 1 and consts[0].coeff == Fraction(3, 24)


# -- every family against the formulas of the module docstring


def _docstring_action(family: str, m: int, n, f: TPoly) -> TPoly:
    """The operator of the virasoro module docstring applied to f, summed
    term by term from d_k and t_k (p_k = k t_k; t_k = d_k = 0 for k <= 0)."""
    n = n or 1
    nm = n * m
    filtered = family in ("Lmn", "Vmn")     # the sums over n !| k

    def keep(k):
        return not filtered or k % n != 0

    def dd(p):      # sum_{k=1}^{p-1} d_k d_{p-k} f
        out = TPoly.zero(f.field)
        for k in range(1, p):
            if keep(k):
                out = out + f.diff(p - k).diff(k)
        return out

    def pp(p):      # sum_{k=1}^{p-1} p_k p_{p-k} f
        out = TPoly.zero(f.field)
        for k in range(1, p):
            if keep(k):
                out = out + f.mul_var(p - k, p - k).mul_var(k, k)
        return out

    grading = TPoly.zero(f.field)
    for k in range(1, 17):      # reaches d_6 at every nm >= -9 of the sweep
        if k + nm >= 1 and keep(k):
            grading = grading + f.diff(k + nm).mul_var(k, k)
    half = Fraction(1, 2)
    if family in ("Lmn", "LS"):
        # -(1/2) k(mn+k) t_k t_{-mn-k} is (1/2) p_k p_{-mn-k}
        out = grading + dd(nm).scale(half) + pp(-nm).scale(half)
        if family == "Lmn" and m == 0:
            out = out + f.scale(Fraction(n * n - 1, 24))
        return out
    if family == "Lhat":
        return grading
    if family == "Ltilde":
        return grading + dd(nm).scale(half)
    if family in ("Wmn", "WS"):
        return dd(nm) + pp(-nm)
    return pp(nm)       # Vmn


@pytest.mark.parametrize("family", FAMILIES)
def test_operators_match_docstring_formulas(family):
    orders = (None,) if family in ("LS", "WS") else (2, 3)
    modes = range(1, 4) if family in ("Wmn", "Vmn") else range(-3, 4)
    basis = monomial_basis(QQ, 6)
    for n in orders:
        for m in modes:
            op = build_operator(family, m, n)
            for f in basis:
                assert apply(op, f) == _docstring_action(family, m, n, f), (family, m, n, f)


# -- hand anchors

def test_zero_mode_eigenvalue():
    f = TPoly.var(X2.field, 1, 2)
    l0 = build_operator("Lmn", 0, 2)
    assert apply(l0, f) == TPoly.var(X2.field, 1, Fraction(9, 4))


def test_negative_mode_on_vacuum():
    lm1 = build_operator("Lmn", -1, 2)
    got = apply(lm1, TPoly.one(X2.field))
    assert got == TPoly(X2.field, {((1, 2),): X2.field.from_fraction(Fraction(1, 2))})


def test_schur_negative_mode_on_vacuum():
    lsm2 = build_operator("LS", -2)
    assert apply(lsm2, TPoly.one(QQ)) == TPoly(QQ, {((1, 2),): Fraction(1, 2)})


def test_bracket_on_vectors():
    l1 = build_operator("Lmn", 1, 2)
    lm1 = build_operator("Lmn", -1, 2)
    t1 = TPoly.var(X2.field, 1)
    assert commutator_apply(l1, lm1, t1) == TPoly.var(X2.field, 1, Fraction(9, 2))
    l2 = build_operator("Lmn", 2, 2)
    lm2 = build_operator("Lmn", -2, 2)
    # n(i-j) L_0(1) = 1 plus central charge 2
    assert commutator_apply(l2, lm2, TPoly.one(X2.field)) == TPoly.one(X2.field).scale(3)


def test_eigenvalue_of_weight():
    """The zero mode acts on any Q by its weight plus the constant."""
    for n in (2, 3):
        rho = RhoSpec.root(n)
        l0 = build_operator("Lmn", 0, n)
        for lam in [(1,), (2, 1), (3, 1, 1)]:
            f = hl_q(lam, rho)
            scale = Fraction(sum(lam)) + Fraction(n * n - 1, 24)
            assert apply(l0, f) == f.scale(scale)


# -- right-hand sides

def test_rhs_builders_reject_bad_modes():
    with pytest.raises(ValueError):
        rhs_T1_1(2, -1, (1,))
    with pytest.raises(ValueError):
        rhs_T1_2(2, 0, (1,))


def test_rhs_merges_duplicate_labels():
    # lam with equal entries produces coinciding shifted labels
    comb = rhs_T1_1(2, 1, (1, 1))
    assert all(coeff for coeff in comb.terms.values())


# -- verification dispatch

def test_anchor_action_case():
    v = verify_case(TheoremCase("T1.2", n=2, m=1, lam=(0,)))
    assert v.equal
    assert v.lhs.to_text() == "1/2*t1^2"
    assert v.rhs.to_text() == "1/2*t1^2"
    assert v.diff.to_text() == "0"


def test_first_order_action_case():
    v = verify_case(TheoremCase("T3.3", n=2, m=1, lam=(1,)))
    assert v.equal
    assert v.lhs == TPoly.var(X2.field, 3, 6)


def test_schur_action_cases():
    v = verify_case(TheoremCase("TA.3", m=1, lam=(2,)))
    assert v.equal and v.lhs == TPoly.var(QQ, 1)
    v = verify_case(TheoremCase("TA.4", m=1, lam=(1,)))
    assert v.equal and v.lhs == TPoly.var(QQ, 2, 2)
    v = verify_case(TheoremCase("TA.4", m=2, lam=()))
    assert v.equal and v.lhs == TPoly(QQ, {((1, 2),): Fraction(1, 2)})
    assert verify_case(TheoremCase("BaseA", m=3)).equal
    assert verify_case(TheoremCase("RemarkA", m=4)).equal


def test_action_formula_spot_grid():
    for n, m in [(2, 0), (2, 1), (3, 1)]:
        for lam in [(2, 1), (0, 2), (2, -1, 1)]:
            assert verify_case(TheoremCase("T1.1", n=n, m=m, lam=lam)).equal
    for n, m in [(2, 1), (3, 1)]:
        for lam in [(), (1, 1), (1, 0, 2)]:
            assert verify_case(TheoremCase("T1.2", n=n, m=m, lam=lam)).equal
            assert verify_case(TheoremCase("T3.3", n=n, m=m, lam=lam)).equal


def test_sweep_cases():
    assert verify_case(TheoremCase("Bracket", n=2, i=2, j=-2, degree=4)).equal
    assert verify_case(TheoremCase("Exchange", i=1, j=3, rho=RHO_GENERIC, degree=4)).equal
    assert verify_case(TheoremCase("PrB", r=2, m=1, rho=X2, degree=4)).equal
    assert verify_case(TheoremCase("TrPerpB", r=1, m=2, rho=X3, degree=4)).equal
    assert verify_case(TheoremCase("Prop33", n=2, m=1, r=1, degree=4)).equal
    assert verify_case(TheoremCase("Prop33", n=2, m=-1, r=2, degree=4)).equal
    assert verify_case(TheoremCase("CorLtilde", n=2, m=1, r=1, degree=4)).equal
    assert verify_case(TheoremCase("Lemma32", r=2, rho=RHO_GENERIC, degree=3)).equal
    assert verify_case(TheoremCase("LemmaA1", m=-2, r=1, degree=4)).equal
    assert verify_case(TheoremCase("CorA2", m=2, r=2, degree=4)).equal
    assert verify_case(TheoremCase("VmQ", n=2, m=1, lam=(1,))).equal


# -- sweep sides summed in one kernel call, against their term-by-term
# formulas: one apply_B per term, joined by TPoly scale, + and -

def _p_mul(r, f):
    return f.mul_var(r, Fraction(r))


def _exchange_terms(i, j, rho, f):
    rho1 = rho.rho_pow(1)
    return (apply_B(i - 1, apply_B(j, f, rho), rho)
            - apply_B(i, apply_B(j - 1, f, rho), rho).scale(rho1),
            apply_B(j, apply_B(i - 1, f, rho), rho).scale(rho1)
            - apply_B(j - 1, apply_B(i, f, rho), rho))


def _pr_b_rhs_terms(r, m, rho, f):
    return None, apply_B(m, _p_mul(r, f), rho) + apply_B(m + r, f, rho)


def _tr_perp_b_rhs_terms(r, m, rho, f):
    return None, (apply_B(m - r, f, rho).scale(Fraction(1, r))
                  + apply_B(m, perp_t(r, f, rho), rho))


def _prop33_rhs_terms(rho, n, m, r, f):
    nm = n * m
    if m >= 1:
        rhs = apply_B(r - nm, f, rho).scale(Fraction(r - nm))
        for k in range(1, nm + 1):
            rhs = rhs - apply_B(r - nm + k, f.diff(k), rho)
    else:
        rhs = apply_B(r - nm, f, rho).scale(Fraction(r))
        for k in range(1, -nm + 1):
            rhs = rhs - apply_B(r - nm - k, _p_mul(k, f), rho).scale(
                rho.one_minus_rho_pow(k))
    return None, rhs


def _cor_ltilde_rhs_terms(n, m, r, f):
    rho, nm = RhoSpec.root(n), n * m
    rhs = apply_B(r - nm, f, rho).scale(Fraction(r))
    for k in range(1, nm + 1):
        rhs = rhs - apply_B(r - nm + k, f.diff(k), rho).scale(rho.rho_pow(-k))
    return None, rhs


def _lemma32_terms(r, rho, f):
    a = max(f.degree(), 0)
    big_n = max(a, a + r) + 1
    lhs = rhs = TPoly.zero(rho.field)
    scalar = rho.field.from_fraction(Fraction(r))
    for k in range(1, big_n + 1):
        omr = rho.one_minus_rho_pow(k)
        lhs = lhs + apply_B(r - k, _p_mul(k, f), rho).scale(omr)
        rhs = rhs - apply_B(r + k, f.diff(k), rho)
        scalar = scalar - omr
    return lhs, rhs + apply_B(r, f, rho).scale(scalar)


def _cor_a2_rhs_terms(m, r, f):
    lower = f.diff(m) if m >= 1 else _p_mul(-m, f)
    return None, (apply_B(r - m, f, RHO_ZERO).scale(r - Fraction(m + 1, 2))
                  - apply_B(r, lower, RHO_ZERO))


_FUSED_SIDES = {
    "Exchange": _exchange_terms,
    "PrB": _pr_b_rhs_terms,
    "TrPerpB": _tr_perp_b_rhs_terms,
    "Prop33": lambda n, m, r, f: _prop33_rhs_terms(RhoSpec.root(n), n, m, r, f),
    "CorLtilde": _cor_ltilde_rhs_terms,
    "Lemma32": _lemma32_terms,
    "LemmaA1": lambda m, r, f: _prop33_rhs_terms(RHO_ZERO, 1, m, r, f),
    "CorA2": _cor_a2_rhs_terms,
}


def _desk_cells(case_id):
    """The cells of the case's desk grid, without its degree, and the same
    cells at rho = 2 where the grid has a rho axis."""
    grid = next(g for row in CRITERIA for g in row.checks
                if isinstance(g, Grid) and g.case_id == case_id)
    axes = {k: v for k, v in grid.axes.items() if k != "degree"}
    if "rho" in axes:
        axes["rho"] = tuple(axes["rho"]) + (RhoSpec.rational(2),)
    for values in itertools.product(*axes.values()):
        cell = dict(zip(axes, values))
        if grid.skip is None or not grid.skip(**cell):
            yield cell


@pytest.mark.parametrize("case_id", list(_FUSED_SIDES))
def test_fused_sides_match_their_term_by_term_formulas(case_id):
    """Each side summed by apply_B_sum equals its formula term by term (the
    oracle returns None for a side that is not summed), on every monomial of
    degree <= 4, in every cell of the case's desk grid."""
    oracle = _FUSED_SIDES[case_id]
    row = next(row for row in IDENTITIES if row.id == case_id)
    for cell in _desk_cells(case_id):
        args = [cell[name] for name in row.fields]
        rho, sides = row.fn(*args)
        for f in monomial_basis(rho.field, 4):
            for side, want in zip(sides(f), oracle(*args, f)):
                assert want is None or side == want, (case_id, cell, f.to_text())


# -- single-instance rows, each an operator on Q_lam against a Q combination,
# against their formulas written out directly

def _base_a_sides(m):
    lhs = apply(build_operator("LS", -m), TPoly.one(QQ))
    rhs = QCombination.from_terms(QQ, (
        ((k,) + (1,) * (m - k),
         Fraction((-1) ** (m - k + 1)) * (Fraction(m + 1, 2) - k))
        for k in range(1, m + 1))).evaluate(RHO_ZERO)
    return lhs, rhs


def _remark_a_sides(m):
    lhs = TPoly.zero(QQ)
    for k in range(1, m):
        lhs = lhs + TPoly.one(QQ).mul_var(k, 1).mul_var(m - k, Fraction(k * (m - k)))
    rhs = QCombination.from_terms(QQ, (
        ((k,) + (1,) * (m - k), Fraction((-1) ** (m - k) * (2 * k - m - 1)))
        for k in range(1, m + 1))).evaluate(RHO_ZERO)
    return lhs, rhs


def _mult_sides(r, lam, rho):
    return (_p_mul(r, hl_q(lam, rho)),
            multiply_p(r, QCombination.single(rho.field, lam), rho).evaluate(rho))


def _deriv_sides(r, lam, rho):
    rhs = TPoly.zero(rho.field)
    for i in range(len(lam)):
        rhs = rhs + hl_q(lam[:i] + (lam[i] - r,) + lam[i + 1:], rho)
    return hl_q(lam, rho).diff(r), rhs.scale(rho.one_minus_rho_pow(r))


_FOLDED_SIDES = {
    "BaseA": _base_a_sides,
    "RemarkA": _remark_a_sides,
    "MultFormula": _mult_sides,
    "DerivFormula": _deriv_sides,
}


@pytest.mark.parametrize("case_id", list(_FOLDED_SIDES))
def test_folded_rows_match_their_own_formulas(case_id):
    """Both sides of the row equal its formula in every cell of the case's
    desk grid (criteria 5, 6 and 9), and at rho = 2 for mult and deriv."""
    oracle = _FOLDED_SIDES[case_id]
    row = next(row for row in IDENTITIES if row.id == case_id)
    for cell in _desk_cells(case_id):
        v = verify_case(TheoremCase(case_id, **cell))
        want = oracle(*(cell[name] for name in row.fields))
        assert v.equal and (v.lhs, v.rhs) == want, (case_id, cell)


@pytest.mark.parametrize("case_id, fields", [
    ("T1.1", dict(n=2, m=1)), ("T1.2", dict(n=3, m=1)), ("TA.4", dict(m=2)),
    ("MultFormula", dict(r=2, rho=RHO_GENERIC)),
    ("DerivFormula", dict(r=1, rho=X3)), ("VmQ", dict(n=2, m=1))])
def test_list_valued_lambda(case_id, fields):
    listed = verify_case(TheoremCase(case_id, lam=[2, 1, 1], **fields))
    tupled = verify_case(TheoremCase(case_id, lam=(2, 1, 1), **fields))
    assert listed.equal and (listed.lhs, listed.rhs) == (tupled.lhs, tupled.rhs)
    assert listed.to_json() == tupled.to_json()


def test_monomial_basis_counts():
    assert len(monomial_basis(QQ, 4)) == 1 + 1 + 2 + 3 + 5
    degrees = sorted({f.degree() for f in monomial_basis(QQ, 3)})
    assert degrees == [0, 1, 2, 3]


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        verify_case(TheoremCase("T9.9"))
    with pytest.raises(ValueError):
        verify_case(TheoremCase("T1.1", n=2))  # lam missing


def test_unread_parameter_rejected():
    with pytest.raises(ValueError, match="does not take parameter 'rho'"):
        verify_case(TheoremCase("T1.1", n=2, m=0, lam=(1,), rho=RhoSpec.rational(2)))
    # before the row's own checks, and a parameter passed as None is not given
    with pytest.raises(ValueError, match="does not take parameter 'r'"):
        verify_case(TheoremCase("BaseA", m=0, r=1))
    assert verify_case(TheoremCase("BaseA", m=3, r=None, rho=None)).equal


def test_verdict_json():
    v = verify_case(TheoremCase("T1.2", n=2, m=1, lam=(0,)))
    payload = v.to_json()
    text = json.dumps(payload, sort_keys=True)
    parsed = json.loads(text)
    assert parsed["equal"] is True
    assert parsed["case"]["id"] == "T1.2"
    assert parsed["case"]["lambda"] == [0]
    assert parsed["lhs"] == parsed["rhs"]


def test_case_ids_cover_documented_set():
    for case_id in ("T1.1", "T1.2", "T3.3", "TA.3", "TA.4", "Bracket",
                    "MultFormula", "DerivFormula", "RemarkA", "BaseA"):
        assert case_id in {row.id for row in IDENTITIES}

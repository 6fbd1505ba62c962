"""Operator construction and exact verification of the action formulas.
Anchor values here were computed by hand from the defining series."""

import json
from fractions import Fraction

import pytest

from hlvir.exactnum import QQ, RHO_GENERIC, RhoSpec
from hlvir.tring import LinOperator, OpTerm, TPoly, apply, commutator_apply
from hlvir.vertex import hl_q
from hlvir.virasoro import (CASE_IDS, FAMILIES, TheoremCase, VirasoroSpec,
                            build_operator, monomial_basis, rhs_T1_1,
                            rhs_T1_2, verify_case)

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
            VirasoroSpec(*args)
        assert str(err.value) == message


@pytest.mark.parametrize("record, name", [
    (RhoSpec.root(3), "order"), (RHO_GENERIC, "kind"), (VirasoroSpec("Lmn", 1, 2), "m"),
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
    lhat = build_operator(VirasoroSpec("Lhat", 2, 2))
    assert not lhat.finite and (lhat.shift, lhat.skip) == (4, None)
    lmn = build_operator(VirasoroSpec("Lmn", -1, 3))
    assert (lmn.shift, lmn.skip) == (-3, 3) and len(lmn.finite) == 2
    w = build_operator(VirasoroSpec("Wmn", 1, 3))
    assert w.shift is None and len(w.finite) == 2
    v = build_operator(VirasoroSpec("Vmn", 1, 2))
    assert all(kind == "mul" for term in v.finite for kind, _ in term.factors)
    assert len(v.finite) == 1  # k = 1 only; k = 2 is filtered


def test_zero_mode_constant_term():
    l0 = build_operator(VirasoroSpec("Lmn", 0, 2))
    consts = [t for t in l0.finite if not t.factors]
    assert len(consts) == 1 and consts[0].coeff == Fraction(3, 24)


# -- every family against the formulas of the module docstring


def _docstring_action(spec: VirasoroSpec, f: TPoly) -> TPoly:
    """The operator of the virasoro module docstring applied to f, summed
    term by term from d_k and t_k (p_k = k t_k; t_k = d_k = 0 for k <= 0)."""
    n, m = spec.n or 1, spec.m
    nm = n * m
    filtered = spec.family in ("Lmn", "Vmn")     # the sums over n !| k

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
    if spec.family in ("Lmn", "LS"):
        # -(1/2) k(mn+k) t_k t_{-mn-k} is (1/2) p_k p_{-mn-k}
        out = grading + dd(nm).scale(half) + pp(-nm).scale(half)
        if spec.family == "Lmn" and m == 0:
            out = out + f.scale(Fraction(n * n - 1, 24))
        return out
    if spec.family == "Lhat":
        return grading
    if spec.family == "Ltilde":
        return grading + dd(nm).scale(half)
    if spec.family in ("Wmn", "WS"):
        return dd(nm) + pp(-nm)
    return pp(nm)       # Vmn


@pytest.mark.parametrize("family", FAMILIES)
def test_operators_match_docstring_formulas(family):
    orders = (None,) if family in ("LS", "WS") else (2, 3)
    modes = range(1, 4) if family in ("Wmn", "Vmn") else range(-3, 4)
    basis = monomial_basis(QQ, 6)
    for n in orders:
        for m in modes:
            spec = VirasoroSpec(family, m, n)
            op = build_operator(spec)
            for f in basis:
                assert apply(op, f) == _docstring_action(spec, f), (spec, f)


# -- hand anchors

def test_zero_mode_eigenvalue():
    f = TPoly.var(X2.field, 1, 2)
    l0 = build_operator(VirasoroSpec("Lmn", 0, 2))
    assert apply(l0, f) == TPoly.var(X2.field, 1, Fraction(9, 4))


def test_negative_mode_on_vacuum():
    lm1 = build_operator(VirasoroSpec("Lmn", -1, 2))
    got = apply(lm1, TPoly.one(X2.field))
    assert got == TPoly(X2.field, {((1, 2),): X2.field.from_fraction(Fraction(1, 2))})


def test_schur_negative_mode_on_vacuum():
    lsm2 = build_operator(VirasoroSpec("LS", -2))
    assert apply(lsm2, TPoly.one(QQ)) == TPoly(QQ, {((1, 2),): Fraction(1, 2)})


def test_bracket_on_vectors():
    l1 = build_operator(VirasoroSpec("Lmn", 1, 2))
    lm1 = build_operator(VirasoroSpec("Lmn", -1, 2))
    t1 = TPoly.var(X2.field, 1)
    assert commutator_apply(l1, lm1, t1) == TPoly.var(X2.field, 1, Fraction(9, 2))
    l2 = build_operator(VirasoroSpec("Lmn", 2, 2))
    lm2 = build_operator(VirasoroSpec("Lmn", -2, 2))
    # n(i-j) L_0(1) = 1 plus central charge 2
    assert commutator_apply(l2, lm2, TPoly.one(X2.field)) == TPoly.constant(X2.field, 3)


def test_eigenvalue_of_weight():
    """The zero mode acts on any Q by its weight plus the constant."""
    for n in (2, 3):
        rho = RhoSpec.root(n)
        l0 = build_operator(VirasoroSpec("Lmn", 0, n))
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


def test_monomial_basis_counts():
    assert len(monomial_basis(QQ, 4)) == 1 + 1 + 2 + 3 + 5
    degrees = sorted({f.degree() for f in monomial_basis(QQ, 3)})
    assert degrees == [0, 1, 2, 3]


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        verify_case(TheoremCase("T9.9"))
    with pytest.raises(ValueError):
        verify_case(TheoremCase("T1.1", n=2))  # lam missing


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
        assert case_id in CASE_IDS

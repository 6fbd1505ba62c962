"""The sparse polynomial ring in t_1, t_2, ... and linear operators on it."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hlvir.exactnum import GENERIC, QQ, RHO_GENERIC, FieldMismatchError, RhoSpec
from hlvir.tring import (DegeneratePairingError, FamilyRule, LinOperator,
                         OpTerm, TPoly, apply, commutator_apply,
                         inner_product, mono_from_exponents)
from hlvir.vertex import QCombination

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)

monos = st.dictionaries(st.integers(min_value=1, max_value=4),
                        st.integers(min_value=1, max_value=3),
                        max_size=3).map(lambda d: mono_from_exponents(d.items()))

tpolys = st.dictionaries(monos, fractions, max_size=4).map(
    lambda d: TPoly.from_terms(QQ, d.items()))

labels = st.lists(st.integers(min_value=-2, max_value=4), max_size=3).map(tuple)

qcombs = st.dictionaries(labels, fractions, max_size=4).map(
    lambda d: QCombination.from_terms(QQ, d.items()))


# -- the sparse core shared by TPoly and QCombination

@pytest.mark.parametrize("values", [tpolys, qcombs], ids=["TPoly", "QCombination"])
@given(data=st.data())
def test_sparse_additive_laws(values, data):
    f, g, h = data.draw(values), data.draw(values), data.draw(values)
    c = data.draw(fractions)
    cls = type(f)
    zero = cls.zero(QQ)
    assert (f + g) + h == f + (g + h)
    assert f - f == zero and f + (-f) == zero
    assert (f + g).scale(c) == f.scale(c) + g.scale(c)
    assert f + g == g + f and hash(f + g) == hash(g + f)
    assert cls.from_json(QQ, f.to_json()) == f
    items = list(f.terms.items())
    cancelled = cls.from_terms(QQ, items + [(k, -a) for k, a in items])
    assert cancelled == zero and not cancelled.terms


def test_sparse_types_and_fields_do_not_mix():
    p, q = TPoly.one(QQ), QCombination.single(QQ, ())
    with pytest.raises(TypeError, match="unsupported operand"):
        p + q
    with pytest.raises(TypeError, match="unsupported operand"):
        q - p
    assert p != q
    with pytest.raises(FieldMismatchError):
        p + TPoly.one(GENERIC)
    with pytest.raises(FieldMismatchError):
        q - QCombination.single(GENERIC, ())


# -- ring structure

@given(tpolys, tpolys, tpolys)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)


@given(tpolys)
def test_additive_inverse(f):
    assert f - f == TPoly.zero(QQ)
    assert f + (-f) == TPoly.zero(QQ)


@given(tpolys, st.integers(min_value=1, max_value=5))
def test_mul_var_matches_full_product(f, r):
    assert f.mul_var(r) == f * TPoly.var(QQ, r)


@given(tpolys, tpolys, st.integers(min_value=1, max_value=4))
def test_derivative_product_rule(f, g, r):
    lhs = (f * g).diff(r)
    assert lhs == f.diff(r) * g + f * g.diff(r)


@given(tpolys, st.integers(min_value=1, max_value=4))
def test_derivative_of_var_multiple(f, r):
    assert TPoly.one(QQ).diff(r) == TPoly.zero(QQ)
    assert f.mul_var(r).diff(r) == f + f.diff(r).mul_var(r)


def test_degree_and_homogeneity():
    f = TPoly.var(QQ, 3) * TPoly.var(QQ, 1)  # t3*t1, degree 4
    assert f.degree() == 4
    assert f.is_homogeneous()
    g = f + TPoly.var(QQ, 1)
    assert not g.is_homogeneous()
    assert TPoly.zero(QQ).degree() == -1


# -- canonical text and JSON

def test_canonical_text_forms():
    two_t1sq = TPoly(QQ, {((1, 2),): Fraction(2)})
    assert two_t1sq.to_text() == "2*t1^2"
    s11 = TPoly(QQ, {((1, 2),): Fraction(1, 2), ((2, 1),): Fraction(-1)})
    assert s11.to_text() == "1/2*t1^2 - 1*t2"
    assert TPoly.zero(QQ).to_text() == "0"
    assert TPoly.constant(QQ, Fraction(-1, 2)).to_text() == "-1/2"


@given(tpolys)
def test_json_round_trip(f):
    assert TPoly.from_json(QQ, f.to_json()) == f


# -- operators

def test_op_term_validation():
    with pytest.raises(ValueError):
        OpTerm(Fraction(1), (("mul", 0),))
    with pytest.raises(ValueError):
        OpTerm(Fraction(1), (("nope", 1),))


def test_family_rule_needs_derivative_for_unbounded_range():
    rule = FamilyRule(factors=(("mul", 0), ("mul", 1)), k_power=1)
    with pytest.raises(ValueError):
        rule.k_range(TPoly.var(QQ, 2))


def test_grading_operator_counts_degree():
    # sum_k k t_k d_k multiplies a homogeneous polynomial by its degree
    grading = LinOperator((), (FamilyRule(factors=(("mul", 0), ("der", 0)),
                                          k_power=1),))
    f = TPoly.var(QQ, 2) * TPoly.var(QQ, 3)
    assert apply(grading, f) == f.scale(5)


@given(tpolys, tpolys)
def test_operator_linearity(f, g):
    op = LinOperator((OpTerm(Fraction(1, 2), (("der", 1), ("der", 1))),
                      OpTerm(Fraction(3), (("mul", 2),))),
                     (FamilyRule(factors=(("mul", 0), ("der", 1)), k_power=1),))
    assert apply(op, f + g) == apply(op, f) + apply(op, g)


def test_commutator_apply_antisymmetry():
    a = LinOperator((OpTerm(Fraction(1), (("der", 1),)),), ())
    b = LinOperator((OpTerm(Fraction(1), (("mul", 1),)),), ())
    f = TPoly.var(QQ, 1) * TPoly.var(QQ, 1)
    # [d_1, t_1] = identity
    assert commutator_apply(a, b, f) == f
    assert commutator_apply(b, a, f) == -f


# -- the deformed pairing

def test_inner_product_of_basic_vectors():
    rho = RHO_GENERIC
    field = rho.field
    t1 = TPoly.var(field, 1)
    expected = field.one / rho.one_minus_rho_pow(1)
    assert inner_product(t1, t1, rho) == expected
    t2 = TPoly.var(field, 2)
    assert not inner_product(t1, t2, rho)


def test_inner_product_degenerate_at_roots():
    rho = RhoSpec.root(2)
    t2 = TPoly.var(rho.field, 2)
    with pytest.raises(DegeneratePairingError):
        inner_product(t2, t2, rho)


@given(tpolys, tpolys)
def test_inner_product_symmetric_at_zero(f, g):
    rho = RhoSpec.rational(0)
    assert inner_product(f, g, rho) == inner_product(g, f, rho)

"""The sparse polynomial ring in t_1, t_2, ... and linear operators on it."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hlvir.exactnum import (GENERIC, QQ, RHO_GENERIC, RHO_ZERO, FieldMismatchError, RhoSpec,
                            _accumulate)
from hlvir.tring import (DegeneratePairingError, LinOperator, OpTerm, TPoly,
                         apply, commutator_apply, inner_product, mono_degree,
                         mono_from_exponents)
from hlvir.vertex import QCombination
from hlvir.virasoro import FAMILIES, build_operator

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
    assert _decode(cls, f.to_json()) == f.terms
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
    assert f.mul_var(r, 1) == f * TPoly.var(QQ, r)


@given(tpolys, tpolys, st.integers(min_value=1, max_value=4))
def test_derivative_product_rule(f, g, r):
    lhs = (f * g).diff(r)
    assert lhs == f.diff(r) * g + f * g.diff(r)


@given(tpolys, st.integers(min_value=1, max_value=4))
def test_derivative_of_var_multiple(f, r):
    assert TPoly.one(QQ).diff(r) == TPoly.zero(QQ)
    assert f.mul_var(r, 1).diff(r) == f + f.diff(r).mul_var(r, 1)


def test_degree_and_homogeneity():
    f = TPoly.var(QQ, 3) * TPoly.var(QQ, 1)  # t3*t1, degree 4
    assert f.degree() == 4
    assert {mono_degree(m) for m in f.terms} == {4}
    g = f + TPoly.var(QQ, 1)
    assert {mono_degree(m) for m in g.terms} == {1, 4}
    assert TPoly.zero(QQ).degree() == -1


# -- canonical text and JSON

def test_canonical_text_forms():
    two_t1sq = TPoly(QQ, {((1, 2),): Fraction(2)})
    assert two_t1sq.to_text() == "2*t1^2"
    s11 = TPoly(QQ, {((1, 2),): Fraction(1, 2), ((2, 1),): Fraction(-1)})
    assert s11.to_text() == "1/2*t1^2 - 1*t2"
    assert TPoly.zero(QQ).to_text() == "0"
    assert TPoly.one(QQ).scale(Fraction(-1, 2)).to_text() == "-1/2"
    assert s11.to_json() == [{"monomial": {"1": 2}, "coeff": "1/2"},
                             {"monomial": {"2": 1}, "coeff": "-1"}]


def _decode(cls, data):
    """to_json() output over QQ, decoded here (hlvir writes JSON and never
    reads it back): {key: coefficient}."""
    def key(k):
        return tuple(k) if cls is QCombination else tuple(sorted((int(v), e) for v, e in k.items()))
    return {key(e[cls._JSON_KEY]): Fraction(e["coeff"]) for e in data}


@given(tpolys)
def test_json_round_trip(f):
    data = f.to_json()
    assert _decode(TPoly, data) == f.terms and len(data) == len(f.terms)
    degrees = [sum(int(v) * e for v, e in entry["monomial"].items()) for entry in data]
    assert degrees == sorted(degrees)


# -- operators

def test_op_term_validation():
    with pytest.raises(ValueError) as err:
        OpTerm(Fraction(1), (("mul", 0),))
    assert str(err.value) == "factor index must be >= 1"
    with pytest.raises(ValueError) as err:
        OpTerm(Fraction(1), (("nope", 1),))
    assert str(err.value) == "unknown factor kind 'nope'"


def test_grading_operator_counts_degree():
    # sum_k k t_k d_k multiplies a homogeneous polynomial by its degree
    grading = LinOperator(shift=0)
    f = TPoly.var(QQ, 2) * TPoly.var(QQ, 3)
    assert apply(grading, f) == f.scale(5)
    # leaving out the multiples of 3 drops t_3's share
    assert apply(LinOperator(shift=0, skip=3), f) == f.scale(2)


@given(tpolys, tpolys)
def test_operator_linearity(f, g):
    op = LinOperator((OpTerm(Fraction(1, 2), (("der", 1), ("der", 1))),
                      OpTerm(Fraction(3), (("mul", 2),))), shift=1)
    assert apply(op, f + g) == apply(op, f) + apply(op, g)


@given(tpolys, st.integers(1, 4))
def test_one_term_operator_is_its_direct_call(f, r):
    """An operator of one term and no grading sum is that term applied to f."""
    assert apply(LinOperator((OpTerm(Fraction(1), (("der", r),)),)), f) == f.diff(r)
    assert apply(LinOperator((OpTerm(Fraction(r), (("mul", r),)),)), f) == f.mul_var(r, r)
    assert (apply(LinOperator((OpTerm(Fraction(-2, 3), (("mul", 1), ("der", r))),)), f)
            == f.diff(r).mul_var(1, 1).scale(Fraction(-2, 3)))


# The term-by-term form of ``apply``, kept as its oracle: each term is a
# chain of whole-polynomial diff / mul_var passes and a scale, and the
# grading sum one diff and one mul_var pass for every k up to f.max_var().

def _apply_term_by_term(op: LinOperator, f: TPoly) -> TPoly:
    out: dict = {}
    for term in op.finite:
        g = f
        for kind, a in reversed(term.factors):
            g = g.diff(a) if kind == "der" else g.mul_var(a, 1)
        _accumulate(out, g.scale(term.coeff).terms.items())
    shift, skip = op.shift, op.skip
    if shift is not None:
        for k in range(max(1, 1 - shift), f.max_var() - shift + 1):
            if skip is None or k % skip:
                _accumulate(out, f.diff(k + shift).mul_var(k, k).terms.items())
    return TPoly(f.field, out)


_ORACLE_RHOS = [RHO_ZERO, RhoSpec.rational(2), RHO_GENERIC,
                RhoSpec.root(2), RhoSpec.root(3), RhoSpec.root(5)]


def _field_values(rho):
    """Values of rho's field: a polynomial in rho of degree <= 2 with
    rational coefficients, divided by 1 - rho when drawn so."""
    field = rho.field

    def build(args):
        cs, over = args
        v = field.zero
        for i, c in enumerate(cs):
            v = v + field.from_fraction(c) * rho.rho_pow(i)
        return v / rho.one_minus_rho_pow(1) if over else v
    return st.tuples(st.lists(fractions, min_size=1, max_size=3), st.booleans()).map(build)


_ORACLE_OPS = (
    [build_operator(family, m, n) for family in FAMILIES[:5]
     for n in (2, 3, 5) for m in range(-2, 3) if m >= 1 or family not in ("Wmn", "Vmn")]
    + [build_operator(family, m) for family in ("LS", "WS") for m in range(-3, 4)]
    + [LinOperator((OpTerm(Fraction(r), (("mul", r),)),)) for r in range(1, 6)]
    + [LinOperator((OpTerm(Fraction(1), (("der", r),)),)) for r in range(1, 6)]
    + [LinOperator((OpTerm(Fraction(-2, 3), (("mul", 1), ("der", 2))),
                    OpTerm(Fraction(0), (("mul", 1),)),
                    OpTerm(Fraction(5, 2), ()),
                    OpTerm(Fraction(3), (("der", 2), ("der", 2)))), shift=-2, skip=2),
       LinOperator(shift=2, skip=3), LinOperator(shift=0)])

wide_monos = st.dictionaries(st.integers(min_value=1, max_value=7),
                             st.integers(min_value=1, max_value=3),
                             max_size=4).map(lambda d: mono_from_exponents(d.items()))


@pytest.mark.parametrize("rho", _ORACLE_RHOS, ids=lambda rho: rho.to_text())
@given(data=st.data())
def test_apply_matches_the_term_by_term_oracle(rho, data):
    """Every Virasoro family at n = 2, 3, 5 and m in -2..2, LS and WS, the
    one-term mult and deriv operators and operators with shift and skip,
    on random polynomials over rho's field."""
    op = data.draw(st.sampled_from(_ORACLE_OPS))
    f = data.draw(st.dictionaries(wide_monos, _field_values(rho), max_size=5).map(
        lambda d: TPoly.from_terms(rho.field, d.items())))
    got, want = apply(op, f), _apply_term_by_term(op, f)
    assert got == want and got.to_text() == want.to_text()


@pytest.mark.parametrize("rho", _ORACLE_RHOS, ids=lambda rho: rho.to_text())
@given(data=st.data())
def test_rational_scale_is_the_embedded_scale(rho, data):
    """Scaling by an int or a Fraction, which every field's values multiply
    by as it is, equals scaling by the field value it embeds to."""
    field = rho.field
    f = data.draw(st.dictionaries(monos, _field_values(rho), max_size=4).map(
        lambda d: TPoly.from_terms(field, d.items())))
    c = data.draw(st.integers(-3, 3) | fractions)
    r = data.draw(st.integers(1, 5))
    for got, want in ((f.scale(c), f.scale(field.from_fraction(c))),
                      (f.mul_var(r, c), f.mul_var(r, 1).scale(field.from_fraction(c)))):
        assert got == want and hash(got) == hash(want) and got.to_text() == want.to_text()


def test_commutator_apply_antisymmetry():
    a = LinOperator((OpTerm(Fraction(1), (("der", 1),)),))
    b = LinOperator((OpTerm(Fraction(1), (("mul", 1),)),))
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

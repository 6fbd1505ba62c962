"""Exact arithmetic layers: rational polynomials in one symbol, cyclotomic
numbers, rational functions, and specialization at roots of unity."""

import operator
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hlvir.exactnum import (GENERIC, QQ, RHO_GENERIC, Cyclotomic, FieldMismatchError, PoleError,
                            RatFunc, RhoSpec, cyclotomic_field, cyclotomic_poly, euler_phi,
                            specialize_at_rational, specialize_at_root)
from hlvir.rhopoly import _UP_ONE, UniPoly, _pack, _unpack, _width

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
RATFUNC_RHO = RHO_GENERIC.rho_pow(1)
UNIPOLY_X = UniPoly.x_pow(1)


def cyclo_elems(order):
    dim = euler_phi(order)
    return st.lists(fractions, min_size=dim, max_size=dim).map(
        lambda cs: Cyclotomic.make(order, cs))


# degree up to 12, rational coefficients, and a lead drawn separately so that
# integer leads other than +-1 are common
unipolys = st.tuples(st.lists(fractions, max_size=12),
                     st.integers(-7, 7) | fractions).map(
    lambda t: UniPoly.from_fractions(t[0] + [t[1]]))


# -- sympy, which shares no code with hlvir: it checks division and reads
# the canonical text that hlvir writes (and never reads back)

_X = sympy.Symbol("x")


def _sym(p):
    return sympy.Poly(list(reversed(p.coefficients)) or [0], _X, domain=sympy.QQ)


def _from_sym(p):
    return UniPoly.from_fractions(
        [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])


def _read(text, symbol="ρ"):
    """Canonical text as a sympy expression in x."""
    return sympy.sympify(text.replace(symbol, "x").replace("^", "**"))


def _read_poly(text, symbol="ρ"):
    return sympy.Poly(_read(text, symbol), _X, domain=sympy.QQ)


# -- euler phi and cyclotomic polynomials

def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_poly_known_cases():
    assert cyclotomic_poly(1) == UniPoly.from_ints([-1, 1])
    assert cyclotomic_poly(2) == UniPoly.from_ints([1, 1])
    assert cyclotomic_poly(4) == UniPoly.from_ints([1, 0, 1])
    assert cyclotomic_poly(6) == UniPoly.from_ints([1, -1, 1])
    assert cyclotomic_poly(12) == UniPoly.from_ints([1, 0, -1, 0, 1])


@pytest.mark.parametrize("n", range(2, 13))
def test_primitive_root_kills_its_cyclotomic_polynomial(n):
    xi = RhoSpec.root(n).rho_pow(1)
    p = cyclotomic_poly(n)
    val = Cyclotomic.constant(n, 0)
    for i, c in enumerate(p.coefficients):
        val = val + (xi ** i) * c
    assert not val
    assert xi ** n == Cyclotomic.constant(n, 1)
    # primitivity: no smaller power is 1
    for k in range(1, n):
        assert xi ** k != Cyclotomic.constant(n, 1)


# -- univariate polynomial arithmetic

@given(unipolys, unipolys)
def test_unipoly_divmod_is_exact(a, b):
    if not b:
        return
    q, r = divmod(a, b)
    assert b * q + r == a
    assert r.degree < b.degree or not r


@given(unipolys, unipolys)
def test_unipoly_gcd_divides_both(a, b):
    g = a.gcd(b)
    if not g:
        assert not a and not b
        return
    assert not a % g
    assert not b % g


@given(unipolys)
def test_unipoly_text_round_trip(p):
    """sympy reads to_text() back as the same polynomial."""
    assert _read_poly(p.to_text()) == _sym(p)

@pytest.mark.parametrize("n", range(1, 61))
def test_cyclotomic_poly_matches_sympy(n):
    want = sympy.Poly(sympy.cyclotomic_poly(n, _X), _X).all_coeffs()
    assert cyclotomic_poly(n) == UniPoly.from_ints(int(c) for c in reversed(want))


# -- packed kernels against a reference on coefficient lists
#
# A UniPoly is one int P(2^B) over a denominator, with a bound N on P's
# coefficients.  The operands below are packed directly, at widths above the
# least one, with unreduced content and with bounds from exact up to the
# largest a width allows, so that their sums and products cross the repack
# threshold; the reference works on Fraction lists and shares no code with
# the kernels.


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b, sign):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim(x + sign * y for x, y in zip(a, b))


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _assert_packed(v):
    """The stored form satisfies the packing invariant."""
    assert v._den > 0 and v._B % 64 == 0
    assert v._N < 2 ** (v._B - 1)
    digits = _unpack(v._p, v._B)
    assert sum(map(abs, digits)) <= v._N
    assert _pack(digits, v._B) == v._p


big_coeffs = (st.integers(-9, 9) | st.integers(-2 ** 66, 2 ** 66)
              | st.sampled_from([2 ** 62, 1 - 2 ** 62, 2 ** 63 - 1, -2 ** 63]))


def _packed(draw, cs, den):
    """cs / den packed with drawn content, width and bound."""
    k = draw(st.integers(1, 6))
    cs = [c * k for c in cs]
    exact = sum(map(abs, cs))
    width = _width(exact) + 64 * draw(st.integers(0, 2))
    top = 2 ** (width - 1) - 1
    bound = draw(st.sampled_from([exact, top, (exact + top) // 2]))
    return UniPoly(_pack(cs, width), den * k, width, bound)


@st.composite
def packed_values(draw):
    """(reference coefficients, two packings of that value)."""
    cs = draw(st.lists(big_coeffs, max_size=6))
    den = draw(st.integers(1, 12))
    return (_trim(Fraction(c, den) for c in cs),
            _packed(draw, cs, den), _packed(draw, cs, den))


@settings(max_examples=400, deadline=None)
@given(packed_values(), packed_values(),
       st.fractions(min_value=-2 ** 64, max_value=2 ** 64, max_denominator=7))
def test_packed_kernels_match_reference(x, y, q):
    (ra, a, a2), (rb, b, b2) = x, y
    operands = (a, a2, b, b2)
    widths = [v._B for v in operands]
    assert a == a2 and hash(a) == hash(a2)
    assert (a == b) == (ra == rb) and (a2 == b2) == (ra == rb)
    results = [(a + b, _ref_add(ra, rb, 1)), (a2 - b, _ref_add(ra, rb, -1)),
               (a * b2, _ref_mul(ra, rb)), (a2 * a, _ref_mul(ra, ra)),
               ((RatFunc.from_poly(b) * q).num, _trim(c * q for c in rb)),
               (-a, [-c for c in ra])]
    for v, want in results:
        _assert_packed(v)
        assert list(v.coefficients) == want
        canonical = UniPoly.from_fractions(want)
        assert v == canonical and hash(v) == hash(canonical)
        assert _read_poly(v.to_text()) == _sym(canonical)
    # operands may be tightened in place, but never widened and never changed
    for v, want in zip(operands, (ra, ra, rb, rb)):
        _assert_packed(v)
        assert list(v.coefficients) == want
    assert [v._B for v in operands] == widths


def _stored(v):
    return v._p, v._den, v._B, v._N


def test_packed_product_repacks_wider():
    a = UniPoly.from_ints([2 ** 40, -1, 3])
    assert a._B == 64
    square = a * a
    assert square._B == 128 and a._B == 64
    assert list(square.coefficients) == [2 ** 80, -2 ** 41, 6 * 2 ** 40 + 1, -6, 9]


def test_shared_constants_keep_their_width():
    wide = RatFunc.make(UniPoly.from_ints([2 ** 70, 1]), UniPoly.from_ints([1, 1]))
    assert wide.num._B == 128
    poly = RatFunc.from_poly(UniPoly.from_ints([3, 5]))
    ones = [_stored(_UP_ONE), _stored(UNIPOLY_X)]
    total = wide + poly
    assert total == RatFunc.make(UniPoly.from_ints([2 ** 70 + 3, 9, 5]),
                                 UniPoly.from_ints([1, 1]))
    x = RatFunc.from_poly(UNIPOLY_X)
    assert not wide * x - x * wide
    assert [_stored(_UP_ONE), _stored(UNIPOLY_X)] == ones and _UP_ONE._B == 64
    assert (poly * poly).num._B == 64  # narrow values stay narrow


def test_wide_constant_meets_narrow_polynomial():
    rho = UniPoly.from_ints([0, 1])  # width 64: the int 2^64
    c = UniPoly.constant(2 ** 64)  # width 128: the same int
    assert rho._p == c._p and rho._B != c._B
    assert rho != c and c != rho and rho - c == UniPoly.from_ints([-2 ** 64, 1])
    assert list((rho * c).coefficients) == [0, 2 ** 64]


# -- division against sympy

@settings(max_examples=300, deadline=None)
@given(unipolys, unipolys)
def test_unipoly_division_matches_sympy(a, b):
    sa, sb = _sym(a), _sym(b)
    if b:
        q, r = divmod(a, b)
        sq, sr = sympy.div(sa, sb)
        assert (q, r) == (_from_sym(sq), _from_sym(sr))
        assert (a * b).divexact(b) == a
        if sr.is_zero:
            assert a.divexact(b) == _from_sym(sympy.exquo(sa, sb))
        else:
            with pytest.raises(ValueError):
                a.divexact(b)
    else:
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
    g = a.gcd(b)
    assert g == _from_sym(sympy.gcd(sa, sb))
    if a and b:  # sympy's gcdex needs both nonzero
        g, s, t = a.xgcd(b)
        ss, st_, sg = sympy.gcdex(sa, sb)
        assert (g, s, t) == (_from_sym(sg), _from_sym(ss), _from_sym(st_))


# -- cyclotomic field axioms

@given(cyclo_elems(5), cyclo_elems(5), cyclo_elems(5))
def test_cyclotomic_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("order", range(2, 9))
@given(data=st.data())
def test_cyclotomic_times_a_rational_is_times_its_embedding(order, data):
    """x * c and c * x, for an int or a Fraction c (zero and negative ones
    included), equal x * from_fraction(c) in ==, hash and text."""
    x = data.draw(cyclo_elems(order))
    c = data.draw(st.sampled_from([0, -1, -3, Fraction(0), Fraction(-2, 3)])
                  | st.integers(-9, 9) | fractions)
    want = x * cyclotomic_field(order).from_fraction(c)
    for got in (x * c, c * x):
        assert type(got) is Cyclotomic and got.order == order
        assert got == want and hash(got) == hash(want) and got.to_text() == want.to_text()
    assert bool(x * c) == bool(x and c)


@given(cyclo_elems(4))
def test_cyclotomic_inverse(a):
    if not a:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    one = Cyclotomic.constant(4, 1)
    assert a * a.inverse() == one
    assert (one / a) * a == one


@given(cyclo_elems(3))
def test_cyclotomic_text_round_trip(a):
    """sympy reads to_text() back as the reduced polynomial in z."""
    assert _read_poly(a.to_text(), "z") == _sym(a.poly)


# -- integer cyclotomic arithmetic against UniPoly arithmetic mod Phi_n

REFERENCE_ORDERS = [1, 2, 4, 8, 9, 12, 15, 60]
wide_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=50)
# numerators near 2^200: packed widths above 64, so sums and products refit
huge_rationals = st.builds(lambda sign, k, d: Fraction(sign * (2 ** 200 + k), d),
                           st.sampled_from([1, -1]), st.integers(-2 ** 20, 2 ** 20),
                           st.integers(1, 50))


def _coord_lists(n):
    # longer than phi and, up to n + 3, longer than n
    return st.lists(wide_fractions | huge_rationals, max_size=max(n, 2 * euler_phi(n)) + 3)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(REFERENCE_ORDERS).flatmap(
    lambda n: st.tuples(st.just(n), _coord_lists(n), _coord_lists(n))),
    wide_fractions)
def test_cyclotomic_matches_unipoly_reference(case, q):
    n, xs, ys = case
    Phi = cyclotomic_poly(n)
    a, b = Cyclotomic.make(n, xs), Cyclotomic.make(n, ys)
    pa = UniPoly.from_fractions(xs or [0]) % Phi
    pb = UniPoly.from_fractions(ys or [0]) % Phi
    values = [a, b, a * b, a + b, a - b, q - a, a * q] + ([a.inverse()] if a else [])
    for v in values:  # the unique representative
        assert v.poly.degree < euler_phi(n)
    assert a.poly == pa and b.poly == pb
    assert (a * b).poly == (pa * pb) % Phi
    assert (a + b).poly == pa + pb
    assert (a - b).poly == pa - pb
    assert (q - a).poly == UniPoly.constant(q) - pa
    assert (a * q).poly == pa * q
    if a:
        assert (a.inverse().poly * pa) % Phi == UniPoly.constant(1)
    same = Cyclotomic.make(n, pa.coefficients)
    assert same == a and hash(same) == hash(a)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert _read_poly(a.to_text(), "z") == _sym(pa)


def test_cyclotomic_rational_detection():
    # z + z^2 = -1 in the third cyclotomic field
    z = RhoSpec.root(3).rho_pow(1)
    v = z + z * z
    assert v.is_rational() and v.rational_value() == -1


@pytest.mark.parametrize("rho_value", [UNIPOLY_X, RATFUNC_RHO])
def test_rho_values_and_cyclotomics_do_not_mix(rho_value):
    z = RhoSpec.root(5).rho_pow(1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(FieldMismatchError):
            op(rho_value, z)
        with pytest.raises(FieldMismatchError):
            op(z, rho_value)
    assert rho_value != z and z != rho_value


# -- rational functions and specialization

def _rf(num, den):
    """num/den, two sympy expressions in x."""
    return RatFunc.make(_from_sym(sympy.Poly(num, _X)), _from_sym(sympy.Poly(den, _X)))


def test_specialize_common_factor_cancels():
    f = _rf(1 - _X ** 2, 1 - _X ** 4)
    assert specialize_at_root(f, 2) == Cyclotomic.constant(2, Fraction(1, 2))


def test_specialize_vanishing_numerator():
    f = _rf(1 - _X ** 3, 1 - _X)
    assert not specialize_at_root(f, 3)


def test_specialize_at_rational_values():
    assert specialize_at_rational(_rf(_X, 1 - _X), 0) == 0
    assert specialize_at_rational(_rf(_X - 1, 1 - _X ** 2), 0) == -1
    assert specialize_at_rational(_rf(1 - _X ** 2, 1 - _X), 1) == 2


def test_specialize_pole_raises():
    with pytest.raises(PoleError):
        specialize_at_rational(_rf(_X - 1, 1 - _X ** 2), -1)
    with pytest.raises(PoleError):
        specialize_at_root(_rf(1, 1 + _X), 2)


@given(st.lists(fractions, min_size=1, max_size=4),
       st.lists(fractions, min_size=1, max_size=4))
def test_ratfunc_field_operations(ns, ds):
    a = RatFunc.from_poly(UniPoly.from_fractions(ns))
    b = RatFunc.from_poly(UniPoly.from_fractions(ds))
    if b:
        assert (a / b) * b == a
    assert a - a == RatFunc.constant(0)
    assert a + b == b + a


small_unipolys = st.lists(fractions, min_size=1, max_size=4).map(UniPoly.from_fractions)
ratfuncs = st.tuples(small_unipolys, small_unipolys).filter(lambda t: t[1]).map(
    lambda t: RatFunc.make(*t))


@given(ratfuncs | small_unipolys.map(RatFunc.from_poly))
def test_ratfunc_text_round_trip(a):
    """sympy reads to_text() back as num/den: "0", a rational, "(num)" or
    "(num)/(den)"."""
    text = a.to_text()
    got = _read(text)
    want = _sym(a.num).as_expr() / _sym(a.den).as_expr()
    assert sympy.cancel(got - want) == 0
    if a.is_constant():
        assert text == str(a.rational_value())
    else:
        assert text[0] == "(" and text[-1] == ")"
        assert (")/(" in text) == (a.den.degree > 0)


def _assert_canonical(v):
    """den is the shared _UP_ONE iff v is a polynomial; den monic, coprime."""
    assert (v.den is _UP_ONE) == (v.den.degree == 0)
    assert v.den.leading() == 1
    assert v.num.gcd(v.den).degree <= 0


@given(ratfuncs, ratfuncs, fractions, st.integers(-3, 3))
def test_ratfunc_polynomial_denominator_is_shared_one(a, b, q, e):
    values = [a, b, a + b, a - b, a * b, a * q, q * a, a + q, q - a, -a,
              RatFunc.make(a.num, UniPoly.constant(2)),
              RatFunc.make(a.num * a.den, a.den)]
    if b:
        values += [a / b, q / b, b ** e]
    for v in values:
        _assert_canonical(v)
    assert RatFunc.make(a.num * a.den, a.den) == RatFunc.from_poly(a.num)
    assert RatFunc.make(a.num, UniPoly.constant(2)) == a.num * Fraction(1, 2)


# -- specialization plumbing

def test_rho_spec_parsing():
    assert RhoSpec.parse("generic") == RhoSpec.generic()
    assert RhoSpec.parse("xi:3") == RhoSpec.root(3)
    assert RhoSpec.parse("0") == RhoSpec.rational(0)
    assert RhoSpec.parse("-1") == RhoSpec.rational(-1)
    assert RhoSpec.parse("2/3") == RhoSpec.rational(Fraction(2, 3))
    for text in ("generic", "xi:5", "0", "-1", "2/3"):
        assert RhoSpec.parse(text).to_text() == text
        a, b = RhoSpec.parse(text), RhoSpec.parse(text)
        assert a is not b and a == b and hash(a) == hash(b)
        assert RhoSpec.parse(a.to_text()) == a
    specs = {RhoSpec.parse(t) for t in ("generic", "xi:3", "xi:4", "0", "2/3", "xi:3", "0")}
    assert len(specs) == 5 and RhoSpec.root(3) in specs
    assert RhoSpec.rational(0) != RhoSpec.generic() and RhoSpec.root(2) != RhoSpec.rational(2)


def test_rho_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        RhoSpec.parse("xi:1")
    with pytest.raises(ValueError):
        RhoSpec.parse("pi")


def test_one_minus_rho_pow():
    assert not RhoSpec.root(2).one_minus_rho_pow(2)
    assert RhoSpec.root(2).one_minus_rho_pow(1) == cyclotomic_field(2).from_fraction(2)
    generic = RhoSpec.generic().one_minus_rho_pow(1)
    assert generic == RatFunc.from_poly(UniPoly.from_ints([1, -1]))
    assert RhoSpec.rational(0).one_minus_rho_pow(7) == 1


@pytest.mark.parametrize("n", range(2, 13))
def test_root_powers_match_repeated_products(n):
    """rho_pow at xi_n reads the field tag's table of powers."""
    xi, power = RhoSpec.root(n).rho_pow(1), Cyclotomic.constant(n, 1)
    powers = [power]
    for _ in range(n - 1):
        power = power * xi
        powers.append(power)
    rho = RhoSpec.root(n)
    for k in range(-2 * n, 2 * n):
        assert rho.rho_pow(k) == powers[k % n]


def test_field_tags_are_singletons():
    assert cyclotomic_field(3) is cyclotomic_field(3)
    assert RhoSpec.root(4).field is cyclotomic_field(4)
    assert RhoSpec.rational(0).field is QQ
    assert RhoSpec.generic().field is GENERIC


def test_field_value_text():
    k = cyclotomic_field(4)
    assert k.value_text(k.from_fraction(Fraction(-1, 2))) == "-1/2"
    z = RhoSpec.root(4).rho_pow(1)
    assert k.value_text(k.from_fraction(Fraction(1, 2)) + z) == "1/2 + 1*z"
    p = UniPoly.from_fractions([Fraction(-1, 2), 0, 1, -3])
    assert GENERIC.value_text(RatFunc.from_poly(p)) == "(-3*ρ^3 + ρ^2 - 1/2)"
    assert GENERIC.value_text(RatFunc.make(_UP_ONE, p)) == "(-1/3)/(ρ^3 - 1/3*ρ^2 + 1/6)"


# -- the fields' scaled-sum kernel

# large coprime denominators next to small ones: lcm sizes far past a word
BIG_DENS = [1, 2, 3, 7, 1_000_003, 998_244_353, 2 ** 61 - 1]
kernel_rationals = fractions | st.builds(
    Fraction, st.integers(-10 ** 6, 10 ** 6), st.sampled_from(BIG_DENS)) | huge_rationals
KERNEL_FIELDS = [QQ] + [cyclotomic_field(n) for n in (2, 3, 4, 5, 7, 9, 12)] + [GENERIC]


def _kernel_values(field):
    if field is QQ:
        return kernel_rationals
    if field is GENERIC:
        return (ratfuncs | small_unipolys.map(RatFunc.from_poly)
                | kernel_rationals.map(RatFunc.constant))
    return st.lists(kernel_rationals, min_size=field.phi, max_size=field.phi).map(
        lambda cs: Cyclotomic.make(field.order, cs))


@st.composite
def _kernel_cases(draw):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    values = _kernel_values(field)
    scalars = values | kernel_rationals | st.sampled_from([0, 1, -1])
    terms = st.dictionaries(st.integers(0, 5), values.filter(bool), max_size=5)
    pairs = draw(st.lists(st.tuples(scalars, terms), max_size=4))
    # -c * terms cancels c * terms: every key of a fully cancelled sum must go
    cancel = draw(st.sampled_from(["none", "first", "all"]))
    if pairs and cancel == "first":
        pairs.append((-pairs[0][0], pairs[0][1]))
    elif cancel == "all":
        pairs += [(-c, t) for c, t in pairs]
    return field, pairs, cancel


@settings(max_examples=250, deadline=None)
@given(_kernel_cases())
def test_lincomb_matches_the_naive_sum(case):
    field, pairs, cancel = case
    want: dict = {}
    for c, terms in pairs:
        for k, a in terms.items():
            want[k] = want.get(k, field.zero) + a * c
    want = {k: v for k, v in want.items() if v}
    got = field.lincomb(pairs)
    assert got == want
    assert all(got.values())
    if cancel == "all":
        assert got == {}
    for v in got.values():  # canonical values of the field
        if field is QQ:
            assert isinstance(v, Fraction)
        elif field is GENERIC:
            _assert_canonical(v)
        else:
            assert v.poly.degree < field.phi


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(kernel_rationals | st.sampled_from([0, 1, -1]), st.one_of(
    st.dictionaries(st.integers(0, 5), kernel_rationals.filter(bool), max_size=5),
    st.dictionaries(st.integers(0, 5), st.integers(-10 ** 20, 10 ** 20).filter(bool),
                    max_size=5))), max_size=5))
def test_rational_lincomb_den_sums_fractions_and_integer_numerators(pairs):
    """Over Q the kernel takes dicts of Fractions and dicts of ints alike,
    returns integer numerators over one positive denominator with no common
    content, and its Fraction wrapper returns only Fractions."""
    want: dict = {}
    for c, terms in pairs:
        for k, a in terms.items():
            want[k] = want.get(k, 0) + Fraction(a) * c
    want = {k: v for k, v in want.items() if v}
    den, nums = QQ.lincomb_den(pairs)
    assert type(den) is int and den > 0 and gcd(den, *nums.values()) == 1
    assert all(type(v) is int and v for v in nums.values())
    assert {k: Fraction(v, den) for k, v in nums.items()} == want
    got = QQ.lincomb(pairs)
    assert got == want and all(type(v) is Fraction for v in got.values())


def test_lincomb_repacks_a_narrow_operand_once(monkeypatch):
    """Sums that need 128 bits meet a 64-bit operand through one wide copy,
    kept across kernel calls.  Tightening the operand in place drops that
    copy, whose denominator it no longer shares."""
    field = cyclotomic_field(7)
    poly = UniPoly(_pack([2, 2], 64), 2, 64, 4)  # 1 + z, its content unreduced
    a = Cyclotomic(7, poly)
    want = {c: Cyclotomic(7, UniPoly.from_ints([c, c])) for c in (2 ** 61, 2 ** 62)}
    repacks = []
    at = UniPoly._at
    monkeypatch.setattr(UniPoly, "_at", lambda self, width: repacks.append(width) or at(self, width))
    c = 2 ** 61  # c times a's bound is 2^63: the sums need 128 bits
    first = field.lincomb([(c, {"k": a})])
    second = field.lincomb([(c, {"k": a}), (c, {"j": a})])
    assert repacks == [128]
    assert first == {"k": want[c]} and second == {"k": want[c], "j": want[c]}
    poly._tighten()
    assert (poly._den, poly._N, poly._B) == (1, 2, 64)
    c = 2 ** 62  # c times the exact bound is 2^63 again
    assert field.lincomb([(c, {"k": a})]) == {"k": want[c]}


def test_generic_lincomb_merges_denominators_into_polynomial_sums():
    """Products with a denominator whose sum is a polynomial, merged with the
    packed polynomial sum of their key: the result has the shared
    denominator _UP_ONE, and a key whose merged sum is 0 goes."""
    inv = 1 / (1 - RATFUNC_RHO)
    one = GENERIC.one
    pairs = [(1, {"a": inv, "b": inv, "c": inv}),
             (-RATFUNC_RHO, {"a": inv, "b": inv, "c": inv}),  # 1/(1 - rho) - rho/(1 - rho) = 1
             (RATFUNC_RHO * RATFUNC_RHO, {"a": one}),
             (-1, {"b": one}),
             (inv, {"d": RATFUNC_RHO - 1}),  # a denominator from c: (rho - 1)/(1 - rho) = -1
             (Fraction(1, 3), {"d": 3 * one})]
    got = GENERIC.lincomb(pairs)
    assert got == {"a": 1 + RATFUNC_RHO * RATFUNC_RHO, "c": one}
    for v in got.values():
        assert v.den is _UP_ONE
        _assert_canonical(v)


def test_generic_lincomb_sums_polynomials_without_ratfunc_arithmetic(monkeypatch):
    """Over polynomial values, with polynomial, rational and +-1 scalars, the
    Q(rho) kernel is packed UniPoly calls only: no RatFunc product or sum."""
    rho = RATFUNC_RHO
    values = {"a": 1 - rho, "b": rho * rho * Fraction(2, 3), "c": GENERIC.one}
    pairs = [(rho + 2, values), (Fraction(-5, 7), values), (1, {"a": rho}), (-1, values),
             (GENERIC.from_fraction(3), {"b": rho}), (0, values)]
    want = {}
    for c, terms in pairs:
        for k, a in terms.items():
            want[k] = want.get(k, GENERIC.zero) + a * c
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(RatFunc, name, lambda *args, name=name: calls.append(name))
    got = GENERIC.lincomb(pairs)
    monkeypatch.undo()
    assert calls == []
    assert got == {k: v for k, v in want.items() if v}
    for v in got.values():
        _assert_canonical(v)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.name)
def test_lincomb_small_cases(field):
    one, two = field.from_fraction(1), field.from_fraction(Fraction(2, 1_000_003))
    assert field.lincomb([]) == {}
    assert field.lincomb([(1, {})]) == {}
    assert field.lincomb([(0, {"a": one})]) == {}
    assert field.lincomb([(Fraction(1, 2), {"a": two})]) == {"a": two * Fraction(1, 2)}
    assert field.lincomb([(3, {"a": one, "b": two}), (-3, {"a": one})]) == {"b": two * 3}
    # nine alternating copies of 2^60: the running bound of the sums reaches
    # 2^63 while the sums stay small, so the bound is made exact in place
    alternating = [((-1) ** i * 2 ** 60, {"a": one}) for i in range(9)]
    assert field.lincomb(alternating) == {"a": one * 2 ** 60}
    if field is not QQ and field is not GENERIC and field.phi > 1:
        z = RhoSpec.root(field.order).rho_pow(1)
        # z * z^(phi-1) = z^phi reduces mod Phi_n
        top = z ** (field.phi - 1)
        assert field.lincomb([(z, {"a": top})]) == {"a": z * top}
        assert field.lincomb([(z, {"a": top}), (-z, {"a": top})]) == {}
        # a rational c before and after one that convolves
        pairs = [(2, {"a": top, "b": two}), (z, {"a": top}), (Fraction(1, 3), {"a": two})]
        assert field.lincomb(pairs) == {"a": top * 2 + z * top + two / 3, "b": two * 2}

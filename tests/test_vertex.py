"""Vertex-operator modes, polynomial construction, and the adjoint lowering
operators.  The one-row polynomials are cross-checked against a directly
expanded exponential generating function."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlvir import vertex
from hlvir.exactnum import (QQ, RHO_GENERIC, RHO_ZERO, RhoSpec,
                            specialize_at_rational, specialize_at_root)
from hlvir.structure import partitions
from hlvir.tring import TPoly, inner_product, mono_from_exponents
from hlvir.vertex import (AdjointUndefinedError, QCombination, _apply_b_mono,
                          apply_B, clear_caches, hl_q, one_row, perp_p,
                          perp_t, set_cache_enabled)


def exp_series(arg_terms, max_degree):
    """exp(sum of homogeneous terms), truncated above max_degree."""
    field = arg_terms.field
    out = TPoly.one(field)
    power = TPoly.one(field)
    for k in range(1, max_degree + 1):
        power = power * arg_terms
        power = TPoly.from_terms(
            field, ((m, c) for m, c in power.terms.items()
                    if sum(v * e for v, e in m) <= max_degree))
        out = out + power.scale(Fraction(1, _factorial(k)))
        if not power:
            break
    return out


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


@pytest.mark.parametrize("rho", [RHO_GENERIC, RHO_ZERO, RhoSpec.root(2), RhoSpec.root(3)])
def test_one_row_matches_generating_function(rho):
    """Degree-i part of exp(sum_n (1 - rho^n) t_n) is the i-th row polynomial."""
    max_degree = 6
    field = rho.field
    arg = TPoly.zero(field)
    for n in range(1, max_degree + 1):
        c = rho.one_minus_rho_pow(n)
        if c:
            arg = arg + TPoly.var(field, n).scale(c)
    series = exp_series(arg, max_degree)
    for i in range(max_degree + 1):
        graded = TPoly.from_terms(
            field, ((m, c) for m, c in series.terms.items()
                    if sum(v * e for v, e in m) == i))
        assert one_row(i, rho) == graded


def _lower_coeffs(f):
    """Reference for the annihilation half, by derivatives: g_j is the
    u^{-j} coefficient of exp(-sum_k (1/k) d_k u^{-k}) f, j = 0..deg f."""
    d = f.degree()
    if d < 0:
        return []
    g = [TPoly.zero(f.field) for _ in range(d + 1)]
    g[0] = f
    variables = sorted({v for m in f.terms for v, _ in m})
    for k in variables:
        old = list(g)
        ders = old
        s = 1
        c = Fraction(1)
        while k * s <= d:
            c *= Fraction(-1, k * s)
            ders = [p.diff(k) for p in ders]
            if not any(ders):
                break
            for j in range(k * s, d + 1):
                src = ders[j - k * s]
                if src:
                    g[j] = g[j] + src.scale(c)
            s += 1
    return g


@pytest.mark.parametrize("rho", [RHO_GENERIC, RHO_ZERO, RhoSpec.rational(2),
                                 RhoSpec.root(3)])
def test_closed_form_b_matches_derivative_route(rho):
    """B_m t^mu by the closed form equals sum_j E_{m+j} g_j with g_j from
    the derivatives, for every monomial of degree <= 6 and m in -3..3."""
    field = rho.field
    for d in range(7):
        for lam in partitions(d):
            mono = mono_from_exponents((v, lam.count(v)) for v in set(lam))
            g = _lower_coeffs(TPoly(field, {mono: field.one}))
            for m in range(-3, 4):
                want = TPoly.zero(field)
                for j, gj in enumerate(g):
                    if m + j >= 0 and gj:
                        want = want + one_row(m + j, rho) * gj
                assert _apply_b_mono(rho, m, mono) == want, (rho, m, mono)


def test_one_row_examples():
    x2 = RhoSpec.root(2)
    f = one_row(3, x2)
    want = TPoly.from_terms(x2.field, (
        (((1, 3),), x2.field.from_fraction(Fraction(4, 3))),
        (((3, 1),), x2.field.from_fraction(2)),
    ))
    assert f == want
    assert one_row(0, RHO_GENERIC) == TPoly.one(RHO_GENERIC.field)
    assert not one_row(-1, RHO_GENERIC)


def test_apply_b_degree_shift_and_cutoff():
    x2 = RhoSpec.root(2)
    t2 = TPoly.var(x2.field, 2)
    out = apply_B(1, t2, x2)
    assert out.degree() == 3
    assert apply_B(-3, t2, x2) == TPoly.zero(x2.field)
    # frozen hand computation
    want = TPoly.from_terms(x2.field, (
        (((1, 1), (2, 1)), x2.field.from_fraction(2)),
        (((1, 3),), x2.field.from_fraction(Fraction(-2, 3))),
        (((3, 1),), x2.field.from_fraction(-1)),
    ))
    assert out == want
    assert apply_B(-1, t2, x2) == TPoly.var(x2.field, 1, -1)


def test_hl_q_frozen_values():
    x2 = RhoSpec.root(2)
    assert hl_q((2,), x2).to_text() == "2*t1^2"
    assert hl_q((1, 1), RHO_ZERO).to_text() == "1/2*t1^2 - 1*t2"
    assert hl_q((2, -1), RHO_GENERIC).to_text() == "0"
    assert hl_q((), RHO_ZERO) == TPoly.one(QQ)
    generic_row = hl_q((1,), RHO_GENERIC)
    assert generic_row == TPoly.var(RHO_GENERIC.field, 1).scale(
        RHO_GENERIC.one_minus_rho_pow(1))


def test_hl_q_trailing_zeros_and_negative_tail():
    for rho in (RHO_GENERIC, RHO_ZERO, RhoSpec.root(3)):
        assert hl_q((3, 1, 0), rho) == hl_q((3, 1), rho)
        assert hl_q((2, 1, -4), rho) == TPoly.zero(rho.field)


def test_hl_q_homogeneous_of_weight():
    for lam in [(2, 1), (3, 1, 1), (4,), (2, 2, 2)]:
        f = hl_q(lam, RHO_ZERO)
        assert f.is_homogeneous()
        assert f.degree() == sum(lam)


def test_schur_q_modes_square_to_zero():
    """At the second root the same nonzero mode applied twice annihilates;
    the zero mode squares to the identity."""
    x2 = RhoSpec.root(2)
    mono = TPoly.from_terms(x2.field, ((mono_from_exponents(((1, 1), (3, 1))),
                                        x2.field.one),))
    for n in (1, 2, 3):
        assert apply_B(n, apply_B(n, mono, x2), x2) == TPoly.zero(x2.field)
    assert apply_B(0, apply_B(0, mono, x2), x2) == mono


def test_perp_t_is_adjoint_to_multiplication():
    rho = RHO_GENERIC
    field = rho.field
    f = hl_q((2, 1), rho)
    g = hl_q((3,), rho)
    r = 2
    lhs = inner_product(perp_t(r, f, rho), g, rho)
    rhs = inner_product(f, g.mul_var(r), rho)
    assert lhs == rhs


def test_perp_t_undefined_at_degenerate_index():
    x3 = RhoSpec.root(3)
    f = hl_q((3, 1), x3)
    with pytest.raises(AdjointUndefinedError):
        perp_t(3, f, x3)
    # non-multiples are fine
    perp_t(2, f, x3)


def test_perp_p_label_rule():
    comb = QCombination.single(QQ, (3, 2))
    out = perp_p(2, comb)
    assert out == QCombination.from_terms(QQ, (((1, 2), Fraction(1)),
                                               ((3, 0), Fraction(1))))


def test_qcombination_text_and_json():
    comb = QCombination.from_terms(QQ, (((2,), Fraction(1)),
                                        ((1, 1), Fraction(-1, 2))))
    assert comb.to_text() == "1*Q[2] - 1/2*Q[1,1]"
    assert QCombination.from_json(QQ, comb.to_json()) == comb
    assert QCombination.zero(QQ).to_text() == "0"


def test_qcombination_evaluate_linearity():
    rho = RHO_ZERO
    comb = QCombination.from_terms(QQ, (((2,), Fraction(2)),
                                        ((1, 1), Fraction(-1))))
    direct = hl_q((2,), rho).scale(2) - hl_q((1, 1), rho)
    assert comb.evaluate(rho) == direct


def test_full_cache_evicts_its_oldest_entry(monkeypatch):
    rho = RHO_ZERO
    want = {k: hl_q((k,), rho) for k in range(1, 6)}
    clear_caches()
    monkeypatch.setattr(vertex, "_CACHE_MAX", 3)
    try:
        for k in range(1, 6):
            assert hl_q((k,), rho) == want[k]
        assert list(vertex._Q_CACHE) == [(rho.key, (k,)) for k in (3, 4, 5)]
        assert all(len(cache) <= 3 for cache in vertex._CACHES)
    finally:
        clear_caches()


def test_cache_toggle_preserves_results():
    x2 = RhoSpec.root(2)
    with_cache = hl_q((3, 2, 1), x2)
    set_cache_enabled(False)
    try:
        without = hl_q((3, 2, 1), x2)
    finally:
        set_cache_enabled(True)
    assert with_cache == without
    clear_caches()
    assert hl_q((3, 2, 1), x2) == with_cache


def test_one_row_without_cache_builds_each_row_once(monkeypatch):
    # E_j needs one mul_var per k <= j, so E_1..E_20 take at most 210
    calls = []
    mul_var = TPoly.mul_var

    def counted(self, *args):
        calls.append(args)
        return mul_var(self, *args)

    clear_caches()
    want = one_row(20, RHO_ZERO)
    clear_caches()
    monkeypatch.setattr(TPoly, "mul_var", counted)
    set_cache_enabled(False)
    try:
        got = one_row(20, RHO_ZERO)
    finally:
        set_cache_enabled(True)
    assert len(calls) <= 210
    assert got == want


def test_hl_q_long_weight_zero_label():
    # one B-step per part, 3000 parts: deeper than Python's recursion limit
    try:
        assert hl_q((-1, 1) * 1500, RHO_ZERO) == TPoly.one(QQ)
    finally:
        clear_caches()


# -- the same Q_lambda computed in two fields

ORACLE_LABELS = [lam for k in range(9) for lam in partitions(k)] + [
    (0,), (0, 2), (2, -1, 1), (1, 0, 2), (1, 3, 2)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 12])
def test_root_of_unity_matches_specialized_generic(n):
    """Q_lambda built in Q(xi_n) equals Q_lambda built over Q(rho) with each
    coefficient specialized at rho = xi_n; the generic construction does no
    cyclotomic arithmetic, so it checks that arithmetic from outside."""
    rho = RhoSpec.root(n)
    for lam in ORACLE_LABELS:
        generic = hl_q(lam, RHO_GENERIC)
        want = TPoly.from_terms(rho.field, (
            (m, specialize_at_root(c, n)) for m, c in generic.terms.items()))
        assert hl_q(lam, rho) == want, (lam, n)


@pytest.mark.parametrize("r", [0, 2, -1, Fraction(1, 2)])
def test_rational_rho_matches_specialized_generic(r):
    """The same cross-field check at rational rho = r."""
    rho = RhoSpec.rational(r)
    for lam in ORACLE_LABELS:
        generic = hl_q(lam, RHO_GENERIC)
        want = TPoly.from_terms(QQ, (
            (m, specialize_at_rational(c, r)) for m, c in generic.terms.items()))
        assert hl_q(lam, rho) == want, (lam, r)

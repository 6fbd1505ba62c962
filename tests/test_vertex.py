"""Vertex-operator modes, polynomial construction, and the adjoint lowering
operators.  The one-row polynomials are cross-checked against a directly
expanded exponential generating function."""

from collections import OrderedDict
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlvir import vertex
from hlvir.exactnum import (QQ, RHO_GENERIC, RHO_ZERO, RhoSpec,
                            specialize_at_rational, specialize_at_root)
from hlvir.structure import partitions
from hlvir.tring import TPoly, inner_product, mono_degree, mono_from_exponents
from hlvir.vertex import (AdjointUndefinedError, QCombination, _apply_b_mono,
                          apply_B, apply_B_sum, clear_caches, hl_q, one_row,
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
        out = out + power.scale(Fraction(1, factorial(k)))
        if not power:
            break
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


def _entry_poly(field, entry):
    """den^-1 times the numerators of a B-table entry, as a polynomial; over
    Q the entry's numerators are ints with no content left over den > 0."""
    den, terms = entry
    if field is QQ:
        assert den > 0 and all(type(v) is int for v in terms.values())
        assert gcd(den, *terms.values()) == 1
    else:
        assert den == 1
    return TPoly(field, {mo: v * Fraction(1, den) for mo, v in terms.items()})


@pytest.mark.parametrize("cached", [True, False])
@pytest.mark.parametrize("rho, max_degree", [
    (RHO_GENERIC, 6), (RHO_ZERO, 6), (RhoSpec.rational(2), 6), (RhoSpec.root(3), 6),
    (RhoSpec.root(5), 5), (RhoSpec.rational(Fraction(1, 2)), 6), (RhoSpec.rational(-1), 6)])
def test_b_on_monomials_matches_derivative_route(rho, max_degree, cached):
    """B_m t^mu, from its table entry, equals sum_j E_{m+j} g_j with g_j from
    the derivatives, for every monomial up to max_degree and m in -6..6;
    uncached, every entry comes from the memo of its own call.  rho = 1/2
    puts denominators in rho itself, rho = -1 zero weights 1 - rho^k."""
    field = rho.field
    clear_caches()
    set_cache_enabled(cached)
    try:
        for d in range(max_degree + 1):
            for lam in partitions(d):
                mono = mono_from_exponents((v, lam.count(v)) for v in set(lam))
                g = _lower_coeffs(TPoly(field, {mono: field.one}))
                for m in range(-6, 7):
                    want = TPoly.zero(field)
                    for j, gj in enumerate(g):
                        if m + j >= 0 and gj:
                            want = want + one_row(m + j, rho) * gj
                    got = _entry_poly(field, _apply_b_mono(rho, m, mono, {}))
                    assert got == want, (rho, m, mono)
    finally:
        set_cache_enabled(True)


def _count_kernel_calls(monkeypatch) -> list:
    """The number of pairs of each QQ.lincomb_den call from now on: one call
    builds one B-table entry."""
    calls = []
    lincomb = QQ.lincomb_den

    def counted(pairs):
        calls.append(len(pairs))
        return lincomb(pairs)

    monkeypatch.setattr(QQ, "lincomb_den", counted)
    return calls


def test_b_on_monomials_without_cache_builds_each_entry_once(monkeypatch):
    # B_0 t_1^10 peels ten t_1's down to the entries (j, t_1^e) with
    # j + e <= 10, E_0..E_10 among them: 66 entries, where a recursion
    # without a per-call memo would reach them 2^10 times
    mono = ((1, 10),)
    clear_caches()
    calls = _count_kernel_calls(monkeypatch)
    want = _apply_b_mono(RHO_ZERO, 0, mono, {})
    assert len(calls) == len(vertex._B_CACHE) == 66
    calls.clear()
    set_cache_enabled(False)
    try:
        got = _apply_b_mono(RHO_ZERO, 0, mono, {})
    finally:
        set_cache_enabled(True)
    assert len(calls) == 66
    assert got == want


def test_b_on_a_polynomial_without_cache_shares_entries(monkeypatch):
    # the monomials of one polynomial share the entries of B_m, E_m among
    # them: uncached, each of the five apply_B calls of Q_(4,3,2,2,1) builds
    # each entry it reaches once, as it does from cold caches
    label = (4, 3, 2, 2, 1)
    suffixes = [hl_q(label[j + 1:], RHO_ZERO) for j in range(len(label))]
    calls = _count_kernel_calls(monkeypatch)
    per_step = 0
    for a, f in zip(label, suffixes):
        clear_caches()
        calls.clear()
        apply_B(a, f, RHO_ZERO)
        per_step += len(calls)
    clear_caches()
    calls.clear()
    want = hl_q(label, RHO_ZERO)
    assert len(calls) == len(vertex._B_CACHE)
    calls.clear()
    set_cache_enabled(False)
    try:
        got = hl_q(label, RHO_ZERO)
    finally:
        set_cache_enabled(True)
    assert len(calls) == per_step == 149
    assert got == want


# Q, Q(rho), Q(xi_3) and Q(xi_5)
_SUM_RHOS = (RhoSpec.rational(2), RHO_GENERIC, RhoSpec.root(3), RhoSpec.root(5))
_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# a rational s, or (a, b, k) for the field value a + b rho^k
_scalars = st.one_of(_fracs, st.tuples(_fracs, _fracs, st.integers(1, 4)))
# f as (variables of a monomial, coefficient) pairs; [] is f = 0
_polys = st.lists(st.tuples(st.lists(st.integers(1, 3), max_size=3), _fracs), max_size=3)


def _field_scalar(rho, s):
    if isinstance(s, Fraction):
        return s
    a, b, k = s
    return rho.field.from_fraction(a) + rho.rho_pow(k) * b


def _spec_poly(field, spec):
    return TPoly.from_terms(field, (
        (mono_from_exponents((v, vs.count(v)) for v in set(vs)), field.from_fraction(c))
        for vs, c in spec))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(_SUM_RHOS))),
       st.lists(st.tuples(_scalars, st.integers(-3, 3), _polys), max_size=5))
@example(0, [(Fraction(0), 1, [([1], 1)]), ((2, -1, 1), 1, []),
             ((Fraction(1, 2), 3, 2), 1, [([1, 2], 1), ([], Fraction(-1, 3))]),
             (Fraction(-2), 1, [([2], 1)]), ((0, 0, 1), 0, [([3], 2)])])
@example(1, [((0, 1, 1), -1, [([1, 1], 1)]), (Fraction(1, 3), -1, [([2], 1)]),
             (Fraction(0), 2, []), ((1, -1, 2), 2, [([1], Fraction(1, 2))])])
@example(2, [((0, 1, 1), 0, [([1], 1)]), ((0, 1, 2), 0, [([1], 1)]),
             (Fraction(-1), 1, [([1, 1], 3)])])
@example(3, [((1, 1, 1), 2, [([2, 1], 1)]), (Fraction(1, 2), 2, [([3], -1)]),
             ((0, 0, 3), 1, [([1], 1)])])
def test_b_sum_is_the_sum_of_scaled_b(rho_index, raw_parts):
    """apply_B_sum equals sum s * apply_B(m, f), added term by term with TPoly
    arithmetic, for rational and field-valued s (zero ones included), zero f
    and repeated m."""
    rho = _SUM_RHOS[rho_index]
    field = rho.field
    parts = [(_field_scalar(rho, s), m, _spec_poly(field, f)) for s, m, f in raw_parts]
    want = TPoly.zero(field)
    for s, m, f in parts:
        want = want + apply_B(m, f, rho).scale(s)
    assert apply_B_sum(rho, parts) == want


def test_b_sum_refuses_a_polynomial_over_another_field():
    with pytest.raises(vertex.FieldMismatchError):
        apply_B_sum(RHO_ZERO, ((1, 0, TPoly.one(QQ)), (1, 0, TPoly.one(RHO_GENERIC.field))))


def test_schur_q_pfaffian_at_minus_one():
    """At rho = -1, Q_lambda is Schur's Q-function, and for a > b
    Q_(a,b) = Q_a Q_b + 2 sum_{k=1}^{b} (-1)^k Q_{a+k} Q_{b-k} (Macdonald,
    Symmetric Functions, III.8); Q_(a,a) = 0.  The right side uses only the
    one-row polynomials and TPoly products, no row operator."""
    rho = RhoSpec.rational(-1)
    for a in range(2, 8):
        for b in range(1, a):
            want = one_row(a, rho) * one_row(b, rho)
            for k in range(1, b + 1):
                want = want + (one_row(a + k, rho) * one_row(b - k, rho)).scale(2 * (-1) ** k)
            assert hl_q((a, b), rho) == want, (a, b)
    for a in range(1, 5):
        assert hl_q((a, a), rho) == TPoly.zero(QQ), a


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
        assert {mono_degree(m) for m in f.terms} == {sum(lam)}


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
    rhs = inner_product(f, g.mul_var(r, 1), rho)
    assert lhs == rhs


def test_perp_t_undefined_at_degenerate_index():
    x3 = RhoSpec.root(3)
    f = hl_q((3, 1), x3)
    with pytest.raises(AdjointUndefinedError):
        perp_t(3, f, x3)
    # non-multiples are fine
    perp_t(2, f, x3)


def test_qcombination_text_and_json():
    comb = QCombination.from_terms(QQ, (((2,), Fraction(1)),
                                        ((1, 1), Fraction(-1, 2))))
    assert comb.to_text() == "1*Q[2] - 1/2*Q[1,1]"
    assert comb.to_json() == [{"label": [2], "coeff": "1"},
                              {"label": [1, 1], "coeff": "-1/2"}]
    assert QCombination.single(QQ, (2, 1)).to_json() == [{"label": [2, 1], "coeff": "1"}]
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
        # E_k = B_k 1: hl_q((5,)) rebuilt the evicted E_0 and E_1, which
        # evicted E_2..E_4 before they were read, so it rebuilt those too
        assert list(vertex._B_CACHE) == [(rho.key, k, ()) for k in (3, 4, 5)]
        assert all(len(cache) <= 3 for cache in vertex._CACHES)
    finally:
        clear_caches()


def test_cache_keeps_its_bound_and_drops_its_oldest_key_first(monkeypatch):
    monkeypatch.setenv("HLVIR_CACHE_MAX", "4")
    monkeypatch.setattr(vertex, "_CACHE_MAX", None)  # read the bound again
    cache = OrderedDict()
    for k in range(12):
        vertex._cache_put(cache, k, k)
        assert list(cache) == list(range(max(0, k - 3), k + 1))
    clear_caches()
    try:
        for lam in partitions(6):
            hl_q(lam, RhoSpec.rational(2))
            assert all(len(cache) <= 4 for cache in vertex._CACHES)
        # the last label's own suffixes went in last
        assert list(vertex._Q_CACHE)[-2:] == [(RhoSpec.rational(2).key, (1,) * k) for k in (5, 6)]
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
    # E_j is one field sum of a term per k <= j, so E_1..E_20 take 20 sums
    # of 210 terms in all, after one sum of one term for E_0's entry
    calls = []
    lincomb = QQ.lincomb_den

    def counted(pairs):
        calls.append(len(pairs))
        return lincomb(pairs)

    clear_caches()
    want = one_row(20, RHO_ZERO)
    clear_caches()
    monkeypatch.setattr(QQ, "lincomb_den", counted)
    set_cache_enabled(False)
    try:
        got = one_row(20, RHO_ZERO)
    finally:
        set_cache_enabled(True)
    assert len(calls) == 21 and sum(calls) == 211
    assert got == want


@pytest.mark.parametrize("rho", [RHO_ZERO, RhoSpec.rational(2), RhoSpec.rational(Fraction(1, 2))])
def test_b_table_holds_ints_and_results_hold_fractions(rho):
    """Over Q every B-table entry is (den, {mono: int}), and every value read
    out of the table is a Fraction: one_row, apply_B (at rho = 0 and 2,
    B_1 1 = E_1 is the kernel's single pair with c = 1 and den = 1), hl_q
    and QCombination.evaluate."""
    clear_caches()
    try:
        results = [one_row(i, rho) for i in range(-1, 6)]
        results += [apply_B(1, TPoly.one(QQ), rho), apply_B(-1, one_row(3, rho), rho),
                    apply_B_sum(rho, ((Fraction(1, 3), 2, hl_q((2, 1), rho)),
                                      (-1, 1, one_row(2, rho))))]
        results += [hl_q(lam, rho) for size in range(6) for lam in partitions(size)]
        results += [QCombination.single(QQ, (2, 1)).evaluate(rho),
                    QCombination(QQ, {(3,): Fraction(1, 2), (2, 1): Fraction(-2)}).evaluate(rho)]
        assert all(r.terms for r in results[2:])
        assert all(type(v) is Fraction for r in results for v in r.terms.values())
        entries = list(vertex._B_CACHE.values())
        assert len(entries) > 30
        for den, terms in entries:
            assert type(den) is int and den > 0
            assert all(type(v) is int for v in terms.values())
    finally:
        clear_caches()


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


# -- Jacobi-Trudi at rho = 0, from Newton's identities alone
#
# At rho = 0, Q_lambda is the Schur function s_lambda, with p_j = j * t_j.
# h_k and e_k come from Newton's identities in TPoly arithmetic, and
# s_lambda from the Jacobi-Trudi determinant (the dual one in e when the
# partition is longer than wide, so no determinant exceeds 4 x 4 at size 8).

def _newton(max_k, sign):
    """h_0..h_max_k (sign = 1) or e_0..e_max_k (sign = -1):
    k x_k = sum_{j=1}^{k} sign^(j-1) p_j x_{k-j}, p_j = j t_j."""
    out = [TPoly.one(QQ)]
    for k in range(1, max_k + 1):
        acc = TPoly.zero(QQ)
        for j in range(1, k + 1):
            p_j = TPoly.var(QQ, j).scale(j * sign ** (j - 1))
            acc = acc + p_j * out[k - j]
        out.append(acc.scale(Fraction(1, k)))
    return out


def _det(rows):
    """Determinant by expansion along the first row."""
    if not rows:
        return TPoly.one(QQ)
    out = TPoly.zero(QQ)
    for col, entry in enumerate(rows[0]):
        if entry:
            minor = [row[:col] + row[col + 1:] for row in rows[1:]]
            out = out + (entry * _det(minor)).scale((-1) ** col)
    return out


def _conjugate(lam):
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0] if lam else 0))


def test_generic_at_zero_is_jacobi_trudi():
    h, e = _newton(8, 1), _newton(8, -1)
    for lam in (lam for k in range(9) for lam in partitions(k)):
        seq, parts = (e, _conjugate(lam)) if len(lam) > (lam[0] if lam else 0) else (h, lam)
        n = len(parts)
        assert n <= 4
        schur = _det([[seq[parts[i] - i + j] if parts[i] - i + j >= 0 else TPoly.zero(QQ)
                       for j in range(n)] for i in range(n)])
        generic = hl_q(lam, RHO_GENERIC)
        at_zero = TPoly.from_terms(QQ, (
            (m, specialize_at_rational(c, 0)) for m, c in generic.terms.items()))
        assert at_zero == schur, lam


# -- classical identities of Q_lambda, checked outside the B_m recurrence
#
# Under the deformed pairing, <Q_lambda, Q_mu>_rho = delta_lambda_mu *
# b_lambda(rho), where b_lambda = prod_i phi_{m_i(lambda)} and
# phi_m(rho) = (1 - rho)(1 - rho^2)...(1 - rho^m) (Macdonald, Symmetric
# Functions and Hall Polynomials, III.4).  ``inner_product`` adds one
# coefficient product at a time and never calls a field's ``lincomb``, so it
# checks the kernel sums that build Q_lambda from outside.

def _b(lam, rho):
    out = rho.field.one
    for part in set(lam):
        for k in range(1, lam.count(part) + 1):
            out = out * rho.one_minus_rho_pow(k)
    return out


ORTHOGONALITY_RHOS = [RHO_GENERIC, RHO_ZERO, RhoSpec.rational(2), RhoSpec.rational(-1),
                      RhoSpec.root(3), RhoSpec.root(4), RhoSpec.root(5)]


@pytest.mark.parametrize("rho", ORTHOGONALITY_RHOS, ids=lambda rho: rho.to_text())
def test_hall_littlewood_q_are_orthogonal(rho):
    """All 210 pairs with |lambda| = |mu| <= 6."""
    for size in range(7):
        qs = {lam: hl_q(lam, rho) for lam in partitions(size)}
        for lam, f in qs.items():
            for mu, g in qs.items():
                want = _b(lam, rho) if lam == mu else rho.field.zero
                assert inner_product(f, g, rho) == want, (lam, mu)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hall_littlewood_q_vanishes_at_roots_of_unity(n):
    """Q_lambda(xi_n) = 0 exactly when some multiplicity of lambda is at
    least n: b_lambda(xi_n) = 0 there, and P_lambda = Q_lambda / b_lambda is
    never 0.  Every lambda with |lambda| <= 9."""
    rho = RhoSpec.root(n)
    for lam in (lam for size in range(10) for lam in partitions(size)):
        vanishes = any(lam.count(part) >= n for part in lam)
        assert (not hl_q(lam, rho)) == vanishes, lam

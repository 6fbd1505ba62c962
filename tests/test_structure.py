"""Partition combinatorics, straightening, expansion coefficients, and the
border-strip rule.  Expansion coefficients are cross-checked against an
independent linear solve in the Q basis."""

import itertools
from fractions import Fraction
from typing import Optional

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hlvir import structure
from hlvir.exactnum import (GENERIC, QQ, RHO_GENERIC, RHO_ZERO, PoleError, RatFunc,
                            RhoSpec, UniPoly, specialize_at_rational, specialize_at_root)
from hlvir.structure import (SingularCoefficientError, c_coeff, is_partition,
                             mn_expand, multiplicities, multiply_p, n_stat, p_expand,
                             partitions, straighten, strip_zeros)
from hlvir.tring import TPoly, mono_degree
from hlvir.vertex import QCombination, clear_caches, hl_q, set_cache_enabled

small_labels = st.lists(st.integers(min_value=-2, max_value=3),
                        max_size=3).map(tuple)


# -- partition helpers

def test_partition_counts():
    want = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [len(partitions(n)) for n in range(11)] == want


def test_partitions_respect_max_part():
    assert partitions(4, max_part=2) == ((2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partition_predicates():
    assert is_partition((3, 2, 2))
    assert is_partition(())
    assert not is_partition((2, 3))
    assert not is_partition((1, -1))
    assert strip_zeros((3, 1, 0, 0)) == (3, 1)
    assert multiplicities((3, 2, 2)) == {3: 1, 2: 2}
    assert n_stat((3, 2, 2)) == 0 * 3 + 1 * 2 + 2 * 2


# -- straightening

def test_adjacent_swap():
    assert straighten((1, 2), RHO_GENERIC).to_text() == "(ρ)*Q[2,1]"


def test_straighten_known_combinations():
    out = straighten((2, -1, 1), RHO_GENERIC)
    rho_minus_1 = GENERIC.from_fraction(-1) + RHO_GENERIC.rho_pow(1)
    assert out == QCombination.from_terms(GENERIC, (((2,), rho_minus_1),))


def test_straighten_fixes_partitions():
    for lam in [(3, 1), (2, 2, 1), ()]:
        assert straighten(lam, RHO_ZERO) == QCombination.single(QQ, lam)


def test_straighten_drops_trailing_zeros():
    assert straighten((2, 1, 0), RHO_GENERIC) == QCombination.single(GENERIC, (2, 1))


def test_straighten_kills_negative_tails():
    assert straighten((1, -2), RHO_ZERO) == QCombination.zero(QQ)


@given(small_labels)
@settings(max_examples=60, deadline=None)
def test_straighten_evaluates_to_the_same_polynomial(lam):
    for rho in (RHO_ZERO, RhoSpec.root(2)):
        assert straighten(lam, rho).evaluate(rho) == hl_q(lam, rho)


@pytest.mark.parametrize("n", [4, 5, 7, 8])
def test_straightening_is_sound_beyond_the_desk(n):
    """straighten(lam) evaluates to Q_lam at xi_n, from cold caches, for the
    585 labels with at most 3 entries in -3..4; the desk stops at xi_3."""
    rho = RhoSpec.root(n)
    clear_caches()
    try:
        for length in range(4):
            for lam in itertools.product(range(-3, 5), repeat=length):
                assert straighten(lam, rho).evaluate(rho) == hl_q(lam, rho), lam
    finally:
        clear_caches()


def test_straighten_long_label_needs_no_recursion():
    lam = (-1, 1) * 500
    try:
        out = straighten(lam, RHO_ZERO)
        assert out.to_text() == "1*Q[]"
        assert out.evaluate(RHO_ZERO) == hl_q(lam, RHO_ZERO)
    finally:
        clear_caches()


@pytest.mark.parametrize("lam, rho", [((0, 1, 2, 3, 4, 5, 6, 7), RHO_GENERIC),
                                      ((-1, 3, 0, 2, 1, 4), RhoSpec.root(3))])
def test_straighten_without_cache_rewrites_each_label_once(monkeypatch, lam, rho):
    """Uncached, every label that straightening meets is rewritten once, in
    the memo of the call, so there are as many rewriting steps as the cached
    run from cold leaves table entries; without that memo the rewriting is
    exponential, and (0,1,...,7) takes about a minute."""
    rewritten = []
    rewrite = structure._rewrite

    def counted(label, *args):
        rewritten.append(label)
        return rewrite(label, *args)

    monkeypatch.setattr(structure, "_rewrite", counted)
    clear_caches()
    try:
        want = straighten(lam, rho)
        entries = len(structure._STRAIGHTEN_CACHE)
        assert len(rewritten) == entries > 100
        rewritten.clear()
        set_cache_enabled(False)
        got = straighten(lam, rho)
    finally:
        set_cache_enabled(True)
        clear_caches()
    assert len(rewritten) == len(set(rewritten)) == entries
    assert got == want


def test_straighten_at_rho_zero_skips_zero_coefficients(monkeypatch):
    """At rho = 0 an exchange step keeps only its pairs with c != 0: the
    first step of (0, 1, ..., 6) has one pair, with c = rho = 0, so Q of it
    is 0 after one rewrite (943 when the zero pairs were resolved)."""
    rewritten = []
    rewrite = structure._rewrite

    def counted(label, *args):
        rewritten.append(label)
        return rewrite(label, *args)

    monkeypatch.setattr(structure, "_rewrite", counted)
    clear_caches()
    try:
        assert not straighten((0, 1, 2, 3, 4, 5, 6), RHO_ZERO).terms
    finally:
        clear_caches()
    assert rewritten == [(0, 1, 2, 3, 4, 5, 6)]


def test_straighten_at_rho_zero_is_the_generic_one_at_zero():
    """Straightening multiplies by rho^k and 1 - rho^2 and never divides, so
    the generic combination read at rho = 0 is the one built at rho = 0."""
    for lam in itertools.chain.from_iterable(
            itertools.product(range(-3, 5), repeat=n) for n in range(4)):
        generic = straighten(lam, RHO_GENERIC)
        want = QCombination.from_terms(QQ, ((mu, specialize_at_rational(c, 0))
                                            for mu, c in generic.terms.items()))
        assert straighten(lam, RHO_ZERO) == want, lam


def test_straighten_output_is_over_positive_partitions():
    out = straighten((-1, 3, 2, 1), RHO_GENERIC)
    for label in out.terms:
        assert is_partition(label) and all(x > 0 for x in label)


# -- expansion coefficients

def test_c_generic_frozen_values():
    assert c_coeff((1,), RHO_GENERIC) == RatFunc.make(
        UniPoly.constant(-1), UniPoly.from_ints([-1, 1]))
    assert c_coeff((1, 1, 1), RHO_GENERIC) == RatFunc.make(
        UniPoly.constant(-1), UniPoly.from_ints([-1, 0, 0, 1]))


def test_c_at_roots_of_unity():
    x2 = RhoSpec.root(2)
    assert c_coeff((1, 1, 1), x2) == x2.field.from_fraction(Fraction(1, 2))
    assert c_coeff((2, 1), x2) == x2.field.from_fraction(Fraction(-1, 2))
    for k, m in [(2, 1), (3, 2), (4, 1), (5, 2)]:
        assert c_coeff((k, m), x2) == x2.field.from_fraction(Fraction((-1) ** m, 2))


def test_c_singular_cases():
    x2 = RhoSpec.root(2)
    with pytest.raises(SingularCoefficientError) as err:
        c_coeff((3, 3), x2)
    assert err.value.mu == (3, 3) and err.value.rho == x2
    with pytest.raises(SingularCoefficientError):
        c_coeff((2, 2, 1, 1), x2)


def test_c_hooks_at_zero():
    assert c_coeff((4,), RHO_ZERO) == 1
    assert c_coeff((3, 1, 1), RHO_ZERO) == 1
    assert c_coeff((2, 1), RHO_ZERO) == -1
    assert c_coeff((2, 2), RHO_ZERO) == 0


def _partitions_upto(size: int):
    return [mu for k in range(size + 1) for mu in partitions(k)]


_ORACLE_RHOS = ([RhoSpec.rational(v) for v in (0, 1, -1, 2, Fraction(1, 2))]
                + [RhoSpec.root(n) for n in range(2, 9)])


def test_c_is_the_generic_value_specialized_by_limit():
    """c_coeff multiplies the factors in rho's own field; the second route
    takes the generic c_mu to rho by exact limit.  They agree on every value,
    and c_coeff has a pole exactly where the limit is infinite."""
    for rho in _ORACLE_RHOS:
        for mu in _partitions_upto(10):
            generic = c_coeff(mu, RHO_GENERIC)
            try:
                if rho.kind == "rational":
                    want = specialize_at_rational(generic, rho.value)
                else:
                    want = specialize_at_root(generic, rho.order)
            except PoleError:
                with pytest.raises(SingularCoefficientError):
                    c_coeff(mu, rho)
                continue
            got = c_coeff(mu, rho)
            assert type(got) is type(want) and got == want, (mu, rho.to_text())


def test_c_generic_matches_sympy_product_formula():
    """sympy, which shares no code with hlvir, cancels the product formula."""
    x = sympy.Symbol("x")

    def phi(k: int):
        return sympy.prod([1 - x ** i for i in range(1, k + 1)])

    def read(p: UniPoly):
        return sum(sympy.Rational(c.numerator, c.denominator) * x ** k
                   for k, c in enumerate(p.coefficients))

    for mu in _partitions_upto(8)[1:]:
        l = len(mu)
        b_mu = sympy.prod([phi(m) for m in multiplicities(mu).values()])
        num, den = sympy.fraction(sympy.cancel(
            (-1) ** (l - 1) * x ** (n_stat(mu) - l * (l - 1) // 2) * phi(l - 1) / b_mu))
        got = c_coeff(mu, RHO_GENERIC)
        assert sympy.expand(read(got.num) * den - read(got.den) * num) == 0, mu


def test_c_pole_at_xi_n_exactly_when_n_divides_every_multiplicity():
    """The README's dichotomy at xi_n: a pole exactly when mu != () and n
    divides every multiplicity of mu, a finite value otherwise."""
    for n in range(2, 9):
        rho = RhoSpec.root(n)
        for mu in _partitions_upto(10):
            pole = bool(mu) and all(m % n == 0 for m in multiplicities(mu).values())
            try:
                c_coeff(mu, rho)
            except SingularCoefficientError:
                assert pole, (mu, n)
            else:
                assert not pole, (mu, n)


# -- the independent route: expanding a polynomial back into the Q basis

def q_basis_expand(f: TPoly, rho: RhoSpec) -> QCombination:
    """Write f in the Q basis by Gaussian elimination, degree by degree.

    Only supported where the Q's of each degree are a basis: generic rho and
    rho = 0.
    """
    if not (rho.kind == "generic" or (rho.kind == "rational" and rho.value == 0)):
        raise ValueError("Q basis expansion supported at generic rho and rho = 0 only")
    field = rho.field
    by_degree: dict[int, dict] = {}
    for m, c in f.terms.items():
        by_degree.setdefault(mono_degree(m), {})[m] = c
    result = QCombination.zero(field)
    for d, target in sorted(by_degree.items()):
        mus = partitions(d)
        monos = sorted({m for mu in mus for m in hl_q(mu, rho).terms} | set(target))
        index = {m: i for i, m in enumerate(monos)}
        # columns: Q_mu expansions; last column: the target
        rows = [[field.zero] * (len(mus) + 1) for _ in monos]
        for j, mu in enumerate(mus):
            for m, c in hl_q(mu, rho).terms.items():
                rows[index[m]][j] = c
        for m, c in target.items():
            rows[index[m]][len(mus)] = c
        coeffs = _solve(rows, len(mus), field)
        for mu, c in zip(mus, coeffs):
            if c:
                result = result + QCombination.single(field, mu, c)
    return result


def _solve(rows: list[list], ncols: int, field) -> list:
    """Solve the overdetermined system (rows: [A | b]) exactly; the system is
    consistent with a unique solution when the columns form a basis."""
    n = len(rows)
    pivot_of_col: list[Optional[int]] = [None] * ncols
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        inv = field.one / rows[row][col]
        rows[row] = [v * inv for v in rows[row]]
        for i in range(n):
            if i != row and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [u - factor * v for u, v in zip(rows[i], rows[row])]
        pivot_of_col[col] = row
        row += 1
    sol = []
    for col in range(ncols):
        r = pivot_of_col[col]
        sol.append(rows[r][ncols] if r is not None else field.zero)
    for i in range(n):
        if any(rows[i][:ncols]):
            continue
        if rows[i][ncols]:
            raise ArithmeticError("polynomial is not in the span of the Q basis")
    return sol


def test_p_expansion_recovers_power_sums():
    """Independent route: solve for the expansion in the Q basis and compare."""
    for rho in (RHO_GENERIC, RHO_ZERO):
        field = rho.field
        for r in range(1, 6):
            p_r = TPoly.var(field, r, r)
            solved = q_basis_expand(p_r, rho)
            assert solved == p_expand(r, rho)
            assert p_expand(r, rho).evaluate(rho) == p_r


def test_p_expand_refuses_degenerate_orders():
    with pytest.raises(SingularCoefficientError):
        p_expand(4, RhoSpec.root(2))
    with pytest.raises(SingularCoefficientError):
        multiply_p(3, (2, 1), RhoSpec.root(3))


def test_q_basis_expand_round_trip():
    rho = RHO_ZERO
    comb = QCombination.from_terms(QQ, (((3, 1), Fraction(2)),
                                        ((2, 2), Fraction(-1, 3)),
                                        ((4,), Fraction(1))))
    assert q_basis_expand(comb.evaluate(rho), rho) == comb


# -- multiplication rule

def test_multiply_p_contract_examples():
    got = multiply_p(1, (1,), RHO_GENERIC)
    c1 = c_coeff((1,), RHO_GENERIC)
    assert got == QCombination.from_terms(
        GENERIC, (((2,), GENERIC.one), ((1, 1), c1)))
    assert multiply_p(2, (), RHO_GENERIC) == p_expand(2, RHO_GENERIC)
    mixed = multiply_p(1, (2, -1), RHO_GENERIC)
    assert set(mixed.terms) == {(3, -1), (2, 0), (2, -1, 1)}
    assert mixed.evaluate(RHO_GENERIC) == TPoly.zero(GENERIC)


@given(st.integers(min_value=1, max_value=4), small_labels)
@settings(max_examples=40, deadline=None)
def test_multiply_p_is_power_sum_multiplication(r, lam):
    for rho in (RHO_ZERO, RhoSpec.root(3)):
        if rho.kind == "root" and r % rho.order == 0:
            continue
        lhs = multiply_p(r, lam, rho).evaluate(rho)
        assert lhs == hl_q(lam, rho).mul_var(r, Fraction(r))


# -- border strips

def test_mn_expand_basic_shapes():
    assert mn_expand(1, ()) == [(1, (1,))]
    assert set(mn_expand(2, ())) == {(1, (2,)), (-1, (1, 1))}
    assert set(mn_expand(3, ())) == {(1, (3,)), (-1, (2, 1)), (1, (1, 1, 1))}
    assert set(mn_expand(1, (1,))) == {(1, (2,)), (1, (1, 1))}


def test_mn_expand_excludes_disconnected_strips():
    # adding 2 boxes to (2) in one strip: (4), (3,1) disallowed, (2,2), (2,1,1)
    got = set(mn_expand(2, (2,)))
    assert got == {(1, (4,)), (1, (2, 2)), (-1, (2, 1, 1))}


def test_mn_expand_matches_multiplication_route():
    for r in range(1, 5):
        for lam in [(), (1,), (2, 1), (3, 2)]:
            want = QCombination.from_terms(
                QQ, ((mu, Fraction(sign)) for sign, mu in mn_expand(r, lam)))
            got = QCombination.zero(QQ)
            for label, c in multiply_p(r, lam, RHO_ZERO).terms.items():
                got = got + straighten(label, RHO_ZERO).scale(c)
            assert got == want

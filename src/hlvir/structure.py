"""Combinatorics of the Q basis: partitions, straightening of arbitrary
integer labels into partition labels, the expansion coefficients c_mu, the
power-sum multiplication formula, and border-strip expansions for the
specialization at rho = 0."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

from .exactnum import (GENERIC, PoleError, RatFunc, RhoSpec, UniPoly)
from .tring import TPoly, mono_degree
from .vertex import Label, QCombination, _cache_put, _new_cache

# ---------------------------------------------------------------------------
# partitions


def is_partition(label: Iterable[int]) -> bool:
    """Weakly decreasing with nonnegative entries (trailing zeros allowed)."""
    label = tuple(label)
    return all(isinstance(x, int) for x in label) and \
        all(label[i] >= label[i + 1] for i in range(len(label) - 1)) and \
        (not label or label[-1] >= 0)


def strip_zeros(label: Iterable[int]) -> Label:
    label = tuple(label)
    while label and label[-1] == 0:
        label = label[:-1]
    return label


# Not in the vertex cache registry: field-free combinatorics, bounded by the
# largest weight asked for.
@lru_cache(maxsize=None)
def partitions(n: int, max_part: Optional[int] = None) -> tuple[Label, ...]:
    """All partitions of n with parts bounded by max_part, largest part first."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    if max_part is None or max_part > n:
        max_part = n
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def multiplicities(mu: Label) -> dict[int, int]:
    out: dict[int, int] = {}
    for x in mu:
        out[x] = out.get(x, 0) + 1
    return out


def n_stat(mu: Label) -> int:
    """sum (i - 1) mu_i over the parts in decreasing order."""
    return sum(i * x for i, x in enumerate(mu))


# ---------------------------------------------------------------------------
# straightening


def _measure(label: Label) -> int:
    return sum((i + 1) * x for i, x in enumerate(label))


def straighten(label: Iterable[int], rho: RhoSpec) -> QCombination:
    """Rewrite Q_label as a combination of Q_mu over partitions with strictly
    positive parts.  Rules, applied at the leftmost violation:

    * a negative tail sum makes the whole symbol zero;
    * a trailing zero part is dropped;
    * an adjacent ascent (a, b) with a < b is exchanged via the quadratic
      relation, whose shape depends on the parity of b - a.

    Each exchange strictly lowers sum_i i*label_i at fixed length, so the
    rewriting terminates.
    """
    label = tuple(int(x) for x in label)
    return _straighten_cached(label, rho)


def _straighten_cached(label: Label, rho: RhoSpec) -> QCombination:
    key = (rho.key, label)
    hit = _STRAIGHTEN_CACHE.get(key)
    if hit is not None:
        return hit
    return _cache_put(_STRAIGHTEN_CACHE, key, _straighten_step(label, rho))


_STRAIGHTEN_CACHE = _new_cache()


def _straighten_step(label: Label, rho: RhoSpec) -> QCombination:
    field = rho.field
    tail = 0
    for x in reversed(label):
        tail += x
        if tail < 0:
            return QCombination.zero(field)
    if label and label[-1] == 0:
        return _straighten_cached(label[:-1], rho)
    for pos in range(len(label) - 1):
        a, b = label[pos], label[pos + 1]
        if a < b:
            return _exchange(label, pos, rho)
    return QCombination.single(field, label)


def _exchange(label: Label, pos: int, rho: RhoSpec) -> QCombination:
    """Resolve the ascent label[pos] = a < b = label[pos+1]."""
    a, b = label[pos], label[pos + 1]
    r = b - a
    field = rho.field
    m_in = _measure(label)

    def rewrite(x: int, y: int) -> Label:
        out = label[:pos] + (x, y) + label[pos + 2:]
        assert _measure(out) < m_in, "exchange must lower the termination measure"
        return out

    rho1 = rho.rho_pow(1)
    out = _straighten_cached(rewrite(b, a), rho).scale(rho1)
    quad = rho.one_minus_rho_pow(2)  # 1 - rho^2
    if quad:
        bound = (r - 1) // 2 if r % 2 else r // 2 - 1
        for i in range(1, bound + 1):
            c = -quad * rho.rho_pow(i - 1)  # (rho^2 - 1) rho^{i-1}
            out = out + _straighten_cached(rewrite(b - i, a + i), rho).scale(c)
    if r % 2 == 0:
        half = r // 2
        c = rho.rho_pow(half - 1) * (rho1 - field.one)  # rho^{r/2-1}(rho - 1)
        if c:
            out = out + _straighten_cached(rewrite(b - half, a + half), rho).scale(c)
    return out


# ---------------------------------------------------------------------------
# the coefficients c_mu


class SingularCoefficientError(ArithmeticError):
    """c_mu has a pole at the requested root of unity."""

    def __init__(self, mu: Label, order: int):
        self.mu = mu
        self.order = order
        super().__init__(
            f"c_{list(mu)} has a pole at rho = xi:{order}")


def _phi_poly(k: int) -> UniPoly:
    """phi_k(rho) = prod_{i=1}^{k} (1 - rho^i) as a polynomial."""
    out = UniPoly.constant(1)
    for i in range(1, k + 1):
        out = out * (UniPoly.constant(1) - UniPoly.x_pow(i))
    return out


# Not in the vertex cache registry: one rho-free rational function per mu, the
# source that the registered per-rho c_coeff cache specializes.
@lru_cache(maxsize=None)
def c_coeff_generic(mu: Label) -> RatFunc:
    """c_mu as a rational function of rho.

    c_mu = (-1)^{l-1} rho^{n(mu) - l(l-1)/2} phi_{l-1}(rho) / b_mu(rho)
    with b_mu = prod over part values v of phi_{m_v}, l = length(mu).
    The rho exponent is always nonnegative, so the numerator is polynomial.
    """
    mu = tuple(mu)
    if not is_partition(mu) or (mu and mu[-1] == 0):
        raise ValueError(f"c coefficient needs a partition with positive parts, got {list(mu)}")
    l = len(mu)
    if l == 0:
        return RatFunc.constant(1)
    exponent = n_stat(mu) - l * (l - 1) // 2
    num = _phi_poly(l - 1) * UniPoly.x_pow(exponent, 1 if (l - 1) % 2 == 0 else -1)
    den = UniPoly.constant(1)
    for m in multiplicities(mu).values():
        den = den * _phi_poly(m)
    return RatFunc.make(num, den)


def c_coeff(mu: Iterable[int], rho: RhoSpec):
    """c_mu evaluated at rho, as a value of rho's field.

    At a root of unity the generic rational function is specialized by exact
    limit; a genuine pole raises SingularCoefficientError.
    """
    mu = tuple(int(x) for x in mu)
    key = (rho.key, mu)
    hit = _C_CACHE.get(key)
    if hit is not None:
        return hit
    generic = c_coeff_generic(mu)
    try:
        val = rho.specialize(generic)
    except PoleError:
        raise SingularCoefficientError(mu, rho.order) from None
    except ZeroDivisionError:
        raise SingularCoefficientError(mu, 0) from None
    return _cache_put(_C_CACHE, key, val)


_C_CACHE = _new_cache()


# ---------------------------------------------------------------------------
# power sums against the Q basis


def p_expand(r: int, rho: RhoSpec) -> QCombination:
    """The degree-r power sum as a Q combination: sum_{mu of r} c_mu Q_mu."""
    if r < 1:
        raise ValueError("power sum index must be >= 1")
    if rho.kind == "root" and r % rho.order == 0:
        raise SingularCoefficientError((1,) * r, rho.order)
    field = rho.field
    out = QCombination.zero(field)
    for mu in partitions(r):
        out = out + QCombination.single(field, mu, c_coeff(mu, rho))
    return out


def multiply_p(r: int, lam, rho: RhoSpec) -> QCombination:
    """p_r Q_lambda = sum_i Q_{lambda + r e_i} + sum_{mu of r} c_mu Q_{(lambda, mu)}
    for an arbitrary integer vector lambda (extended linearly when a whole
    combination is passed).  The output labels need not be partitions."""
    if r < 1:
        raise ValueError("power sum index must be >= 1")
    if rho.kind == "root" and r % rho.order == 0:
        raise SingularCoefficientError((1,) * r, rho.order)
    field = rho.field
    if not isinstance(lam, QCombination):
        lam = QCombination.single(field, tuple(int(x) for x in lam))
    if lam.field is not field:
        raise ValueError("combination field does not match rho")
    items = []
    for label, coeff in lam.terms.items():
        for i in range(len(label)):
            items.append((label[:i] + (label[i] + r,) + label[i + 1:], coeff))
        for mu in partitions(r):
            items.append((label + mu, coeff * c_coeff(mu, rho)))
    return QCombination.from_terms(field, items)


# ---------------------------------------------------------------------------
# border strips (rho = 0 branch)


def mn_expand(r: int, lam: Iterable[int]) -> list[tuple[int, Label]]:
    """Expand p_r s_lambda = sum (-1)^{height} s_mu over border strips of
    size r added to lam.  Returns (sign, mu) pairs, mu strictly positive."""
    lam = strip_zeros(lam)
    if not is_partition(lam):
        raise ValueError(f"border strips need a partition, got {list(lam)}")
    if r < 1:
        raise ValueError("strip size must be >= 1")
    l = len(lam)

    def part(i: int) -> int:  # 1-indexed with zero padding
        return lam[i - 1] if 1 <= i <= l else 0

    out: list[tuple[int, Label]] = []
    for a in range(1, l + 2):
        for b in range(a, a + r):
            # rows a..b gain boxes; mu_i = part(i-1) + 1 for a < i <= b,
            # and mu_a is fixed by the total box count
            boxes_below = sum(part(i - 1) + 1 - part(i) for i in range(a + 1, b + 1))
            mu_a = part(a) + r - boxes_below
            if mu_a <= part(a):
                continue
            if a >= 2 and part(a - 1) < mu_a:
                continue
            mu = list(lam) + [0] * max(0, b - l)
            mu[a - 1] = mu_a
            for i in range(a + 1, b + 1):
                mu[i - 1] = part(i - 1) + 1
            mu_t = strip_zeros(mu)
            if not is_partition(mu_t):
                continue
            out.append((-1 if (b - a) % 2 else 1, mu_t))
    return out


# ---------------------------------------------------------------------------
# expanding a polynomial back into the Q basis


def q_basis_expand(f: TPoly, rho: RhoSpec) -> QCombination:
    """Write f in the Q basis by Gaussian elimination, degree by degree.

    Only supported where the Q's of each degree are a basis: generic rho and
    rho = 0.
    """
    if not (rho.kind == "generic" or (rho.kind == "rational" and rho.value == 0)):
        raise ValueError("Q basis expansion supported at generic rho and rho = 0 only")
    from .vertex import hl_q
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

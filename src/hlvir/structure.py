"""Combinatorics of the Q basis: partitions, straightening of arbitrary
integer labels into partition labels, the expansion coefficients c_mu, the
power-sum multiplication formula, and border-strip expansions for the
specialization at rho = 0.

Straightening is a set of rewrite rules: one step (``_rewrite``) writes
Q_label as a combination of Q's of lower labels, and ``straighten``
resolves the steps with the loop that builds the B table in ``vertex``:
an explicit stack, a memo shared within the call, one table write per
label."""

from __future__ import annotations

from typing import Iterable, Optional

from .exactnum import RhoSpec
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


def partitions(n: int, max_part: Optional[int] = None) -> tuple[Label, ...]:
    """All partitions of n with parts bounded by max_part, largest part first."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    if max_part is None or max_part > n:
        max_part = n
    hit = _PARTITIONS_CACHE.get((n, max_part))
    if hit is not None:
        return hit
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return _cache_put(_PARTITIONS_CACHE, (n, max_part), tuple(out))


_PARTITIONS_CACHE = _new_cache()


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
    rewriting terminates.  A loop on an explicit stack, so a long label
    cannot hit the recursion limit.  Each label met is rewritten once and
    its combination summed once; it is kept in a memo of this call (so
    ``--no-cache`` stays polynomial) and cached.  A sub-label is looked up
    in the table before it is pushed.
    """
    label = tuple(int(x) for x in label)
    field, rho_key = rho.field, rho.key
    hit = _STRAIGHTEN_CACHE.get((rho_key, label))
    if hit is not None:
        return hit
    one, rho1, quad = field.one, rho.rho_pow(1), rho.one_minus_rho_pow(2)
    done: dict = {}
    steps: dict = {}  # the step of each label whose sub-labels are pending
    todo = [label]
    while todo:
        top = todo.pop()
        if top in done:
            continue
        step = steps.pop(top, None)  # if pending, its sub-labels are done now
        if step is None:
            step = _rewrite(top, rho, rho1, quad)
            need = []
            for _, sub in step or ():
                if sub not in done:
                    hit = _STRAIGHTEN_CACHE.get((rho_key, sub))
                    if hit is None:
                        need.append(sub)
                    else:
                        done[sub] = hit
            if need:
                steps[top] = step
                todo += [top] + need
                continue
        if step is None:
            out = QCombination.single(field, top)
        elif not step:
            out = QCombination.zero(field)
        else:
            out = None
            for c, sub in step:  # c is one where a zero was dropped: Q_label = Q_sub
                term = done[sub] if c is one else done[sub].scale(c)
                out = term if out is None else out + term
        done[top] = _cache_put(_STRAIGHTEN_CACHE, (rho_key, top), out)
    return done[label]


_STRAIGHTEN_CACHE = _new_cache()


def _rewrite(label: Label, rho: RhoSpec, rho1, quad) -> Optional[list]:
    """One rewriting step of ``straighten``: None when label is a partition
    with positive parts, [] when Q_label = 0, and otherwise the (c, sub)
    pairs with Q_label = sum c Q_sub, each c nonzero.  rho1 = rho and
    quad = 1 - rho^2, which the caller computes once for all its steps."""
    tail = 0
    for x in reversed(label):
        tail += x
        if tail < 0:
            return []
    if label and label[-1] == 0:
        return [(rho.field.one, label[:-1])]
    for pos in range(len(label) - 1):
        if label[pos] < label[pos + 1]:
            return _exchange(label, pos, rho, rho1, quad)
    return None


def _exchange(label: Label, pos: int, rho: RhoSpec, rho1, quad) -> list:
    """The (c, sub) pairs that resolve the ascent label[pos] = a < b = label[pos+1],
    without those whose c is 0 (at rho = 0 all but at most one)."""
    a, b = label[pos], label[pos + 1]
    r = b - a
    field = rho.field
    m_in = _measure(label)

    def rewrite(x: int, y: int) -> Label:
        out = label[:pos] + (x, y) + label[pos + 2:]
        assert _measure(out) < m_in, "exchange must lower the termination measure"
        return out

    out = [(rho1, rewrite(b, a))]
    if quad:
        bound = (r - 1) // 2 if r % 2 else r // 2 - 1
        for i in range(1, bound + 1):
            c = -quad * rho.rho_pow(i - 1)  # (rho^2 - 1) rho^{i-1}
            out.append((c, rewrite(b - i, a + i)))
    if r % 2 == 0:
        half = r // 2
        c = rho.rho_pow(half - 1) * (rho1 - field.one)  # rho^{r/2-1}(rho - 1)
        out.append((c, rewrite(b - half, a + half)))
    return [(c, sub) for c, sub in out if c]


# ---------------------------------------------------------------------------
# the coefficients c_mu


class SingularCoefficientError(ArithmeticError):
    """c_mu has a pole at the requested rho."""

    def __init__(self, mu: Label, rho: RhoSpec):
        self.mu = mu
        self.rho = rho
        super().__init__(
            f"c_{list(mu)} has a pole at rho = {rho.to_text()}")


def c_coeff(mu: Iterable[int], rho: RhoSpec):
    """c_mu at rho, as a value of rho's field:

        c_mu = (-1)^{l-1} rho^{n(mu) - l(l-1)/2} phi_{l-1}(rho) / b_mu(rho),

    l = length(mu), phi_k = prod_{i=1}^{k} (1 - rho^i) and b_mu the product
    of phi_{m_v} over the multiplicities m_v of mu's part values; c_() = 1.
    The rho exponent is never negative.  A factor 1 - rho^i vanishes only at
    a root of unity, where its zero is simple and (1 - rho^i)/(1 - rho^j)
    tends to i/j.  So a zero factor of the numerator and one of the
    denominator pair off as i/j: c_mu is 0 when the numerator has more zero
    factors, and has a pole (SingularCoefficientError) when b_mu has more.
    """
    mu = tuple(int(x) for x in mu)
    key = (rho.key, mu)
    hit = _C_CACHE.get(key)
    if hit is not None:
        return hit
    if not is_partition(mu) or (mu and mu[-1] == 0):
        raise ValueError(f"c coefficient needs a partition with positive parts, got {list(mu)}")
    l = len(mu)
    if not l:
        return _cache_put(_C_CACHE, key, rho.field.one)
    num = rho.rho_pow(n_stat(mu) - l * (l - 1) // 2) * (1 if l % 2 else -1)
    den = rho.field.one
    zeros = 0  # zero factors of the numerator less those of the denominator
    for i in range(1, l):
        f = rho.one_minus_rho_pow(i)
        num, zeros = (num * f, zeros) if f else (num * i, zeros + 1)
    for m in multiplicities(mu).values():
        for j in range(1, m + 1):
            f = rho.one_minus_rho_pow(j)
            den, zeros = (den * f, zeros) if f else (den * j, zeros - 1)
    if zeros < 0:
        raise SingularCoefficientError(mu, rho)
    return _cache_put(_C_CACHE, key, num / den if zeros == 0 else rho.field.zero)


_C_CACHE = _new_cache()


# ---------------------------------------------------------------------------
# power sums against the Q basis


def p_expand(r: int, rho: RhoSpec) -> QCombination:
    """The degree-r power sum as a Q combination: sum_{mu of r} c_mu Q_mu,
    which is p_r Q_() (so r < 1 and, at xi_n, n | r are refused alike)."""
    return multiply_p(r, (), rho)


def multiply_p(r: int, lam, rho: RhoSpec) -> QCombination:
    """p_r Q_lambda = sum_i Q_{lambda + r e_i} + sum_{mu of r} c_mu Q_{(lambda, mu)}
    for an arbitrary integer vector lambda (extended linearly when a whole
    combination is passed).  The output labels need not be partitions."""
    if r < 1:
        raise ValueError("power sum index must be >= 1")
    if rho.kind == "root" and r % rho.order == 0:
        raise SingularCoefficientError((1,) * r, rho)
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

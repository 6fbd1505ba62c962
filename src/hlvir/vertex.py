"""Vertex-operator construction of the deformed one-part generators E_i and
the row operators B_m, and through them the polynomials Q_label.

B(u) = exp(sum_k (1 - rho^k) t_k u^k) * exp(-sum_k (1/k) d_k u^{-k}), and
B_m is the u^m coefficient (N. Jing, Vertex operators and Hall-Littlewood
symmetric functions, Adv. Math. 87 (1991)).  E_i, the u^i coefficient of
the creation factor, is B_i 1 = Q_{(i)}.  The annihilation factor is a
shift, f(t) -> f(t_k - u^{-k}/k), so B(u) t_k = (t_k - u^{-k}/k) B(u), and
on u^m

    B_m (t_k f) = t_k B_m f - (1/k) B_{m+k} f.

With B_m t^mu = 0 for m + |mu| < 0 and B_m 1 = E_m, where
j E_j = sum_k k (1 - rho^k) t_k E_{j-k}, this builds B_m on a monomial
from entries one factor shorter: each entry is one shift by t_k of another
plus a -1/k multiple of a third, and E_j (the entry of the monomial 1) is
a sum of shifts of E_0 .. E_{j-1}.  One loop on an explicit stack builds
every entry a call meets once (``_apply_b_mono``).  Each entry and B_m f
as a sum over the monomials of f (or a sum of scaled B_m f over several m
and f, ``apply_B_sum``) are each one call of the field's row kernel
(``row_sum``, ``row_lincomb``), and the expansion of a combination of Q's
one call of its scaled-sum kernel (``lincomb`` in ``exactnum``).

The B table holds each entry B_m t^mu (E_m among them) as a row of the
field (``Row`` in ``rhopoly``): over Q and Q(xi_n), integers over one
denominator, packed, with their content left unreduced, so that a step is
integer multiply-adds; over Q(rho), canonical values over den 1.  This
module reads a row only for its keys, which a step shifts by t_k.  Every
value that leaves it (``one_row``, ``apply_B``, ``hl_q``,
``QCombination.evaluate``) is canonical: a Fraction over Q, a Cyclotomic
reduced mod Phi_n over Q(xi_n).  Everything here is exact over Q, Q(rho),
or a cyclotomic field.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from fractions import Fraction
from typing import Iterable, Optional

from .exactnum import FieldMismatchError, RhoSpec
from .rhopoly import ROW_ZERO
from .tring import (DegeneratePairingError, Mono, Sparse, TPoly, _embed, mono_degree,
                    mono_mul_var)

Label = tuple[int, ...]


class AdjointUndefinedError(DegeneratePairingError):
    """t_r has no adjoint when 1 - rho^r = 0 (the pairing degenerates)."""


# ---------------------------------------------------------------------------
# caches

_CACHES: list[OrderedDict] = []
_CACHE_ENABLED = True
_CACHE_MAX: Optional[int] = None  # HLVIR_CACHE_MAX, read by the first write


def _new_cache() -> OrderedDict:
    """A registered memo dict, the package's one kind of memo: written only
    through ``_cache_put`` (so ``--no-cache`` and ``HLVIR_CACHE_MAX`` apply)
    and emptied by ``clear_caches``.  A full cache evicts its oldest entry,
    in O(1)."""
    cache: OrderedDict = OrderedDict()
    _CACHES.append(cache)
    return cache


_B_CACHE = _new_cache()  # row of B_m t^mu by (rho, m, mu); E_m = B_m 1 is (rho, m, ())
_Q_CACHE = _new_cache()


def set_cache_enabled(flag: bool) -> None:
    global _CACHE_ENABLED
    _CACHE_ENABLED = bool(flag)
    if not flag:
        clear_caches()


def clear_caches() -> None:
    for cache in _CACHES:
        cache.clear()


def read_cache_max() -> int:
    """The entry bound of each cache: ``HLVIR_CACHE_MAX``, an integer >= 1
    (default 400000).  Any other value raises ValueError."""
    global _CACHE_MAX
    text = os.environ.get("HLVIR_CACHE_MAX", "400000")
    try:
        bound = int(text)
    except ValueError:
        bound = 0
    if bound < 1:
        raise ValueError(f"HLVIR_CACHE_MAX must be an integer >= 1, got {text!r}")
    _CACHE_MAX = bound
    return bound


def _cache_put(cache: OrderedDict, key, value):
    if _CACHE_ENABLED:
        bound = _CACHE_MAX or read_cache_max()
        while cache and len(cache) >= bound:
            cache.popitem(last=False)
        cache[key] = value
    return value


# ---------------------------------------------------------------------------
# row operators on monomials

def _apply_b_mono(rho: RhoSpec, m: int, mono: Mono, done: dict):
    """The row of B_m t^mono, by the commutation relation in the module
    docstring, peeling the largest t_k first, so shorter entries keep the
    small indices that many monomials share; on mono = () it is E_m, from
    j*E_j = sum_{k=1}^{j} k (1 - rho^k) t_k E_{j-k}.  A loop: each entry
    (j, nu) met is built once, kept in ``done`` (a memo that the caller
    shares between the monomials of one polynomial, so ``--no-cache`` stays
    polynomial) and cached."""
    field, rho_key = rho.field, rho.key
    todo = [(m, mono)]
    while todo:
        entry = j, mu = todo.pop()
        if entry in done:
            continue
        key = (rho_key, j, mu)
        out = _B_CACHE.get(key)
        if out is None and j + mono_degree(mu) < 0:
            out = ROW_ZERO
        elif out is None and not mu:
            need = [(j - k, ()) for k in range(1, j + 1) if (j - k, ()) not in done]
            if need:
                todo += [entry] + need
                continue
            pairs = [(f * Fraction(k, j), row, [mono_mul_var(mo, k) for mo in row.terms])
                     for k in range(1, j + 1) if (f := rho.one_minus_rho_pow(k))
                     for row in (done[j - k, ()],)]
            out = _cache_put(_B_CACHE, key, field.row_sum(pairs) if j else field.row_one)
        elif out is None:
            k, e = mu[-1]
            nu = mu[:-1] + ((k, e - 1),) if e > 1 else mu[:-1]
            need = [x for x in ((j, nu), (j + k, nu)) if x not in done]
            if need:
                todo += [entry] + need
                continue
            row = done[j, nu]
            out = _cache_put(_B_CACHE, key, field.row_sum(
                [(1, row, [mono_mul_var(mo, k) for mo in row.terms]),
                 (Fraction(-1, k), done[j + k, nu], None)]))
        done[entry] = out
    return done[m, mono]


def apply_B_sum(rho: RhoSpec, parts: Iterable[tuple]) -> TPoly:
    """sum of s * B_m f over the (s, m, f) parts, each s a rational or a value
    of rho's field, as one call of the field's row kernel: each monomial
    c t^mu of each f is one pair (c*s, the row of B_m t^mu).  A part with
    s = 0 or f = 0 adds nothing."""
    field, rho_key = rho.field, rho.key
    done: dict = {}
    pairs = []
    for s, m, f in parts:
        if f.field is not field:
            raise FieldMismatchError("apply_B needs f over rho's coefficient field")
        if s:
            one = s == 1
            for mono, c in f.terms.items():
                pairs.append((c if one else c * s,
                              _B_CACHE.get((rho_key, m, mono))  # most rows are cached
                              or _apply_b_mono(rho, m, mono, done), None))
    return TPoly(field, field.row_lincomb(pairs))


def apply_B(m: int, f: TPoly, rho: RhoSpec) -> TPoly:
    """Apply the row operator B_m to f, linearly over its monomials."""
    return apply_B_sum(rho, ((1, m, f),))


def one_row(i: int, rho: RhoSpec) -> TPoly:
    """E_i = B_i 1 = Q_{(i)}."""
    return apply_B(i, TPoly.one(rho.field), rho)


# ---------------------------------------------------------------------------
# the polynomials Q_label

def hl_q(label: Iterable[int], rho: RhoSpec) -> TPoly:
    """Q_label = B_{a_1} ... B_{a_l} 1 for label = (a_1, ..., a_l).

    Defined for any integer label; vanishes whenever some tail sum
    a_j + ... + a_l is negative, and is homogeneous of degree sum(label)
    otherwise.  Starts from the longest cached suffix and caches every
    longer one it builds.
    """
    label = tuple(int(x) for x in label)
    field, rho_key = rho.field, rho.key
    tail = 0
    for x in reversed(label):
        tail += x
        if tail < 0:
            return TPoly.zero(field)
    start = len(label)
    out = TPoly.one(field)
    for j in range(len(label)):
        hit = _Q_CACHE.get((rho_key, label[j:]))
        if hit is not None:
            start, out = j, hit
            break
    for j in range(start - 1, -1, -1):
        out = _cache_put(_Q_CACHE, (rho_key, label[j:]), apply_B(label[j], out, rho))
    return out


# ---------------------------------------------------------------------------
# adjoints

def perp_t(r: int, f: TPoly, rho: RhoSpec) -> TPoly:
    """Adjoint of multiplication by t_r: (1/(r(1-rho^r))) d_r."""
    if r < 1:
        raise ValueError("adjoint index must be >= 1")
    denom = rho.one_minus_rho_pow(r)
    if not denom:
        raise AdjointUndefinedError(
            f"t_{r} has no adjoint at rho = {rho.to_text()}: 1 - rho^{r} = 0")
    field = rho.field
    scalar = (field.one / denom) * field.from_fraction(Fraction(1, r))
    return f.diff(r).scale(scalar)


# ---------------------------------------------------------------------------
# formal combinations of Q's

def _label_sort_key(label: Label):
    return (len(label), tuple(-x for x in label))


def label_text(label: Label) -> str:
    return "Q[" + ",".join(str(x) for x in label) + "]"


class QCombination(Sparse):
    """A formal linear combination of Q_label symbols over a coefficient
    field.  Labels are arbitrary integer tuples; no rewriting is applied."""

    __slots__ = ()

    @staticmethod
    def single(field, label: Iterable[int], coeff=None) -> "QCombination":
        label = tuple(int(x) for x in label)
        coeff = field.one if coeff is None else _embed(field, coeff)
        if not coeff:
            return QCombination(field, {})
        return QCombination(field, {label: coeff})

    def evaluate(self, rho: RhoSpec) -> TPoly:
        """Expand every Q_label into the t-polynomial ring."""
        if self.field is not rho.field:
            raise FieldMismatchError("combination field does not match rho")
        return TPoly(self.field, self.field.lincomb(
            [(c, hl_q(label, rho).terms) for label, c in self.canonical_items()]))

    # -- key hooks: labels sorted by length, then descending lexicographically

    @staticmethod
    def _key_order():
        return _label_sort_key

    @staticmethod
    def _term_text(factor: str, label: Label) -> str:
        return f"{factor}*{label_text(label)}"

    _JSON_KEY = "label"

    @staticmethod
    def _key_to_json(label: Label) -> list:
        return list(label)

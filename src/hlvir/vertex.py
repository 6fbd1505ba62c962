"""Vertex-operator construction of the deformed one-part generators E_i and
the row operators B_m, and through them the polynomials Q_label.

B(u) = exp(sum_k (1 - rho^k) t_k u^k) * exp(-sum_k (1/k) d_k u^{-k}), and
B_m is the u^m coefficient (N. Jing, Vertex operators and Hall-Littlewood
symmetric functions, Adv. Math. 87 (1991)).  The annihilation factor acts on
each t_k^e of a monomial on its own, exp(-d_k u^{-k} / k) t_k^e =
sum_s C(e, s) (-1/k)^s u^{-ks} t_k^{e-s}, so on a monomial t^mu

    B_m t^mu = sum_{nu <= mu} E_{m+|mu|-|nu|} t^nu prod_k C(e_k, s_k) (-1/k)^{s_k}

with s = mu - nu, where E_i is the u^i coefficient of the creation factor
(E_i = Q_{(i)}).  Everything here is exact over Q, Q(rho), or a cyclotomic
field.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import comb
from typing import Iterable

from .exactnum import FieldMismatchError, RhoSpec
from .tring import (DegeneratePairingError, Mono, Sparse, TPoly, _embed,
                    mono_degree, mono_mul)

Label = tuple[int, ...]


class AdjointUndefinedError(DegeneratePairingError):
    """t_r has no adjoint when 1 - rho^r = 0 (the pairing degenerates)."""


# ---------------------------------------------------------------------------
# caches

_CACHES: list[dict] = []
_CACHE_ENABLED = True
_CACHE_MAX = int(os.environ.get("HLVIR_CACHE_MAX", "400000"))


def _new_cache() -> dict:
    """A registered memo dict: written only through ``_cache_put`` (so
    ``--no-cache`` and ``HLVIR_CACHE_MAX`` apply) and emptied by
    ``clear_caches``.  A full cache evicts its oldest entry."""
    cache: dict = {}
    _CACHES.append(cache)
    return cache


_E_CACHE = _new_cache()
_B_CACHE = _new_cache()
_Q_CACHE = _new_cache()


def set_cache_enabled(flag: bool) -> None:
    global _CACHE_ENABLED
    _CACHE_ENABLED = bool(flag)
    if not flag:
        clear_caches()


def clear_caches() -> None:
    for cache in _CACHES:
        cache.clear()


def _cache_put(cache: dict, key, value):
    if _CACHE_ENABLED:
        while cache and len(cache) >= _CACHE_MAX:
            del cache[next(iter(cache))]  # dicts keep insertion order
        cache[key] = value
    return value


# ---------------------------------------------------------------------------
# one-row generators

def one_row(i: int, rho: RhoSpec) -> TPoly:
    """E_i = Q_{(i)}, from j*E_j = sum_{k=1}^{j} k (1 - rho^k) t_k E_{j-k},
    built up from E_0 through every E_j not cached yet."""
    field = rho.field
    if i < 0:
        return TPoly.zero(field)
    if i == 0:
        return TPoly.one(field)
    hit = _E_CACHE.get((rho.key, i))
    if hit is not None:
        return hit
    rows = [TPoly.one(field)]
    for j in range(1, i + 1):
        key = (rho.key, j)
        row = _E_CACHE.get(key)
        if row is None:
            row = TPoly.zero(field)
            for k in range(1, j + 1):
                factor = rho.one_minus_rho_pow(k)
                if not factor:
                    continue
                scalar = factor * field.from_fraction(Fraction(k, j))
                row = row + rows[j - k].mul_var(k, scalar)
            _cache_put(_E_CACHE, key, row)
        rows.append(row)
    return rows[i]


# ---------------------------------------------------------------------------
# row operators on monomials

def _apply_b_mono(rho: RhoSpec, m: int, mono: Mono) -> TPoly:
    """B_m t^mono, by the closed form in the module docstring."""
    key = (rho.key, m, mono)
    hit = _B_CACHE.get(key)
    if hit is not None:
        return hit
    # lowered[j]: the (nu, weight) with |mono| - |nu| = j
    lowered: dict[int, list[tuple[Mono, Fraction]]] = {0: [((), Fraction(1))]}
    for k, e in mono:
        step: dict[int, list] = {}
        for s in range(e + 1):
            w = comb(e, s) * Fraction(-1, k) ** s
            part = ((k, e - s),) if s < e else ()
            for j, terms in lowered.items():
                step.setdefault(j + k * s, []).extend(
                    (nu + part, c * w) for nu, c in terms)
        lowered = step
    out: dict = {}
    for j in sorted(lowered):
        if m + j < 0:
            continue
        row = one_row(m + j, rho).terms
        for nu, c in lowered[j]:
            for mono_e, a in row.items():
                prod = mono_mul(mono_e, nu)
                v = a if c == 1 else a * c
                cur = out.get(prod)
                out[prod] = v if cur is None else cur + v
    res = TPoly(rho.field, {mo: c for mo, c in out.items() if c})
    return _cache_put(_B_CACHE, key, res)


def apply_B(m: int, f: TPoly, rho: RhoSpec) -> TPoly:
    """Apply the row operator B_m to f, linearly over its monomials."""
    if f.field is not rho.field:
        raise FieldMismatchError("apply_B needs f over rho's coefficient field")
    out = TPoly.zero(f.field)
    for mono, c in f.terms.items():
        if m + mono_degree(mono) < 0:
            continue
        out = out + _apply_b_mono(rho, m, mono).scale(c)
    return out


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
    field = rho.field
    tail = 0
    for x in reversed(label):
        tail += x
        if tail < 0:
            return TPoly.zero(field)
    start = len(label)
    out = TPoly.one(field)
    for j in range(len(label)):
        hit = _Q_CACHE.get((rho.key, label[j:]))
        if hit is not None:
            start, out = j, hit
            break
    for j in range(start - 1, -1, -1):
        out = _cache_put(_Q_CACHE, (rho.key, label[j:]), apply_B(label[j], out, rho))
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
        out = TPoly.zero(self.field)
        for label, c in self.canonical_items():
            q = hl_q(label, rho)
            if q:
                out = out + q.scale(c)
        return out

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

    @staticmethod
    def _key_from_json(data: list) -> Label:
        return tuple(int(x) for x in data)


def perp_p(k: int, comb: QCombination) -> QCombination:
    """Adjoint of multiplication by the degree-k power sum, on Q symbols:
    sends Q_label to sum_i Q_{label - k e_i}."""
    if k < 1:
        raise ValueError("adjoint index must be >= 1")
    items = []
    for label, c in comb.terms.items():
        for i in range(len(label)):
            lowered = label[:i] + (label[i] - k,) + label[i + 1:]
            items.append((lowered, c))
    return QCombination.from_terms(comb.field, items)

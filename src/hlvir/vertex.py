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
from typing import Iterable, Optional

from .exactnum import FieldMismatchError, RhoSpec
from .tring import DegeneratePairingError, Mono, TPoly, mono_degree, mono_mul

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
    """E_i = Q_{(i)}, from i*E_i = sum_{k=1}^{i} k (1 - rho^k) t_k E_{i-k}."""
    field = rho.field
    if i < 0:
        return TPoly.zero(field)
    if i == 0:
        return TPoly.one(field)
    key = (rho.key, i)
    hit = _E_CACHE.get(key)
    if hit is not None:
        return hit
    acc = TPoly.zero(field)
    for k in range(1, i + 1):
        factor = rho.one_minus_rho_pow(k)
        if not factor:
            continue
        scalar = factor * field.from_fraction(Fraction(k, i))
        acc = acc + one_row(i - k, rho).mul_var(k, scalar)
    return _cache_put(_E_CACHE, key, acc)


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
    otherwise.
    """
    label = tuple(int(x) for x in label)
    field = rho.field
    if not label:
        return TPoly.one(field)
    tail = 0
    for x in reversed(label):
        tail += x
        if tail < 0:
            return TPoly.zero(field)
    key = (rho.key, label)
    hit = _Q_CACHE.get(key)
    if hit is not None:
        return hit
    res = apply_B(label[0], hl_q(label[1:], rho), rho)
    return _cache_put(_Q_CACHE, key, res)


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


class QCombination:
    """A formal linear combination of Q_label symbols over a coefficient
    field.  Labels are arbitrary integer tuples; no rewriting is applied."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms: dict):
        self.field = field
        self.terms = terms

    @staticmethod
    def zero(field) -> "QCombination":
        return QCombination(field, {})

    @staticmethod
    def single(field, label: Iterable[int], coeff=None) -> "QCombination":
        label = tuple(int(x) for x in label)
        if coeff is None:
            coeff = field.one
        elif isinstance(coeff, (int, Fraction)):
            coeff = field.from_fraction(coeff)
        if not coeff:
            return QCombination(field, {})
        return QCombination(field, {label: coeff})

    @staticmethod
    def from_terms(field, items: Iterable[tuple[Label, object]]) -> "QCombination":
        acc: dict = {}
        for label, c in items:
            label = tuple(int(x) for x in label)
            if not c:
                continue
            cur = acc.get(label)
            if cur is None:
                acc[label] = c
            else:
                cur = cur + c
                if cur:
                    acc[label] = cur
                else:
                    del acc[label]
        return QCombination(field, acc)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check(self, other: "QCombination"):
        if self.field is not other.field:
            raise FieldMismatchError(
                f"combinations over different fields: {self.field.name} vs {other.field.name}")

    def __add__(self, other: "QCombination") -> "QCombination":
        if not isinstance(other, QCombination):
            return NotImplemented
        self._check(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for label, c in other.terms.items():
            cur = out.get(label)
            if cur is None:
                out[label] = c
            else:
                cur = cur + c
                if cur:
                    out[label] = cur
                else:
                    del out[label]
        return QCombination(self.field, out)

    def __neg__(self) -> "QCombination":
        return QCombination(self.field, {l: -c for l, c in self.terms.items()})

    def __sub__(self, other: "QCombination") -> "QCombination":
        if not isinstance(other, QCombination):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "QCombination":
        if isinstance(c, (int, Fraction)):
            c = self.field.from_fraction(c)
        if not c:
            return QCombination(self.field, {})
        out = {}
        for label, a in self.terms.items():
            v = a * c
            if v:
                out[label] = v
        return QCombination(self.field, out)

    def __eq__(self, other):
        if not isinstance(other, QCombination):
            return NotImplemented
        return self.field is other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field.key, frozenset(self.terms.items())))

    def __repr__(self):
        return f"QCombination({self.to_text()})"

    def evaluate(self, rho: RhoSpec) -> TPoly:
        """Expand every Q_label into the t-polynomial ring."""
        if self.field is not rho.field:
            raise FieldMismatchError("combination field does not match rho")
        out = TPoly.zero(self.field)
        for label, c in sorted(self.terms.items(), key=lambda kv: _label_sort_key(kv[0])):
            q = hl_q(label, rho)
            if q:
                out = out + q.scale(c)
        return out

    def canonical_items(self) -> list[tuple[Label, object]]:
        return sorted(self.terms.items(), key=lambda kv: _label_sort_key(kv[0]))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        field = self.field
        pieces = []
        for label, c in self.canonical_items():
            sign, mag = field.split_sign(c)
            body = f"{field.factor_text(mag)}*{label_text(label)}"
            if not pieces:
                pieces.append(f"-{body}" if sign < 0 else body)
            else:
                pieces.append(f" - {body}" if sign < 0 else f" + {body}")
        return "".join(pieces)

    def to_json(self) -> list:
        return [
            {"label": list(label), "coeff": self.field.value_text(c)}
            for label, c in self.canonical_items()
        ]

    @staticmethod
    def from_json(field, data: list) -> "QCombination":
        return QCombination.from_terms(
            field, ((tuple(int(x) for x in e["label"]), field.parse(e["coeff"]))
                    for e in data))


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

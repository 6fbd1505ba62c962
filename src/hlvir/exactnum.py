"""Exact coefficient arithmetic.

Three coefficient fields, all exact (no floating point anywhere):

* Q               -- stdlib ``fractions.Fraction``
* Q(xi_n)         -- ``Cyclotomic``: the cyclotomic field of order n, elements
                     reduced modulo the n-th cyclotomic polynomial
* Q(rho)          -- ``RatFunc``: rational functions in one indeterminate rho

plus the specialization maps that send a rational function to its exact value
(a limit, when the naive substitution is 0/0) at rho = xi_n or at a rational
point.  ``RhoSpec`` bundles the choice of specialization with its field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Union

RHO_SYMBOL = "ρ"  # the indeterminate of Q(rho) in canonical text


class FieldMismatchError(TypeError):
    """Raised when values of two different coefficient fields are combined."""


class PoleError(ArithmeticError):
    """Raised when a rational function is specialized at a pole."""


def _fr(x: Union[int, Fraction]) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def signed_join(terms: Iterable[tuple[bool, str]]) -> str:
    """Canonical text of a sum from its (negative, magnitude text) terms:
    "a - b + c"; "0" for no terms."""
    out = []
    for neg, body in terms:
        if out:
            out.append(" - " if neg else " + ")
        elif neg:
            out.append("-")
        out.append(body)
    return "".join(out) or "0"


# ---------------------------------------------------------------------------
# univariate polynomials over Q


class UniPoly:
    """Dense univariate polynomial over Q, indexed by power.

    Internally an integer coefficient vector with one common positive
    denominator, content-reduced; the public face is Fraction coefficients.
    Immutable and hashable.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: tuple[int, ...], den: int):
        # assumes normalized input; use the constructors below
        self._num = num
        self._den = den

    @staticmethod
    def _make(num: list[int], den: int) -> "UniPoly":
        if den == 0:
            raise ZeroDivisionError("polynomial with zero denominator")
        while num and num[-1] == 0:
            num.pop()
        if not num:
            return _UP_ZERO
        if den != 1:
            g = gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num = [c // g for c in num]
                den //= g
        return UniPoly(tuple(num), den)

    @staticmethod
    def from_ints(coeffs, den: int = 1) -> "UniPoly":
        return UniPoly._make(list(coeffs), den)

    @staticmethod
    def from_fractions(coeffs) -> "UniPoly":
        coeffs = [_fr(c) for c in coeffs]
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        return UniPoly._make([int(c * den) for c in coeffs], den)

    @staticmethod
    def constant(c: Union[int, Fraction]) -> "UniPoly":
        c = _fr(c)
        return UniPoly._make([c.numerator], c.denominator)

    @staticmethod
    def x_pow(e: int, c: Union[int, Fraction] = 1) -> "UniPoly":
        c = _fr(c)
        return UniPoly._make([0] * e + [c.numerator], c.denominator)

    # -- queries

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._num) - 1

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self._num):
            return Fraction(self._num[i], self._den)
        return Fraction(0)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._num)

    def leading(self) -> Fraction:
        if not self._num:
            return Fraction(0)
        return Fraction(self._num[-1], self._den)

    def is_constant(self) -> bool:
        return len(self._num) <= 1

    def evaluate(self, x: Union[int, Fraction]) -> Fraction:
        # integer Horner on sum c_i p^i q^(d-i), for x = p/q
        if not self._num:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc, qk = 0, 1
        for c in reversed(self._num):
            acc = acc * p + c * qk
            qk *= q
        return Fraction(acc, self._den * qk // q)

    # -- arithmetic

    def __add__(self, other):
        other = _as_unipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return _up_add(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(tuple(-c for c in self._num), self._den)

    def __sub__(self, other):
        other = _as_unipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return _up_add(self, other, -1)

    def __rsub__(self, other):
        other = _as_unipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return _up_add(other, self, -1)

    def __mul__(self, other):
        other = _as_unipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return _up_mul(self, other)

    __rmul__ = __mul__

    def __divmod__(self, other: "UniPoly"):
        """Quotient and remainder over Q, by fraction-free pseudo-division
        of the integer vectors (von zur Gathen & Gerhard, *Modern Computer
        Algebra*): the divisor's lead is scaled into the remainder only at a
        step whose top coefficient it does not divide."""
        other = _as_unipoly(other)
        if other is NotImplemented:
            return NotImplemented
        div = other._num
        if not div:
            raise ZeroDivisionError("polynomial division by zero")
        dd = len(div) - 1
        lead = div[-1]
        rem = list(self._num)
        nq = len(rem) - dd
        if nq <= 0:
            return _UP_ZERO, self
        q = [0] * nq
        scale = 1  # scale * self._num == div * q + rem throughout
        for k in range(nq - 1, -1, -1):
            r = rem.pop()
            if r:
                c, m = divmod(r, lead)
                if m:
                    g = abs(lead) // gcd(lead, r)
                    rem = [x * g for x in rem]
                    q = [x * g for x in q]
                    scale *= g
                    c = r * g // lead
                q[k] = c
                rem[k:] = [x - c * y for x, y in zip(rem[k:], div)]
        den = scale * self._den
        return (UniPoly._make([x * other._den for x in q], den),
                UniPoly._make(rem, den))

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divexact(self, other: "UniPoly") -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return UniPoly._make(list(self._num), self._num[-1])

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def xgcd(self, other: "UniPoly"):
        """Extended Euclid: returns (g, s, t) with s*self + t*other = g, g monic."""
        r0, r1 = self, other
        s0, s1 = _UP_ONE, _UP_ZERO
        t0, t1 = _UP_ZERO, _UP_ONE
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero():
            return r0, s0, t0
        n, d = r0._den, r0._num[-1]  # 1 / lead
        return r0.monic(), _up_scale(s0, n, d), _up_scale(t0, n, d)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = _UP_ONE
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- identity

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self):
        return f"UniPoly({self.to_text()})"

    # -- text (descending powers, canonical)

    def to_text(self, symbol: str = RHO_SYMBOL) -> str:
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coefficient(i)
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xs = symbol if i == 1 else f"{symbol}^{i}"
                body = xs if mag == 1 else f"{mag}*{xs}"
            terms.append((c < 0, body))
        return signed_join(terms)

    @staticmethod
    def parse(text: str, symbol: str = RHO_SYMBOL) -> "UniPoly":
        terms = _split_signed_terms(text)
        acc = _UP_ZERO
        for sign, tok in terms:
            coeff, power = _parse_power_term(tok, symbol)
            acc = acc + UniPoly.x_pow(power, sign * coeff)
        return acc


def _up_add(a: UniPoly, b: UniPoly, sign: int) -> UniPoly:
    """a + sign * b on the integer vectors."""
    an, bn = a._num, b._num
    if a._den == b._den:
        den = a._den
    else:
        den = lcm(a._den, b._den)
        fa, fb = den // a._den, den // b._den
        an = [x * fa for x in an]
        bn = [y * fb for y in bn]
    if sign < 0:
        bn = [-y for y in bn]
    if len(an) < len(bn):
        an, bn = bn, an
    n = [x + y for x, y in zip(an, bn)]
    n.extend(an[len(bn):])
    return UniPoly._make(n, den)


def _up_mul(a: UniPoly, b: UniPoly) -> UniPoly:
    """a * b on the integer vectors; a constant factor scales the other."""
    an, bn = a._num, b._num
    if not an or not bn:
        return _UP_ZERO
    if len(an) > len(bn):
        an, bn = bn, an
    if len(an) == 1:
        c = an[0]
        out = [c * y for y in bn]
    else:
        out = [0] * (len(an) + len(bn) - 1)
        for i, x in enumerate(an):
            if x:
                for j, y in enumerate(bn):
                    out[i + j] += x * y
    return UniPoly._make(out, a._den * b._den)


def _up_scale(a: UniPoly, n: int, d: int) -> UniPoly:
    """a * (n / d) for integers n, d != 0."""
    return UniPoly._make([c * n for c in a._num], a._den * d)


def _as_unipoly(x):
    if isinstance(x, UniPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return UniPoly.constant(x)
    if isinstance(x, (Cyclotomic, RatFunc)):
        raise FieldMismatchError("cannot mix UniPoly with other field values")
    return NotImplemented


_UP_ZERO = UniPoly((), 1)
_UP_ONE = UniPoly((1,), 1)
UNIPOLY_X = UniPoly((0, 1), 1)


def _split_signed_terms(text: str) -> list[tuple[int, str]]:
    text = text.strip()
    if not text:
        raise ValueError("empty expression")
    out = []
    # terms are joined canonically by " + " / " - "
    pieces = re.split(r" ([+-]) ", text)
    first = pieces[0]
    sign = 1
    if first.startswith("-"):
        sign, first = -1, first[1:]
    out.append((sign, first.strip()))
    for i in range(1, len(pieces), 2):
        s = 1 if pieces[i] == "+" else -1
        out.append((s, pieces[i + 1].strip()))
    return out


def _parse_power_term(tok: str, symbol: str) -> tuple[Fraction, int]:
    if "*" in tok:
        c_txt, p_txt = tok.split("*", 1)
        coeff = Fraction(c_txt)
    else:
        c_txt, p_txt = None, tok
        coeff = Fraction(1)
    if p_txt == symbol:
        return coeff, 1
    if p_txt.startswith(symbol + "^"):
        return coeff, int(p_txt[len(symbol) + 1:])
    if c_txt is None:
        return Fraction(p_txt), 0
    raise ValueError(f"cannot parse term {tok!r}")


# ---------------------------------------------------------------------------
# cyclotomic polynomials and fields


# Not in the vertex cache registry: one small int per root order, and
# --max-xi-order bounds the orders.
@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


# Not in the vertex cache registry: one Phi_n per root order, a modulus of the
# field rather than a result.
@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> UniPoly:
    """The n-th cyclotomic polynomial, by exact division of x^n - 1."""
    if n < 1:
        raise ValueError("cyclotomic_poly needs n >= 1")
    num = UniPoly.from_ints([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            num = num.divexact(cyclotomic_poly(d))
    return num


# Not in the vertex cache registry: every Cyclotomic product folds through it,
# so --no-cache must not drop it.
@lru_cache(maxsize=None)
def _cyclo_tables(n: int):
    """phi(n), Phi_n, and the integer rows z^j mod Phi_n for
    phi <= j <= max(2*phi - 2, n - 1): enough to fold a product of two
    reduced elements, or any vector already wrapped by z^n = 1."""
    phi = euler_phi(n)
    Phi = cyclotomic_poly(n)
    # Phi is monic with integer coefficients, so every row is integral
    base = [-c for c in Phi._num[:phi]]  # z^phi = -(Phi - z^phi)
    rows = []
    row = base
    for _ in range(max(phi - 1, n - phi)):
        rows.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [x + top * b for x, b in zip(row, base)]
    return phi, Phi, tuple(rows)


def _fold(cs: list[int], phi: int, rows) -> list[int]:
    """Reduce the integer vector cs (len(cs) - phi <= len(rows)) mod Phi_n."""
    out = cs[:phi]
    for c, row in zip(cs[phi:], rows):
        if c:
            out = [x + c * r for x, r in zip(out, row)]
    return out


class Cyclotomic:
    """An element of Q(xi_n): num/den in the power basis 1, z, ..., z^(phi-1).

    ``num`` is a tuple of phi integers and ``den`` a positive integer with
    gcd(num..., den) = 1 (zero is all zeros over 1), so every element has
    exactly one representation.  Immutable and hashable.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num: tuple[int, ...], den: int):
        # assumes normalized input; use the constructors below
        self.order = order
        self.num = num
        self.den = den

    @staticmethod
    def _make(order: int, num: list[int], den: int) -> "Cyclotomic":
        """Normalize phi integer coordinates over a positive denominator."""
        if den == 1:
            return Cyclotomic(order, tuple(num), 1)
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
        return Cyclotomic(order, tuple(num), den)

    @staticmethod
    def _from_ints(order: int, num: list[int], den: int) -> "Cyclotomic":
        """num/den for integer coordinates of any length, reduced mod Phi_n."""
        phi, _, rows = _cyclo_tables(order)
        if len(num) > order:  # z^n = 1
            wrapped = num[:order]
            for j in range(order, len(num)):
                wrapped[j % order] += num[j]
            num = wrapped
        if len(num) > phi:
            num = _fold(num, phi, rows)
        else:
            num = num + [0] * (phi - len(num))
        return Cyclotomic._make(order, num, den)

    @staticmethod
    def make(order: int, coords) -> "Cyclotomic":
        cs = [_fr(c) for c in coords]
        den = lcm(*(c.denominator for c in cs))
        return Cyclotomic._from_ints(
            order, [c.numerator * (den // c.denominator) for c in cs], den)

    @staticmethod
    def constant(order: int, c: Union[int, Fraction]) -> "Cyclotomic":
        return Cyclotomic(order, (c.numerator,) + (0,) * (euler_phi(order) - 1),
                          c.denominator)

    @staticmethod
    def generator(order: int) -> "Cyclotomic":
        """xi_n = z mod Phi_n."""
        return Cyclotomic._from_ints(order, [0, 1], 1)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return Fraction(self.num[0], self.den)

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise FieldMismatchError(
                    f"cyclotomic orders differ: {self.order} vs {other.order}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.constant(self.order, other)
        if isinstance(other, (UniPoly, RatFunc)):
            raise FieldMismatchError("cannot mix cyclotomic and rational-function values")
        return None

    @staticmethod
    def _combine(a: "Cyclotomic", b: "Cyclotomic", sign: int) -> "Cyclotomic":
        """a + sign * b.  Calls no arithmetic operator, so that an
        instrumented ``__add__`` counts only the additions callers make."""
        if a.den == b.den:
            if sign > 0:
                n = [x + y for x, y in zip(a.num, b.num)]
            else:
                n = [x - y for x, y in zip(a.num, b.num)]
            return Cyclotomic._make(a.order, n, a.den)
        L = lcm(a.den, b.den)
        fa, fb = L // a.den, sign * (L // b.den)
        return Cyclotomic._make(a.order, [x * fa + y * fb for x, y in zip(a.num, b.num)], L)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._combine(self, o, 1)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._combine(self, o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._combine(o, self, -1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if not any(a[1:]):
            a, b = b, a
        if not any(b[1:]):  # a rational factor: scale the other one
            c = b[0]
            return Cyclotomic._make(self.order, [x * c for x in a], self.den * o.den)
        phi = len(a)
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(a):
            if x:
                conv[i:i + phi] = [c + x * y for c, y in zip(conv[i:i + phi], b)]
        _, _, rows = _cyclo_tables(self.order)
        return Cyclotomic._make(self.order, _fold(conv, phi, rows), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        phi, Phi, _ = _cyclo_tables(self.order)
        a = UniPoly._make(list(self.num), self.den)
        g, s, _ = a.xgcd(Phi)
        if g.degree != 0:
            raise ZeroDivisionError("element not invertible (unexpected)")
        rem = s % Phi  # g is monic, so g == 1
        return Cyclotomic._from_ints(self.order, list(rem._num), rem._den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = Cyclotomic.constant(self.order, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return (self.order == other.order and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.order, self.num, self.den))

    def __repr__(self):
        return f"Cyclotomic({self.order}, {self.to_text()})"

    def to_text(self) -> str:
        terms = []
        for k, c in enumerate(self.num):
            if c == 0:
                continue
            mag = Fraction(abs(c), self.den)
            if k == 0:
                body = str(mag)
            else:
                zs = "z" if k == 1 else f"z^{k}"
                body = f"{mag}*{zs}"
            terms.append((c < 0, body))
        return signed_join(terms)

    @staticmethod
    def parse(order: int, text: str) -> "Cyclotomic":
        text = text.strip()
        if text == "0":
            return Cyclotomic.constant(order, 0)
        coords: dict[int, Fraction] = {}
        for sign, tok in _split_signed_terms(text):
            coeff, power = _parse_power_term(tok, "z")
            coords[power] = coords.get(power, Fraction(0)) + sign * coeff
        size = max(coords) + 1 if coords else 1
        return Cyclotomic.make(order, [coords.get(i, Fraction(0)) for i in range(size)])


# ---------------------------------------------------------------------------
# rational functions


class RatFunc:
    """A rational function num/den over Q, gcd-reduced with monic denominator.

    Invariant: ``den`` is the shared ``_UP_ONE`` object if and only if the
    value is a polynomial, so ``den is _UP_ONE`` is the polynomial test and
    sums and products of polynomials stay in the UniPoly integer kernels.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly):
        # assumes already normalized; use make()
        self.num = num
        self.den = den

    @staticmethod
    def make(num: UniPoly, den: UniPoly) -> "RatFunc":
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            return RatFunc(_UP_ZERO, _UP_ONE)
        if den.degree > 0:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divexact(g)
                den = den.divexact(g)
        lead = den._num[-1]  # den's leading coefficient is lead / den._den
        if lead != den._den:
            num = _up_scale(num, den._den, lead)
            den = den.monic()
        return RatFunc(num, _UP_ONE if den.degree == 0 else den)

    @staticmethod
    def from_poly(p: UniPoly) -> "RatFunc":
        return RatFunc(p, _UP_ONE)

    @staticmethod
    def constant(c: Union[int, Fraction]) -> "RatFunc":
        return RatFunc(UniPoly.constant(c), _UP_ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_constant(self) -> bool:
        return self.den is _UP_ONE and self.num.is_constant()

    def rational_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return self.num.coefficient(0)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc.constant(other)
        if isinstance(other, UniPoly):
            return RatFunc.from_poly(other)
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Cyclotomic):
            raise FieldMismatchError("cannot mix rational-function and cyclotomic values")
        return None

    @staticmethod
    def _combine(a: "RatFunc", b: "RatFunc", sign: int) -> "RatFunc":
        """a + sign * b.  Calls no RatFunc operator, so that an instrumented
        ``__add__`` counts only the additions callers make."""
        if a.den is _UP_ONE and b.den is _UP_ONE:
            return RatFunc(_up_add(a.num, b.num, sign), _UP_ONE)
        return RatFunc.make(_up_add(_up_mul(a.num, b.den), _up_mul(b.num, a.den), sign),
                            _up_mul(a.den, b.den))

    def __add__(self, other):
        o = other if type(other) is RatFunc else self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc._combine(self, o, 1)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = other if type(other) is RatFunc else self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc._combine(self, o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc._combine(o, self, -1)

    def __mul__(self, other):
        o = other
        if type(o) is not RatFunc:
            if isinstance(o, (int, Fraction)):
                # a nonzero rational factor keeps num/den reduced, den monic
                if not o:
                    return RatFunc(_UP_ZERO, _UP_ONE)
                return RatFunc(_up_scale(self.num, o.numerator, o.denominator),
                               self.den)
            o = self._coerce(o)
            if o is None:
                return NotImplemented
        if self.den is _UP_ONE and o.den is _UP_ONE:
            return RatFunc(_up_mul(self.num, o.num), _UP_ONE)
        return RatFunc.make(_up_mul(self.num, o.num), _up_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc.make(_up_mul(self.num, o.den), _up_mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if e < 0:
            return (RatFunc.constant(1) / self) ** (-e)
        return RatFunc.make(self.num ** e, self.den ** e)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, UniPoly)):
            other = self._coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.to_text()})"

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        if self.is_constant():
            return str(self.num.coefficient(0))
        if self.den is _UP_ONE:
            return f"({self.num.to_text()})"
        return f"({self.num.to_text()})/({self.den.to_text()})"

    @staticmethod
    def parse(text: str) -> "RatFunc":
        text = text.strip()
        if not text.startswith("("):
            return RatFunc.constant(Fraction(text))
        if ")/(" in text:
            n_txt, d_txt = text.split(")/(", 1)
            num = UniPoly.parse(n_txt[1:])
            den = UniPoly.parse(d_txt[:-1])
            return RatFunc.make(num, den)
        return RatFunc.from_poly(UniPoly.parse(text[1:-1]))


RATFUNC_RHO = RatFunc.from_poly(UNIPOLY_X)


# ---------------------------------------------------------------------------
# specialization


def _as_ratfunc(f: Union[RatFunc, UniPoly]) -> RatFunc:
    if isinstance(f, UniPoly):
        return RatFunc.from_poly(f)
    return f


def specialize_at_root(f: Union[RatFunc, UniPoly], n: int) -> Cyclotomic:
    """Exact value (limit) of f at rho = xi_n; PoleError if infinite."""
    f = _as_ratfunc(f)
    Phi = cyclotomic_poly(n)
    num, den = f.num, f.den
    while True:
        nq, nr = divmod(num, Phi)
        dq, dr = divmod(den, Phi)
        if dr.is_zero():
            if nr.is_zero():
                num, den = nq, dq  # common factor Phi_n: cancel and retry
                continue
            raise PoleError(f"pole at xi_{n}")
        a = Cyclotomic._from_ints(n, list(nr._num), nr._den)
        b = Cyclotomic._from_ints(n, list(dr._num), dr._den)
        return a / b


def specialize_at_rational(f: Union[RatFunc, UniPoly], r: Union[int, Fraction]) -> Fraction:
    """Exact value (limit) of f at rho = r; PoleError if infinite."""
    f = _as_ratfunc(f)
    r = _fr(r)
    num, den = f.num, f.den
    linear = UniPoly.from_ints([-r.numerator, r.denominator])  # a multiple of rho - r
    while True:
        dv = den.evaluate(r)
        nv = num.evaluate(r)
        if dv != 0:
            return nv / dv
        if nv != 0:
            raise PoleError(f"pole at rho = {r}")
        num = num.divexact(linear)
        den = den.divexact(linear)


# ---------------------------------------------------------------------------
# coefficient fields (tags shared by polynomials, operators, combinations)


class RationalField:
    """Plain Q with Fraction values."""

    kind = "rational"
    key = ("Q",)
    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def from_fraction(c: Union[int, Fraction]) -> Fraction:
        return _fr(c)

    @staticmethod
    def value_text(v: Fraction) -> str:
        return str(v)

    @staticmethod
    def factor_text(v: Fraction) -> str:
        return str(v)

    @staticmethod
    def split_sign(v: Fraction):
        if v < 0:
            return -1, -v
        return 1, v

    @staticmethod
    def parse(text: str) -> Fraction:
        return Fraction(text)

    def __repr__(self):
        return "QQ"


class CyclotomicFieldTag:
    """Q(xi_n) with Cyclotomic values."""

    kind = "cyclotomic"

    def __init__(self, order: int):
        self.order = order
        self.key = ("Qxi", order)
        self.name = f"Q(xi_{order})"
        self.zero = Cyclotomic.constant(order, 0)
        self.one = Cyclotomic.constant(order, 1)

    def from_fraction(self, c: Union[int, Fraction]) -> Cyclotomic:
        return Cyclotomic.constant(self.order, c)

    @staticmethod
    def value_text(v: Cyclotomic) -> str:
        return v.to_text()

    @staticmethod
    def factor_text(v: Cyclotomic) -> str:
        if v.is_rational():
            return str(v.rational_value())
        return f"({v.to_text()})"

    @staticmethod
    def split_sign(v: Cyclotomic):
        if v.is_rational() and v.num[0] < 0:
            return -1, -v
        return 1, v

    def parse(self, text: str) -> Cyclotomic:
        return Cyclotomic.parse(self.order, text)

    def __repr__(self):
        return f"QQxi({self.order})"


class GenericField:
    """Q(rho) with RatFunc values."""

    kind = "generic"
    key = ("Qrho",)
    name = "Q(rho)"

    zero = RatFunc.constant(0)
    one = RatFunc.constant(1)

    @staticmethod
    def from_fraction(c: Union[int, Fraction]) -> RatFunc:
        return RatFunc.constant(c)

    @staticmethod
    def value_text(v: RatFunc) -> str:
        return v.to_text()

    @staticmethod
    def factor_text(v: RatFunc) -> str:
        return v.to_text()

    @staticmethod
    def split_sign(v: RatFunc):
        if v.is_constant() and v.num.coefficient(0) < 0:
            return -1, -v
        return 1, v

    @staticmethod
    def parse(text: str) -> RatFunc:
        return RatFunc.parse(text)

    def __repr__(self):
        return "QQrho"


QQ = RationalField()
GENERIC = GenericField()


# Not in the vertex cache registry: it interns the tag that
# ``field is other.field`` relies on, so it must never be emptied.
@lru_cache(maxsize=None)
def cyclotomic_field(n: int) -> CyclotomicFieldTag:
    return CyclotomicFieldTag(n)


# ---------------------------------------------------------------------------
# rho specification


@dataclass(frozen=True)
class RhoSpec:
    """Which rho we are working at: a rational value, a primitive root of
    unity xi_n, or the generic indeterminate."""

    kind: str  # "generic" | "rational" | "root"
    value: Optional[Fraction] = None
    order: Optional[int] = None

    @staticmethod
    def generic() -> "RhoSpec":
        return RhoSpec("generic")

    @staticmethod
    def rational(v: Union[int, Fraction]) -> "RhoSpec":
        return RhoSpec("rational", value=_fr(v))

    @staticmethod
    def root(n: int) -> "RhoSpec":
        if n < 2:
            raise ValueError("root of unity order must be >= 2")
        return RhoSpec("root", order=n)

    @staticmethod
    def parse(text: str) -> "RhoSpec":
        text = text.strip()
        if text == "generic":
            return RhoSpec.generic()
        if text.startswith("xi:"):
            return RhoSpec.root(int(text[3:]))
        return RhoSpec.rational(Fraction(text))

    @property
    def field(self):
        if self.kind == "generic":
            return GENERIC
        if self.kind == "rational":
            return QQ
        return cyclotomic_field(self.order)

    @property
    def key(self):
        if self.kind == "generic":
            return ("g",)
        if self.kind == "rational":
            return ("q", self.value)
        return ("x", self.order)

    def rho(self):
        if self.kind == "generic":
            return RATFUNC_RHO
        if self.kind == "rational":
            return self.value
        return Cyclotomic.generator(self.order)

    def rho_pow(self, k: int):
        """rho^k as a field value (k may be negative where defined)."""
        if self.kind == "root":
            return Cyclotomic.generator(self.order) ** (k % self.order)
        if self.kind == "rational":
            if k < 0 and self.value == 0:
                raise ZeroDivisionError("negative power of rho = 0")
            return self.value ** k
        if k >= 0:
            return RatFunc.from_poly(UniPoly.x_pow(k))
        return RatFunc.make(_UP_ONE, UniPoly.x_pow(-k))

    def one_minus_rho_pow(self, k: int):
        return _one_minus_rho_pow(self, k)

    def specialize(self, f: RatFunc):
        """Send a generic-field value into this rho's field (exact limit)."""
        if self.kind == "generic":
            return f
        if self.kind == "rational":
            return specialize_at_rational(f, self.value)
        return specialize_at_root(f, self.order)

    def to_text(self) -> str:
        if self.kind == "generic":
            return "generic"
        if self.kind == "rational":
            return str(self.value)
        return f"xi:{self.order}"


# Not in the vertex cache registry: a few constants per rho, read in every
# one_row and perp_t step.
@lru_cache(maxsize=None)
def _one_minus_rho_pow(rho: RhoSpec, k: int):
    return rho.field.from_fraction(1) - rho.rho_pow(k)


RHO_GENERIC = RhoSpec.generic()
RHO_ZERO = RhoSpec.rational(0)

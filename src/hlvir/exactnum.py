"""Exact coefficient arithmetic.

Three coefficient fields, all exact (no floating point anywhere):

* Q               -- stdlib ``fractions.Fraction``
* Q(xi_n)         -- ``Cyclotomic``: the cyclotomic field of order n, elements
                     reduced modulo the n-th cyclotomic polynomial
* Q(rho)          -- ``RatFunc``: rational functions in one indeterminate rho,
                     packed (``rhopoly``; re-exported here)

plus the specialization maps that send a rational function to its exact value
(a limit, when the naive substitution is 0/0) at rho = xi_n or at a rational
point.  ``RhoSpec`` bundles the choice of specialization with its field.

Each field tag owns one scaled-sum kernel, ``lincomb``: the sum of c * terms
over (c, terms) pairs, in integers over one common denominator and normalized
once per output key over Q and Q(xi_n), one product at a time over Q(rho).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from typing import Optional, Union

from .rhopoly import (RATFUNC_RHO, FieldMismatchError, RatFunc, UniPoly, _fr, _pack,
                      _parse_power_term, _split_signed_terms, _unpack, _UP_ONE, _width,
                      signed_join)


class PoleError(ArithmeticError):
    """Raised when a rational function is specialized at a pole."""


def _accumulate(acc: dict, items) -> dict:
    """Add (key, nonzero value) pairs into acc; keys that cancel go."""
    for k, c in items:
        cur = acc.get(k)
        if cur is None:
            acc[k] = c
        else:
            cur = cur + c
            if cur:
                acc[k] = cur
            else:
                del acc[k]
    return acc


# ---------------------------------------------------------------------------
# cyclotomic polynomials and fields


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


def cyclotomic_poly(n: int) -> UniPoly:
    """The n-th cyclotomic polynomial, by exact division of x^n - 1 by the
    moduli of the fields of every proper divisor of n."""
    if n < 1:
        raise ValueError("cyclotomic_poly needs n >= 1")
    num = UniPoly.from_ints([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            num = num.divexact(cyclotomic_field(d).modulus)
    return num


def _fold(cs: list[int], phi: int, rows) -> list[int]:
    """Reduce the integer vector cs (len(cs) - phi <= len(rows)) mod Phi_n."""
    out = cs[:phi]
    for c, row in zip(cs[phi:], rows):
        if c:
            out = [x + c * r for x, r in zip(out, row)]
    return out


def _coords(c) -> tuple:
    """(integer coordinates, denominator) of a Cyclotomic or a rational."""
    return (c.num, c.den) if isinstance(c, Cyclotomic) else ((c.numerator,), c.denominator)


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
        field = cyclotomic_field(order)
        phi = field.phi
        if len(num) > order:  # z^n = 1
            wrapped = num[:order]
            for j in range(order, len(num)):
                wrapped[j % order] += num[j]
            num = wrapped
        if len(num) > phi:
            num = _fold(num, phi, field.rows)
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
        return Cyclotomic(order, (c.numerator,) + (0,) * (cyclotomic_field(order).phi - 1),
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
        rows = cyclotomic_field(self.order).rows
        return Cyclotomic._make(self.order, _fold(conv, phi, rows), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        Phi = cyclotomic_field(self.order).modulus
        a = UniPoly.from_ints(self.num, self.den)
        g, s, _ = a.xgcd(Phi)
        if g.degree != 0:
            raise ZeroDivisionError("element not invertible (unexpected)")
        rem = s % Phi  # g is monic, so g == 1
        return Cyclotomic._from_ints(self.order, *rem._reduced())

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
# specialization


def _as_ratfunc(f: Union[RatFunc, UniPoly]) -> RatFunc:
    if isinstance(f, UniPoly):
        return RatFunc.from_poly(f)
    return f


def specialize_at_root(f: Union[RatFunc, UniPoly], n: int) -> Cyclotomic:
    """Exact value (limit) of f at rho = xi_n; PoleError if infinite."""
    f = _as_ratfunc(f)
    Phi = cyclotomic_field(n).modulus
    num, den = f.num, f.den
    while True:
        nq, nr = divmod(num, Phi)
        dq, dr = divmod(den, Phi)
        if dr.is_zero():
            if nr.is_zero():
                num, den = nq, dq  # common factor Phi_n: cancel and retry
                continue
            raise PoleError(f"pole at xi_{n}")
        a = Cyclotomic._from_ints(n, *nr._reduced())
        b = Cyclotomic._from_ints(n, *dr._reduced())
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

    key = ("Q",)
    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def from_fraction(c: Union[int, Fraction]) -> Fraction:
        return _fr(c)

    @staticmethod
    def lincomb(pairs: list) -> dict:
        """The scaled-sum kernel: {key: sum of c * terms[key]} over a list of
        (c, terms) pairs, each c a rational or a value of the field and each
        terms a dict of nonzero values; zero sums are dropped and every value
        is canonical.  Over Q a product is an integer numerator over L, the
        lcm of the denominators so far, and each output is one
        Fraction(sum, L)."""
        if len(pairs) == 1 and pairs[0][0] == 1:  # nothing to multiply or add
            return dict(pairs[0][1])
        acc, den = {}, 1
        get = acc.get
        for c, terms in pairs:
            if not c:
                continue
            cn, cd = c.numerator, c.denominator
            for key, a in terms.items():
                d = cd * a.denominator
                if den % d:  # L grows: rescale the sums so far
                    s = lcm(den, d) // den
                    den *= s
                    for k in acc:
                        acc[k] *= s
                acc[key] = get(key, 0) + cn * a.numerator * (den // d)
        return {key: Fraction(v, den) for key, v in acc.items() if v}

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
    """Q(xi_n) with Cyclotomic values, interned by ``cyclotomic_field``.

    The tag carries the constants of the field: ``phi`` = phi(n), the
    ``modulus`` Phi_n, the integer ``rows`` z^j mod Phi_n for
    phi <= j <= max(2*phi - 2, n - 1), enough to fold a product of two
    reduced elements, or any vector already wrapped by z^n = 1, and the
    ``powers`` xi^k for 0 <= k < n.
    """

    def __init__(self, order: int):
        self.order = order
        self.key = ("Qxi", order)
        self.name = f"Q(xi_{order})"
        self.phi = phi = euler_phi(order)
        self.modulus = cyclotomic_poly(order)
        # Phi_n is monic with integer coefficients, so every row is integral
        base = [-c for c in self.modulus._reduced()[0][:phi]]  # z^phi = -(Phi_n - z^phi)
        rows = []
        row = base
        for _ in range(max(phi - 1, order - phi)):
            rows.append(tuple(row))
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [x + top * b for x, b in zip(row, base)]
        self.rows = tuple(rows)
        # not Cyclotomic.constant: it reads this tag, which is not interned yet
        units = [(0,) * k + (1,) + (0,) * (phi - 1 - k) for k in range(phi)]
        self.powers = tuple(Cyclotomic(order, num, 1)
                            for num in units + rows[:order - phi])
        self.zero = Cyclotomic(order, (0,) * phi, 1)
        self.one = self.powers[0]

    def from_fraction(self, c: Union[int, Fraction]) -> Cyclotomic:
        return Cyclotomic.constant(self.order, c)

    def lincomb(self, pairs: list) -> dict:
        """The scaled-sum kernel (see ``RationalField.lincomb``) over
        Q(xi_n): a product is an integer vector over L.  A rational c scales
        the phi coordinates; any other c convolves them into 2*phi - 1, and
        each output is folded mod Phi_n once.  When phi > 2 the convolutions
        are packed (``_packed_lincomb``); at phi <= 2 a convolution has at
        most 3 terms and packing costs more than it saves."""
        if len(pairs) == 1 and pairs[0][0] == 1:  # nothing to multiply or add
            return dict(pairs[0][1])
        phi = self.phi
        if phi > 2 and any(isinstance(c, Cyclotomic) and any(c.num[1:]) for c, _ in pairs):
            return self._packed_lincomb(pairs)
        acc, den, pad = {}, 1, []
        get = acc.get
        for c, terms in pairs:
            if not c:
                continue
            cn, cd = _coords(c)
            rational = not any(cn[1:])
            if not rational and not pad:  # the sums grow to 2*phi - 1 coordinates
                pad = [0] * (phi - 1)
                for row in acc.values():
                    row += pad
            for key, a in terms.items():
                d = cd * a.den
                if den % d:  # L grows: rescale the sums so far
                    s = lcm(den, d) // den
                    den *= s
                    for row in acc.values():
                        row[:] = [x * s for x in row]
                f, row = den // d, get(key)
                if rational:
                    f *= cn[0]
                    if row is None:
                        acc[key] = [x * f for x in a.num] + pad
                    else:
                        row[:phi] = [r + x * f for r, x in zip(row, a.num)]
                    continue
                if row is None:
                    row = acc[key] = [0] * (2 * phi - 1)
                for i, x in enumerate(cn):
                    if x:
                        x *= f
                        row[i:i + phi] = [r + x * y for r, y in zip(row[i:i + phi], a.num)]
        return {key: v for key, row in acc.items()
                if (v := Cyclotomic._from_ints(self.order, row, den))}

    def _packed_lincomb(self, pairs: list) -> dict:
        """``lincomb`` with every vector Kronecker-packed at one width that
        holds each unfolded sum, so that a convolution is one multiply.  The
        width bounds the final sums, so L is taken over all pairs first
        rather than grown as in the list path."""
        scaled = [(*_coords(c), terms) for c, terms in pairs if c]
        den = lcm(*(cd * lcm(*{a.den for a in terms.values()}) for _, cd, terms in scaled))
        # a digit of a sum is at most sum |c's coordinates| * L/cd * max |a_j|
        width = _width(sum(
            sum(map(abs, cn)) * (den // cd)
            * max(map(abs, chain.from_iterable(a.num for a in terms.values())), default=0)
            for cn, cd, terms in scaled))
        acc: dict = {}
        get = acc.get
        for cn, cd, terms in scaled:
            packed, scale = _pack(cn, width), den // cd
            for key, a in terms.items():
                acc[key] = get(key, 0) + _pack(a.num, width) * packed * (scale // a.den)
        return {key: v for key, p in acc.items()
                if (v := Cyclotomic._from_ints(self.order, _unpack(p, width), den))}

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

    key = ("Qrho",)
    name = "Q(rho)"

    zero = RatFunc.constant(0)
    one = RatFunc.constant(1)

    @staticmethod
    def from_fraction(c: Union[int, Fraction]) -> RatFunc:
        return RatFunc.constant(c)

    @staticmethod
    def lincomb(pairs: list) -> dict:
        """The scaled-sum kernel (see ``RationalField.lincomb``) over Q(rho):
        the packed values are added one product at a time, and c = 1 or
        c = -1 multiplies nothing."""
        out: dict = {}
        for c, terms in pairs:
            if type(c) is not RatFunc and (c == 1 or c == -1):
                items = terms.items() if c == 1 else ((k, -a) for k, a in terms.items())
            elif c:
                items = ((k, a * c) for k, a in terms.items())
            else:
                continue
            if out:
                _accumulate(out, items)
            else:  # one dict's keys are distinct and its products nonzero
                out.update(items)
        return out

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


@lru_cache(maxsize=None)
def cyclotomic_field(n: int) -> CyclotomicFieldTag:
    """The one tag of Q(xi_n): ``field is other.field`` compares fields, so
    this table interns rather than memoizes, and nothing ever empties it."""
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
        try:
            return RhoSpec.rational(Fraction(text))
        except ZeroDivisionError:
            raise ValueError(f"rho {text!r} has a zero denominator") from None

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
            return ("q", self.value.numerator, self.value.denominator)
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
            return self.field.powers[k % self.order]
        if self.kind == "rational":
            if k < 0 and self.value == 0:
                raise ZeroDivisionError("negative power of rho = 0")
            return self.value ** k
        if k >= 0:
            return RatFunc.from_poly(UniPoly.x_pow(k))
        return RatFunc.make(_UP_ONE, UniPoly.x_pow(-k))

    def one_minus_rho_pow(self, k: int):
        return self.field.one - self.rho_pow(k)

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


RHO_GENERIC = RhoSpec.generic()
RHO_ZERO = RhoSpec.rational(0)

"""Polynomials and rational functions in rho over Q, packed.

A rho-polynomial (``UniPoly``, and so both halves of a ``RatFunc``) is one
packed Python int over an integer denominator, the Kronecker substitution
rho -> 2^B; its arithmetic is big-int arithmetic, and its coefficient vector
is unpacked only where text, a hash, division or a specialization needs it
(see ``UniPoly``).  This module alone knows that format; ``_pack``,
``_unpack`` and ``_width`` also serve the Q(xi_n) kernel in ``exactnum``,
which re-exports what other modules use from here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

RHO_SYMBOL = "ρ"  # the indeterminate of Q(rho) in canonical text


class FieldMismatchError(TypeError):
    """Raised when values of two different coefficient fields are combined."""


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
# univariate polynomials over Q, packed


def _width(bound: int) -> int:
    """The packing width for an integer polynomial whose coefficients'
    absolute values sum to at most ``bound``: the least multiple of 64 above
    bound's bit length, so that every coefficient is below 2^(B-1)."""
    return (bound.bit_length() // 64 + 1) * 64


def _reduce(cs: list[int], den: int) -> tuple[list[int], int]:
    """cs / den with the common content of cs and den removed."""
    if den != 1:
        g = gcd(den, *cs)
        if g != 1:
            return [c // g for c in cs], den // g
    return cs, den


def _pack(cs, width: int) -> int:
    """sum cs[i] * 2^(i*width); each |cs[i]| < 2^(width-1)."""
    p = 0
    for c in reversed(cs):
        p = (p << width) + c
    return p


def _unpack(p: int, width: int) -> list[int]:
    """The signed base-2^width digits of p, lowest first: the inverse of
    ``_pack``.  Adding 2^(width-1) to every digit makes them all
    nonnegative, so they can be cut out of the bytes of one int."""
    if not p:
        return []
    n = p.bit_length() // width + 1  # a nonzero top digit sets the length
    k = width // 8
    half = 1 << (width - 1)
    u = p + int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")
    raw = u.to_bytes(n * k, "little")
    return [int.from_bytes(raw[i:i + k], "little") - half for i in range(0, n * k, k)]


class UniPoly:
    """Dense univariate polynomial over Q, packed by the Kronecker
    substitution rho -> 2^B (von zur Gathen & Gerhard, *Modern Computer
    Algebra*, 8.4).

    The value is P(rho) / ``_den`` for an integer polynomial P stored as the
    one int ``_p = P(2^B)`` with signed digits, a positive integer ``_den``,
    the width ``_B`` (a multiple of 64) and ``_N``, an upper bound on the sum
    of P's |coefficients|.  ``_N < 2^(B-1)`` holds for every value, so each
    coefficient is one digit and the packing is injective: zero is
    ``_p == 0``, and two values of one width and one denominator are equal
    exactly when their ints are.

    A product or a rational scale is one big-int multiply and a sum one
    big-int add (after one rescale when the denominators differ); the
    content gcd(den, P) is left unreduced.  A constant's int is the same at
    every width, so it meets a value of any width directly.  When a result's
    bound would reach 2^(B-1), the kernel first tightens both operands
    (content reduced, bound made exact); when two nonconstant operands then
    differ in width or the bound still does not fit, it works on copies
    packed at one width wide enough for the result.  Tightening is done in
    place: it changes neither the value nor the width and only shrinks the
    stored ints, and a cached operand would otherwise be tightened again at
    every use.  A wider packing is always a copy, so shared constants and
    cached values keep the width they were made with.  The coefficient
    vector is unpacked, with its content reduced, only where it is read:
    text, ``coefficient``, ``hash``, ``evaluate``, division (``divmod``,
    ``gcd``, ``xgcd``, ``monic``) and the callers that hand it to
    ``Cyclotomic``.  Values are immutable (only their stored form is
    tightened) and hashable.
    """

    __slots__ = ("_p", "_den", "_B", "_N")

    def __init__(self, p: int, den: int, width: int, bound: int):
        # assumes bound >= sum |digits of p| and bound < 2^(width - 1), den > 0;
        # use the constructors below
        self._p = p
        self._den = den
        self._B = width
        self._N = bound

    @staticmethod
    def _from_vec(cs: list[int], den: int) -> "UniPoly":
        """cs / den for an integer coefficient vector (lowest power first)."""
        if den == 0:
            raise ZeroDivisionError("polynomial with zero denominator")
        if den < 0:
            cs, den = [-c for c in cs], -den
        if not any(cs):
            return _UP_ZERO
        cs, den = _reduce(cs, den)
        bound = sum(map(abs, cs))
        width = _width(bound)
        return UniPoly(_pack(cs, width), den, width, bound)

    def _reduced(self) -> tuple[list[int], int]:
        """The coefficient vector (no trailing zeros) and denominator with
        their common content removed: the canonical form."""
        return _reduce(_unpack(self._p, self._B), self._den)

    def _tighten(self) -> None:
        """Reduce the content and make the bound exact, in place and at the
        same width.  This changes neither the value nor the width and only
        shrinks the stored ints, so a shared or cached value may be
        tightened: it is done once per value, not at every later use."""
        cs, den = self._reduced()
        self._p, self._den, self._N = _pack(cs, self._B), den, sum(map(abs, cs))

    def _at(self, width: int) -> "UniPoly":
        """The same value packed at ``width``, which must hold its bound."""
        if width == self._B:
            return self
        return UniPoly(_pack(_unpack(self._p, self._B), width), self._den, width, self._N)

    @staticmethod
    def from_ints(coeffs, den: int = 1) -> "UniPoly":
        return UniPoly._from_vec(list(coeffs), den)

    @staticmethod
    def from_fractions(coeffs) -> "UniPoly":
        coeffs = [_fr(c) for c in coeffs]
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        return UniPoly._from_vec([int(c * den) for c in coeffs], den)

    @staticmethod
    def constant(c: Union[int, Fraction]) -> "UniPoly":
        return UniPoly.x_pow(0, c)

    @staticmethod
    def x_pow(e: int, c: Union[int, Fraction] = 1) -> "UniPoly":
        c = _fr(c)
        if not c:
            return _UP_ZERO
        bound = abs(c.numerator)
        width = _width(bound)
        return UniPoly(c.numerator << (e * width), c.denominator, width, bound)

    # -- queries

    def is_zero(self) -> bool:
        return not self._p

    def __bool__(self) -> bool:
        return self._p != 0

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return self._p.bit_length() // self._B if self._p else -1

    def coefficient(self, i: int) -> Fraction:
        cs, den = self._reduced()
        if 0 <= i < len(cs):
            return Fraction(cs[i], den)
        return Fraction(0)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        cs, den = self._reduced()
        return tuple(Fraction(c, den) for c in cs)

    def leading(self) -> Fraction:
        return self.coefficient(self.degree)

    def is_constant(self) -> bool:
        return self._p.bit_length() < self._B

    def evaluate(self, x: Union[int, Fraction]) -> Fraction:
        # integer Horner on sum c_i p^i q^(d-i), for x = p/q
        cs, den = self._reduced()
        if not cs:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc, qk = 0, 1
        for c in reversed(cs):
            acc = acc * p + c * qk
            qk *= q
        return Fraction(acc, den * qk // q)

    # -- arithmetic

    def __add__(self, other):
        other = _as_unipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return _up_add(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(-self._p, self._den, self._B, self._N)

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
        of the unpacked integer vectors (von zur Gathen & Gerhard, *Modern
        Computer Algebra*): the divisor's lead is scaled into the remainder
        only at a step whose top coefficient it does not divide."""
        other = _as_unipoly(other)
        if other is NotImplemented:
            return NotImplemented
        div, div_den = other._reduced()
        if not div:
            raise ZeroDivisionError("polynomial division by zero")
        dd = len(div) - 1
        lead = div[-1]
        rem, own_den = self._reduced()
        nq = len(rem) - dd
        if nq <= 0:
            return _UP_ZERO, self
        q = [0] * nq
        scale = 1  # scale * own numerator == div * q + rem throughout
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
        den = scale * own_den
        return (UniPoly._from_vec([x * div_den for x in q], den),
                UniPoly._from_vec(rem, den))

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
        cs, _ = self._reduced()
        return UniPoly._from_vec(cs, cs[-1])

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
        cs, den = r0._reduced()  # 1 / lead == den / cs[-1]
        return r0.monic(), _up_scale(s0, den, cs[-1]), _up_scale(t0, den, cs[-1])

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
        width = _shared_width(self, other)
        if width:  # equal exactly when the difference's digits, below 2^width, are 0
            da, db = self._den, other._den
            if da == db:
                if (self._N + other._N).bit_length() <= width:
                    return self._p == other._p
            elif (self._N * db + other._N * da).bit_length() <= width:
                return self._p * db == other._p * da
        return self._reduced() == other._reduced()

    def __hash__(self):
        cs, den = self._reduced()
        return hash((tuple(cs), den))

    def __repr__(self):
        return f"UniPoly({self.to_text()})"

    # -- text (descending powers, canonical)

    def to_text(self, symbol: str = RHO_SYMBOL) -> str:
        cs, den = self._reduced()
        terms = []
        for i in range(len(cs) - 1, -1, -1):
            if not cs[i]:
                continue
            mag = Fraction(abs(cs[i]), den)
            if i == 0:
                body = str(mag)
            else:
                xs = symbol if i == 1 else f"{symbol}^{i}"
                body = xs if mag == 1 else f"{mag}*{xs}"
            terms.append((cs[i] < 0, body))
        return signed_join(terms)

    @staticmethod
    def parse(text: str, symbol: str = RHO_SYMBOL) -> "UniPoly":
        terms = _split_signed_terms(text)
        acc = _UP_ZERO
        for sign, tok in terms:
            coeff, power = _parse_power_term(tok, symbol)
            acc = acc + UniPoly.x_pow(power, sign * coeff)
        return acc


# The packed kernels.  Each takes its fast path when its operands share a
# width (see ``_shared_width``) and the result's bound fits it; otherwise it
# runs again on what ``_refit`` returns, now on the fast path.


def _shared_width(a: UniPoly, b: UniPoly) -> int:
    """A width at which both packed ints read as they are: the common width,
    or the other operand's when one is a constant, whose int is the same at
    every width that holds it (the caller's bound check makes sure it does);
    0 when neither holds."""
    if a._B == b._B or b._p.bit_length() < b._B:
        return a._B
    if a._p.bit_length() < a._B:
        return b._B
    return 0


def _refit(a: UniPoly, b: UniPoly, bound) -> tuple[UniPoly, UniPoly]:
    """a and b at one width that holds ``bound(a, b)``, the result's bound
    from their bounds and denominators; both are tightened first when the
    wider of their widths does not hold it.  A wider packing is a copy."""
    width = max(a._B, b._B)
    if bound(a, b).bit_length() >= width:
        a._tighten()
        b._tighten()
        width = max(width, _width(bound(a, b)))
    return a._at(width), b._at(width)


def _add_bound(a: UniPoly, b: UniPoly) -> int:
    den = lcm(a._den, b._den)
    return a._N * (den // a._den) + b._N * (den // b._den)


def _mul_bound(a: UniPoly, b: UniPoly) -> int:
    return a._N * b._N


def _up_add(a: UniPoly, b: UniPoly, sign: int) -> UniPoly:
    """a + sign * b."""
    width = a._B if a._B == b._B else _shared_width(a, b)
    if width:
        da, db = a._den, b._den
        if da == db:
            bound = a._N + b._N
            if bound.bit_length() < width:
                p = a._p + b._p if sign > 0 else a._p - b._p
                return UniPoly(p, da, width, bound) if p else _UP_ZERO
        else:
            den = lcm(da, db)
            fa, fb = den // da, den // db
            bound = a._N * fa + b._N * fb
            if bound.bit_length() < width:
                p = a._p * fa + b._p * fb if sign > 0 else a._p * fa - b._p * fb
                return UniPoly(p, den, width, bound) if p else _UP_ZERO
    return _up_add(*_refit(a, b, _add_bound), sign)


def _up_mul(a: UniPoly, b: UniPoly) -> UniPoly:
    """a * b."""
    width = a._B if a._B == b._B else _shared_width(a, b)
    if width:
        bound = a._N * b._N
        if bound.bit_length() < width:
            return UniPoly(a._p * b._p, a._den * b._den, width, bound)
    return _up_mul(*_refit(a, b, _mul_bound))


def _up_scale(a: UniPoly, n: int, d: int) -> UniPoly:
    """a * (n / d) for integers n, d != 0."""
    if d < 0:
        n, d = -n, -d
    bound = a._N * abs(n)
    if bound.bit_length() < a._B:
        return UniPoly(a._p * n, a._den * d, a._B, bound)
    a._tighten()
    return _up_scale(a._at(max(a._B, _width(a._N * abs(n)))), n, d)


def _as_unipoly(x):
    if isinstance(x, UniPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return UniPoly.constant(x)
    if isinstance(x, RatFunc):
        raise FieldMismatchError("cannot mix UniPoly with other field values")
    return NotImplemented  # a Cyclotomic's reflected method raises the mismatch


_UP_ZERO = UniPoly(0, 1, 64, 0)
_UP_ONE = UniPoly(1, 1, 64, 1)
UNIPOLY_X = UniPoly(1 << 64, 1, 64, 1)


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
# rational functions


class RatFunc:
    """A rational function num/den over Q, gcd-reduced with monic denominator.

    Invariant: ``den`` is the shared ``_UP_ONE`` object if and only if the
    value is a polynomial, so ``den is _UP_ONE`` is the polynomial test, and
    a sum, product or rational scale of polynomials is one call of a packed
    UniPoly kernel.  Only ``make`` with a nonconstant denominator (a gcd),
    text and the specializations unpack coefficients.
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
        cs, lead_den = den._reduced()  # den's leading coefficient is cs[-1] / lead_den
        if cs[-1] != lead_den:
            num = _up_scale(num, lead_den, cs[-1])
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
        return self.num._p != 0

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
        return None  # a Cyclotomic's reflected method raises the mismatch

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
                n = o.numerator
                if not n:
                    return RatFunc(_UP_ZERO, _UP_ONE)
                return RatFunc(_up_scale(self.num, n, o.denominator), self.den)
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

"""Polynomials in rho over Q, packed, and the kernels of the fields on them.

A rho-polynomial (``UniPoly``, and so both halves of ``exactnum``'s
``RatFunc``) is one packed Python int over an integer denominator, the
Kronecker substitution rho -> 2^B; its arithmetic is big-int arithmetic,
and its coefficient vector is unpacked only where text, a hash, division or
a specialization needs it (see ``UniPoly``).  This module alone knows that
format.  ``exactnum`` builds Q(rho) and Q(xi_n) on the kernels here (a
Q(xi_n) value is a UniPoly of degree < phi(n), reduced mod Phi_n by
``_up_fold``) and re-exports what other modules use from here.
"""

from __future__ import annotations

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
    ``_pack``."""
    out = []
    mask, half = (1 << width) - 1, 1 << (width - 1)
    while p:
        d = p & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        p = (p - d) >> width
    return out


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
    cached values keep the width they were made with; ``_up_lincomb`` keeps
    an operand's copy at the width of the last wider sums it met in
    ``_wide`` (unset until then), so a cached value that many wide sums meet
    is repacked once, not once per sum.  The coefficient
    vector is unpacked, with its content reduced, only where it is read:
    text, ``coefficient``, ``hash``, ``evaluate``, division (``divmod``,
    ``gcd``, ``xgcd``, ``monic``) and ``_up_fold``.  Values are immutable
    (only their stored form is tightened) and hashable.
    """

    __slots__ = ("_p", "_den", "_B", "_N", "_wide")

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
        self._wide = None

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
        n = c.numerator  # an int is its own numerator, over 1
        if not n:
            return _UP_ZERO
        bound = abs(n)
        width = _width(bound)
        return UniPoly(n << (e * width), c.denominator, width, bound)

    # -- queries

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
        if r:
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> "UniPoly":
        if not self:
            return self
        cs, _ = self._reduced()
        return UniPoly._from_vec(cs, cs[-1])

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic() if a else a

    def xgcd(self, other: "UniPoly"):
        """Extended Euclid: returns (g, s, t) with s*self + t*other = g, g monic."""
        r0, r1 = self, other
        s0, s1 = _UP_ONE, _UP_ZERO
        t0, t1 = _UP_ZERO, _UP_ONE
        while r1:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if not r0:
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

    def to_text(self) -> str:
        cs, den = self._reduced()
        terms = []
        for i in range(len(cs) - 1, -1, -1):
            if not cs[i]:
                continue
            mag = Fraction(abs(cs[i]), den)
            if i == 0:
                body = str(mag)
            else:
                xs = RHO_SYMBOL if i == 1 else f"{RHO_SYMBOL}^{i}"
                body = xs if mag == 1 else f"{mag}*{xs}"
            terms.append((cs[i] < 0, body))
        return signed_join(terms)


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


# Reduction mod a monic integer polynomial M of degree d: the kernels of
# Q(xi_n) in ``exactnum``, with M = Phi_n.


def _up_fold(a: UniPoly, d: int, rows) -> UniPoly:
    """a mod M, a monic integer polynomial of degree d, with its content
    reduced; rows[j] is the integer vector of x^(d+j) mod M, and a's degree
    must be below d + len(rows)."""
    return _folded(a._p, a._B, a._den, d, rows)


def _folded(p: int, width: int, den: int, d: int, rows) -> UniPoly:
    """p / den, packed at width, folded as in ``_up_fold``.  The content g
    divides every digit, so a packed int divides by g exactly."""
    cs = _unpack(p, width)
    out = cs[:d]
    for c, row in zip(cs[d:], rows):
        if c:
            out = [x + c * r for x, r in zip(out, row)]
    g = gcd(den, *out)  # den itself when every digit is 0
    bound = sum(map(abs, out)) // g
    fit = _width(bound)
    if len(cs) > d or fit != width:  # folded, or narrower: pack the digits anew
        p, width = _pack(out, fit), fit
    return UniPoly(p // g, den // g, width, bound)


def _fit_sums(acc: dict, width: int, top: int, scale: int = 1) -> tuple[int, int]:
    """The exact bound of the packed sums in acc, read at width, and a width
    that holds (bound + top) * scale twice over (so that the next call is
    not one product away), to which the sums are repacked if it is wider."""
    bound = max((sum(map(abs, _unpack(p, width))) for p in acc.values()), default=0)
    need = 2 * (bound + top) * scale
    if need.bit_length() >= width:
        wide = _width(need)
        for k, p in acc.items():
            acc[k] = _pack(_unpack(p, width), wide)
        width = wide
    return bound, width


def _up_lincomb(pairs, d: int, rows) -> dict:
    """{key: sum of c * a mod M} over (c, items) pairs, for a UniPoly or a
    rational c and items (key, UniPoly a) with distinct keys, M as in
    ``_up_fold``; zero sums are dropped.  The packed products are added as
    ints over one denominator, which grows as new denominators appear, at
    one width.  When the sums' bound would reach it, the bound is first made
    exact, and only if that does not fit are the sums repacked wider (an
    operand of another width is then met through its ``_wide`` copy)."""
    acc: dict = {}
    get = acc.get
    den, width = 1, 64
    bound = 0  # on every sum: a key gets at most one product from each pair
    for c, items in pairs:
        top = 0  # the largest product bound of this pair
        if type(c) is UniPoly:
            cp, cd, cn, cw = c._p, c._den, c._N, c._B
        else:  # a rational, whose numerator reads the same at every width
            cp, cd, cn, cw = c.numerator, c.denominator, abs(c.numerator), 0
        for key, a in items:
            pd = cd * a._den
            if den % pd:  # the denominator grows: rescale the sums so far
                s = lcm(den, pd) // den
                if ((bound + top) * s).bit_length() >= width:
                    bound, width = _fit_sums(acc, width, top, s)
                den, bound, top = den * s, bound * s, top * s
                for k in acc:
                    acc[k] *= s
            f = den // pd
            nb = cn * a._N * f
            if nb > top:
                top = nb
                if (bound + top).bit_length() >= width:
                    bound, width = _fit_sums(acc, width, top)
            if cw and cw != width:  # the width holds both operands' bounds now
                cp, cw = c._at(width)._p, width
            if a._B != width:
                w = getattr(a, "_wide", None)
                if w is None or w._B != width:
                    w = a._wide = a._at(width)
                a = w
            acc[key] = get(key, 0) + cp * a._p * f
        bound += top
    return {key: v for key, p in acc.items() if (v := _folded(p, width, den, d, rows))}


def _as_unipoly(x):
    if isinstance(x, UniPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return UniPoly.constant(x)
    return NotImplemented  # the other field value's reflected method decides


_UP_ZERO = UniPoly(0, 1, 64, 0)
_UP_ONE = UniPoly(1, 1, 64, 1)

"""Exact coefficient arithmetic.

Three coefficient fields, all exact (no floating point anywhere):

* Q               -- stdlib ``fractions.Fraction``
* Q(xi_n)         -- ``Cyclotomic``: the cyclotomic field of order n, each
                     element a packed ``rhopoly.UniPoly`` reduced modulo the
                     n-th cyclotomic polynomial
* Q(rho)          -- ``RatFunc``: rational functions in one indeterminate rho,
                     num/den of packed ``rhopoly.UniPoly`` values

``RhoSpec`` names the rho being worked at and its field; every value at that
rho is computed in that field.  The specialization maps, which send a
rational function to its exact value (a limit, when the naive substitution
is 0/0) at rho = xi_n or at a rational point, are not on that route: they
are the tests' second route to a value at rho, and the tracer's targets.

Each field tag owns one scaled-sum kernel, ``lincomb``: the sum of c * terms
over (c, terms) pairs, normalized once per output key over Q (integers over
one denominator), Q(xi_n) (packed, folded once) and Q(rho) (packed
polynomial sums, one RatFunc each).  Each also owns the row kernel of the
B table in ``vertex``: ``row_sum`` sums scaled rows (``rhopoly.Row``) into
a row, and ``row_lincomb`` into canonical values.  Over Q and Q(xi_n) a
row is packed integers over one denominator with its content unreduced,
summed by rhopoly's ``_row_sum``; over Q(rho) it holds canonical values
and the row kernel is ``lincomb``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional, Union

from .rhopoly import (FieldMismatchError, Row, UniPoly, _fr, _row_lincomb, _row_sum, _UP_ONE,
                      _UP_ZERO, _up_add, _up_fold, _up_lincomb, _up_mul, _up_scale, signed_join)


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


class Cyclotomic:
    """An element of Q(xi_n): ``poly``, the rhopoly ``UniPoly`` of degree
    < phi(n) that represents it mod Phi_n, in the power basis 1, z, ...,
    z^(phi-1).

    That representative is unique, so truth, ``==``, ``hash`` and text are
    ``poly``'s.  Sums are rhopoly's packed sums; a product is one packed
    multiply, folded mod Phi_n (``_up_fold``) when its degree reaches phi;
    a product by an int or a Fraction is one rational scale of ``poly``.
    Immutable and hashable.
    """

    __slots__ = ("order", "poly")

    def __init__(self, order: int, poly: UniPoly):
        # assumes poly.degree < phi(order); use the constructors below
        self.order = order
        self.poly = poly

    @staticmethod
    def make(order: int, coords) -> "Cyclotomic":
        """sum_k coords[k] z^k for rational coordinates of any length."""
        return Cyclotomic(order, UniPoly.from_fractions(coords) % cyclotomic_field(order).modulus)

    @staticmethod
    def constant(order: int, c: Union[int, Fraction]) -> "Cyclotomic":
        return Cyclotomic(order, UniPoly.constant(c))

    def __bool__(self) -> bool:
        return bool(self.poly)

    def is_rational(self) -> bool:
        return self.poly.is_constant()

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.poly.coefficient(0)

    def _operand(self, other) -> Optional[UniPoly]:
        """The poly of a value of this field, or None for a foreign type."""
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise FieldMismatchError(
                    f"cyclotomic orders differ: {self.order} vs {other.order}")
            return other.poly
        if isinstance(other, (int, Fraction)):
            return UniPoly.constant(other)
        if isinstance(other, (UniPoly, RatFunc)):
            raise FieldMismatchError("cannot mix cyclotomic and rational-function values")
        return None

    # Sums and products go straight to rhopoly's kernels, so that an
    # instrumented ``__add__`` or ``__mul__`` counts only the calls callers make.

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.order, _up_add(self.poly, o, 1))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, -self.poly)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.order, _up_add(self.poly, o, -1))

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.order, _up_add(o, self.poly, -1))

    def __mul__(self, other):
        if type(other) is not Cyclotomic and isinstance(other, (int, Fraction)):
            # a rational scale keeps the degree below phi: nothing to fold
            n = other.numerator
            return Cyclotomic(self.order, _up_scale(self.poly, n, other.denominator)
                              if n else _UP_ZERO)
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p = _up_mul(self.poly, o)
        field = cyclotomic_field(self.order)
        if p.degree >= field.phi:
            p = _up_fold(p, field.phi, field.rows)
        return Cyclotomic(self.order, p)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """By extended Euclid against Phi_n, whose cofactor of a poly of
        degree < phi already has degree < phi."""
        if not self.poly:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        g, s, _ = self.poly.xgcd(cyclotomic_field(self.order).modulus)
        if g.degree != 0:
            raise ZeroDivisionError("element not invertible (unexpected)")
        return Cyclotomic(self.order, s)

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self * Cyclotomic(self.order, o).inverse()

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.order, o) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return Cyclotomic(self.order, self.poly ** e % cyclotomic_field(self.order).modulus)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.poly == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.order == other.order and self.poly == other.poly

    def __hash__(self):
        return hash((self.order, self.poly))

    def __repr__(self):
        return f"Cyclotomic({self.order}, {self.to_text()})"

    def to_text(self) -> str:
        terms = []
        for k, c in enumerate(self.poly.coefficients):
            if c:
                mag = abs(c)
                body = str(mag) if k == 0 else f"{mag}*{'z' if k == 1 else f'z^{k}'}"
                terms.append((c < 0, body))
        return signed_join(terms)


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
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            return RatFunc(_UP_ZERO, _UP_ONE)
        if den.degree > 0:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divexact(g)
                den = den.divexact(g)
        lead = den.leading()
        if lead != 1:
            num = _up_scale(num, lead.denominator, lead.numerator)
            den = den.monic()
        return RatFunc(num, _UP_ONE if den.degree == 0 else den)

    @staticmethod
    def from_poly(p: UniPoly) -> "RatFunc":
        return RatFunc(p, _UP_ONE)

    @staticmethod
    def constant(c: Union[int, Fraction]) -> "RatFunc":
        return RatFunc(UniPoly.constant(c), _UP_ONE)

    def __bool__(self) -> bool:
        return bool(self.num)

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
        if not o:
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
        if not self:
            return "0"
        if self.is_constant():
            return str(self.num.coefficient(0))
        if self.den is _UP_ONE:
            return f"({self.num.to_text()})"
        return f"({self.num.to_text()})/({self.den.to_text()})"


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
        if not dr:
            if not nr:
                num, den = nq, dq  # common factor Phi_n: cancel and retry
                continue
            raise PoleError(f"pole at xi_{n}")
        return Cyclotomic(n, nr) / Cyclotomic(n, dr)


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


def _rescale(acc: dict, den: int, d: int) -> int:
    """Grow the common denominator den of the integer sums in acc to
    lcm(den, d), rescaling them in place; return the new one."""
    s = lcm(den, d) // den
    for k in acc:
        acc[k] *= s
    return den * s


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
        terms a dict of nonzero values, with zero sums dropped, as canonical
        values of the field, one Fraction per key over Q.  A product is an
        integer numerator over L, the lcm of the denominators so far, and
        each sum becomes one Fraction at the end."""
        acc, den = {}, 1
        get = acc.get
        for c, terms in pairs:
            if not c:
                continue
            cn, cd = c.numerator, c.denominator
            for key, a in terms.items():
                d = cd * a.denominator
                if den % d:
                    den = _rescale(acc, den, d)
                acc[key] = get(key, 0) + cn * a.numerator * (den // d)
        return {key: Fraction(v, den) for key, v in acc.items() if v}

    row_one = Row(1, 0, 1, {(): 1})

    @staticmethod
    def row_sum(pairs: list) -> Row:
        """The row of the sum of c * row over (c, row, keys) pairs, each c
        a rational and keys None or the keys to file the row's values under
        (``rhopoly._row_sum``): integer numerators over one denominator."""
        return _row_sum(pairs, 1, ())

    @staticmethod
    def row_lincomb(pairs: list) -> dict:
        """``row_sum``'s sums as canonical values, one Fraction per key."""
        row = _row_sum(pairs, 1, ())
        return {key: Fraction(v, row.den) for key, v in row.terms.items()}

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

    def __repr__(self):
        return "QQ"


class CyclotomicFieldTag:
    """Q(xi_n) with Cyclotomic values, interned by ``cyclotomic_field``.

    The tag carries the constants of the field: ``phi`` = phi(n), the
    ``modulus`` Phi_n, the integer ``rows`` z^j mod Phi_n for
    phi <= j <= max(2*phi - 2, n - 1), enough to fold a product of two
    reduced elements, and the ``powers`` xi^k for 0 <= k < n.
    """

    def __init__(self, order: int):
        self.order = order
        self.key = ("Qxi", order)
        self.name = f"Q(xi_{order})"
        self.phi = phi = euler_phi(order)
        self.modulus = cyclotomic_poly(order)
        # Phi_n is monic with integer coefficients, so every row is integral
        base = [-int(c) for c in self.modulus.coefficients[:phi]]  # z^phi = -(Phi_n - z^phi)
        rows = []
        row = base
        for _ in range(max(phi - 1, order - phi)):
            rows.append(tuple(row))
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [x + top * b for x, b in zip(row, base)]
        self.rows = tuple(rows)
        # built directly: Cyclotomic.make reads this tag, which is not interned yet
        self.powers = tuple(Cyclotomic(order, p) for p in
                            [UniPoly.x_pow(k) for k in range(phi)]
                            + [UniPoly.from_ints(r) for r in rows[:order - phi]])
        self.zero = Cyclotomic.constant(order, 0)
        self.one = self.powers[0]

    def from_fraction(self, c: Union[int, Fraction]) -> Cyclotomic:
        return Cyclotomic.constant(self.order, c)

    def lincomb(self, pairs: list) -> dict:
        """The scaled-sum kernel (see ``RationalField.lincomb``) over
        Q(xi_n): rhopoly's ``_up_lincomb`` adds the packed products of the
        polys and folds each sum mod Phi_n, with its content reduced, once."""
        if len(pairs) == 1 and pairs[0][0] == 1:  # nothing to multiply or add
            return dict(pairs[0][1])
        sums = _up_lincomb(((c.poly if isinstance(c, Cyclotomic) else c,
                             ((key, a.poly) for key, a in terms.items()))
                            for c, terms in pairs if c), self.phi, self.rows)
        order = self.order
        return {key: Cyclotomic(order, v) for key, v in sums.items()}

    row_one = RationalField.row_one

    def _row_pairs(self, pairs):
        return ((c.poly if type(c) is Cyclotomic else c, row, keys) for c, row, keys in pairs)

    def row_sum(self, pairs: list) -> Row:
        """``RationalField.row_sum`` over Q(xi_n), each c a rational or a
        value of the field: packed integer polynomials over one
        denominator, folded mod Phi_n only when some c was not rational."""
        return _row_sum(self._row_pairs(pairs), self.phi, self.rows)

    def row_lincomb(self, pairs: list) -> dict:
        """``row_sum``'s sums as canonical values, each folded once."""
        order = self.order
        return {key: Cyclotomic(order, v) for key, v in
                _row_lincomb(self._row_pairs(pairs), self.phi, self.rows).items()}

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
        if v.is_rational() and v.rational_value() < 0:
            return -1, -v
        return 1, v

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
        """The scaled-sum kernel (see ``RationalField.lincomb``) over Q(rho).
        A product of a polynomial value by a polynomial or rational c is one
        packed UniPoly multiply (none when c = 1 or c = -1), added into its
        key's UniPoly sum, and each sum becomes one RatFunc at the end, its
        content left unreduced.  The rare products with a denominator are
        added to those outputs at the end by RatFunc's ``+``, which reduces."""
        if len(pairs) == 1 and pairs[0][0] == 1:  # nothing to multiply or add
            return dict(pairs[0][1])
        sums: dict = {}
        rest = []  # (key, product) for the products with a denominator
        get = sums.get
        for c, terms in pairs:
            if not c:
                continue
            sign = 1
            if type(c) is RatFunc:
                cp = c.num if c.den is _UP_ONE else None  # None: products with a denominator
            elif c == 1 or c == -1:
                cp, sign = _UP_ONE, int(c)
            else:
                cp = UniPoly.constant(c)
            for key, a in terms.items():
                if cp is None or a.den is not _UP_ONE:
                    rest.append((key, a * c))
                    continue
                p = a.num if cp is _UP_ONE else _up_mul(a.num, cp)
                cur = get(key)
                sums[key] = (p if sign > 0 else -p) if cur is None else _up_add(cur, p, sign)
        return _accumulate({key: RatFunc(p, _UP_ONE) for key, p in sums.items() if p}, rest)

    row_one = Row(1, 0, 0, {(): one})

    @staticmethod
    def row_sum(pairs: list) -> Row:
        """``RationalField.row_sum`` over Q(rho), whose rows hold canonical
        values over den 1: one ``lincomb``."""
        return Row(1, 0, 0, GenericField.lincomb(
            [(c, row.terms if keys is None else dict(zip(keys, row.terms.values())))
             for c, row, keys in pairs]))

    @staticmethod
    def row_lincomb(pairs: list) -> dict:
        return GenericField.lincomb([(c, row.terms) for c, row, _ in pairs])

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


class Frozen:
    """Base of hlvir's immutable records.  A subclass names its fields in
    ``__slots__`` and sets each one once, in ``__init__``, with
    ``object.__setattr__``; any later assignment or deletion raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class RhoSpec(Frozen):
    """Which rho we are working at: a rational value, a primitive root of
    unity xi_n, or the generic indeterminate.  Two specs are equal, and hash
    equal, when their ``key``s are."""

    __slots__ = ("kind", "value", "order", "key")

    def __init__(self, kind: str, value: Optional[Fraction] = None,
                 order: Optional[int] = None):
        # kind is "generic", "rational" or "root"; use the constructors below
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "order", order)
        # the key of every table entry at this rho, read on each lookup
        if kind == "generic":
            key = ("g",)
        elif kind == "rational":
            key = ("q", value.numerator, value.denominator)
        else:
            key = ("x", order)
        object.__setattr__(self, "key", key)

    def __eq__(self, other):
        return self.key == other.key if isinstance(other, RhoSpec) else NotImplemented

    def __hash__(self):
        return hash(self.key)

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
        """'generic', 'xi:<n>' or a rational such as 0, -1, 1/2."""
        text = text.strip()
        if text == "generic":
            return RhoSpec.generic()
        root = text.startswith("xi:")
        try:
            value = int(text[3:]) if root else Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"rho {text!r} has a zero denominator") from None
        except ValueError:
            raise ValueError(f"rho {text!r} is not 'generic', 'xi:<n>' or a rational"
                             " such as 0, -1, 1/2") from None
        return RhoSpec.root(value) if root else RhoSpec.rational(value)

    @property
    def field(self):
        if self.kind == "generic":
            return GENERIC
        if self.kind == "rational":
            return QQ
        return cyclotomic_field(self.order)

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

    def to_text(self) -> str:
        if self.kind == "generic":
            return "generic"
        if self.kind == "rational":
            return str(self.value)
        return f"xi:{self.order}"


RHO_GENERIC = RhoSpec.generic()
RHO_ZERO = RhoSpec.rational(0)

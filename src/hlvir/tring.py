"""The graded polynomial ring Q_F[t_1, t_2, ...] with deg t_r = r, plus
linear operators on it (a finite term list and a grading sum
sum_k k t_k d_{k+shift}) and the deformed power-sum inner product.  A
product of polynomials is one call of the field's scaled-sum kernel
(``lincomb`` in ``exactnum``); other sums add one term at a time.  An
operator acts in one pass over the monomials: each of its terms sends a
monomial to one monomial times an integer read off the exponents."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

from .exactnum import FieldMismatchError, Frozen, RhoSpec, _accumulate, signed_join

# A monomial is a tuple of (variable index, exponent) pairs, ascending index,
# all exponents positive; () is the unit monomial.
Mono = tuple[tuple[int, int], ...]

MONO_ONE: Mono = ()


class DegeneratePairingError(ArithmeticError):
    """The inner product's z-factor has a vanishing denominator 1 - rho^r."""


def mono_degree(m: Mono) -> int:
    return sum(v * e for v, e in m)


def mono_from_exponents(pairs: Iterable[tuple[int, int]]) -> Mono:
    out = [(v, e) for v, e in pairs if e]
    out.sort()
    for v, e in out:
        if v < 1 or e < 0:
            raise ValueError("monomial needs variable index >= 1 and exponent >= 0")
    return tuple(out)


def mono_mul_var(m: Mono, r: int) -> Mono:
    out = []
    placed = False
    for v, e in m:
        if v == r:
            out.append((v, e + 1))
            placed = True
        else:
            out.append((v, e))
    if not placed:
        out.append((r, 1))
        out.sort()
    return tuple(out)


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    """The product t^m1 * t^m2."""
    if not m1 or not m2:
        return m1 or m2
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _lower(m: Mono, i: int) -> Mono:
    """m with the exponent of its i-th variable lowered by 1."""
    v, e = m[i]
    return m[:i] + ((v, e - 1),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]


def mono_text(m: Mono) -> str:
    if not m:
        return ""
    return "*".join(f"t{v}" if e == 1 else f"t{v}^{e}" for v, e in m)


def _sort_key(m: Mono, width: int):
    evec = [0] * width
    for v, e in m:
        evec[v - 1] = -e
    return (mono_degree(m), tuple(evec))


def _embed(field, c):
    """c as a value of field; an int or a Fraction is embedded."""
    return field.from_fraction(c) if isinstance(c, (int, Fraction)) else c


class Sparse:
    """A finite linear combination of keys over a coefficient field:
    ``terms`` maps each key to its nonzero coefficient.  Immutable by
    convention; only values of the same subclass combine.  A subclass gives
    its keys' order, text and JSON through the ``_key_*`` hooks."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms: dict):
        self.field = field
        self.terms = terms

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def from_terms(cls, field, items: Iterable[tuple[object, object]]):
        return cls(field, _accumulate({}, ((k, c) for k, c in items if c)))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check(self, other):
        if self.field is not other.field:
            raise FieldMismatchError(
                f"{type(self).__name__} values over different fields:"
                f" {self.field.name} vs {other.field.name}")

    # -- additive structure

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        return type(self)(self.field, _accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return type(self)(self.field, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        """Multiply by a scalar of the coefficient field or a rational, which
        every field's values multiply by as it is."""
        if not c:
            return type(self)(self.field, {})
        # a product of nonzero field values is nonzero
        return type(self)(self.field, {k: a * c for k, a in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.field is other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field.key, frozenset(self.terms.items())))

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()})"

    # -- canonical form

    def canonical_items(self) -> list[tuple[object, object]]:
        order = self._key_order()
        return sorted(self.terms.items(), key=lambda kv: order(kv[0]))

    def to_text(self) -> str:
        field = self.field
        terms = []
        for k, c in self.canonical_items():
            sign, mag = field.split_sign(c)
            terms.append((sign < 0, self._term_text(field.factor_text(mag), k)))
        return signed_join(terms)

    def to_json(self) -> list:
        return [{self._JSON_KEY: self._key_to_json(k), "coeff": self.field.value_text(c)}
                for k, c in self.canonical_items()]


class TPoly(Sparse):
    """Sparse polynomial in t_1, t_2, ... over a coefficient field: the keys
    are monomials."""

    __slots__ = ()

    # named here so that each has an entry in TPoly.__dict__: the benchmark's
    # tracer (perfbench/tracer.py) patches them there, and QCombination's
    # calls stay out of its TPoly counts
    __add__ = Sparse.__add__
    __neg__ = Sparse.__neg__
    __sub__ = Sparse.__sub__
    scale = Sparse.scale

    # -- constructors

    @staticmethod
    def one(field) -> "TPoly":
        return TPoly(field, {MONO_ONE: field.one})

    @staticmethod
    def var(field, r: int, c=None) -> "TPoly":
        if r < 1:
            raise ValueError("variable index must be >= 1")
        c = field.one if c is None else _embed(field, c)
        if not c:
            return TPoly(field, {})
        return TPoly(field, {((r, 1),): c})

    # -- queries

    def degree(self) -> int:
        """Total degree (deg t_r = r); -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def max_var(self) -> int:
        """Largest variable index appearing; 0 if none."""
        out = 0
        for m in self.terms:
            if m and m[-1][0] > out:
                out = m[-1][0]
        return out

    # -- multiplication

    def __mul__(self, other) -> "TPoly":
        if not isinstance(other, TPoly):
            return self.scale(other)
        self._check(other)
        if not self.terms or not other.terms:
            return TPoly(self.field, {})
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        return TPoly(self.field, self.field.lincomb(
            [(c1, {mono_mul(m1, m2): c2 for m2, c2 in b.items()}) for m1, c1 in a.items()]))

    def __rmul__(self, other) -> "TPoly":
        return self.scale(other)

    def mul_var(self, r: int, c) -> "TPoly":
        """Multiply by c t_r: cheaper than full product."""
        if not self.terms:
            return self
        if not c:
            return TPoly(self.field, {})
        return TPoly(self.field, {mono_mul_var(m, r): a * c for m, a in self.terms.items()})

    def diff(self, r: int) -> "TPoly":
        """Partial derivative with respect to t_r."""
        # distinct monomials containing t_r lower to distinct monomials
        out = {}
        for m, a in self.terms.items():
            for i, (v, e) in enumerate(m):
                if v == r:
                    out[_lower(m, i)] = a if e == 1 else a * e
                    break
        return TPoly(self.field, out)

    # -- key hooks: terms sorted by degree, then by exponent vector (read
    # from t_1 upward) descending lexicographically

    def _key_order(self):
        width = self.max_var()
        return lambda m: _sort_key(m, width)

    @staticmethod
    def _term_text(factor: str, m: Mono) -> str:
        return f"{factor}*{mono_text(m)}" if m else factor

    _JSON_KEY = "monomial"

    @staticmethod
    def _key_to_json(m: Mono) -> dict:
        return {str(v): e for v, e in m}


# ---------------------------------------------------------------------------
# linear operators as data


class OpTerm(Frozen):
    """coeff times a product of at most two factors, applied right to left.

    Factors are ("mul", a) for multiplication by t_a or ("der", a) for
    d/dt_a, so the term sends t^mu to one monomial times coeff times the
    exponents its d_a lower.  The coefficient may be a Fraction, which
    multiplies a value of the working field as it is, or a value of that
    field.
    """

    __slots__ = ("coeff", "factors")

    def __init__(self, coeff, factors: tuple[tuple[str, int], ...]):
        for kind, a in factors:
            if kind not in ("mul", "der"):
                raise ValueError(f"unknown factor kind {kind!r}")
            if a < 1:
                raise ValueError("factor index must be >= 1")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "factors", factors)


class LinOperator(Frozen):
    """A finite list of explicit terms plus, when ``shift`` is set, the
    grading sum

        sum_{k >= max(1, 1 - shift)}^{f.max_var() - shift} k t_k d_{k+shift}

    without the k that are multiples of ``skip`` (when set).  ``apply``
    visits, for each monomial t^mu of the polynomial, only the variables
    t_v in mu: k t_k d_v with k = v - shift >= 1 sends t^mu to k e_v
    t^mu t_k / t_v, and every other k sends it to 0."""

    __slots__ = ("finite", "shift", "skip")

    def __init__(self, finite: tuple[OpTerm, ...] = (), shift: Optional[int] = None,
                 skip: Optional[int] = None):
        object.__setattr__(self, "finite", finite)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "skip", skip)


def _images(op: LinOperator, f: TPoly):
    """The (monomial, value) images of f's terms a t^mu under op's terms:
    each term sends a t^mu to one monomial times a * coeff * the exponents
    its d_x lower, one product of a value of f's field and a rational."""
    # an integral Fraction becomes an int, so that a multiplier of 1
    # scales nothing
    terms = [(c.numerator if type(c) is Fraction and c.denominator == 1 else c,
              t.factors[::-1]) for t in op.finite if (c := t.coeff)]
    shift, skip = op.shift, op.skip
    for mu, a in f.terms.items():
        for r, factors in terms:
            m = mu
            for kind, x in factors:
                if kind == "mul":
                    m = mono_mul_var(m, x)
                    continue
                for i, (v, e) in enumerate(m):
                    if v == x:
                        r, m = r * e, _lower(m, i)
                        break
                else:  # d_x meets no t_x: the term sends t^mu to 0
                    break
            else:
                yield m, a if r == 1 else a * r
        if shift is not None:
            for i, (v, e) in enumerate(mu):
                k = v - shift  # k t_k d_v sends t^mu to k e t^mu t_k / t_v
                if k >= 1 and (skip is None or k % skip):
                    yield (mu if not shift else mono_mul_var(_lower(mu, i), k),
                           a if k * e == 1 else a * (k * e))


def apply(op: LinOperator, f: TPoly) -> TPoly:
    """Apply a linear operator to a polynomial in one pass over f's
    monomials."""
    if op.shift is None and len(op.finite) == 1:
        # one term maps distinct monomials to distinct monomials
        return TPoly(f.field, dict(_images(op, f)))
    return TPoly(f.field, _accumulate({}, _images(op, f)))


def commutator_apply(a: LinOperator, b: LinOperator, f: TPoly) -> TPoly:
    """[a, b] f = a(b(f)) - b(a(f))."""
    return apply(a, apply(b, f)) - apply(b, apply(a, f))


# ---------------------------------------------------------------------------
# inner product


def _mono_z_factor(m: Mono, rho: RhoSpec):
    """z_lambda(rho) / (prod lambda_i)^2 for the partition encoded by m."""
    field = rho.field
    num = Fraction(1)
    for v, e in m:
        num *= Fraction(v) ** e * Fraction(math.factorial(e))
        num /= Fraction(v) ** (2 * e)
    val = field.from_fraction(num)
    for v, e in m:
        d = rho.one_minus_rho_pow(v)
        if not d:
            raise DegeneratePairingError(
                f"degenerate pairing: 1 - rho^{v} = 0 at rho = {rho.to_text()}")
        for _ in range(e):
            val = val / d
    return val


def inner_product(f: TPoly, g: TPoly, rho: RhoSpec):
    """<t_lambda, t_mu> = delta * z_lambda(rho) / (prod lambda_i)^2, extended
    bilinearly; raises DegeneratePairingError when some 1 - rho^r vanishes."""
    if f.field is not rho.field or g.field is not rho.field:
        raise FieldMismatchError("inner product needs both operands over rho's field")
    small, large = (f, g) if len(f.terms) <= len(g.terms) else (g, f)
    out = rho.field.zero
    for m, a in small.terms.items():
        b = large.terms.get(m)
        if b is None:
            continue
        out = out + a * b * _mono_z_factor(m, rho)
    return out

"""Scalar backends for series coefficients.

Three backends are supported throughout the package:

* :class:`GaussianRational` -- exact elements of Q(i), used for frames and
  exact dressing computations.
* Python ``complex`` -- the numeric backend used by the factorization solver.
* :class:`DiffPoly` -- a differential polynomial ring: Q(i)-linear
  combinations of monomials in derivative-indexed indeterminates, with a
  commuting family of derivations indexed by :class:`DerivationSymbol`.

All three coerce against plain ``int`` and :class:`fractions.Fraction`, so
matrix code can seed accumulators with ``0`` and identity entries with ``1``
without knowing the backend.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Mapping, NamedTuple

from .errors import ResourceExceeded

__all__ = [
    "GaussianRational",
    "I",
    "DerivationSymbol",
    "Indeterminate",
    "DiffPoly",
    "encode_scalar",
]


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

class GaussianRational:
    """An exact element ``re + i*im`` of Q(i), with ``i**2 == -1``.

    Stored as three integers ``(a, b, d)`` meaning ``(a + i*b) / d``, with
    ``d > 0`` and ``gcd(a, b, d) == 1``, so equal values have equal storage
    and each operation costs a few integer products and one ``gcd``.
    ``re`` and ``im`` are read-only :class:`~fractions.Fraction` views.

    Immutable and hashable (the private slots are, as in ``Fraction``, left
    alone by convention).  Arithmetic coerces ``int`` and ``Fraction``
    operands; everything else is left to the other operand's reflected
    methods (which is how :class:`DiffPoly` absorbs these values).
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        q, s = re.denominator, im.denominator
        d = q * s // gcd(q, s)
        # both parts are reduced, so (a, b, d) over their lcm is canonical
        self._a, self._b, self._d = re.numerator * (d // q), im.numerator * (d // s), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, int):
            return _qi(int(x), 0, 1)
        if isinstance(x, Fraction):
            return _qi(x.numerator, 0, x.denominator)
        return None

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            if type(other) is int:  # (a + o*d, b, d) stays canonical
                return _qi(self._a + other * self._d, self._b, self._d)
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _canonical(self._a + other._a, self._b + other._b, d)
        return _canonical(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + -self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _canonical(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __neg__(self):
        return _qi(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def inverse(self) -> "GaussianRational":
        # d / (a + ib) = d (a - ib) / (a^2 + b^2)
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _canonical(d * a, -d * b, n)

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

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return _qi(self._a, -self._b, self._d)

    # -- comparisons and conversions ----------------------------------------

    def __eq__(self, other):
        if type(other) is int:
            return self._b == 0 and self._d == 1 and self._a == other
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # Matches hash(Fraction) on the real axis so GR(2) == 2 hashes alike.
        if self._b == 0:
            return hash(self._a) if self._d == 1 else hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __complex__(self):
        # int / int rounds correctly, so a/d equals float(re) exactly
        return complex(self._a / self._d, self._b / self._d)

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    # -- JSON ----------------------------------------------------------------

    def to_obj(self):
        return [str(self.re), str(self.im)]

    @classmethod
    def from_obj(cls, obj) -> "GaussianRational":
        """Decode a ``[re, im]`` pair of rationals (``"p/q"`` strings or
        numbers); anything else raises ``ValueError`` naming the value."""
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise ValueError(f"a Q(i) scalar must be a [re, im] pair, not {obj!r}")
        try:
            return cls(*obj)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ValueError(f"bad Q(i) scalar {obj!r}: {exc}") from exc


def _qi(a: int, b: int, d: int) -> GaussianRational:
    """``(a + i*b) / d`` from an already canonical triple."""
    x = object.__new__(GaussianRational)
    x._a, x._b, x._d = a, b, d
    return x


def _canonical(a: int, b: int, d: int) -> GaussianRational:
    """``(a + i*b) / d`` for ``d > 0``, reduced to lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _qi(a, b, d)


#: The imaginary unit of Q(i).
I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# Derivation symbols and indeterminates
# ---------------------------------------------------------------------------

class DerivationSymbol(NamedTuple):
    """The derivation attached to the flow of degree ``m`` and frame index
    ``alpha``.  Symbols are totally ordered by ``(m, alpha)`` and commute
    pairwise as derivations."""

    m: int
    alpha: int

    def __str__(self):
        return f"d({self.m},{self.alpha})"

    def key(self) -> str:
        return f"{self.m},{self.alpha}"

    @classmethod
    def parse(cls, text: str) -> "DerivationSymbol":
        m, alpha = text.split(",")
        return cls(int(m), int(alpha))


class Indeterminate(NamedTuple):
    """A named generator carrying a derivative multi-index.

    ``derivs`` is a sorted tuple of ``(DerivationSymbol, count)`` pairs; the
    indeterminate represents the formal derivative of ``name`` by those
    symbols.  Each distinct multi-index is a first-class generator, so no
    rewriting beyond multi-index bookkeeping ever happens.
    """

    name: str
    derivs: tuple = ()

    def derived(self, sym: DerivationSymbol) -> "Indeterminate":
        d = dict(self.derivs)
        d[sym] = d.get(sym, 0) + 1
        return Indeterminate(self.name, tuple(sorted(d.items())))

    def __str__(self):
        if not self.derivs:
            return self.name
        parts = []
        for sym, c in self.derivs:
            parts.append(str(sym) if c == 1 else f"{sym}^{c}")
        return "".join(parts) + f"[{self.name}]"

    def to_obj(self):
        return [self.name, [[s.key(), c] for s, c in self.derivs]]

    @classmethod
    def from_obj(cls, obj) -> "Indeterminate":
        name, derivs = obj
        return cls(
            name,
            tuple(sorted((DerivationSymbol.parse(k), int(c)) for k, c in derivs)),
        )


# Monomials are sorted tuples of (Indeterminate, power) with power >= 1.
Monomial = tuple

_ONE_MONO: Monomial = ()

# The expanded-term cap for DiffPoly products (ResourceExceeded above it).
_TERM_CAP = 10**6


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two monomials: a merge of their sorted factor lists."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        (x, p), (y, q) = a[i], b[j]
        if x == y:
            out.append((x, p + q))
            i += 1
            j += 1
        elif x < y:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return (*out, *a[i:], *b[j:])


# ---------------------------------------------------------------------------
# Differential polynomials
# ---------------------------------------------------------------------------

class DiffPoly:
    """Element of the differential polynomial ring over Q(i).

    The canonical form is a mapping from monomials to nonzero
    :class:`GaussianRational` coefficients; two polynomials are equal iff the
    mappings are.  Every :class:`DerivationSymbol` acts as a derivation
    (Leibniz rule), and any two derivations commute on every element.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, GaussianRational] | None = None):
        cleaned = {}
        if terms:
            for mono, coef in terms.items():
                c = GaussianRational._coerce(coef)
                if c is None:
                    raise TypeError(f"bad coefficient {coef!r}")
                if c:
                    cleaned[mono] = c
        self._terms = cleaned

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "DiffPoly":
        return cls({_ONE_MONO: c})

    @classmethod
    def indeterminate(cls, name: str, *syms: DerivationSymbol) -> "DiffPoly":
        ind = Indeterminate(name)
        for s in syms:
            ind = ind.derived(s)
        return cls({((ind, 1),): GaussianRational(1)})

    @classmethod
    def zero(cls) -> "DiffPoly":
        return cls()

    @classmethod
    def one(cls) -> "DiffPoly":
        return cls.constant(1)

    # -- queries ---------------------------------------------------------------

    @property
    def terms(self):
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m == _ONE_MONO for m in self._terms)

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self._terms.get(_ONE_MONO, GaussianRational(0))

    # -- coercion ----------------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, DiffPoly):
            return x
        c = GaussianRational._coerce(x)
        if c is not None:
            return DiffPoly.constant(c)
        return None

    # -- ring structure -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _collected(o._terms.items(), dict(self._terms))

    __radd__ = __add__

    def __neg__(self):
        p = DiffPoly.__new__(DiffPoly)
        p._terms = {m: -c for m, c in self._terms.items()}
        return p

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(self._terms) * len(o._terms) > _TERM_CAP:
            raise ResourceExceeded(
                f"product would expand {len(self._terms)}x{len(o._terms)} terms"
            )
        p = _collected(
            (_mono_mul(m1, m2), c1 * c2)
            for m1, c1 in self._terms.items()
            for m2, c2 in o._terms.items()
        )
        if len(p._terms) > _TERM_CAP:
            raise ResourceExceeded(f"result has {len(p._terms)} terms")
        return p

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = DiffPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def inverse(self) -> "DiffPoly":
        """Reciprocal; defined only for nonzero constants (the units)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero polynomial")
        if not self.is_constant():
            raise ValueError("only constant polynomials are invertible")
        return DiffPoly.constant(self.constant_value().inverse())

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    # -- derivations ---------------------------------------------------------------

    def derive(self, sym: DerivationSymbol) -> "DiffPoly":
        """Apply the derivation ``sym`` (Leibniz rule on every monomial)."""
        return _collected(
            (_mono_mul(_mono_without(mono, idx), ((ind.derived(sym), 1),)), coef * power)
            for mono, coef in self._terms.items()
            for idx, (ind, power) in enumerate(mono)
        )

    # -- comparisons ---------------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    __hash__ = None

    def __bool__(self):
        return bool(self._terms)

    # -- display and JSON ------------------------------------------------------------

    def _sorted_terms(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for mono, coef in self._sorted_terms():
            factors = []
            for ind, power in mono:
                factors.append(str(ind) if power == 1 else f"{ind}^{power}")
            body = "*".join(factors)
            if not body:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(body)
            elif coef == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"({coef})*{body}")
        return " + ".join(parts)

    __repr__ = __str__

    def to_obj(self):
        terms = []
        for mono, coef in self._sorted_terms():
            factors = []
            for ind, power in mono:
                factors.extend([ind.to_obj()] * power)
            terms.append({"coef": coef.to_obj(), "mono": factors})
        return {"sum": terms}

    @classmethod
    def from_obj(cls, obj) -> "DiffPoly":
        return _collected(
            (
                tuple(sorted(Counter(map(Indeterminate.from_obj, term["mono"])).items())),
                GaussianRational.from_obj(term["coef"]),
            )
            for term in obj["sum"]
        )


def _collected(terms, out=None) -> DiffPoly:
    """The canonical polynomial of ``(monomial, coefficient)`` pairs: equal
    monomials merge and zero sums vanish.  ``out`` is a canonical term dict
    to accumulate onto, taken over by the result."""
    out = {} if out is None else out
    for mono, c in terms:
        s = out.get(mono)
        s = c if s is None else s + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    p = DiffPoly.__new__(DiffPoly)
    p._terms = out
    return p


def _mono_without(mono: Monomial, idx: int) -> Monomial:
    """``mono`` with one power of its ``idx``-th factor removed."""
    ind, power = mono[idx]
    lowered = ((ind, power - 1),) if power > 1 else ()
    return mono[:idx] + lowered + mono[idx + 1 :]


# ---------------------------------------------------------------------------
# Backend-generic scalar JSON encoding
# ---------------------------------------------------------------------------

def encode_scalar(x):
    """Encode a backend scalar for JSON: Q(i) as ["p/q","p/q"], complex as
    [re, im] floats, DiffPoly as its expression tree."""
    if isinstance(x, GaussianRational):
        return x.to_obj()
    if isinstance(x, DiffPoly):
        return x.to_obj()
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (int, float)):
        return [float(x), 0.0]
    if isinstance(x, Fraction):
        return GaussianRational(x).to_obj()
    raise TypeError(f"cannot encode scalar {x!r}")


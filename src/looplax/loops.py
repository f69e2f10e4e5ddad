"""Window-truncated matrix Laurent series over a scalar backend.

A :class:`LoopSeries` holds finitely many powers of the loop parameter ``z``,
each an ``n x n`` matrix whose entries come from one of the scalar backends
(exact Gaussian rationals, complex floats, or differential polynomials).

Truncation semantics
--------------------
Two infinite algebras share this one representation, distinguished by the
``direction`` tag:

* ``"z"`` -- loops with finitely many positive powers and an unbounded tail
  of negative ones.  A window ``[lo, hi]`` means: every power above ``hi`` is
  exactly zero, the powers in ``[lo, hi]`` are exactly the stored matrices,
  and powers below ``lo`` were truncated away and are unknown.
* ``"zinv"`` -- the mirror image: finitely many negative powers, unbounded
  upward.  Below ``lo`` exactly zero, above ``hi`` unknown.

A *total* series is a polynomial loop: exact at every power, zero outside
its window, and so a member of both algebras.  Projections onto a fully
known region (every cut-off) are total; products and sums of total series
stay total, and a total operand imposes no truncation on the other one.

Every operation computes the largest window on which its output is exactly
correct given the input windows, and raises :class:`WindowUnderflow` rather
than silently returning truncation garbage when a caller requests more.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from .errors import (
    NotStrictlyNegative,
    NotUnipotent,
    SingularLeading,
    WindowUnderflow,
)
from .scalars import encode_scalar

__all__ = [
    "Window",
    "Region",
    "LoopSeries",
    "exp_neg",
    "log_unip",
    "conjugate",
    "mat_add",
    "mat_sub",
    "mat_mul",
    "mat_smul",
    "mat_neg",
    "mat_eye",
    "mat_zeros",
    "mat_trace",
    "mat_inv",
    "row_reduce",
    "mat_is_zero",
    "mat_complex",
]


class Window(NamedTuple):
    """Inclusive power range ``[lo, hi]`` on which a series is exact."""

    lo: int
    hi: int

    @classmethod
    def make(cls, lo, hi) -> "Window":
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError(f"empty window [{lo},{hi}]")
        return cls(lo, hi)


class Region(enum.Enum):
    """The four projection regions.  GEQ0/LT0 and GT0/LEQ0 partition Z."""

    GEQ0 = ">=0"
    LT0 = "<0"
    GT0 = ">0"
    LEQ0 = "<=0"

    def contains(self, k: int) -> bool:
        if self is Region.GEQ0:
            return k >= 0
        if self is Region.LT0:
            return k < 0
        if self is Region.GT0:
            return k > 0
        return k <= 0

    @property
    def complement(self) -> "Region":
        return {
            Region.GEQ0: Region.LT0,
            Region.LT0: Region.GEQ0,
            Region.GT0: Region.LEQ0,
            Region.LEQ0: Region.GT0,
        }[self]


# ---------------------------------------------------------------------------
# Dense matrices over a generic scalar backend (tuples of tuples)
# ---------------------------------------------------------------------------

def mat_zeros(n: int):
    return tuple((0,) * n for _ in range(n))


def mat_eye(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def mat_smul(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a, b):
    n = len(a)
    cols = list(zip(*b))
    return tuple(
        tuple(sum(a[i][k] * cols[j][k] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_trace(a):
    t = 0
    for i in range(len(a)):
        t = t + a[i][i]
    return t


def mat_complex(a):
    return tuple(tuple(complex(x) for x in row) for row in a)


def mat_is_zero(a) -> bool:
    return all(not _nonzero(x) for row in a for x in row)


def _nonzero(x) -> bool:
    eq = x == 0
    if eq is NotImplemented:
        return True
    return not eq


def _unit_inverse(x):
    """The reciprocal of ``x`` over its backend; None for a non-unit."""
    if not _nonzero(x):
        return None
    try:
        if hasattr(x, "inverse"):
            return x.inverse()
        if isinstance(x, int):
            return Fraction(1, x)  # stay exact for integer entries
        return 1 / x
    except (ZeroDivisionError, ValueError):
        return None


def row_reduce(rows, ncols: int):
    """Gauss-Jordan elimination on the first ``ncols`` columns.

    Returns ``(rows, pivots)``: the reduced rows and the pivot columns, so
    the rank is ``len(pivots)``.  A pivot is any entry whose reciprocal
    exists over its backend (exact backends take the first one); for plain
    numbers the largest magnitude is chosen.
    """
    rows, pivots = [list(r) for r in rows], []
    for col in range(ncols):
        top = len(pivots)
        candidates = list(range(top, len(rows)))
        if all(isinstance(rows[r][col], (complex, float, int)) for r in candidates):
            candidates.sort(key=lambda r: -abs(rows[r][col]))
        for r in candidates:
            inv = _unit_inverse(rows[r][col])
            if inv is not None:
                break
        else:
            continue
        rows[top], rows[r] = rows[r], rows[top]
        rows[top] = [inv * x for x in rows[top]]
        for i in range(len(rows)):
            if i != top and _nonzero(rows[i][col]):
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[top])]
        pivots.append(col)
    return rows, pivots


def mat_inv(a):
    """Invert a matrix over any backend whose units expose reciprocals, by
    :func:`row_reduce` on ``[a | Id]``.  Raises ``ZeroDivisionError`` when
    no pivot can be found."""
    n = len(a)
    rows, pivots = row_reduce([list(row) + list(e) for row, e in zip(a, mat_eye(n))], n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is not invertible over its backend")
    return tuple(tuple(row[n:]) for row in rows)


def _freeze(mat):
    return tuple(tuple(row) for row in mat)


# ---------------------------------------------------------------------------
# LoopSeries
# ---------------------------------------------------------------------------

class LoopSeries:
    """A truncated matrix Laurent series.  Immutable by convention."""

    __slots__ = ("n", "window", "coeffs", "direction", "total")

    def __init__(
        self, n: int, coeffs: Mapping[int, tuple], window, direction="z", total=False
    ):
        if direction not in ("z", "zinv"):
            raise ValueError(f"bad direction {direction!r}")
        win = Window.make(*window)
        stored = {}
        for k, mat in coeffs.items():
            k = int(k)
            if not win.lo <= k <= win.hi:
                raise ValueError(f"power {k} outside window {win}")
            m = _freeze(mat)
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError(f"coefficient at power {k} is not {n}x{n}")
            if not mat_is_zero(m):
                stored[k] = m
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "window", win)
        object.__setattr__(self, "coeffs", stored)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "total", bool(total))

    def __setattr__(self, name, value):
        raise AttributeError("LoopSeries is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, n: int, window=(0, 0), direction: str = "z") -> "LoopSeries":
        return cls(n, {}, window, direction)

    @classmethod
    def identity(cls, n: int, window=(0, 0), direction: str = "z") -> "LoopSeries":
        win = Window.make(*window)
        if not win.lo <= 0 <= win.hi:
            win = Window.make(min(win.lo, 0), max(win.hi, 0))
        return cls(n, {0: mat_eye(n)}, win, direction)

    @classmethod
    def monomial(cls, mat, power: int, window=None, direction: str = "z") -> "LoopSeries":
        mat = _freeze(mat)
        if window is None:
            window = (power, power)
        return cls(len(mat), {power: mat}, window, direction)

    # -- basic queries -----------------------------------------------------------

    @property
    def lo(self) -> int:
        return self.window.lo

    @property
    def hi(self) -> int:
        return self.window.hi

    def support(self):
        return sorted(self.coeffs)

    def known(self, k: int) -> bool:
        """Is the coefficient of ``z**k`` determined by this truncation?"""
        if self.total:
            return True
        if self.direction == "z":
            return k >= self.lo
        return k <= self.hi

    def _check_known(self, lo: int, hi: int):
        """WindowUnderflow unless ``[lo, hi]`` lies in the exact range."""
        if not (self.known(lo) and self.known(hi)):
            raise WindowUnderflow(
                f"window [{lo},{hi}] not contained in the exact range of "
                f"{self.window} (direction {self.direction!r})"
            )

    def coeff(self, k: int):
        """The coefficient matrix of ``z**k``; WindowUnderflow if unknown."""
        if not self.known(k):
            raise WindowUnderflow(
                f"power {k} is outside the exact range of window {self.window} "
                f"(direction {self.direction!r})"
            )
        return self.coeffs.get(k, mat_zeros(self.n))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def numeric(self) -> bool:
        """Is the scalar backend complex floats?  The first stored coefficient
        decides; an empty series counts as exact."""
        for mat in self.coeffs.values():
            return any(isinstance(x, (complex, float)) for row in mat for x in row)
        return False

    def max_abs(self) -> float:
        """Largest entry magnitude over all stored coefficients (numeric)."""
        out = 0.0
        for mat in self.coeffs.values():
            for row in mat:
                for x in row:
                    out = max(out, abs(x))
        return out

    def is_traceless(self) -> bool:
        return all(not _nonzero(mat_trace(m)) for m in self.coeffs.values())

    def max_trace_abs(self) -> float:
        out = 0.0
        for m in self.coeffs.values():
            out = max(out, abs(mat_trace(m)))
        return out

    # -- window management ----------------------------------------------------------

    def restricted(self, lo: int, hi: int) -> "LoopSeries":
        """Restrict the exact range to ``[lo, hi]``.

        Raises :class:`WindowUnderflow` when a requested power is not
        determined, or when the restriction would silently discard known
        nonzero support (use :meth:`project` to drop content on purpose).
        """
        self._check_known(lo, hi)
        dropped = sorted(k for k in self.coeffs if not lo <= k <= hi)
        if dropped:
            raise WindowUnderflow(
                f"restriction to [{lo},{hi}] would discard known support at {dropped}"
            )
        return self._like(self.coeffs, (lo, hi))

    def truncated(self, lo: int, hi: int) -> "LoopSeries":
        """Deliberately forget content toward the unbounded direction.

        Unlike :meth:`restricted` this drops known coefficients: they become
        unknown in the result, which is the honest reading of a coarser
        truncation.  Content at the bounded end cannot be forgotten (that
        would change the represented element) and raises
        :class:`WindowUnderflow`.
        """
        self._check_known(lo, hi)
        bad = [k for k in self.coeffs if (k > hi if self.direction == "z" else k < lo)]
        if bad:
            raise WindowUnderflow(
                f"cannot forget bounded-end support at {sorted(bad)}"
            )
        kept = {k: m for k, m in self.coeffs.items() if lo <= k <= hi}
        return LoopSeries(self.n, kept, (lo, hi), self.direction)

    def as_total(self) -> "LoopSeries":
        """Assert that the series is a polynomial loop: every power outside
        the stored support is exactly zero.  Sound for cut-offs, trivial
        generators and other finitely supported, fully known loops."""
        return LoopSeries(self.n, self.coeffs, self.window, self.direction, True)

    def _hull(self):
        """(lo, hi) bounding the nonzero powers of a total series."""
        if not self.coeffs:
            return self.window
        return min(self.coeffs), max(self.coeffs)

    # -- linear structure ----------------------------------------------------------

    def _algebra(self, other: "LoopSeries") -> str:
        """The direction shared by ``self`` and ``other``: a total operand
        lives in either algebra."""
        if self.n != other.n:
            raise ValueError("matrix sizes differ")
        if self.direction == other.direction or other.total:
            return self.direction
        if self.total:
            return other.direction
        raise ValueError("directions differ and neither series is total")

    def _like(self, coeffs, window=None) -> "LoopSeries":
        """A series with this one's size, direction and totality."""
        window = self.window if window is None else window
        return LoopSeries(self.n, coeffs, window, self.direction, self.total)

    def __add__(self, other):
        if not isinstance(other, LoopSeries):
            return NotImplemented
        direction = self._algebra(other)
        lo, hi = zip(self.window, other.window)
        # a total operand is known at every power: only truncated operands
        # bound the sum toward the unbounded end
        cut = [s.window for s in (self, other) if not s.total]
        if direction == "z":
            win = (max((w.lo for w in cut), default=min(lo)), max(hi))
        else:
            win = (min(lo), min((w.hi for w in cut), default=max(hi)))
        out = dict(self.coeffs)
        for k, m in other.coeffs.items():
            out[k] = mat_add(out[k], m) if k in out else m
        out = {k: m for k, m in out.items() if win[0] <= k <= win[1]}
        return LoopSeries(self.n, out, win, direction, self.total and other.total)

    def __neg__(self):
        return self._like({k: mat_neg(m) for k, m in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, LoopSeries):
            return NotImplemented
        return self + (-other)

    def smul(self, c) -> "LoopSeries":
        return self._like({k: mat_smul(c, m) for k, m in self.coeffs.items()})

    def __rmul__(self, c):
        if isinstance(c, LoopSeries):
            return NotImplemented
        return self.smul(c)

    def shift(self, j: int) -> "LoopSeries":
        """Multiply by the central element ``z**j``."""
        return self._like({k + j: m for k, m in self.coeffs.items()}, (self.lo + j, self.hi + j))

    def reindexed(self) -> "LoopSeries":
        """The substitution ``z -> 1/z``: powers negate, direction flips."""
        return LoopSeries(
            self.n,
            {-k: m for k, m in self.coeffs.items()},
            (-self.hi, -self.lo),
            "zinv" if self.direction == "z" else "z",
            self.total,
        )

    def map_coeffs(self, f: Callable) -> "LoopSeries":
        """Apply ``f`` to every stored coefficient matrix (e.g. a constant
        conjugation or an entrywise derivation)."""
        return self._like({k: _freeze(f(m)) for k, m in self.coeffs.items()})

    # -- multiplication ----------------------------------------------------------------

    def mul(self, other: "LoopSeries", window=None) -> "LoopSeries":
        """Cauchy product, truncated to the largest exactly correct window.

        For direction "z" that window is
        ``[max(lo1+hi2, lo2+hi1), hi1+hi2]`` (mirrored for "zinv"): each
        factor's unknown tail can pollute the product below that point and
        nowhere above it.  A total factor has no unknown tail, so only the
        other factor's window, shifted by the total one's support, bounds
        the product; two total factors give a total product.  A
        caller-requested ``window`` outside this range raises
        :class:`WindowUnderflow`.
        """
        direction = self._algebra(other)
        if self.total and other.total:
            (lo1, hi1), (lo2, hi2) = self._hull(), other._hull()
            wlo, whi = lo1 + lo2, hi1 + hi2
        elif self.total or other.total:
            poly, series = (self, other) if self.total else (other, self)
            lo, hi = poly._hull()
            edge = hi if direction == "z" else lo
            wlo, whi = series.lo + edge, series.hi + edge
        elif direction == "z":
            wlo = max(self.lo + other.hi, other.lo + self.hi)
            whi = self.hi + other.hi
        else:
            whi = min(self.hi + other.lo, other.hi + self.lo)
            wlo = self.lo + other.lo
        out: dict = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                k = i + j
                if wlo <= k <= whi:
                    p = mat_mul(a, b)
                    out[k] = mat_add(out[k], p) if k in out else p
        result = LoopSeries(self.n, out, (wlo, whi), direction, self.total and other.total)
        if window is not None:
            result = result.restricted(*window)
        return result

    def __mul__(self, other):
        if isinstance(other, LoopSeries):
            return self.mul(other)
        return self.smul(other)

    def bracket(self, other: "LoopSeries", window=None) -> "LoopSeries":
        """The loop-algebra bracket ``XY - YX``."""
        return self.mul(other, window) - other.mul(self, window)

    # -- projections ---------------------------------------------------------------------

    def project(self, region: Region) -> "LoopSeries":
        """Keep exactly the powers inside ``region``.

        Outside the region the output vanishes by construction; inside it is
        exact wherever the input was.  The returned window records the
        largest contiguous range expressible under the direction's
        truncation semantics; the output is total when the input is known on
        the whole region.
        """
        kept = {k: m for k, m in self.coeffs.items() if region.contains(k)}
        z = self.direction == "z"
        # a region on the bounded side is fully known: its projection is total
        if region in (Region.GEQ0, Region.GT0):
            b = 0 if region is Region.GEQ0 else 1  # region = [b, inf)
            total = z and self.lo <= b
            if z:
                win = (self.lo, max(self.hi, b))
            elif self.hi < b:
                win = (b - 1, b - 1)
            else:
                win = (max(self.lo, b), self.hi)
        else:
            b = -1 if region is Region.LT0 else 0  # region = (-inf, b]
            total = not z and self.hi >= b
            if self.lo > b:
                win = (b + 1, b + 1) if z else (b, b)
            else:
                win = (self.lo, min(self.hi, b))
        return LoopSeries(self.n, kept, win, self.direction, self.total or total)

    # -- inversion and conjugation ----------------------------------------------------------

    def _leading(self):
        """(order, coefficient) at the bounded end of the grading."""
        if not self.coeffs:
            raise SingularLeading("cannot invert the zero series")
        h = max(self.coeffs) if self.direction == "z" else min(self.coeffs)
        return h, self.coeffs[h]

    def invert(self) -> "LoopSeries":
        """Group inverse by back-substitution on the grading.

        Requires the leading (bounded-end) coefficient to be invertible over
        the backend; raises :class:`SingularLeading` otherwise.  A series
        exact to depth ``d`` below its order ``h`` yields an inverse exact to
        depth ``d`` below order ``-h`` (mirrored for "zinv").
        """
        h, lead = self._leading()
        try:
            lead_inv = mat_inv(lead)
        except ZeroDivisionError as exc:
            raise SingularLeading(str(exc)) from exc
        # the inverse runs from -h toward the unbounded end, one step per
        # known power of the input: downward for "z", upward for "zinv"
        sg = -1 if self.direction == "z" else 1
        depth = h - self.lo if sg < 0 else self.hi - h
        out = {-h: lead_inv}
        for t in range(1, depth + 1):
            acc = mat_zeros(self.n)
            for s in range(1, t + 1):
                g = self.coeffs.get(h + sg * s)
                f = out.get(-h + sg * (t - s))
                if g is not None and f is not None:
                    acc = mat_add(acc, mat_mul(g, f))
            out[-h + sg * t] = mat_neg(mat_mul(lead_inv, acc))
        win = sorted((-h, -h + sg * depth))
        return LoopSeries(self.n, out, win, self.direction)

    def conjugate(self, y: "LoopSeries") -> "LoopSeries":
        """``g y g^{-1}`` for ``g = self``.  Callers supply sl_n-valued ``y``;
        conjugation then stays coefficient-wise traceless."""
        return self.mul(y).mul(self.invert())

    # -- comparisons --------------------------------------------------------------------------

    def equals(self, other: "LoopSeries") -> bool:
        """Coefficient-wise equality on the window intersection."""
        if self.n != other.n or self.direction != other.direction:
            return False
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        for k in set(self.coeffs) | set(other.coeffs):
            if lo <= k <= hi:
                a = self.coeffs.get(k, mat_zeros(self.n))
                b = other.coeffs.get(k, mat_zeros(self.n))
                if any(_nonzero(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)):
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, LoopSeries):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    def __repr__(self):
        body = ", ".join(f"z^{k}" for k in self.support())
        return (
            f"<LoopSeries n={self.n} window=[{self.lo},{self.hi}] "
            f"dir={self.direction} support=({body})>"
        )

    # -- JSON ------------------------------------------------------------------------------------

    def to_obj(self):
        return {
            "n": self.n,
            "window": [self.lo, self.hi],
            "direction": self.direction,
            "coeffs": {
                str(k): [[encode_scalar(x) for x in row] for row in m]
                for k, m in sorted(self.coeffs.items())
            },
        }

    @classmethod
    def from_obj(cls, obj, decode: Callable) -> "LoopSeries":
        coeffs = {
            int(k): tuple(tuple(decode(x) for x in row) for row in m)
            for k, m in obj["coeffs"].items()
        }
        return cls(obj["n"], coeffs, tuple(obj["window"]), obj.get("direction", "z"))


# ---------------------------------------------------------------------------
# Exponential and logarithm on the strictly graded parts
# ---------------------------------------------------------------------------

def _strict_step(x: LoopSeries, for_log: bool = False) -> int:
    """Slowest-decaying stored power of a strictly graded series."""
    if x.direction == "z":
        bad = [k for k in x.coeffs if k >= 0]
        step = max(x.coeffs) if x.coeffs else -1
    else:
        bad = [k for k in x.coeffs if k <= 0]
        step = min(x.coeffs) if x.coeffs else 1
    if bad:
        err = NotUnipotent if for_log else NotStrictlyNegative
        raise err(f"stored powers {sorted(bad)} violate the strict grading")
    return step


def _beyond(k: int, step: int, x: LoopSeries) -> bool:
    """Does the k-th power of the series fall entirely outside the window?"""
    if x.direction == "z":
        return k * step < x.lo
    return k * step > x.hi


def exp_neg(x: LoopSeries) -> LoopSeries:
    """Exponential of a strictly graded series: the exact finite sum
    ``sum_k x^k / k!`` within the window.

    ``x^k`` cannot reach depth ``w`` in fewer than ``w`` factors, so the sum
    terminates.  The output window is extended to include power 0 (the Id
    term).  Raises :class:`NotStrictlyNegative` on malformed input.
    """
    step = _strict_step(x)
    if x.direction == "z":
        win = (x.lo, max(x.hi, 0))
    else:
        win = (min(x.lo, 0), x.hi)
    out = LoopSeries.identity(x.n, win, x.direction)
    if x.is_zero():
        return out
    term = LoopSeries.identity(x.n, win, x.direction)
    k = 1
    while not _beyond(k, step, x):
        term = term.mul(x).smul(Fraction(1, k))
        out = out + term
        k += 1
    return out.restricted(*win)


def log_unip(g: LoopSeries) -> LoopSeries:
    """Logarithm of ``Id + y`` with ``y`` strictly graded; the inverse of
    :func:`exp_neg` on the window.  Raises :class:`NotUnipotent` when the
    constant term is not the identity."""
    n = g.n
    const = g.coeffs.get(0, mat_zeros(n))
    if any(_nonzero(const[i][j] - (1 if i == j else 0)) for i in range(n) for j in range(n)):
        raise NotUnipotent("constant term is not the identity")
    y = g - LoopSeries.identity(n, g.window, g.direction)
    step = _strict_step(y, for_log=True)
    if y.is_zero():
        return LoopSeries.zeros(n, g.window, g.direction)
    out = LoopSeries.zeros(n, g.window, g.direction)
    term = LoopSeries.identity(n, g.window, g.direction)
    k = 1
    while not _beyond(k, step, y):
        term = term.mul(y)
        out = out + term.smul(Fraction((-1) ** (k + 1), k))
        k += 1
    if y.direction == "z":
        win = (g.lo, -1) if g.lo <= -1 else g.window
    else:
        win = (1, g.hi) if g.hi >= 1 else g.window
    return out.restricted(*win)


def conjugate(g: LoopSeries, y: LoopSeries) -> LoopSeries:
    """Module-level alias for ``g.conjugate(y)``."""
    return g.conjugate(y)

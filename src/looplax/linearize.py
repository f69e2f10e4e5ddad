"""Formal oscillating matrices and the linearization of the combined
hierarchy.

An oscillating matrix is the formal product of a loop-series factor with the
flow exponential ``psi0 = exp(sum t_{m,a} E_a z^m)``.  The two factors are
never multiplied out; keeping them separate is what makes the module actions
well defined without convergence assumptions.  Elements at infinity carry a
z-graded factor, elements at zero a z^{-1}-graded one.

A *typed* element stores its factor in the factored form ``k(z) delta(l)``
with ``delta(l) = diag(z^{l_1}, ..., z^{l_n})`` commuting with the frame; on
typed elements the factor may legitimately be cancelled, which is what
:func:`extract_connection` exploits.
"""

from __future__ import annotations

import enum
import itertools
from typing import Mapping

from .errors import IndexOutOfRange, ShapeViolation, SideMismatch, WindowUnderflow
from .hierarchy import CommutativeFrame, _check_witness
from .loops import LoopSeries, Region
from .scalars import DerivationSymbol, DiffPoly

__all__ = [
    "Side",
    "FlowRecord",
    "ExponentVector",
    "OscillatingMatrix",
    "extract_connection",
]


class Side(enum.Enum):
    INFINITY = "infinity"  # z-graded factors
    ZERO = "zero"  # z^{-1}-graded factors

    @property
    def direction(self) -> str:
        return "z" if self is Side.INFINITY else "zinv"


class FlowRecord(Mapping):
    """Finite assignment of flow parameters ``(m, alpha) -> value``.

    Serves as the exponent record of the flow exponential; immutable."""

    __slots__ = ("_data",)

    def __init__(self, values=None):
        data = {}
        for key, v in dict(values or {}).items():
            if isinstance(key, str):
                key = DerivationSymbol.parse(key)
            m, alpha = key
            data[(int(m), int(alpha))] = v
        object.__setattr__(self, "_data", dict(sorted(data.items())))

    def __setattr__(self, name, value):
        raise AttributeError("FlowRecord is immutable")

    def __getitem__(self, key):
        return self._data[tuple(key)]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)

    def get(self, key, default=0.0):
        return self._data.get(tuple(key), default)

    def support(self):
        return list(self._data)

    def with_value(self, m: int, alpha: int, value) -> "FlowRecord":
        d = dict(self._data)
        d[(int(m), int(alpha))] = value
        return FlowRecord(d)

    def __eq__(self, other):
        if isinstance(other, FlowRecord):
            return self._data == other._data
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"t[{m},{a}]={v}" for (m, a), v in self._data.items())
        return f"FlowRecord({inner})"

    def to_obj(self):
        return {f"{m},{a}": _num_obj(v) for (m, a), v in self._data.items()}

    @classmethod
    def from_obj(cls, obj) -> "FlowRecord":
        return cls({k: _num_in(v) for k, v in obj.items()})


def _num_obj(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    return float(v)


def _num_in(v):
    if isinstance(v, list):
        return complex(v[0], v[1])
    return float(v)


class ExponentVector:
    """The integer vector ``l`` of the diagonal twist ``delta(l)``."""

    __slots__ = ("l",)

    def __init__(self, l):
        object.__setattr__(self, "l", tuple(int(x) for x in l))

    def __setattr__(self, name, value):
        raise AttributeError("ExponentVector is immutable")

    def __len__(self):
        return len(self.l)

    def __iter__(self):
        return iter(self.l)

    def __eq__(self, other):
        if isinstance(other, ExponentVector):
            return self.l == other.l
        return NotImplemented

    def __repr__(self):
        return f"ExponentVector{self.l}"

    def shifted(self, k: int) -> "ExponentVector":
        return ExponentVector(tuple(x + k for x in self.l))

    def is_constant(self) -> bool:
        return len(set(self.l)) <= 1

    def check_commutes(self, frame: CommutativeFrame) -> "ExponentVector":
        """Raise :class:`IndexOutOfRange` unless delta(l) commutes with the
        frame: l_i == l_j wherever some E_alpha has a nonzero (i, j) entry.
        Diagonal frames accept every l, unipotent and Schur frames only the
        constant vectors."""
        l = self.l
        if len(l) != frame.n:
            raise IndexOutOfRange(f"exponent vector {list(l)} does not fit an n={frame.n} frame")
        for alpha, e in enumerate(frame.basis, start=1):
            for i, j in itertools.product(range(frame.n), repeat=2):
                if l[i] != l[j] and e[i][j] != 0:
                    raise IndexOutOfRange(
                        f"exponent vector {list(l)} does not commute with this frame: "
                        f"E_{alpha} has a nonzero ({i + 1}, {j + 1}) entry but "
                        f"l_{i + 1} = {l[i]} != l_{j + 1} = {l[j]}"
                    )
        return self

    def commutes_with_frame(self, frame: CommutativeFrame) -> bool:
        """Does delta(l) commute with the frame (see :meth:`check_commutes`)?"""
        try:
            self.check_commutes(frame)
        except IndexOutOfRange:
            return False
        return True


class OscillatingMatrix:
    """A formal product ``{factor} psi0`` (or, typed, ``{factor delta(l)} psi0``).

    ``factor`` is the loop-series part g(z) (at infinity) or h(z) (at zero);
    typed elements store the group part k(z) as ``factor`` and the twist
    ``delta(l)`` separately as ``exponent``.  Equality is equality of
    factors, flow records, and exponents.
    """

    __slots__ = ("side", "factor", "flows", "exponent")

    def __init__(
        self,
        side: Side,
        factor: LoopSeries,
        flows: FlowRecord | None = None,
        exponent: ExponentVector | None = None,
    ):
        if factor.direction != side.direction:
            raise SideMismatch(
                f"factor direction {factor.direction!r} does not match side {side.value}"
            )
        if exponent is not None and len(exponent) != factor.n:
            raise ValueError("exponent vector length differs from matrix size")
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "flows", flows or FlowRecord())
        object.__setattr__(self, "exponent", exponent)

    def __setattr__(self, name, value):
        raise AttributeError("OscillatingMatrix is immutable")

    @classmethod
    def bare(cls, side: Side, n: int, flows=None, exponent=None, depth: int = 4) -> "OscillatingMatrix":
        if side is Side.INFINITY:
            factor = LoopSeries.identity(n, (-depth, 0))
        else:
            factor = LoopSeries.identity(n, (0, depth), direction="zinv")
        return cls(side, factor, flows, exponent)

    def is_typed(self) -> bool:
        """Typed means factored, with the group part in the correct group:
        unipotent lower (at infinity) or invertible constant plus positive
        tail (at zero)."""
        if self.exponent is None:
            return False
        try:
            _check_witness(self.factor, "g_neg" if self.side is Side.INFINITY else "g_geq")
        except (ShapeViolation, WindowUnderflow):
            return False
        return True

    # -- module actions -----------------------------------------------------

    def act(self, k: LoopSeries) -> "OscillatingMatrix":
        """Left action of a loop on the module: multiplies the factor."""
        if k.direction != self.side.direction:
            raise SideMismatch(
                f"operand lives in {k.direction!r}, element needs {self.side.direction!r}"
            )
        # the left factor multiplies k(z)first; delta(l) stays outside
        return OscillatingMatrix(self.side, k.mul(self.factor), self.flows, self.exponent)

    def right_frame(self, frame: CommutativeFrame, alpha: int) -> "OscillatingMatrix":
        """Right action of E_alpha (at infinity) or E_alpha z^{-1} (at zero).

        delta(l) commutes with the frame, so the action lands on the group
        part and typed elements keep their exponent."""
        if self.exponent is not None:
            self.exponent.check_commutes(frame)
        ev = _generator_view(frame, alpha, 0 if self.side is Side.INFINITY else -1, self.factor)
        return OscillatingMatrix(self.side, self.factor.mul(ev), self.flows, self.exponent)

    def derive(
        self,
        sym: DerivationSymbol,
        frame: CommutativeFrame,
        dfactor: LoopSeries | None = None,
    ) -> "OscillatingMatrix":
        """The flow derivative: factor becomes ``d(g) + g E_alpha z^m``.

        ``dfactor`` supplies the entrywise derivative of the factor; if
        omitted it is computed symbolically (zero for constant backends).
        The result is generally no longer typed, but the exponent is kept as
        part of the factored representation.
        """
        if not 1 <= sym.alpha <= frame.r:
            raise IndexOutOfRange(f"frame index {sym.alpha} not in [1..{frame.r}]")
        if dfactor is None:
            dfactor = _derive_series(self.factor, sym)
        moved = self.factor.mul(_generator_view(frame, sym.alpha, sym.m, self.factor))
        return OscillatingMatrix(self.side, dfactor + moved, self.flows, self.exponent)

    def __add__(self, other):
        if not isinstance(other, OscillatingMatrix):
            return NotImplemented
        if self.side is not other.side or self.flows != other.flows:
            raise SideMismatch("can only add oscillating matrices with equal side and flows")
        if self.exponent != other.exponent:
            raise SideMismatch("can only add oscillating matrices of equal exponent")
        return OscillatingMatrix(self.side, self.factor + other.factor, self.flows, self.exponent)

    def __eq__(self, other):
        if not isinstance(other, OscillatingMatrix):
            return NotImplemented
        return (
            self.side is other.side
            and self.flows == other.flows
            and self.exponent == other.exponent
            and self.factor.equals(other.factor)
        )

    __hash__ = None

    def __repr__(self):
        tag = f" delta{tuple(self.exponent)}" if self.exponent is not None else ""
        return f"<OscillatingMatrix {self.side.value}{tag} factor={self.factor!r}>"

    def to_obj(self):
        return {
            "side": self.side.value,
            "factor": self.factor.to_obj(),
            "flows": self.flows.to_obj(),
            "l": list(self.exponent) if self.exponent is not None else None,
        }


def _generator_view(frame: CommutativeFrame, alpha: int, power: int, k: LoopSeries):
    """``E_alpha z^power`` as a total series in the scalar backend and
    algebra of ``k``."""
    return frame.generator_series(alpha, power, k.direction, numeric=k.numeric).as_total()


def _derive_series(series: LoopSeries, sym: DerivationSymbol) -> LoopSeries:
    """Entrywise derivative; constants (numeric or rational) derive to zero."""

    def dmat(m):
        return tuple(
            tuple(x.derive(sym) if isinstance(x, DiffPoly) else 0 * x for x in row)
            for row in m
        )

    return series.map_coeffs(dmat)


def extract_connection(
    psi: OscillatingMatrix,
    m: int,
    alpha: int,
    frame: CommutativeFrame,
    dfactor: LoopSeries | None = None,
    tol: float = 0.0,
):
    """Recover the connection matrix ``M = d(k) k^{-1} + k E_alpha z^m k^{-1}``
    from a typed oscillating matrix, and test side membership.

    Returns ``(M, ok)``: ``ok`` holds iff the projection of M onto the
    forbidden region (negative powers at infinity with m >= 0, nonnegative
    powers at zero with m < 0) vanishes -- to ``tol`` for numeric factors.
    When ok, M equals the corresponding cut-off of the dressed generators.
    The twist delta(l) commutes with the frame, so it cancels and never
    enters M.
    """
    if psi.exponent is None:
        raise SideMismatch("connection extraction needs a typed (factored) element")
    psi.exponent.check_commutes(frame)
    if psi.side is Side.INFINITY and m < 0:
        raise IndexOutOfRange("infinity-side flows need m >= 0")
    if psi.side is Side.ZERO and m >= 0:
        raise IndexOutOfRange("zero-side flows need m < 0")
    sym = DerivationSymbol(m, alpha)
    k = psi.factor
    kinv = k.invert()
    if dfactor is None:
        dfactor = _derive_series(k, sym)
    ev = _generator_view(frame, alpha, m, k)
    m_series = dfactor.mul(kinv) + k.mul(ev).mul(kinv)
    leak = m_series.project(Region.LT0 if psi.side is Side.INFINITY else Region.GEQ0)
    ok = leak.is_zero() if tol == 0.0 else leak.max_abs() <= tol
    return m_series, ok

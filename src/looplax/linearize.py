"""The linearization: the data of the wave matrix ``psi = k delta(l) psi0``.

``psi0 = exp(sum t_{m,a} E_a z^m)`` is the flow exponential, recorded by its
flow parameters (:class:`FlowRecord`).  ``delta(l) = diag(z^{l_1}, ...,
z^{l_n})`` is the twist (:class:`ExponentVector`), which must commute with
the frame.  ``k`` is the group part: z-graded at infinity, z^{-1}-graded at
zero.  Along t_{m,a} the connection is

    d(psi) psi^{-1} = d(k) k^{-1} + k E_a z^m k^{-1},

since delta(l) commutes with E_a and cancels.  The second term is the
generator that :func:`~looplax.hierarchy.deform` dresses with k, shifted by
z^m, so :func:`extract_connection` reads the connection off the dressing
and the hierarchy's one splitting.  psi solves the linear system
``d(psi) = C psi`` with C the cut-off exactly when k solves the Lax
equations.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from .errors import IndexOutOfRange
from .hierarchy import CommutativeFrame, HierarchyKind, _split, deform
from .loops import LoopSeries
from .scalars import DerivationSymbol, DiffPoly

__all__ = ["FlowRecord", "ExponentVector", "extract_connection"]


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


def _derive_series(series: LoopSeries, sym: DerivationSymbol) -> LoopSeries:
    """Entrywise derivative; constants (numeric or rational) derive to zero."""

    def dmat(m):
        return tuple(
            tuple(x.derive(sym) if isinstance(x, DiffPoly) else 0 * x for x in row)
            for row in m
        )

    return series.map_coeffs(dmat)


def extract_connection(
    kind: HierarchyKind,
    frame: CommutativeFrame,
    k: LoopSeries,
    m: int,
    alpha: int,
    dfactor: LoopSeries | None = None,
    tol: float = 0.0,
):
    """The connection ``C = d(k) k^{-1} + k E_alpha z^m k^{-1}`` of
    ``psi = k delta(l) psi0`` along t_{m,alpha}, and whether it is the
    cut-off.

    ``k`` is z-graded for the u and v families and z^{-1}-graded for the
    combined kind's w family (negative flows).  A grading that does not
    match the family of flow ``m`` raises :class:`IndexOutOfRange`, and a
    ``k`` outside its kind's group raises :class:`ShapeViolation` through
    :func:`deform`.
    ``dfactor`` is the flow derivative of ``k``; by default it is derived
    symbolically (zero for constant backends).

    Returns ``(C, ok)``: ``ok`` holds iff C vanishes outside the cut-off's
    region, to ``tol`` for numeric ``k``.  Then C is the cut-off of the
    deformation dressed by ``k``.
    """
    d = deform(kind, frame, *((k, None) if k.direction == "z" else (None, k)), tol=tol)
    family, shift, region = _split(d, m)
    if (family == "w") != (k.direction == "zinv"):
        need = "z^{-1}" if family == "w" else "z"
        raise IndexOutOfRange(f"m = {m} of the {kind.value} kind needs a {need}-graded factor")
    if dfactor is None:
        dfactor = _derive_series(k, DerivationSymbol(m, alpha))
    conn = dfactor.mul(k.invert()) + d.target(family, alpha).shift(shift)
    leak = conn.project(region.complement)
    return conn, leak.is_zero() if tol == 0.0 else leak.max_abs() <= tol

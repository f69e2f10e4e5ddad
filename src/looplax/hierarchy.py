"""Frames, dressing deformations, cut-offs, and hierarchy residuals.

A commutative frame seeds three families of commuting flows.  Dressing the
frame generators with a group element on one side of a loop-algebra splitting
produces the deformed generators; the evolution laws tie flow derivatives to
brackets with projected ("cut-off") series.  This module evaluates those Lax
and zero-curvature residuals for the plain, strict, and combined hierarchies,
and performs the exact symbolic reduction that recovers the AKNS equations
for the sl2 diagonal frame.

Derivatives are *inputs* to residual operations, never hidden state: symbolic
callers pass the Lax right-hand sides (see :func:`lax_rhs` and
:func:`cutoff_lax_derivative`), numeric callers pass finite differences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DependentBasis,
    IndexOutOfRange,
    NotCommuting,
    NotTraceless,
    ShapeViolation,
    SingularLeading,
)
from .loops import (
    LoopSeries,
    Region,
    exp_neg,
    mat_add,
    mat_complex,
    mat_eye,
    mat_inv,
    mat_is_zero,
    mat_mul,
    mat_smul,
    mat_sub,
    mat_trace,
    mat_zeros,
    row_reduce,
)
from .scalars import DerivationSymbol, DiffPoly, GaussianRational, I

__all__ = [
    "HierarchyKind",
    "CommutativeFrame",
    "make_frame",
    "akns_frame",
    "Deformation",
    "deform",
    "cutoff",
    "corollary_part",
    "lax_rhs",
    "cutoff_lax_derivative",
    "corollary_lax_derivative",
    "lax_residual",
    "zc_residual",
    "corollary_residual",
    "AknsReport",
    "akns_reduce",
    "frame_conjugate",
    "zero_time_normalize",
]


class HierarchyKind(enum.Enum):
    STANDARD = "standard"
    STRICT = "strict"
    COMBINED = "combined"


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

def _to_gaussian(x) -> GaussianRational:
    g = GaussianRational._coerce(x)
    if g is None:
        raise TypeError(f"frame entries must be exact Q(i) values, got {x!r}")
    return g


class CommutativeFrame:
    """A basis of a commutative traceless matrix subalgebra over Q(i).

    Validated facts: all basis pairs commute exactly, every matrix is
    traceless, and the matrices are linearly independent.  Maximality is
    deliberately unchecked (no equation consumes it).
    """

    __slots__ = ("n", "basis")

    def __init__(self, n: int, basis):
        mats = []
        for b in basis:
            mats.append(tuple(tuple(_to_gaussian(x) for x in row) for row in b))
            if len(mats[-1]) != n or any(len(row) != n for row in mats[-1]):
                raise ValueError(f"basis matrix is not {n}x{n}")
        if not mats:
            raise ValueError("empty frame basis")
        for m in mats:
            if mat_trace(m) != GaussianRational(0):
                raise NotTraceless("frame basis matrix has nonzero trace")
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                c = mat_sub(mat_mul(mats[i], mats[j]), mat_mul(mats[j], mats[i]))
                if not mat_is_zero(c):
                    raise NotCommuting(f"basis elements {i + 1} and {j + 1} do not commute")
        if len(row_reduce([sum(m, ()) for m in mats], n * n)[1]) < len(mats):
            raise DependentBasis("frame basis matrices are linearly dependent")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", tuple(mats))

    def __setattr__(self, name, value):
        raise AttributeError("CommutativeFrame is immutable")

    @property
    def r(self) -> int:
        return len(self.basis)

    def generator(self, alpha: int):
        """The basis matrix ``E_alpha`` (1-based index)."""
        if not 1 <= alpha <= self.r:
            raise IndexOutOfRange(f"frame index {alpha} not in [1..{self.r}]")
        return self.basis[alpha - 1]

    def generator_series(
        self, alpha: int, power: int = 0, direction: str = "z", numeric: bool = False
    ) -> LoopSeries:
        mat = self.generator(alpha)
        if numeric:
            mat = mat_complex(mat)
        return LoopSeries.monomial(mat, power, direction=direction)

    def complex_basis(self):
        return [mat_complex(m) for m in self.basis]

    def __eq__(self, other):
        return (
            isinstance(other, CommutativeFrame)
            and self.n == other.n
            and self.basis == other.basis
        )

    __hash__ = None

    def to_obj(self):
        return {
            "n": self.n,
            "basis": [[[x.to_obj() for x in row] for row in m] for m in self.basis],
        }


def make_frame(kind: str, n: int, basis=None, scalars=None) -> CommutativeFrame:
    """Construct a commutative frame.

    kind "diagonal": the n-1 canonical traceless diagonal differences,
    optionally rescaled by ``scalars`` (exact Q(i) values).  kind
    "unipotent": powers of the upper shift matrix.  kind "custom": validate a
    user basis.
    """
    if kind == "custom":
        if basis is None:
            raise ValueError("custom frame needs an explicit basis")
        return CommutativeFrame(n, basis)
    if basis is not None:
        raise ValueError(f"basis only allowed with kind='custom', not {kind!r}")
    if kind == "diagonal":
        if scalars is None:
            scalars = [1] * (n - 1)
        if len(scalars) != n - 1:
            raise ValueError(f"need {n - 1} scalars for the diagonal frame")
        mats = []
        for k, c in enumerate(scalars):
            c = _to_gaussian(c)
            m = [[GaussianRational(0)] * n for _ in range(n)]
            m[k][k] = c
            m[k + 1][k + 1] = -c
            mats.append(m)
        return CommutativeFrame(n, mats)
    if kind == "unipotent":
        if scalars is not None:
            raise ValueError("unipotent frame takes no scalars")
        shift = tuple(
            tuple(1 if j == i + 1 else 0 for j in range(n)) for i in range(n)
        )
        mats, power = [], shift
        for _ in range(n - 1):
            mats.append(power)
            power = mat_mul(power, shift)
        return CommutativeFrame(n, mats)
    raise ValueError(f"unknown frame kind {kind!r}")


def akns_frame() -> CommutativeFrame:
    """The sl2 diagonal frame diag(-i, i) that seeds the AKNS system."""
    return make_frame("diagonal", 2, scalars=[GaussianRational(0, -1)])


# ---------------------------------------------------------------------------
# Deformations
# ---------------------------------------------------------------------------

def _mat_close(a, b, tol: float) -> bool:
    if tol == 0:
        return mat_is_zero(mat_sub(a, b))
    return all(abs(x - y) <= tol for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _frame_matrix_like(frame_mat, series: LoopSeries):
    """The frame matrix in the scalar backend of ``series``."""
    return mat_complex(frame_mat) if series.numeric else frame_mat


class Deformation:
    """A dressed family of generators together with its hierarchy kind.

    ``series`` holds the z-graded family (U for the plain and combined kinds,
    V for the strict kind); the combined kind additionally carries the
    z^{-1}-graded family ``series_w``.  Shapes are validated on construction
    (``tol`` relaxes the comparisons for numeric backends).
    """

    __slots__ = ("kind", "frame", "series", "series_w", "witness", "witness_w")

    def __init__(
        self,
        kind: HierarchyKind,
        frame: CommutativeFrame,
        series,
        series_w=None,
        witness: LoopSeries | None = None,
        witness_w: LoopSeries | None = None,
        tol: float = 0.0,
    ):
        series = tuple(series)
        if len(series) != frame.r:
            raise ShapeViolation(f"expected {frame.r} series, got {len(series)}")
        for alpha, s in enumerate(series, start=1):
            self._check_z_shape(kind, frame, alpha, s, tol)
        if kind is HierarchyKind.COMBINED:
            if series_w is None:
                raise ShapeViolation("combined deformation needs the W family too")
            series_w = tuple(series_w)
            if len(series_w) != frame.r:
                raise ShapeViolation(f"expected {frame.r} W series, got {len(series_w)}")
            for s in series_w:
                if s.direction != "zinv":
                    raise ShapeViolation("W series must live in the z^{-1}-graded algebra")
                if any(k < -1 for k in s.support()):
                    raise ShapeViolation("W series must have powers >= -1")
        elif series_w is not None:
            raise ShapeViolation(f"{kind.value} deformation carries no W family")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "series_w", series_w)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "witness_w", witness_w)

    @staticmethod
    def _check_z_shape(kind, frame, alpha, s: LoopSeries, tol: float):
        if s.direction != "z":
            raise ShapeViolation("deformed series must live in the z-graded algebra")
        if kind in (HierarchyKind.STANDARD, HierarchyKind.COMBINED):
            if any(k > 0 for k in s.support()):
                raise ShapeViolation("U series must have powers <= 0")
            e = _frame_matrix_like(frame.generator(alpha), s)
            if not _mat_close(s.coeff(0), e, tol):
                raise ShapeViolation(
                    f"U_{alpha} constant term differs from the frame generator"
                )
        else:  # strict
            if any(k > 1 for k in s.support()):
                raise ShapeViolation("V series must have powers <= 1")
            if mat_is_zero(s.coeff(1)):
                raise ShapeViolation("V series must have a nonzero z-coefficient")

    def __setattr__(self, name, value):
        raise AttributeError("Deformation is immutable")

    @property
    def r(self) -> int:
        return self.frame.r

    def default_family(self) -> str:
        return "v" if self.kind is HierarchyKind.STRICT else "u"

    def target(self, family: str, idx: int) -> LoopSeries:
        """The deformed generator of the requested family (1-based index)."""
        if not 1 <= idx <= self.r:
            raise IndexOutOfRange(f"index {idx} not in [1..{self.r}]")
        if family in ("u", "v"):
            if family == "v" and self.kind is not HierarchyKind.STRICT:
                raise IndexOutOfRange("V family only exists for the strict kind")
            if family == "u" and self.kind is HierarchyKind.STRICT:
                raise IndexOutOfRange("U family does not exist for the strict kind")
            return self.series[idx - 1]
        if family == "w":
            if self.kind is not HierarchyKind.COMBINED:
                raise IndexOutOfRange("W family only exists for the combined kind")
            return self.series_w[idx - 1]
        raise ValueError(f"unknown family {family!r}")

    @classmethod
    def trivial(cls, kind: HierarchyKind, frame: CommutativeFrame, depth: int = 4) -> "Deformation":
        """The undeformed generators; fixed by every flow.

        The windows are honest: the trivial generators vanish outside their
        single power, so declaring depth costs nothing.
        """
        return deform(kind, frame, depth=depth)


def _check_witness(witness: LoopSeries, group: str):
    """``g_neg``: Id plus a strictly negative tail; ``g_leq``: invertible
    constant plus a negative tail (both z-graded); ``g_geq``: invertible
    constant plus a positive tail (z^{-1}-graded)."""
    if group == "g_geq":
        shape = "z^{-1}-graded with powers >= 0"
        ok = witness.direction == "zinv" and all(k >= 0 for k in witness.support())
    else:
        shape = "z-graded with powers <= 0"
        ok = witness.direction == "z" and all(k <= 0 for k in witness.support())
    if not ok:
        raise ShapeViolation(f"witness must be {shape}")
    if group == "g_neg":
        if not _mat_close(witness.coeff(0), mat_eye(witness.n), 0.0):
            raise ShapeViolation("witness constant term must be the identity")
        return
    try:
        mat_inv(witness.coeff(0))
    except ZeroDivisionError as exc:
        raise ShapeViolation(f"witness constant term not invertible: {exc}") from exc


def _dressed(frame: CommutativeFrame, witness, power: int, window, direction: str = "z"):
    """The generators ``E_a z^power`` on ``window``, conjugated by
    ``witness`` (in its scalar backend) when one is given."""
    mats = [e if witness is None else _frame_matrix_like(e, witness) for e in frame.basis]
    series = [LoopSeries.monomial(e, power, window, direction) for e in mats]
    return series if witness is None else [witness.conjugate(e) for e in series]


def deform(
    kind: HierarchyKind,
    frame: CommutativeFrame,
    witness: LoopSeries | None = None,
    witness_w: LoopSeries | None = None,
    depth: int = 4,
    tol: float = 0.0,
) -> Deformation:
    """Dress the frame generators by conjugation with group witnesses.

    Standard: ``witness`` in the unipotent lower group gives U = g E g^{-1}.
    Strict: ``witness`` with invertible constant term gives V = g (Ez) g^{-1}.
    Combined: ``witness`` (may be None for the trivial U part) plus
    ``witness_w`` with invertible constant term and positive tail for
    W = x (E z^{-1}) x^{-1}.  Missing witnesses default to trivial parts,
    exact on ``depth`` powers.
    """
    if kind is HierarchyKind.STRICT:
        if witness is None:
            window = (1 - depth, 1)
        else:
            _check_witness(witness, "g_leq")
            window = (witness.lo + 1, 1)
        series = _dressed(frame, witness, 1, window)
        return Deformation(kind, frame, series, witness=witness, tol=tol)
    if kind not in (HierarchyKind.STANDARD, HierarchyKind.COMBINED):
        raise ValueError(f"unknown kind {kind!r}")
    if witness is None:
        window = (-depth, 0)
    else:
        _check_witness(witness, "g_neg")
        window = witness.window
    series = _dressed(frame, witness, 0, window)
    if kind is HierarchyKind.STANDARD:
        return Deformation(kind, frame, series, witness=witness, tol=tol)
    if witness_w is None:
        hi = depth
    else:
        _check_witness(witness_w, "g_geq")
        hi = witness_w.hi
    series_w = _dressed(frame, witness_w, -1, (-1, hi - 1), "zinv")
    return Deformation(
        kind, frame, series, series_w, witness=witness, witness_w=witness_w, tol=tol
    )


# ---------------------------------------------------------------------------
# Cut-offs and residuals
# ---------------------------------------------------------------------------

def _split(d: Deformation, m: int):
    """The splitting behind flow degree ``m``: ``(family, shift, region)``.

    The cut-off is the projection of ``target(family) z^shift`` onto
    ``region``, the corollary part minus its projection onto the
    complement.  Plain flows need m >= 0, strict ones m >= 1.
    """
    if d.kind is HierarchyKind.STRICT:
        if m < 1:
            raise IndexOutOfRange("strict hierarchy flows need m >= 1")
        return "v", m - 1, Region.GT0
    if m >= 0:
        return "u", m, Region.GEQ0
    if d.kind is HierarchyKind.STANDARD:
        raise IndexOutOfRange("plain hierarchy flows need m >= 0")
    return "w", m + 1, Region.LT0


def cutoff(d: Deformation, m: int, alpha: int) -> LoopSeries:
    """The projected dressed generator entering the Lax equations.

    Plain kind: the nonnegative part of ``U_alpha z^m`` (m >= 0).  Strict
    kind: the strictly positive part of ``V_alpha z^{m-1}`` (m >= 1).
    Combined kind: the plain cut-off for m >= 0 and the strictly negative
    part of ``W_alpha z^{m+1}`` (in the z^{-1}-graded algebra) for m < 0.
    The result is total (a polynomial loop, known at every power) whenever
    the dressed generator is known on the whole kept region.
    """
    family, shift, region = _split(d, m)
    return d.target(family, alpha).shift(shift).project(region)


def corollary_part(d: Deformation, m: int, alpha: int) -> LoopSeries:
    """The complementary part of the cut-off (A for the z-graded families,
    D for the strict family, and the mirrored part for combined negative
    flows).  A projection onto the truncated side, so not total."""
    family, shift, region = _split(d, m)
    return -(d.target(family, alpha).shift(shift).project(region.complement))


def lax_rhs(d: Deformation, m: int, alpha: int, family: str, idx: int) -> LoopSeries:
    """The Lax right-hand side [cutoff_{m,alpha}, target]; symbolic callers
    use it as the substituted value of the flow derivative."""
    return cutoff(d, m, alpha).bracket(d.target(family, idx))


def lax_residual(
    d: Deformation,
    m: int,
    alpha1: int,
    alpha2: int,
    derivative: LoopSeries,
    family: str | None = None,
    cutoff_series: LoopSeries | None = None,
) -> LoopSeries:
    """``derivative - [cutoff_{m,alpha1}, target_{alpha2}]``.

    ``derivative`` is the caller-supplied value of the flow derivative of the
    target (Lax-substituted for symbolic backends, finite differences for
    numeric ones).  ``family`` selects the target family for the combined
    kind ("u" or "w"); ``cutoff_series`` overrides the cut-off, e.g. for
    perturbation studies, and is read as a cut-off: a total series.
    """
    family = family or d.default_family()
    cut = cutoff(d, m, alpha1) if cutoff_series is None else cutoff_series.as_total()
    return derivative - cut.bracket(d.target(family, alpha2))


def cutoff_lax_derivative(
    d: Deformation, flow_m: int, flow_alpha: int, cut_m: int, cut_alpha: int
) -> LoopSeries:
    """The flow derivative of a cut-off under the Lax substitution.

    Derivations commute with projections and with multiplication by powers
    of z, so the derivative of the cut-off is the same projection applied to
    ``[cutoff_flow, target] z^{...}``.
    """
    family, shift, region = _split(d, cut_m)
    rhs = lax_rhs(d, flow_m, flow_alpha, family, cut_alpha)
    return rhs.shift(shift).project(region)


def corollary_lax_derivative(
    d: Deformation, flow_m: int, flow_alpha: int, part_m: int, part_alpha: int
) -> LoopSeries:
    """Flow derivative of a corollary part under the Lax substitution."""
    family, shift, region = _split(d, part_m)
    rhs = lax_rhs(d, flow_m, flow_alpha, family, part_alpha)
    return -(rhs.shift(shift).project(region.complement))


def zc_residual(
    d: Deformation,
    m1: int,
    alpha1: int,
    m2: int,
    alpha2: int,
    d1_of_c2: LoopSeries,
    d2_of_c1: LoopSeries,
) -> LoopSeries:
    """The zero-curvature residual
    ``d_1(C_2) - d_2(C_1) - [C_1, C_2]``
    with the kind-appropriate cut-offs; derivatives supplied by the caller.
    """
    return d1_of_c2 - d2_of_c1 - cutoff(d, m1, alpha1).bracket(cutoff(d, m2, alpha2))


def corollary_residual(
    d: Deformation,
    m1: int,
    alpha1: int,
    m2: int,
    alpha2: int,
    d1_of_a2: LoopSeries,
    d2_of_a1: LoopSeries,
) -> LoopSeries:
    """Zero-curvature residual of the complementary parts.

    For the combined kind only same-sign flow pairs are defined (the two
    sub-hierarchies each satisfy their own relations).
    """
    if d.kind is HierarchyKind.COMBINED and (m1 < 0) != (m2 < 0):
        raise IndexOutOfRange("corollary parts mix only same-sign flows")
    a1 = corollary_part(d, m1, alpha1)
    a2 = corollary_part(d, m2, alpha2)
    return d1_of_a2 - d2_of_a1 - a1.bracket(a2)


# ---------------------------------------------------------------------------
# Exact AKNS reduction (n = 2, diagonal frame)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AknsReport:
    """Exact symbolic facts recovered from the order-(2,1) zero-curvature
    relation of the sl2 diagonal hierarchy.

    ``q``/``r`` express the first-order deformation entries through the
    dressing parameters; ``u11``..``u22`` express the second-order entries
    through q, r and their x-derivative; the PDEs are stored as (lhs, rhs)
    pairs of differential polynomials in q and r.
    """

    q: DiffPoly
    r: DiffPoly
    u11: DiffPoly
    u12: DiffPoly
    u21: DiffPoly
    u22: DiffPoly
    pde_q: tuple
    pde_r: tuple

    def to_obj(self):
        return {
            "q": self.q.to_obj(),
            "r": self.r.to_obj(),
            "u11": self.u11.to_obj(),
            "u12": self.u12.to_obj(),
            "u21": self.u21.to_obj(),
            "u22": self.u22.to_obj(),
            "pde_q": {"lhs": self.pde_q[0].to_obj(), "rhs": self.pde_q[1].to_obj()},
            "pde_r": {"lhs": self.pde_r[0].to_obj(), "rhs": self.pde_r[1].to_obj()},
        }


def akns_reduce() -> AknsReport:
    """Derive the AKNS equations exactly.

    Builds the symbolic second-order dressing of diag(-i, i), eliminates the
    off-diagonal second-order entries through the z^1 component of the
    order-(2,1) zero-curvature relation (solving in entry order (1,2) then
    (2,1)), and returns the z^0 component as two scalar PDEs in q and r.
    """
    x = DerivationSymbol(1, 1)
    t = DerivationSymbol(2, 1)
    ii = DiffPoly.constant(I)
    half = Fraction(1, 2)

    # dressing stage: g = exp(X1 z^-1 + X2 z^-2) with traceless symbolic X_j
    a1, b1, g1 = (DiffPoly.indeterminate(s) for s in ("alpha1", "beta1", "gamma1"))
    a2, b2, g2 = (DiffPoly.indeterminate(s) for s in ("alpha2", "beta2", "gamma2"))
    xser = LoopSeries(
        2,
        {-1: ((-a1, b1), (g1, a1)), -2: ((-a2, b2), (g2, a2))},
        (-2, -1),
    )
    g = exp_neg(xser)
    e1 = LoopSeries.monomial(akns_frame().generator(1), 0, (-2, 0))
    u = g.conjugate(e1)
    q_dressed = u.coeff(-1)[0][1]  # 2i beta1
    r_dressed = u.coeff(-1)[1][0]  # -2i gamma1

    # reduction stage: free q, r with u11, u22 fixed by the dressing shape
    q = DiffPoly.indeterminate("q")
    r = DiffPoly.indeterminate("r")
    u11 = -(ii * half) * q * r
    u22 = (ii * half) * q * r
    e = akns_frame().generator(1)
    # z^1 component: d_x(U_{1,1}) = [E_1, U_{1,2}] pins the off-diagonal
    # entries; entry (1,2) reads d_x q = (e11 - e22) u12, then (2,1).
    c12 = e[0][0] - e[1][1]
    c21 = e[1][1] - e[0][0]
    u12 = q.derive(x) * c12.inverse()
    u21 = r.derive(x) * c21.inverse()

    u_1 = ((DiffPoly.zero(), q), (r, DiffPoly.zero()))
    u_2 = ((u11, u12), (u21, u22))
    # z^0 component: d_t(U_{1,1}) = d_x(U_{1,2}) + [U_{1,2}, U_{1,1}]
    du2 = tuple(tuple(entry.derive(x) for entry in row) for row in u_2)
    br = mat_sub(mat_mul(u_2, u_1), mat_mul(u_1, u_2))
    rhs = mat_add(du2, br)
    pde_q = (ii * q.derive(t), ii * rhs[0][1])
    pde_r = (ii * r.derive(t), ii * rhs[1][0])
    return AknsReport(
        q=q_dressed,
        r=r_dressed,
        u11=u11,
        u12=u12,
        u21=u21,
        u22=u22,
        pde_q=pde_q,
        pde_r=pde_r,
    )


# ---------------------------------------------------------------------------
# Solution transport
# ---------------------------------------------------------------------------

def frame_conjugate(d: Deformation, g0) -> Deformation:
    """Conjugate a whole solution by a constant invertible matrix over Q(i).

    The conjugated family solves the hierarchy of the conjugated frame;
    applying the inverse matrix returns the original.
    """
    g0 = tuple(tuple(_to_gaussian(x) for x in row) for row in g0)
    try:
        g0_inv = mat_inv(g0)
    except ZeroDivisionError as exc:
        raise SingularLeading(str(exc)) from exc
    new_frame = CommutativeFrame(
        d.frame.n, [mat_mul(mat_mul(g0, e), g0_inv) for e in d.frame.basis]
    )

    def conj(series: LoopSeries) -> LoopSeries:
        return _conjugated(series, g0, g0_inv)

    series = [conj(s) for s in d.series]
    series_w = [conj(s) for s in d.series_w] if d.series_w is not None else None
    witness = conj(d.witness) if d.witness is not None else None
    witness_w = conj(d.witness_w) if d.witness_w is not None else None
    numeric = any(s.numeric for s in d.series)
    return Deformation(
        d.kind, new_frame, series, series_w, witness, witness_w,
        tol=1e-9 if numeric else 0.0,
    )


def _conjugated(series: LoopSeries, left, right) -> LoopSeries:
    """``left X right`` for every coefficient X of ``series``, with the
    constant matrices in the series' scalar backend."""
    left, right = _frame_matrix_like(left, series), _frame_matrix_like(right, series)
    return series.map_coeffs(lambda m: mat_mul(mat_mul(left, m), right))


def _const_exp(mat, exact: bool):
    """exp of a constant matrix: finite sum for nilpotent exact input,
    scaling-and-squaring ``scipy.linalg.expm`` for numeric input (imported
    here, so the exact core needs no scipy)."""
    n = len(mat)
    if exact:
        total, term = mat_eye(n), mat_eye(n)
        for k in range(1, n + 1):
            term = mat_smul(Fraction(1, k), mat_mul(term, mat))
            if mat_is_zero(term):
                return total
            total = mat_add(total, term)
        raise ValueError(
            "frame combination is not nilpotent; the exact backend cannot "
            "represent its exponential (use a numeric deformation)"
        )
    import numpy as np
    from scipy.linalg import expm

    return mat_complex(expm(np.array(mat, dtype=complex)))


def zero_time_normalize(d: Deformation, t0_values) -> Deformation:
    """Conjugate away the degree-0 flow dependence.

    Returns exp(-sum t0_a E_a) U exp(sum t0_a E_a).  The frame matrices
    commute, so for nilpotent frames this is a finite exact exponential; for
    non-nilpotent frames the values must be numeric.  Numeric values give a
    numeric deformation, whatever the backend of ``d``.
    """
    if d.kind is not HierarchyKind.STANDARD:
        raise IndexOutOfRange("zero-time normalization applies to the plain kind")
    t0_values = list(t0_values)
    if len(t0_values) != d.r:
        raise ValueError(f"need {d.r} zero-time values")
    exact = all(GaussianRational._coerce(v) is not None for v in t0_values)
    scalar = GaussianRational._coerce if exact else complex
    basis = d.frame.basis if exact else d.frame.complex_basis()
    s = mat_zeros(d.frame.n)
    for v, e in zip(t0_values, basis):
        s = mat_add(s, mat_smul(scalar(v), e))
    pos = _const_exp(s, exact)
    neg = _const_exp(mat_smul(-1, s), exact)

    def conj(series: LoopSeries) -> LoopSeries:
        return _conjugated(series if exact else series.map_coeffs(mat_complex), neg, pos)

    series = [conj(x) for x in d.series]
    witness = conj(d.witness) if d.witness is not None else None
    tol = 0.0 if exact else 1e-9
    return Deformation(d.kind, d.frame, series, witness=witness, tol=tol)

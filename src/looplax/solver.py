"""Numeric solutions via Birkhoff factorization in the loop group.

Loops live on an annulus around the unit circle and are handled through
their Fourier coefficients.  Given a loop ``g``, a diagonal twist ``delta(l)``
and flow values ``t``, the conjugated loop

    A(t) = delta(l) gamma(t) g gamma(t)^{-1} delta(-l)

is factorized as ``u_minus^{-1} p_plus`` with ``u_minus`` unipotent lower and
``p_plus`` upper with invertible constant term.  Dressing the frame by the
two factors yields a solution of the combined hierarchy:

    U_alpha = u_minus E_alpha u_minus^{-1},
    W_beta  = p_plus E_beta z^{-1} p_plus^{-1},

which finite-difference verification checks against the Lax and
zero-curvature residual evaluators.

All Fourier work happens on the unit-circle grid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (
    AliasingDetected,
    BigCellViolation,
    FlowSupportViolation,
    IndexOutOfRange,
    WindowUnderflow,
)
from .hierarchy import (
    CommutativeFrame,
    Deformation,
    HierarchyKind,
    cutoff,
    lax_residual,
    zc_residual,
)
from .linearize import ExponentVector, FlowRecord
from .loops import LoopSeries

__all__ = [
    "SolverParams",
    "AnnulusLoop",
    "WaveMatrixPair",
    "HierarchySolution",
    "VerifyReport",
    "random_loop",
    "birkhoff_factorize",
    "build_wave_pair",
    "extract_solution",
    "fd_verify",
    "reduce_subhierarchy",
]


@dataclass(frozen=True)
class SolverParams:
    """Truncation depths and tolerances of the numeric pipeline.

    N bounds the loop Fourier content, M the depth of the unipotent factor,
    and the grid must hold their interactions with margin; the defaults keep
    the block-Toeplitz system well posed for desk-scale loops.
    """

    N: int = 16
    M: int = 12
    grid: int = 128
    fact_tol: float = 1e-10
    cond_max: float = 1e10
    tail_tol: float = 1e-8

    def __post_init__(self):
        if self.N < 1 or self.M < 1:
            raise ValueError("depths N and M must be at least 1")
        for name in ("fact_tol", "cond_max", "tail_tol"):
            if not 0 < getattr(self, name) < float("inf"):
                raise ValueError(f"{name} must be positive and finite")
        if self.grid < 4 * self.N or self.grid & (self.grid - 1):
            raise ValueError("grid must be a power of two with grid >= 4N")

    def to_obj(self):
        return asdict(self)


class AnnulusLoop:
    """A matrix loop given by Fourier coefficients ``l_k``, |k| <= N; the
    identity loop has ``l_0 = Id`` and nothing else.
    """

    __slots__ = ("n", "N", "coeffs")

    def __init__(self, n: int, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 3 or coeffs.shape[1:] != (n, n) or coeffs.shape[0] % 2 != 1:
            raise ValueError("coeffs must have shape (2N+1, n, n)")
        self.n = n
        self.N = coeffs.shape[0] // 2
        self.coeffs = coeffs

    @classmethod
    def identity(cls, n: int, N: int = 0) -> "AnnulusLoop":
        c = np.zeros((2 * N + 1, n, n), dtype=complex)
        c[N] = np.eye(n)
        return cls(n, c)

    @classmethod
    def from_coeff_dict(cls, n: int, d) -> "AnnulusLoop":
        keys = [int(k) for k in d]
        N = max((abs(k) for k in keys), default=0)
        c = np.zeros((2 * N + 1, n, n), dtype=complex)
        for k, m in d.items():
            c[int(k) + N] = np.asarray(m, dtype=complex)
        return cls(n, c)

    def coeff(self, k: int) -> np.ndarray:
        if abs(k) > self.N:
            return np.zeros((self.n, self.n), dtype=complex)
        return self.coeffs[k + self.N]

    def pad(self, N: int) -> "AnnulusLoop":
        if N <= self.N:
            return self
        c = np.zeros((2 * N + 1, self.n, self.n), dtype=complex)
        c[N - self.N : N + self.N + 1] = self.coeffs
        return AnnulusLoop(self.n, c)

    def norm_max(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def tail_ratio(self) -> float:
        """Boundary-to-peak coefficient ratio: the finite-truncation proxy
        for decay on the annulus."""
        peak = self.norm_max()
        if peak == 0.0:
            return 0.0
        edge = max(np.max(np.abs(self.coeffs[0])), np.max(np.abs(self.coeffs[-1])))
        return float(edge / peak)

    def grid_values(self, G: int) -> np.ndarray:
        """Pointwise values on the G-point unit-circle grid."""
        if G < 2 * self.N + 2:
            raise ValueError("grid too small for the stored frequencies")
        c = np.zeros((G, self.n, self.n), dtype=complex)
        c[np.arange(-self.N, self.N + 1) % G] += self.coeffs
        return np.fft.ifft(c, axis=0) * G

    @classmethod
    def from_grid(cls, values: np.ndarray, N: int) -> "AnnulusLoop":
        G, n, _ = values.shape
        bins = np.fft.fft(values, axis=0) / G
        return cls(n, bins[np.arange(-N, N + 1) % G])

    def to_obj(self):
        out = {}
        for k in range(-self.N, self.N + 1):
            m = self.coeffs[k + self.N]
            if np.any(m != 0):
                out[str(k)] = [[[float(x.real), float(x.imag)] for x in row] for row in m]
        return out

    @classmethod
    def from_obj(cls, n: int, obj) -> "AnnulusLoop":
        coeffs = {}
        for k, m in obj.items():
            try:
                freq = int(k)
            except ValueError:
                raise ValueError(f"g key {k!r} must be a whole-number frequency") from None
            try:
                coeffs[freq] = [[complex(re, im) for re, im in row] for row in m]
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"g entry {k!r} is not a matrix of [re, im] pairs: {m!r}"
                ) from exc
        return cls.from_coeff_dict(n, coeffs)


def random_loop(n: int, N: int, eps: float, seed: int) -> "AnnulusLoop":
    """A seeded loop ``exp(eps * X)`` with X analytic on a wide annulus.

    X gets complex Gaussian Fourier coefficients damped by ``0.15**|k|`` so
    the unipotent factor decays fast enough for depth-M truncation."""
    rng = np.random.default_rng(seed)
    kmax = min(N // 2, 6)
    x = np.zeros((2 * kmax + 1, n, n), dtype=complex)
    for k in range(-kmax, kmax + 1):
        x[k + kmax] = (0.15 ** abs(k)) * (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )
    G = max(64, 4 * N)
    vals = AnnulusLoop(n, x).grid_values(G)
    return AnnulusLoop.from_grid(expm(eps * vals), N)


# ---------------------------------------------------------------------------
# Flow exponentials and twists
# ---------------------------------------------------------------------------

def _flow_record(flows, N: int) -> FlowRecord:
    """The flows as a record, each degree within the N/2 the grid resolves."""
    flows = FlowRecord(flows)
    for m, _ in flows.support():
        if abs(m) > N // 2:
            raise IndexOutOfRange(f"flow degree {m} exceeds N/2 = {N // 2}")
    return flows


def _exponent_vector(l, n: int) -> ExponentVector:
    """``l`` as the exponent vector of an n x n twist."""
    l = ExponentVector(l)
    if len(l) != n:
        raise ValueError("exponent vector length differs from loop size")
    return l


def _unit_circle(G: int) -> np.ndarray:
    """The grid points ``z_j = exp(2 pi i j / G)``."""
    return np.exp(2j * np.pi * np.arange(G) / G)


def _resolved_loop(values: np.ndarray, N: int, tail_tol: float, what: str):
    """Grid values as a loop of frequencies |k| <= N, with its tail ratio.

    Raises :class:`AliasingDetected` when the boundary coefficients carry
    more than ``tail_tol`` of the peak mass."""
    loop = AnnulusLoop.from_grid(values, N)
    tail = loop.tail_ratio()
    if tail > tail_tol:
        raise AliasingDetected(
            f"{what} boundary Fourier mass {tail:.2e} exceeds {tail_tol:.2e}; "
            "raise N or the grid"
        )
    return loop, tail


def _flow_grid_values(flows: FlowRecord, frame: CommutativeFrame, G: int, sign: float = 1.0):
    """Pointwise gamma(t)^{sign} = exp(sign * sum t_ma E_a z^m) on the grid.

    Grid point j of G is point 2j of 2G, so the values on G are the even
    samples of the values on 2G, bit for bit."""
    n = frame.n
    basis = [np.array(m, dtype=complex) for m in frame.complex_basis()]
    z = _unit_circle(G)
    h = np.zeros((G, n, n), dtype=complex)
    for (m, alpha), v in flows.items():
        if not 1 <= alpha <= frame.r:
            raise IndexOutOfRange(f"frame index {alpha} not in [1..{frame.r}]")
        h += np.einsum("g,ij->gij", v * z**m, basis[alpha - 1])
    h *= sign
    if not np.any(h):
        return np.broadcast_to(np.eye(n, dtype=complex), (G, n, n)).copy()
    return expm(h)


def _twist_grid(values: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Entrywise phases ``z**shifts`` on the grid: ``shifts`` of
    ``l[:, None] - l[None, :]`` give delta(l) X delta(-l), ``l[:, None]``
    alone gives delta(l) X."""
    return values * _unit_circle(len(values))[:, None, None] ** shifts


# ---------------------------------------------------------------------------
# Birkhoff factorization
# ---------------------------------------------------------------------------

def _check_conditioned(mat: np.ndarray, cond_max: float, what: str):
    """Raise :class:`BigCellViolation` when ``mat`` is singular beyond
    ``cond_max`` at working precision."""
    svals = np.linalg.svd(mat, compute_uv=False)
    cond = np.inf if svals[-1] == 0 else svals[0] / svals[-1]
    if cond > cond_max:
        raise BigCellViolation(
            f"{what} is singular at working precision (condition {cond:.2e})"
        )


def birkhoff_factorize(
    loop: AnnulusLoop, M: int, fact_tol: float = 1e-10, cond_max: float = 1e10
):
    """Split ``loop = u_minus^{-1} p_plus``.

    ``u_minus = Id + sum_{k=1..M} a_k z^{-k}`` is found by nulling the
    frequencies -M..-1 of ``u_minus loop`` through the block-Toeplitz system
    ``sum_k a_k l_{j+k} = -l_j``; ``p_plus`` is the nonnegative part of the
    product.  Raises :class:`BigCellViolation` when the system is singular
    beyond ``cond_max``, when the residual negative-frequency mass exceeds
    ``fact_tol``, or when the constant term of ``p_plus`` is not safely
    invertible -- all three mean the loop sits outside the big cell at
    working precision (callers may retry with perturbed flows; the solvable
    set is open).
    """
    n, scale = loop.n, max(loop.norm_max(), 1.0)
    padded = loop.pad(M)
    coeffs, N = padded.coeffs, padded.N
    # column block c encodes the equation at j = -(c+1); row block k-1 holds
    # l_{j+k}, so block (r, c) is l_{r-c}
    blocks = coeffs[np.subtract.outer(np.arange(M), np.arange(M)) + N]
    big = blocks.transpose(0, 2, 1, 3).reshape(M * n, M * n)
    rhs = -coeffs[N - M : N][::-1].transpose(1, 0, 2).reshape(n, M * n)
    _check_conditioned(big, cond_max, "block-Toeplitz system")
    sol = np.linalg.solve(big.T, rhs.T).T  # X big = rhs
    u_coeffs = np.zeros((2 * M + 1, n, n), dtype=complex)
    u_coeffs[M] = np.eye(n)
    u_coeffs[:M] = sol.reshape(n, M, n).transpose(1, 0, 2)[::-1]
    u_minus = AnnulusLoop(n, u_coeffs)

    # full product u_minus * loop as block rows; negative bins beyond -M
    # measure leakage.  a_k (power k) meets l_{-N..N} at bins k+M..k+M+2N.
    NP = loop.N + M
    row = np.concatenate(loop.coeffs, axis=-1)
    prod = np.zeros((n, (2 * NP + 1) * n), dtype=complex)
    for i, a in enumerate(u_coeffs[: M + 1]):
        if np.any(a):
            prod[:, i * n : (i + 2 * loop.N + 1) * n] += a @ row
    prod = prod.reshape(n, 2 * NP + 1, n).transpose(1, 0, 2)
    neg_mass = float(np.max(np.abs(prod[:NP]))) if NP else 0.0
    if neg_mass > fact_tol * scale:
        raise BigCellViolation(
            f"negative-frequency residual {neg_mass:.2e} exceeds tolerance; "
            f"depth M={M} cannot represent the unipotent factor"
        )
    _check_conditioned(prod[NP], cond_max, "constant term of the plus factor")
    pad = np.zeros((2 * NP + 1, n, n), dtype=complex)
    pad[NP:] = prod[NP:]
    p_plus = AnnulusLoop(n, pad)
    return u_minus, p_plus


# ---------------------------------------------------------------------------
# Wave matrices and solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveMatrixPair:
    """The factorization data behind a pair of wave matrices.

    ``psi = u_minus delta(l) gamma(t)`` and ``phi = p_plus delta(l) gamma(t)``
    satisfy ``psi = phi g^{-1}``; the pair determines the hierarchy solution.
    """

    u_minus: AnnulusLoop
    p_plus: AnnulusLoop
    l: ExponentVector
    flows: FlowRecord
    g: AnnulusLoop
    frame: CommutativeFrame
    params: SolverParams
    diagnostics: dict


def _deviation_grid(g: AnnulusLoop, G: int) -> np.ndarray:
    """``g - Id`` on the grid, with Id subtracted in coefficient space so
    the identity loop stays exact."""
    g_m_id = AnnulusLoop(g.n, g.coeffs.copy())
    g_m_id.coeffs[g_m_id.N] = g_m_id.coeffs[g_m_id.N] - np.eye(g.n, dtype=complex)
    return g_m_id.grid_values(G)


def _factorize_conjugated(
    gam: np.ndarray, dev: np.ndarray, lv: np.ndarray, flows: FlowRecord,
    frame: CommutativeFrame, params: SolverParams,
):
    """Factorize the conjugated loop from gamma(t) and ``g - Id`` on the grid.

    ``lv`` is the twist's exponent vector, already checked against the
    frame.  Returns ``(u_minus, p_plus, conjugated loop, tail ratio)``;
    :class:`BigCellViolation` propagates from the factorization.
    """
    G, eye = len(gam), np.eye(len(lv), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        gam_inv = _flow_grid_values(flows, frame, G, sign=-1.0)
        av = _twist_grid(gam @ dev @ gam_inv, lv[:, None] - lv[None, :]) + eye
    if not np.all(np.isfinite(av)):
        raise ValueError(
            "conjugated loop has non-finite grid values: a flow value or the "
            "loop g is too large or not finite"
        )
    aloop, tail = _resolved_loop(av, G // 2 - 1, params.tail_tol, "conjugated loop")
    u_minus, p_plus = birkhoff_factorize(
        aloop, params.M, fact_tol=params.fact_tol, cond_max=params.cond_max
    )
    return u_minus, p_plus, aloop, tail


def build_wave_pair(
    g: AnnulusLoop,
    l,
    flows,
    frame: CommutativeFrame,
    params: SolverParams | None = None,
) -> WaveMatrixPair:
    """Factorize ``delta(l) gamma(t) g gamma(t)^{-1} delta(-l)`` and keep the
    two factors with their provenance and diagnostics.

    The conjugation is evaluated pointwise on the grid as
    ``Id + Gamma (g - Id) Gamma^{-1}`` (twisted entrywise), which is exact
    for the identity loop and numerically tighter than multiplying three
    exponentials.  :class:`BigCellViolation` propagates from the
    factorization.  A twist ``delta(l)`` that does not commute with the frame
    gives no hierarchy solution and raises :class:`IndexOutOfRange`.
    """
    params = params or SolverParams()
    l = _exponent_vector(l, g.n).check_commutes(frame)
    flows = _flow_record(flows, params.N)
    lv = np.array(l.l)
    G2 = 2 * params.grid
    dev = _deviation_grid(g, params.grid)
    with np.errstate(over="ignore", invalid="ignore"):  # checked in the core
        # gamma on the doubled grid feeds the diagnostics; its even samples
        # are gamma on the grid
        gam2 = _flow_grid_values(flows, frame, G2)
    u_minus, p_plus, aloop, tail = _factorize_conjugated(
        gam2[::2], dev, lv, flows, frame, params
    )
    # diagnostics on the doubled grid (p_plus carries frequencies up to N+M)
    uv = u_minus.grid_values(G2)
    pv = p_plus.grid_values(G2)
    dg = _twist_grid(gam2, lv[:, None])
    gv2 = g.grid_values(G2)
    psi = uv @ dg
    phi = pv @ dg
    rel = float(np.max(np.abs(psi - phi @ np.linalg.inv(gv2))))
    recon = float(np.max(np.abs(uv @ aloop.grid_values(G2) - pv)))
    diagnostics = {
        "relation_residual": rel,
        "reconstruction_residual": recon,
        "tail_ratio": tail,
    }
    return WaveMatrixPair(u_minus, p_plus, l, flows, g, frame, params, diagnostics)


@dataclass(frozen=True)
class HierarchySolution:
    """Extracted deformed generators with provenance.

    ``u_series`` is the z-graded family (U, or V for a strict reduction),
    ``w_series`` the z^{-1}-graded one; either may be absent after a
    sub-hierarchy reduction."""

    kind: HierarchyKind
    frame: CommutativeFrame
    u_series: tuple | None
    w_series: tuple | None
    window: tuple
    provenance: dict

    def as_deformation(self, tol: float = 1e-8) -> Deformation:
        w = self.w_series if self.kind is HierarchyKind.COMBINED else None
        return Deformation(self.kind, self.frame, self.u_series, w, tol=tol)

    def to_obj(self):
        return {
            "kind": self.kind.value,
            "window": list(self.window),
            "u_series": [s.to_obj() for s in self.u_series] if self.u_series else None,
            "w_series": [s.to_obj() for s in self.w_series] if self.w_series else None,
            "provenance": self.provenance,
        }


def extract_solution(w: WaveMatrixPair, depth: int | None = None) -> HierarchySolution:
    """Dress the frame by the factorization factors.

    ``U_alpha = u_minus E_alpha u_minus^{-1}`` truncated to ``[-depth, 0]``
    and ``W_beta = p_plus E_beta z^{-1} p_plus^{-1}`` truncated to
    ``[-1, depth-1]``.  The result is invariant (to factorization tolerance)
    under shifting every entry of l by the same integer, since the central
    twist cancels in the conjugated loop.  ``depth`` defaults to M; beyond
    2M (or the stored range of the plus factor) it raises
    :class:`WindowUnderflow`.
    """
    frame, M = w.frame, w.params.M
    depth = M if depth is None else depth
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth > min(2 * M, w.p_plus.N):
        raise WindowUnderflow(
            f"depth {depth} exceeds the exact range {min(2 * M, w.p_plus.N)} "
            "of the factorization"
        )
    n, K = frame.n, depth + 1
    # graded stacks on axis 0, one slot per factor: u_minus at z^{-d}, p_plus at z^d
    fac = np.array([[w.u_minus.coeff(-d), w.p_plus.coeff(d)] for d in range(K)])
    basis = np.array(frame.complex_basis(), dtype=complex)
    # axes (d, factor, alpha): u E_a u^{-1} at z^{-d}; p E_a z^{-1} p^{-1} at z^{d-1}
    dressed = _graded_product(fac[:, :, None] @ basis, _graded_inverse(fac)[:, :, None])
    u_series, w_series = [], []
    for a in range(frame.r):
        ue, we = dressed[:, 0, a].tolist(), dressed[:, 1, a].tolist()
        u_series.append(LoopSeries(n, {-d: c for d, c in enumerate(ue)}, (-depth, 0), "z"))
        w_series.append(
            LoopSeries(n, {d - 1: c for d, c in enumerate(we)}, (-1, depth - 1), "zinv")
        )
    provenance = {
        "l": list(w.l),
        "flows": w.flows.to_obj(),
        "params": w.params.to_obj(),
        "diagnostics": w.diagnostics,
    }
    return HierarchySolution(
        HierarchyKind.COMBINED,
        frame,
        tuple(u_series),
        tuple(w_series),
        (-depth, depth - 1),
        provenance,
    )


def _graded_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of the one-sided series ``sum_d a[d] x^d`` to the same depth,
    by back-substitution: ``b[t] = -b[0] sum_{s=1..t} a[s] b[t-s]``.

    Axis 0 is the grading; axes between it and the matrix axes index
    independent series.  Each step's sum is one product of the block row
    ``[a_t .. a_1]`` with the block column ``[b_0; ..; b_{t-1}]``.
    """
    K, n = len(a), a.shape[-1]
    row = np.concatenate(a[::-1], axis=-1)
    col = np.zeros(a.shape[1:-2] + (K * n, n), dtype=a.dtype)
    b0 = np.linalg.inv(a[0])
    col[..., :n, :] = b0
    for t in range(1, K):
        acc = row[..., (K - 1 - t) * n : (K - 1) * n] @ col[..., : t * n, :]
        col[..., t * n : (t + 1) * n, :] = -b0 @ acc
    return np.moveaxis(col.reshape(a.shape[1:-2] + (K, n, n)), -3, 0)


def _graded_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product of two one-sided series, truncated to their common
    depth ``len(a) == len(b)``; ``b`` broadcasts against ``a``.

    Coefficient ``a_i`` meets ``[b_0 .. b_{K-1-i}]`` laid out as one block
    row, and the product accumulates into the block row of the result.
    """
    K, n = len(a), a.shape[-1]
    row = np.concatenate(b, axis=-1)
    out = np.zeros(a.shape[1:-1] + (K * n,), dtype=a.dtype)
    for i in range(K):
        out[..., i * n :] += a[i] @ row[..., : (K - i) * n]
    return np.moveaxis(out.reshape(a.shape[1:-1] + (K, n)), -2, 0)


def reduce_subhierarchy(w: WaveMatrixPair, target) -> HierarchySolution:
    """Restrict a wave pair to one of the two sub-hierarchies.

    Plain target: requires vanishing negative flows; keeps the U family.
    Strict target: requires vanishing nonnegative flows; returns the V
    family obtained from W by the power reindexing z -> 1/z.
    """
    target = HierarchyKind(target)
    if target is HierarchyKind.COMBINED:
        raise ValueError(f"cannot reduce to {target!r}")
    strict = target is HierarchyKind.STRICT
    bad = [(m, a) for (m, a), v in w.flows.items() if (m >= 0) == strict and v != 0]
    if bad:
        raise FlowSupportViolation(
            f"nonzero {'nonnegative' if strict else 'negative'} flows {bad}"
        )
    sol = extract_solution(w)
    series = tuple(s.reindexed() for s in sol.w_series) if strict else sol.u_series
    return HierarchySolution(
        target, sol.frame, series, None, sol.window,
        dict(sol.provenance, reduced=target.value),
    )


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    """Residual norms per requested check; inconclusive entries mark flows
    whose perturbed points left the big cell."""

    residuals: dict
    inconclusive: list
    params: dict

    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    def to_obj(self):
        return asdict(self)


def _check_key(check) -> str:
    kind = check[0]
    if kind == "lax" and len(check) == 3:
        return f"lax:{check[1]},{check[2]}"
    if kind == "zc" and len(check) == 5:
        return f"zc:{check[1]},{check[2]}:{check[3]},{check[4]}"
    raise ValueError(f"unknown check {check!r} (use ('lax', m, a) or ('zc', m1, a1, m2, a2))")


def fd_verify(
    g: AnnulusLoop,
    l,
    frame: CommutativeFrame,
    flows,
    checks,
    h: float = 1e-4,
    params: SolverParams | None = None,
) -> VerifyReport:
    """Verify Lax / zero-curvature residuals by central differences.

    Each check re-solves the factorization at perturbed flow values and
    compares the finite-difference derivative against the bracket produced
    by the hierarchy engine.  One Richardson step (h and h/2) removes the
    leading h^2 truncation term.  A perturbed point outside the big cell
    marks the check inconclusive rather than failed.  The report holds
    residuals only: every solve skips the diagnostics of
    :func:`build_wave_pair` and evaluates gamma(t) on the grid itself, not
    on the doubled grid.
    """
    if not 0 < h < float("inf"):
        raise ValueError(f"finite-difference step must be positive and finite, got {h}")
    params = params or SolverParams()
    l = _exponent_vector(l, g.n).check_commutes(frame)
    flows = _flow_record(flows, params.N)
    lv = np.array(l.l)
    dev = _deviation_grid(g, params.grid)
    cache: dict = {}

    def solve_at(fl: FlowRecord) -> HierarchySolution:
        key = tuple(sorted((k, complex(v)) for k, v in fl.items()))
        if key not in cache:
            fl = _flow_record(fl, params.N)
            with np.errstate(over="ignore", invalid="ignore"):  # checked in the core
                gam = _flow_grid_values(fl, frame, params.grid)
            u_minus, p_plus, _, tail = _factorize_conjugated(gam, dev, lv, fl, frame, params)
            w = WaveMatrixPair(u_minus, p_plus, l, fl, g, frame, params, {"tail_ratio": tail})
            cache[key] = extract_solution(w)
        return cache[key]

    base = solve_at(flows)
    d = base.as_deformation()

    def fd_series(pick, m: int, alpha: int):
        """Richardson-extrapolated central difference of pick(solution)."""

        def central(step: float):
            fp = flows.with_value(m, alpha, flows.get((m, alpha), 0.0) + step)
            fm = flows.with_value(m, alpha, flows.get((m, alpha), 0.0) - step)
            return (pick(solve_at(fp)) - pick(solve_at(fm))).smul(1.0 / (2 * step))

        d1, d2 = central(h), central(h / 2)
        return d2.smul(4.0 / 3.0) - d1.smul(1.0 / 3.0)

    residuals: dict = {}
    inconclusive: list = []
    for check in checks:
        key = _check_key(check)
        try:
            if check[0] == "lax":
                _, m, alpha = check
                worst = 0.0
                for idx in range(1, frame.r + 1):
                    for family in ("u", "w"):
                        pick = lambda s, f=f"{family}_series", i=idx: getattr(s, f)[i - 1]
                        deriv = fd_series(pick, m, alpha)
                        res = lax_residual(d, m, alpha, idx, deriv, family=family)
                        worst = max(worst, res.max_abs())
                residuals[key] = worst
            else:
                _, m1, a1, m2, a2 = check
                d1c2 = fd_series(
                    lambda s: cutoff(s.as_deformation(), m2, a2), m1, a1
                )
                d2c1 = fd_series(
                    lambda s: cutoff(s.as_deformation(), m1, a1), m2, a2
                )
                res = zc_residual(d, m1, a1, m2, a2, d1c2, d2c1)
                residuals[key] = res.max_abs()
        except BigCellViolation:
            inconclusive.append(key)
    return VerifyReport(residuals, inconclusive, params.to_obj())


"""Independent output checks, one per workload.

None of these calls the looplax code path it checks: exact results are
re-multiplied with this file's own Fraction arithmetic, symbolic results are
evaluated at a rational point, numeric factorizations are re-evaluated
pointwise with numpy, and CLI output is compared byte for byte with a repeat
run.  Each check returns the worst error it saw (0.0 when exact) and raises
:class:`OracleError` on a rejected output.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

VERIFY_TOL = 1e-6
SOLVE_TOL = 1e-8
DIGITS_FLOOR = 1e-16  # errors below float64 resolution (incl. exact 0) read as 16 digits


class OracleError(AssertionError):
    """An output that failed its independent check."""


# ---------------------------------------------------------------------------
# Q(i) as (Fraction, Fraction) pairs, matrices as lists of rows
# ---------------------------------------------------------------------------

ZERO = (Fraction(0), Fraction(0))


def qi(x) -> tuple:
    """A GaussianRational, int or Fraction as a (re, im) pair."""
    if hasattr(x, "re") and hasattr(x, "im"):
        return (Fraction(x.re), Fraction(x.im))
    return (Fraction(x), Fraction(0))


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for k in range(n):
                acc = _add(acc, _mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _mat_add(a, b):
    return [[_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _zero_mat(n):
    return [[ZERO] * n for _ in range(n)]


def series_mul(s: dict, t: dict, lo: int, hi: int) -> dict:
    """Product of two finitely stored series, powers ``lo..hi`` only."""
    out = {}
    for i, a in s.items():
        for j, b in t.items():
            if lo <= i + j <= hi:
                p = mat_mul(a, b)
                out[i + j] = _mat_add(out[i + j], p) if i + j in out else p
    return out


def exp_strict(x: dict, n: int, depth: int) -> dict:
    """exp of a series in z^-1 with powers -1..-depth, kept on [-depth, 0]."""
    eye = [[(Fraction(int(i == j)), Fraction(0)) for j in range(n)] for i in range(n)]
    total = {0: eye}
    term = {0: eye}
    for k in range(1, depth + 1):
        term = series_mul(term, x, -depth, 0)
        c = (Fraction(1, k), Fraction(0))
        term = {p: [[_mul(c, v) for v in row] for row in m] for p, m in term.items()}
        for p, m in term.items():
            total[p] = _mat_add(total[p], m) if p in total else m
    return total


def eval_entry(x, point) -> tuple:
    """A scalar output as a Q(i) pair; DiffPoly entries are evaluated at
    ``point`` (indeterminate name -> pair)."""
    terms = getattr(x, "terms", None)
    if terms is None:
        return qi(x)
    acc = ZERO
    for mono, coef in terms.items():
        v = qi(coef)
        for ind, power in mono:
            if ind.derivs:
                raise OracleError(f"unexpected derivative indeterminate {ind}")
            for _ in range(power):
                v = _mul(v, point[ind.name])
        acc = _add(acc, v)
    return acc


def plain_series(series, point=None) -> dict:
    return {
        k: [[eval_entry(x, point) for x in row] for row in m]
        for k, m in series.coeffs.items()
    }


def check_dressing(out, witness: dict, gen, power: int, window, point=None):
    """``out * h == h * (E z^power)`` on ``window``, where ``out`` is the
    deformed series, ``h`` the total witness and ``E`` the frame generator.

    That identity is the dressing ``out = h (E z^power) h^-1`` multiplied
    out, so it needs no series inverse.  The output must be exact on at
    least ``window``.
    """
    lo, hi = window
    if out.lo > lo or out.hi < hi:
        raise OracleError(f"output window {tuple(out.window)} misses {window}")
    n = len(gen)
    s = {k: m for k, m in plain_series(out, point).items() if lo <= k <= hi}
    left = series_mul(s, witness, lo, hi)
    right = series_mul(witness, {power: gen}, lo, hi)
    for k in range(lo, hi + 1):
        a = left.get(k, _zero_mat(n))
        b = right.get(k, _zero_mat(n))
        if a != b:
            raise OracleError(f"dressing identity fails at power {k}")
    return 0.0


def is_exact_zero(x) -> bool:
    """An entry is zero: every coefficient of a DiffPoly, or the scalar."""
    terms = getattr(x, "terms", None)
    coefs = terms.values() if terms is not None else (x,)
    return all(qi(c) == ZERO for c in coefs)


def check_zero_residual(r, label: str):
    """A residual series with a non-empty exact window whose every stored
    entry is exactly zero."""
    if r.lo > r.hi:
        raise OracleError(f"{label}: empty residual window {tuple(r.window)}")
    for k, m in r.coeffs.items():
        if not all(is_exact_zero(x) for row in m for x in row):
            raise OracleError(f"{label}: nonzero residual at power {k}")


def check_exact(case, result) -> float:
    """Every Lax-substituted zero-curvature and corollary residual is exactly
    zero, and every dressed generator satisfies its dressing identity
    (evaluated at ``case.point`` for symbolic dressings)."""
    d, residuals = result
    if len(residuals) != len(case.zc) + len(case.cor):
        raise OracleError(f"{len(residuals)} residuals for {len(case.zc) + len(case.cor)} pairs")
    for i, r in enumerate(residuals):
        check_zero_residual(r, f"residual {i}")
    witness = case.plain_witness()
    for alpha, s in enumerate(d.series, start=1):
        gen = [[qi(x) for x in row] for row in case.frame.generator(alpha)]
        check_dressing(s, witness, gen, case.u_power, case.u_window, case.point)
    if case.witness_w is not None:
        for alpha, s in enumerate(d.series_w, start=1):
            gen = [[qi(x) for x in row] for row in case.frame.generator(alpha)]
            check_dressing(s, case.plain_witness_w, gen, -1, case.w_window)
    return 0.0


def _poly_dict(p) -> dict:
    """A DiffPoly as {((name, derivatives, power), ...): (re, im)} with the
    AKNS flows written x = d(1,1) and t = d(2,1)."""
    names = {(1, 1): "x", (2, 1): "t"}
    out = {}
    for mono, coef in p.terms.items():
        key = tuple(
            sorted(
                (ind.name, "".join(names[(s.m, s.alpha)] * c for s, c in ind.derivs), power)
                for ind, power in mono
            )
        )
        out[key] = qi(coef)
    return out


_H = Fraction(1, 2)
AKNS_EXPECTED = {
    # i q_t = -1/2 q_xx + q^2 r,  i r_t = 1/2 r_xx - q r^2
    "pde_q": (
        {(("q", "t", 1),): (0, 1)},
        {(("q", "xx", 1),): (-_H, 0), (("q", "", 2), ("r", "", 1)): (1, 0)},
    ),
    "pde_r": (
        {(("r", "t", 1),): (0, 1)},
        {(("r", "xx", 1),): (_H, 0), (("q", "", 1), ("r", "", 2)): (-1, 0)},
    ),
    "q": {(("beta1", "", 1),): (0, 2)},
    "r": {(("gamma1", "", 1),): (0, -2)},
    "u11": {(("q", "", 1), ("r", "", 1)): (0, -_H)},
    "u12": {(("q", "x", 1),): (0, _H)},
    "u21": {(("r", "x", 1),): (0, -_H)},
    "u22": {(("q", "", 1), ("r", "", 1)): (0, _H)},
}


def check_akns(rep) -> float:
    """akns_reduce() against the AKNS system written out by hand."""
    for field, want in AKNS_EXPECTED.items():
        got = getattr(rep, field)
        got = tuple(map(_poly_dict, got)) if isinstance(want, tuple) else _poly_dict(got)
        if got != want:  # Fractions compare equal to the integers written here
            raise OracleError(f"AKNS field {field} differs from the hand-written system")
    return 0.0


# ---------------------------------------------------------------------------
# Numeric checks
# ---------------------------------------------------------------------------

def check_verify(report, expected_keys) -> float:
    """Every requested residual present, finite and <= VERIFY_TOL; no check
    inconclusive."""
    if report.inconclusive:
        raise OracleError(f"inconclusive checks {report.inconclusive}")
    if set(report.residuals) != set(expected_keys):
        raise OracleError(f"residual keys {sorted(report.residuals)} != {sorted(expected_keys)}")
    worst = 0.0
    for key, v in report.residuals.items():
        if not v <= VERIFY_TOL:  # also rejects NaN
            raise OracleError(f"residual {key} = {v:.3e} exceeds {VERIFY_TOL:.0e}")
        worst = max(worst, v)
    return worst


def _eval_coeffs(coeffs: np.ndarray, offset: int, z: np.ndarray) -> np.ndarray:
    """sum_k c_k z^(k - offset) at each grid point, by direct summation."""
    k, n, _ = coeffs.shape
    powers = np.arange(k) - offset
    return ((z[:, None] ** powers[None, :]) @ coeffs.reshape(k, n * n)).reshape(-1, n, n)


def check_solve(case, result) -> float:
    """For the diagonal frame, A = delta(l) gamma g gamma^-1 delta(-l) is
    recomputed entrywise (gamma is a diagonal of scalar exponentials), then
    checked on a doubled grid: u_minus A = p_plus, and pointwise
    U_alpha = u_minus E_alpha u_minus^-1 for the extracted series."""
    pair, sol = result
    n, grid = case.n, 2 * case.grid
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    gv = _eval_coeffs(case.g_coeffs, case.g_coeffs.shape[0] // 2, z)
    log_gamma = np.zeros((grid, n), dtype=complex)
    for (m, alpha), t in case.flows.items():
        log_gamma += t * z[:, None] ** m * case.frame_diags[alpha - 1][None, :]
    gamma = np.exp(log_gamma)
    twist = z[:, None] ** np.asarray(case.l)[None, :]
    d = gamma * twist
    a = d[:, :, None] * gv / d[:, None, :]
    scale = max(1.0, float(np.max(np.abs(a))))
    um = _eval_coeffs(np.asarray(pair.u_minus.coeffs), pair.u_minus.coeffs.shape[0] // 2, z)
    pp = _eval_coeffs(np.asarray(pair.p_plus.coeffs), pair.p_plus.coeffs.shape[0] // 2, z)
    worst = float(np.max(np.abs(um @ a - pp))) / scale
    if not worst <= SOLVE_TOL:
        raise OracleError(f"u_minus A - p_plus = {worst:.3e} on the doubled grid")
    um_inv = np.linalg.inv(um)
    for alpha, s in enumerate(sol.u_series, start=1):
        ks = sorted(s.coeffs)
        if not ks or ks[-1] > 0 or s.lo > -case.M:
            raise OracleError(f"U_{alpha} support {ks} / window {tuple(s.window)} malformed")
        uc = np.zeros((case.M + 1, n, n), dtype=complex)
        for k in ks:
            if k >= -case.M:
                uc[k + case.M] = np.asarray(s.coeffs[k], dtype=complex)
        u_series = _eval_coeffs(uc, case.M, z)
        u_point = um @ np.diag(case.frame_diags[alpha - 1])[None, :, :] @ um_inv
        err = float(np.max(np.abs(u_series - u_point)))
        if not err <= SOLVE_TOL:
            raise OracleError(f"U_{alpha} differs from u_minus E u_minus^-1 by {err:.3e}")
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def check_cli(command: str, code: int, stdout: bytes, repeat: bytes) -> float:
    """Exit 0, JSON output, byte-identical to a repeat run of the same
    config and seed, and the command's own acceptance condition."""
    if code != 0:
        raise OracleError(f"{command} exited {code}")
    if stdout != repeat:
        raise OracleError(f"{command} output differs from a repeat of the same config")
    try:
        obj = json.loads(stdout)
    except ValueError as exc:
        raise OracleError(f"{command} printed invalid JSON: {exc}") from None
    if command == "verify":
        if obj.get("inconclusive"):
            raise OracleError(f"inconclusive checks {obj['inconclusive']}")
        res = obj.get("residuals") or {}
        if not res:
            raise OracleError("verify reported no residuals")
        worst = 0.0
        for key, v in res.items():
            if not (isinstance(v, float) and v <= VERIFY_TOL):
                raise OracleError(f"residual {key} = {v} exceeds {VERIFY_TOL:.0e}")
            worst = max(worst, v)
        return worst
    if command == "zc-check":
        if not obj.get("zero") or not all(v is True for v in obj["zero"].values()):
            raise OracleError(f"symbolic zero-curvature check not zero: {obj.get('zero')}")
    elif command == "derive-akns":
        if not {"pde_q", "pde_r", "q", "r"} <= set(obj.get("report", {})):
            raise OracleError("derive-akns report is missing fields")
    elif command == "solve":
        if len(obj.get("u_series") or []) != 1 or len(obj.get("w_series") or []) != 1:
            raise OracleError("solve output lacks the U/W series")
    return 0.0

"""Self-test of the benchmark oracles: each accepts a real output and
rejects the same output with one deliberate corruption.

    python -m pytest bench/tests -q
"""

import json
import os
import sys
import types
from fractions import Fraction

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]

import looplax as lx  # noqa: E402
from looplax.scalars import DiffPoly, GaussianRational  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import OracleError  # noqa: E402


def _bump(series, power, delta):
    """``series`` with ``delta`` added to entry (0, 0) of one coefficient
    (a zero coefficient when none is stored at ``power``)."""
    n = series.n
    coeffs = {k: [list(row) for row in m] for k, m in series.coeffs.items()}
    m = coeffs.setdefault(power, [[GaussianRational(0)] * n for _ in range(n)])
    m[0][0] = m[0][0] + delta
    return lx.LoopSeries(n, coeffs, tuple(series.window), series.direction)


def _bump_residual(residuals, delta):
    """The residuals with the last one made nonzero at its top power."""
    r = residuals[-1]
    return residuals[:-1] + [_bump(r, r.hi, delta)]


def _first_case(wl, backend, kind=None):
    for i in range(wl.block):
        slot = wl._slot(i)
        if slot[0] == backend and (kind is None or slot[3] is kind):
            return wl.make(i)
    raise LookupError(backend)


@pytest.fixture(scope="module")
def exact():
    return workloads.ExactDressing(seed=3)


@pytest.mark.parametrize("kind", list(workloads.KINDS), ids=lambda k: k.value)
def test_exact_rejects_perturbed_u1(exact, kind):
    case = _first_case(exact, "qi", kind)
    d, residuals = exact.run(case)
    assert oracles.check_exact(case, (d, residuals)) == 0.0
    u1 = d.series[0]
    bad = types.SimpleNamespace(
        series=(_bump(u1, min(u1.coeffs), GaussianRational(Fraction(1, 7))),) + d.series[1:],
        series_w=d.series_w,
    )
    with pytest.raises(OracleError):
        oracles.check_exact(case, (bad, residuals))
    with pytest.raises(OracleError):
        oracles.check_exact(case, (d, _bump_residual(residuals, GaussianRational(0, 1))))
    with pytest.raises(OracleError):
        oracles.check_exact(case, (d, residuals[:-1]))


def test_exact_rejects_perturbed_w1(exact):
    case = _first_case(exact, "qi", lx.HierarchyKind.COMBINED)
    d, residuals = exact.run(case)
    w1 = d.series_w[0]
    bad = types.SimpleNamespace(
        series=d.series, series_w=(_bump(w1, max(w1.coeffs), GaussianRational(1)),) + d.series_w[1:]
    )
    with pytest.raises(OracleError):
        oracles.check_exact(case, (bad, residuals))


def test_symbolic_rejects_perturbed_u1(exact):
    case = _first_case(exact, "diffpoly")
    d, residuals = exact.run(case)
    assert oracles.check_exact(case, (d, residuals)) == 0.0
    bad = types.SimpleNamespace(
        series=(_bump(d.series[0], -1, GaussianRational(1)),) + d.series[1:],
        series_w=None,
    )
    with pytest.raises(OracleError):
        oracles.check_exact(case, (bad, residuals))
    x = DiffPoly.indeterminate("x1_00")
    with pytest.raises(OracleError):
        oracles.check_exact(case, (d, _bump_residual(residuals, x)))


def test_akns_rejects_perturbed_equation():
    rep = lx.akns_reduce()
    assert oracles.check_akns(rep) == 0.0
    fields = {f: getattr(rep, f) for f in ("q", "r", "u11", "u12", "u21", "u22", "pde_q", "pde_r")}
    fields["pde_q"] = (rep.pde_q[0], rep.pde_q[1] * 2)
    with pytest.raises(OracleError):
        oracles.check_akns(types.SimpleNamespace(**fields))


def test_verify_rejects_large_or_missing_residual():
    wl = workloads.VerifySmall(seed=3)
    report = wl.run(wl.make(0))
    assert 0.0 < oracles.check_verify(report, wl.KEYS) <= oracles.VERIFY_TOL
    worse = dict(report.residuals, **{wl.KEYS[0]: 1e-3})
    with pytest.raises(OracleError):
        oracles.check_verify(lx.VerifyReport(worse, [], report.params), wl.KEYS)
    with pytest.raises(OracleError):
        oracles.check_verify(lx.VerifyReport(report.residuals, [wl.KEYS[1]], report.params), wl.KEYS)
    fewer = {k: v for k, v in report.residuals.items() if k != wl.KEYS[2]}
    with pytest.raises(OracleError):
        oracles.check_verify(lx.VerifyReport(fewer, [], report.params), wl.KEYS)


def test_solve_rejects_perturbed_u1_and_factor():
    wl = workloads.SolveLarge(seed=3)
    wl.params = lx.SolverParams(N=16, M=12, grid=128)  # same checks, smaller solve
    case = wl.make(0)
    pair, sol = wl.run(case)
    assert oracles.check_solve(case, (pair, sol)) <= oracles.SOLVE_TOL
    u1 = sol.u_series[0]
    bad_sol = types.SimpleNamespace(u_series=(_bump(u1, -1, 1e-6),) + sol.u_series[1:])
    with pytest.raises(OracleError):
        oracles.check_solve(case, (pair, bad_sol))
    coeffs = pair.p_plus.coeffs.copy()
    coeffs[pair.p_plus.N + 1, 0, 0] += 1e-6
    bad_pair = types.SimpleNamespace(u_minus=pair.u_minus, p_plus=lx.AnnulusLoop(3, coeffs))
    with pytest.raises(OracleError):
        oracles.check_solve(case, (bad_pair, sol))


def test_cli_rejects_flipped_byte(tmp_path):
    wl = workloads.CliBatch(seed=3, workdir=str(tmp_path), src_dir=os.path.join(
        os.path.dirname(BENCH_DIR), "src"))
    idx = wl.POOL.index("verify")
    first = wl.run(idx)
    again = wl.run(idx)
    assert 0.0 < oracles.check_cli("verify", again.code, again.stdout, first.stdout) <= 1e-6
    flipped = bytearray(again.stdout)
    flipped[len(flipped) // 2] ^= 0x01
    with pytest.raises(OracleError):
        oracles.check_cli("verify", again.code, bytes(flipped), first.stdout)
    with pytest.raises(OracleError):
        oracles.check_cli("verify", 3, again.stdout, first.stdout)
    big = json.dumps({"residuals": {"lax:1,1": 1e-3}, "inconclusive": []}).encode()
    with pytest.raises(OracleError):
        oracles.check_cli("verify", 0, big, big)

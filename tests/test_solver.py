import re

import numpy as np
import pytest
from scipy.linalg import expm

from looplax.errors import (
    AliasingDetected,
    BigCellViolation,
    FlowSupportViolation,
    IndexOutOfRange,
    WindowUnderflow,
)
from looplax.hierarchy import HierarchyKind, akns_frame, cutoff, make_frame
from looplax.linearize import (
    ExponentVector,
    FlowRecord,
    OscillatingMatrix,
    Side,
    extract_connection,
)
from looplax.loops import LoopSeries
from looplax.solver import (
    AnnulusLoop,
    SolverParams,
    _exponent_vector,
    _flow_grid_values,
    _flow_record,
    _twist_grid,
    birkhoff_factorize,
    build_wave_pair,
    extract_solution,
    fd_verify,
    random_loop,
    reduce_subhierarchy,
)

FRAME = akns_frame()
PARAMS = SolverParams()
E1C = tuple(tuple(complex(x) for x in row) for row in FRAME.generator(1))


def to_series(loop, direction, window=None):
    """View an annulus loop as a total LoopSeries (every power outside
    [-N, N] is zero): the reference representation for the array kernels."""
    coeffs = {
        k: tuple(tuple(complex(x) for x in row) for row in loop.coeff(k))
        for k in range(-loop.N, loop.N + 1)
        if np.any(loop.coeff(k) != 0)
    }
    return LoopSeries(loop.n, coeffs, window or (-loop.N, loop.N), direction)


def gamma_eval(flows, frame, N, grid_size):
    """Reference: Fourier coefficients of the flow exponential gamma(t), read
    off the solver's exponential on the grid (with its flow-degree cap)."""
    return AnnulusLoop.from_grid(_flow_grid_values(_flow_record(flows, N), frame, grid_size), N)


def delta_twist(l, loop):
    """Reference twist on Fourier coefficients: entry (i, j) of frequency k
    moves to frequency ``k + l_i - l_j``; the frequency range grows as
    needed."""
    lv = np.array(_exponent_vector(l, loop.n).l)
    shifts = lv[:, None] - lv[None, :]
    N2 = loop.N + int(lv.max() - lv.min())
    out = np.zeros((2 * N2 + 1, loop.n, loop.n), dtype=complex)
    i, j = np.indices(shifts.shape)
    out[np.arange(-loop.N, loop.N + 1)[:, None, None] + shifts + N2, i, j] += loop.coeffs
    return AnnulusLoop(loop.n, out)


def small_pair(seed=7, eps=0.1, flows=None, l=(0, 0)):
    g = random_loop(2, 16, eps, seed=seed)
    return build_wave_pair(
        g, list(l), flows or {"1,1": 0.1, "-1,1": 0.05}, FRAME, PARAMS
    )


class TestGamma:
    def test_empty_flows_identity(self):
        loop = gamma_eval(FlowRecord({}), FRAME, 8, 64)
        assert np.array_equal(loop.coeff(0), np.eye(2))
        assert all(not np.any(loop.coeff(k)) for k in range(1, 9))

    def test_single_flow_power_series(self):
        # exp(t E z) has coefficients t^k E^k / k!
        t = 0.2
        loop = gamma_eval(FlowRecord({"1,1": t}), FRAME, 16, 128)
        e = np.array(E1C)
        acc = np.eye(2, dtype=complex)
        fact = 1.0
        for k in range(0, 7):
            if k > 0:
                fact *= k
                acc = acc @ e
            expect = (t**k / fact) * acc
            assert np.max(np.abs(loop.coeff(k) - expect)) < 1e-14, k
        assert not np.any(np.abs(loop.coeff(-1)) > 1e-15)

    def test_group_law_oracle(self, rng):
        for _ in range(5):
            s, t = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
            ga = gamma_eval(FlowRecord({"1,1": s, "-1,1": 0.1}), FRAME, 16, 128)
            gb = gamma_eval(FlowRecord({"1,1": t, "-1,1": 0.1}), FRAME, 16, 128)
            gc = gamma_eval(FlowRecord({"1,1": s + t, "-1,1": 0.2}), FRAME, 16, 128)
            va, vb, vc = (x.grid_values(128) for x in (ga, gb, gc))
            assert np.max(np.abs(va @ vb - vc)) < 1e-10

    def test_unimodular(self):
        loop = gamma_eval(FlowRecord({"1,1": 0.3, "-2,1": 0.2}), FRAME, 16, 128)
        dets = np.linalg.det(loop.grid_values(128))
        assert np.max(np.abs(dets - 1.0)) < 1e-12

    def test_flow_degree_cap(self):
        with pytest.raises(IndexOutOfRange):
            gamma_eval(FlowRecord({"9,1": 0.1}), FRAME, 16, 128)

    @pytest.mark.parametrize("kind", ["diagonal", "unipotent"])
    @pytest.mark.parametrize("n,G", [(2, 128), (3, 256), (3, 512)])
    def test_batched_exponential_matches_pointwise(self, kind, n, G):
        # one expm over the (G, n, n) stack must equal the per-point loop bit for bit
        frame = make_frame(kind, n)
        flows = FlowRecord({"1,1": 0.3, "-1,1": 0.1, f"2,{frame.r}": 0.05j})
        basis = [np.array(m, dtype=complex) for m in frame.complex_basis()]
        z = np.exp(2j * np.pi * np.arange(G) / G)
        h = sum(np.einsum("g,ij->gij", v * z**m, basis[a - 1]) for (m, a), v in flows.items())
        for sign in (1.0, -1.0):
            pointwise = np.stack([expm(sign * h[j]) for j in range(G)])
            assert np.array_equal(_flow_grid_values(flows, frame, G, sign), pointwise)

    @pytest.mark.parametrize("kind,n", [("diagonal", 2), ("diagonal", 3), ("unipotent", 3)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("G", [128, 512])
    def test_doubled_grid_even_samples(self, kind, n, sign, G):
        # build_wave_pair takes gamma on the grid from gamma on the doubled grid
        frame = make_frame(kind, n)
        flows = FlowRecord({"1,1": 0.3, "-1,1": 0.1, f"2,{frame.r}": 0.05j})
        doubled = _flow_grid_values(flows, frame, 2 * G, sign)
        assert np.array_equal(doubled[::2], _flow_grid_values(flows, frame, G, sign))


class TestDeltaTwist:
    def test_zero_vector_is_identity(self, rng):
        g = random_loop(2, 8, 0.2, seed=3)
        out = delta_twist(ExponentVector([0, 0]), g)
        assert np.array_equal(out.coeffs, g.coeffs)

    def test_central_vector_is_identity(self, rng):
        g = random_loop(2, 8, 0.2, seed=4)
        out = delta_twist(ExponentVector([2, 2]), g)
        mid = out.N
        assert np.max(np.abs(out.coeffs[mid - g.N : mid + g.N + 1] - g.coeffs)) == 0.0

    def test_double_twist_restores(self, rng):
        g = random_loop(2, 8, 0.2, seed=5)
        out = delta_twist(ExponentVector([-1, 2]), g)
        back = delta_twist(ExponentVector([1, -2]), out)
        mid = back.N
        assert np.max(np.abs(back.coeffs[mid - g.N : mid + g.N + 1] - g.coeffs)) == 0.0

    def test_entry_shift(self):
        g = AnnulusLoop.from_coeff_dict(2, {0: [[0, 1], [0, 0]]})
        out = delta_twist(ExponentVector([3, 1]), g)
        assert out.coeff(2)[0, 1] == 1  # frequency moved by l_1 - l_2 = 2

    def test_matches_entrywise_loop(self):
        g = random_loop(3, 8, 0.2, seed=6)
        l = (2, -1, 0)
        out = delta_twist(l, g)
        ref = np.zeros_like(out.coeffs)
        for k in range(-g.N, g.N + 1):
            for i in range(3):
                for j in range(3):
                    ref[k + l[i] - l[j] + out.N, i, j] += g.coeff(k)[i, j]
        assert out.N == g.N + 3 and np.array_equal(out.coeffs, ref)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="exponent vector length"):
            delta_twist([1], random_loop(2, 8, 0.2, seed=6))

    def test_matches_grid_twist(self):
        # the solver twists grid values entrywise by z**(l_i - l_j)
        g = random_loop(3, 8, 0.2, seed=6)
        lv = np.array([2, -1, 0])
        ref = delta_twist(lv, g)
        got = AnnulusLoop.from_grid(_twist_grid(g.grid_values(64), lv[:, None] - lv[None, :]), ref.N)
        assert np.max(np.abs(got.coeffs - ref.coeffs)) < 1e-13


class TestBirkhoff:
    def test_identity(self):
        u, p = birkhoff_factorize(AnnulusLoop.identity(2, 4), 8)
        assert np.array_equal(u.coeff(0), np.eye(2))
        assert all(not np.any(u.coeff(-k)) for k in range(1, 9))
        assert np.array_equal(p.coeff(0), np.eye(2))

    def test_nilpotent_tail_exact(self):
        # Id + c E12 z^-1 factors as (Id - c E12 z^-1)^-1 * Id
        c = 0.37
        loop = AnnulusLoop.from_coeff_dict(2, {0: np.eye(2), -1: [[0, c], [0, 0]]})
        u, p = birkhoff_factorize(loop, 6)
        assert abs(u.coeff(-1)[0, 1] + c) < 1e-14
        assert np.max(np.abs(p.coeff(0) - np.eye(2))) < 1e-14
        assert all(not np.any(np.abs(p.coeff(k)) > 1e-14) for k in range(1, 7))

    def test_random_against_doubled_depth_dense_oracle(self):
        # oracle: least squares at doubled depth over all negative rows
        g = random_loop(2, 16, 0.1, seed=21)
        u, p = birkhoff_factorize(g, 12)
        M2, n, N = 24, 2, g.N
        rows = []
        rhs = []
        for j in range(-M2 - N, 0):
            block = np.zeros((n, M2 * n), dtype=complex)
            for k in range(1, M2 + 1):
                block[:, (k - 1) * n : k * n] = g.coeff(j + k).T
            rows.append(block)
            rhs.append(-g.coeff(j).T)
        A = np.vstack(rows)
        b = np.vstack(rhs)
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        for k in range(1, 13):
            oracle_ak = x[(k - 1) * n : k * n].T
            assert np.max(np.abs(oracle_ak - u.coeff(-k))) < 1e-9, k

    def test_reconstruction_small_loops(self):
        for seed in range(5):
            g = random_loop(2, 16, 0.1, seed=seed)
            u, p = birkhoff_factorize(g, 12)
            G = 256
            err = np.max(np.abs(u.grid_values(G) @ g.grid_values(G) - p.grid_values(G)))
            assert err < 1e-9, (seed, err)

    def test_uniqueness_across_depths(self):
        g = random_loop(2, 16, 0.1, seed=33)
        u1, _ = birkhoff_factorize(g, 12)
        u2, _ = birkhoff_factorize(g, 16)
        for k in range(1, 13):
            assert np.max(np.abs(u1.coeff(-k) - u2.coeff(-k))) < 1e-9

    def test_big_cell_violation_diag_z(self):
        bad = AnnulusLoop.from_coeff_dict(2, {1: [[1, 0], [0, 0]], -1: [[0, 0], [0, 1]]})
        for _ in range(3):  # deterministic
            with pytest.raises(BigCellViolation):
                birkhoff_factorize(bad, 12)


class TestWavePair:
    def test_identity_loop_exact(self):
        w = build_wave_pair(AnnulusLoop.identity(2, 2), [1, 3], {"1,1": 0.3}, FRAME, PARAMS)
        assert np.array_equal(w.u_minus.coeff(0), np.eye(2))
        assert all(not np.any(w.u_minus.coeff(-k)) for k in range(1, PARAMS.M + 1))
        assert np.array_equal(w.p_plus.coeff(0), np.eye(2))
        assert w.diagnostics["relation_residual"] == 0.0

    def test_psi_phi_relation(self):
        w = small_pair(seed=9)
        assert w.diagnostics["relation_residual"] < 1e-8

    def test_l_shift_leaves_factors(self):
        w0 = small_pair(seed=10, l=(0, 0))
        w3 = small_pair(seed=10, l=(3, 3))
        assert np.max(np.abs(w0.u_minus.coeffs - w3.u_minus.coeffs)) == 0.0
        assert np.max(np.abs(w0.p_plus.coeffs - w3.p_plus.coeffs)) == 0.0

    def test_aliasing_guard(self):
        # content parked at the boundary bins of the conjugated loop
        nhat = PARAMS.grid // 2 - 1
        rough = AnnulusLoop.identity(2, nhat)
        rough.coeffs[-1][0, 1] = 0.01  # frequency +nhat
        with pytest.raises(AliasingDetected):
            build_wave_pair(rough, [0, 0], {}, FRAME, PARAMS)

    def test_wrong_length_l_rejected(self):
        # a length-1 l would otherwise broadcast as the zero twist
        with pytest.raises(ValueError, match="exponent vector length"):
            build_wave_pair(random_loop(2, 16, 0.1, seed=7), [5], {"1,1": 0.1}, FRAME, PARAMS)

    def test_two_flow_exponentials_per_solve(self, monkeypatch):
        calls = []

        def counted(flows, frame, G, sign=1.0):
            calls.append((G, sign))
            return _flow_grid_values(flows, frame, G, sign)

        monkeypatch.setattr("looplax.solver._flow_grid_values", counted)
        small_pair(seed=9)
        assert sorted(calls) == [(PARAMS.grid, -1.0), (2 * PARAMS.grid, 1.0)]

    @pytest.mark.parametrize("value", [1e6, float("nan"), float("inf")])
    def test_non_finite_grid_values_rejected(self, value):
        g = random_loop(2, 16, 0.1, seed=7)
        with pytest.raises(ValueError, match="non-finite"):
            build_wave_pair(g, [0, 0], {"1,1": value}, FRAME, PARAMS)


def twist_frame(kind, n):
    """A built-in frame, or the n=4 Schur frame spanned by E13, E14, E23, E24."""
    if kind != "schur":
        return make_frame(kind, n)
    units = []
    for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)):
        m = [[0] * 4 for _ in range(4)]
        m[i][j] = 1
        units.append(m)
    return make_frame("custom", 4, basis=units)


class TestTwistAdmissibility:
    # delta(l) gives a hierarchy solution only when it commutes with the frame
    @pytest.mark.parametrize(
        "kind,n,l",
        [("diagonal", 3, [1, 0, -1]), ("unipotent", 3, [2, 2, 2]), ("schur", 4, [1, 1, 1, 1])],
    )
    def test_commuting_twist_solves(self, kind, n, l):
        frame = twist_frame(kind, n)
        g = random_loop(n, 16, 0.1, seed=27)
        rep = fd_verify(g, l, frame, {"1,1": 0.1}, checks=[("lax", 1, 1)], params=PARAMS)
        assert rep.max_residual() < 1e-6, rep.residuals

    @pytest.mark.parametrize(
        "kind,n,l,entry",
        [("unipotent", 3, [1, 0, -1], "(1, 2)"), ("schur", 4, [1, 0, 0, -1], "(1, 3)")],
    )
    def test_non_commuting_twist_rejected(self, kind, n, l, entry):
        # fd_verify used to report order-one residuals here instead of failing
        frame = twist_frame(kind, n)
        g = random_loop(n, 16, 0.1, seed=27)
        needle = f"E_1 has a nonzero {entry} entry"
        with pytest.raises(IndexOutOfRange, match=re.escape(needle)):
            build_wave_pair(g, l, {"1,1": 0.1}, frame, PARAMS)
        with pytest.raises(IndexOutOfRange, match=re.escape(needle)):
            fd_verify(g, l, frame, {"1,1": 0.1}, checks=[("lax", 1, 1)], params=PARAMS)


class TestClosedFormFactorization:
    """g = Id + f(z) E12 with the AKNS frame E = diag(a, -a) and no flows
    factors in closed form: u_minus = Id - f_- E12 and p_plus = Id + f_+ E12
    (f_- the negative-frequency part of f, f_+ the rest), so
    U = E + 2a f_- E12 and W = (E - 2a f_+ E12) z^{-1}.  The oracle shares
    nothing with the block-Toeplitz solve."""

    E12 = np.array([[0, 1], [0, 0]], dtype=complex)
    F = {k: 0.3 * complex(k + 0.5, 1 - 0.25 * k * k) / 3 for k in range(-3, 3)}

    def pair(self):
        eye = np.eye(2, dtype=complex)
        g = {k: (eye if k == 0 else 0) + c * self.E12 for k, c in self.F.items()}
        return AnnulusLoop.from_coeff_dict(2, g)

    def part(self, k, negative):
        return self.F.get(k, 0) if (k < 0) == negative else 0

    def test_factors(self):
        w = build_wave_pair(self.pair(), [0, 0], {}, FRAME, PARAMS)
        eye = np.eye(2)
        for k in range(-PARAMS.M, 1):
            expect = (k == 0) * eye - self.part(k, True) * self.E12
            assert np.max(np.abs(w.u_minus.coeff(k) - expect)) <= 1e-13, k
        for k in range(0, w.p_plus.N + 1):
            expect = (k == 0) * eye + self.part(k, False) * self.E12
            assert np.max(np.abs(w.p_plus.coeff(k) - expect)) <= 1e-13, k

    def test_dressed_series(self):
        sol = extract_solution(build_wave_pair(self.pair(), [0, 0], {}, FRAME, PARAMS))
        e = np.array(E1C)
        a = e[0, 0]
        u, w = sol.u_series[0], sol.w_series[0]
        for k in range(-PARAMS.M, 1):
            expect = (k == 0) * e + 2 * a * self.part(k, True) * self.E12
            assert np.max(np.abs(np.array(u.coeff(k)) - expect)) <= 1e-13, k
        for k in range(-1, PARAMS.M):
            expect = (k == -1) * e - 2 * a * self.part(k + 1, False) * self.E12
            assert np.max(np.abs(np.array(w.coeff(k)) - expect)) <= 1e-13, k

    def test_fd_verify(self):
        checks = [("lax", 0, 1), ("lax", 1, 1), ("lax", 2, 1), ("zc", -1, 1, 1, 1)]
        rep = fd_verify(self.pair(), [0, 0], FRAME, {}, checks=checks, params=PARAMS)
        assert not rep.inconclusive and len(rep.residuals) == 4
        assert rep.max_residual() <= 1e-8, rep.residuals


class TestExtractSolution:
    def test_trivial_solution(self):
        w = build_wave_pair(AnnulusLoop.identity(2, 2), [0, 0], {"1,1": 0.2}, FRAME, PARAMS)
        sol = extract_solution(w)
        u1, w1 = sol.u_series[0], sol.w_series[0]
        assert u1.support() == [0] and u1.coeff(0) == E1C
        assert w1.support() == [-1] and w1.coeff(-1) == E1C

    def test_constant_term_and_traces(self):
        sol = extract_solution(small_pair(seed=12))
        u1 = sol.u_series[0]
        assert u1.coeff(0) == E1C  # exact: no cross terms reach power zero
        assert u1.max_trace_abs() < PARAMS.fact_tol
        assert sol.w_series[0].max_trace_abs() < PARAMS.fact_tol

    def test_solution_invariant_under_central_shift(self):
        s0 = extract_solution(small_pair(seed=13, l=(0, 0)))
        s1 = extract_solution(small_pair(seed=13, l=(2, 2)))
        for a, b in zip(s0.u_series, s1.u_series):
            assert max((a - b).max_abs(), 0.0) <= 10 * PARAMS.fact_tol

    def test_akns_identification_fd_oracle(self):
        # q, r from the extracted series satisfy the AKNS equations in the
        # flow parameters: independent second-order differences in t11, t21
        g = random_loop(2, 16, 0.1, seed=14)
        h = 1e-3

        def qr(tx, tt):
            flows = {"1,1": 0.1 + tx, "2,1": tt}
            sol = extract_solution(build_wave_pair(g, [0, 0], flows, FRAME, PARAMS))
            u11 = sol.u_series[0].coeff(-1)
            return u11[0][1], u11[1][0]

        q0, r0 = qr(0.0, 0.0)
        qxp, _ = qr(h, 0.0)
        qxm, _ = qr(-h, 0.0)
        qtp, _ = qr(0.0, h)
        qtm, _ = qr(0.0, -h)
        q_t = (qtp - qtm) / (2 * h)
        q_xx = (qxp - 2 * q0 + qxm) / (h * h)
        res_q = 1j * q_t + 0.5 * q_xx - q0 * q0 * r0
        assert abs(res_q) < 5e-5, abs(res_q)

    def test_connection_matches_cutoff(self):
        # solver wave factor + finite-difference factor derivative
        g = random_loop(2, 16, 0.1, seed=15)
        flows = FlowRecord({"1,1": 0.1, "-1,1": 0.05})
        h = 1e-4

        def u_series_at(v):
            w = build_wave_pair(g, [0, 0], flows.with_value(1, 1, 0.1 + v), FRAME, PARAMS)
            return to_series(w.u_minus, "z", (-2 * PARAMS.M, 0)), w

        up, _ = u_series_at(h)
        um, _ = u_series_at(-h)
        u0, w0 = u_series_at(0.0)
        dk = (up - um).smul(1.0 / (2 * h))
        psi = OscillatingMatrix(
            Side.INFINITY, u0, flows, exponent=ExponentVector([0, 0])
        )
        m_conn, ok = extract_connection(psi, 1, 1, FRAME, dfactor=dk, tol=1e-6)
        assert ok
        d = extract_solution(w0).as_deformation()
        b = cutoff(d, 1, 1)
        from looplax.loops import Region

        diff = m_conn.project(Region.GEQ0) - b
        assert diff.max_abs() < 1e-6

    def test_zero_side_connection_matches_cutoff(self):
        # mirrored check: the plus factor carries the negative-flow connection
        g = random_loop(2, 16, 0.1, seed=15)
        flows = FlowRecord({"1,1": 0.1, "-1,1": 0.05})
        h = 1e-4

        def p_series_at(v):
            w = build_wave_pair(
                g, [0, 0], flows.with_value(-1, 1, 0.05 + v), FRAME, PARAMS
            )
            full = to_series(w.p_plus, "zinv", (0, w.p_plus.N))
            return full.truncated(0, 2 * PARAMS.M), w

        pp, _ = p_series_at(h)
        pm, _ = p_series_at(-h)
        p0, w0 = p_series_at(0.0)
        dk = (pp - pm).smul(1.0 / (2 * h))
        phi = OscillatingMatrix(Side.ZERO, p0, flows, exponent=ExponentVector([0, 0]))
        m_conn, ok = extract_connection(phi, -1, 1, FRAME, dfactor=dk, tol=1e-6)
        assert ok
        d = extract_solution(w0).as_deformation()
        c = cutoff(d, -1, 1)
        from looplax.loops import Region

        diff = m_conn.project(Region.LT0) - c
        assert diff.max_abs() < 1e-6


def reference_dressing(w, depth):
    """The dressing through window-checked LoopSeries algebra: an oracle
    for the coefficient-array kernels of extract_solution."""
    M, frame = w.params.M, w.frame
    u = to_series(w.u_minus, "z", (-2 * M, 0))
    p = to_series(w.p_plus, "zinv", (0, w.p_plus.N)).truncated(0, 2 * M)
    u_inv, p_inv = u.invert(), p.invert()
    us, ws = [], []
    for alpha in range(1, frame.r + 1):
        e0 = frame.generator_series(alpha, 0, "z", numeric=True).as_total()
        ew = frame.generator_series(alpha, -1, "zinv", numeric=True).as_total()
        us.append(u.mul(e0).mul(u_inv).truncated(-depth, 0))
        ws.append(p.mul(ew).mul(p_inv).truncated(-1, depth - 1))
    return us, ws


class TestArrayDressing:
    @pytest.mark.parametrize(
        "n,N,M,grid,seed",
        [(2, 16, 12, 128, 41), (3, 24, 24, 128, 42)],
    )
    def test_matches_loop_series_reference(self, n, N, M, grid, seed):
        frame = make_frame("diagonal", n)
        params = SolverParams(N=N, M=M, grid=grid)
        g = random_loop(n, N, 0.1, seed=seed)
        w = build_wave_pair(g, [0] * n, {"1,1": 0.1, "-1,1": 0.05}, frame, params)
        for depth in (1, M, 2 * M):
            sol = extract_solution(w, depth=depth)
            ref_u, ref_w = reference_dressing(w, depth)
            for got, ref in zip(sol.u_series + sol.w_series, ref_u + ref_w):
                assert got.window == ref.window and got.direction == ref.direction
                assert got.support() == ref.support()
                assert (got - ref).max_abs() <= 1e-13, (depth, (got - ref).max_abs())

    @pytest.mark.parametrize("kind,n", [("diagonal", 2), ("diagonal", 3), ("unipotent", 3)])
    def test_identity_loop_gives_frame_exactly(self, kind, n):
        frame = make_frame(kind, n)
        w = build_wave_pair(AnnulusLoop.identity(n, 2), [0] * n, {"1,1": 0.2}, frame, PARAMS)
        sol = extract_solution(w)
        for alpha, (u, ws) in enumerate(zip(sol.u_series, sol.w_series), start=1):
            e = tuple(tuple(complex(x) for x in row) for row in frame.generator(alpha))
            assert u.support() == [0] and u.coeff(0) == e
            assert ws.support() == [-1] and ws.coeff(-1) == e

    def test_depth_beyond_twice_m_underflows(self):
        w = small_pair(seed=43)
        assert extract_solution(w, depth=2 * PARAMS.M).window == (-24, 23)
        with pytest.raises(WindowUnderflow):
            extract_solution(w, depth=2 * PARAMS.M + 1)

    def test_depth_zero_is_honoured(self):
        sol = extract_solution(small_pair(seed=44), depth=0)
        assert sol.u_series[0].window == (0, 0)
        assert sol.w_series[0].window == (-1, -1)


class TestParamValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"N": 0},
            {"M": 0},
            {"fact_tol": 0.0},
            {"cond_max": -1.0},
            {"tail_tol": float("nan")},
            {"fact_tol": float("inf")},
        ],
    )
    def test_rejects_degenerate_params(self, kw):
        with pytest.raises(ValueError):
            SolverParams(**kw)

    @pytest.mark.parametrize("h", [0.0, -1e-4, float("nan"), float("inf")])
    def test_fd_verify_rejects_bad_step(self, h):
        with pytest.raises(ValueError):
            fd_verify(
                AnnulusLoop.identity(2, 2), [0, 0], FRAME, {"1,1": 0.1},
                checks=[("lax", 1, 1)], h=h, params=PARAMS,
            )


class TestFdVerify:
    def test_trivial_all_exact_zero(self):
        rep = fd_verify(
            AnnulusLoop.identity(2, 2),
            [0, 0],
            FRAME,
            {"1,1": 0.3, "-1,1": 0.1},
            checks=[("lax", 0, 1), ("lax", 1, 1), ("lax", 2, 1), ("zc", -1, 1, 1, 1)],
            params=PARAMS,
        )
        assert rep.residuals and all(v == 0.0 for v in rep.residuals.values())

    def test_random_loop_residuals(self):
        g = random_loop(2, 16, 0.1, seed=16)
        rep = fd_verify(
            g,
            [0, 0],
            FRAME,
            {"1,1": 0.1, "-1,1": 0.05},
            checks=[("lax", 1, 1), ("zc", -1, 1, 1, 1)],
            params=PARAMS,
        )
        assert rep.max_residual() < 1e-6

    def test_unknown_check_kind(self):
        with pytest.raises(ValueError):
            fd_verify(
                AnnulusLoop.identity(2, 1), [0, 0], FRAME, {}, checks=[("nope", 1)], params=PARAMS
            )


class TestReduce:
    def test_trivial_standard(self):
        w = build_wave_pair(AnnulusLoop.identity(2, 1), [0, 0], {"1,1": 0.2}, FRAME, PARAMS)
        sol = reduce_subhierarchy(w, "standard")
        assert sol.kind is HierarchyKind.STANDARD and sol.w_series is None
        assert sol.u_series[0].coeff(0) == E1C

    def test_strict_leading_term(self):
        g = random_loop(2, 16, 0.1, seed=17)
        w = build_wave_pair(g, [0, 0], {"-1,1": 0.07, "-2,1": 0.02}, FRAME, PARAMS)
        sol = reduce_subhierarchy(w, "strict")
        v1 = sol.u_series[0]
        assert v1.direction == "z" and max(v1.support()) == 1
        p0 = np.array(w.p_plus.coeff(0))
        expect = p0 @ np.array(E1C) @ np.linalg.inv(p0)
        assert np.max(np.abs(np.array(v1.coeff(1)) - expect)) < 1e-10

    def test_flow_support_violation(self):
        g = random_loop(2, 16, 0.1, seed=18)
        w = build_wave_pair(g, [0, 0], {"-1,1": 0.07, "1,1": 0.1}, FRAME, PARAMS)
        with pytest.raises(FlowSupportViolation):
            reduce_subhierarchy(w, "standard")
        with pytest.raises(FlowSupportViolation):
            reduce_subhierarchy(w, "strict")

    def test_standard_reduction_verifies(self):
        g = random_loop(2, 16, 0.1, seed=19)
        flows = {"1,1": 0.1, "2,1": 0.05}
        rep = fd_verify(g, [0, 0], FRAME, flows, checks=[("lax", 1, 1)], params=PARAMS)
        assert rep.max_residual() < 1e-6
        w = build_wave_pair(g, [0, 0], flows, FRAME, PARAMS)
        sol = reduce_subhierarchy(w, "standard")
        assert sol.u_series[0].max_trace_abs() < PARAMS.fact_tol


class TestCommutativityNumeric:
    def test_dressed_families_commute(self):
        f3 = make_frame("diagonal", 3)
        g = random_loop(3, 16, 0.1, seed=20)
        w = build_wave_pair(g, [0, 0, 0], {"1,1": 0.1}, f3, PARAMS)
        sol = extract_solution(w)
        u1, u2 = sol.u_series
        assert u1.bracket(u2).max_abs() < 10 * PARAMS.fact_tol
        w1, w2 = sol.w_series
        assert w1.bracket(w2).max_abs() < 10 * PARAMS.fact_tol


class TestCorollaryNumeric:
    def test_corollary_residual_fd(self):
        # complementary parts satisfy their own zero-curvature relations
        from looplax.hierarchy import corollary_part, corollary_residual

        g = random_loop(2, 16, 0.1, seed=23)
        flows = FlowRecord({"1,1": 0.1, "2,1": 0.05})
        h = 1e-4

        def deformation_at(fl):
            return extract_solution(build_wave_pair(g, [0, 0], fl, FRAME, PARAMS)).as_deformation()

        d = deformation_at(flows)

        def fd_part(part_m, part_a, m, a):
            def central(step):
                fp = flows.with_value(m, a, flows.get((m, a), 0.0) + step)
                fm = flows.with_value(m, a, flows.get((m, a), 0.0) - step)
                return (
                    corollary_part(deformation_at(fp), part_m, part_a)
                    - corollary_part(deformation_at(fm), part_m, part_a)
                ).smul(1.0 / (2 * step))

            d1, d2 = central(h), central(h / 2)
            return d2.smul(4.0 / 3.0) - d1.smul(1.0 / 3.0)

        m1, a1, m2, a2 = 1, 1, 2, 1
        d1 = fd_part(m2, a2, m1, a1)
        d2 = fd_part(m1, a1, m2, a2)
        res = corollary_residual(d, m1, a1, m2, a2, d1, d2)
        assert res.max_abs() < 1e-6, res.max_abs()


class TestFrameConjugation:
    def test_residuals_agree_numerically(self):
        # conjugated solutions produce the conjugated residuals
        from looplax.hierarchy import frame_conjugate
        from looplax.loops import mat_inv, mat_mul
        from looplax.scalars import GaussianRational

        g = random_loop(2, 16, 0.1, seed=24)
        flows = FlowRecord({"1,1": 0.1, "-1,1": 0.05})
        h = 1e-4
        g0 = (
            (GaussianRational(2), GaussianRational(1)),
            (GaussianRational(1), GaussianRational(1)),
        )

        def solution_at(fl):
            return extract_solution(build_wave_pair(g, [0, 0], fl, FRAME, PARAMS))

        d = solution_at(flows).as_deformation()

        def fd_u(m, a):
            def central(step):
                fp = flows.with_value(m, a, flows.get((m, a), 0.0) + step)
                fm = flows.with_value(m, a, flows.get((m, a), 0.0) - step)
                return (
                    solution_at(fp).u_series[0] - solution_at(fm).u_series[0]
                ).smul(1.0 / (2 * step))

            d1, d2 = central(h), central(h / 2)
            return d2.smul(4.0 / 3.0) - d1.smul(1.0 / 3.0)

        deriv = fd_u(1, 1)
        from looplax.hierarchy import lax_residual

        res = lax_residual(d, 1, 1, 1, deriv)
        d_conj = frame_conjugate(d, g0)
        g0c = tuple(tuple(complex(x) for x in row) for row in g0)
        g0ci = mat_inv(g0c)
        deriv_conj = deriv.map_coeffs(lambda m_: mat_mul(mat_mul(g0c, m_), g0ci))
        res_conj = lax_residual(d_conj, 1, 1, 1, deriv_conj)
        expected = res.map_coeffs(lambda m_: mat_mul(mat_mul(g0c, m_), g0ci))
        assert (res_conj - expected).max_abs() < 1e-9
        assert res_conj.max_abs() < 1e-6


class TestZeroTimeNormalization:
    def test_fd_zero_time_derivative_vanishes(self):
        # after the zero-time conjugation the degree-0 flow derivative drops
        from looplax.hierarchy import zero_time_normalize

        g = random_loop(2, 16, 0.1, seed=25)
        h = 1e-4

        def normalized_u(t0):
            flows = FlowRecord({"0,1": t0, "1,1": 0.1})
            w = build_wave_pair(g, [0, 0], flows, FRAME, PARAMS)
            sol = extract_solution(w)
            from looplax.hierarchy import Deformation, HierarchyKind

            d = Deformation(HierarchyKind.STANDARD, FRAME, sol.u_series, tol=1e-8)
            return zero_time_normalize(d, [t0]).series[0]

        base = 0.07
        dhat = (normalized_u(base + h) - normalized_u(base - h)).smul(1.0 / (2 * h))
        assert dhat.max_abs() < 1e-6, dhat.max_abs()


class TestInconclusive:
    def test_big_cell_exit_marks_inconclusive(self, monkeypatch):
        # force the factorization to fail away from the base flows
        import looplax.solver as solver_mod

        base_value = 0.1
        real = solver_mod.birkhoff_factorize

        def flaky(loop, M, fact_tol=1e-10, cond_max=1e10):
            if abs(flaky_flows["current"] - base_value) > 1e-9:
                raise BigCellViolation("synthetic boundary")
            return real(loop, M, fact_tol=fact_tol, cond_max=cond_max)

        flaky_flows = {"current": base_value}
        real_build = solver_mod.build_wave_pair

        def tracking_build(g, l, flows, frame, params=None):
            flaky_flows["current"] = FlowRecord(flows).get((1, 1), 0.0)
            return real_build(g, l, flows, frame, params)

        monkeypatch.setattr(solver_mod, "birkhoff_factorize", flaky)
        g = random_loop(2, 16, 0.1, seed=26)
        monkeypatch.setattr(solver_mod, "build_wave_pair", tracking_build)
        rep = solver_mod.fd_verify(
            g, [0, 0], FRAME, {"1,1": base_value}, checks=[("lax", 1, 1)], params=PARAMS
        )
        assert rep.residuals == {}
        assert rep.inconclusive == ["lax:1,1"]

from fractions import Fraction

import pytest

from looplax.errors import (
    DependentBasis,
    IndexOutOfRange,
    NotCommuting,
    NotTraceless,
    ShapeViolation,
)
from looplax.hierarchy import (
    Deformation,
    _const_exp,
    HierarchyKind,
    akns_frame,
    akns_reduce,
    corollary_lax_derivative,
    corollary_part,
    corollary_residual,
    cutoff,
    cutoff_lax_derivative,
    deform,
    frame_conjugate,
    lax_residual,
    lax_rhs,
    make_frame,
    zc_residual,
    zero_time_normalize,
)
from looplax.loops import LoopSeries, exp_neg, mat_complex, mat_mul
from looplax.scalars import DerivationSymbol, DiffPoly, GaussianRational, I

from conftest import gr_eye, rand_mat


def random_negative_witness(rng, n, depth):
    coeffs = {0: gr_eye(n)}
    coeffs.update({k: rand_mat(rng, n) for k in range(-depth, 0)})
    return LoopSeries(n, coeffs, (-depth, 0))


def random_leq_witness(rng, n, depth):
    while True:
        coeffs = {k: rand_mat(rng, n) for k in range(-depth, 1)}
        try:
            s = LoopSeries(n, coeffs, (-depth, 0))
            s.invert()
            return s
        except Exception:
            continue


def random_geq_witness(rng, n, depth):
    while True:
        coeffs = {k: rand_mat(rng, n) for k in range(0, depth + 1)}
        try:
            s = LoopSeries(n, coeffs, (0, depth), direction="zinv")
            s.invert()
            return s
        except Exception:
            continue


class TestFrames:
    def test_unipotent_n3(self):
        f = make_frame("unipotent", 3)
        assert f.r == 2
        b = f.generator(1)
        b2 = f.generator(2)
        assert mat_mul(b, b) == b2
        assert mat_mul(b, b2) == mat_mul(b2, b)

    def test_diagonal_akns(self):
        f = akns_frame()
        assert f.generator(1) == (
            (GaussianRational(0, -1), GaussianRational(0)),
            (GaussianRational(0), GaussianRational(0, 1)),
        )

    def test_degenerate_custom_accepted(self):
        # E12 is traceless and commutes with itself: a valid rank-1 frame
        e12 = ((0, 1), (0, 0))
        f = make_frame("custom", 2, basis=[e12])
        assert f.r == 1

    def test_rejections(self):
        with pytest.raises(NotTraceless):
            make_frame("custom", 2, basis=[((1, 0), (0, 1))])
        with pytest.raises(NotCommuting):
            make_frame("custom", 2, basis=[((1, 0), (0, -1)), ((0, 1), (0, 0))])
        with pytest.raises(DependentBasis):
            make_frame("custom", 2, basis=[((0, 1), (0, 0)), ((0, 2), (0, 0))])


class TestDeform:
    def test_trivial_is_undeformed(self):
        d = Deformation.trivial(HierarchyKind.STANDARD, akns_frame(), depth=4)
        assert d.series[0].support() == [0]
        assert d.series[0].coeff(0) == akns_frame().generator(1)

    def test_witness_identity_gives_trivial(self):
        f = akns_frame()
        wit = LoopSeries.identity(2, (-4, 0))
        d = deform(HierarchyKind.STANDARD, f, wit)
        assert d.series[0].equals(
            LoopSeries.monomial(f.generator(1), 0, (-4, 0))
        )

    def test_first_order_entries(self, rng):
        # the z^-1 coefficient of the dressed generator is the bracket with E1
        f = akns_frame()
        x1 = rand_mat(rng, 2)
        wit = exp_neg(LoopSeries.monomial(x1, -1, (-3, -1)))
        d = deform(HierarchyKind.STANDARD, f, wit)
        u = d.series[0]
        e1 = f.generator(1)
        com = tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(mat_mul(x1, e1), mat_mul(e1, x1))
        )
        assert u.coeff(-1) == com

    def test_combined_constant_witness(self, rng):
        # constant invertible X: W = X E X^-1 z^-1 by centrality
        f = akns_frame()
        k = ((GaussianRational(1), GaussianRational(1)), (GaussianRational(0), GaussianRational(1)))
        wit_w = LoopSeries.monomial(k, 0, (0, 3), direction="zinv")
        d = deform(HierarchyKind.COMBINED, f, None, wit_w)
        w = d.series_w[0]
        from looplax.loops import mat_inv

        expect = mat_mul(mat_mul(k, f.generator(1)), mat_inv(k))
        assert w.support() == [-1] and w.coeff(-1) == expect

    def test_shape_violation_on_bad_series(self):
        f = akns_frame()
        bad = LoopSeries.monomial(f.generator(1), 1, (-2, 1))  # positive power
        with pytest.raises(ShapeViolation):
            Deformation(HierarchyKind.STANDARD, f, [bad])

    def test_witness_group_check(self, rng):
        f = akns_frame()
        not_unip = LoopSeries(2, {0: rand_mat(rng, 2), -1: rand_mat(rng, 2)}, (-2, 0))
        with pytest.raises(ShapeViolation):
            deform(HierarchyKind.STANDARD, f, not_unip)

    @pytest.mark.parametrize("kind", [HierarchyKind.STANDARD, HierarchyKind.STRICT])
    def test_witness_w_needs_the_combined_kind(self, kind):
        # the W witness used to be dropped: series_w=None, no error
        wit_w = LoopSeries.identity(2, (0, 3), direction="zinv")
        for wit in (None, LoopSeries.identity(2, (-3, 0))):
            with pytest.raises(ShapeViolation, match=f"witness_w .* {kind.value} kind lacks"):
                deform(kind, akns_frame(), wit, wit_w)


class TestCutoff:
    def test_trivial_cutoffs(self):
        f = akns_frame()
        d = Deformation.trivial(HierarchyKind.STANDARD, f, depth=4)
        for m in range(3):
            b = cutoff(d, m, 1)
            assert b.support() == [m] and b.coeff(m) == f.generator(1)

    def test_akns_cutoff_structure(self, rng):
        f = akns_frame()
        wit = random_negative_witness(rng, 2, 4)
        d = deform(HierarchyKind.STANDARD, f, wit)
        u = d.series[0]
        b1 = cutoff(d, 1, 1)
        assert b1.coeff(1) == f.generator(1) and b1.coeff(0) == u.coeff(-1)
        b2 = cutoff(d, 2, 1)
        assert b2.coeff(2) == f.generator(1)
        assert b2.coeff(1) == u.coeff(-1) and b2.coeff(0) == u.coeff(-2)

    def test_combined_negative_cutoff_trivial(self):
        f = akns_frame()
        d = Deformation.trivial(HierarchyKind.COMBINED, f, depth=4)
        c = cutoff(d, -1, 1)
        assert c.direction == "zinv"
        assert c.support() == [-1] and c.coeff(-1) == f.generator(1)

    def test_range_errors(self):
        d = Deformation.trivial(HierarchyKind.STANDARD, akns_frame(), depth=3)
        with pytest.raises(IndexOutOfRange):
            cutoff(d, -1, 1)
        ds = Deformation.trivial(HierarchyKind.STRICT, akns_frame(), depth=3)
        with pytest.raises(IndexOutOfRange):
            cutoff(ds, 0, 1)

    # the splitting written out independently of the code: kind -> m ->
    # (family, shift, is the power kept by the cut-off?)
    SPLIT = {
        HierarchyKind.STANDARD: lambda m: ("u", m, lambda k: k >= 0),
        HierarchyKind.STRICT: lambda m: ("v", m - 1, lambda k: k > 0),
        HierarchyKind.COMBINED: lambda m: (
            ("u", m, lambda k: k >= 0) if m >= 0 else ("w", m + 1, lambda k: k < 0)
        ),
    }
    # every m of the criterion-2 pair lists
    VALID_M = {
        HierarchyKind.STANDARD: (0, 1, 2),
        HierarchyKind.STRICT: (1, 2),
        HierarchyKind.COMBINED: (-2, -1, 0, 1, 2),
    }

    @pytest.mark.parametrize("frame_kind, n", [("diagonal", 2), ("unipotent", 3)])
    @pytest.mark.parametrize("kind", list(HierarchyKind), ids=lambda k: k.value)
    def test_cutoff_minus_corollary_is_shifted_target(self, rng, frame_kind, n, kind):
        f = make_frame(frame_kind, n)
        if kind is HierarchyKind.STANDARD:
            d = deform(kind, f, random_negative_witness(rng, n, 3))
        elif kind is HierarchyKind.STRICT:
            d = deform(kind, f, random_leq_witness(rng, n, 3))
        else:
            d = deform(
                kind, f, random_negative_witness(rng, n, 3), random_geq_witness(rng, n, 3)
            )
        zero = ((0,) * n,) * n
        for m in self.VALID_M[kind]:
            family, shift, kept = self.SPLIT[kind](m)
            for alpha in range(1, f.r + 1):
                target = d.target(family, alpha)
                cut, cor = cutoff(d, m, alpha), corollary_part(d, m, alpha)
                assert all(kept(k) for k in cut.support())
                assert not any(kept(k) for k in cor.support())
                for k in range(target.lo + shift, target.hi + shift + 1):
                    a = cut.coeffs.get(k, zero)
                    b = cor.coeffs.get(k, zero)
                    diff = tuple(
                        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
                    )
                    assert diff == target.coeff(k - shift), (m, alpha, k)

    @pytest.mark.parametrize(
        "kind, cut_m",
        [(HierarchyKind.STANDARD, -1), (HierarchyKind.STRICT, 0), (HierarchyKind.STRICT, -1)],
    )
    def test_lax_derivatives_reject_out_of_range_cut(self, kind, cut_m):
        d = Deformation.trivial(kind, akns_frame(), depth=3)
        for fn in (cutoff_lax_derivative, corollary_lax_derivative):
            with pytest.raises(IndexOutOfRange):
                fn(d, 1, 1, cut_m, 1)


class TestLaxResidual:
    def test_trivial_solution_flat(self):
        f = make_frame("unipotent", 3)
        d = Deformation.trivial(HierarchyKind.STANDARD, f, depth=4)
        zero = LoopSeries.zeros(3, (-4, 0))
        for m in range(3):
            for a1 in (1, 2):
                for a2 in (1, 2):
                    assert lax_residual(d, m, a1, a2, zero).is_zero()

    def test_degree_zero_flow_is_frame_bracket(self, rng):
        f = akns_frame()
        d = deform(HierarchyKind.STANDARD, f, random_negative_witness(rng, 2, 4))
        rhs = lax_rhs(d, 0, 1, "u", 1)
        e1 = LoopSeries.monomial(f.generator(1), 0, (-4, 0))
        direct = e1.as_total().bracket(d.series[0])
        assert rhs.equals(direct)

    def test_off_diagonal_forcing(self):
        # z^1 component of the order-(2,1) relation pins u12, u21
        x = DerivationSymbol(1, 1)
        rep = akns_reduce()
        q = DiffPoly.indeterminate("q")
        r = DiffPoly.indeterminate("r")
        half_i = GaussianRational(0, Fraction(1, 2))
        assert rep.u12 == half_i * q.derive(x)
        assert rep.u21 == -(half_i * r.derive(x))

    def test_shape_preservation(self, rng):
        # [B_m, U] never exceeds order m; at order m it is [E, U0] = 0
        f = akns_frame()
        d = deform(HierarchyKind.STANDARD, f, random_negative_witness(rng, 2, 4))
        for m in range(3):
            rhs = lax_rhs(d, m, 1, "u", 1)
            assert all(k <= m - 1 for k in rhs.support()), rhs.support()


class TestZeroCurvature:
    @pytest.mark.parametrize("n,kindname", [(2, "standard"), (3, "standard"), (2, "strict"), (3, "strict")])
    def test_lax_implies_zc(self, rng, n, kindname):
        kind = HierarchyKind(kindname)
        frame = make_frame("diagonal", n) if n == 2 else make_frame("unipotent", n)
        for trial in range(4):
            if kind is HierarchyKind.STANDARD:
                d = deform(kind, frame, random_negative_witness(rng, n, 4))
                pairs = [(0, 1, 1, 1), (1, 1, 2, 1)]
            else:
                d = deform(kind, frame, random_leq_witness(rng, n, 4))
                pairs = [(1, 1, 2, 1), (2, 1, 2, 1)]
            for m1, a1, m2, a2 in pairs:
                d1 = cutoff_lax_derivative(d, m1, a1, m2, a2)
                d2 = cutoff_lax_derivative(d, m2, a2, m1, a1)
                assert zc_residual(d, m1, a1, m2, a2, d1, d2).is_zero()

    def test_combined_mixed_relation(self, rng):
        frame = akns_frame()
        for trial in range(4):
            d = deform(
                HierarchyKind.COMBINED,
                frame,
                random_negative_witness(rng, 2, 4),
                random_geq_witness(rng, 2, 4),
            )
            for m1, a1, m2, a2 in [(-1, 1, 1, 1), (-2, 1, 2, 1), (-1, 1, 0, 1)]:
                d1 = cutoff_lax_derivative(d, m1, a1, m2, a2)
                d2 = cutoff_lax_derivative(d, m2, a2, m1, a1)
                assert zc_residual(d, m1, a1, m2, a2, d1, d2).is_zero()

    def test_negative_pair_residual_sees_z_inverse(self, rng):
        # both cut-offs of (-2, 1, -1, 1) are polynomials, and d_1(C_2) has
        # support at z^-1: a derivative wrong only there must show
        d = deform(
            HierarchyKind.COMBINED,
            akns_frame(),
            random_negative_witness(rng, 2, 4),
            random_geq_witness(rng, 2, 4),
        )
        m1, a1, m2, a2 = -2, 1, -1, 1
        d1 = cutoff_lax_derivative(d, m1, a1, m2, a2)
        d2 = cutoff_lax_derivative(d, m2, a2, m1, a1)
        assert zc_residual(d, m1, a1, m2, a2, d1, d2).is_zero()
        bump = LoopSeries.monomial(((0, GaussianRational(1)), (0, 0)), -1, direction="zinv")
        assert not zc_residual(d, m1, a1, m2, a2, d1 + bump, d2).is_zero()

    def test_corollary_parts_vanish(self, rng):
        frame = akns_frame()
        d = deform(HierarchyKind.STANDARD, frame, random_negative_witness(rng, 2, 5))
        a = corollary_part(d, 2, 1)
        assert all(k < 0 for k in a.support())
        for m1, a1, m2, a2 in [(0, 1, 1, 1), (1, 1, 1, 1), (1, 1, 2, 1)]:
            d1 = corollary_lax_derivative(d, m1, a1, m2, a2)
            d2 = corollary_lax_derivative(d, m2, a2, m1, a1)
            assert corollary_residual(d, m1, a1, m2, a2, d1, d2).is_zero()

    def test_corollary_mixed_flows_rejected(self, rng):
        d = deform(
            HierarchyKind.COMBINED,
            akns_frame(),
            random_negative_witness(rng, 2, 4),
            random_geq_witness(rng, 2, 4),
        )
        zero = LoopSeries.zeros(2, (-4, 0))
        with pytest.raises(IndexOutOfRange):
            corollary_residual(d, -1, 1, 1, 1, zero, zero)

    def test_perturbed_cutoff_breaks_lax(self, rng):
        # faithfulness at the exact level: a single nonzero tweak of a cut-off
        # coefficient makes the Lax-substituted residual nonzero
        frame = akns_frame()
        d = deform(HierarchyKind.STANDARD, frame, random_negative_witness(rng, 2, 4))
        m = 1
        good = cutoff(d, m, 1)
        deriv = lax_rhs(d, m, 1, "u", 1)
        assert lax_residual(d, m, 1, 1, deriv).is_zero()
        tweaked = dict(good.coeffs)
        row = [list(r) for r in tweaked[1]]
        row[0][1] = row[0][1] + GaussianRational(Fraction(1, 1000))
        tweaked[1] = tuple(tuple(r) for r in row)
        bad = LoopSeries(2, tweaked, good.window)
        assert not lax_residual(d, m, 1, 1, deriv, cutoff_series=bad).is_zero()


class TestDressedFamilies:
    def test_pairwise_commutativity(self, rng):
        f = make_frame("unipotent", 3)
        for _ in range(10):
            d = deform(HierarchyKind.STANDARD, f, random_negative_witness(rng, 3, 4))
            u1, u2 = d.series
            assert u1.bracket(u2).is_zero()

    def test_w_family_commutativity(self, rng):
        f = make_frame("diagonal", 3)
        for _ in range(5):
            d = deform(
                HierarchyKind.COMBINED,
                f,
                random_negative_witness(rng, 3, 4),
                random_geq_witness(rng, 3, 4),
            )
            w1, w2 = d.series_w
            assert w1.bracket(w2).is_zero()


class TestAknsReduce:
    def test_dressing_rows(self):
        rep = akns_reduce()
        b1 = DiffPoly.indeterminate("beta1")
        g1 = DiffPoly.indeterminate("gamma1")
        assert rep.q == (2 * I) * b1
        assert rep.r == (-2 * I) * g1

    def test_diagonal_entries(self):
        rep = akns_reduce()
        q = DiffPoly.indeterminate("q")
        r = DiffPoly.indeterminate("r")
        half_i = GaussianRational(0, Fraction(1, 2))
        assert rep.u11 == -(half_i * q * r)
        assert rep.u22 == half_i * q * r

    def test_pdes(self):
        rep = akns_reduce()
        x, t = DerivationSymbol(1, 1), DerivationSymbol(2, 1)
        q = DiffPoly.indeterminate("q")
        r = DiffPoly.indeterminate("r")
        half = Fraction(1, 2)
        assert rep.pde_q == (I * q.derive(t), -half * q.derive(x).derive(x) + q * q * r)
        assert rep.pde_r == (I * r.derive(t), half * r.derive(x).derive(x) - q * r * r)

    def test_report_json(self):
        obj = akns_reduce().to_obj()
        assert set(obj) == {"q", "r", "u11", "u12", "u21", "u22", "pde_q", "pde_r"}
        assert DiffPoly.from_obj(obj["pde_q"]["rhs"]) == akns_reduce().pde_q[1]


class TestTransport:
    def test_frame_conjugate_identity(self, rng):
        d = deform(HierarchyKind.STANDARD, akns_frame(), random_negative_witness(rng, 2, 3))
        d2 = frame_conjugate(d, gr_eye(2))
        assert d2.series[0].equals(d.series[0])

    def test_frame_conjugate_roundtrip(self, rng):
        from looplax.loops import mat_inv

        d = deform(HierarchyKind.STANDARD, akns_frame(), random_negative_witness(rng, 2, 3))
        g0 = ((GaussianRational(1), GaussianRational(2)), (GaussianRational(0), GaussianRational(1)))
        d2 = frame_conjugate(d, g0)
        d3 = frame_conjugate(d2, mat_inv(g0))
        assert d3.series[0].equals(d.series[0])
        assert d3.frame == d.frame

    def test_frame_conjugate_preserves_residuals(self, rng):
        # the Lax-substituted residual stays identically zero for the new frame
        d = deform(HierarchyKind.STANDARD, akns_frame(), random_negative_witness(rng, 2, 4))
        g0 = ((GaussianRational(2), GaussianRational(1)), (GaussianRational(1), GaussianRational(1)))
        d2 = frame_conjugate(d, g0)
        d1_ = cutoff_lax_derivative(d2, 1, 1, 2, 1)
        d2_ = cutoff_lax_derivative(d2, 2, 1, 1, 1)
        assert zc_residual(d2, 1, 1, 2, 1, d1_, d2_).is_zero()

    def test_zero_time_all_zero_is_identity(self, rng):
        f = make_frame("unipotent", 3)
        d = deform(HierarchyKind.STANDARD, f, random_negative_witness(rng, 3, 3))
        d2 = zero_time_normalize(d, [0, 0])
        assert all(a.equals(b) for a, b in zip(d.series, d2.series))

    def test_zero_time_trivial_unchanged(self):
        f = make_frame("unipotent", 3)
        d = Deformation.trivial(HierarchyKind.STANDARD, f, depth=3)
        d2 = zero_time_normalize(d, [Fraction(1, 2), 3])
        assert all(a.equals(b) for a, b in zip(d.series, d2.series))

    def test_zero_time_exact_nilpotent(self, rng):
        f = make_frame("unipotent", 3)
        d = deform(HierarchyKind.STANDARD, f, random_negative_witness(rng, 3, 3))
        d2 = zero_time_normalize(d, [1, Fraction(1, 2)])
        # conjugation by a group element keeps the family commutative
        assert d2.series[0].bracket(d2.series[1]).is_zero()

    def test_zero_time_diagonal_needs_numeric(self, rng):
        d = deform(HierarchyKind.STANDARD, akns_frame(), random_negative_witness(rng, 2, 3))
        with pytest.raises(ValueError):
            zero_time_normalize(d, [1])

    def test_zero_time_numeric_on_exact_deformation(self):
        # the frame commutes with itself, so the trivial U comes back, as complex
        d = Deformation.trivial(HierarchyKind.STANDARD, akns_frame(), depth=2)
        d2 = zero_time_normalize(d, [0.3])
        expect = d.series[0].map_coeffs(mat_complex)
        assert d2.series[0].numeric
        assert (d2.series[0] - expect).max_abs() < 1e-12

    @pytest.mark.parametrize("t0", [20, 40j])
    def test_numeric_constant_exponential(self, t0):
        np = pytest.importorskip("numpy")
        expm = pytest.importorskip("scipy.linalg").expm
        x = t0 * np.array(mat_complex(akns_frame().basis[0]))
        ref = expm(x)
        got = np.array(_const_exp(mat_complex(x), exact=False))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestTrivialZeroCurvature:
    def test_symbolic_trivial_residuals(self):
        # every cut-off of the trivial solution is a frame monomial, so all
        # residual inputs vanish identically
        for kindname in ("standard", "strict", "combined"):
            kind = HierarchyKind(kindname)
            d = Deformation.trivial(kind, akns_frame(), depth=4)
            pairs = {
                "standard": [(0, 1, 1, 1), (1, 1, 2, 1)],
                "strict": [(1, 1, 2, 1)],
                "combined": [(-1, 1, 1, 1), (-1, 1, -2, 1)],
            }[kindname]
            for m1, a1, m2, a2 in pairs:
                d1 = cutoff_lax_derivative(d, m1, a1, m2, a2)
                d2 = cutoff_lax_derivative(d, m2, a2, m1, a1)
                assert d1.is_zero() and d2.is_zero()
                assert zc_residual(d, m1, a1, m2, a2, d1, d2).is_zero()

    def test_trivial_corollary_parts_vanish(self):
        d = Deformation.trivial(HierarchyKind.STANDARD, akns_frame(), depth=4)
        assert corollary_part(d, 2, 1).is_zero()

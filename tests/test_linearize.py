import pytest

from looplax.errors import IndexOutOfRange, SideMismatch
from looplax.hierarchy import HierarchyKind, akns_frame, cutoff, deform, make_frame
from looplax.linearize import (
    ExponentVector,
    FlowRecord,
    OscillatingMatrix,
    Side,
    extract_connection,
)
from looplax.loops import LoopSeries
from looplax.scalars import DerivationSymbol, DiffPoly, GaussianRational

from conftest import gr_eye, rand_mat


def sym_series(n, lo, hi, prefix, window=None, direction="z"):
    coeffs = {
        k: tuple(
            tuple(DiffPoly.indeterminate(f"{prefix}{k}_{i}{j}") for j in range(n))
            for i in range(n)
        )
        for k in range(lo, hi + 1)
    }
    return LoopSeries(n, coeffs, window or (lo, hi), direction)


class TestFlowRecord:
    def test_keys_and_values(self):
        fr = FlowRecord({"1,1": 0.3, (-1, 1): 0.1})
        assert fr.get((1, 1)) == 0.3
        assert fr.get((-1, 1)) == 0.1
        assert fr.get((5, 1)) == 0.0
        assert fr.support() == [(-1, 1), (1, 1)]

    def test_roundtrip(self):
        fr = FlowRecord({"2,1": 0.5})
        assert FlowRecord.from_obj(fr.to_obj()) == fr


class TestExponentVector:
    def test_diagonal_frame_accepts_all(self):
        f = akns_frame()
        assert ExponentVector([3, -1]).commutes_with_frame(f)

    def test_unipotent_frame_needs_constant(self):
        f = make_frame("unipotent", 3)
        assert ExponentVector([2, 2, 2]).commutes_with_frame(f)
        assert not ExponentVector([1, 0, 0]).commutes_with_frame(f)

    def test_module_actions_name_the_offending_entry(self):
        f = make_frame("unipotent", 3)
        psi = OscillatingMatrix.bare(Side.INFINITY, 3, exponent=ExponentVector([0, 0, 1]), depth=2)
        needle = r"E_1 has a nonzero \(2, 3\) entry but l_2 = 0 != l_3 = 1"
        with pytest.raises(IndexOutOfRange, match=needle):
            psi.right_frame(f, 1)
        with pytest.raises(IndexOutOfRange, match=needle):
            extract_connection(psi, 1, 1, f)

    def test_shift(self):
        assert ExponentVector([1, 0]).shifted(2) == ExponentVector([3, 2])


class TestModuleActions:
    def test_identity_acts_trivially(self):
        psi = OscillatingMatrix.bare(Side.INFINITY, 2, depth=3)
        k = LoopSeries.identity(2, (-3, 0))
        assert psi.act(k) == psi

    def test_right_frame_on_bare(self):
        f = akns_frame()
        psi = OscillatingMatrix.bare(Side.INFINITY, 2, depth=3)
        out = psi.right_frame(f, 1)
        assert out.factor.coeff(0) == f.generator(1)
        phi = OscillatingMatrix.bare(Side.ZERO, 2, depth=3)
        outz = phi.right_frame(f, 1)
        assert outz.factor.coeff(-1) == f.generator(1)

    def test_side_mismatch(self):
        psi = OscillatingMatrix.bare(Side.INFINITY, 2)
        k = LoopSeries.identity(2, (0, 3), direction="zinv")
        with pytest.raises(SideMismatch):
            psi.act(k)

    def test_associativity(self, rng):
        psi = OscillatingMatrix(Side.INFINITY, sym_series(2, -2, 0, "g"))
        k1 = LoopSeries(2, {k: rand_mat(rng, 2) for k in (-1, 0)}, (-2, 0))
        k2 = LoopSeries(2, {k: rand_mat(rng, 2) for k in (-2, 0)}, (-2, 0))
        left = psi.act(k2).act(k1)
        right = psi.act(k1.mul(k2))
        assert left.factor.equals(right.factor)


class TestDerive:
    def test_bare_derivative_is_flow_monomial(self):
        # the flow derivative of the bare generator is E_alpha z^m
        f = akns_frame()
        psi = OscillatingMatrix.bare(Side.INFINITY, 2, depth=3)
        out = psi.derive(DerivationSymbol(2, 1), f)
        assert out.factor.support() == [2]
        assert out.factor.coeff(2) == f.generator(1)

    def test_constant_numeric_factor(self):
        f = akns_frame()
        k = ((1 + 0j, 2 + 0j), (0j, 1 + 0j))
        psi = OscillatingMatrix(Side.INFINITY, LoopSeries.monomial(k, 0, (-3, 0)))
        out = psi.derive(DerivationSymbol(1, 1), f)
        e = tuple(tuple(complex(x) for x in row) for row in f.generator(1))
        from looplax.loops import mat_mul

        assert out.factor.coeff(1) == mat_mul(k, e)

    def test_product_rule(self, rng):
        # derive(act(k, psi)) = act(dk, psi) + act(k, derive(psi))
        f = akns_frame()
        sym = DerivationSymbol(1, 1)
        psi = OscillatingMatrix(Side.INFINITY, sym_series(2, -2, 0, "g"))
        k = sym_series(2, -2, 0, "k")
        from looplax.linearize import _derive_series

        lhs = psi.act(k).derive(sym, f)
        rhs = OscillatingMatrix(
            Side.INFINITY, _derive_series(k, sym).mul(psi.factor), psi.flows
        ) + psi.derive(sym, f).act(k)
        assert lhs.factor.equals(rhs.factor)


class TestExtractConnection:
    def test_trivial_typed_element(self):
        f = akns_frame()
        psi = OscillatingMatrix.bare(
            Side.INFINITY, 2, exponent=ExponentVector([0, 0]), depth=4
        )
        m, ok = extract_connection(psi, 2, 1, f)
        assert ok
        assert m.support() == [2] and m.coeff(2) == f.generator(1)

    def test_zero_side_trivial(self):
        f = akns_frame()
        phi = OscillatingMatrix.bare(
            Side.ZERO, 2, exponent=ExponentVector([0, 0]), depth=4
        )
        m, ok = extract_connection(phi, -1, 1, f)
        assert ok
        assert m.support() == [-1] and m.coeff(-1) == f.generator(1)

    def test_constructed_counterexample(self):
        # factor Id + N z^-1 with free symbolic N: d(N) leaks below zero
        f = akns_frame()
        n_mat = tuple(
            tuple(DiffPoly.indeterminate(f"n{i}{j}") for j in range(2)) for i in range(2)
        )
        k = LoopSeries(2, {0: gr_eye(2), -1: n_mat}, (-4, 0))
        psi = OscillatingMatrix(Side.INFINITY, k, exponent=ExponentVector([0, 0]))
        m, ok = extract_connection(psi, 1, 1, f)
        assert not ok

    def test_constant_nontrivial_factor_is_rejected(self, rng):
        # a flow-independent dressed factor cannot satisfy the linearization
        # for m >= 1: without the d(k)k^{-1} term the negative tail survives
        from looplax.loops import exp_neg

        f = akns_frame()
        x = LoopSeries(2, {k: rand_mat(rng, 2) for k in (-2, -1)}, (-4, -1))
        wit = exp_neg(x)
        psi = OscillatingMatrix(Side.INFINITY, wit, exponent=ExponentVector([0, 0]))
        m, ok = extract_connection(psi, 1, 1, f)
        assert not ok
        # the nonnegative part still agrees with the cut-off of the dressing
        d = deform(HierarchyKind.STANDARD, f, wit)
        from looplax.loops import Region

        assert m.project(Region.GEQ0).equals(cutoff(d, 1, 1))

    def test_untyped_rejected(self):
        f = akns_frame()
        psi = OscillatingMatrix.bare(Side.INFINITY, 2)
        with pytest.raises(SideMismatch):
            extract_connection(psi, 1, 1, f)

    def test_typedness_classification(self, rng):
        f = akns_frame()
        good = OscillatingMatrix.bare(
            Side.INFINITY, 2, exponent=ExponentVector([1, 1]), depth=2
        )
        assert good.is_typed()
        bad_factor = LoopSeries(2, {0: rand_mat(rng, 2)}, (-2, 0))
        untyped = OscillatingMatrix(
            Side.INFINITY, bad_factor, exponent=ExponentVector([0, 0])
        )
        assert not untyped.is_typed()

    def test_zero_side_needs_invertible_constant(self, rng):
        # the same group test as deform's z^{-1}-graded witness
        g = GaussianRational
        singular = ((g(1), g(2)), (g(2), g(4)))
        for const, typed in ((gr_eye(2), True), (singular, False)):
            factor = LoopSeries(2, {0: const, 1: rand_mat(rng, 2)}, (0, 2), "zinv")
            phi = OscillatingMatrix(Side.ZERO, factor, exponent=ExponentVector([0, 0]))
            assert phi.is_typed() is typed


class TestScratchLegitimacy:
    def test_invertible_action_undoes(self, rng):
        # acting by an invertible loop is reversible on the module
        psi = OscillatingMatrix(Side.INFINITY, sym_series(2, -2, 0, "g"))
        coeffs = {0: gr_eye(2), -1: rand_mat(rng, 2), -2: rand_mat(rng, 2)}
        k = LoopSeries(2, coeffs, (-2, 0))
        out = psi.act(k).act(k.invert())
        assert out.factor.equals(psi.factor)

    def test_equal_factors_mean_equal_elements(self):
        a = OscillatingMatrix.bare(Side.INFINITY, 2, exponent=ExponentVector([1, 1]))
        b = OscillatingMatrix.bare(Side.INFINITY, 2, exponent=ExponentVector([1, 1]))
        assert a == b
        c = OscillatingMatrix.bare(Side.INFINITY, 2, exponent=ExponentVector([2, 2]))
        assert a != c

"""The linearization: the data of psi = k delta(l) psi0 (flow parameters
and twist) and its connection along a flow, read off the dressing."""

import pytest

from looplax.errors import IndexOutOfRange, ShapeViolation
from looplax.hierarchy import HierarchyKind, akns_frame, cutoff, deform, make_frame
from looplax.linearize import ExponentVector, FlowRecord, _derive_series, extract_connection
from looplax.loops import LoopSeries, Region, exp_neg, mat_complex, mat_inv, mat_mul
from looplax.scalars import DerivationSymbol, DiffPoly, GaussianRational
from looplax.solver import AnnulusLoop, build_wave_pair

from conftest import gr_eye, rand_mat

STANDARD, STRICT, COMBINED = HierarchyKind.STANDARD, HierarchyKind.STRICT, HierarchyKind.COMBINED


def sym_series(n, lo, hi, prefix):
    coeffs = {
        k: tuple(
            tuple(DiffPoly.indeterminate(f"{prefix}{k}_{i}{j}") for j in range(n))
            for i in range(n)
        )
        for k in range(lo, hi + 1)
    }
    return LoopSeries(n, coeffs, (lo, hi))


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
        l = ExponentVector([3, -1])
        assert l.check_commutes(akns_frame()) is l

    def test_unipotent_frame_needs_constant(self):
        f = make_frame("unipotent", 3)
        ExponentVector([2, 2, 2]).check_commutes(f)
        with pytest.raises(IndexOutOfRange):
            ExponentVector([1, 0, 0]).check_commutes(f)

    def test_module_actions_name_the_offending_entry(self):
        # delta(l) acts on the loop in the wave pair; a twist that does not
        # commute with the frame is refused there, naming the entry
        f = make_frame("unipotent", 3)
        needle = r"E_1 has a nonzero \(2, 3\) entry but l_2 = 0 != l_3 = 1"
        with pytest.raises(IndexOutOfRange, match=needle):
            ExponentVector([0, 0, 1]).check_commutes(f)
        with pytest.raises(IndexOutOfRange, match=needle):
            build_wave_pair(AnnulusLoop.identity(3, 2), [0, 0, 1], {"1,1": 0.1}, f)


class TestDerive:
    def test_bare_derivative_is_flow_monomial(self):
        # k = Id derives to zero, so the flow derivative of the bare
        # generator delta(l) psi0 is E_alpha z^m
        f = akns_frame()
        k = LoopSeries.identity(2, (-3, 0))
        assert _derive_series(k, DerivationSymbol(2, 1)).is_zero()
        conn, ok = extract_connection(STANDARD, f, k, 2, 1)
        assert ok and conn.support() == [2] and conn.coeff(2) == f.generator(1)

    def test_constant_numeric_factor(self):
        # a constant factor derives to zero: the connection is k E z^m k^{-1}
        f = akns_frame()
        k = ((1 + 0j, 2 + 0j), (0j, 1 + 0j))
        series = LoopSeries.monomial(k, 0, (-3, 0))
        assert _derive_series(series, DerivationSymbol(1, 1)).is_zero()
        conn, ok = extract_connection(STRICT, f, series, 1, 1)
        e = mat_complex(f.generator(1))
        assert ok and conn.support() == [1]
        assert conn.coeff(1) == mat_mul(mat_mul(k, e), mat_inv(k))

    def test_product_rule(self):
        # the flow derivative is a derivation: d(kg) = d(k) g + k d(g)
        sym = DerivationSymbol(1, 1)
        g, k = sym_series(2, -2, 0, "g"), sym_series(2, -2, 0, "k")
        lhs = _derive_series(k.mul(g), sym)
        rhs = _derive_series(k, sym).mul(g) + k.mul(_derive_series(g, sym))
        assert not lhs.is_zero() and lhs.equals(rhs)


class TestExtractConnection:
    # k is the group part of a typed psi = k delta(l) psi0: a member of its
    # kind's group, graded as the flow's family
    def test_trivial_typed_element(self):
        # k = Id: the connection is the flow monomial E z^m, a cut-off
        f = akns_frame()
        for kind, m in ((STANDARD, 2), (STRICT, 2), (COMBINED, 0)):
            conn, ok = extract_connection(kind, f, LoopSeries.identity(2, (-4, 0)), m, 1)
            assert ok and conn.support() == [m] and conn.coeff(m) == f.generator(1)

    def test_zero_side_trivial(self):
        f = akns_frame()
        k = LoopSeries.identity(2, (0, 4), direction="zinv")
        conn, ok = extract_connection(COMBINED, f, k, -1, 1)
        assert ok and conn.support() == [-1] and conn.coeff(-1) == f.generator(1)

    def test_constructed_counterexample(self):
        # factor Id + N z^-1 with free symbolic N: d(N) leaks below zero
        f = akns_frame()
        n_mat = tuple(
            tuple(DiffPoly.indeterminate(f"n{i}{j}") for j in range(2)) for i in range(2)
        )
        k = LoopSeries(2, {0: gr_eye(2), -1: n_mat}, (-4, 0))
        _, ok = extract_connection(STANDARD, f, k, 1, 1)
        assert not ok

    def test_constant_nontrivial_factor_is_rejected(self, rng):
        # a flow-independent dressed factor cannot satisfy the linearization:
        # without the d(k)k^{-1} term the tail outside the cut-off survives
        f = akns_frame()
        x = LoopSeries(2, {k: rand_mat(rng, 2) for k in (-2, -1)}, (-4, -1))
        wit = exp_neg(x)
        for kind, region in ((STANDARD, Region.GEQ0), (STRICT, Region.GT0)):
            for m in (1, 2):
                conn, ok = extract_connection(kind, f, wit, m, 1)
                assert not ok
                # on the cut-off's region it still is the cut-off
                assert conn.project(region).equals(cutoff(deform(kind, f, wit), m, 1))

    def test_typedness_classification(self):
        # an invertible constant term is in the strict kind's group, not in
        # the plain kind's unipotent one
        f = akns_frame()
        g = GaussianRational
        k = LoopSeries(2, {0: ((g(2), g(1)), (g(1), g(1))), -1: gr_eye(2)}, (-2, 0))
        extract_connection(STRICT, f, k, 1, 1)
        with pytest.raises(ShapeViolation, match="constant term must be the identity"):
            extract_connection(STANDARD, f, k, 1, 1)

    def test_zero_side_needs_invertible_constant(self, rng):
        # the same group test as deform's z^{-1}-graded witness
        f = akns_frame()
        g = GaussianRational
        singular = ((g(1), g(2)), (g(2), g(4)))
        for const, typed in ((gr_eye(2), True), (singular, False)):
            factor = LoopSeries(2, {0: const, 1: rand_mat(rng, 2)}, (0, 2), "zinv")
            if typed:
                extract_connection(COMBINED, f, factor, -1, 1)
            else:
                with pytest.raises(ShapeViolation, match="not invertible"):
                    extract_connection(COMBINED, f, factor, -1, 1)

    def test_grading_must_match_the_flow(self):
        f = akns_frame()
        at_infinity = LoopSeries.identity(2, (-2, 0))
        at_zero = LoopSeries.identity(2, (0, 2), direction="zinv")
        with pytest.raises(IndexOutOfRange, match=r"needs a z\^\{-1\}-graded factor"):
            extract_connection(COMBINED, f, at_infinity, -1, 1)
        with pytest.raises(IndexOutOfRange, match="needs a z-graded factor"):
            extract_connection(COMBINED, f, at_zero, 1, 1)
        with pytest.raises(IndexOutOfRange, match="plain hierarchy flows need m >= 0"):
            extract_connection(STANDARD, f, at_infinity, -1, 1)
        for kind in (STANDARD, STRICT):
            with pytest.raises(ShapeViolation, match="witness_w"):
                extract_connection(kind, f, at_zero, 1, 1)

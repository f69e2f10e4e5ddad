import random
from fractions import Fraction

import numpy as np
import pytest

from looplax.errors import (
    NotStrictlyNegative,
    NotUnipotent,
    SingularLeading,
    WindowUnderflow,
)
from looplax.loops import (
    LoopSeries,
    Region,
    exp_neg,
    log_unip,
    mat_inv,
    mat_mul,
    mat_sub,
    row_reduce,
)
from looplax.scalars import DiffPoly, GaussianRational, I

from conftest import gr_eye, rand_mat


def rand_series(rng, n=2, lo=-4, hi=3, window=None, direction="z"):
    coeffs = {k: rand_mat(rng, n) for k in range(lo, hi + 1)}
    return LoopSeries(n, coeffs, window or (lo, hi), direction)


def naive_product_coeffs(a: LoopSeries, b: LoopSeries):
    """independent full-support convolution (ignores window bookkeeping)"""
    out = {}
    for i, ma in a.coeffs.items():
        for j, mb in b.coeffs.items():
            out[i + j] = _madd(out.get(i + j), mat_mul(ma, mb))
    return out


def _madd(acc, m):
    if acc is None:
        return m
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(acc, m))


class TestProjections:
    def test_examples(self):
        e1 = ((GaussianRational(0, -1), GaussianRational(0)), (GaussianRational(0), I))
        x = rand_mat(random.Random(0), 2)
        s = LoopSeries(2, {1: e1, -1: x}, (-1, 1))
        up = s.project(Region.GEQ0)
        assert up.support() == [1] and up.coeff(1) == e1
        s2 = LoopSeries(2, {0: x, 1: e1}, (0, 1))
        assert s2.project(Region.GT0).support() == [1]

    def test_partition_random(self, rng):
        for _ in range(100):
            x = rand_series(rng)
            assert (x.project(Region.GEQ0) + x.project(Region.LT0)).equals(x)
            assert (x.project(Region.GT0) + x.project(Region.LEQ0)).equals(x)

    def test_partition_random_zinv(self, rng):
        for _ in range(50):
            x = rand_series(rng, direction="zinv")
            assert (x.project(Region.GEQ0) + x.project(Region.LT0).widened(hi=x.hi)).equals(x)

    def test_idempotence(self, rng):
        for _ in range(100):
            x = rand_series(rng)
            for reg in Region:
                p = x.project(reg)
                assert p.project(reg).equals(p)

    def test_complement_kills(self, rng):
        x = rand_series(rng)
        for reg in Region:
            assert x.project(reg).project(reg.complement).is_zero()


class TestBracket:
    def test_commuting_frame_monomials(self):
        e1 = ((GaussianRational(0, -1), GaussianRational(0)), (GaussianRational(0), I))
        a = LoopSeries.monomial(e1, 2)
        b = LoopSeries.monomial(e1, -1)
        assert a.bracket(b).is_zero()

    def test_powers_of_z_are_central(self, rng):
        x, y = rand_mat(rng, 2), rand_mat(rng, 2)
        lhs = LoopSeries.monomial(x, -1).bracket(LoopSeries.monomial(y, 2))
        com = mat_sub(mat_mul(x, y), mat_mul(y, x))
        assert lhs.support() == [1] and lhs.coeff(1) == com

    def test_jacobi_direct_expansion(self, rng):
        # all six double products expanded independently and summed
        for _ in range(10):
            xs = [rand_series(rng, lo=-2, hi=2, window=(-4, 4)) for _ in range(3)]
            x, y, z = xs

            def nbr(a, b):
                ab = naive_product_coeffs(a, b)
                ba = naive_product_coeffs(b, a)
                return {
                    k: mat_sub(ab.get(k, _z(a.n)), ba.get(k, _z(a.n)))
                    for k in set(ab) | set(ba)
                }

            def nsum(*dicts):
                out = {}
                for d in dicts:
                    for k, m in d.items():
                        out[k] = _madd(out.get(k), m)
                return out

            oracle = nsum(
                _lift_bracket(x, nbr(y, z)),
                _lift_bracket(y, nbr(z, x)),
                _lift_bracket(z, nbr(x, y)),
            )
            jac = (
                x.bracket(y.bracket(z))
                + y.bracket(z.bracket(x))
                + z.bracket(x.bracket(y))
            )
            assert jac.is_zero()
            for k in range(jac.lo, jac.hi + 1):
                om = oracle.get(k)
                assert om is None or all(v == 0 for row in om for v in row)

    def test_subalgebra_closure(self, rng):
        for reg in Region:
            for _ in range(25):
                x = rand_series(rng).project(reg)
                y = rand_series(rng).project(reg)
                br = x.bracket(y)
                assert all(reg.contains(k) for k in br.support()), (reg, br.support())


def _z(n):
    return tuple((GaussianRational(0),) * n for _ in range(n))


def _lift_bracket(a: LoopSeries, bdict):
    bser = LoopSeries(
        a.n,
        bdict,
        (min(bdict, default=0), max(bdict, default=0)),
        a.direction,
    )
    ab = naive_product_coeffs(a, bser)
    ba = naive_product_coeffs(bser, a)
    return {k: mat_sub(ab.get(k, _z(a.n)), ba.get(k, _z(a.n))) for k in set(ab) | set(ba)}


class TestExpLog:
    def test_exp_zero_is_identity(self):
        z = LoopSeries.zeros(2, (-3, -1))
        assert exp_neg(z).equals(LoopSeries.identity(2, (-3, 0)))

    def test_exp_single_coefficient(self, rng):
        x1 = rand_mat(rng, 2)
        x = LoopSeries.monomial(x1, -1, (-2, -1))
        g = exp_neg(x)
        assert g.coeff(0) == gr_eye(2)
        assert g.coeff(-1) == x1
        half = Fraction(1, 2)
        sq = mat_mul(x1, x1)
        assert g.coeff(-2) == tuple(tuple(half * v for v in row) for row in sq)

    def test_exp_matches_series_oracle(self, rng):
        # oracle: powers by naive convolution, Fraction factorials
        for _ in range(10):
            coeffs = {k: rand_mat(rng, 2, 2) for k in (-3, -2, -1)}
            x = LoopSeries(2, coeffs, (-6, -1))
            g = exp_neg(x)
            acc = {0: gr_eye(2)}
            power = {0: gr_eye(2)}
            fact = 1
            for k in range(1, 7):
                power = naive_product_coeffs(
                    LoopSeries(2, {p: m for p, m in power.items() if p >= -12}, (-12, 0)), x
                )
                fact *= k
                for p, m in power.items():
                    scaled = tuple(tuple(Fraction(1, fact) * v for v in row) for row in m)
                    acc[p] = _madd(acc.get(p), scaled)
            for p in range(g.lo, g.hi + 1):
                expect = acc.get(p, _z(2))
                assert all(
                    a == b for ra, rb in zip(g.coeff(p), expect) for a, b in zip(ra, rb)
                ), p

    def test_log_exp_roundtrip(self, rng):
        for _ in range(25):
            coeffs = {k: rand_mat(rng, 2) for k in (-3, -2, -1)}
            x = LoopSeries(2, coeffs, (-6, -1))
            assert log_unip(exp_neg(x)).equals(x)

    def test_exp_rejects_nonnegative_powers(self, rng):
        bad = LoopSeries(2, {0: rand_mat(rng, 2)}, (-2, 0))
        with pytest.raises(NotStrictlyNegative):
            exp_neg(bad)

    def test_log_rejects_non_unipotent(self, rng):
        bad = LoopSeries(2, {0: rand_mat(rng, 2), -1: rand_mat(rng, 2)}, (-2, 0))
        with pytest.raises(NotUnipotent):
            log_unip(bad)

    def test_exp_zinv_direction(self, rng):
        x1 = rand_mat(rng, 2)
        x = LoopSeries.monomial(x1, 1, (1, 2), direction="zinv")
        g = exp_neg(x)
        assert g.coeff(0) == gr_eye(2) and g.coeff(1) == x1
        assert log_unip(g).equals(x)


class TestInvert:
    def test_geometric_series(self, rng):
        x1 = rand_mat(rng, 2)
        g = LoopSeries(2, {0: gr_eye(2), -1: x1}, (-3, 0))
        inv = g.invert()
        assert inv.coeff(-1) == tuple(tuple(-v for v in row) for row in x1)
        assert inv.coeff(-2) == mat_mul(x1, x1)
        assert g.mul(inv).equals(LoopSeries.identity(2, (-3, 0)))

    def test_constant_matrix(self):
        k = ((GaussianRational(2), GaussianRational(1)), (GaussianRational(1), GaussianRational(1)))
        g = LoopSeries.monomial(k, 0, (-2, 0))
        inv = g.invert()
        assert inv.support() == [0]
        assert mat_mul(k, inv.coeff(0)) == gr_eye(2)

    def test_random_group_elements(self, rng):
        for _ in range(50):
            coeffs = {0: gr_eye(2)}
            coeffs.update({k: rand_mat(rng, 2) for k in range(-5, 0)})
            g = LoopSeries(2, coeffs, (-5, 0))
            prod = g.mul(g.invert())
            assert prod.equals(LoopSeries.identity(2, prod.window))

    def test_singular_leading(self, rng):
        g = LoopSeries(2, {0: ((GaussianRational(1), GaussianRational(1)),) * 2, -1: rand_mat(rng, 2)}, (-2, 0))
        with pytest.raises(SingularLeading):
            g.invert()

    def test_nonzero_top_order(self, rng):
        # leading order 1: inverse starts at -1
        g = LoopSeries(2, {1: gr_eye(2), 0: rand_mat(rng, 2), -1: rand_mat(rng, 2)}, (-1, 1))
        inv = g.invert()
        assert inv.hi == -1
        assert g.mul(inv).equals(LoopSeries.identity(2, g.mul(inv).window))


class TestMatInv:
    # one elimination serves every backend and the frame rank
    def test_complex_tiny_leading_pivot(self):
        a = ((1e-14 + 0j, 2 - 1j, 0.5j), (3 + 1j, 1 + 0j, -1 + 0j), (0.25 + 0j, -2j, 4 + 0j))
        got = np.array(mat_inv(a))
        ref = np.linalg.inv(np.array(a))
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_exact_singular_raises(self):
        g = GaussianRational
        a = ((g(1), g(2), g(0, 1)), (g(2), g(4), g(0, 2)), (g(0), g(1), g(1)))
        with pytest.raises(ZeroDivisionError):
            mat_inv(a)
        rows, pivots = row_reduce(a, 3)
        assert pivots == [0, 1] and all(x == 0 for x in rows[2])

    def test_diffpoly_constant_matrix(self):
        c = DiffPoly.constant
        a = ((c(2), c(I)), (c(1), c(1)))
        assert mat_mul(a, mat_inv(a)) == gr_eye(2)


class TestConjugate:
    def test_identity_fixes(self, rng):
        y = rand_series(rng, lo=-2, hi=1)
        g = LoopSeries.identity(2, (-4, 0))
        assert g.conjugate(y).equals(y)

    def test_first_order_coefficient(self):
        # conjugating diag(-i, i) by exp(X1 z^-1): z^-1 coefficient [X1, E1]
        a1, b1, g1 = GaussianRational(2), GaussianRational(1, 1), GaussianRational(-1, 2)
        x1 = ((-a1, b1), (g1, a1))
        e1 = ((GaussianRational(0, -1), GaussianRational(0)), (GaussianRational(0), I))
        g = exp_neg(LoopSeries.monomial(x1, -1, (-2, -1)))
        u = g.conjugate(LoopSeries.monomial(e1, 0, (-2, 0)))
        two_i = GaussianRational(0, 2)
        assert u.coeff(0) == e1
        assert u.coeff(-1) == (
            (GaussianRational(0), two_i * b1),
            (-two_i * g1, GaussianRational(0)),
        )

    def test_second_order_coefficient_symbolic(self):
        # z^-2 coefficient [X2,E1] + (1/2)[X1,[X1,E1]] with symbolic entries
        names = ("alpha1", "beta1", "gamma1", "alpha2", "beta2", "gamma2")
        a1, b1, g1, a2, b2, g2 = (DiffPoly.indeterminate(s) for s in names)
        x = LoopSeries(2, {-1: ((-a1, b1), (g1, a1)), -2: ((-a2, b2), (g2, a2))}, (-2, -1))
        e1 = ((GaussianRational(0, -1), GaussianRational(0)), (GaussianRational(0), I))
        u = exp_neg(x).conjugate(LoopSeries.monomial(e1, 0, (-2, 0)))
        two_i = DiffPoly.constant(GaussianRational(0, 2))
        c = u.coeff(-2)
        assert c[0][0] == -(two_i * b1 * g1)
        assert c[0][1] == two_i * (b2 - a1 * b1)
        assert c[1][0] == -(two_i * (g2 + a1 * g1))
        assert c[1][1] == two_i * b1 * g1

    def test_traceless_preserved_random(self, rng):
        for _ in range(100):
            coeffs = {0: gr_eye(2), **{k: rand_mat(rng, 2) for k in range(-3, 0)}}
            g = LoopSeries(2, coeffs, (-3, 0))
            y = LoopSeries(
                2, {k: rand_mat(rng, 2, traceless=True) for k in range(-2, 1)}, (-3, 0)
            )
            assert g.conjugate(y).is_traceless()


class TestWindows:
    def test_coeff_outside_window_raises(self, rng):
        x = rand_series(rng, lo=-2, hi=2)
        with pytest.raises(WindowUnderflow):
            x.coeff(-3)
        assert x.coeff(5) == _z(2)  # above hi is exactly zero for direction z

    def test_restricted_refuses_to_drop_support(self, rng):
        x = rand_series(rng, lo=-2, hi=2)
        with pytest.raises(WindowUnderflow):
            x.restricted(0, 2)  # would discard known content at -2, -1

    def test_truncated_forgets_unbounded_side_only(self, rng):
        x = rand_series(rng, lo=-4, hi=1)
        t = x.truncated(-2, 1)
        assert t.lo == -2 and t.support()[0] >= -2
        with pytest.raises(WindowUnderflow):
            x.truncated(-4, 0)  # cannot forget the genuine top power

    def test_mul_window_rule(self, rng):
        a = rand_series(rng, lo=-3, hi=1)
        b = rand_series(rng, lo=-2, hi=2)
        p = a.mul(b)
        assert p.window == (max(-3 + 2, -2 + 1), 3)
        with pytest.raises(WindowUnderflow):
            a.mul(b, window=(-4, 3))

    def test_shift_and_reindex(self, rng):
        x = rand_series(rng, lo=-2, hi=1)
        assert x.shift(3).window == (1, 4)
        rx = x.reindexed()
        assert rx.direction == "zinv" and rx.window == (-1, 2)
        assert rx.reindexed().equals(x)

    def test_equality_on_intersection(self, rng):
        x = rand_series(rng, lo=-3, hi=1)
        y = x.truncated(-1, 1)
        assert x.equals(y) and y.equals(x)


class TestBackend:
    def test_numeric_query(self, rng):
        assert not LoopSeries.zeros(2, (-1, 0)).numeric
        assert not LoopSeries.monomial(rand_mat(rng, 2), 0).numeric
        assert LoopSeries.monomial(((1j, 0), (0, -1j)), 0).numeric
        assert LoopSeries.monomial(((0, 0.5), (0, 0)), 0).numeric


class TestSerialization:
    def test_exact_roundtrip(self, rng):
        from looplax.scalars import decode_scalar

        x = rand_series(rng, lo=-2, hi=1)
        obj = x.to_obj()
        back = LoopSeries.from_obj(obj, lambda o: decode_scalar(o, "rational"))
        assert back.equals(x) and back.window == x.window

    def test_complex_roundtrip(self):
        from looplax.scalars import decode_scalar

        x = LoopSeries(2, {0: ((1 + 2j, 0j), (0j, 1 - 2j))}, (-1, 0))
        back = LoopSeries.from_obj(x.to_obj(), lambda o: decode_scalar(o, "complex"))
        assert back.equals(x)

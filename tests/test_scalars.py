import random
from fractions import Fraction

import pytest

from looplax.errors import ResourceExceeded, UnboundDerivative
from looplax.scalars import (
    DerivationSymbol,
    DiffPoly,
    GaussianRational,
    I,
    Indeterminate,
    get_term_cap,
    set_term_cap,
)

from conftest import rand_gr

X = DerivationSymbol(1, 1)
T = DerivationSymbol(2, 1)


def rand_poly(rng, names=("q", "r"), max_terms=4, max_factors=3):
    """random small differential polynomial, derivatives of order <= 2"""
    syms = [(), (X,), (T,), (X, X), (X, T)]
    p = DiffPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = DiffPoly.constant(rand_gr(rng, 2))
        for _ in range(rng.randint(0, max_factors)):
            term = term * DiffPoly.indeterminate(rng.choice(names), *rng.choice(syms))
        p = p + term
    return p


class TestGaussianRational:
    def test_field_axioms_random(self, rng):
        for _ in range(200):
            a, b, c = rand_gr(rng), rand_gr(rng), rand_gr(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            if a != 0:
                assert a * a.inverse() == 1

    def test_i_squared(self):
        assert I * I == -1
        assert I * I.conjugate() == 1

    def test_int_fraction_coercion(self):
        a = GaussianRational(Fraction(1, 2), 1)
        assert a + 1 == GaussianRational(Fraction(3, 2), 1)
        assert 2 * a == GaussianRational(1, 2)
        assert a - Fraction(1, 2) == GaussianRational(0, 1)
        assert Fraction(1, 2) / GaussianRational(0, 1) == GaussianRational(0, Fraction(-1, 2))

    def test_pow_and_complex(self):
        assert I ** 3 == -I
        assert complex(GaussianRational(1, -2)) == 1 - 2j

    def test_json_roundtrip(self, rng):
        for _ in range(20):
            a = rand_gr(rng)
            assert GaussianRational.from_obj(a.to_obj()) == a


class TestDiffPolyRing:
    def test_ring_axioms_random(self, rng):
        for _ in range(60):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_cancellation_canonical(self, rng):
        for _ in range(60):
            a = rand_poly(rng)
            assert (a - a).is_zero()
            assert not (a - a).terms

    def test_simple_products(self):
        q = DiffPoly.indeterminate("q")
        r = DiffPoly.indeterminate("r")
        assert q * r == r * q
        assert (q * r - q * r).is_zero()
        # i^2 = -1 collapses the cross terms
        assert (q + I * r) * (q - I * r) == q * q + r * r

    def test_mul_against_bruteforce_oracle(self, rng):
        # oracle: flat lists of (coef, factor-multiset), concatenation product
        def explode(p):
            return [(c, m) for m, c in p.terms.items()]

        def mono_mul(m1, m2):
            d = {}
            for ind, k in list(m1) + list(m2):
                d[ind] = d.get(ind, 0) + k
            return tuple(sorted(d.items()))

        for _ in range(30):
            a, b = rand_poly(rng), rand_poly(rng)
            acc = {}
            for ca, ma in explode(a):
                for cb, mb in explode(b):
                    m = mono_mul(ma, mb)
                    acc[m] = acc.get(m, GaussianRational(0)) + ca * cb
            expected = DiffPoly({m: c for m, c in acc.items() if c != 0})
            assert a * b == expected

    def test_square_of_compound(self):
        # expand (q dq + r)^2 coefficient-by-coefficient
        q = DiffPoly.indeterminate("q")
        dq = DiffPoly.indeterminate("q", X)
        r = DiffPoly.indeterminate("r")
        s = q * dq + r
        expected = q * q * dq * dq + 2 * q * dq * r + r * r
        assert s * s == expected

    def test_term_cap(self):
        old = get_term_cap()
        try:
            set_term_cap(10)
            big = DiffPoly.zero()
            for k in range(6):
                big = big + DiffPoly.indeterminate(f"x{k}")
            with pytest.raises(ResourceExceeded):
                _ = big * big
        finally:
            set_term_cap(old)


class TestDerivations:
    def test_leibniz_simple(self):
        q = DiffPoly.indeterminate("q")
        r = DiffPoly.indeterminate("r")
        assert (q * r).derive(X) == q.derive(X) * r + q * r.derive(X)

    def test_constants_derive_to_zero(self):
        assert DiffPoly.constant(rand_gr(random.Random(1))).derive(X).is_zero()

    def test_leibniz_random(self, rng):
        for _ in range(60):
            a, b = rand_poly(rng), rand_poly(rng)
            assert (a * b).derive(X) == a.derive(X) * b + a * b.derive(X)

    def test_cancelling_leibniz_terms_vanish(self):
        # d(q r_x - q_x r) = q r_xx - q_xx r: the q_x r_x terms cancel
        q, r = DiffPoly.indeterminate("q"), DiffPoly.indeterminate("r")
        dq, dr = q.derive(X), r.derive(X)
        d = (q * dr - dq * r).derive(X)
        assert d.terms == (q * dr.derive(X) - dq.derive(X) * r).terms
        assert len(d.terms) == 2

    def test_derivations_commute(self, rng):
        q = DiffPoly.indeterminate("q")
        assert (q * q).derive(X).derive(T) == (q * q).derive(T).derive(X)
        for _ in range(40):
            a = rand_poly(rng)
            assert a.derive(X).derive(T) == a.derive(T).derive(X)

    def test_symbol_ordering(self):
        assert DerivationSymbol(1, 1) < DerivationSymbol(1, 2) < DerivationSymbol(2, 1)
        assert DerivationSymbol.parse("-1,2") == DerivationSymbol(-1, 2)


class TestSubstitution:
    def test_offdiagonal_elimination_row(self):
        # -2i u12 with u12 -> (i/2) dq gives dq back
        q = DiffPoly.indeterminate("q")
        u12 = Indeterminate("u12")
        expr = GaussianRational(0, -2) * DiffPoly({((u12, 1),): GaussianRational(1)})
        half_i = GaussianRational(0, Fraction(1, 2))
        out = expr.substitute({u12: half_i * q.derive(X)})
        assert out == q.derive(X)

    def test_empty_bindings_identity(self, rng):
        for _ in range(20):
            a = rand_poly(rng)
            assert a.substitute({}) == a

    def test_substitute_commutes_with_derive(self, rng):
        q_ind = Indeterminate("q")
        for _ in range(30):
            a = rand_poly(rng, names=("q",), max_factors=3)
            binding = rand_poly(rng, names=("s", "u"), max_factors=2)
            left = a.substitute({q_ind: binding}).derive(X)
            right = a.derive(X).substitute({q_ind: binding})
            assert left == right

    def test_unbound_derivative(self):
        # q is touched by the bindings but neither d_x q nor the base q is bound
        dq = DiffPoly.indeterminate("q", X)
        bindings = {Indeterminate("q", ((T, 1),)): DiffPoly.one()}
        with pytest.raises(UnboundDerivative):
            dq.substitute(bindings)

    def test_direct_binding_of_derivative(self):
        dq = DiffPoly.indeterminate("q", X)
        out = dq.substitute({Indeterminate("q", ((X, 1),)): DiffPoly.constant(3)})
        assert out == DiffPoly.constant(3)


class TestSerialization:
    def test_json_tree_roundtrip(self, rng):
        for _ in range(25):
            a = rand_poly(rng)
            assert DiffPoly.from_obj(a.to_obj()) == a

    def test_cancelling_terms_decode_to_zero(self):
        q = ["q", []]
        obj = {"sum": [{"coef": ["1", "0"], "mono": [q, q]}, {"coef": ["-1", "0"], "mono": [q, q]}]}
        assert DiffPoly.from_obj(obj).terms == {}
        obj["sum"].append({"coef": ["0", "0"], "mono": [q]})
        assert DiffPoly.from_obj(obj) == DiffPoly.zero()

    def test_tree_shape(self):
        q2 = DiffPoly.indeterminate("q", X, X)
        obj = q2.to_obj()
        assert obj == {"sum": [{"coef": ["1", "0"], "mono": [["q", [["1,1", 2]]]]}]}

"""Property suite for GaussianRational against a plain (Fraction, Fraction)
reference model of Q(i)."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from looplax.scalars import GaussianRational  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=100, deadline=None)

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 60))
pairs = st.tuples(rationals, rationals)
nonzero_pairs = pairs.filter(lambda p: p != (0, 0))
plain = st.one_of(st.integers(-40, 40), rationals)


# -- the reference model ------------------------------------------------------

def r_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def r_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def r_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def r_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def r_pow(x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = r_mul(out, x)
    return r_inv(out) if k < 0 else out


def r_str(x):
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def gr(p):
    return GaussianRational(*p)


def lift(v):
    """An int or Fraction operand as a reference pair."""
    return (Fraction(v), Fraction(0))


def matches(x, p):
    """``x`` is canonical and represents the reference pair ``p``."""
    a, b, d = x._a, x._b, x._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and gcd(a, b, d) == 1
    assert (x.re, x.im) == p and (Fraction(a, d), Fraction(b, d)) == p
    assert type(x.re) is Fraction and type(x.im) is Fraction
    return True


# -- properties ------------------------------------------------------------------

@PROFILE
@given(pairs, pairs)
def test_ring_operations(p, q):
    x, y = gr(p), gr(q)
    assert matches(x + y, r_add(p, q))
    assert matches(x - y, r_sub(p, q))
    assert matches(x * y, r_mul(p, q))
    assert matches(-x, (-p[0], -p[1]))
    assert matches(+x, p)


@PROFILE
@given(pairs, plain)
def test_mixed_operands(p, v):
    x, q = gr(p), lift(v)
    assert matches(x + v, r_add(p, q)) and matches(v + x, r_add(q, p))
    assert matches(x - v, r_sub(p, q)) and matches(v - x, r_sub(q, p))
    assert matches(x * v, r_mul(p, q)) and matches(v * x, r_mul(q, p))
    if v != 0:
        assert matches(x / v, r_mul(p, r_inv(q)))
    if p != (0, 0):
        assert matches(v / x, r_mul(q, r_inv(p)))


@PROFILE
@given(nonzero_pairs, pairs)
def test_inverse_and_division(p, q):
    x, y = gr(p), gr(q)
    assert matches(x.inverse(), r_inv(p))
    assert matches(y / x, r_mul(q, r_inv(p)))
    assert x * x.inverse() == 1


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0).inverse()
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 1) / 0


@PROFILE
@given(nonzero_pairs, st.integers(-6, 6))
def test_power(p, k):
    assert matches(gr(p) ** k, r_pow(p, k))


@PROFILE
@given(pairs)
def test_conjugate(p):
    x = gr(p)
    assert matches(x.conjugate(), (p[0], -p[1]))
    assert matches(x * x.conjugate(), (p[0] * p[0] + p[1] * p[1], Fraction(0)))


@PROFILE
@given(pairs, pairs)
def test_equality_and_hash(p, q):
    x, y = gr(p), gr(q)
    assert (x == y) == (p == q) and (x != y) == (p != q)
    assert x == gr(p) and hash(x) == hash(gr(p))
    if p[1] == 0:
        assert x == p[0] and p[0] == x and hash(x) == hash(p[0])
        if p[0].denominator == 1:
            n = int(p[0])
            assert x == n and n == x and hash(x) == hash(n)
    else:
        assert x != p[0] and hash(x) == hash(p)
    assert bool(x) == (p != (0, 0))
    assert complex(x) == complex(float(p[0]), float(p[1]))


def test_hash_agrees_with_int():
    assert hash(GaussianRational(2)) == hash(2)
    assert {GaussianRational(2): "two"}[2] == "two"
    assert GaussianRational(Fraction(4, 2), 0) == 2


@PROFILE
@given(pairs)
def test_text_and_json(p):
    x = gr(p)
    assert str(x) == r_str(p)
    assert repr(x) == f"GaussianRational({p[0]!r}, {p[1]!r})"
    assert x.to_obj() == [str(p[0]), str(p[1])]
    back = GaussianRational.from_obj(x.to_obj())
    assert back == x and matches(back, p)


@PROFILE
@given(pairs, pairs)
def test_immutable(p, q):
    x, y = gr(p), gr(q)
    for name in ("re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    _ = (x + y, x - y, x * y, -x, x.conjugate(), x**2, y / x if p != (0, 0) else 0)
    assert matches(x, p) and matches(y, q)


@pytest.mark.parametrize(
    "obj", ["12", ["1"], ["1", "2", "3"], ["1/0", "0"], [float("inf"), 0], ["x", 1], [None, 0], 5]
)
def test_from_obj_rejects(obj):
    with pytest.raises(ValueError):
        GaussianRational.from_obj(obj)

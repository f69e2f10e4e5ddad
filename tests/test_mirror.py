"""The z^{-1}-graded algebra is the z-graded one under z -> 1/z.

For every operation, the result on z^{-1}-graded operands must equal the
mirrored result on the mirrored (z-graded) operands: the same coefficients,
window, direction and totality, or the same error type, whose message names
the caller's own powers.  The operands are seeded series over the exact Q(i)
and the complex backend, truncated or total.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from looplax.errors import (  # noqa: E402
    NotStrictlyNegative,
    NotUnipotent,
    ShapeViolation,
    SingularLeading,
    WindowUnderflow,
)
from looplax.hierarchy import HierarchyKind, akns_frame, deform, make_frame  # noqa: E402
from looplax.loops import LoopSeries, Region, exp_neg, log_unip  # noqa: E402
from looplax.scalars import GaussianRational  # noqa: E402

from conftest import gr_eye, rand_mat  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=100, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
BACKENDS = st.sampled_from(["qi", "complex"])


def matrix(rng, backend, n=2):
    if backend == "qi":
        return rand_mat(rng, n)
    return tuple(
        tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n))
        for _ in range(n)
    )


def series(rng, backend, lo, hi, total=False, powers=None):
    """A z series on ``[lo, hi]``; some coefficients are left out."""
    powers = range(lo, hi + 1) if powers is None else powers
    coeffs = {k: matrix(rng, backend) for k in powers if rng.random() < 0.8}
    return LoopSeries(2, coeffs, (lo, hi), "z", total)


def data(s: LoopSeries):
    return s.n, tuple(s.window), s.direction, s.total, s.coeffs


ERRORS = (WindowUnderflow, NotStrictlyNegative, NotUnipotent, SingularLeading, ValueError)


def outcome(op, *args):
    """``op(*args)`` as data, or the type of the error it raised."""
    try:
        return "ok", data(op(*args))
    except ERRORS as exc:
        return "raised", type(exc)


def assert_mirrored(op, *zs):
    """``op`` on the mirrored operands equals the mirror of ``op`` on ``zs``."""
    want = outcome(lambda *xs: op(*xs).reindexed(), *zs)
    assert outcome(op, *(s.reindexed() for s in zs)) == want


def windows():
    return st.tuples(st.integers(-4, 2), st.integers(0, 3)).map(lambda t: (t[0], t[0] + t[1]))


class TestSeriesMirror:
    @PROFILE
    @given(
        seed=SEEDS,
        backend=BACKENDS,
        wa=windows(),
        wb=windows(),
        totals=st.sampled_from(["", "a", "b", "ab"]),
        flip=st.booleans(),
        request=st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    )
    def test_add_and_mul(self, seed, backend, wa, wb, totals, flip, request):
        rng = random.Random(seed)
        a = series(rng, backend, *wa, total="a" in totals)
        b = series(rng, backend, *wb, total="b" in totals)
        if flip and b.total:
            b = b.reindexed()  # a total operand from the other algebra
        assert_mirrored(lambda x, y: x + y, a, b)
        assert_mirrored(lambda x, y: x - y, a, b)
        assert_mirrored(lambda x, y: x.mul(y), a, b)
        # a window request moved past either end of the product's window
        p = a.mul(b)
        lo, hi = p.lo + request[0], p.hi + request[1]
        if lo <= hi:
            want = outcome(lambda x, y: x.mul(y, window=(lo, hi)).reindexed(), a, b)
            mirrored = (a.reindexed(), b.reindexed())
            assert outcome(lambda x, y: x.mul(y, window=(-hi, -lo)), *mirrored) == want

    @PROFILE
    @given(seed=SEEDS, backend=BACKENDS, w=windows(), total=st.booleans())
    def test_project_and_invert(self, seed, backend, w, total):
        rng = random.Random(seed)
        a = series(rng, backend, *w, total=total)
        for region in Region:
            assert data(a.reindexed().project(region.mirror)) == data(a.project(region).reindexed())
        assert_mirrored(lambda x: x.invert(), a)

    @PROFILE
    @given(seed=SEEDS, backend=BACKENDS, lo=st.integers(-5, -1), hi=st.integers(-1, 1))
    def test_exp_and_log(self, seed, backend, lo, hi):
        rng = random.Random(seed)
        x = series(rng, backend, lo, hi, powers=range(lo, min(hi, -1) + 1))
        # a window reaching above 0 costs no depth: nothing is stored there
        for op, arg in ((exp_neg, x), (log_unip, exp_neg(x))):
            assert outcome(op, arg)[0] == "ok"
            assert_mirrored(op, arg)

    @pytest.mark.parametrize("backend", ["qi", "complex"])
    @pytest.mark.parametrize("bad", [1, 2])
    def test_grading_errors_name_the_callers_powers(self, backend, bad):
        rng = random.Random(bad)
        x = LoopSeries(2, {-1: matrix(rng, backend), bad: matrix(rng, backend)}, (-1, bad))
        g = x + LoopSeries.identity(2, x.window)
        for op, err in ((exp_neg, NotStrictlyNegative), (log_unip, NotUnipotent)):
            arg = x if op is exp_neg else g
            with pytest.raises(err, match=rf"stored powers \[{bad}\]"):
                op(arg)
            with pytest.raises(err, match=rf"stored powers \[{-bad}\]"):
                op(arg.reindexed())


class TestEqualsWindowHonest:
    X = ((GaussianRational(0), GaussianRational(1)), (GaussianRational(0), GaussianRational(0)))

    def test_nonzero_above_the_window_differs(self):
        # a z series is exactly zero above its window
        a = LoopSeries(2, {0: gr_eye(2)}, (-3, 0))
        b = LoopSeries(2, {0: gr_eye(2), 2: self.X}, (-3, 2))
        assert not a.equals(b) and not b.equals(a)
        assert not a.reindexed().equals(b.reindexed())
        assert not b.reindexed().equals(a.reindexed())

    def test_total_series_of_either_direction_agree(self):
        a = LoopSeries(2, {0: gr_eye(2), 1: self.X}, (0, 1), "z", total=True)
        b = LoopSeries(2, {0: gr_eye(2), 1: self.X}, (0, 1), "zinv", total=True)
        assert a.equals(b) and b.equals(a)

    def test_truncated_series_of_different_algebras_differ(self):
        a = LoopSeries(2, {0: gr_eye(2)}, (0, 0), "z")
        assert not a.equals(LoopSeries(2, {0: gr_eye(2)}, (0, 0), "zinv"))


class TestDeformMirror:
    @pytest.mark.parametrize("frame", [akns_frame(), make_frame("unipotent", 3)], ids=["akns", "unip3"])
    def test_w_family_is_the_mirrored_strict_family(self, rng, frame):
        n = frame.n
        wit = LoopSeries(n, {0: gr_eye(n), -1: rand_mat(rng, n), -2: rand_mat(rng, n)}, (-2, 0))
        for _ in range(20):
            wit_w = LoopSeries(n, {k: rand_mat(rng, n) for k in range(4)}, (0, 3), "zinv")
            try:
                d = deform(HierarchyKind.COMBINED, frame, wit, wit_w)
                break
            except ShapeViolation:
                continue
        strict = deform(HierarchyKind.STRICT, frame, wit_w.reindexed())
        for w, v in zip(d.series_w, strict.series, strict=True):
            assert data(w) == data(v.reindexed())
        trivial = deform(HierarchyKind.COMBINED, frame, depth=3)
        for w, v in zip(trivial.series_w, deform(HierarchyKind.STRICT, frame, depth=3).series):
            assert data(w) == data(v.reindexed())

    def test_witness_error_names_the_callers_grading(self):
        f = akns_frame()
        bad = LoopSeries(2, {0: gr_eye(2), -1: gr_eye(2)}, (-1, 0), "zinv")
        with pytest.raises(ShapeViolation, match=r"z\^\{-1\}-graded with powers >= 0"):
            deform(HierarchyKind.COMBINED, f, None, bad)

"""Window honesty against a deeper truncation.

Every coefficient that an operation claims exact must equal the coefficient
of the same operation run on a twice-deeper truncation of the same exact
inputs.  The inputs are seeded exact Q(i) series; the oracle is the window
arithmetic itself, one truncation further out.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from looplax.errors import ShapeViolation, SingularLeading  # noqa: E402
from looplax.hierarchy import (  # noqa: E402
    HierarchyKind,
    akns_frame,
    corollary_lax_derivative,
    corollary_residual,
    cutoff,
    cutoff_lax_derivative,
    deform,
    lax_rhs,
    make_frame,
    zc_residual,
)
from looplax.loops import LoopSeries, Region, exp_neg  # noqa: E402

from conftest import gr_eye, rand_mat  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=100, deadline=None)
DEPTH = 3  # the shallow truncation; the deep one is twice as deep
FRAMES = {"akns": akns_frame(), "unipotent": make_frame("unipotent", 2)}
SEEDS = st.integers(0, 2**32 - 1)


def assert_honest(shallow: LoopSeries, deep: LoopSeries, label: str):
    """Each power that ``shallow`` claims exact is exact in ``deep`` and has
    the same coefficient there."""
    powers = set(shallow.coeffs) | set(deep.coeffs) | set(range(shallow.lo, shallow.hi + 1))
    for k in sorted(powers):
        if shallow.known(k):
            assert deep.known(k), f"{label}: power {k} claimed beyond the deep window"
            assert shallow.coeff(k) == deep.coeff(k), f"{label}: power {k} differs"


def series_pair(rng, n, direction, edge, depth=DEPTH, first=None):
    """One exact series as (shallow, deep) truncations: bounded at ``edge``,
    ``depth`` and ``2 * depth`` powers deep toward the unbounded end."""
    step = -1 if direction == "z" else 1
    coeffs = {edge + step * j: rand_mat(rng, n) for j in range(2 * depth + 1)}
    if first is not None:
        coeffs[edge] = first
    far = edge + step * 2 * depth
    deep = LoopSeries(n, coeffs, sorted((edge, far)), direction)
    near = edge + step * depth
    return deep.truncated(*sorted((edge, near))), deep


class TestSeriesOperations:
    @PROFILE
    @given(
        seed=SEEDS,
        direction=st.sampled_from(["z", "zinv"]),
        edges=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        region=st.sampled_from(list(Region)),
        cut=st.sampled_from([None, "a", "b"]),
    )
    def test_mul_bracket_add_invert_project(self, seed, direction, edges, region, cut):
        rng = random.Random(seed)
        a, b = (series_pair(rng, 2, direction, e) for e in edges)
        # a cut-off style operand: the projection onto the bounded side
        keep = Region.GEQ0 if direction == "z" else Region.LT0
        if cut == "a":
            a = tuple(x.project(keep) for x in a)
        elif cut == "b":
            b = tuple(x.project(keep) for x in b)
        ops = {
            "mul": lambda x, y: x.mul(y),
            "bracket": lambda x, y: x.bracket(y),
            "add": lambda x, y: x + y,
            "sub": lambda x, y: x - y,
            "project": lambda x, y: x.project(region),
        }
        for name, op in ops.items():
            assert_honest(op(a[0], b[0]), op(a[1], b[1]), name)
        try:
            inv = (a[0].invert(), a[1].invert())
        except SingularLeading:
            return
        assert_honest(*inv, "invert")

    @PROFILE
    @given(
        seed=SEEDS,
        direction=st.sampled_from(["z", "zinv"]),
        edges=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        gaps=st.tuples(st.integers(1, 3), st.integers(0, 3)),
    )
    def test_window_above_the_stored_support(self, seed, direction, edges, gaps):
        # a window reaching past the stored support toward the bounded end
        # declares zeros there; a product claims depth from the stored top
        rng = random.Random(seed)
        a, b = (
            tuple(widened(s, gap) for s in series_pair(rng, 2, direction, e))
            for e, gap in zip(edges, gaps)
        )
        shallow, deep = a[0].mul(b[0]), a[1].mul(b[1])
        assert_honest(shallow, deep, "mul")
        z = [s if direction == "z" else s.reindexed() for s in (a[0], b[0], shallow)]
        tops = [max(s.coeffs, default=s.lo - 1) for s in z[:2]]
        assert z[2].lo == max(z[0].lo + tops[1], z[1].lo + tops[0])
        # exp of a strictly negative series whose window reaches above 0
        strict = Region.LT0 if direction == "z" else Region.GT0
        x = [widened(s.project(strict), gaps[0]) for s in a]
        assert_honest(exp_neg(x[0]), exp_neg(x[1]), "exp_neg")


def widened(s: LoopSeries, gap: int) -> LoopSeries:
    """``s`` with its window moved ``gap`` powers out at the bounded end."""
    lo, hi = (s.lo, s.hi + gap) if s.direction == "z" else (s.lo - gap, s.hi)
    return LoopSeries(s.n, s.coeffs, (lo, hi), s.direction)


PAIRS = {
    HierarchyKind.STANDARD: [(0, 1), (1, 1), (2, 1), (1, 2)],
    HierarchyKind.STRICT: [(1, 1), (2, 1), (1, 2), (2, 2)],
    HierarchyKind.COMBINED: [(-1, 1), (-2, -1), (1, -1), (-1, 2), (0, -2), (2, 1)],
}


def dressing_pair(rng, kind, frame):
    """A seeded exact dressing of ``frame``, deformed from the shallow and
    from the deep truncation of the same witnesses."""
    n = frame.n
    while True:
        first = gr_eye(n) if kind is not HierarchyKind.STRICT else rand_mat(rng, n)
        wit = series_pair(rng, n, "z", 0, first=first)
        wit_w = series_pair(rng, n, "zinv", 0) if kind is HierarchyKind.COMBINED else (None, None)
        try:
            return tuple(deform(kind, frame, w, x) for w, x in zip(wit, wit_w))
        except ShapeViolation:  # a singular constant term: draw again
            continue


def perturbation(rng, like: LoopSeries, total: bool):
    """(shallow, deep) truncations of a random series in the algebra of
    ``like``; a polynomial when ``total`` (as a cut-off derivative is)."""
    z = like.direction == "z"
    edge = max(like.hi, 0) if z else min(like.lo, -1)
    pair = series_pair(rng, like.n, like.direction, edge, depth=3 * DEPTH)
    if total:
        return tuple(p.project(Region.GEQ0 if z else Region.LT0) for p in pair)
    return pair


class TestHierarchyOperations:
    @PROFILE
    @given(
        seed=SEEDS,
        kind=st.sampled_from(list(HierarchyKind)),
        frame=st.sampled_from(sorted(FRAMES)),
        pair=st.integers(0, 5),
        lax=st.booleans(),
    )
    def test_lax_zc_and_corollary(self, seed, kind, frame, pair, lax):
        rng = random.Random(seed)
        ds = dressing_pair(rng, kind, FRAMES[frame])
        m1, m2 = PAIRS[kind][pair % len(PAIRS[kind])]
        for family in ("u", "w") if kind is HierarchyKind.COMBINED else (ds[0].default_family(),):
            assert_honest(*(lax_rhs(d, m1, 1, family, 1) for d in ds), f"lax_rhs {family}")
        derivs = [cutoff_lax_derivative(d, m1, 1, m2, 1) for d in ds]
        assert_honest(*derivs, "cutoff_lax_derivative")
        derivs = [derivs, [cutoff_lax_derivative(d, m2, 1, m1, 1) for d in ds]]
        if not lax:
            # caller-supplied derivatives: any exact inputs in the cut-offs'
            # algebras, polynomials when the two algebras differ
            cuts = [cutoff(ds[0], m, 1) for m in (m2, m1)]
            mixed = cuts[0].direction != cuts[1].direction
            derivs = [perturbation(rng, c, mixed) for c in cuts]
        assert_honest(
            *(zc_residual(d, m1, 1, m2, 1, d1, d2) for d, d1, d2 in zip(ds, *derivs)),
            "zc_residual",
        )
        if kind is HierarchyKind.COMBINED and (m1 < 0) != (m2 < 0):
            return
        derivs = [[corollary_lax_derivative(d, a, 1, b, 1) for d in ds] for a, b in ((m1, m2), (m2, m1))]
        assert_honest(*derivs[0], "corollary_lax_derivative")
        if not lax:
            derivs = [perturbation(rng, s[0], False) for s in derivs]
        assert_honest(
            *(corollary_residual(d, m1, 1, m2, 1, d1, d2) for d, d1, d2 in zip(ds, *derivs)),
            "corollary_residual",
        )

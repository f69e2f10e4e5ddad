"""The exact series algebra against sympy's independent arithmetic over Q(i).

Matrices and truncated series are rebuilt over sympy's ``QQ_I`` domain.  A
truncated series ``sum_k X_k w^k`` (``w`` the grading variable, ``z^-1`` for
direction "z" and ``z`` for "zinv") becomes the block lower-triangular
Toeplitz matrix of multiplication by it modulo ``w^(K+1)``; products,
inverses, exponentials and logarithms of series are then plain sympy matrix
algebra, and the first block column holds the coefficients.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("sympy")
from sympy import QQ, QQ_I  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from looplax.loops import LoopSeries, exp_neg, log_unip, mat_inv  # noqa: E402
from looplax.scalars import GaussianRational  # noqa: E402

SEEDS = range(6)


def rand_pair(rng):
    return (
        Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
        Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
    )


def rand_pairs(rng, n):
    return [[rand_pair(rng) for _ in range(n)] for _ in range(n)]


def to_gr(pairs):
    return tuple(tuple(GaussianRational(*p) for p in row) for row in pairs)


def to_qqi(p):
    return QQ_I(QQ(p[0].numerator, p[0].denominator), QQ(p[1].numerator, p[1].denominator))


def from_qqi(x):
    return (Fraction(int(x.x.numerator), int(x.x.denominator)),
            Fraction(int(x.y.numerator), int(x.y.denominator)))


def as_pairs(mat):
    """A looplax matrix (GaussianRational or int entries) as (re, im) pairs."""
    return [[(Fraction(x.re), Fraction(x.im)) if isinstance(x, GaussianRational)
             else (Fraction(x), Fraction(0)) for x in row] for row in mat]


def dm(pairs):
    n = len(pairs)
    return DomainMatrix([[to_qqi(p) for p in row] for row in pairs], (n, n), QQ_I)


def eye_pairs(n):
    return [[(Fraction(int(i == j)), Fraction(0)) for j in range(n)] for i in range(n)]


def zero_pairs(n):
    return [[(Fraction(0), Fraction(0))] * n for _ in range(n)]


def toeplitz(blocks, n):
    """Multiplication by ``sum_k blocks[k] w^k`` modulo ``w^len(blocks)``."""
    K = len(blocks)
    rows = []
    for bi in range(K):
        for r in range(n):
            row = []
            for bj in range(K):
                blk = blocks[bi - bj] if bi >= bj else zero_pairs(n)
                row.extend(to_qqi(p) for p in blk[r])
            rows.append(row)
    return DomainMatrix(rows, (n * K, n * K), QQ_I)


def eye(m):
    return DomainMatrix.eye(m, QQ_I).to_dense()


def log_unipotent(y, K):
    """``log(Id + y) = sum_k (-1)^(k+1) y^k / k`` for ``y^(K+1) == 0``."""
    out, term = eye(y.shape[0]) - eye(y.shape[0]), eye(y.shape[0])
    for k in range(1, K + 1):
        term = term.matmul(y)
        out = out + term * QQ_I(QQ((-1) ** (k + 1), k), QQ(0))
    return out


def first_column(t, n, K):
    """The blocks of a block-Toeplitz matrix's first block column."""
    entries = t.to_list()
    return [[[from_qqi(entries[k * n + r][c]) for c in range(n)] for r in range(n)]
            for k in range(K)]


def series_blocks(s, h, step):
    """Coefficients of ``s`` at powers h, h+step, ... across its window."""
    K = (s.hi - s.lo) + 1
    return [as_pairs(s.coeff(h + step * k)) for k in range(K)]


def test_mat_inv():
    hits = 0
    for seed in range(40):
        rng = random.Random(seed)
        pairs = rand_pairs(rng, 3)
        ref = dm(pairs)
        if ref.det() == QQ_I.zero:
            with pytest.raises(ZeroDivisionError):
                mat_inv(to_gr(pairs))
            continue
        expected = [[from_qqi(x) for x in row] for row in ref.inv().to_list()]
        assert as_pairs(mat_inv(to_gr(pairs))) == expected
        hits += 1
    assert hits >= 30


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "direction,h",
    [("z", 0), ("z", 2), ("zinv", 0), ("zinv", -1)],
)
def test_series_invert(seed, direction, h):
    # leading (bounded-end) power h, then K more powers toward the tail
    rng = random.Random(seed)
    n, K = 3, 4
    step = -1 if direction == "z" else 1
    blocks = [rand_pairs(rng, n) for _ in range(K + 1)]
    while dm(blocks[0]).det() == QQ_I.zero:
        blocks[0] = rand_pairs(rng, n)
    powers = [h + step * k for k in range(K + 1)]
    s = LoopSeries(n, {p: to_gr(b) for p, b in zip(powers, blocks)},
                   (min(powers), max(powers)), direction)
    inv = s.invert()
    assert (inv.lo, inv.hi) == tuple(sorted((-h, -h + step * K)))
    expected = first_column(toeplitz(blocks, n).inv(), n, K + 1)
    assert series_blocks(inv, -h, step) == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("direction", ["z", "zinv"])
def test_exp_and_log(seed, direction):
    rng = random.Random(100 + seed)
    n, K = 2 + seed % 2, 4
    step = -1 if direction == "z" else 1
    blocks = [zero_pairs(n)] + [rand_pairs(rng, n) for _ in range(K)]
    x = LoopSeries(n, {step * k: to_gr(blocks[k]) for k in range(1, K + 1)},
                   sorted((step, step * K)), direction)
    nil = toeplitz(blocks, n)

    # exp of a nilpotent matrix is its finite Taylor sum
    exp_ref = term = eye(n * (K + 1))
    for k in range(1, K + 1):
        term = term.matmul(nil) * QQ_I(QQ(1, k), QQ(0))
        exp_ref = exp_ref + term
    expected_exp = first_column(exp_ref, n, K + 1)
    g = exp_neg(x)
    assert series_blocks(g, 0, step) == expected_exp

    # the sympy logarithm undoes the sympy exponential
    assert first_column(log_unipotent(exp_ref - eye(n * (K + 1)), K), n, K + 1) == blocks
    assert series_blocks(log_unip(g), step, step) == blocks[1:]


@pytest.mark.parametrize("seed", SEEDS)
def test_log_of_random_unipotent(seed):
    rng = random.Random(200 + seed)
    n, K = 3, 3
    blocks = [eye_pairs(n)] + [rand_pairs(rng, n) for _ in range(K)]
    g = LoopSeries(n, {-k: to_gr(blocks[k]) for k in range(K + 1)}, (-K, 0))
    y = toeplitz(blocks, n) - eye(n * (K + 1))
    expected = first_column(log_unipotent(y, K), n, K + 1)
    assert series_blocks(log_unip(g), -1, -1) == expected[1:]

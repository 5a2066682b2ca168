"""Shared fixtures: canonical matrices, the generated corpus, and
independent oracles (minor-expansion rank, Laplace determinants, brute
Penrose checks, Gauss-Jordan over Fraction pairs, Kronecker
vectorization, the two-MP formula for the higher-order group inverse)
that do not reuse the code under test."""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction as F

import pytest

import ginv.matrix
import ginv.pinv
import ginv.verify
from ginv import Matrix, mp_inverse
from ginv.scalar import GaussianRational as GR

I = GR(0, 1)

# entry pool used by the generated corpus: {0, +-1, +-2, +-1/2, 1+-i}
POOL = [
    GR(0),
    GR(1),
    GR(-1),
    GR(2),
    GR(-2),
    GR(F(1, 2)),
    GR(F(-1, 2)),
    GR(1, 1),
    GR(1, -1),
]

CORPUS_SEED = 20260809


@pytest.fixture(scope="session")
def fx():
    """The canonical fixture matrices used throughout the suite."""

    class Fixtures:
        A = Matrix([[1, 1 + I, 0], [1 - I, 2, 0], [-2, 1 + I, 0]])
        X = Matrix([[1, 1 + I, 0], [1 - I, 2, 0], [0, 0, 0]])
        Y = Matrix([[0, 0, 0], [0, 0, 0], [-2, 1 + I, 0]])
        Z = X.scale(F(1, 9))
        N = Matrix([[0, 1], [0, 0]])
        I2 = Matrix.identity(2)
        I3 = Matrix.identity(3)

    return Fixtures


@pytest.fixture
def calls(monkeypatch):
    """Per-test call counts of check_axioms, kronecker, mp_inverse, invert,
    rref, full_rank_factorize, index_chain and Matrix.__pow__ (counted as
    "pow").

    Each function is rebound in every ginv.* namespace that holds it,
    because the modules import each other's functions by name; __pow__ is
    rebound on the class.  Every call is counted, nested ones included.
    """
    originals = {
        "check_axioms": ginv.verify.check_axioms,
        "kronecker": ginv.matrix.kronecker,
        "mp_inverse": ginv.pinv.mp_inverse,
        "invert": ginv.matrix.invert,
        "rref": ginv.matrix.rref,
        "full_rank_factorize": ginv.matrix.full_rank_factorize,
        "index_chain": ginv.matrix.index_chain,
    }
    tally = dict.fromkeys([*originals, "pow"], 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return original(*args, **kwargs)

        return wrapper

    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "ginv"]
    for name, original in originals.items():
        wrapper = counted(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    monkeypatch.setattr(Matrix, "__pow__", counted("pow", Matrix.__pow__))
    return tally


def make_corpus(count_per_style: int = 180, seed: int = CORPUS_SEED) -> list[Matrix]:
    """Deterministic square test corpus, dims 1-5, entries from POOL.

    Mix: one third generic draws, one third forced rank-deficient via
    low-rank products, one third strictly upper triangular (nilpotent).
    """
    rng = random.Random(seed)

    def rand(n, m):
        return Matrix([[rng.choice(POOL) for _ in range(m)] for _ in range(n)])

    out = []
    for _ in range(count_per_style):
        n = rng.randint(1, 5)
        out.append(rand(n, n))
        n = rng.randint(2, 5)
        r = rng.randint(1, n - 1)
        out.append(rand(n, r).matmul(rand(r, n)))
        n = rng.randint(2, 5)
        grid = [[GR(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                grid[i][j] = rng.choice(POOL)
        out.append(Matrix(grid))
    return out


@pytest.fixture(scope="session")
def corpus(fx):
    """540 generated matrices plus the canonical fixtures."""
    return make_corpus() + [fx.A, fx.X, fx.Y, fx.N]


def small_random_matrices(seed, count, max_dim=4, square=False):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_dim)
        m = n if square else rng.randint(1, max_dim)
        yield Matrix([[rng.choice(POOL) for _ in range(m)] for _ in range(n)])


def block_embed(a: Matrix, total: int, offset: int) -> Matrix:
    """Place the square matrix a on the diagonal of a total x total zero matrix."""
    assert offset + a.rows <= total
    rows = []
    for i in range(total):
        row = []
        for j in range(total):
            if offset <= i < offset + a.rows and offset <= j < offset + a.cols:
                row.append(a[i - offset, j - offset])
            else:
                row.append(GR(0))
        rows.append(row)
    return Matrix(rows)


# -- independent oracles -----------------------------------------------------


def laplace_det(m: Matrix) -> GR:
    """Determinant by cofactor expansion; independent of the rref code."""
    n = m.rows
    assert n == m.cols
    if n == 0:
        return GR(1)
    if n == 1:
        return m[0, 0]
    total = GR(0)
    sign = GR(1)
    for j in range(n):
        if m[0, j]:
            minor = Matrix(
                [
                    [m[i, k] for k in range(n) if k != j]
                    for i in range(1, n)
                ]
            )
            total = total + sign * m[0, j] * laplace_det(minor)
        sign = -sign
    return total


def rank_by_minors(m: Matrix) -> int:
    """Largest k with a nonvanishing k x k minor, by brute enumeration."""
    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        found = False
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                sub = Matrix([[m[i, j] for j in cols] for i in rows])
                if laplace_det(sub):
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


def reference_rref(a: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Gauss-Jordan with Q(i) division at every step: (R, rank, pivots).

    The pivot of each column is its first nonzero entry at or below the
    current row; the pivot row is divided by it and cleared from every
    other row.
    """
    one = GR(1)
    data = [list(a.row(i)) for i in range(a.rows)]
    pivots = []
    r = 0
    for j in range(a.cols):
        pivot_row = next((i for i in range(r, a.rows) if data[i][j]), None)
        if pivot_row is None:
            continue
        data[r], data[pivot_row] = data[pivot_row], data[r]
        inv = one / data[r][j]
        data[r] = [inv * e for e in data[r]]
        for i in range(a.rows):
            if i != r and data[i][j]:
                factor = data[i][j]
                data[i] = [e - factor * p for e, p in zip(data[i], data[r])]
        pivots.append(j)
        r += 1
        if r == a.rows:
            break
    return Matrix(data, cols=a.cols), r, tuple(pivots)


def transpose(m: Matrix) -> Matrix:
    """Plain transpose, without conjugation."""
    return Matrix([list(m.col(j)) for j in range(m.cols)], cols=m.rows)


def vec(m: Matrix) -> Matrix:
    """Column-major vectorization, so vec(a r b) = (b^T (x) a) vec(r)."""
    return Matrix.column([m[i, j] for j in range(m.cols) for i in range(m.rows)])


def unvec(v: Matrix, rows: int, cols: int) -> Matrix:
    """The rows x cols matrix m with vec(m) = v."""
    return Matrix(
        [[v[j * rows + i, 0] for j in range(cols)] for i in range(rows)], cols=cols
    )


def reference_hgroup(a: Matrix) -> Matrix:
    """(a+ a^3 a+)+ as the Moore-Penrose inverse of q a p, p = a a+, q = a+ a."""
    ad = mp_inverse(a)
    p, q = a.matmul(ad), ad.matmul(a)
    return mp_inverse(q.matmul(a).matmul(p))


def penrose_holds(a: Matrix, x: Matrix) -> bool:
    """Direct check of the four defining equations."""
    return (
        a.matmul(x).matmul(a) == a
        and x.matmul(a).matmul(x) == x
        and a.matmul(x).h == a.matmul(x)
        and x.matmul(a).h == x.matmul(a)
    )

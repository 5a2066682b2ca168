"""Differential tests against an independent exact oracle.

The oracle is sympy's ``DomainMatrix`` over ``QQ_I``: ginv matrices are read
entry by entry, and every rank, product and comparison on the oracle side is
sympy's own, so no ginv elimination is involved.  The reduced row-echelon
form, its rank and its pivots must equal sympy's ``rref``.  The index comes from a
sympy rank chain, group invertibility from the ranks of a and a^2, the
Moore-Penrose (on rectangular matrices too), group, Drazin and higher-order
group inverses are judged by their defining equations (x in aR and x in Ra
by ranks of stacked matrices), and the core-EP projector by being a
Hermitian idempotent with image im(a^k).  The weak MP and weak higher-order
group inverses are judged by the Moore-Penrose and higher-order group
equations of the core P a, with P = F (F*F)^-1 F* built from a sympy column
basis F of a^k.
"""

import pytest

pytest.importorskip("sympy")

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from ginv import (
    Matrix,
    NotGroupInvertibleError,
    core_ep_decompose,
    drazin_inverse,
    group_inverse,
    hgroup_inverse,
    mp_inverse,
    nilpotency_and_index,
    rref,
    solve_ax_system,
    solve_px_system,
    weak_hgroup_inverse,
    weak_mp_inverse,
)
from ginv.scalar import GaussianRational as GR

from conftest import POOL

NONZERO = [z for z in POOL if z]


@st.composite
def square_matrices(draw, max_n=6):
    """Generic, rank-deficient (u v, u of n x r) and nilpotent-shifted matrices.

    A nilpotent-shifted matrix is upper triangular with zeros on the first z
    diagonal places, so its index is at most z, filled in by unimodular
    similarities a -> (I + c e_i e_j^T) a (I - c e_i e_j^T).
    """
    n = draw(st.integers(1, max_n))
    pick = lambda pool=POOL: draw(st.sampled_from(pool))
    grid = lambda rows, cols: [[pick() for _ in range(cols)] for _ in range(rows)]
    style = draw(st.sampled_from(("generic", "rank-deficient", "nilpotent-shifted")))
    if style == "generic":
        return Matrix(grid(n, n))
    if style == "rank-deficient":
        r = draw(st.integers(0, n - 1))
        return Matrix(grid(n, r), cols=r).matmul(Matrix(grid(r, n), cols=n))
    z = draw(st.integers(1, n))
    a = [[pick() if j > i else GR(0) for j in range(n)] for i in range(n)]
    for i in range(z, n):
        a[i][i] = pick(NONZERO)
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            c = pick((GR(1), GR(-1)))
            a[i] = [p + c * q for p, q in zip(a[i], a[j])]
            for row in a:
                row[j] = row[j] - c * row[i]
    return Matrix(a)


@st.composite
def rectangular_matrices(draw, max_n=6):
    """m x n with m != n: generic, or rank-deficient u v with u of m x r, r < min(m, n)."""
    m = draw(st.integers(1, max_n))
    n = draw(st.integers(1, max_n).filter(lambda n: n != m))
    pick = lambda: draw(st.sampled_from(POOL))
    grid = lambda rows, cols: [[pick() for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        return Matrix(grid(m, n))
    r = draw(st.integers(0, min(m, n) - 1))
    return Matrix(grid(m, r), cols=r).matmul(Matrix(grid(r, n), cols=n))


# -- the oracle ----------------------------------------------------------------


def lift(m: Matrix) -> DomainMatrix:
    rows = [
        [
            QQ_I(QQ(e.re.numerator, e.re.denominator), QQ(e.im.numerator, e.im.denominator))
            for e in m.row(i)
        ]
        for i in range(m.rows)
    ]
    return DomainMatrix(rows, m.shape, QQ_I).to_dense()


def eye(n: int) -> DomainMatrix:
    return DomainMatrix.eye(n, QQ_I).to_dense()


def power(a: DomainMatrix, k: int) -> DomainMatrix:
    out = eye(a.shape[0])
    for _ in range(k):
        out = out * a
    return out


def adj(m: DomainMatrix) -> DomainMatrix:
    return m.transpose().applyfunc(lambda e: QQ_I(e.x, -e.y))


def same(p: DomainMatrix, q: DomainMatrix) -> bool:
    return p.shape == q.shape and (p - q).is_zero_matrix


def oracle_index(a: DomainMatrix) -> int:
    """Least k >= 0 with rank(a^k) = rank(a^(k+1)), a^0 = I."""
    p, previous, k = a, a.shape[0], 0
    while p.rank() != previous:
        previous, p, k = p.rank(), p * a, k + 1
    return k


def oracle_core(a: DomainMatrix) -> DomainMatrix:
    """P a, with P = F (F*F)^-1 F* the orthogonal projector onto im(a^k)."""
    f = power(a, oracle_index(a)).columnspace()
    return f * (adj(f) * f).inv() * adj(f) * a


def penrose_holds(s: DomainMatrix, x: DomainMatrix) -> bool:
    return (
        same(x * s * x, x)
        and same(s * x * s, s)
        and same(adj(s * x), s * x)
        and same(adj(x * s), x * s)
    )


def hgroup_system_holds(s: DomainMatrix, x: DomainMatrix) -> bool:
    """The HGROUP system; x in aR and x in Ra by ranks of stacked matrices."""
    s2, star = s * s, adj(s)
    return (
        same(x * s * x, x)
        and same(s2 * x * s2, s2 * s)
        and same(adj(s2 * x * star), s2 * x * star)
        and same(adj(star * x * s2), star * x * s2)
        and s.hstack(x).rank() == s.rank()  # columns of x in im(a)
        and s.vstack(x).rank() == s.rank()  # rows of x in the row space of a
    )


# -- the differential tests ------------------------------------------------------


@given(st.one_of(square_matrices(), rectangular_matrices()))
@settings(max_examples=80, deadline=None)
@example(Matrix([], cols=4))
@example(Matrix([[], [], []], cols=0))
@example(Matrix.zeros(2, 3))
@example(Matrix([[0, 0, 1], [0, 2, 1], [1, 1, 1]]))
@example(Matrix([[GR(1, 1), 2, 1], [GR(1, -1), 3, GR(2, 1)], [2, GR(1, 1), 5]]))
@example(Matrix([[F(1, 999983), GR(F(1, 10**6), 1)], [F(7, 999979), F(1, 3)]]))
def test_rref(a):
    reduced, rk, pivots = rref(a)
    expected, expected_pivots = lift(a).rref()
    assert same(lift(reduced), expected)
    assert pivots == tuple(expected_pivots) and rk == len(pivots)


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_index_and_group_existence(a):
    s = lift(a)
    k = oracle_index(s)
    assert nilpotency_and_index(a) == (power(s, k).is_zero_matrix, k)
    if (s * s).rank() == s.rank():
        x = lift(group_inverse(a))
        assert same(x * s * x, x) and same(s * x * s, s) and same(s * x, x * s)
    else:
        with pytest.raises(NotGroupInvertibleError):
            group_inverse(a)


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_drazin_inverse(a):
    s, x = lift(a), lift(drazin_inverse(a))
    sk = power(s, oracle_index(s))
    assert same(s * x, x * s)
    assert same(sk * s * x, sk)
    assert same(x * s * x, x)


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_core_ep_projector(a):
    s = lift(a)
    k = oracle_index(s)
    d = core_ep_decompose(a)
    p, sk = lift(d.projector), power(s, k)
    assert d.index == k
    assert same(adj(p), p) and same(p * p, p)
    assert p.rank() == sk.rank() == p.hstack(sk).rank()
    assert same(lift(d.core), p * s)


@given(st.one_of(square_matrices(), rectangular_matrices()))
@settings(max_examples=80, deadline=None)
def test_mp_inverse(a):
    s, x = lift(a), lift(mp_inverse(a))
    assert x.shape == (a.cols, a.rows)
    assert penrose_holds(s, x)


@given(square_matrices())
@settings(max_examples=40, deadline=None)
def test_hgroup_inverse_and_its_systems(a):
    x = lift(hgroup_inverse(a))
    assert hgroup_system_holds(lift(a), x)
    for result in (solve_ax_system(a), solve_px_system(a)):
        assert same(lift(result.solution), x)
        assert result.homogeneous_dimension == 0


@given(square_matrices())
@settings(max_examples=40, deadline=None)
def test_weak_mp_inverse(a):
    assert penrose_holds(oracle_core(lift(a)), lift(weak_mp_inverse(a)))


@given(square_matrices())
@settings(max_examples=40, deadline=None)
def test_weak_hgroup_inverse(a):
    assert hgroup_system_holds(oracle_core(lift(a)), lift(weak_hgroup_inverse(a)))

"""Metamorphic oracle: every inverse commutes with a change of basis.

For a unitary u, (u a u*)+ = u a+ u*, and the higher-order group, weak
higher-order group and weak-MP inverses and the core-EP decomposition
transform the same way, with the index unchanged; for rectangular a,
(u a v*)+ = v a+ u*.  The (b,c)-inverse of u a u* for the pair
(u b u*, u c u*) is u x u*, and each (b,c) condition on a candidate y has
the same verdict as on u y u*.  Group and Drazin inverses and the index
commute with every similarity s a s^-1.

The unitaries are Cayley transforms u = (I - k)(I + k)^-1 of a
skew-Hermitian k = t - t*, whose entries carry large denominators, and
the cheap monomial class: signed permutations times diag(i^k).  The
similarities are products of shears and an invertible diagonal.  The
oracle needs no sympy: the adjoints and inverses it conjugates with are
written down from entries (a Cayley transform is certified by u* u = I),
not taken from the kernel under test.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginv import (
    BcPair,
    InverseKind,
    Matrix,
    NotBcInvertibleError,
    NotGroupInvertibleError,
    bc_inverse,
    check_axioms,
    core_ep_decompose,
    drazin_inverse,
    group_inverse,
    hgroup_inverse,
    mp_inverse,
    nilpotency_and_index,
    weak_hgroup_inverse,
    weak_mp_inverse,
)
from ginv.matrix import invert
from ginv.scalar import GaussianRational as GR

from conftest import POOL

I = GR(0, 1)
ZERO, ONE = GR(0), GR(1)
UNITS = (ONE, I, -ONE, -I)
ENTRY = st.sampled_from(POOL)
NONZERO = st.sampled_from(POOL[1:])
EXAMPLES = settings(max_examples=30, deadline=None)


def adjoint(m: Matrix) -> Matrix:
    """Conjugate transpose, from the entries."""
    return Matrix(
        [[m[i, j].conjugate() for i in range(m.rows)] for j in range(m.cols)], cols=m.rows
    )


def grid(data, rows: int, cols: int) -> Matrix:
    return Matrix([[data.draw(ENTRY) for _ in range(cols)] for _ in range(rows)], cols=cols)


def operand(data, n: int) -> Matrix:
    """Generic, rank-deficient, or upper triangular with a likely zero diagonal."""
    shape = data.draw(st.sampled_from(("generic", "low-rank", "triangular")))
    if shape == "generic":
        return grid(data, n, n)
    if shape == "low-rank":
        r = data.draw(st.integers(0, n - 1))
        return grid(data, n, r).matmul(grid(data, r, n))
    diagonal = st.sampled_from((ZERO, ZERO, ONE, 1 + I))
    return Matrix(
        [
            [data.draw(ENTRY) if j > i else data.draw(diagonal) if j == i else ZERO for j in range(n)]
            for i in range(n)
        ]
    )


def cayley(data, n: int) -> Matrix:
    t = grid(data, n, n)
    k, eye = t - adjoint(t), Matrix.identity(n)
    u = (eye - k).matmul(invert(eye + k))
    assert adjoint(u).matmul(u) == eye
    return u


def monomial(data, n: int) -> Matrix:
    """A signed permutation times diag(i^k)."""
    perm = data.draw(st.permutations(range(n)))
    units = [data.draw(st.sampled_from(UNITS)) for _ in range(n)]
    return Matrix([[units[i] if j == perm[i] else ZERO for j in range(n)] for i in range(n)])


def unitary(data, n: int) -> Matrix:
    return data.draw(st.sampled_from((cayley, monomial)))(data, n)


def similarity(data, n: int) -> tuple[Matrix, Matrix]:
    """(s, s^-1) for s a product of shears I + t e_ij and an invertible diagonal."""
    s = s_inv = Matrix.identity(n)
    for _ in range(data.draw(st.integers(0, 2 * n)) if n > 1 else 0):
        i, j = data.draw(st.permutations(range(n)))[:2]
        t = data.draw(NONZERO)
        shear = [[ONE if p == q else t if (p, q) == (i, j) else ZERO for q in range(n)] for p in range(n)]
        s = s.matmul(Matrix(shear))
        shear[i][j] = -t
        s_inv = Matrix(shear).matmul(s_inv)
    d = [data.draw(NONZERO) for _ in range(n)]
    s = s.matmul(Matrix([[d[p] if p == q else ZERO for q in range(n)] for p in range(n)]))
    s_inv = Matrix([[ONE / d[p] if p == q else ZERO for q in range(n)] for p in range(n)]).matmul(s_inv)
    assert s.matmul(s_inv) == Matrix.identity(n)
    return s, s_inv


def outcome(f, *args):
    """f(*args), or the name of the ginv error it raised."""
    try:
        return f(*args)
    except (NotBcInvertibleError, NotGroupInvertibleError) as exc:
        return type(exc).__name__


def conjugate(u: Matrix, m, u_inv: Matrix):
    return m if isinstance(m, str) else u.matmul(m).matmul(u_inv)


@given(st.data())
@EXAMPLES
def test_mp_under_two_unitaries(data):
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    a, u, v = grid(data, rows, cols), unitary(data, rows), unitary(data, cols)
    assert mp_inverse(u.matmul(a).matmul(adjoint(v))) == v.matmul(mp_inverse(a)).matmul(adjoint(u))


@pytest.mark.parametrize(
    "inverse", [hgroup_inverse, weak_hgroup_inverse, weak_mp_inverse], ids=lambda f: f.__name__
)
@given(data=st.data())
@EXAMPLES
def test_inverse_under_unitary_conjugation(inverse, data):
    n = data.draw(st.integers(1, 5))
    a, u = operand(data, n), unitary(data, n)
    assert inverse(u.matmul(a).matmul(adjoint(u))) == conjugate(u, inverse(a), adjoint(u))


@given(st.data())
@EXAMPLES
def test_core_ep_and_index_under_unitary_conjugation(data):
    n = data.draw(st.integers(1, 5))
    a, u = operand(data, n), unitary(data, n)
    b = u.matmul(a).matmul(adjoint(u))
    mine, theirs = core_ep_decompose(a), core_ep_decompose(b)
    assert theirs.index == mine.index
    for field in ("core", "nil", "projector"):
        assert getattr(theirs, field) == conjugate(u, getattr(mine, field), adjoint(u))
    assert nilpotency_and_index(b) == nilpotency_and_index(a)


@given(st.data())
@EXAMPLES
def test_bc_under_unitary_conjugation(data):
    n = data.draw(st.integers(1, 4))
    a, b, c, r = (operand(data, n) for _ in range(4))
    # a candidate in bR, in Rc, in both, or free, so memberships go both ways
    y = data.draw(
        st.sampled_from((r, b.matmul(r), r.matmul(c), b.matmul(r).matmul(c)))
    )
    u = unitary(data, n)
    uh = adjoint(u)
    a2, b2, c2, y2 = (u.matmul(m).matmul(uh) for m in (a, b, c, y))
    assert outcome(bc_inverse, a2, BcPair(b2, c2)) == conjugate(
        u, outcome(bc_inverse, a, BcPair(b, c)), uh
    )
    verdicts = [
        [(ch.name, ch.holds) for ch in check_axioms(InverseKind.BC, m, x, pair=pair).checks]
        for m, x, pair in ((a, y, BcPair(b, c)), (a2, y2, BcPair(b2, c2)))
    ]
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("inverse", [group_inverse, drazin_inverse], ids=lambda f: f.__name__)
@given(data=st.data())
@EXAMPLES
def test_inverse_under_similarity(inverse, data):
    n = data.draw(st.integers(1, 5))
    a = operand(data, n)
    s, s_inv = similarity(data, n)
    b = s.matmul(a).matmul(s_inv)
    assert outcome(inverse, b) == conjugate(s, outcome(inverse, a), s_inv)
    assert nilpotency_and_index(b) == nilpotency_and_index(a)


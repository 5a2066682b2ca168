"""Matrix kernel: algebra, elimination, subspaces, memberships, index."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ginv import (
    DimensionError,
    Matrix,
    NoSolutionError,
    full_rank_factorize,
    hstack,
    ideal_membership,
    image_of,
    kernel_of,
    kronecker,
    mp_inverse,
    nilpotency_and_index,
    nullspace_basis,
    rank,
    rref,
    solve_right,
    subspace_relate,
)
from ginv.matrix import index_chain
from ginv.scalar import GaussianRational as GR

from conftest import (
    POOL,
    rank_by_minors,
    reference_rref,
    small_random_matrices,
    transpose,
    unvec,
    vec,
)

I = GR(0, 1)


def small_matrices(max_dim=3):
    entries = st.sampled_from(POOL)
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.lists(
                st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n
            ).map(Matrix)
        )
    )


class TestAlgebra:
    def test_fixture_products(self, fx):
        assert fx.X.matmul(fx.Y).is_zero()
        assert fx.X**2 == fx.X.scale(3)
        assert fx.X + fx.Y == fx.A

    def test_scale_and_sub(self, fx):
        assert fx.Z.scale(GR(3)) == fx.X.scale(F(1, 3))
        assert fx.A - fx.Y == fx.X

    def test_pow_zero_is_identity(self, fx):
        assert fx.A**0 == Matrix.identity(3)

    def test_pow_requires_square(self):
        with pytest.raises(DimensionError):
            Matrix.zeros(2, 3) ** 2

    def test_dimension_mismatch(self, fx):
        with pytest.raises(DimensionError):
            fx.A + fx.N
        with pytest.raises(DimensionError):
            fx.A.matmul(fx.N)

    def test_zero_width_products(self):
        f = Matrix.zeros(2, 0)
        g = Matrix.zeros(0, 3)
        assert f.matmul(g) == Matrix.zeros(2, 3)
        assert rank(f) == 0

    def test_no_operator_for_product_or_scaling(self, fx):
        # matmul and scale are the one spelling of the product and of scaling
        for spell in (lambda: fx.A * fx.A, lambda: 2 * fx.A, lambda: fx.A * 2, lambda: -fx.A):
            with pytest.raises(TypeError):
                spell()

    def test_cols_must_match_the_rows(self):
        with pytest.raises(DimensionError):
            Matrix([[1, 2]], cols=5)
        assert Matrix([], cols=3).shape == (0, 3)


def grid(rows, cols, fill=0):
    """rows x cols matrix built by the constructor alone, not by Matrix.zeros."""
    return Matrix([[fill] * cols for _ in range(rows)], cols=cols)


def frf_shapes(m):
    frf = full_rank_factorize(m)
    return frf.f.shape, frf.g.shape


# every kernel operation on a matrix with no rows or no columns, with its
# exact result; the plain constructor is the one path that builds them
EMPTY_SHAPES = {
    "zeros(0,3)": (lambda: Matrix.zeros(0, 3), grid(0, 3)),
    "zeros(3,0)": (lambda: Matrix.zeros(3, 0), grid(3, 0)),
    "zeros(0,0)": (lambda: Matrix.zeros(0, 0), grid(0, 0)),
    "2x0 times 0x3": (lambda: Matrix.zeros(2, 0).matmul(Matrix.zeros(0, 3)), grid(2, 3)),
    "0x2 times 2x3": (lambda: Matrix.zeros(0, 2).matmul(grid(2, 3, 1)), grid(0, 3)),
    "hstack 0-row": (lambda: hstack(grid(0, 2), grid(0, 0), grid(0, 3)), grid(0, 5)),
    "rref 0-row": (lambda: rref(grid(0, 3)), (grid(0, 3), 0, ())),
    "rref 0-col": (lambda: rref(grid(3, 0)), (grid(3, 0), 0, ())),
    "solve 0-row": (lambda: solve_right(grid(0, 2), grid(0, 3)), grid(2, 3)),
    "solve 0-col": (lambda: solve_right(grid(2, 0), grid(2, 3)), grid(0, 3)),
    "solve 0-col 0-rhs": (lambda: solve_right(grid(2, 0), grid(2, 0)), grid(0, 0)),
    "kronecker 0-row": (lambda: kronecker(grid(0, 2), grid(3, 1, 1)), grid(0, 2)),
    "kronecker 0-col": (lambda: kronecker(grid(2, 0), grid(1, 3, 1)), grid(2, 0)),
    "kronecker by 0-row": (lambda: kronecker(grid(2, 2, 1), grid(0, 3)), grid(0, 6)),
    "h 0-row": (lambda: grid(0, 3).h, grid(3, 0)),
    "h 0-col": (lambda: grid(3, 0).h, grid(0, 3)),
    "frf zeros(2,3)": (lambda: frf_shapes(grid(2, 3)), ((2, 0), (0, 3))),
    "frf zeros(0,3)": (lambda: frf_shapes(grid(0, 3)), ((0, 0), (0, 3))),
    "frf zeros(3,0)": (lambda: frf_shapes(grid(3, 0)), ((3, 0), (0, 0))),
    "mp zeros(0,3)": (lambda: mp_inverse(grid(0, 3)), grid(3, 0)),
    "mp zeros(3,0)": (lambda: mp_inverse(grid(3, 0)), grid(0, 3)),
}


@pytest.mark.parametrize("case", EMPTY_SHAPES)
def test_empty_shapes(case):
    compute, expected = EMPTY_SHAPES[case]
    assert compute() == expected


class TestAdjoint:
    def test_hermitian_fixture(self, fx):
        assert fx.X.h == fx.X

    def test_shift_matrix(self, fx):
        assert fx.N.h == Matrix([[0, 0], [1, 0]])

    def test_scalar_conjugation(self):
        one_plus_i = Matrix([[1 + I]])
        assert one_plus_i.h == Matrix([[1 - I]])

    @given(small_matrices(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_involution_laws(self, a, data):
        b = data.draw(small_matrices().filter(lambda m: m.rows == a.cols))
        assert a.h.h == a
        assert a.matmul(b).h == b.h.matmul(a.h)
        assert rank(a.h) == rank(a)


@st.composite
def elimination_inputs(draw, max_dim=5):
    """Any shape, 0 x n and n x 0 included: generic, zero, or a product u v
    of inner size below both sides; entries from POOL or with denominators
    up to 10^6."""
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    wide = st.builds(
        lambda re, im, den: GR(F(re, den), F(im, den)),
        st.integers(-(10**6), 10**6),
        st.integers(-3, 3),
        st.integers(1, 10**6),
    )
    entries = st.one_of(st.sampled_from(POOL), wide)
    grid = lambda n, m: Matrix([[draw(entries) for _ in range(m)] for _ in range(n)], cols=m)
    style = draw(st.sampled_from(("generic", "zero", "product")))
    if style == "generic":
        return grid(rows, cols)
    if style == "zero":
        return Matrix.zeros(rows, cols)
    inner = draw(st.integers(0, max(min(rows, cols) - 1, 0)))
    return grid(rows, inner).matmul(grid(inner, cols))


GRAM_FACTOR = Matrix([[1, 1 + I, 0], [I, 2, 1 - I], [1, 0, 2 * I], [0, 1, 1]])


class TestRref:
    @given(elimination_inputs())
    @settings(max_examples=150, deadline=None)
    @example(Matrix([], cols=3))
    @example(Matrix([[], []], cols=0))
    @example(Matrix.zeros(3, 4))
    @example(Matrix([[0, 1, 2], [1, 0, 3]]))  # the first column needs a row swap
    # complex pivots 1+i and then 2-i: later rows divide by a non-real pivot
    @example(Matrix([[1 + I, 2, 1, 0], [1 - I, 3, 2 + I, 1], [2, 1 + I, 5, F(1, 2)]]))
    @example(Matrix([[2 * I, 1, 0], [1, 1 + I, 3], [I, 2, 1 - I]]))  # imaginary pivot 2i
    @example(Matrix([[F(1, 999983), F(2, 10**6) + I], [F(7, 999979), F(1, 3)]]))
    # the Hermitian Gram matrix f*f beside I: every previous pivot is a
    # leading principal minor of f*f, so real, while the entries are not
    @example(hstack(GRAM_FACTOR.h.matmul(GRAM_FACTOR), Matrix.identity(3)))
    @example(Matrix([[-2, 1, 3], [4, 1, 5], [1, 3, 2]]))  # real, previous pivot -2
    def test_agrees_with_reference_gauss_jordan(self, a):
        assert rref(a) == reference_rref(a)

    def test_fixture_ranks(self, fx):
        reduced, rk, pivots = rref(fx.X)
        assert rk == 1 and pivots == (0,)
        assert rank(fx.A) == 2
        assert rank(fx.I3) == 3

    def test_idempotent(self, fx):
        reduced, _, _ = rref(fx.A)
        again, _, _ = rref(reduced)
        assert again == reduced

    def test_rank_matches_minor_oracle(self, fx):
        for m in [fx.A, fx.X, fx.Y, fx.N, fx.I3]:
            assert rank(m) == rank_by_minors(m)
        for m in small_random_matrices(seed=7, count=25):
            assert rank(m) == rank_by_minors(m)


class TestSolveRight:
    def test_identity(self, fx):
        b = Matrix([[1, 2], [3, 4], [5, 6]])
        assert solve_right(fx.I3, b) == b

    def test_no_solution(self, fx):
        with pytest.raises(NoSolutionError):
            solve_right(fx.N, Matrix([[0], [1]]))

    def test_canonical_solution_zero_off_pivots(self, fx):
        u = solve_right(fx.X, fx.X.scale(3))
        assert fx.X.matmul(u) == fx.X.scale(3)
        # pivot column of X is 0, so rows 1 and 2 of u stay zero
        assert all(not u[i, j] for i in (1, 2) for j in range(3))

    def test_dimension_error(self, fx):
        with pytest.raises(DimensionError):
            solve_right(fx.N, Matrix([[1], [2], [3]]))

    @given(small_matrices(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_solution_solves(self, a, data):
        cols = data.draw(st.integers(1, 2))
        u0 = data.draw(
            st.lists(
                st.lists(st.sampled_from(POOL), min_size=cols, max_size=cols),
                min_size=a.cols,
                max_size=a.cols,
            ).map(Matrix)
        )
        b = a.matmul(u0)  # consistent by construction
        u = solve_right(a, b)
        assert a.matmul(u) == b


class TestNullspace:
    def test_identity_trivial(self, fx):
        assert nullspace_basis(fx.I3) == []

    def test_zero_matrix(self):
        basis = nullspace_basis(Matrix.zeros(3, 3))
        assert hstack(*basis) == Matrix.identity(3)

    def test_fixture_kernel(self, fx):
        basis = nullspace_basis(fx.X)
        assert basis == [Matrix([[-(1 + I)], [1], [0]]), Matrix([[0], [0], [1]])]
        for v in basis:
            assert fx.X.matmul(v).is_zero()

    @given(small_matrices())
    @settings(max_examples=40, deadline=None)
    def test_size_and_annihilation(self, a):
        basis = nullspace_basis(a)
        assert len(basis) == a.cols - rank(a)
        for v in basis:
            assert a.matmul(v).is_zero()


class TestFullRankFactorization:
    def test_fixture(self, fx):
        frf = full_rank_factorize(fx.X)
        assert frf.f == Matrix([[1], [1 - I], [0]])
        assert frf.g == Matrix([[1, 1 + I, 0]])
        assert frf.f.matmul(frf.g) == fx.X

    def test_identity(self, fx):
        frf = full_rank_factorize(fx.I2)
        assert frf.f == fx.I2 and frf.g == fx.I2

    def test_degenerate_zero(self):
        frf = full_rank_factorize(Matrix.zeros(2, 2))
        assert frf.rank == 0
        assert frf.f.shape == (2, 0) and frf.g.shape == (0, 2)
        assert frf.f.matmul(frf.g) == Matrix.zeros(2, 2)

    def test_ranks_on_random(self):
        for m in small_random_matrices(seed=11, count=25):
            frf = full_rank_factorize(m)
            assert frf.f.matmul(frf.g) == m
            assert rank(frf.f) == rank(frf.g) == frf.rank == rank(m)


class TestSubspaces:
    def test_image_equality(self, fx):
        assert subspace_relate(image_of(fx.A**2), image_of(fx.X), "equals")

    def test_kernel_inequality(self, fx):
        assert not subspace_relate(kernel_of(fx.X), kernel_of(fx.A), "equals")

    def test_containment(self, fx):
        assert subspace_relate(image_of(fx.I3), image_of(fx.X), "contains")
        assert not subspace_relate(image_of(fx.X), image_of(fx.I3), "contains")

    def test_ambient_mismatch(self, fx):
        with pytest.raises(DimensionError):
            subspace_relate(image_of(fx.I3), image_of(fx.N), "equals")

    def test_equivalence_relation(self, fx):
        descriptors = [
            image_of(fx.X),
            image_of(fx.X.scale(3)),
            image_of(fx.A),
            kernel_of(fx.A),
            kernel_of(fx.X),
            image_of(fx.I3),
        ]
        for p in descriptors:
            assert subspace_relate(p, p, "equals")
        for p in descriptors:
            for q in descriptors:
                assert subspace_relate(p, q, "equals") == subspace_relate(
                    q, p, "equals"
                )
        for p in descriptors:
            for q in descriptors:
                for r in descriptors:
                    if subspace_relate(p, q, "equals") and subspace_relate(
                        q, r, "equals"
                    ):
                        assert subspace_relate(p, r, "equals")


class TestMembership:
    def test_in_left_ideal(self, fx):
        outcome = ideal_membership("x_in_aR", fx.Z, fx.X)
        assert outcome.holds
        assert fx.X.matmul(outcome.witness) == fx.Z

    def test_not_in_left_ideal(self, fx):
        # every member of X R has a zero third row; Y does not
        assert not ideal_membership("x_in_aR", fx.Y, fx.X).holds

    def test_in_right_ideal(self, fx):
        outcome = ideal_membership("x_in_Ra", fx.Z, fx.X)
        assert outcome.holds
        assert outcome.witness.matmul(fx.X) == fx.Z

    def test_sandwich_zero(self, fx):
        outcome = ideal_membership("x_in_bRx", Matrix.zeros(3, 3), fx.A)
        assert outcome.holds
        assert fx.A.matmul(outcome.witness).is_zero()

    def test_sandwich_witness_reconstructs(self, fx):
        # the bRx witness is the solution u of b u = x, as for aR
        outcome = ideal_membership("x_in_bRx", fx.Z, fx.X.scale(3))
        assert outcome.holds
        assert fx.X.scale(3).matmul(outcome.witness) == fx.Z

    def test_not_in_sandwich_bRx(self, fx):
        # im(Y) is not inside im(X), whose third coordinate is always zero
        assert not ideal_membership("x_in_bRx", fx.Y, fx.X).holds

    def test_sandwich_xRc_witness_reconstructs(self, fx):
        # the xRc witness is the solution v of v c = x, as for Ra
        outcome = ideal_membership("x_in_xRc", fx.Z, fx.X.scale(3))
        assert outcome.holds
        assert outcome.witness.matmul(fx.X.scale(3)) == fx.Z

    def test_not_in_sandwich_xRc(self, fx):
        # the row (-2, 1+i, 0) of Y is not a multiple of the row (1, 1+i, 0) of X
        assert not ideal_membership("x_in_xRc", fx.Y, fx.X).holds

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_projector_verdict_matches_kronecker_system(self, data):
        n = data.draw(st.integers(1, 3))
        draw = lambda: Matrix(
            [[data.draw(st.sampled_from(POOL)) for _ in range(n)] for _ in range(n)]
        )
        b, c, r = draw(), draw(), draw()
        shape = data.draw(st.sampled_from(("free", "b r", "r c")))
        x = draw() if shape == "free" else b.matmul(r) if shape == "b r" else r.matmul(c)
        # reference: x = b r' x and x = x r' c as n^2 x n^2 linear systems in r'
        for relation, system, fixed, product in (
            ("x_in_bRx", kronecker(transpose(x), b), b, lambda w: b.matmul(w)),
            ("x_in_xRc", kronecker(transpose(c), x), c, lambda w: w.matmul(c)),
        ):
            try:
                solve_right(system, vec(x))
                expected = True
            except NoSolutionError:
                expected = False
            outcome = ideal_membership(relation, x, fixed)
            assert outcome.holds == expected
            if outcome.holds:
                assert product(outcome.witness) == x
        if shape == "b r":
            assert ideal_membership("x_in_bRx", x, b).holds
        if shape == "r c":
            assert ideal_membership("x_in_xRc", x, c).holds

    def test_dimension_error(self, fx):
        with pytest.raises(DimensionError):
            ideal_membership("x_in_aR", fx.Z, fx.N)


class TestVectorization:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_kronecker_identity(self, data):
        n = data.draw(st.integers(1, 3))
        draw = lambda: Matrix(
            [
                [data.draw(st.sampled_from(POOL)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        a, r, b = draw(), draw(), draw()
        lhs = vec(a.matmul(r).matmul(b))
        rhs = kronecker(transpose(b), a).matmul(vec(r))
        assert lhs == rhs
        assert unvec(vec(r), n, n) == r


class TestIndex:
    def test_fixtures(self, fx):
        assert nilpotency_and_index(fx.Y) == (True, 2)
        assert nilpotency_and_index(fx.X) == (False, 1)
        assert nilpotency_and_index(fx.A) == (False, 2)
        assert nilpotency_and_index(fx.N) == (True, 2)

    def test_rank_chain_of_A(self, fx):
        assert [rank(fx.A**k) for k in (1, 2, 3)] == [2, 1, 1]

    def test_zero_matrix_convention(self):
        assert nilpotency_and_index(Matrix.zeros(2, 2)) == (True, 1)

    def test_invertible_has_index_zero(self, fx):
        assert nilpotency_and_index(fx.I3) == (False, 0)

    def test_requires_square(self):
        with pytest.raises(DimensionError):
            nilpotency_and_index(Matrix.zeros(2, 3))

    def test_index_bounded_by_size(self):
        for m in small_random_matrices(seed=23, count=25, square=True):
            nilpotent, k = nilpotency_and_index(m)
            assert k <= m.rows
            assert rank(m**k) == rank(m ** (k + 1))
            if nilpotent:
                assert (m**m.rows).is_zero()

    def test_chain_reproduces_powers(self, fx):
        fixtures = [fx.A, fx.X, fx.Y, fx.N, fx.I3]
        for a in fixtures + list(small_random_matrices(seed=29, count=25, square=True)):
            k, f, m, g = index_chain(a)
            assert a**k == f.matmul(g)
            assert a ** (k + 1) == f.matmul(m).matmul(g)
            assert m.is_square and rank(m) == m.rows
            assert f.cols == g.rows == rank(a**k)
            assert nilpotency_and_index(a) == (m.rows == 0, k)

    def test_nilpotent_jordan_block(self):
        jordan = Matrix([[1 if j == i + 1 else 0 for j in range(4)] for i in range(4)])
        assert nilpotency_and_index(jordan) == (True, 4)

    def test_chain_of_zero_and_identity(self, fx):
        k, f, m, g = index_chain(Matrix.zeros(3, 3))
        assert (k, m.shape, f.shape, g.shape) == (1, (0, 0), (3, 0), (0, 3))
        assert index_chain(fx.I3) == (0, fx.I3, fx.I3, fx.I3)

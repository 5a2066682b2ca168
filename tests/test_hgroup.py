"""Higher-order group inverse and its system/(b,c)/{2}-inverse routes."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ginv import (
    BcPair,
    InverseKind,
    Matrix,
    NotBcInvertibleError,
    NotTwoInvertibleError,
    bc_inverse,
    build_bc_pair,
    check_axioms,
    group_inverse,
    hgroup_inverse,
    hstack,
    image_of,
    kernel_of,
    kronecker,
    mp_inverse,
    nullspace_basis,
    rank,
    solve_ax_system,
    solve_px_system,
    subspace_relate,
    two_inverse_prescribed,
)
from ginv.hgroup import _constrained_solve, hgroup_candidate
from ginv.scalar import GaussianRational as GR

from conftest import POOL, reference_hgroup, small_random_matrices, transpose, unvec

I = GR(0, 1)

# (a, r, s): r = rank(a) and s = rank((g f)^2) = rank(a^3) for a = f g,
# one case per branch of the factored formula and per matrix class
HGROUP_BRANCHES = {
    "r = 0": (Matrix.zeros(3, 3), 0, 0),
    "s = r, dense": (Matrix([[1, 2, I], [3, 4, 0], [0, 1 - I, 1]]), 3, 3),
    "s = r, singular": (Matrix([[1, 1 + I, 0], [1 - I, 2, 0], [0, 0, 0]]), 1, 1),
    "0 < s < r, complex": (Matrix([[1, 1 + I, 0], [1 - I, 2, 0], [-2, 1 + I, 0]]), 2, 1),
    "0 < s < r, Jordan block J4(0)": (
        Matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]), 3, 1
    ),
    "0 < s < r, triangular index 2": (
        Matrix([[0, 2, 1, -1], [0, 0, F(1, 2), 1 + I], [0, 0, -1, 2], [0, 0, 0, 1 - I]]), 3, 2
    ),
    "0 < s < r, index 3": (
        Matrix([[0, 1, 0, 1], [0, 0, 1, 2], [0, 0, 0, 0], [0, 0, 0, 2]]), 3, 1
    ),
    "s = 0, Jordan block J3(0)": (Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), 2, 0),
    "s = 0, a^2 = 0": (Matrix([[1, 1], [-1, -1]]), 1, 0),
}


@st.composite
def hgroup_inputs(draw, max_dim=5):
    """Generic, low-rank products u v and nilpotent-heavy upper triangular
    matrices (zero diagonal but for the last entries), so every branch of
    the factored formula is drawn."""
    n = draw(st.integers(1, max_dim))
    pick = lambda: draw(st.sampled_from(POOL))
    style = draw(st.sampled_from(("generic", "product", "triangular")))
    if style == "generic":
        return Matrix([[pick() for _ in range(n)] for _ in range(n)])
    if style == "product":
        r = draw(st.integers(0, n - 1))
        u = Matrix([[pick() for _ in range(r)] for _ in range(n)], cols=r)
        return u.matmul(Matrix([[pick() for _ in range(n)] for _ in range(r)], cols=n))
    zeros = draw(st.integers(1, n))
    upper = lambda i, j: j > i or (j == i and i >= zeros)
    return Matrix([[pick() if upper(i, j) else GR(0) for j in range(n)] for i in range(n)])


def square_triples(max_dim=3):
    """(a, b, c) of one square size; entries lean to 0 so ranks vary."""
    entries = st.one_of(st.just(GR(0)), st.sampled_from(POOL))

    def square(n):
        row = st.lists(entries, min_size=n, max_size=n)
        return st.lists(row, min_size=n, max_size=n).map(Matrix)

    return st.integers(1, max_dim).flatmap(
        lambda n: st.tuples(square(n), square(n), square(n))
    )


@st.composite
def constrained_systems(draw, max_dim=4):
    """(outer, basis, rhs): outer and basis are products u v of rank <= r,
    so ker(outer) /\\ im(basis) is often nonzero; rhs = outer basis w."""
    n = draw(st.integers(1, max_dim))
    grid = lambda rows, cols: Matrix(
        [[draw(st.sampled_from(POOL)) for _ in range(cols)] for _ in range(rows)], cols=cols
    )

    def low_rank():
        r = draw(st.integers(0, n))
        return grid(n, r).matmul(grid(r, n))

    outer, basis = low_rank(), low_rank()
    return outer, basis, outer.matmul(basis).matmul(grid(n, n))


class TestHgroupInverse:
    def test_hermitian_fixture(self, fx):
        assert hgroup_inverse(fx.X) == fx.Z

    def test_rank_two_fixture(self, fx):
        # oracle: exact full-rank-factorization MP of A, exact MP of
        # a+ a^3 a+, then the full defining-system verification; the chain
        # collapses because A+ A^3 A+ equals the core part X exactly
        ad = mp_inverse(fx.A)
        middle = ad.matmul(fx.A**3).matmul(ad)
        assert middle == fx.X
        value = hgroup_inverse(fx.A)
        assert value == mp_inverse(middle) == fx.Z
        assert check_axioms(InverseKind.HGROUP, fx.A, value).overall

    def test_nilpotent(self, fx):
        assert hgroup_inverse(fx.N).is_zero()

    @pytest.mark.parametrize("case", HGROUP_BRANCHES)
    def test_factored_formula_on_each_branch(self, case):
        a, r, s = HGROUP_BRANCHES[case]
        assert (rank(a), rank(a**3)) == (r, s)
        assert hgroup_candidate(a) == reference_hgroup(a)

    @given(hgroup_inputs())
    @settings(max_examples=80, deadline=None)
    def test_factored_formula_matches_two_mp_reference(self, a):
        assert hgroup_candidate(a) == reference_hgroup(a)

    def test_no_mp_inverse(self, fx, calls):
        # s < r: one factorization of a and one of the r x r middle (g f)^2
        hgroup_candidate(fx.A)
        assert calls["mp_inverse"] == 0 and calls["full_rank_factorize"] == 2
        calls.update(dict.fromkeys(calls, 0))
        # s = r: one factorization and one r x r inverse
        hgroup_candidate(fx.I3)
        assert calls["mp_inverse"] == 0 and calls["full_rank_factorize"] == 1
        assert calls["rref"] == 2

    def test_identity(self, fx):
        assert hgroup_inverse(fx.I3) == fx.I3

    def test_full_system_on_random(self):
        for a in small_random_matrices(seed=61, count=20, square=True):
            x = hgroup_inverse(a)
            assert check_axioms(InverseKind.HGROUP, a, x).overall

    def test_agrees_with_group_inverse_at_low_index(self, fx):
        assert hgroup_inverse(fx.X) == group_inverse(fx.X)
        assert hgroup_inverse(fx.I3) == group_inverse(fx.I3)
        for a in small_random_matrices(seed=67, count=25, square=True):
            if rank(a) == rank(a.matmul(a)):
                assert hgroup_inverse(a) == group_inverse(a)

    def test_uniqueness_by_perturbation(self, fx):
        # perturbing the value along any kernel direction of
        # h -> a^2 h a^2 must break some remaining defining condition
        for a in (fx.X, fx.A):
            x = hgroup_inverse(a)
            a2 = a.matmul(a)
            kernel = nullspace_basis(kronecker(transpose(a2), a2))
            assert kernel
            for direction in kernel:
                h = unvec(direction, a.rows, a.rows)
                assert not h.is_zero()
                perturbed = check_axioms(InverseKind.HGROUP, a, x + h)
                assert not perturbed.overall


class TestConstrainedSystems:
    def test_ax_system_fixture(self, fx):
        result = solve_ax_system(fx.X)
        assert result.unique and result.homogeneous_dimension == 0
        assert result.solution == fx.Z

    def test_ax_system_rank_two(self, fx):
        result = solve_ax_system(fx.A)
        assert result.unique
        assert result.solution == hgroup_inverse(fx.A)

    def test_ax_system_identity(self, fx):
        result = solve_ax_system(fx.I2)
        assert result.unique and result.solution == fx.I2

    def test_px_system_fixture(self, fx):
        result = solve_px_system(fx.X)
        assert result.unique and result.solution == fx.Z

    def test_px_system_rank_two(self, fx):
        result = solve_px_system(fx.A)
        assert result.unique
        assert result.solution == hgroup_inverse(fx.A)

    def test_px_system_identity(self, fx):
        result = solve_px_system(fx.I2)
        assert result.unique and result.solution == fx.I2

    def test_systems_recover_the_inverse_on_random(self):
        for a in small_random_matrices(seed=71, count=20, square=True):
            x = hgroup_inverse(a)
            r1 = solve_ax_system(a)
            r2 = solve_px_system(a)
            assert r1.unique and r1.solution == x
            assert r2.unique and r2.solution == x

    def test_one_elimination_per_solve(self, fx, calls):
        # n x n: the factorization a = f g, u together with rank(outer
        # basis), and rank(basis); r x r or smaller: the two Gram inverses,
        # the failed inverse of (g f)^2 (fx.A has s = 1 < r = 2), its
        # factorization and the two s x s inverses
        solve_ax_system(fx.A)
        assert calls["rref"] == 9

    @given(constrained_systems())
    @settings(max_examples=80, deadline=None)
    @example((Matrix([[1, 0], [0, 0]]), Matrix.identity(2), Matrix.zeros(2, 2)))
    @example((Matrix.zeros(3, 3), Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]]), Matrix.zeros(3, 3)))
    def test_homogeneous_dimension_by_rank_nullity(self, system):
        # the public systems always give 0; the examples give 1 and 2
        outer, basis, rhs = system
        result = _constrained_solve(outer, basis, rhs)
        kernel = nullspace_basis(outer.matmul(basis))
        expected = rank(basis.matmul(hstack(*kernel))) if kernel else 0
        assert result.homogeneous_dimension == expected
        assert result.unique == (expected == 0)
        assert outer.matmul(result.solution) == rhs


class TestBcInverse:
    def test_pair_construction(self, fx):
        pair = build_bc_pair(fx.X)
        assert pair.b == fx.X.scale(3)
        assert pair.c == fx.X.scale(3)

    def test_pair_identity(self, fx):
        pair = build_bc_pair(fx.I2)
        assert pair.b == fx.I2 and pair.c == fx.I2

    def test_pair_degenerates_for_nilpotent(self, fx):
        pair = build_bc_pair(fx.N)
        assert pair.b.is_zero() and pair.c.is_zero()

    def test_inverse_fixture(self, fx):
        assert bc_inverse(fx.X, build_bc_pair(fx.X)) == fx.Z

    def test_inverse_of_invertible(self, fx):
        assert bc_inverse(fx.I2, BcPair(fx.I2, fx.I2)) == fx.I2

    def test_unsatisfiable_pair(self, fx):
        with pytest.raises(NotBcInvertibleError):
            bc_inverse(fx.N, BcPair(fx.N, fx.N))

    def test_degenerate_zero_pair(self, fx):
        zero = Matrix.zeros(2, 2)
        assert bc_inverse(fx.N, BcPair(zero, zero)).is_zero()

    def test_equals_hgroup_inverse_on_random(self):
        for a in small_random_matrices(seed=73, count=20, square=True):
            assert bc_inverse(a, build_bc_pair(a)) == hgroup_inverse(a)

    def test_pair_without_mp_inverse(self, fx, calls):
        build_bc_pair(fx.A)
        assert calls["mp_inverse"] == 0 and calls["full_rank_factorize"] == 1

    def test_one_mp_inverse(self, fx, calls):
        # the candidate's (c a b)+; the bRx and xRc memberships are solves
        pair = build_bc_pair(fx.A)
        calls.update(dict.fromkeys(calls, 0))
        bc_inverse(fx.A, pair)
        assert calls["mp_inverse"] == 1


class TestTwoInversePrescribed:
    def test_fixture(self, fx):
        b = fx.X.scale(3)
        assert two_inverse_prescribed(fx.X, image_of(b), kernel_of(b)) == fx.Z

    def test_rank_two_fixture(self, fx):
        pair = build_bc_pair(fx.A)
        x = two_inverse_prescribed(fx.A, image_of(pair.b), kernel_of(pair.c))
        assert x == hgroup_inverse(fx.A)

    def test_identity(self, fx):
        assert two_inverse_prescribed(fx.I2, image_of(fx.I2), kernel_of(fx.I2)) == fx.I2

    def test_rref_count(self, fx, calls):
        # 2 for mp_inverse, 3 ranks per subspace equality, and 2 nullspace
        # bases for ker(x)=S
        pair = build_bc_pair(fx.A)
        calls.update(dict.fromkeys(calls, 0))
        two_inverse_prescribed(fx.A, image_of(pair.b), kernel_of(pair.c))
        assert calls["rref"] == 10

    def test_wrong_subspaces_rejected(self, fx):
        with pytest.raises(NotTwoInvertibleError, match=r"im\(x\)=T"):
            two_inverse_prescribed(fx.X, image_of(fx.I3), kernel_of(fx.X.scale(3)))

    @given(square_triples())
    @settings(max_examples=60, deadline=None)
    def test_two_and_bc_verdicts_agree(self, abc):
        # two_inverse_prescribed checks only the {2}-system on b (c a b)+ c;
        # that is sound because the (b,c) system gives the same verdict
        a, b, c = abc
        x = b.matmul(mp_inverse(c.matmul(a).matmul(b))).matmul(c)
        bc = check_axioms(InverseKind.BC, a, x, pair=BcPair(b, c))
        two = check_axioms(
            InverseKind.TWO_PRESCRIBED, a, x, image=image_of(b), kernel=kernel_of(c)
        )
        assert bc.overall == two.overall

    def test_descriptor_kinds_enforced(self, fx):
        with pytest.raises(ValueError):
            two_inverse_prescribed(fx.X, kernel_of(fx.X), kernel_of(fx.X))

    def test_image_and_kernel_of_result(self, fx):
        for a in [fx.A, fx.X] + list(
            small_random_matrices(seed=79, count=15, square=True)
        ):
            x = hgroup_inverse(a)
            pair = build_bc_pair(a)
            assert subspace_relate(image_of(x), image_of(pair.b), "equals")
            assert subspace_relate(kernel_of(x), kernel_of(pair.c), "equals")

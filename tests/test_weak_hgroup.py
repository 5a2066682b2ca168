"""Weak higher-order group inverse: paths, systems, orthogonal sums."""

import re
from fractions import Fraction as F

import pytest

from ginv import (
    InconsistentSystemError,
    Matrix,
    PreconditionViolatedError,
    VerificationError,
    core_ep_decompose,
    hgroup_inverse,
    mp_inverse,
    nilpotency_and_index,
    orthogonal_sum,
    solve_two_sided_system,
    weak_hgroup_inverse,
    weak_hgroup_paths,
    weak_hgroup_via_system,
    weak_mp_inverse,
)
from ginv.verify import weak_system_checks

from conftest import block_embed, small_random_matrices

# canonical witness with a nonzero alignment residue nil * core* != 0:
# on it the route through the weak MP inverse leaves the defining systems
MISALIGNED = Matrix([[1, 0, 0], [1, 0, 1], [0, 0, 0]])


class TestWeakHgroupInverse:
    def test_rank_two_fixture(self, fx):
        assert weak_hgroup_inverse(fx.A) == fx.Z

    def test_index_one_collapses(self, fx):
        assert weak_hgroup_inverse(fx.X) == fx.Z

    def test_nilpotent(self, fx):
        assert weak_hgroup_inverse(fx.N).is_zero()

    def test_invertible(self):
        a = Matrix([[1, 1], [0, 1]])
        assert weak_hgroup_inverse(a) == mp_inverse(a) == Matrix([[1, -1], [0, 1]])

    def test_equals_hgroup_of_core(self):
        for a in small_random_matrices(seed=83, count=20, square=True):
            assert weak_hgroup_inverse(a) == hgroup_inverse(core_ep_decompose(a).core)

    def test_divergence_from_hgroup_at_index_two(self):
        # the two inverses genuinely differ once the nilpotent part is not
        # row-orthogonal to the core
        h = hgroup_inverse(MISALIGNED)
        wk = weak_hgroup_inverse(MISALIGNED)
        assert h == Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert wk == Matrix([[1, 0, F(1, 2)], [1, 0, F(1, 2)], [0, 0, 0]])
        assert h != wk


class TestThreePaths:
    def test_agreement_on_fixtures(self, fx):
        for a in [fx.A, fx.X, fx.Y, fx.N, fx.I3]:
            p1, p2, p3 = weak_hgroup_paths(a)
            assert p1 == p2 == p3

    def test_first_and_third_agree_always(self):
        mats = list(small_random_matrices(seed=89, count=20, square=True))
        for a in mats + [MISALIGNED]:
            p1, _, p3 = weak_hgroup_paths(a)
            assert p1 == p3 == hgroup_inverse(core_ep_decompose(a).core)

    def test_derives_each_quantity_once(self, fx, calls):
        # w = core+ and (w a^3 w)+; the formula route is hgroup_candidate(core),
        # which factors the core and forms no Moore-Penrose inverse; one HGROUP
        # verification
        weak_hgroup_paths(fx.A)
        assert calls["mp_inverse"] == 2
        assert calls["check_axioms"] == 1

    def test_alignment_governs_the_weak_mp_route(self):
        p1, p2, p3 = weak_hgroup_paths(MISALIGNED)
        assert p1 == p3
        assert p2 != p1
        assert p2 == Matrix(
            [[F(5, 4), 0, F(5, 8)], [F(5, 4), 0, F(5, 8)], [0, 0, 0]]
        )

    def test_aligned_class_agrees(self):
        for a in small_random_matrices(seed=97, count=25, square=True):
            d = core_ep_decompose(a)
            if d.nil.matmul(d.core.h).is_zero():
                p1, p2, p3 = weak_hgroup_paths(a)
                assert p1 == p2 == p3


class TestViaSystem:
    def test_fixture_chain(self, fx):
        assert weak_hgroup_via_system(fx.A) == fx.Z
        assert weak_hgroup_via_system(fx.X) == fx.Z
        assert weak_hgroup_via_system(fx.N).is_zero()

    def test_weighted_condition_at_fixture(self, fx):
        x = weak_hgroup_inverse(fx.A)
        w = weak_mp_inverse(fx.A)
        a2 = fx.A.matmul(fx.A)
        assert a2.matmul(x).matmul(a2).matmul(w) == (fx.A**3).matmul(w)

    def test_system_names_in_order(self, fx):
        checks = weak_system_checks(fx.A, fx.Z, weak_mp_inverse(fx.A))
        assert [c.name for c in checks] == [
            "x in (aw)R",
            "x in R(wa)",
            "xax=x",
            "(a2xa2)w=a3w",
            "(a2xa*)*=a2xa*",
            "(a*xa2)*=a*xa2",
        ]
        assert all(c.holds for c in checks)

    def test_refuses_unverified_value(self):
        # the gate names every failed condition
        failed = "x in (aw)R, xax=x, (a2xa2)w=a3w, (a2xa*)*=a2xa*, (a*xa2)*=a*xa2"
        with pytest.raises(VerificationError, match=rf"^candidate failed: {re.escape(failed)}$"):
            weak_hgroup_via_system(MISALIGNED)


class TestTwoSidedSystem:
    def test_rank_two_fixture(self, fx):
        # m = w a^3 w collapses to the core part exactly
        w = weak_mp_inverse(fx.A)
        assert w.matmul(fx.A**3).matmul(w) == fx.X
        result = solve_two_sided_system(fx.A)
        assert result.unique and result.solution == fx.Z

    def test_hermitian_fixture(self, fx):
        result = solve_two_sided_system(fx.X)
        assert result.unique and result.solution == fx.Z

    def test_identity(self, fx):
        result = solve_two_sided_system(fx.I3)
        assert result.unique and result.solution == fx.I3

    def test_inconsistent_when_certificate_fails(self):
        # m+ a m+ fails all three equations here, and the message names each
        message = "candidate failed: xax=x, xa=m+a, ax=am+"
        with pytest.raises(InconsistentSystemError, match=f"^{re.escape(message)}$"):
            solve_two_sided_system(MISALIGNED)

    def test_certificate_on_aligned_random(self):
        for a in small_random_matrices(seed=101, count=20, square=True):
            d = core_ep_decompose(a)
            if d.nil.matmul(d.core.h).is_zero():
                result = solve_two_sided_system(a)
                assert result.unique
                assert result.solution == weak_hgroup_inverse(a)


class TestUnweightedCondition:
    def test_holds_up_to_index_three(self):
        # a^3 - a^2 x a^2 equals the cube of the nilpotent part, so the
        # unweighted identity survives exactly while index <= 3
        for a in small_random_matrices(seed=103, count=25, square=True):
            _, k = nilpotency_and_index(a)
            x = weak_hgroup_inverse(a)
            d = core_ep_decompose(a)
            a2 = a.matmul(a)
            defect = a**3 - a2.matmul(x).matmul(a2)
            assert defect == d.nil**3
            if k <= 3:
                assert defect.is_zero()

    def test_fails_at_index_four(self):
        jordan = Matrix(
            [[0 if j != i + 1 else 1 for j in range(4)] for i in range(4)]
        )
        _, k = nilpotency_and_index(jordan)
        assert k == 4
        x = weak_hgroup_inverse(jordan)
        assert x.is_zero()
        a2 = jordan.matmul(jordan)
        assert a2.matmul(x).matmul(a2) != jordan**3
        # while the weighted form still holds (the weight annihilates it)
        w = weak_mp_inverse(jordan)
        assert a2.matmul(x).matmul(a2).matmul(w) == (jordan**3).matmul(w)


class TestOrthogonalSum:
    def test_canonical_pair(self, fx):
        assert orthogonal_sum(fx.X, fx.Y) == fx.Z

    def test_zero_right_summand(self, fx):
        zero = Matrix.zeros(3, 3)
        assert orthogonal_sum(fx.A, zero) == weak_hgroup_inverse(fx.A)

    def test_rejects_non_orthogonal(self, fx):
        with pytest.raises(PreconditionViolatedError) as err:
            orthogonal_sum(fx.I2, fx.I2)
        assert str(err.value) == "ab != 0"

    def test_names_the_first_failed_product(self):
        a = Matrix([[1, 0], [0, 0]])
        b = Matrix([[0, 0], [1, 0]])
        assert a.matmul(b).is_zero()
        with pytest.raises(PreconditionViolatedError) as err:
            orthogonal_sum(a, b)
        assert str(err.value) == "ba != 0"

    def test_block_diagonal_embeddings(self):
        mats = list(small_random_matrices(seed=107, count=10, square=True))
        for a, b in zip(mats[::2], mats[1::2]):
            total_dim = a.rows + b.rows
            left = block_embed(a, total_dim, 0)
            right = block_embed(b, total_dim, a.rows)
            total = orthogonal_sum(left, right)
            assert total == weak_hgroup_inverse(left + right)

"""Group inverse, Drazin inverse, core/nilpotent decomposition, weak MP."""

from fractions import Fraction as F

import pytest

from ginv import (
    InverseKind,
    Matrix,
    NotGroupInvertibleError,
    VerificationError,
    check_axioms,
    core_ep_decompose,
    drazin_inverse,
    group_inverse,
    mp_inverse,
    nilpotency_and_index,
    rank,
    weak_mp_inverse,
)
from ginv.verify import core_nil_checks, gate

from conftest import small_random_matrices


class TestGroupInverse:
    def test_hermitian_fixture(self, fx):
        assert group_inverse(fx.X) == fx.Z

    def test_not_group_invertible(self, fx):
        with pytest.raises(NotGroupInvertibleError):
            group_inverse(fx.N)

    def test_identity(self, fx):
        assert group_inverse(fx.I3) == fx.I3

    def test_zero(self):
        assert group_inverse(Matrix.zeros(2, 2)).is_zero()

    def test_existence_criterion(self):
        for a in small_random_matrices(seed=43, count=30, square=True):
            exists = rank(a) == rank(a.matmul(a))
            try:
                x = group_inverse(a)
            except NotGroupInvertibleError:
                assert not exists
                continue
            assert exists
            assert a.matmul(x) == x.matmul(a)
            assert a.matmul(x).matmul(a) == a


class TestDrazinInverse:
    def test_nilpotent(self, fx):
        assert drazin_inverse(fx.N).is_zero()

    def test_decomposable_fixture(self, fx):
        assert drazin_inverse(fx.A) == fx.Z

    def test_identity(self, fx):
        assert drazin_inverse(fx.I3) == fx.I3

    def test_agrees_with_group_inverse_at_low_index(self):
        for a in small_random_matrices(seed=47, count=30, square=True):
            _, k = nilpotency_and_index(a)
            if k <= 1:
                assert drazin_inverse(a) == group_inverse(a)

    def test_defining_conditions(self, fx):
        for a in [fx.A, fx.X, fx.Y, fx.N]:
            x = drazin_inverse(a)
            _, k = nilpotency_and_index(a)
            assert a.matmul(x) == x.matmul(a)
            assert (a ** (k + 1)).matmul(x) == a**k
            assert x.matmul(a).matmul(x) == x


class TestCoreDecomposition:
    def test_canonical_fixture(self, fx):
        d = core_ep_decompose(fx.A)
        assert d.core == fx.X
        assert d.nil == fx.Y
        assert d.index == 2
        assert d.projector == fx.X.scale(F(1, 3))

    def test_index_one_matrix_is_its_own_core(self, fx):
        d = core_ep_decompose(fx.X)
        assert d.core == fx.X and d.nil.is_zero() and d.index == 1

    def test_nilpotent_has_zero_core(self, fx):
        d = core_ep_decompose(fx.N)
        assert d.core.is_zero() and d.nil == fx.N and d.index == 2

    def test_zero_matrix_convention(self):
        d = core_ep_decompose(Matrix.zeros(2, 2))
        assert d.index == 1 and d.core.is_zero() and d.nil.is_zero()

    def test_invariants_on_random(self):
        for a in small_random_matrices(seed=53, count=25, square=True):
            d = core_ep_decompose(a)
            assert d.core + d.nil == a
            assert d.core.h.matmul(d.nil).is_zero()
            assert d.nil.matmul(d.core).is_zero()
            assert (d.nil ** max(d.index, 1)).is_zero()
            assert rank(d.core.matmul(d.core)) == rank(d.core)
            assert d.projector.h == d.projector
            assert d.projector.matmul(d.projector) == d.projector
            assert d.projector.matmul(a) == d.core

    def test_system_names_in_order(self, fx):
        d = core_ep_decompose(fx.A)
        checks = core_nil_checks(fx.A, d.core, d.nil, d.index, d.projector)
        assert [c.name for c in checks] == [
            "core+nil=a",
            "core* nil=0",
            "nil core=0",
            "nil nilpotent",
            "rank(core^2)=rank(core)",
            "P hermitian",
            "P idempotent",
        ]
        assert all(c.holds for c in checks)

    def test_gate_rejects_a_wrong_projector(self, fx):
        # P = I on N splits N into core = N, nil = 0, and N has index 2
        checks = core_nil_checks(fx.N, fx.N, Matrix.zeros(2, 2), 2, fx.I2)
        failed = r"^candidate failed: rank\(core\^2\)=rank\(core\)$"
        with pytest.raises(VerificationError, match=failed):
            gate(checks)


class TestWeakMpInverse:
    def test_fixture_values(self, fx):
        assert weak_mp_inverse(fx.A) == fx.Z
        assert weak_mp_inverse(fx.X) == fx.Z
        assert weak_mp_inverse(fx.N).is_zero()

    def test_collapses_to_mp_at_low_index(self):
        for a in small_random_matrices(seed=59, count=25, square=True):
            _, k = nilpotency_and_index(a)
            if k <= 1:
                assert weak_mp_inverse(a) == mp_inverse(a)

    def test_defining_system_on_fixtures(self, fx):
        for a in [fx.A, fx.X, fx.Y, fx.N, fx.I3]:
            w = weak_mp_inverse(a)
            report = check_axioms(InverseKind.WEAK_MP, a, w)
            assert report.overall

    def test_weak_mp_system_is_not_unique(self, fx):
        # both a+ and the constructive value satisfy the weak-MP system
        # for the canonical rank-2 fixture, and they differ
        w = weak_mp_inverse(fx.A)
        ad = mp_inverse(fx.A)
        assert w != ad
        assert check_axioms(InverseKind.WEAK_MP, fx.A, w).overall
        assert check_axioms(InverseKind.WEAK_MP, fx.A, ad).overall

    def test_constructive_value_can_leave_the_system(self):
        # on matrices whose nilpotent part is not row-orthogonal to the
        # core (nil core* != 0), the constructive value fails the
        # Hermitian-product and nilpotency conditions; the operation still
        # returns the core MP inverse, and the verification engine reports
        # exactly which equations break
        a = Matrix([[1, 0, 0], [1, 0, 1], [0, 0, 0]])
        d = core_ep_decompose(a)
        assert not d.nil.matmul(d.core.h).is_zero()
        w = weak_mp_inverse(a)
        report = check_axioms(InverseKind.WEAK_MP, a, w)
        failed = {c.name for c in report.checks if not c.holds}
        assert failed == {"(ax)*=ax", "a-axa nilpotent"}

"""Moore-Penrose inverse and the projectors p_a = a a+, q_a = a+ a."""

from fractions import Fraction as F

from ginv import (
    Matrix,
    image_of,
    mp_inverse,
    rank,
    subspace_relate,
)
from ginv.scalar import GaussianRational as GR

from conftest import penrose_holds, small_random_matrices

I = GR(0, 1)


class TestMpInverse:
    def test_hermitian_fixture(self, fx):
        assert mp_inverse(fx.X) == fx.Z

    def test_identity(self, fx):
        assert mp_inverse(fx.I3) == fx.I3

    def test_shift(self, fx):
        assert mp_inverse(fx.N) == fx.N.h
        assert penrose_holds(fx.N, fx.N.h)

    def test_rank_two_fixture(self, fx):
        # value pinned by direct Penrose verification of the
        # full-rank-factorization formula
        expected = Matrix(
            [
                [F(1, 9), GR(F(1, 9), F(1, 9)), F(-1, 3)],
                [GR(F(1, 9), F(-1, 9)), F(2, 9), GR(F(1, 6), F(-1, 6))],
                [0, 0, 0],
            ]
        )
        got = mp_inverse(fx.A)
        assert penrose_holds(fx.A, got)
        assert got == expected

    def test_zero_matrix(self):
        assert mp_inverse(Matrix.zeros(2, 3)) == Matrix.zeros(3, 2)

    def test_rectangular(self):
        m = Matrix([[1, 1 + I], [0, 0], [1, 1 + I]])
        assert penrose_holds(m, mp_inverse(m))

    def test_penrose_and_involution_on_random(self):
        for a in small_random_matrices(seed=31, count=30):
            x = mp_inverse(a)
            assert penrose_holds(a, x)
            assert mp_inverse(x) == a
            assert mp_inverse(a.h) == x.h

    def test_one_inverse_per_call(self, fx, calls):
        # a+ = g* (f* a g*)^-1 f*: one elimination to factor, one to invert
        mp_inverse(fx.A)
        assert calls["invert"] == 1
        assert calls["rref"] == 2

    def test_gram_rank_identity(self):
        # rank(a* a) = rank(a): the norm-positivity consequence that
        # makes the factorization formula total
        for a in small_random_matrices(seed=37, count=30):
            assert rank(a.h.matmul(a)) == rank(a)


class TestProjectors:
    # p_a = a a+ and q_a = a+ a, read straight off the MP inverse
    def test_image_projector_fixture(self, fx):
        assert fx.X.matmul(mp_inverse(fx.X)) == fx.X.scale(F(1, 3))

    def test_image_projector_shift(self, fx):
        assert fx.N.matmul(mp_inverse(fx.N)) == Matrix([[1, 0], [0, 0]])

    def test_zero(self):
        z = Matrix.zeros(2, 2)
        assert z.matmul(mp_inverse(z)) == z

    def test_coimage_projector_shift(self, fx):
        q = mp_inverse(fx.N).matmul(fx.N)
        assert q == Matrix([[0, 1], [0, 0]]).h.matmul(fx.N)
        assert q == Matrix([[0, 0], [0, 1]])

    def test_coimage_projector_hermitian_fixture(self, fx):
        assert mp_inverse(fx.X).matmul(fx.X) == fx.X.scale(F(1, 3))

    def test_identity(self, fx):
        assert mp_inverse(fx.I2).matmul(fx.I2) == fx.I2

    def test_projector_properties(self, fx):
        for a in [fx.A, fx.X, fx.Y, fx.N]:
            p = a.matmul(mp_inverse(a))
            q = mp_inverse(a).matmul(a)
            assert p.h == p and p.matmul(p) == p
            assert q.h == q and q.matmul(q) == q
            assert subspace_relate(image_of(p), image_of(a), "equals")
            assert subspace_relate(image_of(q), image_of(a.h), "equals")

    def test_sandwich_identity(self, fx):
        # q_a a p_a = a+ a^3 a+, the bridge between the two formulations
        for a in [fx.A, fx.X, fx.N] + list(
            small_random_matrices(seed=41, count=15, square=True)
        ):
            ad = mp_inverse(a)
            lhs = ad.matmul(a).matmul(a).matmul(a).matmul(ad)
            rhs = ad.matmul(a**3).matmul(ad)
            assert lhs == rhs
            p, q = a.matmul(ad), ad.matmul(a)
            assert q.matmul(a).matmul(p) == rhs

"""Moore-Penrose inverse over Q(i).

For a full-rank factorization a = f g (f is m x r, g is r x n, both of
rank r) the inverse is a+ = g* (f* a g*)^-1 f*, with one r x r inverse
(Ben-Israel & Greville, Generalized Inverses, 2003, ch. 1).  Existence
never fails here: the middle factor f* a g* = (f* f)(g g*) is a product of
two Gram matrices, each invertible over Q(i) because the scalar norm
re^2 + im^2 is positive definite.  A singular middle factor therefore
means a bug, not a bad input, and is raised as VerificationError.
"""

from __future__ import annotations

from .errors import SingularMatrixError, VerificationError
from .matrix import Matrix, full_rank_factorize, invert


def mp_inverse(a: Matrix) -> Matrix:
    """The unique x with xax=x, axa=a, (ax)* = ax, (xa)* = xa: g* (f* a g*)^-1 f*."""
    frf = full_rank_factorize(a)
    f, g = frf.f, frf.g
    try:
        middle = invert(f.h.matmul(a).matmul(g.h))
    except SingularMatrixError as exc:
        raise VerificationError(
            "middle factor f* a g* of a full-rank factorization is singular; "
            "norm positivity of Q(i) is violated"
        ) from exc
    return g.h.matmul(middle).matmul(f.h)


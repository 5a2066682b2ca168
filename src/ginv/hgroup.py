"""The higher-order group inverse and its characterizations.

For any square a over Q(i) the matrix x = (a+ a^3 a+)+ satisfies, exactly:

    xax = x,  a^2 x a^2 = a^3,  (a^2 x a*)* = a^2 x a*,  (a* x a^2)* = a* x a^2,

together with x in aR and x in Ra, and it is the unique such x.  The other
operations here recover the same matrix by different routes: as the unique
solution of two projector-constrained linear systems, as a (b,c)-inverse
for b = p_a (a*)^2 and c = (a*)^2 q_a, and as the {2}-inverse with
prescribed image im(b) and kernel ker(c).

The inverse, its two systems and the (b,c) pair all start from one
full-rank factorization a = f g of rank r.  With F = f*f and G = g g*,
a+ = g+ f+ for f+ = F^-1 f* and g+ = g* G^-1 (the reverse-order law for
full-rank factors; Greville, "Note on the generalized inverse of a
matrix product", SIAM Review 8, 1966).  So the projectors are
a a+ = f F^-1 f* and a+ a = g* G^-1 g, and a+ a^3 a+ = g+ N f+ with the
r x r middle N = (g f)^2.  The same law gives the Moore-Penrose inverse
of that product.  If N is invertible (index <= 1), (g+ N f+)+ = f N^-1 g.
Otherwise factor N = u v with rank s; g+ u has full column rank, v f+
full row rank, and (g+)* g+ = G^-1, f+ (f+)* = F^-1, so
(g+ N f+)+ = f F^-1 v* [v F^-1 v*]^-1 [u* G^-1 u]^-1 u* G^-1 g.  Beyond
the one n x n elimination, every inverse is r x r or smaller, and no
n x n Moore-Penrose inverse is formed.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    DimensionError,
    InconsistentSystemError,
    NoSolutionError,
    NotBcInvertibleError,
    NotTwoInvertibleError,
    SingularMatrixError,
)
from .matrix import Matrix, SubspaceDescriptor, _solve, full_rank_factorize, invert, rank
from .pinv import mp_inverse
from .verify import InverseKind, verified


def hgroup_candidate(a: Matrix) -> Matrix:
    """(a+ a^3 a+)+ from one full-rank factorization a = f g; not verified."""
    if not a.is_square:
        raise DimensionError("higher-order group inverse needs a square matrix")
    f, g, _ = full_rank_factorize(a)
    return _hgroup(f, g)


def hgroup_inverse(a: Matrix) -> Matrix:
    """(a+ a^3 a+)+, verified against its full defining system before return."""
    return verified(InverseKind.HGROUP, a, hgroup_candidate(a))


class ConstrainedSolveResult(
    namedtuple("ConstrainedSolveResult", "solution unique homogeneous_dimension")
):
    """Solution of a constrained linear system plus a uniqueness certificate.

    A named tuple.  ``homogeneous_dimension`` is the exact dimension of the
    solution set of the associated homogeneous system; the solution is
    unique iff it is 0.
    """

    __slots__ = ()


def _gram_inverses(f: Matrix, g: Matrix) -> tuple[Matrix, Matrix]:
    """F^-1 = (f*f)^-1 and G^-1 = (g g*)^-1, both r x r.

    Each Gram matrix of a full-rank factor is invertible over Q(i), whose
    norm re^2 + im^2 is positive definite.
    """
    return invert(f.h.matmul(f)), invert(g.matmul(g.h))


def _hgroup(f: Matrix, g: Matrix, grams: tuple[Matrix, Matrix] | None = None) -> Matrix:
    """(a+ a^3 a+)+ for a = f g.

    ``grams`` is (F^-1, G^-1) when the caller already holds them.
    """
    gf = g.matmul(f)
    middle = gf.matmul(gf)
    try:
        return f.matmul(invert(middle)).matmul(g)
    except SingularMatrixError:
        pass
    f_inv, g_inv = grams or _gram_inverses(f, g)
    u, v, _ = full_rank_factorize(middle)
    left, right = f_inv.matmul(v.h), u.h.matmul(g_inv)
    inner = invert(v.matmul(left)).matmul(invert(right.matmul(u)))
    return f.matmul(left).matmul(inner).matmul(right).matmul(g)


def _projector_pair(f: Matrix, g: Matrix, grams: tuple[Matrix, Matrix]) -> tuple[Matrix, Matrix]:
    """p = a a+ = f F^-1 f* and q = a+ a = g* G^-1 g for a = f g."""
    f_inv, g_inv = grams
    return f.matmul(f_inv).matmul(f.h), g.h.matmul(g_inv).matmul(g)


def _projectors(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """p = a a+, q = a+ a and (a+ a^3 a+)+, the higher-order group inverse.

    All three come from one full-rank factorization a = f g and its two
    Gram inverses.
    """
    if not a.is_square:
        raise DimensionError("system is defined for square matrices")
    f, g, _ = full_rank_factorize(a)
    grams = _gram_inverses(f, g)
    return (*_projector_pair(f, g, grams), _hgroup(f, g, grams))


def _constrained_solve(outer: Matrix, basis: Matrix, rhs: Matrix) -> ConstrainedSolveResult:
    """x = basis u with outer x = rhs; u is the canonical solution.

    The homogeneous freedom ker(outer) /\\ im(basis) has dimension
    rank(basis) - rank(outer basis), by rank-nullity on outer restricted
    to im(basis).  The elimination that solves for u also gives
    rank(outer basis).
    """
    try:
        u, restricted_rank = _solve(outer.matmul(basis), rhs)
    except NoSolutionError as exc:
        raise InconsistentSystemError("constrained system has no solution") from exc
    hom = rank(basis) - restricted_rank
    return ConstrainedSolveResult(basis.matmul(u), hom == 0, hom)


def solve_ax_system(a: Matrix) -> ConstrainedSolveResult:
    """Solve  a x = a (q a p)+  subject to  im(x) <= im(p a* q).

    p = a a+ and q = a+ a.  The solution is parametrized as x = (p a* q) u;
    the homogeneous freedom is ker(a) /\\ im(p a* q), which is 0 for every
    matrix over Q(i), so the unique solution is the higher-order group
    inverse.
    """
    p, q, middle_d = _projectors(a)
    return _constrained_solve(a, p.matmul(a.h).matmul(q), a.matmul(middle_d))


def solve_px_system(a: Matrix) -> ConstrainedSolveResult:
    """Solve  p x = (q a p)+  subject to  im(x) <= im(a).

    Parametrized as x = a v; the homogeneous freedom ker(p) /\\ im(a) is 0
    because ker(a a+) is the orthogonal complement of im(a).
    """
    p, _, middle_d = _projectors(a)
    return _constrained_solve(p, a, middle_d)


# -- (b,c)-inverse -----------------------------------------------------------


class BcPair(namedtuple("BcPair", "b c")):
    """The fixed pair (b, c) of a (b,c)-inverse problem; same ambient size as a."""

    __slots__ = ()


def build_bc_pair(a: Matrix) -> BcPair:
    """b = p_a (a*)^2 and c = (a*)^2 q_a, the pair whose (b,c)-inverse is a^H.

    p_a = a a+ and q_a = a+ a come from one full-rank factorization of a.
    """
    if not a.is_square:
        raise DimensionError("pair construction needs a square matrix")
    f, g, _ = full_rank_factorize(a)
    p, q = _projector_pair(f, g, _gram_inverses(f, g))
    astar2 = a.h.matmul(a.h)
    return BcPair(p.matmul(astar2), astar2.matmul(q))


def bc_candidate(a: Matrix, pair: BcPair) -> Matrix:
    """b (c a b)+ c; not verified."""
    b, c = pair.b, pair.c
    if not (a.is_square and b.shape == a.shape and c.shape == a.shape):
        raise DimensionError("pair members must match the ambient square size")
    return b.matmul(mp_inverse(c.matmul(a).matmul(b))).matmul(c)


def bc_inverse(a: Matrix, pair: BcPair) -> Matrix:
    """Candidate b (c a b)+ c, returned only if every defining condition holds.

    The conditions are x a b = b, c a x = c, x in bRx and x in xRc, each
    decided exactly; the candidate formula is a heuristic and the
    verification gate is the contract.  A degenerate pair b = c = 0 yields
    x = 0, for which every condition holds vacuously.
    """
    x = bc_candidate(a, pair)
    return verified(InverseKind.BC, a, x, NotBcInvertibleError, pair=pair)


def two_candidate(
    a: Matrix, image: SubspaceDescriptor, kernel: SubspaceDescriptor
) -> Matrix:
    """b (c a b)+ c with b generating the image and c the kernel; not verified."""
    if image.kind != "image" or kernel.kind != "kernel":
        raise ValueError("expected an image descriptor and a kernel descriptor")
    if image.ambient != a.rows or kernel.ambient != a.rows:
        raise DimensionError("descriptors live in the wrong ambient space")
    return bc_candidate(a, BcPair(image.generator, kernel.generator))


def two_inverse_prescribed(
    a: Matrix, image: SubspaceDescriptor, kernel: SubspaceDescriptor
) -> Matrix:
    """{2}-inverse with im(x) = image and ker(x) = kernel.

    Only the {2}-system is checked: for x = b (c a b)+ c it is equivalent to
    the (b,c) system, since x a x = x, im(x) = im(b) and ker(x) = ker(c)
    give x a b = b, c a x = c, x in bRx and x in xRc, and conversely.
    """
    x = two_candidate(a, image, kernel)
    return verified(
        InverseKind.TWO_PRESCRIBED, a, x, NotTwoInvertibleError, image=image, kernel=kernel
    )

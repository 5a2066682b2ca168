"""Group inverse, Drazin inverse, core/nilpotent decomposition, weak MP inverse.

The decomposition splits a square matrix along the orthogonal projector P
onto im(a^k), k the rank-stabilization index: core = P a carries all the
invertible spectral structure (it has index <= 1) and nil = (I-P) a is
nilpotent, with core* nil = 0 and nil core = 0 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, NotGroupInvertibleError
from .matrix import Matrix, index_chain, invert, rank
from .pinv import mp_inverse
from .verify import InverseKind, core_nil_checks, gate, verified


def _cline(k: int, f: Matrix, m: Matrix, g: Matrix) -> Matrix:
    """Cline's formula a^D = f m^-(k+1) g, where a^k = f g and a^(k+1) = f m g."""
    return f.matmul(invert(m) ** (k + 1)).matmul(g)


def group_candidate(a: Matrix) -> Matrix:
    """The Drazin inverse f m^-(k+1) g of an index <= 1 matrix; not verified."""
    if not a.is_square:
        raise DimensionError("group inverse is defined for square matrices")
    k, f, m, g = index_chain(a)
    if k > 1:
        raise NotGroupInvertibleError(
            f"rank(a^2) = {rank(a.matmul(a))} < rank(a) = {rank(a)}"
        )
    return _cline(k, f, m, g)


def group_inverse(a: Matrix) -> Matrix:
    """The commuting reflexive inverse; exists iff rank(a) = rank(a^2)."""
    return verified(InverseKind.GROUP, a, group_candidate(a))


def drazin_candidate(a: Matrix) -> Matrix:
    """f m^-(k+1) g from index_chain(a) = (k, f, m, g); not verified."""
    if not a.is_square:
        raise DimensionError("Drazin inverse is defined for square matrices")
    return _cline(*index_chain(a))


def drazin_inverse(a: Matrix) -> Matrix:
    """a^D = f m^-(k+1) g from Cline's chain; verified before returning."""
    return verified(InverseKind.DRAZIN, a, drazin_candidate(a))


@dataclass(frozen=True)
class CoreEpDecomposition:
    """a = core + nil with core* nil = 0, nil core = 0, nil nilpotent.

    ``projector`` is the Hermitian idempotent P = f (f* f)^-1 f* onto
    im(a^k) = im(f), f from index_chain(a), and core = P a has index <= 1.
    """

    core: Matrix
    nil: Matrix
    index: int
    projector: Matrix


def core_ep_decompose(a: Matrix) -> CoreEpDecomposition:
    if not a.is_square:
        raise DimensionError("decomposition is defined for square matrices")
    k, f, _, _ = index_chain(a)
    projector = f.matmul(invert(f.h.matmul(f))).matmul(f.h)
    core = projector.matmul(a)
    nil = a - core
    gate(core_nil_checks(a, core, nil, k, projector))
    return CoreEpDecomposition(core, nil, k, projector)


def weak_mp_inverse(a: Matrix) -> Matrix:
    """The Moore-Penrose inverse of the core part of the decomposition.

    For index <= 1 this is exactly mp_inverse(a).  Note that the weak-MP
    equation system does not pin this value down uniquely over Q(i)
    matrices (a+ satisfies the same system whenever it differs), so the
    constructive definition via the canonical decomposition is the one
    implemented throughout.
    """
    return mp_inverse(core_ep_decompose(a).core)

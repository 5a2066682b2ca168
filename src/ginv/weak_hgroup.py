"""The weak higher-order group inverse.

The constructive definition used throughout: split a = core + nil along the
canonical core/nilpotent decomposition and take the higher-order group
inverse of the core.  That value always exists, is verified against the
full defining system of the core, and collapses to hgroup_inverse(a) when
the index is at most 1.

The alternative computation route through the weak Moore-Penrose inverse,
x = (w a^3 w)+ with w = (core)+, reproduces the same matrix exactly when
nil * core* = 0 (in particular whenever the index is <= 1, the matrix is
nilpotent, or the two parts are fully orthogonal, as in block-diagonal
sums).  When nil * core* != 0 the two routes can disagree over Q(i)
matrices; weak_hgroup_paths exposes all three values so callers and tests
can compare them, and the system-based operations verify their defining
equations and refuse to return an unverified value.
"""

from __future__ import annotations

from .classical import core_ep_decompose, weak_mp_inverse
from .errors import (
    DimensionError,
    InconsistentSystemError,
    PreconditionViolatedError,
    VerificationError,
)
from .hgroup import ConstrainedSolveResult, hgroup_inverse
from .matrix import Matrix
from .pinv import mp_inverse
from .verify import _equation, gate, weak_system_checks


def weak_hgroup_inverse(a: Matrix) -> Matrix:
    """Higher-order group inverse of the core part of a."""
    return hgroup_inverse(core_ep_decompose(a).core)


def weak_hgroup_paths(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """The three computation routes, for exact cross-checking.

    (hgroup_inverse(core),  (w a^3 w)+ with w = weak MP inverse,
    hgroup_inverse(core)).  Routes 1 and 3 are the one verified value
    (core+ core^3 core+)+; route 2 agrees with it exactly on the aligned
    class nil * core* = 0.
    """
    d = core_ep_decompose(a)
    via_core = hgroup_inverse(d.core)
    w = mp_inverse(d.core)
    via_weak_mp = mp_inverse(w.matmul(a**3).matmul(w))
    return via_core, via_weak_mp, via_core


def weak_hgroup_via_system(a: Matrix) -> Matrix:
    """x = (w a^3 w)+ verified against its defining system, w the weak MP inverse.

    The system: x in (aw)R and x in R(wa), x a x = x, (a^2 x a^2) w = a^3 w,
    (a^2 x a*)* = a^2 x a*, (a* x a^2)* = a* x a^2.  Every condition is
    checked exactly; on the non-aligned inputs where the formula value
    fails the system, VerificationError names every failed condition.
    """
    w = weak_mp_inverse(a)
    x = mp_inverse(w.matmul(a**3).matmul(w))
    gate(weak_system_checks(a, x, w))
    return x


def solve_two_sided_system(a: Matrix) -> ConstrainedSolveResult:
    """Solve  x a x = x,  x a = m+ a,  a x = a m+  with m = w a^3 w.

    Uniqueness is constructive: any solution satisfies
    x = (x a) x = (m+ a) x = m+ (a x) = m+ a m+, so the system has at most
    one solution, m+ a m+.  That one candidate is checked against the three
    equations, and InconsistentSystemError names every equation it fails.
    """
    w = weak_mp_inverse(a)
    md = mp_inverse(w.matmul(a**3).matmul(w))
    x = md.matmul(a).matmul(md)
    xa, ax = x.matmul(a), a.matmul(x)
    checks = [
        _equation("xax=x", xa.matmul(x), x),
        _equation("xa=m+a", xa, md.matmul(a)),
        _equation("ax=am+", ax, a.matmul(md)),
    ]
    gate(checks, InconsistentSystemError)
    return ConstrainedSolveResult(x, True, 0)


def orthogonal_sum(a: Matrix, b: Matrix) -> Matrix:
    """(a+b)^ weak-H for a pair with ab = ba = a*b = b*a = 0.

    Returns weak_hgroup_inverse(a) + weak_hgroup_inverse(b) after checking
    every orthogonality product exactly and verifying that the sum equals
    weak_hgroup_inverse(a+b).
    """
    if a.shape != b.shape or not a.is_square:
        raise DimensionError("orthogonal sum needs square matrices of equal size")
    products = (
        ("ab != 0", a.matmul(b)),
        ("ba != 0", b.matmul(a)),
        ("adj(a) b != 0", a.h.matmul(b)),
        ("adj(b) a != 0", b.h.matmul(a)),
    )
    for name, value in products:
        if not value.is_zero():
            raise PreconditionViolatedError(name)
    total = weak_hgroup_inverse(a) + weak_hgroup_inverse(b)
    if total != weak_hgroup_inverse(a + b):
        raise VerificationError(
            "sum of the weak inverses does not equal the weak inverse of the sum"
        )
    return total

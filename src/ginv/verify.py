"""Uniform exact axiom checking for every supported inverse kind.

check_axioms evaluates each defining equation of the requested kind and
records the exact residual (difference of the two sides), a membership
witness, or a nilpotency certificate.  Reports are immutable and
deterministic: identical inputs give identical reports.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .errors import DimensionError, VerificationError
from .matrix import (
    Matrix,
    SubspaceDescriptor,
    ideal_membership,
    image_of,
    index_chain,
    kernel_of,
    nilpotency_and_index,
    rank,
    subspace_relate,
)
from .pinv import mp_inverse
from .scalar import scalar_format


class InverseKind(enum.Enum):
    MP = "mp"
    WEAK_MP = "weak-mp"
    GROUP = "group"
    DRAZIN = "drazin"
    HGROUP = "hgroup"
    WEAK_HGROUP = "weak-hgroup"
    BC = "bc"
    TWO_PRESCRIBED = "two"


class AxiomCheck(
    namedtuple("AxiomCheck", "name holds residual witness note", defaults=(None,) * 3)
):
    """One defining equation: name, outcome, and an exact certificate.

    A named tuple; residual (a Matrix), witness (a MembershipWitness) and
    note (text) default to None.
    """

    __slots__ = ()


class AxiomReport(namedtuple("AxiomReport", "kind checks overall")):
    """A named tuple (kind, checks, overall); overall = all checks hold.

    overall is always computed from checks, also through _make and _replace.
    """

    __slots__ = ()

    def __new__(cls, kind: InverseKind, checks: tuple):
        return super().__new__(cls, kind, checks, all(c.holds for c in checks))

    @classmethod
    def _make(cls, iterable):
        kind, checks, _ = iterable
        return cls(kind, checks)

    def __getnewargs__(self):
        return self.kind, self.checks


def _equation(name: str, lhs: Matrix, rhs: Matrix, note: str | None = None) -> AxiomCheck:
    residual = lhs - rhs
    return AxiomCheck(name, residual.is_zero(), residual=residual, note=note)


def _hermitian(name: str, m: Matrix) -> AxiomCheck:
    residual = m.h - m
    return AxiomCheck(name, residual.is_zero(), residual=residual)


def _membership(name: str, relation: str, x: Matrix, fixed: Matrix) -> AxiomCheck:
    witness = ideal_membership(relation, x, fixed)
    return AxiomCheck(name, witness.holds, witness=witness)


def _nilpotency(name: str, m: Matrix) -> AxiomCheck:
    nilpotent, k = nilpotency_and_index(m)
    if nilpotent:
        note = f"nilpotent, smallest vanishing power {max(k, 1)}"
    else:
        note = "not nilpotent: rank chain stabilizes at a nonzero rank"
    return AxiomCheck(name, nilpotent, residual=m, note=note)


def _subspace(name: str, have: SubspaceDescriptor, want: SubspaceDescriptor) -> AxiomCheck:
    holds = subspace_relate(have, want, "equals")
    return AxiomCheck(name, holds, note="subspace equality" if holds else "subspaces differ")


def _mp_checks(a: Matrix, x: Matrix) -> list[AxiomCheck]:
    """The four Moore-Penrose equations for the candidate x of a."""
    ax, xa = a.matmul(x), x.matmul(a)
    return [
        _equation("xax=x", xa.matmul(x), x),
        _equation("axa=a", ax.matmul(a), a),
        _hermitian("(ax)*=ax", ax),
        _hermitian("(xa)*=xa", xa),
    ]


def check_axioms(
    kind: InverseKind,
    a: Matrix,
    x: Matrix,
    *,
    pair=None,
    image: SubspaceDescriptor | None = None,
    kernel: SubspaceDescriptor | None = None,
) -> AxiomReport:
    """Evaluate every defining equation of ``kind`` for the candidate x.

    BC needs ``pair`` (the fixed b and c); TWO_PRESCRIBED needs ``image``
    and ``kernel``; all other kinds are determined by a and x alone.
    """
    if a.rows != x.rows or a.cols != x.cols:
        if (a.cols, a.rows) != (x.rows, x.cols):
            raise DimensionError("candidate shape fits neither a nor a*")
    checks: list[AxiomCheck]

    if kind is InverseKind.MP:
        checks = _mp_checks(a, x)
    elif kind is InverseKind.WEAK_MP:
        ax, xa = a.matmul(x), x.matmul(a)
        checks = [
            _equation("x=xax", xa.matmul(x), x),
            _hermitian("(ax)*=ax", ax),
            _hermitian("(xa)*=xa", xa),
            _nilpotency("a-axa nilpotent", a - ax.matmul(a)),
        ]
    elif kind is InverseKind.GROUP:
        ax, xa = a.matmul(x), x.matmul(a)
        checks = [
            _equation("xax=x", xa.matmul(x), x),
            _equation("axa=a", ax.matmul(a), a),
            _equation("ax=xa", ax, xa),
        ]
    elif kind is InverseKind.DRAZIN:
        k, f, _, g = index_chain(a)
        ax, xa, ak = a.matmul(x), x.matmul(a), f.matmul(g)
        checks = [
            _equation("ax=xa", ax, xa),
            _equation("a^(k+1)x=a^k", ak.matmul(ax), ak, note=f"index k={k}"),
            _equation("xax=x", xa.matmul(x), x),
        ]
    elif kind is InverseKind.HGROUP:
        a2, astar = a.matmul(a), a.h
        a2x = a2.matmul(x)
        checks = [
            _equation("xax=x", x.matmul(a).matmul(x), x),
            _equation("a2xa2=a3", a2x.matmul(a2), a2.matmul(a)),
            _hermitian("(a2xa*)*=a2xa*", a2x.matmul(astar)),
            _hermitian("(a*xa2)*=a*xa2", astar.matmul(x).matmul(a2)),
            _membership("x in aR", "x_in_aR", x, a),
            _membership("x in Ra", "x_in_Ra", x, a),
        ]
    elif kind is InverseKind.WEAK_HGROUP:
        ax, xa = a.matmul(x), x.matmul(a)
        t = xa.matmul(a).matmul(ax)
        checks = [
            _equation("x=xax", xa.matmul(x), x),
            _hermitian("(ax)*=ax", ax),
            _hermitian("(xa)*=xa", xa),
            AxiomCheck(
                "xa3x mp-invertible",
                all(c.holds for c in _mp_checks(t, mp_inverse(t))),
                note="Moore-Penrose inverse of xa3x exists and verifies",
            ),
            _nilpotency("a-axa nilpotent", a - ax.matmul(a)),
        ]
    elif kind is InverseKind.BC:
        if pair is None:
            raise ValueError("BC verification needs the (b, c) pair")
        b, c = pair.b, pair.c
        checks = [
            _equation("xab=b", x.matmul(a).matmul(b), b),
            _equation("cax=c", c.matmul(a).matmul(x), c),
            _membership("x in bRx", "x_in_bRx", x, b),
            _membership("x in xRc", "x_in_xRc", x, c),
        ]
    elif kind is InverseKind.TWO_PRESCRIBED:
        if image is None or kernel is None:
            raise ValueError("TWO_PRESCRIBED verification needs image and kernel")
        checks = [
            _equation("xax=x", x.matmul(a).matmul(x), x),
            _subspace("im(x)=T", image_of(x), image),
            _subspace("ker(x)=S", kernel_of(x), kernel),
        ]
    else:
        raise ValueError(f"unknown inverse kind {kind!r}")

    return AxiomReport(kind, tuple(checks))


def core_nil_checks(
    a: Matrix, core: Matrix, nil: Matrix, k: int, projector: Matrix
) -> list[AxiomCheck]:
    """The core/nilpotent system: a = core + nil split along the projector P."""
    zero = Matrix.zeros(a.rows, a.cols)
    return [
        _equation("core+nil=a", core + nil, a),
        _equation("core* nil=0", core.h.matmul(nil), zero),
        _equation("nil core=0", nil.matmul(core), zero),
        _equation("nil nilpotent", nil ** max(k, 1), zero),
        AxiomCheck("rank(core^2)=rank(core)", rank(core.matmul(core)) == rank(core)),
        _hermitian("P hermitian", projector),
        _equation("P idempotent", projector.matmul(projector), projector),
    ]


def weak_system_checks(a: Matrix, x: Matrix, w: Matrix) -> list[AxiomCheck]:
    """The weak system of x = (w a^3 w)+, w the weak MP inverse of a."""
    a2, astar = a.matmul(a), a.h
    a2x = a2.matmul(x)
    return [
        _membership("x in (aw)R", "x_in_aR", x, a.matmul(w)),
        _membership("x in R(wa)", "x_in_Ra", x, w.matmul(a)),
        _equation("xax=x", x.matmul(a).matmul(x), x),
        _equation("(a2xa2)w=a3w", a2x.matmul(a2).matmul(w), a2.matmul(a).matmul(w)),
        _hermitian("(a2xa*)*=a2xa*", a2x.matmul(astar)),
        _hermitian("(a*xa2)*=a*xa2", astar.matmul(x).matmul(a2)),
    ]


def gate(checks, error=VerificationError) -> None:
    """Raise ``error`` naming every failed check; return if all hold."""
    failed = ", ".join(c.name for c in checks if not c.holds)
    if failed:
        raise error(f"candidate failed: {failed}")


def verified(kind: InverseKind, a: Matrix, x: Matrix, error=VerificationError, **extras):
    """x if check_axioms(kind, a, x, **extras) holds in full, else raise ``error``."""
    gate(check_axioms(kind, a, x, **extras).checks, error)
    return x


def residual_summary(report: AxiomReport) -> str:
    """Deterministic one-paragraph summary listing only the failed checks."""
    failed = [c for c in report.checks if not c.holds]
    if not failed:
        return f"all {len(report.checks)} checks hold"
    lines = []
    for check in failed:
        if check.witness is not None:
            lines.append(f"FAILED {check.name}: no reconstructing witness")
        elif check.residual is not None:
            body = "; ".join(
                " ".join(scalar_format(e) for e in check.residual.row(i))
                for i in range(check.residual.rows)
            )
            extra = f" ({check.note})" if check.note else ""
            lines.append(f"FAILED {check.name}: residual [{body}]{extra}")
        else:
            extra = f" ({check.note})" if check.note else ""
            lines.append(f"FAILED {check.name}{extra}")
    return "\n".join(lines)

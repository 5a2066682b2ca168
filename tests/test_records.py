"""The result records: named tuples with fixed fields, immutable and picklable.

Each record keeps the field names and order it had as a frozen dataclass.
Being a tuple, a record also unpacks, indexes and compares equal to a
plain tuple holding the same values.
"""

import pickle

import pytest

from ginv import (
    AxiomCheck,
    AxiomReport,
    BcPair,
    ConstrainedSolveResult,
    CoreEpDecomposition,
    FullRankFactorization,
    InverseKind,
    Matrix,
    MembershipWitness,
    SubspaceDescriptor,
    build_bc_pair,
    check_axioms,
    core_ep_decompose,
    full_rank_factorize,
    ideal_membership,
    image_of,
    mp_inverse,
    solve_ax_system,
)

# index 2: a nonzero nilpotent part, so every field of every record is nontrivial
A = Matrix([[1, 1, 0], [0, 0, 1], [0, 0, 0]])

RECORDS = {
    FullRankFactorization: (("f", "g", "rank"), lambda: full_rank_factorize(A)),
    SubspaceDescriptor: (("kind", "generator"), lambda: image_of(A)),
    MembershipWitness: (
        ("relation", "holds", "witness"),
        lambda: ideal_membership("x_in_aR", A.matmul(A), A),
    ),
    ConstrainedSolveResult: (
        ("solution", "unique", "homogeneous_dimension"),
        lambda: solve_ax_system(A),
    ),
    BcPair: (("b", "c"), lambda: build_bc_pair(A)),
    CoreEpDecomposition: (("core", "nil", "index", "projector"), lambda: core_ep_decompose(A)),
    AxiomCheck: (
        ("name", "holds", "residual", "witness", "note"),
        lambda: check_axioms(InverseKind.MP, A, mp_inverse(A)).checks[0],
    ),
    AxiomReport: (
        ("kind", "checks", "overall"),
        lambda: check_axioms(InverseKind.MP, A, mp_inverse(A)),
    ),
}

CASES = pytest.mark.parametrize(
    "cls, fields, build",
    [(cls, *spec) for cls, spec in RECORDS.items()],
    ids=[cls.__name__ for cls in RECORDS],
)


@CASES
def test_fields_keep_their_order(cls, fields, build):
    record = build()
    assert type(record) is cls
    assert cls._fields == fields


@CASES
def test_pickle_round_trip(cls, fields, build):
    record = build()
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is cls and again == record


@CASES
def test_immutable(cls, fields, build):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@CASES
def test_repr_names_every_field(cls, fields, build):
    text = repr(build())
    assert text.startswith(f"{cls.__name__}({fields[0]}=")
    positions = [text.index(f"{name}=") for name in fields]
    assert positions == sorted(positions)


def test_subspace_descriptor_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown subspace kind 'bogus'"):
        SubspaceDescriptor("bogus", A)


def test_defaults():
    assert MembershipWitness("x_in_aR", False).witness is None
    assert AxiomCheck("c", True)[2:] == (None, None, None)


@pytest.mark.parametrize("x", [mp_inverse(A), A], ids=["mp", "not-mp"])
def test_report_overall_is_all_checks(x):
    checks = check_axioms(InverseKind.MP, A, x).checks
    report = AxiomReport(InverseKind.MP, checks)
    assert report.overall == all(c.holds for c in checks)
    assert pickle.loads(pickle.dumps(report)).overall == report.overall


def test_records_behave_as_tuples():
    frf = full_rank_factorize(A)
    f, g, rank = frf
    assert (f, g, rank) == (frf.f, frf.g, frf.rank) == (frf[0], frf[1], frf[2])
    assert frf == (f, g, rank) and len(frf) == 3
    # equality is tuple equality: a record equals the plain tuple of its values
    pair = build_bc_pair(A)
    assert pair == (pair.b, pair.c) == BcPair(*pair)
    # the field named index shadows tuple.index
    assert core_ep_decompose(A).index == 2

"""Axiom-checking engine: reports, residuals, summaries, determinism."""

from fractions import Fraction as F

import pytest

from ginv import (
    DimensionError,
    InverseKind,
    Matrix,
    build_bc_pair,
    check_axioms,
    drazin_inverse,
    group_inverse,
    hgroup_inverse,
    image_of,
    kernel_of,
    mp_inverse,
    residual_summary,
    weak_hgroup_inverse,
    weak_mp_inverse,
)

from conftest import small_random_matrices


class TestCheckAxioms:
    def test_hgroup_passing(self, fx):
        report = check_axioms(InverseKind.HGROUP, fx.X, fx.Z)
        assert report.overall
        assert [c.name for c in report.checks] == [
            "xax=x",
            "a2xa2=a3",
            "(a2xa*)*=a2xa*",
            "(a*xa2)*=a*xa2",
            "x in aR",
            "x in Ra",
        ]

    def test_hgroup_failing_candidate(self, fx):
        bad = fx.X.scale(F(1, 3))
        report = check_axioms(InverseKind.HGROUP, fx.X, bad)
        assert not report.overall
        first = report.checks[0]
        assert first.name == "xax=x" and not first.holds
        assert first.residual == fx.X.scale(F(2, 3))

    def test_mp_passing(self, fx):
        assert check_axioms(InverseKind.MP, fx.N, fx.N.h).overall

    def test_memberships_expose_witnesses(self, fx):
        report = check_axioms(InverseKind.HGROUP, fx.A, hgroup_inverse(fx.A))
        members = {c.name: c for c in report.checks if c.witness is not None}
        assert set(members) == {"x in aR", "x in Ra"}
        witness = members["x in aR"].witness
        assert fx.A.matmul(witness.witness) == hgroup_inverse(fx.A)

    def test_nilpotency_certificate(self, fx):
        report = check_axioms(InverseKind.WEAK_MP, fx.A, fx.Z)
        nil_check = report.checks[-1]
        assert nil_check.name == "a-axa nilpotent" and nil_check.holds
        assert "smallest vanishing power 2" in nil_check.note

    def test_bc_kind_requires_pair(self, fx):
        with pytest.raises(ValueError):
            check_axioms(InverseKind.BC, fx.X, fx.Z)

    def test_bc_report(self, fx):
        pair = build_bc_pair(fx.X)
        report = check_axioms(InverseKind.BC, fx.X, fx.Z, pair=pair)
        assert report.overall
        # x = b u and x = v c: one product with the fixed element rebuilds x
        in_bRx, in_xRc = (c.witness.witness for c in report.checks[2:])
        assert pair.b.matmul(in_bRx) == fx.Z and in_xRc.matmul(pair.c) == fx.Z

    def test_drazin_index_from_one_chain(self, calls):
        # index 2: a^k comes from Cline's chain, not from powering
        a = Matrix([[1, 1, 0], [0, 0, 1], [0, 0, 0]])
        x = drazin_inverse(a)
        calls.update(dict.fromkeys(calls, 0))
        report = check_axioms(InverseKind.DRAZIN, a, x)
        assert report.overall and report.checks[1].note == "index k=2"
        assert calls["index_chain"] == 1 and calls["pow"] == 0

    def test_two_prescribed_report(self, fx):
        pair = build_bc_pair(fx.X)
        report = check_axioms(
            InverseKind.TWO_PRESCRIBED,
            fx.X,
            fx.Z,
            image=image_of(pair.b),
            kernel=kernel_of(pair.c),
        )
        assert report.overall

    def test_dimension_error(self, fx):
        with pytest.raises(DimensionError):
            check_axioms(InverseKind.MP, fx.A, fx.N)

    def test_every_kind_accepts_its_operation_output(self, fx):
        a = fx.A
        pair = build_bc_pair(a)
        cases = [
            (InverseKind.MP, mp_inverse(a), {}),
            (InverseKind.WEAK_MP, weak_mp_inverse(a), {}),
            (InverseKind.DRAZIN, drazin_inverse(a), {}),
            (InverseKind.HGROUP, hgroup_inverse(a), {}),
            (InverseKind.WEAK_HGROUP, weak_hgroup_inverse(a), {}),
            (InverseKind.BC, hgroup_inverse(a), {"pair": pair}),
            (
                InverseKind.TWO_PRESCRIBED,
                hgroup_inverse(a),
                {"image": image_of(pair.b), "kernel": kernel_of(pair.c)},
            ),
        ]
        for kind, value, extras in cases:
            assert check_axioms(kind, a, value, **extras).overall, kind
        assert check_axioms(InverseKind.GROUP, fx.X, group_inverse(fx.X)).overall

    def test_soundness_of_residuals(self):
        for a in small_random_matrices(seed=113, count=10, square=True):
            x = mp_inverse(a)
            report = check_axioms(InverseKind.MP, a, x)
            for check in report.checks:
                if check.residual is not None:
                    assert check.holds == check.residual.is_zero()


class TestResidualSummary:
    def test_passing_summary(self, fx):
        report = check_axioms(InverseKind.MP, fx.X, fx.Z)
        assert residual_summary(report) == "all 4 checks hold"

    def test_failing_summary_names_residual(self, fx):
        report = check_axioms(InverseKind.HGROUP, fx.X, fx.X.scale(F(1, 3)))
        summary = residual_summary(report)
        assert summary.splitlines()[0].startswith("FAILED xax=x: residual [")
        assert "2/3" in summary

    def test_determinism(self, fx):
        r1 = check_axioms(InverseKind.HGROUP, fx.A, hgroup_inverse(fx.A))
        r2 = check_axioms(InverseKind.HGROUP, fx.A, hgroup_inverse(fx.A))
        assert r1 == r2
        assert residual_summary(r1) == residual_summary(r2)

"""CLI contract: documents, reports, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

import ginv
from ginv import DimensionError, Matrix, ParseError, mp_inverse
from ginv.cli import emit_document, main, matrix_payload, parse_document
from ginv.scalar import GaussianRational as GR

I = GR(0, 1)
# the directory holding the imported ginv package, for child interpreters
PACKAGE_ROOT = str(Path(ginv.__file__).resolve().parent.parent)

A_DOC = json.dumps(
    {
        "rows": 3,
        "cols": 3,
        "entries": [
            ["1", "1+1i", "0"],
            ["1-1i", "2", "0"],
            ["-2", "1+1i", "0"],
        ],
    }
)


def write_doc(path, matrix):
    path.write_text(json.dumps(matrix_payload(matrix)))
    return str(path)


@pytest.fixture
def docs(tmp_path, fx):
    return {
        "a": write_doc(tmp_path / "a.json", fx.A),
        "x": write_doc(tmp_path / "x.json", fx.X),
        "n": write_doc(tmp_path / "n.json", fx.N),
        "bad_candidate": write_doc(tmp_path / "bad.json", fx.X.scale(F(1, 3))),
        "tmp": tmp_path,
    }


class TestDocuments:
    def test_parse_fixture_document(self, fx):
        assert parse_document(A_DOC) == fx.A

    def test_round_trip(self, fx):
        for m in [fx.A, fx.X, fx.Z, fx.N]:
            assert parse_document(json.dumps(matrix_payload(m))) == m

    def test_malformed_token_location(self):
        doc = json.dumps(
            {"rows": 2, "cols": 2, "entries": [["1", "1+j"], ["0", "0"]]}
        )
        with pytest.raises(ParseError) as err:
            parse_document(doc)
        assert err.value.row == 1 and err.value.col == 2

    def test_ragged_grid(self):
        doc = json.dumps(
            {"rows": 3, "cols": 3, "entries": [["1", "0"], ["0", "1"], ["0", "0"]]}
        )
        with pytest.raises(DimensionError):
            parse_document(doc)

    def test_shape_mismatch(self):
        doc = json.dumps({"rows": 3, "cols": 3, "entries": [["1"] * 3] * 2})
        with pytest.raises(DimensionError):
            parse_document(doc)

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_document("{not json")

    def test_overlong_digit_run(self, tmp_path):
        assert parse_document(
            json.dumps({"rows": 1, "cols": 1, "entries": [["1" * 4300]]})
        ) == Matrix([[int("1" * 4300)]])
        doc = json.dumps({"rows": 1, "cols": 2, "entries": [["0", "1/" + "1" * 4301]]})
        with pytest.raises(ParseError) as err:
            parse_document(doc)
        assert (err.value.row, err.value.col) == (1, 2)
        path = tmp_path / "long.json"
        path.write_text(doc)
        assert main(["compute", "--kind", "mp", "--a", str(path)]) == 2

    def test_emit_canonical_idempotent(self):
        report = {
            "command": "compute",
            "kind": "mp",
            "ok": True,
            "result": {"rows": 1, "cols": 1, "entries": [["1/9"]]},
            "unique": None,
            "index": None,
            "checks": [{"name": "xax=x", "holds": True}],
            "reason": None,
        }
        text = emit_document(report)
        assert emit_document(json.loads(text)) == text


class TestExitCodes:
    def test_compute_on_fixture_is_zero(self, docs, capsys):
        code = main(["compute", "--kind", "weak-hgroup", "--a", docs["a"]])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["result"]["entries"][0] == ["1/9", "1/9+1/9i", "0"]
        assert all(check["holds"] for check in report["checks"])

    def test_failed_verify_is_one(self, docs, capsys):
        code = main(
            [
                "verify",
                "--kind",
                "hgroup",
                "--a",
                docs["x"],
                "--candidate",
                docs["bad_candidate"],
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["ok"] is False
        assert report["checks"][0] == {"name": "xax=x", "holds": False}
        assert "xax=x" in report["reason"]

    def test_domain_failure_is_one(self, docs, capsys):
        code = main(["compute", "--kind", "group", "--a", docs["n"]])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["ok"] is False and report["result"] is None
        assert "rank" in report["reason"]

    def test_malformed_token_is_two(self, docs, capsys):
        bad = docs["tmp"] / "malformed.json"
        bad.write_text(
            json.dumps({"rows": 1, "cols": 1, "entries": [["1+j"]]})
        )
        code = main(["compute", "--kind", "mp", "--a", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 1" in err and "column 1" in err

    def test_missing_file_is_two(self, docs):
        code = main(["compute", "--kind", "mp", "--a", str(docs["tmp"] / "no.json")])
        assert code == 2

    def test_unknown_kind_is_three(self, docs, capsys):
        code = main(["compute", "--kind", "fancy", "--a", docs["a"]])
        assert code == 3
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_operand_is_three(self, docs, capsys):
        code = main(["compute", "--kind", "bc", "--a", docs["a"]])
        assert code == 3
        assert "--b" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing/r.json", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out_is_three(self, target, docs, capsys):
        out = str(docs["tmp"] / target)
        code = main(["decompose", "--a", docs["a"], "--out", out])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"ginv: usage error: cannot write {out}: ")


class TestCommands:
    def test_compute_mp(self, docs, capsys):
        code = main(["compute", "--kind", "mp", "--a", docs["x"]])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["result"]["entries"][0] == ["1/9", "1/9+1/9i", "0"]

    def test_compute_bc(self, docs, tmp_path, fx):
        pair_doc = write_doc(tmp_path / "pair.json", fx.X.scale(3))
        out_path = tmp_path / "report.json"
        code = main(
            [
                "compute",
                "--kind",
                "bc",
                "--a",
                docs["x"],
                "--b",
                pair_doc,
                "--c",
                pair_doc,
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["ok"] is True
        assert report["result"]["entries"][2] == ["0", "0", "0"]

    def test_compute_two(self, docs, tmp_path, fx):
        pair_doc = write_doc(tmp_path / "gen.json", fx.X.scale(3))
        code = main(
            [
                "compute",
                "--kind",
                "two",
                "--a",
                docs["x"],
                "--t",
                pair_doc,
                "--s",
                pair_doc,
            ]
        )
        assert code == 0

    def test_decompose(self, docs, capsys, fx):
        code = main(["decompose", "--a", docs["a"]])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["index"] == 2
        assert parse_document(json.dumps(report["result"]["core"])) == fx.X
        assert parse_document(json.dumps(report["result"]["nil"])) == fx.Y

    def test_verify_good_candidate(self, docs, tmp_path, fx):
        good = write_doc(tmp_path / "good.json", fx.Z)
        code = main(
            ["verify", "--kind", "hgroup", "--a", docs["x"], "--candidate", good]
        )
        assert code == 0

    def test_verify_bc_kind(self, docs, tmp_path, fx):
        pair_doc = write_doc(tmp_path / "pair.json", fx.X.scale(3))
        good = write_doc(tmp_path / "z.json", fx.Z)
        code = main(
            [
                "verify",
                "--kind",
                "bc",
                "--a",
                docs["x"],
                "--b",
                pair_doc,
                "--c",
                pair_doc,
                "--candidate",
                good,
            ]
        )
        assert code == 0

    def test_verify_two_kind(self, docs, tmp_path, fx):
        gen = write_doc(tmp_path / "gen.json", fx.X.scale(3))
        good = write_doc(tmp_path / "z.json", fx.Z)
        code = main(
            [
                "verify",
                "--kind",
                "two",
                "--a",
                docs["x"],
                "--t",
                gen,
                "--s",
                gen,
                "--candidate",
                good,
            ]
        )
        assert code == 0


def _rational(token):
    # Decimal reads and converts digit runs past the int-from-text limit
    num, _, den = token.partition("/")
    return F(int(Decimal(num)), int(Decimal(den or "1")))


class TestHugeResults:
    def test_result_past_the_digit_limit_is_printed(self, tmp_path, capsys):
        rng = random.Random(2500)
        tokens = [
            rng.choice("123456789") + "".join(rng.choices("0123456789", k=2499))
            for _ in range(4)
        ]
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps({"rows": 2, "cols": 2, "entries": [tokens[:2], tokens[2:]]})
        )
        code = main(["compute", "--kind", "mp", "--a", str(path)])
        text = capsys.readouterr().out
        assert code == 0
        report = json.loads(text)
        assert emit_document(report) == text
        entries = report["result"]["entries"]
        assert max(len(t) for row in entries for t in row) > 4300
        x = mp_inverse(parse_document(path.read_text()))
        assert [[_rational(t) for t in row] for row in entries] == [
            list(x.row(i)) for i in range(2)
        ]


COMPUTE_CALLS = {
    "mp": 1,
    "weak-mp": 1,
    "group": 1,
    "drazin": 1,
    "hgroup": 1,
    "weak-hgroup": 2,  # the core's HGROUP gate, then a's weak system
    "bc": 1,
    "two": 1,
}
PAIR_FLAGS = {"bc": ("--b", "--c"), "two": ("--t", "--s")}


def _pair_args(kind, generator):
    return [arg for flag in PAIR_FLAGS.get(kind, ()) for arg in (flag, generator)]


class TestVerificationGate:
    @pytest.mark.parametrize("kind", sorted(COMPUTE_CALLS))
    def test_compute_verifies_once(self, kind, docs, tmp_path, fx, calls):
        gen = write_doc(tmp_path / "gen.json", fx.X.scale(3))
        code = main(["compute", "--kind", kind, "--a", docs["x"], *_pair_args(kind, gen)])
        assert code == 0
        assert calls["check_axioms"] == COMPUTE_CALLS[kind]
        assert calls["kronecker"] == 0

    @pytest.mark.parametrize("kind", sorted(COMPUTE_CALLS))
    def test_verify_verifies_once(self, kind, docs, tmp_path, fx, calls):
        gen = write_doc(tmp_path / "gen.json", fx.X.scale(3))
        candidate = write_doc(tmp_path / "z.json", fx.Z)
        main(
            ["verify", "--kind", kind, "--a", docs["x"], "--candidate", candidate]
            + _pair_args(kind, gen)
        )
        assert calls["check_axioms"] == 1

    @pytest.mark.parametrize(
        "kind, failed", [("bc", ["xab=b", "cax=c"]), ("two", ["im(x)=T", "ker(x)=S"])]
    )
    def test_failing_candidate_is_reported(self, kind, failed, docs, capsys):
        # a = b = c = [[0,1],[0,0]]: the candidate b (c a b)+ c is 0
        code = main(["compute", "--kind", kind, "--a", docs["n"], *_pair_args(kind, docs["n"])])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["ok"] is False
        assert report["result"] == {"rows": 2, "cols": 2, "entries": [["0", "0"], ["0", "0"]]}
        assert [c["name"] for c in report["checks"] if not c["holds"]] == failed
        assert all(f"FAILED {name}" in report["reason"] for name in failed)


class TestDeterminism:
    def test_byte_identical_reports(self, docs, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code = main(
                ["compute", "--kind", "hgroup", "--a", docs["a"], "--out", str(out)]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_module_invocation(self, docs):
        result = subprocess.run(
            [sys.executable, "-m", "ginv", "compute", "--kind", "mp", "--a", docs["a"]],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["ok"] is True

    def test_byte_identical_across_processes(self, docs):
        # fresh interpreters with different hash seeds must agree bytewise;
        # the minimal env forwards only the directory holding the imported
        # ginv package, so an uninstalled checkout imports too
        outputs = []
        for seed in ("1", "2"):
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "ginv",
                    "compute",
                    "--kind",
                    "hgroup",
                    "--a",
                    docs["a"],
                ],
                capture_output=True,
                env={
                    "PYTHONHASHSEED": seed,
                    "PATH": "/usr/bin:/bin",
                    "PYTHONPATH": PACKAGE_ROOT,
                },
            )
            assert result.returncode == 0, result.stderr.decode(errors="replace")
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

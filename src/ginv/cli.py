"""Command-line front end.

Matrices travel as JSON documents

    {"rows": n, "cols": m, "entries": [[token, ...], ...]}

with every entry a text token in the scalar grammar (see ginv.scalar).
Reports are JSON objects with the fixed key order

    command, kind, ok, result, unique, index, checks, reason

and canonical scalar tokens, so repeated runs are byte-identical.

Exit codes: 0 success and all checks hold; 1 domain failure or failed
verification; 2 malformed input; 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classical import core_ep_decompose, drazin_candidate, group_candidate, weak_mp_inverse
from .errors import (
    DimensionError,
    GinvError,
    ParseError,
    UsageError,
)
from .hgroup import BcPair, bc_candidate, hgroup_candidate, two_candidate
from .matrix import Matrix, image_of, kernel_of
from .pinv import mp_inverse
from .scalar import scalar_format, scalar_parse
from .verify import InverseKind, check_axioms, residual_summary
from .weak_hgroup import weak_hgroup_inverse

KINDS = {kind.value: kind for kind in InverseKind}

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_USAGE = 3


# -- documents ---------------------------------------------------------------


def parse_document(doc: str) -> Matrix:
    """Exact matrix from a JSON document; rejects ragged grids and bad tokens."""
    try:
        payload = json.loads(doc)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", offset=exc.pos) from exc
    if not isinstance(payload, dict):
        raise ParseError("matrix document must be a JSON object")
    rows, cols = payload.get("rows"), payload.get("cols")
    entries = payload.get("entries")
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 1 or cols < 1:
        raise ParseError("'rows' and 'cols' must be positive integers")
    if not isinstance(entries, list) or len(entries) != rows:
        raise DimensionError(
            f"expected {rows} entry rows, found "
            f"{len(entries) if isinstance(entries, list) else 'none'}"
        )
    grid = []
    for i, row in enumerate(entries, start=1):
        if not isinstance(row, list) or len(row) != cols:
            raise DimensionError(
                f"row {i} has {len(row) if isinstance(row, list) else 'no'} entries, "
                f"expected {cols}"
            )
        parsed_row = []
        for j, token in enumerate(row, start=1):
            if not isinstance(token, str):
                raise ParseError("entry is not a text token", row=i, col=j)
            try:
                parsed_row.append(scalar_parse(token))
            except ParseError as exc:
                raise ParseError(
                    f"bad scalar token {token!r}: {exc.args[0].split(' (')[0]}",
                    offset=exc.offset,
                    row=i,
                    col=j,
                ) from exc
        grid.append(parsed_row)
    return Matrix(grid)


def matrix_payload(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [
            [scalar_format(m[i, j]) for j in range(m.cols)] for i in range(m.rows)
        ],
    }


def emit_document(report: dict) -> str:
    """Canonical serialization: fixed key order, stable whitespace."""
    ordered = {
        key: report.get(key)
        for key in ("command", "kind", "ok", "result", "unique", "index", "checks", "reason")
    }
    return json.dumps(ordered, indent=2, ensure_ascii=True) + "\n"


# -- command execution ---------------------------------------------------------


def _load(path: str) -> Matrix:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    return parse_document(text)


def _require(req: argparse.Namespace, field: str) -> str:
    value = getattr(req, field)
    if value is None:
        raise UsageError(f"--{field} is required for kind {req.kind!r}")
    return value


def _extras(req: argparse.Namespace, kind: InverseKind) -> dict:
    """The fixed operands of a bc or two request, as check_axioms keywords."""
    if kind is InverseKind.BC:
        return {"pair": BcPair(_load(_require(req, "b")), _load(_require(req, "c")))}
    if kind is InverseKind.TWO_PRESCRIBED:
        return {
            "image": image_of(_load(_require(req, "t"))),
            "kernel": kernel_of(_load(_require(req, "s"))),
        }
    return {}


# unverified values; execute_command checks each against its kind once.
# The weak-mp and weak-hgroup builders also run the core/nilpotent gate, and
# weak-hgroup the core's HGROUP gate, so a weak-hgroup compute runs
# check_axioms twice.  Names are looked up at call time, so a tracer that
# rebinds them here sees the calls.
_CANDIDATES = {
    InverseKind.MP: lambda a: mp_inverse(a),
    InverseKind.WEAK_MP: lambda a: weak_mp_inverse(a),
    InverseKind.GROUP: lambda a: group_candidate(a),
    InverseKind.DRAZIN: lambda a: drazin_candidate(a),
    InverseKind.HGROUP: lambda a: hgroup_candidate(a),
    InverseKind.WEAK_HGROUP: lambda a: weak_hgroup_inverse(a),
    InverseKind.BC: lambda a, pair: bc_candidate(a, pair),
    InverseKind.TWO_PRESCRIBED: lambda a, image, kernel: two_candidate(a, image, kernel),
}


def execute_command(req: argparse.Namespace) -> tuple[dict, int]:
    """Run one parsed command line; returns (report document, exit code)."""
    report = {
        "command": req.command,
        "kind": req.kind,
        "ok": False,
        "result": None,
        "unique": None,
        "index": None,
        "checks": [],
        "reason": None,
    }

    if req.command == "decompose":
        a = _load(_require(req, "a"))
        d = core_ep_decompose(a)
        report["ok"] = True
        report["result"] = {
            "core": matrix_payload(d.core),
            "nil": matrix_payload(d.nil),
            "projector": matrix_payload(d.projector),
        }
        report["index"] = d.index
        return report, EXIT_OK

    if req.kind not in KINDS:
        raise UsageError(f"unknown kind {req.kind!r}")
    kind = KINDS[req.kind]
    a = _load(_require(req, "a"))

    if req.command == "verify":
        x = _load(_require(req, "candidate"))
        extras = _extras(req, kind)
    elif req.command == "compute":
        extras = _extras(req, kind)
        try:
            x = _CANDIDATES[kind](a, **extras)
        except (ParseError, DimensionError, UsageError):
            raise
        except GinvError as exc:
            report["reason"] = str(exc)
            return report, EXIT_DOMAIN
        report["result"] = matrix_payload(x)
    else:
        raise UsageError(f"unknown command {req.command!r}")

    ax = check_axioms(kind, a, x, **extras)
    report["ok"] = ax.overall
    report["checks"] = [{"name": c.name, "holds": c.holds} for c in ax.checks]
    report["reason"] = None if ax.overall else residual_summary(ax)
    return report, EXIT_OK if ax.overall else EXIT_DOMAIN


# -- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ginv", description=__doc__)
    parser.set_defaults(kind=None, b=None, c=None, t=None, s=None, candidate=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, with_candidate=False):
        p.add_argument("--kind", required=True, choices=sorted(KINDS))
        p.add_argument("--a", required=True, help="path to the matrix document for a")
        p.add_argument("--b", help="path to the b document (kind bc)")
        p.add_argument("--c", help="path to the c document (kind bc)")
        p.add_argument("--t", help="path to the prescribed-image generator (kind two)")
        p.add_argument("--s", help="path to the prescribed-kernel generator (kind two)")
        if with_candidate:
            p.add_argument("--candidate", required=True, help="candidate inverse document")
        p.add_argument("--out", help="write the report here instead of stdout")

    add_io(sub.add_parser("compute", help="compute an inverse and verify it"))
    add_io(sub.add_parser("verify", help="check a candidate inverse"), with_candidate=True)
    dec = sub.add_parser("decompose", help="core/nilpotent decomposition")
    dec.add_argument("--a", required=True)
    dec.add_argument("--out")
    return parser


def main(argv=None) -> int:
    try:
        req = _build_parser().parse_args(argv)
        report, code = execute_command(req)
        text = emit_document(report)
        if req.out:
            try:
                with open(req.out, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write {req.out}: {exc.strerror}") from exc
        else:
            sys.stdout.write(text)
    except UsageError as exc:
        print(f"ginv: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, DimensionError) as exc:
        print(f"ginv: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

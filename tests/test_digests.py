"""Output digests per route.

Every library route and the CLI commands run on a fixed set of inputs; each
route's outputs (value reprs, or error type and message; exit code, stdout
and stderr) are hashed, and the first 16 hex digits of each sha256 are
compared with the constants below.  A change that is meant to preserve
outputs keeps every digest; a failure names the routes whose outputs moved.
After an intended change of output, copy the new values from the failure.
"""

import hashlib
import random

import ginv
from ginv import BcPair, InverseKind, Matrix, check_axioms, image_of, kernel_of, rref
from ginv.cli import main
from ginv.matrix import full_rank_factorize, nullspace_basis

from conftest import POOL, pair_args, write_doc

DIGESTS = {
    "rref": "a306561df492f35d",
    "full_rank_factorize": "b2310d1f0cc515c9",
    "nullspace_basis": "14b4f80b11954b73",
    "nilpotency_and_index": "18e80d7ac642351f",
    "mp_inverse": "26f1ac6c7e5c1e26",
    "group_inverse": "7e2249d00ffae3e6",
    "drazin_inverse": "29516b5c9882f148",
    "core_ep_decompose": "ff96d23069c529f8",
    "weak_mp_inverse": "397d4fcd95576d60",
    "hgroup_inverse": "29516b5c9882f148",
    "solve_ax_system": "d9b8e321174db5b4",
    "solve_px_system": "d9b8e321174db5b4",
    "build_bc_pair": "84eab5a260346fed",
    "bc_inverse": "29516b5c9882f148",
    "two_inverse_prescribed": "29516b5c9882f148",
    "weak_hgroup_inverse": "29516b5c9882f148",
    "weak_hgroup_paths": "e04a9d9bac20afa6",
    "weak_hgroup_via_system": "29516b5c9882f148",
    "solve_two_sided_system": "d9b8e321174db5b4",
    "orthogonal_sum": "29516b5c9882f148",
    "check_axioms mp": "086b1d3632acb3c3",
    "check_axioms weak-mp": "db900fca6ff2fdeb",
    "check_axioms group": "80b2f5b8f7051dc5",
    "check_axioms drazin": "10fafba6240d5e49",
    "check_axioms hgroup": "cf4b0c5b6fded8c0",
    "check_axioms weak-hgroup": "67ea9e62b4298d51",
    "check_axioms bc": "63e30d2f84f121d3",
    "check_axioms two": "12b9705555926a79",
    "cli compute bc": "2a1756d5cd8e78a0",
    "cli compute drazin": "15feca067102ca3d",
    "cli compute group": "85d00f6b68b0d0fb",
    "cli compute hgroup": "9b1ffb843520daaa",
    "cli compute mp": "cac0bbfeaf6ecd20",
    "cli compute two": "b4af80a544f71c07",
    "cli compute weak-hgroup": "0b498082eb22c85c",
    "cli compute weak-mp": "d65c143eba616e47",
    "cli verify mp": "b629edf8e0cf51a1",
    "cli verify group": "d463b9cc833987f6",
    "cli verify drazin": "c98bf89a2d87b517",
    "cli verify hgroup": "438ce517b6cf4a02",
    "cli decompose": "6a162d9e4f5b9dae",
    "cli malformed": "fa7547ebc3ed0e4c",
    "cli non-square bc": "2e109754de7a16e9",
    "cli non-square drazin": "b79c10774410b8cd",
    "cli non-square group": "b79c10774410b8cd",
    "cli non-square hgroup": "863d3ae65a745220",
    "cli non-square mp": "4f495645c0b8c27f",
    "cli non-square two": "d2df6e3ff0292e45",
    "cli non-square weak-hgroup": "b79c10774410b8cd",
    "cli non-square weak-mp": "b79c10774410b8cd",
    "cli non-square decompose": "b79c10774410b8cd",
}


def inputs(fx):
    """Seeded generic, rank-deficient and strictly upper triangular matrices
    (n = 3, 4) drawn from POOL, then fx.A and fx.N."""
    rng = random.Random(20261022)

    def rand(n, m):
        return Matrix([[rng.choice(POOL) for _ in range(m)] for _ in range(n)])

    out = []
    for n in (3, 4):
        out.append(rand(n, n))
        out.append(rand(n, n - 2).matmul(rand(n - 2, n)))
        out.append(
            Matrix([[rng.choice(POOL) if j > i else 0 for j in range(n)] for i in range(n)])
        )
    return out + [fx.A, fx.N]


def _pair(a):
    """b = c = a^n, for which the (b,c) and {2}-inverses are a's Drazin inverse."""
    an = a**a.rows
    return an, an


LIBRARY = {
    "rref": rref,
    "full_rank_factorize": full_rank_factorize,
    "nullspace_basis": nullspace_basis,
    "nilpotency_and_index": ginv.nilpotency_and_index,
    "mp_inverse": ginv.mp_inverse,
    "group_inverse": ginv.group_inverse,
    "drazin_inverse": ginv.drazin_inverse,
    "core_ep_decompose": ginv.core_ep_decompose,
    "weak_mp_inverse": ginv.weak_mp_inverse,
    "hgroup_inverse": ginv.hgroup_inverse,
    "solve_ax_system": ginv.solve_ax_system,
    "solve_px_system": ginv.solve_px_system,
    "build_bc_pair": ginv.build_bc_pair,
    "bc_inverse": lambda a: ginv.bc_inverse(a, BcPair(*_pair(a))),
    "two_inverse_prescribed": lambda a: ginv.two_inverse_prescribed(
        a, image_of(_pair(a)[0]), kernel_of(_pair(a)[1])
    ),
    "weak_hgroup_inverse": ginv.weak_hgroup_inverse,
    "weak_hgroup_paths": ginv.weak_hgroup_paths,
    "weak_hgroup_via_system": ginv.weak_hgroup_via_system,
    "solve_two_sided_system": ginv.solve_two_sided_system,
    "orthogonal_sum": lambda a: ginv.orthogonal_sum(a, Matrix.zeros(a.rows, a.cols)),
}


def _check_axioms(kind):
    def route(a):
        b, c = _pair(a)
        extras = {"pair": BcPair(b, c), "image": image_of(b), "kernel": kernel_of(c)}
        return check_axioms(kind, a, ginv.mp_inverse(a), **extras)

    return route


LIBRARY.update({f"check_axioms {kind.value}": _check_axioms(kind) for kind in InverseKind})

KINDS = sorted(kind.value for kind in InverseKind)
# kinds whose defining system has one solution, so a perturbed candidate fails
VERIFY_KINDS = {
    "mp": ginv.mp_inverse,
    "group": ginv.group_inverse,
    "drazin": ginv.drazin_inverse,
    "hgroup": ginv.hgroup_inverse,
}


def _outcome(fn, a):
    try:
        return repr(fn(a))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _digest(texts):
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


def cli_digests(mats, tmp_path, capsys):
    seen = {}

    def run(key, argv):
        code = main(argv)
        captured = capsys.readouterr()
        text = f"{code}\n{captured.out}\n{captured.err}".replace(str(tmp_path), "TMP")
        seen.setdefault(key, []).append(text)

    for i, a in enumerate(mats):
        a_path = write_doc(tmp_path / f"a{i}.json", a)
        an_path = write_doc(tmp_path / f"an{i}.json", _pair(a)[0])
        for kind in KINDS:
            argv = ["compute", "--kind", kind, "--a", a_path, *pair_args(kind, an_path)]
            run(f"cli compute {kind}", argv)
        for kind, route in VERIFY_KINDS.items():
            try:
                good = route(a)
            except ginv.GinvError:
                good = Matrix.zeros(a.rows, a.cols)
            bump = Matrix([[int(r == c == 0) for c in range(a.cols)] for r in range(a.rows)])
            for label, cand in (("good", good), ("perturbed", good + bump)):
                c_path = write_doc(tmp_path / f"{kind}-{label}{i}.json", cand)
                argv = ["verify", "--kind", kind, "--a", a_path, "--candidate", c_path]
                run(f"cli verify {kind}", argv)
        run("cli decompose", ["decompose", "--a", a_path])

    bad = tmp_path / "malformed.json"
    bad.write_text('{"rows": 2, "cols": 2, "entries": [["1", "1+j"], ["0", "0"]]}')
    run("cli malformed", ["compute", "--kind", "mp", "--a", str(bad)])

    wide = write_doc(tmp_path / "wide.json", Matrix([[1, 0, 1], [0, 1, 1]]))
    for kind in KINDS:
        argv = ["compute", "--kind", kind, "--a", wide, *pair_args(kind, wide)]
        run(f"cli non-square {kind}", argv)
    run("cli non-square decompose", ["decompose", "--a", wide])
    return {key: _digest(texts) for key, texts in seen.items()}


def test_route_digests(fx, tmp_path, capsys):
    mats = inputs(fx)
    got = {name: _digest(_outcome(fn, a) for a in mats) for name, fn in LIBRARY.items()}
    got.update(cli_digests(mats, tmp_path, capsys))
    moved = {name: value for name, value in got.items() if DIGESTS.get(name) != value}
    assert not moved, f"outputs moved on {sorted(moved)}; new digests: {moved}"
    assert got.keys() == DIGESTS.keys()

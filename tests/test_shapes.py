"""Non-square inputs: every square-only route refuses them with DimensionError.

Only the error type and the exit code are pinned, not the message text, so
a route may leave the guard to the first square-only computation it
reaches (``index_chain`` for the index-based routes).
"""

import pytest

import ginv
from ginv import (
    BcPair,
    DimensionError,
    InverseKind,
    Matrix,
    check_axioms,
    image_of,
    kernel_of,
)
from ginv.cli import main

from conftest import pair_args, write_doc

SHAPES = [(2, 3), (3, 2)]


def non_square(rows, cols):
    return Matrix([[(i + 2 * j) % 3 - 1 for j in range(cols)] for i in range(rows)])


LIBRARY_ROUTES = {
    "group_inverse": ginv.group_inverse,
    "drazin_inverse": ginv.drazin_inverse,
    "core_ep_decompose": ginv.core_ep_decompose,
    "weak_mp_inverse": ginv.weak_mp_inverse,
    "hgroup_inverse": ginv.hgroup_inverse,
    "solve_ax_system": ginv.solve_ax_system,
    "solve_px_system": ginv.solve_px_system,
    "build_bc_pair": ginv.build_bc_pair,
    "bc_inverse": lambda a: ginv.bc_inverse(a, BcPair(a, a)),
    "two_inverse_prescribed": lambda a: ginv.two_inverse_prescribed(
        a, image_of(a), kernel_of(a)
    ),
    "weak_hgroup_inverse": ginv.weak_hgroup_inverse,
    "weak_hgroup_paths": ginv.weak_hgroup_paths,
    "weak_hgroup_via_system": ginv.weak_hgroup_via_system,
    "solve_two_sided_system": ginv.solve_two_sided_system,
    "orthogonal_sum": lambda a: ginv.orthogonal_sum(a, a),
    "nilpotency_and_index": ginv.nilpotency_and_index,
}

SQUARE_KINDS = [kind for kind in InverseKind if kind is not InverseKind.MP]
CLI_KINDS = sorted(kind.value for kind in SQUARE_KINDS)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("route", sorted(LIBRARY_ROUTES))
def test_library_route_refuses(route, shape):
    with pytest.raises(DimensionError):
        LIBRARY_ROUTES[route](non_square(*shape))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("kind", SQUARE_KINDS, ids=lambda k: k.value)
def test_check_axioms_refuses(kind, shape):
    a = non_square(*shape)
    extras = {"pair": BcPair(a, a), "image": image_of(a), "kernel": kernel_of(a)}
    with pytest.raises(DimensionError):
        check_axioms(kind, a, a.h, **extras)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_check_axioms_mp_accepts(shape):
    a = non_square(*shape)
    assert check_axioms(InverseKind.MP, a, ginv.mp_inverse(a)).overall


def _refused(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ginv: input error: ")
    assert "Traceback" not in captured.err


@pytest.fixture(params=SHAPES, ids=str)
def doc(request, tmp_path):
    a = non_square(*request.param)
    return {
        "a": write_doc(tmp_path / "a.json", a),
        "candidate": write_doc(tmp_path / "x.json", a.h),
    }


@pytest.mark.parametrize("kind", CLI_KINDS)
def test_cli_compute_refuses(kind, doc, capsys):
    _refused(["compute", "--kind", kind, "--a", doc["a"], *pair_args(kind, doc["a"])], capsys)


@pytest.mark.parametrize("kind", CLI_KINDS)
def test_cli_verify_refuses(kind, doc, capsys):
    argv = ["verify", "--kind", kind, "--a", doc["a"], "--candidate", doc["candidate"]]
    _refused(argv + pair_args(kind, doc["a"]), capsys)


def test_cli_decompose_refuses(doc, capsys):
    _refused(["decompose", "--a", doc["a"]], capsys)

"""The benchmark's own tests: python3 -m pytest perfbench/tests"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ginv
import oracle
import spans
import workloads

BENCH = Path(__file__).resolve().parents[1]
# what a cli-mixed generator is sent for a request it does not inspect
NO_RESULT = (1, "", "", None)


def take(stream, count, outcome=None):
    """The first ``count`` requests; each one is run when ``outcome`` is None."""
    taken = []
    req = next(stream)
    while True:
        taken.append(req)
        if len(taken) == count:
            stream.close()
            return taken
        req = stream.send(req.call() if outcome is None else outcome)


def data_of(name, seed, workdir, count):
    return [req.data for req in take(workloads.WORKLOADS[name](seed, workdir), count, NO_RESULT)]


def test_same_seed_same_inputs_and_other_seed_other_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        dirs = [tmp_path / f"{name}-{i}" for i in range(3)]
        for d in dirs:
            d.mkdir()
        first = data_of(name, 7, dirs[0], 8)
        assert first == data_of(name, 7, dirs[1], 8), name
        assert first != data_of(name, 8, dirs[2], 8), name
    cli_docs = [sorted(p.read_text() for p in (tmp_path / f"cli-mixed-{i}").rglob("*.json")) for i in range(3)]
    assert cli_docs[0] == cli_docs[1] != cli_docs[2]


def test_tracing_changes_no_library_result():
    requests = take(workloads.routes_small(3, None), 4)
    plain = [req.call() for req in requests]
    recorder = spans.Recorder()
    with recorder.installed():
        traced = [req.call() for req in requests]
    assert traced == plain
    assert recorder.calls["pinv.mp_inverse"] > 0 and recorder.calls["matrix.matmul"] > 0
    assert recorder.max_bits > 0
    assert ginv.mp_inverse is ginv.pinv.mp_inverse and not hasattr(ginv.mp_inverse, "__wrapped__")
    assert not hasattr(ginv.Matrix.matmul, "__wrapped__")


def test_tracing_changes_no_cli_report_bytes(tmp_path):
    requests = take(workloads.cli_mixed(3, tmp_path), 12)
    plain = [req.call() for req in requests]
    recorder = spans.Recorder()
    with recorder.installed():
        traced = [req.call() for req in requests]
    assert traced == plain
    assert recorder.calls["cli.parse_document"] > 0 and recorder.calls["cli.emit_document"] > 0
    assert all(s is not None for s in recorder.spans)


def test_self_time_excludes_children():
    recorder = spans.Recorder()
    a = workloads.to_ginv(workloads.generic(random.Random(1), 5))
    with recorder.installed():
        ginv.hgroup_inverse(a)
    name = "hgroup.hgroup_inverse"
    assert 0 <= recorder.self_time[name] < recorder.total[name]
    (top,) = [i for i, span in enumerate(recorder.spans) if span[0] == name]
    children = {span[0] for span in recorder.spans if span[3] == top}
    assert children >= {"pinv.mp_inverse", "verify.check_axioms"}


def _perturbed(m):
    grid = workloads.from_ginv(m)
    re, im = grid[0][0]
    grid[0][0] = (re + 1, im)
    return workloads.to_ginv(grid)


def test_oracle_flags_perturbed_library_results():
    req = take(workloads.routes_small(5, None), 2)[1]
    outcome = req.call()
    assert oracle.check_library(req.data["a"], outcome) == []
    for route in ("mp", "drazin", "hgroup", "weak_mp"):
        bad = dict(outcome)
        bad[route] = ("ok", _perturbed(outcome[route][1]))
        assert any(f.startswith(route) for f in oracle.check_library(req.data["a"], bad)), route
    crashed = dict(outcome, bc=("error", "ValueError", "boom"))
    assert oracle.check_library(req.data["a"], crashed) == ["bc: raised ValueError: boom"]


def test_oracle_flags_perturbed_cli_reports(tmp_path):
    requests = take(workloads.cli_mixed(5, tmp_path), 12)
    outcomes = [req.call() for req in requests]
    assert oracle.check("cli-mixed", requests, outcomes) == [[]] * 12
    code, stdout, stderr, crash = outcomes[0]  # compute mp
    grid = workloads.result_grid(outcomes[0])
    token = workloads.token(grid[0][0])
    changed = workloads.token((grid[0][0][0] + Fraction(1, 3), grid[0][0][1]))
    bad = stdout.replace(f'"{token}"', f'"{changed}"', 1)
    assert bad != stdout
    assert oracle.check_cli(requests[0].data, (code, bad, stderr, crash))
    assert oracle.check_cli(requests[0].data, (1, stdout, stderr, crash))
    assert oracle.check_cli(requests[0].data, (None, "", "", "ValueError: boom"))
    unreadable = stdout.replace(f'"{token}"', '"1/x"', 1)
    assert oracle.check("cli-mixed", requests[:1], [(code, unreadable, stderr, crash)])[0]
    malformed = requests[-1]
    assert malformed.data["op"] == "malformed"
    assert oracle.check_cli(malformed.data, (1, "", "", None))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "routes-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.xfail(strict=True, reason="known parser defect: these documents do not exit 2")
@pytest.mark.parametrize(
    "payload",
    [
        {"rows": 1, "cols": 1, "entries": [["²"]]},
        {"rows": 1, "cols": 1, "entries": [["1/²"]]},
        {"rows": 1, "cols": 1, "entries": [["١٢"]]},
        {"rows": True, "cols": 1, "entries": [["1"]]},
    ],
)
def test_known_parser_defects_count_as_failures(tmp_path, payload):
    """The malformed mix keeps to documents the parser rejects today; these
    are the ones it does not, and the oracle would count each as failed."""
    path = tmp_path / "a.json"
    path.write_text(json.dumps(payload))
    outcome = workloads.cli_call(["compute", "--kind", "mp", "--a", str(path)])
    assert oracle.check_cli({"op": "malformed"}, outcome) == []

"""Seeded inputs and closed-loop requests for the three benchmark workloads.

Inputs are built here with the benchmark's own exact arithmetic (Gaussian
rationals as pairs of ``fractions.Fraction``), so ginv only ever receives
the finished matrices or documents.  Every workload is an infinite stream
of rounds; a round holds one request of each class in the workload's mix,
so every run measures the same mix whatever its length.

A request generator receives each request's outcome through ``send``, which
lets a cli-mixed verify request take its candidate from an earlier compute
request of the same round.  Everything the generator does between requests
is outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import ginv
import ginv.cli

# {0, +-1, +-2, +-1/2, 1+-i}, each as (real, imaginary)
POOL = tuple(
    (Fraction(re), Fraction(im))
    for re, im in ((0, 0), (1, 0), (-1, 0), (2, 0), (-2, 0), ("1/2", 0), ("-1/2", 0), (1, 1), (1, -1))
)
NONZERO = POOL[1:]
ZERO = POOL[0]


@dataclass
class Request:
    """One closed-loop request: ``call`` is timed, ``data`` feeds the oracle."""

    round: int
    label: str
    call: Callable[[], object]
    data: dict


# -- the benchmark's own exact arithmetic -----------------------------------


def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def mat_mul(p, q):
    cols = list(zip(*q))
    out = []
    for row in p:
        new_row = []
        for col in cols:
            acc = ZERO
            for x, y in zip(row, col):
                if x != ZERO and y != ZERO:
                    acc = gadd(acc, gmul(x, y))
            new_row.append(acc)
        out.append(new_row)
    return out


def mat_pow(a, k):
    n = len(a)
    result = [[(Fraction(int(i == j)), Fraction(0)) for j in range(n)] for i in range(n)]
    for _ in range(k):
        result = mat_mul(result, a)
    return result


def token(z) -> str:
    """Text of one scalar in ginv's documented grammar."""
    re, im = z
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def parse_token(text: str):
    """The benchmark's own reader for the scalar grammar, independent of ginv."""
    body = text
    if body.endswith("i"):
        body = body[:-1]
        split = max(body.rfind("+"), body.rfind("-"))
        if split > 0:
            re, im = Fraction(body[:split]), Fraction(body[split:])
        else:
            re, im = Fraction(0), Fraction(body + "1" if body in ("", "-") else body)
    else:
        re, im = Fraction(body), Fraction(0)
    return (re, im)


def to_ginv(grid) -> "ginv.Matrix":
    return ginv.Matrix([[ginv.GaussianRational(re, im) for re, im in row] for row in grid])


def from_ginv(m) -> list:
    return [[(Fraction(e.re), Fraction(e.im)) for e in m.row(i)] for i in range(m.rows)]


# -- matrix classes -----------------------------------------------------------


def draw(rng, count, pool=POOL):
    """``count`` entries that cycle through ``pool``, in seeded order.

    Every matrix of one class and size then holds the same multiset of
    entries and the seed decides only where they sit, which keeps the cost
    of a run from swinging with how many zeros or fractions a seed drew.
    """
    values = [pool[i % len(pool)] for i in range(count)]
    rng.shuffle(values)
    return values


def grid_of(values, rows, cols):
    return [values[i * cols : (i + 1) * cols] for i in range(rows)]


def generic(rng, n):
    return grid_of(draw(rng, n * n), n, n)


def rank_deficient(rng, n, r=None):
    """u v with u n x r and v r x n; r = n - 1 unless given."""
    r = n - 1 if r is None else r
    return mat_mul(grid_of(draw(rng, n * r), n, r), grid_of(draw(rng, r * n), r, n))


def triangular(rng, n):
    """Upper triangular with a[0][0] = a[1][1] = 0, a[0][1] != 0 and the
    rest of the diagonal nonzero: rank n - 1 and index exactly 2.
    """
    upper = iter(draw(rng, n * (n - 1) // 2 - 1))
    diagonal = iter(draw(rng, n - 2, NONZERO))
    a = [[ZERO] * n for _ in range(n)]
    a[0][1] = rng.choice(NONZERO)
    for i in range(n):
        for j in range(i, n):
            if i == j and i >= 2:
                a[i][j] = next(diagonal)
            elif j > i and (i, j) != (0, 1):
                a[i][j] = next(upper)
    return a


def dense_index_two(rng, n):
    """A triangular index-2 matrix under 2n unimodular similarities.

    Step (p, k) is a -> E a E^-1 with E = I + c e_i e_j^T, i = k,
    j = k + 1 + p (mod n) and c = +-1, which keeps the Jordan structure (so
    the index) and fills the matrix in.  The fixed (i, j) pattern keeps the
    entry growth, and so the cost, the same from seed to seed.
    """
    a = triangular(rng, n)
    for p in range(2):
        for i in range(n):
            j = (i + 1 + p) % n
            c = Fraction(rng.choice((1, -1)))
            a[i] = [(x[0] + c * y[0], x[1] + c * y[1]) for x, y in zip(a[i], a[j])]
            for row in a:
                row[j] = (row[j][0] - c * row[i][0], row[j][1] - c * row[i][1])
    return a


# -- request bodies (the timed part) ----------------------------------------


def _attempt(outcome, name, fn):
    try:
        outcome[name] = ("ok", fn())
    except Exception as exc:  # recorded and judged by the oracle
        outcome[name] = ("error", type(exc).__name__, str(exc))


def run_routes(a):
    """Every library route on one matrix; names are looked up at call time
    so that a traced run sees the rebound (wrapped) functions."""
    out = {}
    _attempt(out, "mp", lambda: ginv.mp_inverse(a))
    _attempt(out, "group", lambda: ginv.group_inverse(a))
    _attempt(out, "drazin", lambda: ginv.drazin_inverse(a))
    _attempt(out, "core_ep", lambda: ginv.core_ep_decompose(a))
    _attempt(out, "weak_mp", lambda: ginv.weak_mp_inverse(a))
    _attempt(out, "hgroup", lambda: ginv.hgroup_inverse(a))
    _attempt(out, "solve_ax", lambda: ginv.solve_ax_system(a))
    _attempt(out, "solve_px", lambda: ginv.solve_px_system(a))
    _attempt(out, "bc_pair", lambda: ginv.build_bc_pair(a))
    if out["bc_pair"][0] == "ok":
        pair = out["bc_pair"][1]
        _attempt(out, "bc", lambda: ginv.bc_inverse(a, pair))
        _attempt(
            out,
            "two",
            lambda: ginv.two_inverse_prescribed(a, ginv.image_of(pair.b), ginv.kernel_of(pair.c)),
        )
    _attempt(out, "weak_hgroup", lambda: ginv.weak_hgroup_inverse(a))
    _attempt(out, "weak_paths", lambda: ginv.weak_hgroup_paths(a))
    return out


def run_kernel(a):
    out = {}
    _attempt(out, "mp", lambda: ginv.mp_inverse(a))
    _attempt(out, "drazin", lambda: ginv.drazin_inverse(a))
    _attempt(out, "hgroup", lambda: ginv.hgroup_inverse(a))
    return out


def cli_call(argv):
    """ginv.cli.main in-process: (exit code, stdout, stderr, uncaught exception)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ginv.cli.main(list(argv))
        except Exception as exc:  # an uncaught exception is a failed request
            code, crash = None, f"{type(exc).__name__}: {exc}"
    return (code, out.getvalue(), err.getvalue(), crash)


# -- the workloads --------------------------------------------------------------

SHAPES = (("generic", generic), ("rank-deficient", rank_deficient), ("triangular", triangular))


def routes_small(seed, workdir):
    rng = random.Random(f"routes-small:{seed}")
    for rnd in itertools.count():
        for cls, make in SHAPES:
            for n in (3, 4, 5):
                grid = make(rng, n)
                a = to_ginv(grid)
                yield Request(rnd, f"{cls}/n={n}", lambda a=a: run_routes(a), {"a": grid})


KERNEL_SHAPES = (
    ("dense", generic),
    ("rank-half", lambda rng, n: rank_deficient(rng, n, n // 2)),
    ("index-2", dense_index_two),
)


def kernel_dense(seed, workdir):
    rng = random.Random(f"kernel-dense:{seed}")
    for rnd in itertools.count():
        for cls, make in KERNEL_SHAPES:
            # n = 16 twice, so the median and the tail fall inside the
            # n = 16 classes rather than in the gap between the two sizes
            for n in (12, 16, 16):
                grid = make(rng, n)
                a = to_ginv(grid)
                yield Request(rnd, f"{cls}/n={n}", lambda a=a: run_kernel(a), {"a": grid})


KINDS = ("mp", "weak-mp", "group", "drazin", "hgroup", "weak-hgroup", "bc", "two")
# kinds whose defining system has exactly one solution, so a perturbed
# candidate must fail verification
VERIFY_KINDS = ("mp", "group", "drazin", "hgroup")


def document(grid) -> str:
    n, m = len(grid), len(grid[0])
    return json.dumps({"rows": n, "cols": m, "entries": [[token(z) for z in row] for row in grid]})


def _malformed(rng, grid) -> str:
    """A document that breaks the documented format in one seeded way."""
    payload = json.loads(document(grid))
    i, j = rng.randrange(len(grid)), rng.randrange(len(grid))
    how = rng.choice(("truncated", "ragged", "number", "token", "rows", "no-cols", "list"))
    if how == "truncated":
        text = document(grid)
        return text[: len(text) // 2]
    if how == "ragged":
        payload["entries"][i].pop()
    elif how == "number":
        payload["entries"][i][j] = 1
    elif how == "token":
        payload["entries"][i][j] = rng.choice(("1/0", "1.5", "2j", "i1", "1+i", "--1", "", "1/2/3"))
    elif how == "rows":
        payload["rows"] += 1
    elif how == "no-cols":
        del payload["cols"]
    else:
        payload = payload["entries"]
    return json.dumps(payload)


def result_grid(outcome):
    """The result matrix of a successful compute report, read by the benchmark."""
    code, stdout = outcome[0], outcome[1]
    if code != 0:
        return None
    try:
        entries = json.loads(stdout)["result"]["entries"]
        return [[parse_token(t) for t in row] for row in entries]
    except (ValueError, KeyError, TypeError, ZeroDivisionError):
        return None


def cli_mixed(seed, workdir):
    rng = random.Random(f"cli-mixed:{seed}")
    for rnd in itertools.count():
        for (c, (cls, make)), (j, n) in itertools.product(enumerate(SHAPES), enumerate((3, 4, 5, 6))):
            # a Latin square over class and size, so each round verifies
            # every kind equally often whatever the seed
            verify_kinds = (VERIFY_KINDS[(c + j) % 4], VERIFY_KINDS[(c + j + 2) % 4])
            yield from _cli_matrix(rng, workdir, rnd, cls, make(rng, n), verify_kinds)


def _cli_matrix(rng, workdir, rnd, cls, grid, verify_kinds):
    """The twelve requests of one matrix: compute x8, verify x2, decompose, malformed."""
    n = len(grid)
    folder = Path(workdir) / f"r{rnd}-{cls}-{n}"
    folder.mkdir()

    def write(name, text):
        path = folder / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    a_path = write("a.json", document(grid))
    # b = c = a^n: the (b,c)-inverse and the {2}-inverse with image im(a^n)
    # and kernel ker(a^n) are then the Drazin inverse, which always exists
    p_path = write("an.json", document(mat_pow(grid, n)))
    pair_args = {"bc": ["--b", p_path, "--c", p_path], "two": ["--t", p_path, "--s", p_path]}
    base = {"a": grid, "class": cls}

    results = {}
    for kind in KINDS:
        argv = ["compute", "--kind", kind, "--a", a_path] + pair_args.get(kind, [])
        outcome = yield Request(
            rnd, f"compute:{kind}", lambda argv=argv: cli_call(argv), {**base, "op": "compute", "kind": kind}
        )
        results[kind] = result_grid(outcome)

    for op, kind in zip(("verify-ok", "verify-bad"), verify_kinds):
        if results[kind] is None:
            kind = "mp"
        cand = results[kind] or [[ZERO] * n for _ in range(n)]
        if op == "verify-bad":
            cand = [list(row) for row in cand]
            i, j = rng.randrange(n), rng.randrange(n)
            cand[i][j] = gadd(cand[i][j], (Fraction(1), Fraction(0)))
        c_path = write(f"{op}.json", document(cand))
        argv = ["verify", "--kind", kind, "--a", a_path, "--candidate", c_path]
        yield Request(
            rnd, op, lambda argv=argv: cli_call(argv), {**base, "op": "verify", "kind": kind, "candidate": cand}
        )

    argv = ["decompose", "--a", a_path]
    yield Request(rnd, "decompose", lambda argv=argv: cli_call(argv), {**base, "op": "decompose"})

    kind = rng.choice(KINDS)
    bad_path = write("malformed.json", _malformed(rng, grid))
    argv = ["compute", "--kind", kind, "--a", bad_path] + pair_args.get(kind, [])
    yield Request(rnd, "malformed", lambda argv=argv: cli_call(argv), {**base, "op": "malformed", "kind": kind})


WORKLOADS = {"routes-small": routes_small, "kernel-dense": kernel_dense, "cli-mixed": cli_mixed}

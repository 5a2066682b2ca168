"""Independent correctness oracle, run after the timed region.

Exact arithmetic and elimination come from sympy's ``DomainMatrix`` over
``QQ_I``; nothing here calls ginv's elimination or parser.  Results are
judged by their defining equations (each kind checked has a unique
solution of its system), and every expected domain outcome is derived from
sympy ranks.  ``check(workload, requests, outcomes)`` returns one list of
failure messages per request.
"""

from __future__ import annotations

import json

from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from workloads import from_ginv, parse_token

REPORT_KEYS = ["command", "kind", "ok", "result", "unique", "index", "checks", "reason"]


def dm(grid) -> DomainMatrix:
    rows = [
        [QQ_I(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator)) for re, im in row]
        for row in grid
    ]
    return DomainMatrix(rows, (len(grid), len(grid[0]) if grid else 0), QQ_I).to_dense()


def lift(m) -> DomainMatrix:
    """A ginv Matrix (read entry by entry) as a sympy matrix."""
    if m.rows == 0 or m.cols == 0:
        return DomainMatrix.zeros((m.rows, m.cols), QQ_I).to_dense()
    return dm(from_ginv(m))


def adj(m: DomainMatrix) -> DomainMatrix:
    return m.transpose().applyfunc(lambda e: QQ_I(e.x, -e.y))


def same(p: DomainMatrix, q: DomainMatrix) -> bool:
    return p.shape == q.shape and (p - q).is_zero_matrix


def eye(n):
    return DomainMatrix.eye(n, QQ_I).to_dense()


def index(a: DomainMatrix) -> int:
    """Least k >= 0 with rank(a^k) = rank(a^(k+1)), a^0 = I."""
    power, previous, k = eye(a.shape[0]), a.shape[0], 0
    while True:
        power = power * a
        current = power.rank()
        if current == previous:
            return k
        previous, k = current, k + 1


def mp(a: DomainMatrix) -> DomainMatrix:
    """G* (G G*)^-1 (F* F)^-1 F* from sympy's own rref of a."""
    reduced, pivots = a.rref()
    r = len(pivots)
    if r == 0:
        return DomainMatrix.zeros((a.shape[1], a.shape[0]), QQ_I).to_dense()
    f = a.extract(list(range(a.shape[0])), list(pivots))
    g = reduced.extract(list(range(r)), list(range(a.shape[1])))
    return adj(g) * (g * adj(g)).inv() * (adj(f) * f).inv() * adj(f)


# -- defining systems ----------------------------------------------------------


def mp_system(a, x):
    return [
        name
        for name, holds in (
            ("xax=x", same(x * a * x, x)),
            ("axa=a", same(a * x * a, a)),
            ("(ax)*=ax", same(adj(a * x), a * x)),
            ("(xa)*=xa", same(adj(x * a), x * a)),
        )
        if not holds
    ]


def group_system(a, x):
    return [
        name
        for name, holds in (
            ("xax=x", same(x * a * x, x)),
            ("axa=a", same(a * x * a, a)),
            ("ax=xa", same(a * x, x * a)),
        )
        if not holds
    ]


def drazin_system(a, x, k=None):
    k = index(a) if k is None else k
    return [
        name
        for name, holds in (
            ("ax=xa", same(a * x, x * a)),
            ("a^(k+1)x=a^k", same(a ** (k + 1) * x, a**k)),
            ("xax=x", same(x * a * x, x)),
        )
        if not holds
    ]


def hgroup_system(a, x):
    """The four equations plus x in aR and x in Ra, as rank tests."""
    a2, astar = a * a, adj(a)
    rk = a.rank()
    return [
        name
        for name, holds in (
            ("xax=x", same(x * a * x, x)),
            ("a2xa2=a3", same(a2 * x * a2, a2 * a)),
            ("(a2xa*)*=a2xa*", same(adj(a2 * x * astar), a2 * x * astar)),
            ("(a*xa2)*=a*xa2", same(adj(astar * x * a2), astar * x * a2)),
            ("x in aR", a.hstack(x).rank() == rk),
            ("x in Ra", a.vstack(x).rank() == rk),
        )
        if not holds
    ]


def weak_system(a, x):
    """The weak-MP system; the weak-hgroup system adds only "xa3x has an MP
    inverse", which always holds over Q(i)."""
    n = a.shape[0]
    return [
        name
        for name, holds in (
            ("x=xax", same(x * a * x, x)),
            ("(ax)*=ax", same(adj(a * x), a * x)),
            ("(xa)*=xa", same(adj(x * a), x * a)),
            ("a-axa nilpotent", ((a - a * x * a) ** n).is_zero_matrix),
        )
        if not holds
    ]


def decomposition_faults(a, core, nil, projector, got_index, k):
    """The core-nilpotent decomposition is unique given these conditions."""
    n = a.shape[0]
    ak = a**k
    return [
        name
        for name, holds in (
            ("core+nil=a", same(core + nil, a)),
            ("core* nil=0", (adj(core) * nil).is_zero_matrix),
            ("nil core=0", (nil * core).is_zero_matrix),
            ("nil nilpotent", (nil**n).is_zero_matrix),
            ("core index<=1", (core * core).rank() == core.rank()),
            ("index", got_index == k),
            ("P hermitian idempotent", same(adj(projector), projector) and same(projector * projector, projector)),
            ("im P = im a^k", projector.rank() == ak.rank() == projector.hstack(ak).rank()),
            ("core = P a", same(core, projector * a)),
        )
        if not holds
    ]


def core_of(a, k):
    ak = a**k
    return ak * mp(ak) * a


SYSTEMS = {"mp": mp_system, "group": group_system, "drazin": drazin_system, "hgroup": hgroup_system}


# -- library routes -------------------------------------------------------------


def check_library(grid, outcome):
    a = dm(grid)
    k = index(a)
    faults = []

    def value(route):
        got = outcome.get(route)
        if got is None:
            faults.append(f"{route}: not run")
            return None
        if got[0] != "ok":
            faults.append(f"{route}: raised {got[1]}: {got[2]}")
            return None
        return got[1]

    def judge(route, found):
        faults.extend(f"{route}: fails {name}" for name in found)

    x = value("mp")
    if x is not None:
        judge("mp", mp_system(a, lift(x)))
    if "group" in outcome:
        if a.rank() == (a * a).rank():
            g = value("group")
            if g is not None:
                judge("group", group_system(a, lift(g)))
        elif outcome["group"][:2] != ("error", "NotGroupInvertibleError"):
            faults.append("group: expected NotGroupInvertibleError, rank(a^2) < rank(a)")
    d = value("drazin")
    if d is not None:
        judge("drazin", drazin_system(a, lift(d), k))
    h = value("hgroup")
    if h is not None:
        h = lift(h)
        judge("hgroup", hgroup_system(a, h))
    if "core_ep" not in outcome:
        return faults  # kernel-dense runs only mp, drazin and hgroup

    dec = value("core_ep")
    core = None
    if dec is not None:
        core = lift(dec.core)
        judge("core_ep", decomposition_faults(a, core, lift(dec.nil), lift(dec.projector), dec.index, k))
    w = value("weak_mp")
    if w is not None and core is not None:
        judge("weak_mp", mp_system(core, lift(w)))
    for route in ("solve_ax", "solve_px"):
        res = value(route)
        if res is not None and h is not None:
            if not same(lift(res.solution), h):
                faults.append(f"{route}: solution differs from hgroup_inverse")
            if not res.unique or res.homogeneous_dimension != 0:
                faults.append(f"{route}: solution reported as not unique")
    pair = value("bc_pair")
    if pair is not None and x is not None:
        ad, astar2 = lift(x), adj(a) * adj(a)
        if not (same(lift(pair.b), a * ad * astar2) and same(lift(pair.c), astar2 * ad * a)):
            faults.append("bc_pair: differs from (p a*^2, a*^2 q)")
    for route in ("bc", "two"):
        res = value(route) if pair is not None else None
        if res is not None and h is not None and not same(lift(res), h):
            faults.append(f"{route}: differs from hgroup_inverse")
    wh = value("weak_hgroup")
    if wh is not None and core is not None:
        wh = lift(wh)
        judge("weak_hgroup", hgroup_system(core, wh))
    paths = value("weak_paths")
    if paths is not None and wh is not None:
        if not (same(lift(paths[0]), wh) and same(lift(paths[2]), wh)):
            faults.append("weak_paths: route 1 or route 3 differs from weak_hgroup_inverse")
    return faults


# -- CLI requests ---------------------------------------------------------------


def _read_matrix(payload):
    return dm([[parse_token(t) for t in row] for row in payload["entries"]])


def _report(stdout, faults):
    try:
        report = json.loads(stdout)
    except ValueError:
        faults.append("report is not JSON")
        return None
    if list(report) != REPORT_KEYS:
        faults.append(f"report keys {list(report)}")
        return None
    return report


def check_cli(data, outcome):
    code, stdout, _, crash = outcome
    if crash is not None:
        return [f"uncaught {crash}"]
    op, kind = data["op"], data.get("kind")
    if op == "malformed":
        return [] if code == 2 and stdout == "" else [f"malformed document: exit {code}, expected 2"]

    a = dm(data["a"])
    k = index(a)
    faults = []
    if op == "decompose":
        if code != 0:
            return [f"decompose: exit {code}"]
        report = _report(stdout, faults)
        if report is not None:
            r = report["result"]
            faults.extend(
                decomposition_faults(
                    a, _read_matrix(r["core"]), _read_matrix(r["nil"]), _read_matrix(r["projector"]), report["index"], k
                )
            )
        return faults

    if op == "verify":
        holds = not SYSTEMS[kind](a, dm(data["candidate"]))
        expected = 0 if holds else 1
        if code != expected:
            return [f"verify {kind}: exit {code}, expected {expected}"]
        report = _report(stdout, faults)
        if report is not None and report["ok"] is not holds:
            faults.append(f"verify {kind}: ok={report['ok']}")
        return faults

    if kind == "group" and a.rank() != (a * a).rank():
        if code != 1:
            return [f"compute group: exit {code}, expected 1 (rank(a^2) < rank(a))"]
        report = _report(stdout, faults)
        if report is not None and (report["ok"] or report["result"] is not None):
            faults.append("compute group: reported a result that cannot exist")
        return faults
    report = _report(stdout, faults) if code in (0, 1) else None
    if report is None or report["result"] is None:
        return faults + [f"compute {kind}: exit {code} without a result"]
    x = _read_matrix(report["result"])
    if kind in SYSTEMS:
        found = SYSTEMS[kind](a, x)
    elif kind == "weak-mp":
        found = mp_system(core_of(a, k), x)
    elif kind == "weak-hgroup":
        found = hgroup_system(core_of(a, k), x)
    else:  # bc and two with b = c = a^n: the Drazin inverse
        found = drazin_system(a, x, k)
    faults.extend(f"compute {kind}: value fails {name}" for name in found)
    # the constructive weak values leave the weak system when nil core* != 0;
    # the CLI then reports the value with exit 1
    holds = kind not in ("weak-mp", "weak-hgroup") or not weak_system(a, x)
    if code != (0 if holds else 1) or report["ok"] is not holds:
        faults.append(f"compute {kind}: exit {code} ok={report['ok']}, weak system holds={holds}")
    return faults


def _guarded(judge, *args):
    """A result the oracle cannot even read is a failed request."""
    try:
        return judge(*args)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError, ZeroDivisionError) as exc:
        return [f"unreadable result: {type(exc).__name__}: {exc}"]


def check(workload, requests, outcomes):
    if workload == "cli-mixed":
        return [_guarded(check_cli, req.data, out) for req, out in zip(requests, outcomes)]
    return [_guarded(check_library, req.data["a"], out) for req, out in zip(requests, outcomes)]

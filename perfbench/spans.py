"""Span recorder for the traced run, installed from outside the package.

Each listed public function is rebound in every ``ginv.*`` namespace that
holds it (modules import each other's functions by name, so patching one
module would miss the calls from the others); ``Matrix.matmul`` and
``Matrix.__pow__`` are wrapped on the class.  Spans are kept in memory as
(name, start, end, parent, request) and written out when the run ends.

A span's self time is its duration minus the time covered by its child
spans.  A child covers its own call plus the recorder's bookkeeping after
it, so tracing overhead never lands in a parent's self time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import time
from collections import defaultdict

import ginv
import ginv.matrix

FUNCTIONS = {
    "matrix": (
        "rref",
        "solve_right",
        "invert",
        "full_rank_factorize",
        "nullspace_basis",
        "kronecker",
        "ideal_membership",
        "nilpotency_and_index",
        "subspace_relate",
    ),
    "pinv": ("mp_inverse",),
    "classical": ("group_inverse", "drazin_inverse", "weak_mp_inverse", "core_ep_decompose"),
    "hgroup": (
        "hgroup_inverse",
        "solve_ax_system",
        "solve_px_system",
        "build_bc_pair",
        "bc_inverse",
        "two_inverse_prescribed",
    ),
    "weak_hgroup": ("weak_hgroup_inverse", "weak_hgroup_paths", "weak_hgroup_via_system", "solve_two_sided_system"),
    "verify": ("check_axioms",),
    "cli": ("parse_document", "emit_document", "execute_command"),
    "scalar": ("scalar_parse", "scalar_format"),
}
METHODS = {"matrix.matmul": "matmul", "matrix.pow": "__pow__"}
SPAN_NAMES = tuple(METHODS) + tuple(f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns)


def entry_bits(value) -> int:
    """Largest numerator or denominator bit-length of any matrix in ``value``."""
    if isinstance(value, ginv.Matrix):
        best = 0
        for i in range(value.rows):
            for e in value.row(i):
                for q in (e.re, e.im):
                    best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
        return best
    if isinstance(value, (tuple, list)):
        return max((entry_bits(v) for v in value), default=0)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return max((entry_bits(getattr(value, f.name)) for f in dataclasses.fields(value)), default=0)
    return 0


class Recorder:
    def __init__(self):
        self.spans = []
        self.request = -1
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.max_bits = 0
        self._stack = []  # [span index, time covered by children]

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                end = clock()
                self.max_bits = max(self.max_bits, entry_bits(result))
                return result
            except BaseException:
                end = clock()
                raise
            finally:
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
                self.calls[name] += 1
                self.total[name] += end - start
                self.self_time[name] += end - start - frame[1]
                if stack:
                    stack[-1][1] += clock() - start

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every listed function in all ginv modules; restore on exit."""
        modules = [m for key, m in sys.modules.items() if key == "ginv" or key.startswith("ginv.")]
        undo = []
        for mod, names in FUNCTIONS.items():
            home = sys.modules[f"ginv.{mod}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod}.{fn_name}", original)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, attr, wrapper)
                            undo.append((m, attr, original))
        for name, attr in METHODS.items():
            original = getattr(ginv.matrix.Matrix, attr)
            setattr(ginv.matrix.Matrix, attr, self.wrap(name, original))
            undo.append((ginv.matrix.Matrix, attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def dump(self, path, origin):
        names = {name: i for i, name in enumerate(SPAN_NAMES)}
        rows = [
            [names[name], round(start - origin, 9), round(end - origin, 9), parent, req]
            for name, start, end, parent, req in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": list(SPAN_NAMES), "fields": ["name", "start_s", "end_s", "parent", "request"], "spans": rows}, handle)

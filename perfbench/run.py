#!/usr/bin/env python3
"""Seeded closed-loop benchmark for ginv.

    python3 perfbench/run.py --workload routes-small --seed 1 --seconds 25 --trace 0

One client, one single-threaded process: the next request starts only when
the previous one has finished.  A run measures whole rounds of the
workload's mix until ``--seconds`` of request time have passed, then checks
every outcome with the independent oracle (sympy, outside the timed region).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
requests twice, untraced and then traced, and reports per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object;
lines before it are for people.  A run record and, for traced runs, the
spans are written under ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
# fresh-interpreter imports per run, half before and half after the closed
# loop, so that a short burst of load on the machine moves the median less
SETUP_REPEATS = 11
# tail percentile per workload; at --seconds 25 the runs reach about 180, 27
# and 860-1000 samples, so each leaves at least ten samples beyond it
TAIL_PERCENTILE = {"routes-small": 90, "kernel-dense": 60, "cli-mixed": 98}
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import ginv, ginv.cli\n"
    "print(time.perf_counter() - t)\n"
)


def import_times(count):
    """Times to import ginv and ginv.cli, each in a fresh interpreter."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(done.stdout))
    return times


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def closed_loop(stream, seconds, spill):
    """Run whole rounds until ``seconds`` of request time have elapsed.

    Outcomes are pickled to ``spill`` as they arrive, outside the timed
    region, so the process's memory does not grow with the length of the run.
    """
    done, latencies = [], []
    busy = 0.0
    req = next(stream)
    while True:
        t0 = time.perf_counter()
        outcome = req.call()
        dt = time.perf_counter() - t0
        busy += dt
        done.append(req)
        latencies.append(dt)
        pickle.dump(outcome, spill)
        nxt = stream.send(outcome)
        if nxt.round != req.round and busy >= seconds:
            break
        req = nxt
    stream.close()
    return done, latencies


def spilled(spill, count):
    """The outcomes ``closed_loop`` wrote, read back in order."""
    spill.seek(0)
    for _ in range(count):
        yield pickle.load(spill)


def tail(latencies, percentile):
    """Nearest-rank latency at ``percentile``, the workload's fixed tail.

    Each workload's percentile leaves at least ten samples beyond it at the
    sample counts a run reaches; a run with fewer samples falls back to the
    highest percentile that still has ten beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n * (100 - percentile) / 100 < 10:
        percentile = 100.0 * max(n - 10, 1) / n
    rank = max(math.ceil(percentile / 100 * n), 1)
    return ordered[rank - 1], percentile


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, record, spill):
    requests, latencies = closed_loop(workload(seed, record["workdir"]), seconds, spill)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_value, tail_pct = tail(latencies, TAIL_PERCENTILE[record["workload"]])
    busy = sum(latencies)
    metrics = {
        "throughput_rps": metric(len(latencies) / busy, "1/s"),
        "latency_p50_s": metric(statistics.median(latencies), "s"),
        "latency_tail_s": metric(tail_value, "s"),
        "peak_rss_mib": metric(peak_mib, "MiB"),
    }
    notes = {"latency_tail_s": f"p{tail_pct:g} of {len(latencies)} samples"}
    record["latencies_s"] = [[req.label, dt] for req, dt in zip(requests, latencies)]
    return requests, list(spilled(spill, len(requests))), [], metrics, notes


def per_layer(workload, seed, seconds, record, spill):
    import spans

    requests, latencies = closed_loop(workload(seed, record["workdir"]), seconds / 2, spill)
    recorder = spans.Recorder()
    traced_latencies, mismatched = [], set()
    origin = time.perf_counter()
    with recorder.installed():
        for i, (req, untraced) in enumerate(zip(requests, spilled(spill, len(requests)))):
            recorder.request = i
            t0 = time.perf_counter()
            outcome = req.call()
            traced_latencies.append(time.perf_counter() - t0)
            if outcome != untraced:
                mismatched.add(i)
    recorder.dump(OUT / f"{record['workload']}-spans.json", origin)

    traced_wall, untraced_wall = sum(traced_latencies), sum(latencies)
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = metric(recorder.calls[name], "count")
        metrics[f"{name}.total_s"] = metric(recorder.total[name], "s")
        metrics[f"{name}.self_s"] = metric(recorder.self_time[name], "s")
    n = len(requests)
    metrics["pinv.mp_inverse.calls_per_request"] = metric(recorder.calls["pinv.mp_inverse"] / n, "count")
    metrics["verify.check_axioms.calls_per_request"] = metric(recorder.calls["verify.check_axioms"] / n, "count")
    metrics["verify.share"] = metric(recorder.total["verify.check_axioms"] / traced_wall, "ratio")
    metrics["scalar.max_entry_bits"] = metric(recorder.max_bits, "bits")
    metrics["trace.overhead_ratio"] = metric(traced_wall / untraced_wall, "ratio")
    notes = {"trace.overhead_ratio": f"{n} requests, {len(recorder.spans)} spans"}
    extra = [["tracing changed the outcome of this request"] if i in mismatched else [] for i in range(n)]
    return requests, list(spilled(spill, n)), extra, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ginv" / "__init__.py").is_file():
        print(f"perfbench: no ginv sources at {SRC}", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }
    setup_probes = [] if args.trace else import_times(SETUP_REPEATS - SETUP_REPEATS // 2)
    sys.path.insert(0, str(SRC))
    import ginv
    import ginv.scalar

    if Path(ginv.__file__).resolve().parent != (SRC / "ginv").resolve():
        print(f"perfbench: imported ginv from {ginv.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    record["substrate"] = ginv.scalar.SUBSTRATE

    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    record["workdir"] = workdir
    try:
        measure = per_layer if args.trace else end_to_end
        with open(Path(workdir) / "outcomes.pickle", "w+b") as spill:
            requests, outcomes, extra, metrics, notes = measure(
                workloads.WORKLOADS[args.workload], args.seed, args.seconds, record, spill
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    del record["workdir"]
    if not args.trace:
        setup_probes += import_times(SETUP_REPEATS // 2)
        record["setup_s"] = statistics.median(setup_probes)
        metrics["setup_s"] = metric(record["setup_s"], "s")

    import oracle

    faults = oracle.check(args.workload, requests, outcomes)
    for i, more in enumerate(extra):
        faults[i] = faults[i] + more
    failed = [(req.label, f) for req, f in zip(requests, faults) if f]
    attempted = len(requests) * (2 if args.trace else 1)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }

    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump({"record": record, "notes": notes, "failures": failed[:50], **result}, handle, indent=1)
    for key, val in record.items():
        if key != "latencies_s":
            print(f"# {key}: {val}")
    for label, found in failed[:10]:
        print(f"FAILED {label}: {'; '.join(found)}", file=sys.stderr)
    if not args.trace:
        print(f"failed_ratio {len(failed) / len(requests):.6f} ratio  ({len(failed)} of {len(requests)} requests)")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in a fresh single-threaded process.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS

MODE is ``setup`` (build the inputs, report when they were ready, exit),
``run`` (measure untraced for SECONDS) or ``trace`` (alternate traced and
untraced repetitions of a fixed set of passes for SECONDS).  The last line
of standard output is one JSON object.  Time stamps are CLOCK_MONOTONIC,
which the parent process shares.
"""
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array

from calibrate import Sampler, factor, kernel_seconds
from workloads import WORKLOADS, OpResult, clock

NOTES_KEPT = 5


def run_op(kind, fn, inp) -> OpResult:
    try:
        return fn(inp)
    except Exception as exc:  # the operation failed; keep measuring the rest
        return OpResult(kind, math.nan, 0, False, False,
                        "%s: %s" % (type(exc).__name__, exc))


def percentile(values, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(w) -> float:
    who = resource.RUSAGE_CHILDREN if w.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def failures_of(results):
    bad = [r for r in results if not r.ok]
    return len(bad), ["%s: %s" % (r.kind, r.note) for r in bad[:NOTES_KEPT]]


def measure(w, seconds: float) -> dict:
    """Whole passes until the next one would end past the deadline.

    The reference kernel runs on a timer meanwhile (in the child process
    for operations run by one); each operation's time, less the kernel
    runs inside it, is reported scaled to reference speed.  Operations
    are kept in flat arrays so the harness's memory does not grow with
    the number of operations a run reaches.
    """
    inp = w.inputs()
    start, secs, child = array("d"), array("d"), array("d")
    units, latency, pass_of = array("i"), array("b"), array("i")
    failed, notes = 0, []
    sampler = Sampler()
    deadline = clock() + seconds
    p = 0
    with contextlib.nullcontext() if w.in_children else sampler:
        while True:
            t0 = clock()
            for kind, fn in w.pass_ops(p):
                r = run_op(kind, fn, inp)
                if not r.ok:
                    failed += 1
                    if len(notes) < NOTES_KEPT:
                        notes.append("%s: %s" % (r.kind, r.note))
                start.append(r.start)
                secs.append(r.seconds if r.ok else math.nan)
                child.append(factor(r.kernels) if r.kernels else 0.0)
                units.append(r.units)
                latency.append(r.latency)
                pass_of.append(p)
            p += 1
            if clock() + (clock() - t0) > deadline:
                break
    # per pass: all operation time, and units with the time that made them
    pass_s, done, work_s, raw_s = ([0.0] * p for _ in range(4))
    lat = []
    for t0, t, f, u, is_lat, i in zip(start, secs, child, units, latency,
                                      pass_of):
        if math.isnan(t):
            continue
        if not f:
            t -= sampler.inside(t0, t0 + t)
            f = factor(sampler.around(t0, t0 + t))
        pass_s[i] += t * f
        if u:
            done[i] += u
            work_s[i] += t * f
            raw_s[i] += t
        if is_lat:
            lat.append(1e3 * t * f)
    lat.sort()
    rates = [u / s for u, s in zip(done, work_s) if s > 0.0]
    throughput = statistics.median(rates) if rates else 0.0
    raw = statistics.median(u / s for u, s in zip(done, raw_s) if s > 0.0) \
        if rates else 0.0
    named = {}
    if w.name == "sim-ensemble":
        named["traj_steps_per_s"] = (throughput, "1/s")
    elif w.name == "sample-audit":
        named["samples_per_s"] = (throughput, "1/s")
    elif w.name == "transport-grid":
        named["grid_nodes_per_s"] = (throughput, "1/s")
        named["query_p50_ms"] = (percentile(lat, 50), "ms")
        named["query_p95_ms"] = (percentile(lat, 95), "ms")
    else:
        named["pipeline_s"] = (statistics.median(pass_s), "s")
    named["unscaled_throughput_per_s"] = (raw, "1/s")
    return {"throughput_per_s": throughput,
            "latency_p50_ms": percentile(lat, 50),
            "latency_p95_ms": percentile(lat, 95),
            "latency_n": len(lat), "passes": p,
            "peak_rss_mb": peak_rss_mb(w),
            "attempted": len(secs), "failed": failed, "notes": notes,
            "named": named}


def trace(w, seconds: float, run_id: str, spans_dir: str) -> dict:
    """Alternate traced and untraced repetitions of passes 0..trace_passes-1.

    Every repetition runs the same inputs, so each traced repetition must
    give the same counts (the determinism check), and traced against
    untraced time is the tracing overhead.
    """
    from layers import layer_metrics
    from spans import Recorder, Summary, load_spans

    rec = Recorder(run_id)
    inputs = {False: w.inputs(), True: w.inputs(rec)}
    reps = []                      # (traced, [(op id, OpResult)])
    deadline = clock() + seconds
    op_id = 0
    while True:
        traced = len(reps) % 2 == 0
        t0 = clock()
        batch = []
        if traced:
            rec.install()
        try:
            for p in range(w.trace_passes):
                for kind, fn in w.pass_ops(p):
                    rec.op = op_id if traced else -1
                    batch.append((op_id, run_op(kind, fn, inputs[traced])))
                    op_id += 1
        finally:
            rec.uninstall()
        reps.append((traced, batch))
        if len(reps) >= 2 and clock() + (clock() - t0) > deadline:
            break

    arrays = rec.arrays()
    child_meta = []
    per_rep = []
    total = Summary()
    for traced, batch in reps:
        if not traced:
            continue
        summary = Summary()
        kinds = {i: r.kind for i, r in batch}
        for s in (summary, total):
            s.add(rec.names, arrays, kinds)
        for i, r in batch:
            if r.spans and os.path.exists(r.spans):
                names, child, meta = load_spans(r.spans)
                child_meta.append(meta)
                for s in (summary, total):
                    s.add(names, child, {0: r.kind})
        per_rep.append((summary, [r for _, r in batch]))

    failures = dict(rec.failures)
    for meta in child_meta:
        for layer, n in meta["failures"].items():
            failures[layer] += n
    untraced = [[r for _, r in b] for t, b in reps if not t]
    traced_res = [r for s, res in per_rep for r in res]
    ctx = {
        "passes": len(per_rep) * w.trace_passes,
        "failures": failures,
        "load_s": w.load_s,
        "import_s": getattr(w, "import_s", []),
        "untraced": untraced,
        "artifact_bytes": getattr(w, "artifact_bytes", 0),
        "overhead": (statistics.median(
            math.fsum(r.seconds for r in res if r.ok) for _, res in per_rep)
            / statistics.median(math.fsum(r.seconds for r in b if r.ok)
                                for b in untraced) - 1.0),
    }
    metrics = layer_metrics(w, total, traced_res, ctx)
    counts = [
        {k: v for k, v in layer_metrics(w, s, res, dict(
            ctx, passes=w.trace_passes)).items() if v[1] == "count"}
        for s, res in per_rep]
    rec.write(os.path.join(spans_dir, "spans-%s.npz" % w.name),
              ops=[(i, r.kind) for t, b in reps if t for i, r in b])
    results = [r for _, b in reps for _, r in b]
    failed, notes = failures_of(results)
    deterministic = all(c == counts[0] for c in counts)
    if not deterministic:
        notes.append("count metrics differ between traced repetitions")
    return {"per_layer": metrics, "attempted": len(results),
            "failed": failed, "notes": notes,
            "deterministic": deterministic,
            "traced_reps": len(per_rep), "spans": len(arrays["start"])}


def main() -> int:
    mode, name, seed, seconds = sys.argv[1:5]
    root = os.getcwd()
    w = WORKLOADS[name](int(seed), root)
    ready = time.monotonic()
    out = {"ready": ready, "load_s": w.load_s}
    if mode == "setup":
        out["kernel"] = kernel_seconds()
    try:
        if mode != "setup":
            w.warmup()
        if mode == "run":
            out.update(measure(w, float(seconds)))
        elif mode == "trace":
            spans_dir = os.path.join(root, ".perfbench_out")
            os.makedirs(spans_dir, exist_ok=True)
            out.update(trace(w, float(seconds),
                             "%s-%s-%d" % (name, seed, os.getpid()), spans_dir))
    finally:
        if hasattr(w, "close"):
            w.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

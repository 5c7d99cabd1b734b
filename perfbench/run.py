"""matchctl benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py                       # every workload, both runs
    python3 perfbench/run.py --workload sim-ensemble --seed 3 --seconds 20 --trace 0

With ``--workload`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics for ``--trace 0``, the per-layer metrics for ``--trace 1``.
Without it, every workload runs untraced and then traced twice with the
same seed (the determinism check), a table of every metric is printed and
the figures are written to .perfbench_out/summary.json.

Each workload runs in a fresh single-threaded process (BLAS and OpenMP
pinned to one thread) that imports the package from ./src.  Operations
are closed loop: the next starts when the previous one returns.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("sim-ensemble", "sample-audit", "transport-grid",
                  "cli-pipeline")
SETUP_PROBES = 7          # fresh interpreters timed for setup_s, after a warm one
WORKER_SLACK_S = 60        # a worker may overrun --seconds by this much
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = (("throughput_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p95_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    paths = [os.path.join(root, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def worker(root, mode, name, seed, seconds):
    """Run the worker; (spawn time, its JSON result).

    The worker gets its own process group, so a worker that overruns is
    killed together with any command process it started.
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, mode, name, str(seed), str(seconds)],
        cwd=root, env=child_env(root), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=seconds + WORKER_SLACK_S)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("%s worker for %s timed out" % (mode, name)) from exc
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s worker for %s exited %d: %s" % (
            mode, name, proc.returncode,
            stderr.decode(errors="replace")[-2000:]))
    return spawned, json.loads(lines[-1])


def run_workload(root, name, seed, seconds, trace) -> dict:
    if trace:
        _, out = worker(root, "trace", name, seed, seconds)
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in out["per_layer"].items()}
        correct = out["failed"] == 0 and out["deterministic"]
        return {"correct": correct, "attempted": out["attempted"],
                "failed": out["failed"], "metrics": metrics,
                "notes": out["notes"], "traced_reps": out["traced_reps"]}
    from calibrate import factor
    worker(root, "setup", name, seed, 0)       # fills caches; not timed
    raw_setup, setup = [], []
    for _ in range(SETUP_PROBES):
        # each probe times the reference kernel itself once its inputs are ready
        spawned, probe = worker(root, "setup", name, seed, 0)
        raw_setup.append(probe["ready"] - spawned)
        setup.append(raw_setup[-1] * factor(probe["kernel"]))
    _, out = worker(root, "run", name, seed, seconds)
    out["setup_s"] = statistics.median(setup)
    out["named"]["unscaled_setup_s"] = (statistics.median(raw_setup), "s")
    metrics = {k: {"value": out[k], "unit": u} for k, u in END_TO_END}
    named = dict(out["named"],
                 fail_ratio=(out["failed"] / out["attempted"], "ratio"))
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics, "named": named,
            "notes": out["notes"], "latency_n": out["latency_n"],
            "passes": out["passes"]}


def print_result(name, seed, trace, res) -> None:
    print("%s  seed %d  %s run: %d operations, %d failed"
          % (name, seed, "traced" if trace else "untraced",
             res["attempted"], res["failed"]))
    shown = res.get("named", {})
    for key, (value, unit) in shown.items():
        print("  %-44s %14.6g %s" % (key, value, unit))
    for key, m in res["metrics"].items():
        print("  %-44s %14.6g %s" % (key, m["value"], m["unit"]))
    if not trace:
        print("  (latency over %d operations in %d passes)"
              % (res["latency_n"], res["passes"]))
    for note in res["notes"]:
        print("  FAILED %s" % note)


def environment() -> dict:
    import platform
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy; b = numpy.show_config(mode='dicts')"
         "['Build Dependencies']['blas']; print(json.dumps([numpy.__version__,"
         " {k: b.get(k) for k in ('name', 'version', 'openblas configuration')}]))"],
        capture_output=True, env=child_env(os.getcwd()), check=True)
    numpy_version, blas = json.loads(probe.stdout)
    return {"machine": platform.machine(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "blas": blas, "child_env": THREAD_ENV}


def run_all(root, seed, seconds) -> int:
    summary = {"seed": seed, "seconds": seconds, "environment": environment(),
               "workloads": {}}
    ok = True
    for name in WORKLOAD_NAMES:
        plain = run_workload(root, name, seed, seconds, 0)
        print_result(name, seed, 0, plain)
        traced = [run_workload(root, name, seed, seconds, 1) for _ in (0, 1)]
        print_result(name, seed, 1, traced[0])
        counts = [{k: m["value"] for k, m in t["metrics"].items()
                   if m["unit"] == "count"} for t in traced]
        same = counts[0] == counts[1]
        print("  determinism: count metrics of two traced runs %s"
              % ("agree" if same else "DIFFER"))
        ok &= plain["correct"] and all(t["correct"] for t in traced) and same
        summary["workloads"][name] = {"untraced": plain, "traced": traced,
                                      "counts_repeat": same}
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print("environment: %s" % json.dumps(summary["environment"]))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.update(THREAD_ENV)     # before this process loads numpy
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "src", "matchctl", "cli.py"))
            and os.path.isdir(os.path.join(root, "configs"))):
        sys.stderr.write("run from the repository root: src/matchctl and "
                         "configs/ are missing under %s\n" % root)
        return 2
    try:
        if args.workload is None:
            return run_all(root, args.seed, args.seconds)
        res = run_workload(root, args.workload, args.seed, args.seconds,
                           args.trace)
    except BenchError as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 1
    print_result(args.workload, args.seed, args.trace, res)
    print(json.dumps({k: res[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The four benchmark workloads.

Constructing a workload is its set-up: import, ``load_config``, fixture and
target build, and input generation from the workload seed.  After that,
``pass_ops(p)`` gives the fixed list of operations of pass ``p``.  An
operation calls the program, times only that call, checks the output
against a bound tier-1 already asserts, and returns an ``OpResult``.

``inputs(rec)`` gives the objects the operations run on: the plain ones
for ``rec=None``, otherwise copies whose field objects and controller
record spans into ``rec``.  Checks always use the plain objects.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from matchctl import characteristics, matching, synthesis
from matchctl.config import load_config
from matchctl.geometry import State
from matchctl.systems import rigidity

clock = time.perf_counter
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")


@dataclass
class OpResult:
    kind: str
    seconds: float
    units: int           # work units counted by throughput_per_s (0: none)
    latency: bool        # counts toward the latency percentiles
    ok: bool
    note: str = ""
    start: float = 0.0         # perf_counter when the timed call began
    spans: str | None = None   # span file written by a traced child process
    kernels: list | None = None  # reference kernel times that child saw


def _configs(root, names):
    t0 = clock()
    cfgs = {n: load_config(os.path.join(root, "configs", n + ".yaml"))
            for n in names}
    return cfgs, clock() - t0


class SimEnsemble:
    """Short seeded closed-loop trajectories of configs/pendulum.yaml."""

    name = "sim-ensemble"
    in_children = False
    STEPS = 250                    # per trajectory, at the config's dt
    trace_passes = 4
    TRACK_BOUND = 1e-9             # tests/test_synthesis.py: plant vs target
    UNACTUATED_BOUND = 1e-9        # and the unactuated control row

    def __init__(self, seed: int, root: str):
        self.seed = seed
        cfgs, self.load_s = _configs(root, ["pendulum"])
        cfg = cfgs["pendulum"]
        self.run = cfg.run
        self.equilibrium = cfg.fixture.equilibrium
        self.system = cfg.fixture.system
        _, self.target = cfg.resolved_target()
        self.law = synthesis.matched_controller(self.system, self.target)
        self.horizon = self.STEPS * self.run.dt

    def inputs(self, rec=None):
        if rec is None:
            return SimpleNamespace(system=self.system, target=self.target,
                                   law=self.law)
        system, target = rec.system(self.system), rec.target(self.target)
        law = rec.wrap("synthesis.controller",
                       synthesis.matched_controller(system, target))
        return SimpleNamespace(system=system, target=target, law=law)

    def warmup(self) -> None:
        s0 = self._initial_state(-1)
        synthesis.simulate(self.system, s0, 5 * self.run.dt, self.run.dt,
                           controller=self.law)

    def _initial_state(self, i: int) -> State:
        """Equilibrium nudged by the config's perturbation, as cmd_simulate does."""
        n = self.system.n
        rng = np.random.default_rng([self.seed, i + 1])
        nudge = rng.standard_normal(2 * n)
        nudge *= self.run.perturbation / np.linalg.norm(nudge)
        return State(self.equilibrium + nudge[:n], nudge[n:])

    def pass_ops(self, p: int):
        return [("trajectory", lambda inp: self._trajectory(inp, p))]

    def _trajectory(self, inp, i: int) -> OpResult:
        s0 = self._initial_state(i)
        dt = self.run.dt
        t0 = clock()
        plant = synthesis.simulate(inp.system, s0, self.horizon, dt,
                                   controller=inp.law)
        free = synthesis.simulate(inp.target, s0, self.horizon, dt)
        audit = synthesis.lyapunov_audit(inp.target, plant)
        seconds = clock() - t0
        dev = float(np.max(np.abs(plant.states - free.states)))
        u0 = float(np.max(np.abs(plant.controls[:, 0])))
        ok = (dev <= self.TRACK_BOUND and u0 <= self.UNACTUATED_BOUND
              and np.isfinite(audit.max_defect))
        return OpResult("trajectory", seconds, 2 * self.STEPS, True, ok,
                        "" if ok else "deviation %.3e, |u0| %.3e" % (dev, u0),
                        start=t0)


class SampleAudit:
    """Seeded point audits on the four fixture configs; no integrator."""

    name = "sample-audit"
    in_children = False
    trace_passes = 2
    # Samples of each kind in one round.  The double pendulum takes about
    # 40% of the round's time.  Its rigidity points (the slowest kind) are
    # 3.4% of the samples and its verify points the next 4.6%, so the
    # round's 95th percentile falls inside one kind, not on a boundary.
    MIX = (("pendulum.verify", 16), ("seesaw.verify", 16),
           ("seesaw.rank", 16), ("rollercoaster.verify", 16),
           ("rollercoaster.rank", 16), ("double-pendulum.verify", 4),
           ("double-pendulum.rigidity", 3))

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.cfgs, self.load_s = _configs(
            root, ["pendulum", "seesaw", "rollercoaster", "double-pendulum"])
        self.plain = {n: c.fixture for n, c in self.cfgs.items()}

    def inputs(self, rec=None):
        if rec is None:
            return self.plain
        return {n: rec.bundle(b) for n, b in self.plain.items()}

    def warmup(self) -> None:
        for kind, op in self.pass_ops(-1)[:len(self.MIX)]:
            op(self.plain)

    def _points(self, rng, cfg, kind: str, count: int) -> np.ndarray:
        if kind.endswith(".rank"):
            center = (cfg.run.center if cfg.run.center is not None
                      else cfg.fixture.equilibrium)
            return center + rng.uniform(-cfg.run.radius, cfg.run.radius,
                                        size=(count, cfg.fixture.system.n))
        return cfg.fixture.system.domain.sample(rng, count)

    def pass_ops(self, p: int):
        rng = np.random.default_rng([self.seed, p + 1])
        columns = []
        for kind, count in self.MIX:
            cfg = self.cfgs[kind.split(".")[0]]
            points = self._points(rng, cfg, kind, count)
            vels = rng.standard_normal((count, cfg.fixture.system.n))
            columns.append([(kind, self._op(kind, x, v))
                            for x, v in zip(points, vels)])
        # interleave the kinds so every stretch of the round mixes them
        width = max(len(c) for c in columns)
        return [c[i] for i in range(width) for c in columns if i < len(c)]

    def _op(self, kind: str, x, v):
        fixture, what = kind.split(".")
        cfg = self.cfgs[fixture]
        tol = cfg.run.tolerance

        def verify(inp):
            b = inp[fixture]
            t0 = clock()
            worst = float(np.max(np.abs(
                matching.transport_residual(b.system, b.ratio, x))))
            if b.target is not None:
                worst = max(worst, float(np.max(np.abs(
                    matching.matching_residual(b.system, b.ratio, b.target,
                                               State(x, v))))))
            if b.overlap is not None:
                worst = max(worst, rigidity.basic_jet_residual(
                    b.system, x, b.ratio, b.overlap))
            seconds = clock() - t0
            return OpResult(kind, seconds, 1, True, worst <= tol,
                            "" if worst <= tol else "residual %.3e" % worst,
                            start=t0)

        def rank(inp):
            b = inp[fixture]
            center = (cfg.run.center if cfg.run.center is not None
                      else b.equilibrium)
            t0 = clock()
            verdict = matching.rank_condition(b.system, center, [x],
                                              radius=cfg.run.radius)
            seconds = clock() - t0
            # configs/seesaw.yaml centers the scan where the rank collapses
            ok = verdict.drop or fixture != "seesaw"
            return OpResult(kind, seconds, 1, True, ok,
                            "" if ok else "no rank drop at the center",
                            start=t0)

        def probe(inp):
            b = inp[fixture]
            t0 = clock()
            rep = rigidity.rigidity_probe(b.system, [x])[0]
            seconds = clock() - t0
            ok = bool(rep.warnings) or rep.dimension == cfg.run.expect_dimension
            return OpResult(kind, seconds, 1, True, ok,
                            "" if ok else "jet dimension %d" % rep.dimension,
                            start=t0)

        return {"verify": verify, "rank": rank, "rigidity": probe}[what]


class TransportGrid:
    """Characteristic transport on the pendulum default set: build, audit, query.

    configs/pendulum.yaml holds exactly PendulumParams() defaults.
    """

    name = "transport-grid"
    in_children = False
    trace_passes = 1
    TIMES = np.linspace(-1.0, 1.0, 201)
    SEED_AXIS = np.linspace(-0.5, 0.5, 5)      # 5 x 5 lattice, spacing 0.25
    DT = 2e-3                                  # criterion 08
    NODE_QUERIES, OFF_QUERIES = 50, 150
    NODE_BOUND = 1e-5              # criterion 08: stored nodes vs closed form
    ROW_IDENTITY_TOL = 1e-7        # criterion 08
    AT_NODE_BOUND = 1e-9           # tests/test_characteristics.py
    # off-node interpolation error vs the closed form.  The largest seen on
    # 40 seeds x 150 queries when the benchmark was defined was 3.126e-2,
    # in the potential: multilinear interpolation of the quadratic well at
    # lattice spacing 0.25 alone is off by up to 2 * 0.25**2 / 4 = 3.125e-2.
    OFF_NODE_BOUND = 3.2e-2

    def __init__(self, seed: int, root: str):
        self.seed = seed
        cfgs, self.load_s = _configs(root, ["pendulum"])
        b = cfgs["pendulum"].fixture
        self.system, self.ratio, self.target = b.system, b.ratio, b.target
        # A query costs about its flow time from the seed plane, so flow
        # times are stratified: every seed draws the same spread of costs.
        rng = np.random.default_rng([seed, 1])
        j = self._stratified(rng, self.NODE_QUERIES, 0, self.TIMES.size)
        nodes = [(int(k), int(i)) for k, i in zip(
            rng.integers(0, self.SEED_AXIS.size ** 2, self.NODE_QUERIES),
            rng.permutation(j.astype(int)))]
        t = rng.permutation(self._stratified(rng, self.OFF_QUERIES,
                                             -0.9, 0.9))
        off = [characteristics.flow_map(self.ratio, np.array([0.0, u, v]),
                                        ti, dt=1e-2)
               for (u, v), ti in zip(
                   rng.uniform(-0.45, 0.45, size=(self.OFF_QUERIES, 2)), t)]
        # a fixed seeded order that mixes node and off-node queries
        queries = [("query.node", n) for n in nodes] + \
                  [("query.off", q) for q in off]
        order = rng.permutation(len(queries))
        self.queries = [queries[i] for i in order]

    @staticmethod
    def _stratified(rng, count, lo, hi):
        """One uniform draw in each of `count` equal slices of [lo, hi)."""
        return lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) \
            / count

    def inputs(self, rec=None):
        if rec is None:
            return SimpleNamespace(system=self.system, ratio=self.ratio,
                                   target=self.target)
        return SimpleNamespace(system=rec.system(self.system),
                               ratio=rec.field("fields.ratio", self.ratio),
                               target=rec.target(self.target))

    def warmup(self) -> None:
        pass

    def pass_ops(self, p: int):
        built = {}
        ops = [("build", lambda inp: self._build(inp, built)),
               ("row_identity", lambda inp: self._row_identity(inp, built))]
        for kind, q in self.queries:
            ops.append((kind, lambda inp, kind=kind, q=q:
                        self._query(kind, q, built)))
        return ops

    def _build(self, inp, built) -> OpResult:
        target = inp.target
        seeds = [(1, self.SEED_AXIS), (2, self.SEED_AXIS)]
        t0 = clock()
        grid = characteristics.transport_target_data(
            inp.system, inp.ratio,
            initial_block=lambda x: target.metric.value(x)[1:, 1:],
            initial_potential=lambda x: float(target.potential(x)),
            anchor=np.zeros(3), times=self.TIMES, seed_values=seeds,
            plane_axis=0, dt=self.DT)
        seconds = clock() - t0
        built["grid"] = grid
        err = 0.0
        for k in range(grid.seed_count):
            for j in range(grid.times.size):
                x = grid.states[k, j]
                err = max(err, float(np.max(np.abs(
                    grid.metric[k, j] - self.target.metric.value(x)))),
                    abs(grid.potential[k, j] - float(self.target.potential(x))))
        ok = grid.warnings == () and err <= self.NODE_BOUND
        return OpResult("build", seconds, grid.seed_count * grid.times.size,
                        False, ok, "" if ok else "node error %.3e, warnings %r"
                        % (err, grid.warnings), start=t0)

    def _row_identity(self, inp, built) -> OpResult:
        t0 = clock()
        report = characteristics.row_identity_check(
            inp.system, inp.ratio, built["grid"], tol=self.ROW_IDENTITY_TOL)
        seconds = clock() - t0
        return OpResult("row_identity", seconds, 0, False, report.passed,
                        "" if report.passed else str(report), start=t0)

    def _query(self, kind, q, built) -> OpResult:
        grid = built["grid"]
        if kind == "query.node":
            k, j = q
            x = grid.states[k, j]
            want_g, want_v = grid.metric[k, j], grid.potential[k, j]
            bound = self.AT_NODE_BOUND
        else:
            x = q
            want_g = self.target.metric.value(x)
            want_v = float(self.target.potential(x))
            bound = self.OFF_NODE_BOUND
        t0 = clock()
        gh, vh = grid.interpolate(x)
        seconds = clock() - t0
        err = max(float(np.max(np.abs(gh - want_g))), abs(vh - want_v))
        return OpResult(kind, seconds, 0, True, err <= bound,
                        "" if err <= bound else "error %.3e" % err, start=t0)


class CliPipeline:
    """Each shipped config through the commands its header lists, one
    subprocess at a time, all with --seed from the workload seed."""

    name = "cli-pipeline"
    in_children = True             # operations calibrate in their own process
    trace_passes = 1
    COMMANDS = (("verify", "pendulum"), ("verify", "seesaw"),
                ("verify", "rollercoaster"), ("verify", "double-pendulum"),
                ("synthesize", "pendulum-upright"), ("simulate", "pendulum"),
                ("rank-scan", "seesaw"), ("rank-scan", "rollercoaster"),
                ("rigidity", "double-pendulum"))

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        import matchctl.cli  # noqa: F401  (what every command imports)
        _, self.load_s = _configs(root, sorted({c for _, c in self.COMMANDS}))
        self.out_root = os.path.join(root, ".perfbench_out",
                                     "cli-%d" % os.getpid())
        os.makedirs(self.out_root, exist_ok=True)
        self.first: dict = {}          # pass-0 artifacts, the byte-identity reference
        self.artifact_bytes = 0
        self.import_s: list = []

    def inputs(self, rec=None):
        return rec

    def warmup(self) -> None:
        pass

    def close(self) -> None:
        shutil.rmtree(self.out_root, ignore_errors=True)

    def pass_ops(self, p: int):
        return [("%s.%s" % (cmd, cfg),
                 lambda rec, cmd=cmd, cfg=cfg: self._command(rec, p, cmd, cfg))
                for cmd, cfg in self.COMMANDS]

    def _command(self, rec, p, cmd, cfg) -> OpResult:
        kind = "%s.%s" % (cmd, cfg)
        pass_dir = os.path.join(self.out_root, "pass-%d" % p)
        os.makedirs(pass_dir, exist_ok=True)
        out = os.path.join(pass_dir, kind)
        result = out + ".json"
        spans = "-" if rec is None else os.path.join(
            self.root, ".perfbench_out", "spans-cli-pipeline-%s.npz" % kind)
        argv = [sys.executable, CHILD, result, spans,
                "-" if rec is None else rec.run_id,
                cmd, "--config", os.path.join("configs", cfg + ".yaml"),
                "--seed", str(self.seed), "--out", out]
        t0 = clock()
        done = subprocess.run(argv, cwd=self.root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        seconds = clock() - t0
        files = {}
        if os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    files[name] = fh.read()
            shutil.rmtree(out)
        note, kernels = "", None
        if os.path.exists(result):
            with open(result, encoding="utf-8") as fh:
                info = json.load(fh)
            os.remove(result)
            seconds -= info["calibration_s"]
            kernels = info["kernels"]
            self.import_s.append(info["import_s"])
        if done.returncode != 0:
            note = "exit %d: %s" % (done.returncode,
                                    done.stderr.decode(errors="replace")[-200:])
        elif kind not in self.first:
            self.first[kind] = files
            self.artifact_bytes += sum(len(b) for b in files.values())
        elif files != self.first[kind]:
            note = "artifacts differ from the first pass"
        return OpResult(kind, seconds, 1, True, not note, note, t0,
                        None if rec is None else spans, kernels)


WORKLOADS = {w.name: w for w in (SimEnsemble, SampleAudit, TransportGrid,
                                 CliPipeline)}

"""The benchmark's tracing hooks still find what they patch in the package.

perfbench/spans.py looks functions up by name in the modules that call
them and wraps the field objects of each fixture bundle.  A renamed or
removed hook should fail here rather than in a traced benchmark run.
"""
import importlib.util
import os

import numpy as np
import pytest

from matchctl import characteristics, matching, synthesis
from matchctl.config import load_config
from matchctl.geometry import State
from matchctl.systems import rigidity

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = sorted(f for f in os.listdir(os.path.join(ROOT, "configs"))
                 if f.endswith(".yaml"))


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


def test_every_namespace_patch_target_exists():
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in SPANS.NAMESPACE_PATCHES
               if attr not in owner.__dict__]
    assert not missing


@pytest.mark.parametrize("name", CONFIGS)
def test_traced_bundle_runs_a_transport_residual(name):
    cfg = load_config(os.path.join(ROOT, "configs", name))
    plain = cfg.fixture
    rec = SPANS.Recorder("hooks")
    traced = rec.bundle(plain)
    x = plain.system.domain.center
    rec.install()
    try:
        res = matching.transport_residual(traced.system, traced.ratio, x)
    finally:
        rec.uninstall()
    assert np.array_equal(
        res, matching.transport_residual(plain.system, plain.ratio, x))
    assert np.max(np.abs(res)) <= cfg.run.tolerance
    called = {rec.names[i] for i in rec.name_id}
    assert {"matching.transport_residual", "geometry.christoffel_first",
            "fields.plant.metric.value", "fields.plant.metric.derivative",
            "fields.ratio.value", "fields.ratio.derivative"} <= called


def test_traced_closed_loop_matches_the_plain_run():
    # built as the sim-ensemble workload builds its traced inputs
    cfg = load_config(os.path.join(ROOT, "configs", "pendulum.yaml"))
    plant = cfg.fixture.system
    _, target = cfg.resolved_target()
    rec = SPANS.Recorder("hooks")
    t_plant, t_target = rec.system(plant), rec.target(target)
    law = rec.wrap("synthesis.controller",
                   synthesis.matched_controller(t_plant, t_target))
    s0 = State(cfg.fixture.equilibrium + 0.01, np.full(plant.n, 0.02))
    k, dt = 25, cfg.run.dt
    rec.install()
    try:
        traced = synthesis.simulate(t_plant, s0, k * dt, dt, controller=law)
    finally:
        rec.uninstall()
    plain = synthesis.simulate(plant, s0, k * dt, dt,
                               controller=synthesis.matched_controller(
                                   plant, target))
    assert np.array_equal(traced.states, plain.states)
    assert np.array_equal(traced.controls, plain.controls)
    calls = np.bincount(np.frombuffer(rec.name_id, dtype=np.int32),
                        minlength=len(rec.names))
    count = dict(zip(rec.names, calls))
    for name in ("fields.plant.metric.value", "fields.plant.metric.derivative",
                 "fields.plant.potential.gradient",
                 "fields.target.metric.value", "synthesis.controller"):
        assert count[name] == 4 * k + 1, name

    # the workload's other half: the target alone and the energy audit
    rec.install()
    try:
        free = synthesis.simulate(t_target, s0, k * dt, dt)
        audit = synthesis.lyapunov_audit(t_target, traced)
    finally:
        rec.uninstall()
    assert np.array_equal(free.states,
                          synthesis.simulate(target, s0, k * dt, dt).states)
    plain_audit = synthesis.lyapunov_audit(target, plain)
    for part in ("energies", "powers", "defects"):
        assert np.array_equal(getattr(audit, part),
                              getattr(plain_audit, part)), part
    calls = np.bincount(np.frombuffer(rec.name_id, dtype=np.int32),
                        minlength=len(rec.names))
    count = dict(zip(rec.names, calls))
    # every target metric evaluation passes the traced metric_at: the
    # closed loop's 4k + 1, the free run's 4k stages and one per audit node
    assert count["targets.metric_at"] == (4 * k + 1) + 4 * k + (k + 1)


def test_traced_transport_matches_the_plain_build():
    # built as the transport-grid workload builds its traced inputs
    cfg = load_config(os.path.join(ROOT, "configs", "pendulum.yaml"))
    plain = cfg.fixture
    rec = SPANS.Recorder("hooks")
    system, ratio = rec.system(plain.system), rec.field("fields.ratio",
                                                         plain.ratio)
    target = rec.target(plain.target)
    vals = np.linspace(-0.5, 0.5, 3)

    def build(system, ratio, target):
        return characteristics.transport_target_data(
            system, ratio,
            initial_block=lambda x: target.metric.value(x)[1:, 1:],
            initial_potential=lambda x: float(target.potential(x)),
            anchor=np.zeros(3), times=np.linspace(-0.2, 0.2, 21),
            seed_values=[(1, vals), (2, vals)], plane_axis=0, dt=2e-3)

    rec.install()
    try:
        traced = build(system, ratio, target)
        report = characteristics.row_identity_check(system, ratio, traced,
                                                    tol=1e-7)
    finally:
        rec.uninstall()
    reference = build(plain.system, plain.ratio, plain.target)
    for name in ("states", "metric", "potential", "residual_metric",
                 "residual_potential", "symmetry_defect", "warnings"):
        assert np.array_equal(getattr(traced, name),
                              getattr(reference, name)), name
    assert report.passed
    called = {rec.names[i] for i in rec.name_id}
    assert {"characteristics.transport_target_data",
            "characteristics.row_identity_check",
            "characteristics.complete_metric_rows", "fields.ratio.value",
            "fields.ratio.derivative", "fields.plant.metric.derivative",
            "fields.plant.potential.gradient"} <= called


def test_traced_queries_match_the_plain_walk():
    # inputs built as the transport-grid workload builds its traced inputs
    cfg = load_config(os.path.join(ROOT, "configs", "pendulum.yaml"))
    plain = cfg.fixture
    rec = SPANS.Recorder("hooks")
    traced = (rec.system(plain.system), rec.field("fields.ratio", plain.ratio),
              rec.target(plain.target))
    vals = np.linspace(-0.5, 0.5, 3)

    def build(system, ratio, target):
        return characteristics.transport_target_data(
            system, ratio,
            initial_block=lambda x: target.metric.value(x)[1:, 1:],
            initial_potential=lambda x: float(target.potential(x)),
            anchor=np.zeros(3), times=np.linspace(-0.2, 0.2, 21),
            seed_values=[(1, vals), (2, vals)], plane_axis=0, dt=2e-3)

    reference = build(plain.system, plain.ratio, plain.target)
    queries = [reference.states[k, j] for k, j in ((0, 0), (4, 7), (8, 20))]
    queries += [characteristics.flow_map(plain.ratio, np.array([0.0, u, v]), t)
                for u, v, t in ((0.3, -0.1, 0.13), (-0.4, 0.2, -0.17),
                                (0.05, 0.45, 0.021))]
    want = [reference.interpolate(q) for q in queries]
    rec.install()
    try:
        grid = build(*traced)
        got = [grid.interpolate(q) for q in queries]
    finally:
        rec.uninstall()
    for (gh, vh), (want_g, want_v) in zip(got, want):
        assert np.array_equal(gh, want_g) and vh == want_v
    # the walk evaluates nothing but the ratio's value
    spans = rec.arrays()
    walks = {i for i, nid in enumerate(spans["name_id"])
             if rec.names[nid] == "characteristics.interpolate"}
    inner = {rec.names[nid] for nid, parent in zip(spans["name_id"],
                                                   spans["parent"])
             if parent in walks}
    assert len(walks) == len(queries)
    assert inner == {"fields.ratio.value"}


def test_traced_sample_audit_inputs_match_the_plain_points():
    # built as the sample-audit workload builds its traced inputs: one
    # traced bundle per audited config, the pendulum's with a traced target
    cfgs = {name: load_config(os.path.join(ROOT, "configs", name + ".yaml"))
            for name in ("pendulum", "seesaw", "rollercoaster",
                         "double-pendulum")}
    plain = {name: cfg.fixture for name, cfg in cfgs.items()}
    rec = SPANS.Recorder("hooks")
    traced = {name: rec.bundle(b) for name, b in plain.items()}
    rng = np.random.default_rng(3)

    def point(name):
        return plain[name].system.domain.sample(rng, 1)[0]

    def rank_point(name):
        cfg = cfgs[name]
        center = (cfg.run.center if cfg.run.center is not None
                  else cfg.fixture.equilibrium)
        return center, center + rng.uniform(-cfg.run.radius, cfg.run.radius,
                                            size=cfg.fixture.system.n)

    x = point("pendulum")
    s = State(x, rng.standard_normal(x.size))
    y = point("double-pendulum")
    ranks = {name: rank_point(name) for name in ("seesaw", "rollercoaster")}
    calls = {
        "matching.matching_residual": lambda b: matching.matching_residual(
            b["pendulum"].system, b["pendulum"].ratio, b["pendulum"].target,
            s),
        "rigidity.basic_jet_residual": lambda b: rigidity.basic_jet_residual(
            b["double-pendulum"].system, y, b["double-pendulum"].ratio,
            b["double-pendulum"].overlap),
        "matching.rank_condition": lambda b: [
            matching.rank_condition(b[name].system, center, [z],
                                    radius=cfgs[name].run.radius)
            for name, (center, z) in ranks.items()],
        "rigidity.rigidity_probe": lambda b: rigidity.rigidity_probe(
            b["double-pendulum"].system, [y]),
    }
    for name, call in calls.items():
        want = call(plain)
        rec.install()
        try:
            got = call(traced)
        finally:
            rec.uninstall()
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), name
        else:
            assert got == want, name
        assert name in {rec.names[i] for i in rec.name_id}, name

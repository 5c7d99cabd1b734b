"""Per-layer metrics of a traced run, by the names BENCHMARK.json lists.

Every workload reports every metric; a layer the workload never calls
reads 0.  Counts are normalized by work that the seed fixes (RK4 steps,
samples, grid nodes, queries), so they repeat exactly from run to run.
``*_self_s`` is a layer's self time (its spans minus their child spans)
per traced pass; ``*_us`` and ``*_ms`` are medians of one call,
children included.  No layer has a queue, so no waiting time is reported.
"""
import math
import statistics

import numpy as np

from spans import LAYERS

COMMAND_KINDS = ("verify.pendulum", "verify.seesaw", "verify.rollercoaster",
                 "verify.double-pendulum", "synthesize.pendulum-upright",
                 "simulate.pendulum", "rank-scan.seesaw",
                 "rank-scan.rollercoaster", "rigidity.double-pendulum")


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _median(values, scale=1.0) -> float:
    return float(np.median(values)) * scale if len(values) else 0.0


def _pct(values, q, scale=1.0) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def layer_metrics(w, S, res, ctx) -> dict:
    """name -> (value, unit) from Summary S of the traced operations res."""
    steps = sum(r.units for r in res if r.kind == "trajectory") // 2
    samples = len(res) if w.name == "sample-audit" else 0
    nodes = sum(r.units for r in res if r.kind == "build")
    query_kinds = ("query.node", "query.off")
    queries = sum(1 for r in res if r.kind in query_kinds)
    passes = ctx["passes"]
    op_seconds = math.fsum(r.seconds for r in res if r.ok)

    def per_step(*names):
        return (_ratio(sum(S.calls(n) for n in names), steps), "count")

    def self_per_pass(prefix):
        return (_ratio(S.self_time(prefix), passes), "s")

    m = {
        "fields.metric_value_calls_per_step": per_step(
            "fields.plant.metric.value", "fields.target.metric.value"),
        "fields.metric_deriv_calls_per_step": per_step(
            "fields.plant.metric.derivative",
            "fields.target.metric.derivative"),
        "fields.potential_grad_calls_per_step": per_step(
            "fields.plant.potential.gradient",
            "fields.target.potential.gradient"),
        "fields.self_s": self_per_pass("fields."),
        "fields.ratio_evals_per_node": (_ratio(
            S.calls("fields.ratio.", ("build",)), nodes), "count"),
        "fields.ratio_evals_per_query": (_ratio(
            S.calls("fields.ratio.", query_kinds), queries), "count"),
        "geometry.acceleration_calls_per_step": per_step(
            "geometry.acceleration"),
        "geometry.acceleration_self_s": self_per_pass("geometry.acceleration"),
        "geometry.christoffel_first_calls_per_step": per_step(
            "geometry.christoffel_first"),
        "targets.metric_inv_calls_per_step": per_step("targets.metric_inv"),
        "synthesis.control_law_calls_per_step": per_step(
            "synthesis.control_law"),
        "synthesis.control_law_us": (_median(
            S.inclusive("synthesis.control_law"), 1e6), "us"),
        "synthesis.control_law_self_s": self_per_pass("synthesis.control_law"),
        "synthesis.target_acceleration_self_s": self_per_pass(
            "synthesis.target_acceleration"),
        "synthesis.simulate_self_s": self_per_pass("synthesis.simulate"),
        "synthesis.lyapunov_audit_s": (_ratio(float(np.sum(S.inclusive(
            "synthesis.lyapunov_audit"))), passes), "s"),
        "synthesis.trajectory_csv_s": (_median(
            S.inclusive("synthesis.trajectory_csv")), "s"),
        "matching.transport_residual_us": (_median(
            S.inclusive("matching.transport_residual"), 1e6), "us"),
        "matching.matching_residual_us": (_median(
            S.inclusive("matching.matching_residual"), 1e6), "us"),
        "matching.assemble_compatibility_us": (_median(
            S.inclusive("matching.assemble_compatibility"), 1e6), "us"),
        "matching.svd_calls_per_sample": (_ratio(
            S.calls("numpy.svd"), samples), "count"),
        "rigidity.jet_dimension_ms": (_median(
            S.inclusive("rigidity.jet_dimension"), 1e3), "ms"),
        "rigidity.basic_jet_residual_us": (_median(
            S.inclusive("rigidity.basic_jet_residual"), 1e6), "us"),
        "rigidity.transport_coefficients_calls_per_sample": (_ratio(
            S.calls("rigidity.transport_coefficients"), samples), "count"),
        "rigidity.share": (_ratio(S.top_time("rigidity."), op_seconds),
                           "ratio"),
        "characteristics.build_s": (_median(
            S.inclusive("characteristics.transport_target_data")), "s"),
        "characteristics.row_identity_s": (_median(
            S.inclusive("characteristics.row_identity_check")), "s"),
        "characteristics.query_p99_ms": (_pct(
            S.inclusive("characteristics.interpolate"), 99, 1e3), "ms"),
        "config.load_s": (ctx["load_s"], "s"),
        "cli.import_s": (_median(ctx["import_s"]), "s"),
        "cli.artifact_bytes": (ctx["artifact_bytes"], "bytes"),
    }
    for kind in COMMAND_KINDS:
        seconds = [r.seconds for rep in ctx["untraced"] for r in rep
                   if r.kind == kind and r.ok]
        m["cli.%s_s" % kind] = (
            statistics.median(seconds) if seconds else 0.0, "s")
    for layer in LAYERS:
        m["%s.failures" % layer] = (ctx["failures"][layer], "count")
    m["trace.overhead"] = (ctx["overhead"], "ratio")
    m["trace.spans_per_pass"] = (_ratio(
        sum(S.count.values()), passes), "count")
    return m

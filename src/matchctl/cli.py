"""Command-line front end.

Grammar: matchctl <command> --config <path> [--out <dir>] [--seed <u64>],
one parser for every command.  Exit codes are a stable contract: 0
success, 1 a verification or simulation failed (or another
MatchctlError), 2 the configuration is invalid.  verify and rigidity
sample the plant's domain, which every fixture declares.  All randomness
is seeded and all report formatting is fixed-width decimal, so identical
configs and seeds give byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import (COMMANDS, RunConfig, load_config, override_key,
                     parse_config, with_overrides)
from .errors import BlowUpError, ConfigError, MatchctlError
from .fields import Field
from .geometry import State, energy
from .matching import matching_residual, rank_condition, transport_residual
from .synthesis import (linearize_closed_loop, lyapunov_audit,
                        matched_controller, simulate, trajectory_csv)
from .systems.rigidity import basic_jet_residual, rigidity_probe


def _out_dir(cfg: RunConfig) -> str:
    """The output directory, made if missing; ConfigError if it cannot be."""
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("output directory %s: %s"
                          % (cfg.output_dir, exc.strerror)) from exc
    return cfg.output_dir


def _emit(cfg: RunConfig, name: str, text: str) -> None:
    sys.stdout.write(text)
    if cfg.output_dir:
        with open(os.path.join(_out_dir(cfg), name), "w",
                  encoding="utf-8") as fh:
            fh.write(text)


def _offset_ratio(ratio: Field, offset: float) -> Field:
    """Corruption probe: shift one off-leading entry of the first row."""
    def val(x):
        r = ratio.value(x).copy()
        r[0, 1] += offset
        return r
    return Field(val, ratio.derivative)


def cmd_verify(cfg: RunConfig) -> int:
    run = cfg.run
    rng = np.random.default_rng(run.require_seed("verify"))
    bundle = cfg.fixture
    ratio = bundle.ratio
    if run.ratio_offset != 0.0:
        ratio = _offset_ratio(ratio, run.ratio_offset)
    points = bundle.system.domain.sample(rng, run.samples)

    # maxima below propagate NaN, so a non-finite residual fails the verdict
    t_res = [np.abs(transport_residual(bundle.system, ratio, x)) for x in points]
    i = int(np.argmax([r.max() for r in t_res]))
    where_t = np.unravel_index(int(np.argmax(t_res[i])), t_res[i].shape)
    worst_t, at_t = float(t_res[i][where_t]), points[i]

    lines = ["fixture: %s" % bundle.name,
             "samples: %d  tolerance: %.3e" % (run.samples, run.tolerance),
             "transport residual: max %.6e at component (k=%d, a=%d, b=%d)"
             % (worst_t, where_t[0], where_t[1], where_t[2]),
             "  worst point: [%s]" % ", ".join("%.6f" % v for v in at_t)]
    worst = worst_t

    if bundle.target is not None:
        worst_m = float(np.max([
            np.max(np.abs(matching_residual(
                bundle.system, ratio, bundle.target,
                State(x, rng.standard_normal(bundle.system.n)))))
            for x in points]))
        lines.append("matching residual: max %.6e over unactuated axes"
                     % worst_m)
        worst = np.maximum(worst, worst_m)

    if bundle.overlap is not None:
        worst_j = float(np.max([basic_jet_residual(bundle.system, x, ratio,
                                                   bundle.overlap)
                                for x in points]))
        lines.append("jet residual: max %.6e" % worst_j)
        worst = np.maximum(worst, worst_j)

    ok = worst <= run.tolerance
    lines.append("verdict: %s (worst %.6e vs tolerance %.3e)"
                 % ("pass" if ok else "FAIL", worst, run.tolerance))
    _emit(cfg, "verify-report.txt", "\n".join(lines) + "\n")
    return 0 if ok else 1


def cmd_synthesize(cfg: RunConfig) -> int:
    ratio, target = cfg.resolved_target()
    bundle = cfg.fixture
    x_star = (cfg.run.center if cfg.run.center is not None
              else bundle.equilibrium)
    lin = linearize_closed_loop(bundle.system, target, x_star)
    lines = ["fixture: %s" % bundle.name,
             "rest point: [%s]" % ", ".join("%.6f" % v for v in x_star),
             "closed-loop spectrum:"]
    for ev in lin.spectrum:
        lines.append("  %+.9e %+.9ej" % (ev.real, ev.imag))
    lines.append("stable: %s" % ("yes" if lin.stable else "NO"))
    _emit(cfg, "synthesize-report.txt", "\n".join(lines) + "\n")
    return 0 if lin.stable else 1


def cmd_simulate(cfg: RunConfig) -> int:
    run = cfg.run
    bundle = cfg.fixture
    ratio, target = cfg.resolved_target()
    n = bundle.system.n
    x0 = (run.initial_position if run.initial_position is not None
          else bundle.equilibrium.copy())
    v0 = (run.initial_velocity if run.initial_velocity is not None
          else np.zeros(n))
    if run.perturbation > 0.0:
        rng = np.random.default_rng(run.require_seed("simulate"))
        nudge = rng.standard_normal(2 * n)
        nudge *= run.perturbation / np.linalg.norm(nudge)
        x0 = x0 + nudge[:n]
        v0 = v0 + nudge[n:]
    s0 = State(x0, v0)

    controller = matched_controller(bundle.system, target)
    try:
        plant = simulate(bundle.system, s0, run.horizon, run.dt,
                         controller=controller)
        reference = simulate(target, s0, run.horizon, run.dt)
    except BlowUpError as exc:
        last = np.concatenate((exc.state.x, exc.state.xdot))
        sys.stdout.write("blow-up at t=%.6g, last state [%s]\n"
                         % (exc.t, ", ".join("%.6e" % v for v in last)))
        return 1

    deviation = float(np.max(np.abs(plant.states - reference.states)))
    audit = lyapunov_audit(target, plant)
    e0, e1 = audit.energies[0], audit.energies[-1]

    if cfg.output_dir:
        out = _out_dir(cfg)
        trajectory_csv(plant, audit.energies, os.path.join(out, "plant.csv"))
        trajectory_csv(reference, [energy(target, reference.state_at(i))
                                   for i in range(reference.times.size)],
                       os.path.join(out, "target.csv"))
    lines = ["fixture: %s" % bundle.name,
             "dt: %.3e  horizon: %.3f  nodes: %d"
             % (run.dt, run.horizon, plant.times.size),
             "max |plant - target| deviation: %.6e" % deviation,
             "shaped energy: start %.9e  end %.9e" % (e0, e1),
             "energy identity defect: max %.6e" % audit.max_defect,
             "largest one-step energy rise: %.6e (non-increasing to 1e-6: %s)"
             % (audit.monotone_drop,
                "yes" if audit.monotone_drop <= 1e-6 else "NO")]
    _emit(cfg, "simulate-report.txt", "\n".join(lines) + "\n")
    return 0


def cmd_rank_scan(cfg: RunConfig) -> int:
    run = cfg.run
    rng = np.random.default_rng(run.require_seed("rank-scan"))
    bundle = cfg.fixture
    center = (run.center if run.center is not None else bundle.equilibrium)
    points = center + rng.uniform(-run.radius, run.radius,
                                  size=(run.samples, bundle.system.n))
    verdict = rank_condition(bundle.system, center, list(points),
                             radius=run.radius)
    lines = ["fixture: %s" % bundle.name,
             "center: [%s]" % ", ".join("%.6f" % v for v in center),
             "samples: %d within radius %.3f" % (run.samples, run.radius),
             "rank at center: %d" % verdict.point_rank,
             "max rank nearby: %d" % verdict.sample_max_rank,
             "rank profile: %s" % np.bincount(
                 np.asarray(verdict.sample_ranks)).tolist(),
             "drop at center: %s" % ("yes" if verdict.drop else "no")]
    _emit(cfg, "rank-scan-report.txt", "\n".join(lines) + "\n")
    return 0


def cmd_rigidity(cfg: RunConfig) -> int:
    run = cfg.run
    bundle = cfg.fixture
    if bundle.overlap is None:
        raise ConfigError("rigidity runs on the double-pendulum fixture "
                          "(it needs the constant-ratio family)")
    rng = np.random.default_rng(run.require_seed("rigidity"))
    points = bundle.system.domain.sample(rng, run.samples)
    reports = rigidity_probe(bundle.system, points)
    worst_res = float(np.max([basic_jet_residual(bundle.system, x, bundle.ratio,
                                                 bundle.overlap)
                              for x in points]))
    lines = ["fixture: %s" % bundle.name,
             "points: %d  basic-family jet residual: max %.6e"
             % (len(points), worst_res)]
    bad = 0
    for x, rep in zip(points, reports):
        flag = ""
        if run.expect_dimension is not None and not rep.warnings:
            if rep.dimension != run.expect_dimension:
                bad += 1
                flag = "  <-- expected %d" % run.expect_dimension
        lines.append("  [%s] %s%s"
                     % (", ".join("%.4f" % v for v in x), rep, flag))
    if run.expect_dimension is not None:
        lines.append("off-locus mismatches: %d" % bad)
    _emit(cfg, "rigidity-report.txt", "\n".join(lines) + "\n")
    return 1 if bad or not np.isfinite(worst_res) else 0


def cmd_sweep(cfg: RunConfig, config_path: str) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep command needs a sweep block in the config")
    worst = 0
    summary = ["sweep over %s (%d values) running '%s'"
               % (cfg.sweep.key, len(cfg.sweep.values), cfg.sweep.command)]
    for i, value in enumerate(cfg.sweep.values):
        doc = override_key(cfg.raw, cfg.sweep.key, value)
        doc.pop("sweep", None)
        sub = parse_config(doc, source="%s[%s=%r]"
                           % (config_path, cfg.sweep.key, value))
        sub_out = None
        if cfg.output_dir:
            sub_out = os.path.join(cfg.output_dir, "sweep-%02d" % i)
        # a swept run.seed wins over the document's seed and --seed
        seed = None if cfg.sweep.key == "run.seed" else cfg.run.seed
        sub = with_overrides(sub, seed=seed, out=sub_out)
        code = _DISPATCH[cfg.sweep.command](sub)
        summary.append("  %s = %r -> exit %d" % (cfg.sweep.key, value, code))
        worst = max(worst, code)
    summary.append("sweep exit: %d" % worst)
    _emit(cfg, "sweep-report.txt", "\n".join(summary) + "\n")
    return worst


_DISPATCH = {
    "verify": cmd_verify,
    "synthesize": cmd_synthesize,
    "simulate": cmd_simulate,
    "rank-scan": cmd_rank_scan,
    "rigidity": cmd_rigidity,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="matchctl",
        description="Assemble and check matching control laws for "
                    "underactuated plants.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="YAML run document")
    parser.add_argument("--out", help="artifact directory")
    parser.add_argument("--seed", type=int, help="overrides run.seed")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = with_overrides(cfg, seed=args.seed, out=args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.config)
        return _DISPATCH[args.command](cfg)
    except ConfigError as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 2
    except MatchctlError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""End-to-end runs of the command-line front end through main(argv)."""
import ast
import os

import numpy as np
import pytest
import yaml

from matchctl import cli, synthesis
from matchctl.cli import main
from matchctl.geometry import energy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")

PENDULUM = {
    "fixture": {"name": "pendulum", "params": {"a": 0.5, "b": 0.5}},
    "run": {"seed": 11, "samples": 25},
}

UPRIGHT = {
    "fixture": {"name": "pendulum",
                "params": {"a": 1.0, "b": 0.0,
                           "tilt_ratio": -1.0, "sway_ratio": -2.0}},
    "run": {"seed": 42, "samples": 20},
}

DOUBLE = {
    "fixture": {"name": "double-pendulum",
                "params": {"masses": [[2.0, 1.0, 0.5],
                                      [1.0, 2.0, 1.4],
                                      [0.5, 1.4, 3.0]],
                           "leading_overlap": 2.0}},
    "run": {"seed": 99, "samples": 6, "expect_dimension": 1},
}


def _cfg(tmp_path, doc, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_verify_passes_on_the_shipped_solution(tmp_path, capsys):
    assert main(["verify", "--config", _cfg(tmp_path, PENDULUM)]) == 0
    out = capsys.readouterr().out
    assert "transport residual" in out
    assert "matching residual" in out
    assert "verdict: pass" in out


def test_verify_flags_a_corrupted_ratio(tmp_path, capsys):
    doc = dict(PENDULUM)
    doc["run"] = dict(PENDULUM["run"], ratio_offset=0.01)
    assert main(["verify", "--config", _cfg(tmp_path, doc)]) == 1
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out
    assert "component (k=" in out   # names the failing tensor slot
    assert "worst point" in out


def test_config_problems_exit_two(tmp_path, capsys):
    doc = {"fixture": {"name": "pendulum"}, "run": {"dtt": 0.1}}
    assert main(["verify", "--config", _cfg(tmp_path, doc)]) == 2
    assert "config error:" in capsys.readouterr().err

    assert main(["verify", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert "config error:" in capsys.readouterr().err

    # sampling without a seed is refused, not defaulted
    unseeded = {"fixture": {"name": "pendulum"}}
    assert main(["verify", "--config", _cfg(tmp_path, unseeded)]) == 2
    assert "run.seed" in capsys.readouterr().err


def test_an_output_path_that_is_a_file_is_a_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    path = _cfg(tmp_path, PENDULUM)
    for out in (taken, taken / "sub"):
        assert main(["verify", "--config", path, "--out", str(out)]) == 2
        assert "output directory %s" % out in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


def test_seed_flag_substitutes_for_the_document(tmp_path, capsys):
    unseeded = {"fixture": {"name": "pendulum"}, "run": {"samples": 10}}
    path = _cfg(tmp_path, unseeded)
    assert main(["verify", "--config", path, "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--config", path, "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


def test_synthesize_reports_a_stable_spectrum(tmp_path, capsys):
    out_dir = tmp_path / "art"
    assert main(["synthesize", "--config", _cfg(tmp_path, UPRIGHT),
                 "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "closed-loop spectrum:" in out
    assert "stable: yes" in out
    report = (out_dir / "synthesize-report.txt").read_text()
    assert report == out


def test_synthesize_rejects_a_forced_equilibrium_off_critical(tmp_path, capsys):
    # the default set holds a standing force at the origin, so the rest
    # point check fails and the run reports an error, not a spectrum
    assert main(["synthesize", "--config", _cfg(tmp_path, PENDULUM)]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_writes_deterministic_artifacts(tmp_path, capsys):
    doc = dict(PENDULUM)
    doc["run"] = {"dt": 0.01, "horizon": 0.2,
                  "initial_position": [0.1, -0.1, 0.1],
                  "initial_velocity": [0.0, 0.2, 0.0]}
    path = _cfg(tmp_path, doc)
    out_dir = tmp_path / "art"
    assert main(["simulate", "--config", path, "--out", str(out_dir)]) == 0
    report = capsys.readouterr().out
    assert "max |plant - target| deviation:" in report
    assert "energy identity defect" in report

    plant = (out_dir / "plant.csv").read_bytes()
    target = (out_dir / "target.csv").read_bytes()
    assert plant.splitlines()[0] == b"t,x0,x1,x2,xd0,xd1,xd2,u0,u1,u2,energy"
    assert len(plant.splitlines()) == 1 + 21

    assert main(["simulate", "--config", path, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert (out_dir / "plant.csv").read_bytes() == plant
    assert (out_dir / "target.csv").read_bytes() == target


def test_rank_scan_sees_the_seesaw_degeneracy(tmp_path, capsys):
    doc = {"fixture": {"name": "seesaw"},
           "run": {"seed": 5, "samples": 24, "radius": 0.3}}
    assert main(["rank-scan", "--config", _cfg(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert "rank at center: 0" in out
    assert "max rank nearby: 2" in out
    assert "drop at center: yes" in out


def test_rigidity_dimension_expectations(tmp_path, capsys):
    assert main(["rigidity", "--config", _cfg(tmp_path, DOUBLE)]) == 0
    out = capsys.readouterr().out
    assert "jet residual" in out
    assert "off-locus mismatches: 0" in out

    wrong = dict(DOUBLE)
    wrong["run"] = dict(DOUBLE["run"], expect_dimension=5)
    assert main(["rigidity", "--config", _cfg(tmp_path, wrong)]) == 1
    assert "<-- expected 5" in capsys.readouterr().out

    # only the chain fixture ships the constant family this probe needs
    assert main(["rigidity", "--config", _cfg(tmp_path, PENDULUM)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_overflowing_shipped_pendulum_does_not_pass(tmp_path, capsys):
    with open(os.path.join(CONFIGS, "pendulum.yaml")) as fh:
        doc = yaml.safe_load(fh)
    doc["fixture"]["params"]["block22"] = {
        "kind": "cosine", "amplitude": 1.0e308, "freq": [1.0, 1.0],
        "offset": 1.0e308}
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["verify", "--config", _cfg(tmp_path, doc)]) == 1
    assert "verdict: pass" not in capsys.readouterr().out


@pytest.mark.parametrize("command,doc,hook", [
    ("verify", PENDULUM, "matching_residual"),
    ("verify", DOUBLE, "basic_jet_residual"),
    ("rigidity", DOUBLE, "basic_jet_residual"),
])
def test_nan_residual_fails(tmp_path, capsys, monkeypatch, command, doc, hook):
    real = getattr(cli, hook)
    monkeypatch.setattr(cli, hook, lambda *a: real(*a) * np.nan)
    assert main([command, "--config", _cfg(tmp_path, doc)]) == 1
    out = capsys.readouterr().out
    assert "max nan" in out
    assert "verdict: pass" not in out


@pytest.mark.parametrize("command,edit,where", [
    ("simulate", ("run", "horizon", float("inf")), "run.horizon"),
    ("verify", ("run", "tolerance", float("inf")), "run.tolerance"),
    ("verify", ("params", "sway_ratio", float("nan")), "params.sway_ratio"),
    ("verify", ("params", "block22", {"kind": "constant", "c": "abc"}),
     "params.block22"),
    ("verify", ("params", "well", {"kind": "quadratic",
                                   "quad": [[1.0, 0.0], [0.0, float("nan")]]}),
     "params.well"),
    ("verify", ("params", "well", {"kind": "quadratic",
                                   "quad": [[1.0, 0.0], [0.0, 1.0]],
                                   "lin": [1.0, 2.0, 3.0]}), "params.well"),
    ("verify", ("run", "center", [0.0, float("inf"), 0.0]), "run.center"),
], ids=["horizon-inf", "tolerance-inf", "sway-nan", "profile-abc",
        "profile-nan", "profile-lin-size", "center-inf"])
def test_nonfinite_or_malformed_numbers_are_config_errors(
        tmp_path, capsys, command, edit, where):
    block, key, value = edit
    doc = {"fixture": {"name": "pendulum", "params": {"a": 0.5, "b": 0.5}},
           "run": {"seed": 11, "samples": 5}}
    (doc["run"] if block == "run" else doc["fixture"]["params"])[key] = value
    assert main([command, "--config", _cfg(tmp_path, doc)]) == 2
    assert where in capsys.readouterr().err


def test_nonfinite_chain_masses_are_config_errors(tmp_path, capsys):
    doc = {"fixture": {"name": "double-pendulum",
                       "params": {"masses": [[2.0, 1.0, 0.5],
                                             [1.0, float("nan"), 1.4],
                                             [0.5, 1.4, 3.0]]}},
           "run": DOUBLE["run"]}
    assert main(["verify", "--config", _cfg(tmp_path, doc)]) == 2
    assert "params.masses[1]" in capsys.readouterr().err


def test_sweep_runs_subcommands_into_numbered_dirs(tmp_path, capsys):
    doc = dict(PENDULUM)
    doc["run"] = dict(PENDULUM["run"], samples=10)
    doc["sweep"] = {"key": "fixture.params.a",
                    "values": [0.4, 0.5, 0.6],
                    "command": "verify"}
    out_dir = tmp_path / "art"
    assert main(["sweep", "--config", _cfg(tmp_path, doc),
                 "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "sweep over fixture.params.a (3 values)" in out
    assert out.count("-> exit 0") == 3
    for i in range(3):
        sub = out_dir / ("sweep-%02d" % i) / "verify-report.txt"
        assert sub.is_file()
        assert "verdict: pass" in sub.read_text()
    assert (out_dir / "sweep-report.txt").is_file()

    bare = dict(PENDULUM)
    assert main(["sweep", "--config", _cfg(tmp_path, bare, "bare.yaml")]) == 2
    assert "sweep block" in capsys.readouterr().err


def test_sweep_over_the_seed_runs_each_swept_seed(tmp_path):
    base = dict(PENDULUM, run=dict(PENDULUM["run"], seed=5, samples=10))

    def standalone(seed, samples=10):
        out = tmp_path / ("alone-%d-%d" % (seed, samples))
        doc = dict(base, run=dict(base["run"], samples=samples))
        assert main(["verify", "--config", _cfg(tmp_path, doc, "alone.yaml"),
                     "--seed", str(seed), "--out", str(out)]) == 0
        return (out / "verify-report.txt").read_text()

    # a swept run.seed wins over the document's seed and over --seed
    seeds = dict(base, sweep={"key": "run.seed", "values": [1, 2, 3],
                              "command": "verify"})
    out_dir = tmp_path / "seeds"
    assert main(["sweep", "--config", _cfg(tmp_path, seeds, "seeds.yaml"),
                 "--seed", "7", "--out", str(out_dir)]) == 0
    reports = [(out_dir / ("sweep-%02d" % i) / "verify-report.txt").read_text()
               for i in range(3)]
    assert reports == [standalone(k) for k in (1, 2, 3)]
    assert len(set(reports)) == 3

    # any other sweep still takes --seed
    sizes = dict(base, sweep={"key": "run.samples", "values": [4, 6],
                              "command": "verify"})
    out_dir = tmp_path / "sizes"
    assert main(["sweep", "--config", _cfg(tmp_path, sizes, "sizes.yaml"),
                 "--seed", "7", "--out", str(out_dir)]) == 0
    for i, samples in enumerate((4, 6)):
        sub = out_dir / ("sweep-%02d" % i) / "verify-report.txt"
        assert sub.read_text() == standalone(7, samples)


def test_argparse_contract():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["verify"])  # --config is required


def _pipeline_commands():
    """(command, config) pairs of the benchmark's cli-pipeline workload,
    read from perfbench/workloads.py without running it."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    pipeline = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                    and node.name == "CliPipeline")
    return next(ast.literal_eval(stmt.value) for stmt in pipeline.body
                if isinstance(stmt, ast.Assign)
                and getattr(stmt.targets[0], "id", None) == "COMMANDS")


def test_shipped_configs_run_twice_to_the_same_bytes(tmp_path, capsys):
    commands = _pipeline_commands()
    assert len(commands) == 9
    rounds = []
    for r in range(2):
        seen = {}
        for command, name in commands:
            out = tmp_path / ("round-%d" % r) / ("%s.%s" % (command, name))
            code = main([command, "--config",
                         os.path.join(CONFIGS, name + ".yaml"),
                         "--seed", "1", "--out", str(out)])
            assert code == 0, (command, name)
            seen[command, name] = (capsys.readouterr().out, {
                f.name: f.read_bytes() for f in sorted(out.iterdir())})
        rounds.append(seen)
    assert rounds[0] == rounds[1]


def test_simulate_reads_each_node_energy_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(model, s):
        calls.append(model)
        return energy(model, s)

    monkeypatch.setattr(synthesis, "energy", counted)
    monkeypatch.setattr(cli, "energy", counted)
    doc = dict(PENDULUM, run={"dt": 0.01, "horizon": 0.2,
                              "initial_position": [0.1, -0.1, 0.1]})
    out_dir = tmp_path / "art"
    assert main(["simulate", "--config", _cfg(tmp_path, doc),
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    steps = 20
    # the audit reads the plant's nodes, the CSV adds the reference's
    assert len(calls) == 2 * (steps + 1)
    rows = (out_dir / "plant.csv").read_text().splitlines()[1:]
    assert len(rows) == steps + 1


def test_simulate_perturbs_the_start_by_the_seeded_nudge(tmp_path, capsys):
    doc = dict(PENDULUM, run={"dt": 0.01, "horizon": 0.1,
                              "perturbation": 0.05})
    path = _cfg(tmp_path, doc)
    assert main(["simulate", "--config", path]) == 2   # the nudge is seeded
    assert "run.seed" in capsys.readouterr().err

    def start(seed):
        out_dir = tmp_path / ("seed-%d" % seed)
        assert main(["simulate", "--config", path, "--seed", str(seed),
                     "--out", str(out_dir)]) == 0
        capsys.readouterr()
        text = (out_dir / "plant.csv").read_text()
        first = np.array(text.splitlines()[1].split(","), dtype=float)
        return text, first[1:7]           # x and xdot at t = 0

    text, s0 = start(3)
    # the equilibrium at rest, moved by a nudge of norm run.perturbation
    assert abs(np.linalg.norm(s0) - 0.05) <= 1e-15
    assert start(3)[0] == text
    assert not np.array_equal(start(4)[1], s0)


def test_simulate_reports_a_blow_up_and_exits_one(tmp_path, capsys):
    doc = dict(PENDULUM, run={"dt": 0.01, "horizon": 1.0,
                              "initial_velocity": [0.0, 1.0e5, 0.0]})
    out_dir = tmp_path / "art"
    assert main(["simulate", "--config", _cfg(tmp_path, doc),
                 "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("blow-up at t=")
    assert "last state [" in captured.out
    assert captured.err == ""
    assert not out_dir.exists()          # no report or CSV for a broken run


def test_verify_samples_inside_a_configured_domain(tmp_path, capsys,
                                                   monkeypatch):
    seen = []
    real = cli.transport_residual

    def recording(system, ratio, x):
        seen.append(x)
        return real(system, ratio, x)

    monkeypatch.setattr(cli, "transport_residual", recording)
    lo, hi = np.array([0.5, 2.0, -3.0]), np.array([0.6, 3.0, -2.0])
    doc = dict(PENDULUM)
    doc["fixture"] = {"name": "pendulum", "params": dict(
        PENDULUM["fixture"]["params"],
        domain={"lo": lo.tolist(), "hi": hi.tolist()})}
    assert main(["verify", "--config", _cfg(tmp_path, doc)]) == 0
    assert "verdict: pass" in capsys.readouterr().out
    pts = np.array(seen)
    assert pts.shape == (PENDULUM["run"]["samples"], 3)
    assert np.all((pts >= lo) & (pts <= hi))

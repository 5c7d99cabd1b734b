"""Schema validation: closed key set, typed values, fixture construction."""
import glob
import os

import numpy as np
import pytest

from matchctl.config import (RunSpec, load_config, override_key, parse_config,
                             with_overrides)
from matchctl.errors import ConfigError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

PENDULUM_DOC = {"fixture": {"name": "pendulum", "params": {"a": 0.5}},
                "run": {"seed": 1}}


def test_shipped_configs_parse():
    paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.yaml")))
    assert len(paths) == 5
    for path in paths:
        cfg = load_config(path)
        assert cfg.fixture.system.n in (2, 3)
        assert cfg.run.tolerance > 0


def test_missing_file_and_bad_yaml(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("fixture: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("just a string\n")
    with pytest.raises(ConfigError):
        load_config(scalar)


def test_unknown_keys_name_the_path_and_the_allowed_set():
    with pytest.raises(ConfigError, match=r"config\.fixtur"):
        parse_config({"fixtur": {}})
    with pytest.raises(ConfigError, match="allowed"):
        parse_config({"fixture": {"name": "pendulum",
                                  "params": {"slope": 2.0}},
                      "run": {}})
    with pytest.raises(ConfigError, match=r"run\.step"):
        parse_config({"fixture": {"name": "pendulum"},
                      "run": {"step": 0.1}})
    with pytest.raises(ConfigError, match="fixture.name"):
        parse_config({"fixture": {"name": "cartpole"}})


def test_value_typing():
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config({"fixture": {"name": "pendulum",
                                  "params": {"a": True}}})
    with pytest.raises(ConfigError, match="must be positive"):
        parse_config({"fixture": {"name": "pendulum"},
                      "run": {"dt": -0.1}})
    with pytest.raises(ConfigError, match="must not be negative"):
        parse_config({"fixture": {"name": "pendulum"},
                      "run": {"perturbation": -1.0}})
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config({"fixture": {"name": "pendulum"},
                      "run": {"samples": 2.5}})
    with pytest.raises(ConfigError, match=r"run\.samples: must be <= "):
        parse_config({"fixture": {"name": "pendulum"},
                      "run": {"samples": 10 ** 9}})
    with pytest.raises(ConfigError, match="expected 3 entries"):
        parse_config({"fixture": {"name": "pendulum"},
                      "run": {"center": [0.0, 0.0]}})
    with pytest.raises(ConfigError, match="expected a list of numbers"):
        parse_config({"fixture": {"name": "pendulum"},
                      "run": {"center": [0.0, "x", 0.0]}})
    with pytest.raises(ConfigError, match="scale"):
        parse_config({"fixture": {"name": "pendulum"},
                      "run": {"scale": 0.0}})


def test_profile_and_domain_validation():
    with pytest.raises(ConfigError, match="well"):
        parse_config({"fixture": {"name": "pendulum",
                                  "params": {"well": {"kind": "spline"}}}})
    with pytest.raises(ConfigError, match="hi must exceed lo"):
        parse_config({"fixture": {"name": "pendulum",
                                  "params": {"domain": {
                                      "lo": [0, 0, 0], "hi": [1, 1, 0]}}}})
    with pytest.raises(ConfigError, match="both lo and hi"):
        parse_config({"fixture": {"name": "seesaw",
                                  "params": {"domain": {"lo": [0, 0, 0]}}}})


def test_physics_rejections_become_config_errors():
    with pytest.raises(ConfigError, match=r"fixture\.params.*tilt_ratio"):
        parse_config({"fixture": {"name": "pendulum",
                                  "params": {"tilt_ratio": 0.0}}})
    with pytest.raises(ConfigError, match=r"fixture\.params"):
        parse_config({"fixture": {"name": "double-pendulum",
                                  "params": {"masses": [[2.0, 1.0, 0.5],
                                                        [1.0, 2.0, 1.0],
                                                        [0.5, 1.0, -3.0]]}}})
    with pytest.raises(ConfigError, match="masses"):
        parse_config({"fixture": {"name": "double-pendulum",
                                  "params": {"masses": [[1.0, 0.0], [0.0, 1.0]]}}})
    with pytest.raises(ConfigError, match="track.shape"):
        parse_config({"fixture": {"name": "rollercoaster",
                                  "params": {"track": {"shape": "figure-8"}}}})


def test_run_spec_defaults_and_seed_gate():
    cfg = parse_config({"fixture": {"name": "pendulum"}})
    assert cfg.run == RunSpec()
    assert cfg.run.dt == 1e-3
    assert cfg.run.horizon == 2.0
    assert cfg.run.samples == 100
    assert cfg.run.tolerance == 1e-9
    assert cfg.run.seed is None
    with pytest.raises(ConfigError, match="run.seed"):
        cfg.run.require_seed("verify")
    seeded = parse_config(PENDULUM_DOC)
    assert seeded.run.require_seed("verify") == 1


def test_resolved_target_prefers_the_shipped_pair():
    cfg = parse_config(PENDULUM_DOC)
    ratio, target = cfg.resolved_target()
    assert target is cfg.fixture.target
    assert ratio is cfg.fixture.ratio

    forced = parse_config(override_key(PENDULUM_DOC, "run.scale", 2.0))
    ratio2, target2 = forced.resolved_target()
    assert target2 is not cfg.fixture.target
    x = np.array([0.1, 0.2, -0.1])
    assert np.allclose(ratio2.value(x), 2.0 * np.eye(3)[:1], atol=1e-12)

    seesaw = parse_config({"fixture": {"name": "seesaw"}})
    _, target3 = seesaw.resolved_target()   # no shipped target: scaling
    assert np.allclose(target3.metric.value(np.array([1.0, 0.0, 1.0])),
                       seesaw.fixture.system.metric.value(
                           np.array([1.0, 0.0, 1.0])), atol=1e-12)


def test_sweep_block_validation():
    doc = dict(PENDULUM_DOC)
    doc["sweep"] = {"key": "fixture.params.a", "values": [0.4, 0.5],
                    "command": "verify"}
    cfg = parse_config(doc)
    assert cfg.sweep.key == "fixture.params.a"
    assert cfg.sweep.values == (0.4, 0.5)

    for bad in ({"key": "", "values": [1], "command": "verify"},
                {"key": "a", "values": [], "command": "verify"},
                {"key": "a", "values": [1], "command": "sweep"},
                {"key": "a", "values": [1], "command": "launch"}):
        doc["sweep"] = bad
        with pytest.raises(ConfigError):
            parse_config(doc)


def test_override_key_is_copy_on_write():
    out = override_key(PENDULUM_DOC, "fixture.params.a", 0.7)
    assert out["fixture"]["params"]["a"] == 0.7
    assert PENDULUM_DOC["fixture"]["params"]["a"] == 0.5
    deep = override_key(PENDULUM_DOC, "output.directory", "/tmp/x")
    assert deep["output"]["directory"] == "/tmp/x"
    assert "output" not in PENDULUM_DOC


def test_with_overrides_wins_over_document():
    cfg = parse_config(PENDULUM_DOC)
    bumped = with_overrides(cfg, seed=7, out="outdir")
    assert bumped.run.seed == 7
    assert bumped.output_dir == "outdir"
    untouched = with_overrides(cfg)
    assert untouched.run.seed == 1
    assert untouched.output_dir is None


def test_output_block():
    cfg = parse_config({"fixture": {"name": "pendulum"},
                        "output": {"directory": "runs"}})
    assert cfg.output_dir == "runs"
    with pytest.raises(ConfigError, match="expected a string"):
        parse_config({"fixture": {"name": "pendulum"},
                      "output": {"directory": 3}})
    with pytest.raises(ConfigError, match="output"):
        parse_config({"fixture": {"name": "pendulum"},
                      "output": {"folder": "runs"}})

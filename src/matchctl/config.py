"""Run configuration: a single YAML document, validated against a closed schema.

Every key is checked; unknown keys are rejected with the full key path so
a typo in a nested block is findable from the error alone.  Shape
functions (metric blocks, wells, gains, overlap data) come from the
named profile catalog in shapes.py, never from inline expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import yaml

from .errors import ConfigError, MatchctlError
from .fields import Field
from .geometry import Box, MechanicalSystem
from .matching import scaling_solution
from .shapes import Profile, constant_profile, profile_from_spec
from .systems.double_pendulum import chained_pendulums, terminal_family
from .systems.pendulum import PendulumParams, pendulum_fixture
from .systems.rollercoaster import (PLANAR, bead_on_track, helix_track,
                                    incline_ratio_family, planar_ratio_family,
                                    vertical_circle_track)
from .systems.seesaw import seesaw_cart, seesaw_ratio_family
from .targets import TargetSystem

FIXTURES = ("pendulum", "seesaw", "rollercoaster", "double-pendulum")
COMMANDS = ("verify", "synthesize", "simulate", "rank-scan", "rigidity", "sweep")
SAMPLING_COMMANDS = ("verify", "rank-scan", "rigidity")


def _as_map(node, path):
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError("%s: expected a mapping, got %s"
                          % (path, type(node).__name__))
    return node


def _check_keys(node, allowed, path):
    for key in node:
        if key not in allowed:
            raise ConfigError("%s.%s: unknown key (allowed: %s)"
                              % (path, key, ", ".join(sorted(allowed))))


def _float(node, key, path, default=None, positive=False, nonnegative=False):
    if key not in node:
        if default is None:
            raise ConfigError("%s.%s: required" % (path, key))
        return float(default)
    v = node[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError("%s.%s: expected a number" % (path, key))
    v = float(v)
    if not np.isfinite(v):
        raise ConfigError("%s.%s: must be a finite number" % (path, key))
    if positive and not v > 0.0:
        raise ConfigError("%s.%s: must be positive" % (path, key))
    if nonnegative and v < 0.0:
        raise ConfigError("%s.%s: must not be negative" % (path, key))
    return v


def _int(node, key, path, default=None, minimum=None):
    if key not in node:
        if default is None:
            raise ConfigError("%s.%s: required" % (path, key))
        return default
    v = node[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError("%s.%s: expected an integer" % (path, key))
    if minimum is not None and v < minimum:
        raise ConfigError("%s.%s: must be >= %d" % (path, key, minimum))
    return v


def _numbers(v, where):
    if not isinstance(v, list) or not all(
            isinstance(e, (int, float)) and not isinstance(e, bool) for e in v):
        raise ConfigError("%s: expected a list of numbers" % where)
    arr = np.asarray(v, dtype=float)
    if not np.isfinite(arr).all():
        raise ConfigError("%s: entries must be finite" % where)
    return arr


def _vector(node, key, path, size=None):
    if key not in node:
        return None
    arr = _numbers(node[key], "%s.%s" % (path, key))
    if size is not None and arr.size != size:
        raise ConfigError("%s.%s: expected %d entries, got %d"
                          % (path, key, size, arr.size))
    return arr


def _profile(node, key, path, dim, default: Profile | None = None):
    if key not in node:
        return default
    try:
        return profile_from_spec(_as_map(node[key], "%s.%s" % (path, key)), dim)
    except ConfigError as exc:
        raise ConfigError("%s.%s: %s" % (path, key, exc)) from exc


def _domain(node, path, size):
    if "domain" not in node:
        return None
    dom = _as_map(node["domain"], path + ".domain")
    _check_keys(dom, {"lo", "hi"}, path + ".domain")
    lo = _vector(dom, "lo", path + ".domain", size)
    hi = _vector(dom, "hi", path + ".domain", size)
    if lo is None or hi is None:
        raise ConfigError("%s.domain: both lo and hi are required" % path)
    if np.any(hi <= lo):
        raise ConfigError("%s.domain: hi must exceed lo componentwise" % path)
    return Box(lo=lo, hi=hi)


@dataclass(frozen=True)
class FixtureBundle:
    """A named plant plus whatever closed-form matching data it ships with."""

    name: str
    system: MechanicalSystem
    ratio: Field | None
    overlap: Field | None
    target: TargetSystem | None
    equilibrium: np.ndarray


def _build_pendulum(params, path):
    _check_keys(params, {"a", "b", "tilt_ratio", "sway_ratio", "block22",
                         "block23", "block33", "well", "gain", "domain"}, path)
    base = PendulumParams()
    p = PendulumParams(
        a=_float(params, "a", path, default=base.a, positive=True),
        b=_float(params, "b", path, default=base.b, nonnegative=True),
        tilt_ratio=_float(params, "tilt_ratio", path, default=base.tilt_ratio),
        sway_ratio=_float(params, "sway_ratio", path, default=base.sway_ratio),
        block22=_profile(params, "block22", path, 2),
        block23=_profile(params, "block23", path, 2),
        block33=_profile(params, "block33", path, 2),
        well=_profile(params, "well", path, 2),
        gain=_profile(params, "gain", path, 3),
        domain=_domain(params, path, 3))
    if p.tilt_ratio == 0.0:
        raise ConfigError(path + ".tilt_ratio: must be nonzero")
    sys_, ratio, target = pendulum_fixture(p)
    return FixtureBundle("pendulum", sys_, ratio, None, target, np.zeros(3))


def _build_seesaw(params, path):
    _check_keys(params, {"a", "b", "overlap", "domain"}, path)
    a = _float(params, "a", path, default=0.5, positive=True)
    b = _float(params, "b", path, default=2.0, positive=True)
    sys_ = seesaw_cart(a, b, domain=_domain(params, path, 3))
    overlap = _profile(params, "overlap", path, 2,
                       default=constant_profile(1.0, 2))
    ratio = seesaw_ratio_family(a, b, overlap)
    return FixtureBundle("seesaw", sys_, ratio, None, None, np.zeros(3))


def _build_rollercoaster(params, path):
    _check_keys(params, {"a", "b", "track", "overlap", "domain"}, path)
    a = _float(params, "a", path, default=1.0, positive=True)
    b = _float(params, "b", path, default=0.5)
    track = _as_map(params.get("track"), path + ".track")
    _check_keys(track, {"shape", "radius", "climb"}, path + ".track")
    shape = track.get("shape")
    if shape == "vertical-circle":
        curve = vertical_circle_track(_float(track, "radius", path + ".track",
                                             positive=True))
    elif shape == "helix":
        curve = helix_track(_float(track, "radius", path + ".track",
                                   positive=True),
                            _float(track, "climb", path + ".track"))
    else:
        raise ConfigError(path + ".track.shape: expected 'vertical-circle' "
                          "or 'helix', got %r" % (shape,))
    sys_ = bead_on_track(curve, a=a, b=b, domain=_domain(params, path, 2))
    overlap = _profile(params, "overlap", path, 1,
                       default=constant_profile(1.0, 1))
    family = (planar_ratio_family if curve.case_tag == PLANAR
              else incline_ratio_family)
    ratio = family(curve, b, overlap)
    eq = sys_.domain.center if sys_.domain is not None else np.zeros(2)
    return FixtureBundle("rollercoaster", sys_, ratio, None, None, eq)


def _build_double_pendulum(params, path):
    _check_keys(params, {"masses", "weights", "leading_overlap", "domain"},
                path)
    if "masses" not in params:
        raise ConfigError(path + ".masses: required")
    rows = params["masses"]
    if (not isinstance(rows, list) or len(rows) != 3
            or any(not isinstance(r, list) or len(r) != 3 for r in rows)):
        raise ConfigError(path + ".masses: expected a 3x3 list of numbers")
    masses = np.array([_numbers(r, "%s.masses[%d]" % (path, i))
                       for i, r in enumerate(rows)])
    weights = _vector(params, "weights", path, 3)
    weights = (1.0, 1.0, 1.0) if weights is None else tuple(weights)
    lead = _float(params, "leading_overlap", path, default=1.0)
    if lead == 0.0:
        raise ConfigError(path + ".leading_overlap: must be nonzero")
    sys_ = chained_pendulums(masses, weights, domain=_domain(params, path, 3))
    ratio, overlap = terminal_family(masses, lead)
    return FixtureBundle("double-pendulum", sys_, ratio, overlap, None,
                         np.zeros(3))


_BUILDERS = {
    "pendulum": _build_pendulum,
    "seesaw": _build_seesaw,
    "rollercoaster": _build_rollercoaster,
    "double-pendulum": _build_double_pendulum,
}


@dataclass(frozen=True)
class RunSpec:
    """Numeric options shared by the commands; every field has a default
    except the seed, which sampling commands refuse to run without."""

    dt: float = 1e-3
    horizon: float = 2.0
    samples: int = 100
    tolerance: float = 1e-9
    perturbation: float = 0.0
    radius: float = 0.3
    seed: int | None = None
    center: np.ndarray | None = None
    initial_position: np.ndarray | None = None
    initial_velocity: np.ndarray | None = None
    ratio_offset: float = 0.0
    expect_dimension: int | None = None
    scale: float | None = None

    def require_seed(self, command: str) -> int:
        if self.seed is None:
            raise ConfigError("run.seed: required for '%s' (sampling must "
                              "be reproducible)" % command)
        return self.seed


def _parse_run(node, path, n):
    _check_keys(node, {"dt", "horizon", "samples", "tolerance", "perturbation",
                       "radius", "seed", "center", "initial_position",
                       "initial_velocity", "ratio_offset", "expect_dimension",
                       "scale"}, path)
    seed = None
    if "seed" in node:
        seed = _int(node, "seed", path, minimum=0)
    expect = None
    if "expect_dimension" in node:
        expect = _int(node, "expect_dimension", path, minimum=0)
    scale = None
    if "scale" in node:
        scale = _float(node, "scale", path)
        if scale == 0.0:
            raise ConfigError(path + ".scale: must be nonzero")
    return RunSpec(
        dt=_float(node, "dt", path, default=1e-3, positive=True),
        horizon=_float(node, "horizon", path, default=2.0, positive=True),
        samples=_int(node, "samples", path, default=100, minimum=1),
        tolerance=_float(node, "tolerance", path, default=1e-9, positive=True),
        perturbation=_float(node, "perturbation", path, default=0.0,
                            nonnegative=True),
        radius=_float(node, "radius", path, default=0.3, positive=True),
        seed=seed,
        center=_vector(node, "center", path, n),
        initial_position=_vector(node, "initial_position", path, n),
        initial_velocity=_vector(node, "initial_velocity", path, n),
        ratio_offset=_float(node, "ratio_offset", path, default=0.0),
        expect_dimension=expect,
        scale=scale)


@dataclass(frozen=True)
class SweepSpec:
    key: str
    values: tuple
    command: str


def _parse_sweep(node, path):
    _check_keys(node, {"key", "values", "command"}, path)
    key = node.get("key")
    if not isinstance(key, str) or not key:
        raise ConfigError(path + ".key: required dotted path string")
    values = node.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError(path + ".values: required non-empty list")
    command = node.get("command")
    if command not in COMMANDS or command == "sweep":
        raise ConfigError(path + ".command: expected one of %s"
                          % ", ".join(c for c in COMMANDS if c != "sweep"))
    return SweepSpec(key=key, values=tuple(values), command=command)


@dataclass(frozen=True)
class RunConfig:
    """A validated document plus the constructed fixture, ready to run."""

    fixture: FixtureBundle
    run: RunSpec
    output_dir: str | None
    sweep: SweepSpec | None
    raw: dict

    def resolved_target(self) -> tuple[Field, TargetSystem]:
        """Ratio and target the synthesis commands should drive toward.

        The fixture's closed-form pair when it ships one and no scale is
        forced; otherwise the diagonal scaling family, which exists for
        every plant.
        """
        if self.run.scale is None and self.fixture.target is not None:
            return self.fixture.ratio, self.fixture.target
        scale = 1.0 if self.run.scale is None else self.run.scale
        return scaling_solution(self.fixture.system, scale)


def parse_config(doc, source="config") -> RunConfig:
    doc = _as_map(doc, source)
    _check_keys(doc, {"fixture", "run", "output", "sweep"}, source)
    fix = _as_map(doc.get("fixture"), source + ".fixture")
    _check_keys(fix, {"name", "params"}, source + ".fixture")
    name = fix.get("name")
    if name not in FIXTURES:
        raise ConfigError("%s.fixture.name: expected one of %s, got %r"
                          % (source, ", ".join(FIXTURES), name))
    params = _as_map(fix.get("params"), source + ".fixture.params")
    try:
        bundle = _BUILDERS[name](params, source + ".fixture.params")
    except ConfigError:
        raise
    except MatchctlError as exc:
        # invalid physics parameters are still a configuration problem
        raise ConfigError("%s.fixture.params: %s" % (source, exc)) from exc

    run = _parse_run(_as_map(doc.get("run"), source + ".run"),
                     source + ".run", bundle.system.n)

    out = None
    if "output" in doc:
        onode = _as_map(doc["output"], source + ".output")
        _check_keys(onode, {"directory"}, source + ".output")
        out = onode.get("directory")
        if out is not None and not isinstance(out, str):
            raise ConfigError(source + ".output.directory: expected a string")

    sweep = None
    if "sweep" in doc:
        sweep = _parse_sweep(_as_map(doc["sweep"], source + ".sweep"),
                             source + ".sweep")
    return RunConfig(fixture=bundle, run=run, output_dir=out, sweep=sweep,
                     raw=doc)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    except yaml.YAMLError as exc:
        raise ConfigError("config %s is not valid YAML: %s"
                          % (path, exc)) from exc
    return parse_config(doc, source=str(path))


def override_key(doc: dict, dotted: str, value) -> dict:
    """Copy of a raw document with one dotted key replaced (sweep support)."""
    parts = dotted.split(".")
    out = dict(doc)
    node = out
    for p in parts[:-1]:
        child = node.get(p)
        if not isinstance(child, dict):
            child = {}
        child = dict(child)
        node[p] = child
        node = child
    node[parts[-1]] = value
    return out


def with_overrides(cfg: RunConfig, seed: int | None = None,
                   out: str | None = None) -> RunConfig:
    """Command-line flags win over the document's run/output blocks."""
    run = cfg.run if seed is None else replace(cfg.run, seed=seed)
    out_dir = cfg.output_dir if out is None else out
    return replace(cfg, run=run, output_dir=out_dir)

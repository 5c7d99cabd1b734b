"""In-memory span recorder and the wrappers that place spans at layer boundaries.

A span is one call across a layer boundary: its name ("<layer>.<what>"),
start, end, parent span and the operation it belongs to.  Spans are kept
in compact arrays while the workload runs and summarized or written out
when it ends.  Nothing here edits the package: spans sit around

* the public functions, patched in the module namespace that calls them,
* the fixture's field objects, swapped in with ``dataclasses.replace``,
* the controller callable handed to ``simulate``.
"""
from __future__ import annotations

import ast
import dataclasses
import time
from array import array

import numpy as np

from matchctl import characteristics, cli, geometry, matching, synthesis
from matchctl.errors import MatchctlError
from matchctl.systems import rigidity
from matchctl.targets import TargetSystem

# (module, attribute, span name): every place a public function is looked up
# by the code that calls it.  The package imports names into the calling
# module, so one function can need several patches.
NAMESPACE_PATCHES = (
    (synthesis, "simulate", "synthesis.simulate"),
    (synthesis, "control_law", "synthesis.control_law"),
    (synthesis, "target_acceleration", "synthesis.target_acceleration"),
    (synthesis, "lyapunov_audit", "synthesis.lyapunov_audit"),
    (synthesis, "trajectory_csv", "synthesis.trajectory_csv"),
    (synthesis, "linearize_closed_loop", "synthesis.linearize_closed_loop"),
    (synthesis, "acceleration", "geometry.acceleration"),
    (synthesis, "christoffel_first", "geometry.christoffel_first"),
    (geometry, "christoffel_first", "geometry.christoffel_first"),
    (matching, "christoffel_first", "geometry.christoffel_first"),
    (rigidity, "christoffel_first", "geometry.christoffel_first"),
    (matching, "transport_residual", "matching.transport_residual"),
    (matching, "matching_residual", "matching.matching_residual"),
    (matching, "rank_condition", "matching.rank_condition"),
    (matching, "assemble_compatibility", "matching.assemble_compatibility"),
    (rigidity, "jet_dimension", "rigidity.jet_dimension"),
    (rigidity, "basic_jet_residual", "rigidity.basic_jet_residual"),
    (rigidity, "rigidity_probe", "rigidity.rigidity_probe"),
    (rigidity, "transport_coefficients", "rigidity.transport_coefficients"),
    (characteristics, "transport_target_data",
     "characteristics.transport_target_data"),
    (characteristics, "row_identity_check",
     "characteristics.row_identity_check"),
    (characteristics, "complete_metric_rows",
     "characteristics.complete_metric_rows"),
    (characteristics.CharacteristicGrid, "interpolate",
     "characteristics.interpolate"),
    (cli, "load_config", "config.load_config"),
    (cli, "simulate", "synthesis.simulate"),
    (cli, "trajectory_csv", "synthesis.trajectory_csv"),
    (cli, "lyapunov_audit", "synthesis.lyapunov_audit"),
    (cli, "linearize_closed_loop", "synthesis.linearize_closed_loop"),
    (cli, "transport_residual", "matching.transport_residual"),
    (cli, "matching_residual", "matching.matching_residual"),
    (cli, "rank_condition", "matching.rank_condition"),
    (cli, "rigidity_probe", "rigidity.rigidity_probe"),
    (cli, "basic_jet_residual", "rigidity.basic_jet_residual"),
    (np.linalg, "svd", "numpy.svd"),
)

LAYERS = ("fields", "geometry", "targets", "synthesis", "matching",
          "rigidity", "characteristics", "config", "cli")

_FIELD_METHODS = ("value", "derivative", "gradient", "jac_x", "jac_v")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    """Spans of one run; ``op`` is the operation new spans belong to."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.op_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op = -1
        self.failures = dict.fromkeys(LAYERS, 0)
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, name: str, fn):
        """fn with a span named `name` around every call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        layer = layer_of(name)
        name_id, op_id, parent = self.name_id, self.op_id, self.parent
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        rec = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            op_id.append(rec.op)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except MatchctlError as exc:
                # charge the error to the innermost layer it left
                if not getattr(exc, "_layer_counted", False):
                    exc._layer_counted = True
                    if layer in rec.failures:
                        rec.failures[layer] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    # -- namespace patches -------------------------------------------------

    def install(self) -> None:
        """Patch every public function in the namespaces that call it."""
        if self._saved:
            return
        for owner, attr, name in NAMESPACE_PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- traced inputs -----------------------------------------------------

    def field(self, label: str, field):
        return TracedField(self, label, field)

    def system(self, system):
        return dataclasses.replace(
            system, metric=self.field("fields.plant.metric", system.metric),
            potential=self.field("fields.plant.potential", system.potential),
            dissipation=self.field("fields.plant.dissipation",
                                   system.dissipation))

    def target(self, target: TargetSystem) -> TargetSystem:
        """Same target, with traced fields and traced metric_at/metric_inv."""
        base = type(target)
        cls = type("TracedTargetSystem", (base,), {
            "metric_at": self.wrap("targets.metric_at", base.metric_at),
            "metric_inv": self.wrap("targets.metric_inv", base.metric_inv),
        })
        return cls(
            metric=self.field("fields.target.metric", target.metric),
            potential=self.field("fields.target.potential", target.potential),
            dissipation=self.field("fields.target.dissipation",
                                   target.dissipation),
            name=target.name)

    def bundle(self, bundle):
        """A config FixtureBundle with every field object traced."""
        return dataclasses.replace(
            bundle, system=self.system(bundle.system),
            ratio=(None if bundle.ratio is None
                   else self.field("fields.ratio", bundle.ratio)),
            overlap=(None if bundle.overlap is None
                     else self.field("fields.overlap", bundle.overlap)),
            target=(None if bundle.target is None
                    else self.target(bundle.target)))

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "op_id": np.frombuffer(self.op_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def write(self, path: str, **meta) -> None:
        """Spans plus metadata as a compressed .npz file."""
        meta = dict(meta, run_id=self.run_id, failures=self.failures)
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            meta=np.array(repr(meta)), **self.arrays())


def load_spans(path: str):
    """(names, arrays, meta) from a file written by Recorder.write."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        arrays = {k: data[k] for k in
                  ("name_id", "op_id", "parent", "start", "end")}
        meta = ast.literal_eval(str(data["meta"]))
    return names, arrays, meta


class TracedField:
    """Stand-in for a field object whose every evaluation is a span."""

    def __init__(self, rec: Recorder, label: str, field):
        for meth in _FIELD_METHODS:
            if hasattr(field, meth):
                setattr(self, meth, rec.wrap("%s.%s" % (label, meth),
                                             getattr(field, meth)))
        self._call = (rec.wrap(label + ".call", field)
                      if callable(field) else None)

    def __call__(self, *args):
        return self._call(*args)


class Summary:
    """Per (operation kind, span name) call counts and times."""

    def __init__(self):
        self.count: dict = {}
        self.self_s: dict = {}
        self.top_s: dict = {}
        self.durations: dict = {}

    def add(self, names, arrays, op_kinds) -> None:
        """Fold in one recorder's spans; op_kinds maps op id -> kind."""
        dur = arrays["end"] - arrays["start"]
        parent = arrays["parent"]
        nid = arrays["name_id"]
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has],
                            minlength=dur.size)
        self_t = dur - child
        layers = np.array([layer_of(n) for n in names] or [""])
        # a span is top-level for its layer when its parent is in another one
        top = ~has | (layers[nid[np.where(has, parent, 0)]] != layers[nid])

        kinds = sorted(set(op_kinds.values()))
        op_id = arrays["op_id"]
        top_op = max(max(op_kinds, default=0), int(op_id.max(initial=0)))
        kind_of_op = np.full(top_op + 2, -1)
        for op, kind in op_kinds.items():
            kind_of_op[op + 1] = kinds.index(kind)
        kidx = kind_of_op[op_id + 1]
        keep = kidx >= 0
        key = kidx[keep] * len(names) + nid[keep]
        size = len(kinds) * len(names)
        count = np.bincount(key, minlength=size)
        self_sum = np.bincount(key, weights=self_t[keep], minlength=size)
        top_sum = np.bincount(key, weights=dur[keep] * top[keep],
                              minlength=size)
        order = np.argsort(key, kind="stable")
        groups = np.split(dur[keep][order], np.cumsum(count)[:-1])
        for flat in np.flatnonzero(count):
            k = (kinds[flat // len(names)], names[flat % len(names)])
            self.count[k] = self.count.get(k, 0) + int(count[flat])
            self.self_s[k] = self.self_s.get(k, 0.0) + float(self_sum[flat])
            self.top_s[k] = self.top_s.get(k, 0.0) + float(top_sum[flat])
            self.durations.setdefault(k, []).append(groups[flat])

    def _keys(self, kinds, prefix):
        return [k for k in self.count
                if (kinds is None or k[0] in kinds) and k[1].startswith(prefix)]

    def calls(self, prefix: str, kinds=None) -> int:
        return sum(self.count[k] for k in self._keys(kinds, prefix))

    def self_time(self, prefix: str, kinds=None) -> float:
        return sum(self.self_s[k] for k in self._keys(kinds, prefix))

    def top_time(self, prefix: str, kinds=None) -> float:
        return sum(self.top_s[k] for k in self._keys(kinds, prefix))

    def inclusive(self, name: str, kinds=None) -> np.ndarray:
        parts = [d for k in self._keys(kinds, name) if k[1] == name
                 for d in self.durations[k]]
        return np.concatenate(parts) if parts else np.zeros(0)

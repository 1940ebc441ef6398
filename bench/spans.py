"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the anosov_lab modules
from outside the program: it replaces each target on its class, and every
module-level name bound to it, with a wrapper that records a span.  Spans
are kept in memory as a call tree: calls with the same name under the same
parent span are merged into one node holding their call count, summed
inclusive and self time, and the number of points passed in.  Each node
records its parent.  ``write`` dumps the tree at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

# (module, attribute path, index of the points argument or None)
TARGETS = (
    ("config", "load_config", None),
    ("conjugacy", "solve_conjugacy", None),
    ("conjugacy", "compare_smooth_invariants", None),
    ("conjugacy", "estimate_holder_exponent", None),
    ("conjugacy", "Conjugacy.secant_jacobian", None),
    ("maps", "PerturbedMap.displacement", 1),
    ("maps", "PerturbedMap.jacobian", 1),
    ("maps", "InverseMap.jacobian", 1),
    ("maps", "InverseMap.lift", 1),
    ("maps", "ConjugatedMap.displacement", 1),
    ("maps", "ConjugatedMap.jacobian", 1),
    ("maps", "Diffeo.inverse_lift", 1),
    ("fourier", "FourierPerturbation.evaluate", 1),
    ("fourier", "FourierPerturbation.derivative", 1),
    ("foliations", "compute_line_field", None),
    ("foliations", "heteroclinic_points", None),
    ("foliations", "local_graph", None),
    ("foliations", "holonomy", None),
    ("foliations", "integrate_leaf", None),
    ("foliations", "LineField.direction_at", 1),
    ("foliations", "LineField.angle_at", 1),
    ("foliations", "CurveProjector.project", 1),
    ("interp", "PeriodicBicubic.__call__", 1),
    ("rigidity", "tangency_propagation_check", None),
    ("rigidity", "translation_action_from_conjugacy", None),
    ("rigidity", "linearize_translation_action", None),
    ("rigidity", "verify_action_regularity", None),
    ("reports", "RunReport.write", None),
)


def _count_points(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        shape = np.shape(x)
    return 1 if len(shape) <= 1 else int(shape[0])


class Tracer:
    """In-memory call tree of spans; node 0 is the untraced root."""

    def __init__(self):
        # node: [parent, name, calls, inclusive_s, self_s, points]
        self.nodes = [[-1, "<root>", 0, 0.0, 0.0, 0]]
        self._index = {}
        # frame: [node, start, time spent in child spans]
        self._stack = [[0, 0.0, 0.0]]

    def _node(self, parent: int, name: str) -> int:
        key = (parent, name)
        node = self._index.get(key)
        if node is None:
            node = len(self.nodes)
            self.nodes.append([parent, name, 0, 0.0, 0.0, 0])
            self._index[key] = node
        return node

    def wrap(self, fn, name: str, points_arg):
        stack = self._stack
        nodes = self.nodes
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            node = self._node(stack[-1][0], name)
            frame = [node, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                stack[-1][2] += elapsed
                rec = nodes[node]
                rec[2] += 1
                rec[3] += elapsed
                rec[4] += elapsed - frame[2]
                if points_arg is not None:
                    rec[5] += _count_points(args[points_arg])

        return traced

    def install(self, package: str = "anosov_lab") -> None:
        """Wrap every target; module-level aliases of a wrapped function in
        any loaded module of the package are rebound too."""
        for module_name, path, points_arg in TARGETS:
            module = importlib.import_module(f"{package}.{module_name}")
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            traced = self.wrap(original, f"{module_name}.{path}", points_arg)
            setattr(owner, attr, traced)
            if owner is module:
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith(package) and \
                            getattr(other, attr, None) is original:
                        setattr(other, attr, traced)

    def write(self, path: str) -> None:
        spans = [
            {"id": i, "parent": p, "name": name, "calls": calls,
             "inclusive_s": incl, "self_s": self_s, "points": points}
            for i, (p, name, calls, incl, self_s, points) in enumerate(self.nodes) if i
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans}, fh, indent=1)
            fh.write("\n")


# --- per-layer metrics from a written call tree ---------------------------

DISPLACEMENT = ("maps.PerturbedMap.displacement", "maps.ConjugatedMap.displacement")
JACOBIAN = ("maps.PerturbedMap.jacobian", "maps.InverseMap.jacobian", "maps.ConjugatedMap.jacobian")
LOOKUPS = ("foliations.LineField.direction_at", "foliations.LineField.angle_at")

# metric -> (quantity, span names, required ancestor span or None).  A
# quantity sums over the outermost spans of the set: a span nested inside
# another span of the same set is already counted in it.
SPAN_METRICS = {
    "config.load_s": ("time", ("config.load_config",), None),
    "conjugacy.solve_s": ("time", ("conjugacy.solve_conjugacy",), None),
    "conjugacy.solve_sweeps": ("calls", DISPLACEMENT, "conjugacy.solve_conjugacy"),
    "conjugacy.periodic_s": ("time", ("conjugacy.compare_smooth_invariants",), None),
    "conjugacy.periodic_jacobian_calls": ("calls", JACOBIAN, "conjugacy.compare_smooth_invariants"),
    "conjugacy.holder_s": ("time", ("conjugacy.estimate_holder_exponent",), None),
    "conjugacy.secant_jacobian_s": ("time", ("conjugacy.Conjugacy.secant_jacobian",), None),
    "maps.inverse_s": ("time", ("maps.InverseMap.lift", "maps.Diffeo.inverse_lift"), None),
    "maps.inverse_points": ("points", ("maps.InverseMap.lift", "maps.Diffeo.inverse_lift"), None),
    "fourier.eval_s": ("time", ("fourier.FourierPerturbation.evaluate",
                                "fourier.FourierPerturbation.derivative"), None),
    "fourier.eval_points": ("points", ("fourier.FourierPerturbation.evaluate",
                                       "fourier.FourierPerturbation.derivative"), None),
    "foliations.line_field_s": ("time", ("foliations.compute_line_field",), None),
    "foliations.heteroclinic_s": ("time", ("foliations.heteroclinic_points",), None),
    "foliations.local_graph_s": ("time", ("foliations.local_graph",), None),
    "foliations.holonomy_s": ("time", ("foliations.holonomy",), None),
    "foliations.integrate_leaf_s": ("time", ("foliations.integrate_leaf",), None),
    "foliations.field_lookups": ("calls", LOOKUPS, None),
    "foliations.field_lookup_points": ("points", LOOKUPS, None),
    "foliations.project_calls": ("calls", ("foliations.CurveProjector.project",), None),
    "foliations.project_points": ("points", ("foliations.CurveProjector.project",), None),
    "interp.eval_s": ("time", ("interp.PeriodicBicubic.__call__",), None),
    "interp.calls": ("calls", ("interp.PeriodicBicubic.__call__",), None),
    "interp.points": ("points", ("interp.PeriodicBicubic.__call__",), None),
    "rigidity.lemma3_s": ("time", ("rigidity.tangency_propagation_check",), None),
    "rigidity.prop1_s": ("time", ("rigidity.translation_action_from_conjugacy",
                                  "rigidity.linearize_translation_action",
                                  "rigidity.verify_action_regularity"), None),
    "reports.write_s": ("time", ("reports.RunReport.write",), None),
}
SELF_TIME_MODULES = ("conjugacy", "maps", "fourier", "foliations", "interp", "rigidity")
_FIELD = {"calls": "calls", "time": "inclusive_s", "points": "points"}


def _ancestors(spans_by_id, span):
    names = set()
    parent = span["parent"]
    while parent > 0:
        names.add(spans_by_id[parent]["name"])
        parent = spans_by_id[parent]["parent"]
    return names


def layer_metrics(spans) -> dict:
    """Per-layer metric values from a list of span records."""
    by_id = {s["id"]: s for s in spans}
    ancestors = {s["id"]: _ancestors(by_id, s) for s in spans}
    out = {}
    for metric, (quantity, names, inside) in SPAN_METRICS.items():
        total = 0
        for s in spans:
            anc = ancestors[s["id"]]
            if s["name"] in names and not anc.intersection(names) and (inside is None or inside in anc):
                total += s[_FIELD[quantity]]
        out[metric] = float(total) if quantity == "time" else int(total)
    for module in SELF_TIME_MODULES:
        out[f"{module}.self_s"] = float(sum(s["self_s"] for s in spans
                                            if s["name"].split(".")[0] == module))
    lookups = out["foliations.field_lookups"]
    out["foliations.points_per_lookup"] = out["foliations.field_lookup_points"] / lookups if lookups else 0.0
    return out


def top_level_time(spans) -> float:
    """Inclusive time of the spans that have no traced caller."""
    return float(sum(s["inclusive_s"] for s in spans if s["parent"] == 0))

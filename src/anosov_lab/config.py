"""Config document parsing and validation for the experiment driver.

A run is described by one JSON document with sections
{group, action, resolution, thresholds, experiment}; every field has a
default so a minimal config can be just ``{}``.  Dotted-key overrides
(``--set resolution.grid_n=512``) are applied before validation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .conjugacy import MAX_PERIOD
from .errors import ConfigError
from .fourier import FourierPerturbation
from .lattice import HyperbolicElement, IntMatrix2, eigen_data, is_hyperbolic
from .maps import ConjugatedMap, Diffeo, PerturbedMap, build_diffeo

DEFAULTS = {
    "group": {
        "generators": [[[2, 1], [1, 1]], [[1, 1], [1, 2]]],
    },
    "action": {
        # linear: the standard action; conjugated: phi o F o phi^{-1};
        # perturbed: g_i = A_i + p (contrast experiments)
        "kind": "linear",
        "diffeo": [],        # sin/cos terms for q (phi = id + q)
        "perturbation": [],  # sin/cos terms for p
        "scale": 1.0,
    },
    "resolution": {
        "grid_n": 256,
        "field_n": 128,
        "field_iters": 40,
        "leaf_step": 1e-3,
        "propagation_step": 4e-3,
        "max_period": 2,
    },
    "thresholds": {
        "transversality": 0.05,
        "lemma3": 1e-3,
        "prop1_residual": 1e-6,
        "jacobian": 1e-3,
        "periodic_mismatch": 1e-4,
    },
    "experiment": {
        "name": "teichmuller",
        "out_dir": "anosov-lab-out",
        "seed": 0,
        "eps": 0.05,
        "radius": 1,
        "slide_s": 1.0,
        "span": 0.35,
        # synthetic profile for the prop1 subcommand: h(x) = x + amp sin x
        "prop1_profile_amp": 0.1,
    },
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(here, "unknown key")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(here, "expected an object")
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = value
    return out


def _coerce(text: str):
    """Parse a --set value: JSON if it parses, bare string otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(doc: dict, pairs) -> dict:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(pair, "override must look like section.key=value")
        dotted, _, raw = pair.partition("=")
        keys = dotted.split(".")
        node = doc
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(dotted, "path runs through a non-object")
        node[keys[-1]] = _coerce(raw)
    return doc


@dataclass
class ExperimentConfig:
    """Validated, fully-defaulted run configuration."""

    doc: dict = field(repr=False)
    generators: list          # HyperbolicElement per group generator
    kind: str
    diffeo_q: FourierPerturbation
    perturbation_p: FourierPerturbation
    grid_n: int
    field_n: int
    field_iters: int
    leaf_step: float
    propagation_step: float
    max_period: int
    thresholds: dict
    name: str
    out_dir: str
    seed: int
    eps: float
    radius: int
    slide_s: float
    span: float
    prop1_profile_amp: float

    def echo(self) -> dict:
        """The fully resolved document (defaults included)."""
        return self.doc

    def build_phi(self) -> Diffeo | None:
        if self.diffeo_q.is_zero:
            return None
        return build_diffeo(self.diffeo_q)

    def build_handles(self):
        """Map handles for the generators per the configured action kind."""
        if self.kind == "linear":
            return [PerturbedMap(e, FourierPerturbation.zero()) for e in self.generators]
        if self.kind == "conjugated":
            q = self.diffeo_q
            phi = build_diffeo(q) if not q.is_zero else build_diffeo(FourierPerturbation.zero())
            return [ConjugatedMap(phi, e) for e in self.generators]
        return [PerturbedMap(e, self.perturbation_p) for e in self.generators]


def _sin_cos_terms(spec, path: str) -> FourierPerturbation:
    terms = []
    for i, item in enumerate(spec):
        here = f"{path}[{i}]"
        if not isinstance(item, dict) or "k" not in item:
            raise ConfigError(here, "each mode needs a wavevector 'k'")
        k = item["k"]
        if (not isinstance(k, (list, tuple))) or len(k) != 2:
            raise ConfigError(f"{here}.k", "wavevector must be a pair of integers")
        terms.append((k, item.get("sin"), item.get("cos")))
    return FourierPerturbation.from_sin_cos(terms) if terms else FourierPerturbation.zero()


def load_config(path: str | None = None, overrides=(), out_dir: str | None = None) -> ExperimentConfig:
    doc = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(path, f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(path, f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(path or "<config>", "top level must be an object")
    doc = apply_overrides(doc, overrides)
    doc = _merge(DEFAULTS, doc)
    return validate(doc, out_dir=out_dir)


def validate(doc: dict, out_dir: str | None = None) -> ExperimentConfig:
    gens = doc["group"]["generators"]
    if not isinstance(gens, list) or not gens:
        raise ConfigError("group.generators", "need at least one 2x2 integer matrix")
    elements = []
    for i, rows in enumerate(gens):
        here = f"group.generators[{i}]"
        arr = np.asarray(rows)
        if arr.shape != (2, 2) or not np.all(arr == np.round(arr)):
            raise ConfigError(here, "must be a 2x2 integer matrix")
        det = int(round(float(np.linalg.det(arr))))
        if det != 1:
            raise ConfigError(here, f"determinant {det} != 1 (not in SL(2,Z))")
        m = IntMatrix2.from_rows(rows)
        if not is_hyperbolic(m):
            raise ConfigError(here, "|trace| <= 2: not hyperbolic")
        elements.append(eigen_data(m))

    kind = doc["action"]["kind"]
    if kind not in ("linear", "conjugated", "perturbed"):
        raise ConfigError("action.kind", f"unknown kind {kind!r}")
    scale = float(doc["action"]["scale"])
    q = _sin_cos_terms(doc["action"]["diffeo"], "action.diffeo").scaled(scale)
    p = _sin_cos_terms(doc["action"]["perturbation"], "action.perturbation").scaled(scale)
    if kind == "conjugated" and q.deriv_bound >= 1.0:
        raise ConfigError("action.diffeo", f"||Dq|| bound {q.deriv_bound:.3f} >= 1: not a diffeo")

    res = doc["resolution"]
    grid_n = res["grid_n"]
    if not isinstance(grid_n, int) or grid_n < 64 or grid_n > 1024 or grid_n & (grid_n - 1):
        raise ConfigError("resolution.grid_n", "must be a power of two in [64, 1024]")
    for key in ("leaf_step", "propagation_step"):
        if not float(res[key]) > 0:
            raise ConfigError(f"resolution.{key}", "must be strictly positive")
    for key in ("field_n", "field_iters"):
        if not int(res[key]) > 0:
            raise ConfigError(f"resolution.{key}", "must be a positive integer")
    if not 1 <= int(res["max_period"]) <= MAX_PERIOD:
        raise ConfigError("resolution.max_period", f"must be an integer in [1, {MAX_PERIOD}]")

    thr = dict(doc["thresholds"])
    for key, value in thr.items():
        if not float(value) > 0:
            raise ConfigError(f"thresholds.{key}", "tolerances must be strictly positive")

    exp = doc["experiment"]
    resolved_out = os.environ.get("ANOSOV_LAB_OUT") or out_dir or exp["out_dir"]
    doc = json.loads(json.dumps(doc))  # deep copy, JSON-clean
    doc["experiment"]["out_dir"] = resolved_out
    return ExperimentConfig(
        doc=doc,
        generators=elements,
        kind=kind,
        diffeo_q=q,
        perturbation_p=p,
        grid_n=grid_n,
        field_n=int(res["field_n"]),
        field_iters=int(res["field_iters"]),
        leaf_step=float(res["leaf_step"]),
        propagation_step=float(res["propagation_step"]),
        max_period=int(res["max_period"]),
        thresholds=thr,
        name=str(exp["name"]),
        out_dir=resolved_out,
        seed=int(exp["seed"]),
        eps=float(exp["eps"]),
        radius=int(exp["radius"]),
        slide_s=float(exp["slide_s"]),
        span=float(exp["span"]),
        prop1_profile_amp=float(exp["prop1_profile_amp"]),
    )

"""Config document parsing and validation for the experiment driver.

A run is described by one JSON document with sections
{group, action, resolution, thresholds, experiment}; every field has a
default so a minimal config can be just ``{}``.  Dotted-key overrides
(``--set resolution.grid_n=512``) are applied before validation.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .conjugacy import MAX_PERIOD
from .errors import ConfigError
from .foliations import MAX_RADIUS
from .fourier import FourierPerturbation
from .lattice import IntMatrix2, eigen_data, is_hyperbolic
from .maps import ConjugatedMap, Diffeo, PerturbedMap

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
        "max_period": 2,
    },
    # the verdict thresholds
    "thresholds": {
        "transversality": 0.05,      # rad, Lemma-2 margin
        "lemma3": 1e-3,              # graph-transport deviation
        "prop1_residual": 1e-6,      # affinity residual of L
        "jacobian": 1e-3,            # secant-Jacobian refinement stability
        "periodic_mismatch": 1e-4,   # smooth-invariant obstruction
    },
    "experiment": {
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

    doc: dict = field(repr=False)  # the resolved document, defaults in, out_dir left out
    generators: list          # HyperbolicElement per group generator
    kind: str
    diffeo_q: FourierPerturbation
    perturbation_p: FourierPerturbation
    grid_n: int
    field_n: int
    max_period: int
    thresholds: dict
    out_dir: str
    seed: int
    eps: float
    radius: int
    slide_s: float
    span: float
    prop1_profile_amp: float

    def build_handles(self):
        """Map handles for the generators per the configured action kind."""
        if self.kind == "perturbed":
            return [PerturbedMap(e, self.perturbation_p) for e in self.generators]
        # the linear action is the conjugated one with phi = id
        q = self.diffeo_q if self.kind == "conjugated" else FourierPerturbation.zero()
        return [ConjugatedMap(Diffeo(q), e) for e in self.generators]


def _number(value, key: str, integer: bool = False):
    """A config value as a float, or as an int when ``integer``; anything
    else (a string, a bool, a non-finite or, for an integer key, a
    non-integral number) is a ConfigError naming the key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(key, f"{value!r} is not a finite number")
    if not integer:
        return float(value)
    if value != int(value):
        raise ConfigError(key, f"{value!r} is not an integer")
    return int(value)


def _pair(value, key: str, integer: bool = False) -> list:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(key, f"must be a pair of {'integers' if integer else 'numbers'}")
    return [_number(v, key, integer) for v in value]


def _sin_cos_terms(spec, path: str) -> FourierPerturbation:
    """Modes {k, sin, cos}, int64 holding k and -k, as a FourierPerturbation."""
    if not isinstance(spec, list):
        raise ConfigError(path, "must be a list of modes")
    terms = []
    for i, item in enumerate(spec):
        here = f"{path}[{i}]"
        if not isinstance(item, dict) or "k" not in item:
            raise ConfigError(here, "each mode needs a wavevector 'k'")
        unknown = sorted(set(item) - {"k", "sin", "cos"})
        if unknown:
            raise ConfigError(f"{here}.{unknown[0]}", "unknown key")
        k = _pair(item["k"], f"{here}.k", integer=True)
        if max(abs(k[0]), abs(k[1])) >= 2 ** 63:
            raise ConfigError(f"{here}.k", "|entry| must be below 2**63")
        amps = [None if item.get(name) is None else _pair(item[name], f"{here}.{name}")
                for name in ("sin", "cos")]
        terms.append((k, *amps))
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
        if not isinstance(rows, (list, tuple)) or len(rows) != 2:
            raise ConfigError(here, "must be a 2x2 integer matrix")
        (a, b), (c, d) = (_pair(row, here, integer=True) for row in rows)
        if a * d - b * c != 1:
            raise ConfigError(here, f"determinant {a * d - b * c} != 1 (not in SL(2,Z))")
        m = IntMatrix2(a, b, c, d)
        if not is_hyperbolic(m):
            raise ConfigError(here, "|trace| <= 2: not hyperbolic")
        elements.append(eigen_data(m))

    kind = doc["action"]["kind"]
    if kind not in ("linear", "conjugated", "perturbed"):
        raise ConfigError("action.kind", f"unknown kind {kind!r}")
    scale = _number(doc["action"]["scale"], "action.scale")
    q = _sin_cos_terms(doc["action"]["diffeo"], "action.diffeo").scaled(scale)
    p = _sin_cos_terms(doc["action"]["perturbation"], "action.perturbation").scaled(scale)
    if kind == "conjugated" and not q.deriv_bound < 1.0:  # a nan bound too
        raise ConfigError("action.diffeo", f"||Dq|| bound {q.deriv_bound:.3g} not < 1: not a diffeo")

    res = {key: _number(value, f"resolution.{key}", integer=True)
           for key, value in doc["resolution"].items()}
    for key, lo, hi in (("grid_n", 64, 1024), ("field_n", 16, 512)):
        n = res[key]
        if n < lo or n > hi or n & (n - 1):
            raise ConfigError(f"resolution.{key}", f"must be a power of two in [{lo}, {hi}]")
    if not 1 <= res["max_period"] <= MAX_PERIOD:
        raise ConfigError("resolution.max_period", f"must be an integer in [1, {MAX_PERIOD}]")

    thr = dict(doc["thresholds"])
    for key, value in thr.items():
        if not _number(value, f"thresholds.{key}") > 0:
            raise ConfigError(f"thresholds.{key}", "tolerances must be strictly positive")

    exp = {key: _number(value, f"experiment.{key}", integer=key in ("seed", "radius"))
           for key, value in doc["experiment"].items() if key != "out_dir"}
    if not 1 <= exp["radius"] <= MAX_RADIUS:
        raise ConfigError("experiment.radius", f"must be an integer in [1, {MAX_RADIUS}]")
    if exp["seed"] < 0:
        raise ConfigError("experiment.seed", "must be a non-negative integer")
    for key, hi in (("span", 1.0), ("eps", 0.25)):
        if not 0 < exp[key] <= hi:
            raise ConfigError(f"experiment.{key}", f"must lie in (0, {hi:g}]")
    if not (isinstance(doc["experiment"]["out_dir"], str) and doc["experiment"]["out_dir"]):
        raise ConfigError("experiment.out_dir", "must be a non-empty string")
    # an explicit --out wins over the environment, which wins over the config
    resolved_out = out_dir or os.environ.get("ANOSOV_LAB_OUT") or doc["experiment"]["out_dir"]
    doc = json.loads(json.dumps(doc))  # deep copy, JSON-clean
    # the echo leaves the output path out, so two directories get the same bytes
    del doc["experiment"]["out_dir"]
    return ExperimentConfig(
        doc=doc,
        generators=elements,
        kind=kind,
        diffeo_q=q,
        perturbation_p=p,
        thresholds=thr,
        out_dir=resolved_out,
        **res,
        **exp,
    )

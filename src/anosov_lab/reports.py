"""Deterministic report and data-file emission.

JSON reports are UTF-8 with LF line endings and sorted keys; floats use
Python's shortest round-trip repr, so identical runs produce byte-identical
files.  Diagnostic tables go to CSV with a header row.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import IoError


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and tuples to JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and obj != obj:  # NaN is not valid JSON
        return None
    return obj


def dump_json(doc: dict, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(_jsonable(doc), fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"{path}: {exc}")


def dump_csv(path: str, header, rows) -> None:
    """Rows of numbers/strings; floats formatted with repr (round-trip)."""

    def cell(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return str(v)

    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(cell(v) for v in row) + "\n")
    except OSError as exc:
        raise IoError(f"{path}: {exc}")


def line_field_rows(field):
    n = field.grid_size
    for i in range(n):
        for j in range(n):
            yield i, j, float(field.theta[i, j])


def leaf_rows(leaf):
    """(s, x, y, lift_x, lift_y) per node of a LeafBundle."""
    for s, pt in zip(leaf.params, leaf.points):
        x, y = np.mod(pt, 1.0)
        yield float(s), float(x), float(y), float(pt[0]), float(pt[1])


def conjugacy_rows(h):
    n = h.grid_size
    u = h.values.reshape(n, n, 2)
    for i in range(n):
        for j in range(n):
            yield i, j, float(u[i, j, 0]), float(u[i, j, 1])


def periodic_rows(report):
    for row in report.rows:
        yield (row["period"], row["point_x"], row["point_y"],
               row["mult_u"], row["mult_s"], row["mismatch"])


class RunReport:
    """Collects one run's outputs and writes the report bundle."""

    def __init__(self, config_echo: dict, name: str):
        self.config_echo = config_echo
        self.name = name
        self.diagnostics: dict = {}
        self.timings: dict = {}  # wall seconds by stage name
        self.verdict: str | None = None
        self.tables: list = []  # (filename, header, rows-list)

    def add_table(self, filename: str, header, rows) -> None:
        self.tables.append((filename, list(header), [tuple(r) for r in rows]))

    def document(self) -> dict:
        doc = {
            "config_echo": self.config_echo,
            "experiment": self.name,
            "diagnostics": self.diagnostics,
            "timings_present": sorted(self.timings),
            "manifest": [name for name, _, _ in self.tables] + [f"{self.name}-report.json"],
        }
        if self.verdict is not None:
            doc["verdict"] = self.verdict
        return doc

    def write(self, out_dir: str) -> list:
        """Emit the JSON report and CSV tables; returns written paths.

        Timings vary run to run, so they go to a separate sidecar file and
        stay out of the deterministic report.
        """
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise IoError(f"{out_dir}: {exc}")
        written = []
        for filename, header, rows in self.tables:
            path = os.path.join(out_dir, filename)
            dump_csv(path, header, rows)
            written.append(path)
        report_path = os.path.join(out_dir, f"{self.name}-report.json")
        dump_json(self.document(), report_path)
        written.append(report_path)
        dump_json({"timings_seconds": self.timings},
                  os.path.join(out_dir, f"{self.name}-timings.json"))
        for path in written:
            if not os.path.isfile(path) or os.path.getsize(path) == 0:
                raise IoError(f"manifest entry missing or empty: {path}")
        return written

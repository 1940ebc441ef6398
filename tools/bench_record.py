"""Run the benchmark on one checkout and write its ``BENCH_<workload>.json``.

    python3 tools/bench_record.py --out DIR [--checkout DIR] [--workload NAME]
                                  [--seed N] [--seconds S]

For each workload (all three unless one is named) this runs the checkout's
``bench/run.py --workload W --seed S --seconds T`` twice, untraced and
traced, and writes ``DIR/BENCH_<workload>.json`` holding:

- ``end_to_end``: the per-operation samples of ``run_s``, ``setup_s`` and
  ``peak_rss_mb``, with their median and quartiles, next to the medians
  that ``bench/run.py`` reports;
- ``per_layer`` and ``checks``: the traced run's per-layer metrics and its
  ``check.*`` values;
- ``git``: the checkout's revision, and whether its tracked files differ
  from it;
- ``checkout_path_length``: the length of the checkout's absolute path;
- ``host``: the CPU model and count, and the Python, numpy and scipy
  versions (scipy ``null`` when it is not installed).

The checkout may be another tree, such as a clone of the parent commit, so
that one copy of this script records both sides of a change on one host.
Record both sides at paths of equal length: ``peak_rss_mb`` moves by
0.1–0.3 MB with the length of the checkout's path alone, so peak-RSS
pairs taken at paths of different lengths read that shift as a change of
the code.
Exits 1 when a run prints no result line.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("teichmuller-linear", "teichmuller-conjugated", "teichmuller-perturbed")
# the untraced operation lines and the set-up processes of bench/run.py
OP_LINE = re.compile(r"^op \d+ \(run\): run_s ([0-9.]+) s .*setup_s ([0-9.]+) s .*"
                     r"peak_rss ([0-9.]+) MB")
SETUP_LINE = re.compile(r"setup_s of the set-up processes \[([0-9., ]*)\]")


def summary(samples: list) -> dict:
    """The samples, their median and their quartiles (both the one sample
    when there is one)."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = q3 = samples[0]
    return {"samples": samples, "median": statistics.median(samples), "quartiles": [q1, q3]}


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    """(stdout lines, result dict) of one bench/run.py run."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    if not results:
        raise RuntimeError(f"{' '.join(argv[1:])} printed no result line "
                           f"(exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return lines, results[-1]


def end_to_end(lines: list, result: dict) -> dict:
    ops = [tuple(map(float, m.groups())) for m in map(OP_LINE.match, lines) if m]
    setups = [float(v) for m in map(SETUP_LINE.search, lines) if m
              for v in m.group(1).split(",") if v.strip()]
    # bench/run.py takes the median setup_s over the set-up processes and
    # the untraced operations together
    samples = {"run_s": [op[0] for op in ops],
               "setup_s": setups + [op[1] for op in ops],
               "peak_rss_mb": [op[2] for op in ops]}
    return {name: {**summary(values), "reported": result["metrics"][name]["value"],
                   "unit": result["metrics"][name]["unit"]}
            for name, values in samples.items()}


def git_state(checkout: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                              check=True).stdout.strip()
    return {"revision": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def host() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
    except OSError:
        pass

    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {"cpu_model": model or platform.processor() or None, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


def record(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    lines, untraced = bench(checkout, workload, seed, seconds, 0)
    _, traced = bench(checkout, workload, seed, seconds, 1)
    layers = traced["metrics"]
    return {
        "workload": workload,
        "command": ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0|1"],
        "git": git_state(checkout),
        "checkout_path_length": len(str(checkout)),
        "host": host(),
        "runs": {mode: {k: r[k] for k in ("correct", "attempted", "failed")}
                 for mode, r in (("untraced", untraced), ("traced", traced))},
        "end_to_end": end_to_end(lines, untraced),
        "per_layer": {k: v for k, v in layers.items() if not k.startswith("check.")},
        "checks": {k: v for k, v in layers.items() if k.startswith("check.")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path,
                        help="directory to write BENCH_<workload>.json into")
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout whose bench/run.py runs (default: this one)")
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            doc = record(args.checkout.resolve(), workload, args.seed, args.seconds)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        path = args.out / f"BENCH_{workload}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

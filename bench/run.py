"""anosov-lab benchmark: timed, oracle-checked ``teichmuller`` experiments.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout.  Every operation is one
``anosov-lab teichmuller`` experiment in a fresh Python process (see
worker.py), one at a time, with BLAS limited to one thread.  Operations
repeat until ``--seconds`` have passed, so every run does at least one.
Around them the benchmark starts SETUP_REPEATS processes that only import
the program and load the workload config, for the median ``setup_s``.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics of BENCHMARK.json.  With ``--trace 1`` each round is one untraced
and one traced operation, and the last line reports the per-layer
metrics; the trace overhead is the traced minus the untraced ``run_s``.
Reported times are load-corrected with worker.py's speed probe (see
REFERENCE_KERNEL_S).  Every report is checked against the closed forms in
oracles.py, and every operation of a run must write a byte-identical report
bundle (the timings sidecar aside).  Exit status is 0 whenever a result line
is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics, top_level_time
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ".bench_out"            # pinned output path, relative to ROOT
SETUP_REPEATS = 2
DEADLINE_S = 170.0                 # no work starts after this; a run must end within 180 s
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TIMINGS_SUFFIX = "-timings.json"
# Reported times are wall times scaled by REFERENCE_KERNEL_S over the mean
# time of worker.SpeedProbe's kernel in the same phase of the same process:
# seconds on a machine where that kernel takes 60 us, as the 2-vCPU Xeon VM
# the benchmark was tuned on does when its host is quiet.  Other tenants of
# that host swing its speed by 1.6x within seconds, which moves raw wall
# times by more than any bound allows.
REFERENCE_KERNEL_S = 60e-6


def corrected(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_KERNEL_S / kernel_s


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ANOSOV_LAB_OUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def spawn(mode: str, cli_args: list, timeout: float, trace_file: str | None = None):
    """Run worker.py once; (result dict or None, error text)."""
    argv = [sys.executable, str(ROOT / "bench" / "worker.py"), "--mode", mode]
    if trace_file:
        argv += ["--trace-file", trace_file]
    env = child_env()
    proc = subprocess.Popen([*argv, "--spawned", repr(_now()), "--", *cli_args], cwd=ROOT,
                            env=env, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"{mode} worker killed after {timeout:.0f} s"
    lines = out.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1]), ""
    except ValueError:
        pass
    return None, f"{mode} worker exited {proc.returncode}: {err.strip()[-2000:]}"


def read_bundle(out_dir: Path):
    """(sha256 over name and bytes of each file, total bytes), timings left out."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.iterdir()):
        if path.name.endswith(TIMINGS_SUFFIX):
            continue
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


class Operation:
    """One experiment: its measurements, checks, bundle digest and spans."""

    def __init__(self, mode: str):
        self.mode = mode
        self.result = None
        self.error = ""
        self.checks = []
        self.errors = {}
        self.digest = None
        self.size = 0
        self.spans = None

    @property
    def completed(self) -> bool:
        return self.result is not None and not self.error

    @property
    def failed(self) -> bool:
        return not self.completed or not all(c.ok for c in self.checks)


def run_operation(workload, mode: str, seed: int, timeout: float) -> Operation:
    op = Operation(mode)
    out_dir = ROOT / OUT_ROOT / workload.name
    shutil.rmtree(out_dir, ignore_errors=True)
    trace_file = f"{OUT_ROOT}/{workload.name}-spans.json" if mode == "trace" else None
    op.result, op.error = spawn(mode, workload.cli_args(seed, f"{OUT_ROOT}/{workload.name}"),
                                timeout, trace_file)
    if op.result is None:
        return op
    try:
        report = json.loads((out_dir / "teichmuller-report.json").read_text(encoding="utf-8"))
        op.checks, op.errors = workload.check(report, op.result["exit_code"])
        op.digest, op.size = read_bundle(out_dir)
        if trace_file:
            op.spans = json.loads((ROOT / trace_file).read_text(encoding="utf-8"))["spans"]
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        op.error = f"unreadable output: {type(exc).__name__}: {exc}"
    return op


def print_spans(spans) -> None:
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def walk(parent, depth):
        for s in sorted(children.get(parent, []), key=lambda s: -s["inclusive_s"]):
            print(f"  {'  ' * depth}{s['name']}: calls={s['calls']} inclusive={s['inclusive_s']:.4f} s "
                  f"self={s['self_s']:.4f} s points={s['points']}")
            walk(s["id"], depth + 1)

    print("spans in wall seconds (ids and parents are in the spans file):")
    walk(0, 0)


def end_to_end_metrics(ops, setups) -> dict:
    runs = [op.result for op in ops if op.completed and op.mode == "run"]
    return {
        "run_s": statistics.median(corrected(r["run_s"], r["run_kernel_s"]) for r in runs),
        "setup_s": statistics.median(corrected(r["setup_s"], r["setup_kernel_s"])
                                     for r in setups + runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer_metrics(rounds, problems) -> dict:
    """Medians over the traced operations; every count must repeat exactly."""
    per_op = []
    for untraced, traced in rounds:
        scale = corrected(1.0, traced.result["run_kernel_s"])
        values = {k: v * scale if k.endswith("_s") else v
                  for k, v in layer_metrics(traced.spans).items()}
        values["reports.bytes"] = traced.size
        values.update({f"check.{k}": v for k, v in traced.errors.items()})
        values["trace.run_s"] = traced.result["run_s"] * scale
        values["trace.overhead_s"] = values["trace.run_s"] - corrected(
            untraced.result["run_s"], untraced.result["run_kernel_s"])
        values["trace.coverage"] = 100.0 * top_level_time(traced.spans) / traced.result["run_s"]
        per_op.append(values)
    out = {}
    for name in per_op[0]:
        samples = [v[name] for v in per_op]
        if isinstance(samples[0], int):
            if len(set(samples)) > 1:
                problems.append(f"count {name} differs between traced operations: {samples}")
            out[name] = samples[0]
        else:
            out[name] = statistics.median(samples)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="'all' runs every workload untraced, then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "anosov_lab" / "cli.py").is_file():
        print(f"error: no anosov_lab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        return run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    codes = [run(w, args.seed, args.seconds, trace) for w in WORKLOADS.values() for trace in (0, 1)]
    return max(codes)


def run(workload, seed: int, seconds: float, trace: int) -> int:
    """Measure one workload; prints the result line and returns 0 when it did."""
    started = _now()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (ROOT / OUT_ROOT).mkdir(exist_ok=True)

    def time_left() -> float:
        return DEADLINE_S - (_now() - started)

    setups = []

    def measure_setups(count: int) -> bool:
        for _ in range(count):
            result, error = spawn("setup", workload.cli_args(seed, f"{OUT_ROOT}/{workload.name}"),
                                  time_left())
            if result is None:
                print(f"error: {error}", file=sys.stderr)
                return False
            setups.append(result)
        return True

    # one set-up sample before the operations and one after, so that the
    # median spans the run rather than one moment of machine load
    if not measure_setups(SETUP_REPEATS // 2):
        return 1
    round_modes = ("run", "trace") if trace else ("run",)
    ops = []
    measure_start = _now()
    while True:
        round_start = _now()
        for mode in round_modes:
            ops.append(run_operation(workload, mode, seed, time_left()))
        round_s = _now() - round_start
        if _now() - measure_start >= seconds or time_left() < 1.2 * round_s:
            break
    if not measure_setups(SETUP_REPEATS - SETUP_REPEATS // 2):
        return 1

    print(f"workload {workload.name} seed {seed} trace {trace}: "
          f"{len(ops)} operation(s), {sum(op.failed for op in ops)} failed")
    problems = []
    for i, op in enumerate(ops, 1):
        if not op.completed:
            print(f"op {i} ({op.mode}): FAILED {op.error}")
            continue
        r = op.result
        print(f"op {i} ({op.mode}): run_s {corrected(r['run_s'], r['run_kernel_s']):.3f} s "
              f"(wall {r['run_s']:.3f} s, probe kernel {r['run_kernel_s'] * 1e6:.1f} us), "
              f"setup_s {corrected(r['setup_s'], r['setup_kernel_s']):.3f} s "
              f"(wall {r['setup_s']:.3f} s), peak_rss {r['peak_rss_mb']:.1f} MB, exit {r['exit_code']}")
        for c in op.checks:
            if i == 1 or not c.ok:
                print(f"  {'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}")
        if any(not c.ok for c in op.checks):
            problems.append(f"op {i}: correctness check failed")
    digests = {op.digest for op in ops if op.completed}
    if len(digests) > 1:
        problems.append("report bundles differ between operations of the same config and seed")
    print(f"report bundle: {ops[0].size} B, "
          f"{'identical' if len(digests) == 1 else 'DIFFERENT'} across {len(ops)} operation(s)")

    # (untraced, traced) pairs of the rounds in which both operations completed
    rounds = [(a, b) for a, b in zip(ops[::2], ops[1::2]) if a.completed and b.completed]
    if not any(op.completed and op.mode == "run" for op in ops) or (trace and not rounds):
        print("error: no operation completed", file=sys.stderr)
        return 1
    run_times = sorted(corrected(op.result["run_s"], op.result["run_kernel_s"])
                       for op in ops if op.completed and op.mode == "run")
    setup_times = sorted(round(corrected(r["setup_s"], r["setup_kernel_s"]), 3) for r in setups)
    print(f"run_s over {len(run_times)} untraced operation(s): min {run_times[0]:.3f} s, "
          f"max {run_times[-1]:.3f} s; setup_s of the set-up processes {setup_times}")
    if trace:
        print_spans(rounds[0][1].spans)
        values = per_layer_metrics(rounds, problems)
        declared = manifest["per_layer"]
    else:
        values = end_to_end_metrics(ops, setups)
        declared = manifest["end_to_end"]
    if {m["name"] for m in declared} != set(values):
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted({m['name'] for m in declared} ^ set(values))}", file=sys.stderr)
        return 1
    for m in declared:
        print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']}")
    for p in problems:
        print(f"PROBLEM {p}")
    metrics = {m["name"]: {"value": values[m["name"]] if math.isfinite(values[m["name"]]) else -1.0,
                           "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": not problems and all(math.isfinite(values[m["name"]]) for m in declared),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark operation in a fresh Python process.

    python3 bench/worker.py --mode {setup,run,trace} --spawned T [--trace-file F] -- <cli args>

``T`` is the CLOCK_MONOTONIC reading the parent took just before starting
this process, so ``setup_s`` runs from process start until anosov_lab.cli
is imported and the config is loaded and validated.  ``setup`` stops
there; ``run`` then times one in-process ``anosov_lab.cli.main`` call;
``trace`` does the same under the span tracer and writes the call tree.

Throughout, a SpeedProbe times a fixed pure-Python kernel every 50 ms, so
that run.py can correct the wall times for the load other tenants put on
the machine.  The last line of standard output is a JSON object with the
wall times, the probe's mean kernel time in each phase, the exit code and
the peak RSS.
"""

import argparse
import json
import resource
import signal
import sys
import time

PROBE_PERIOD_S = 0.05
PROBE_MIN_SAMPLES = 5


def _kernel() -> int:
    x = 0
    for i in range(1000):
        x += i * i
    return x


class SpeedProbe:
    """Samples the machine's current speed for Python code: on SIGALRM every
    PROBE_PERIOD_S of wall time it times ``_kernel``.  A sample waits for the
    running bytecode (or C call) to finish, and costs about 0.1% of the run."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def phase(self) -> float:
        """Interquartile mean of the kernel times since the previous call;
        starts a new phase."""
        while len(self.samples) < PROBE_MIN_SAMPLES:
            self._sample(None, None)
        samples = sorted(self.samples)
        quarter = len(samples) // 4
        middle = samples[quarter:len(samples) - quarter]
        self.samples = []
        return sum(middle) / len(middle)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return self.phase()


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from anosov_lab import cli
    from anosov_lab.config import load_config

    parsed = cli.build_parser().parse_args(cli_args)
    load_config(parsed.config, parsed.overrides, out_dir=parsed.out)
    result = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned}
    if args.mode == "setup":
        result["setup_kernel_s"] = probe.stop()
        print(json.dumps(result))
        return 0
    result["setup_kernel_s"] = probe.phase()

    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    exit_code = cli.main(cli_args)
    result["run_s"] = time.perf_counter() - start
    result["run_kernel_s"] = probe.stop()
    result["exit_code"] = exit_code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(args.trace_file)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

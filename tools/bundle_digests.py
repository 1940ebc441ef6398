"""Print one sha256 per report file of a fixed set of ``anosov-lab`` runs.

    PYTHONPATH=src python3 tools/bundle_digests.py > digests.txt

The runs are all nine subcommands on the default config and on the action
conjugated by phi = id + (0.02 sin 2 pi x2, 0), ``teichmuller`` on the
overrides of each benchmark workload (bench/workloads.py, seed 1), and
``teichmuller`` on four configs that end in ``inconclusive`` or
``obstructed``, so that the error paths of its stages are covered, the
other subcommands in two runs that fail (``periodic-data`` on a perturbed
map that is no diffeomorphism, and ``eigen`` given one generator), so that
their failure strings are covered too, ``prop1`` at phi 0.10 and 0.15, and
``periodic-data`` at phi 0.15 to ``resolution.max_period`` 2 and 4, whose
seed cycles of A Newton on the linear seeds used to diverge on.  Three
more runs walk map code that the others do not: ``foliation`` on a
perturbed action (the line fields read off the orbits of ``PerturbedMap``
and ``InverseMap``, whose steps are Newton inverses), and ``teichmuller``
and ``foliation`` on an action conjugated by a two-mode phi (D phi summed
over two wavevectors).  Three runs solve the conjugacy alone: at ``grid_n`` 512 on the phi 0.02 action,
at the default ``grid_n`` on the phi 0.15 action, and at ``grid_n`` 1024
on a two-mode perturbation p.  Two runs are ``teichmuller`` on phi of one
mode other than (0, 1), (1, -1) and (0, 2), which end ``smooth``.  Five
last runs shoot Lemma 3 where the others do not: ``teichmuller`` and
``lemma3`` at phi 0.05, and ``teichmuller`` at phi 0.10, which end
``smooth``; ``lemma3`` at ``experiment.radius`` 3 on phi 0.02; and
``lemma3`` on a perturbed action, whose orbits step ``PerturbedMap`` and
``InverseMap``.  Two more sample leaves where ``D phi v_s`` turns its first
coordinate negative: ``factorize`` and ``foliation`` at phi 0.15.  The
last run is ``periodic-data`` to ``resolution.max_period`` 5 on a first
generator of negative trace, [[-2, -1], [-1, -1]], whose det(A^n - I) is
positive at odd n, so that both signs of the determinant seed the finder.
Each run writes into its own temporary ``--out``; the timings sidecars
(``*-timings.json``), which hold wall times, are left out.  Every other
file of a bundle is deterministic, so two checkouts write the same bundles
exactly when the outputs of this script for them are equal: run it once
with each checkout's ``src`` on PYTHONPATH and ``diff`` the two outputs.
The package imported is named on standard error.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import anosov_lab  # noqa: E402
from anosov_lab.cli import COMMANDS, main  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
# the conjugated workload's action, on the default experiment settings
PHI = [s for s in WORKLOADS["teichmuller-conjugated"].overrides(SEED)
       if not s.startswith("experiment.")]
# teichmuller runs that are not smooth, and where each one ends
ERROR_PATHS = {
    # pair: only one generator map was given
    "one-generator": ["group.generators=[[[2,1],[1,1]]]"],
    # pair: the second map of a perturbed pair is not used
    "perturbed-pair-1e-6": ["action.kind=perturbed",
                            'action.perturbation=[{"k":[0,1],"sin":[1e-6,0]}]'],
    # obstructed by period-2 data
    "perturbed-1e-2": ["action.kind=perturbed",
                       'action.perturbation=[{"k":[0,1],"sin":[1e-2,0]}]'],
    # pair_hypothesis: the eigen-directions are not pairwise transverse
    "equal-generators": ["group.generators=[[[2,1],[1,1]],[[2,1],[1,1]]]"],
}


# (label, subcommand, overrides) of subcommand runs that fail, and how,
# and of Prop 1 and periodic data at strong phi
SUBCOMMAND_ERROR_PATHS = (
    # Prop 1 at strong phi
    ("phi-0.10", "prop1", ["action.kind=conjugated", 'action.diffeo=[{"k":[0,1],"sin":[0.1,0]}]']),
    ("phi-0.15", "prop1", ["action.kind=conjugated", 'action.diffeo=[{"k":[0,1],"sin":[0.15,0]}]']),
    # periodic data at strong phi, exit 0: 1 + 3 orbits, where Newton on
    # the linear seeds diverged at 2 seeds
    ("phi-0.15", "periodic-data",
     ["action.kind=conjugated", 'action.diffeo=[{"k":[0,1],"sin":[0.15,0]}]']),
    # 1 + 3 + 6 + 13 orbits, where Newton diverged at 32 seeds and left 9
    # cycles of A of length 4 with 1 or 2 of their 4 points
    ("phi-0.15-max-period-4", "periodic-data",
     ["action.kind=conjugated", 'action.diffeo=[{"k":[0,1],"sin":[0.15,0]}]',
      "resolution.max_period=4"]),
    # SolverDiverged: period 2: the solve on the seeds stalls, since
    # det Dg = 1 - 2.51 cos 2 pi x2 vanishes and no h exists
    ("perturbed-0.4-max-period-3", "periodic-data",
     ["action.kind=perturbed", 'action.perturbation=[{"k":[0,1],"sin":[0.4,0]}]',
      "resolution.max_period=3"]),
    # a subcommand that needs a pair, given one generator: a config error,
    # so exit 1 and no bundle
    ("one-generator", "eigen", ERROR_PATHS["one-generator"]),
)


# the config of CI's "Line fields of a perturbed map" smoke run
PERTURBED_FIELD_N_64 = ["action.kind=perturbed",
                        'action.perturbation=[{"k":[0,1],"sin":[0.0047746482927568605,0]}]',
                        "resolution.field_n=64"]
# (label, subcommand, overrides) of runs on map paths the runs above miss
MAP_PATHS = (
    ("perturbed-field-n-64", "foliation", PERTURBED_FIELD_N_64),
    *(("two-mode-phi", command,
       ["action.kind=conjugated",
        'action.diffeo=[{"k":[0,1],"sin":[0.03,0]},{"k":[1,1],"sin":[0,0.01]}]'])
      for command in ("teichmuller", "foliation")),
    # the conjugacy solve of the phi 0.02 action on a second, finer grid
    ("phi-0.02-grid-512", "conjugacy", [*PHI, "resolution.grid_n=512"]),
    # the conjugacy solve of the phi 0.15 action, |Dq| = 0.94, where the
    # start from the coarse solve lies closest to the solve's stop
    ("phi-0.15", "conjugacy",
     ["action.kind=conjugated", 'action.diffeo=[{"k":[0,1],"sin":[0.15,0]}]']),
    # the N = 1024 conjugacy solve on a two-mode p, one of whose terms is
    # mixed, so that the evaluation of p runs on more than one wavevector
    ("two-mode-p-grid-1024", "conjugacy",
     ["action.kind=perturbed",
      'action.perturbation=[{"k":[0,1],"sin":[0.003,0]},'
      '{"k":[1,1],"sin":[0,0.002],"cos":[0.001,0]}]',
      "resolution.grid_n=1024"]),
    # teichmuller on phi of one mode other than (0, 1), which ends smooth
    ("mode-1-m1", "teichmuller",
     ["action.kind=conjugated", 'action.diffeo=[{"k":[1,-1],"sin":[0,0.01]}]']),
    ("mode-0-2", "teichmuller",
     ["action.kind=conjugated", 'action.diffeo=[{"k":[0,2],"sin":[0.005,0]}]']),
)


PHI_05 = ["action.kind=conjugated", 'action.diffeo=[{"k":[0,1],"sin":[0.05,0]}]']
# (label, subcommand, overrides) of Lemma 3 runs on orbits the runs above
# do not shoot
LEMMA3_PATHS = (
    # smooth at phi 0.05 and 0.10
    ("phi-0.05", "teichmuller", PHI_05),
    ("phi-0.05", "lemma3", PHI_05),
    ("phi-0.10", "teichmuller",
     ["action.kind=conjugated", 'action.diffeo=[{"k":[0,1],"sin":[0.1,0]}]']),
    # 48 lattice vectors
    ("phi-0.02-radius-3", "lemma3", [*PHI, "experiment.radius=3"]),
    # the orbits of PerturbedMap and InverseMap, on a pair that no one h
    # conjugates to its linear parts: the transport deviation reads 3.2e-3
    ("perturbed-field-n-64", "lemma3", PERTURBED_FIELD_N_64),
)


PHI_15 = ["action.kind=conjugated", 'action.diffeo=[{"k":[0,1],"sin":[0.15,0]}]']
# (label, subcommand, overrides) of shot leaves at |D q| = 0.94
LEAF_PATHS = (
    ("phi-0.15", "factorize", PHI_15),
    ("phi-0.15", "foliation", PHI_15),
)


# (label, subcommand, overrides) of periodic seeds where det(A^n - I) > 0
SEED_PATHS = (
    # 64 orbits over periods 1 to 5
    ("negative-trace-max-period-5", "periodic-data",
     ["group.generators=[[[-2,-1],[-1,-1]],[[1,1],[1,2]]]", "resolution.max_period=5"]),
)


def _sets(overrides):
    return [arg for item in overrides for arg in ("--set", item)]


def runs():
    """(label, argv without --out) of every run, in a fixed order."""
    for config, overrides in (("default", []), ("phi-0.02", PHI)):
        for command in COMMANDS:
            yield f"{config}/{command}", [command, *_sets(overrides)]
    for name, workload in WORKLOADS.items():
        yield f"{name}/teichmuller", ["teichmuller", *_sets(workload.overrides(SEED))]
    for name, overrides in ERROR_PATHS.items():
        yield f"{name}/teichmuller", ["teichmuller", *_sets(overrides)]
    for name, command, overrides in (*SUBCOMMAND_ERROR_PATHS, *MAP_PATHS, *LEMMA3_PATHS,
                                     *LEAF_PATHS, *SEED_PATHS):
        yield f"{name}/{command}", [command, *_sets(overrides)]


def digests(label, argv):
    """The run's exit code, then '<sha256>  <label>/<file>' for each file of
    its bundle, timings left out."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", out])
        files = sorted(p for p in Path(out).rglob("*")
                       if p.is_file() and not p.name.endswith("-timings.json"))
        lines = [f"exit {code}  {label}"]
        lines += [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {label}/{p.relative_to(out)}"
                  for p in files]
    return lines


if __name__ == "__main__":
    print(f"anosov_lab from {Path(anosov_lab.__file__).parent}", file=sys.stderr)
    for label, argv in runs():
        print("\n".join(digests(label, argv)), flush=True)

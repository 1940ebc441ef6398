"""Work-count guards for the Lemma 3 shooting of ``teichmuller`` runs and
for the trig evaluations of the line fields.

The counts are deterministic: a run evaluates the same orbits and takes
the same Newton steps on every machine.  ``foliations._shoot`` takes
NEWTON_STEPS steps at each of the ORBIT_LENGTHS for every row, so the
Newton iterations of a run are pinned exactly, and so are the orbit
evaluations (``orbit`` calls and points of every map handle) and the
field lookups (``LineField.angle_at`` calls and points) of Lemma 3: the
frame directions at z and every z', three lookups in all, each one orbit
of length 16 at its 9 points.  A change in any of these numbers fails.

The periodic-orbit solve's work on the perturbed workload's map is
pinned too: over periods 1 to 7, its evaluations of p per period and the
one ``PerturbedMap.orbit`` call per period at the orbit heads.

A line field reads two orbits of its map handle, of lengths 12 and 16, and
the number of trig evaluations of the Fourier terms (``trig`` calls) that
they take is pinned for each kind of handle.

Each map handle carries the eigen-frame of its linear part, so a
``teichmuller`` run forms a frame (``lattice.eigen_data``) only for each
generator and each inverse handle.
"""

import json
import sys

import pytest

from anosov_lab import foliations, lattice, maps, rigidity
from anosov_lab.cli import main
from anosov_lab.conjugacy import compare_smooth_invariants
from anosov_lab.fourier import FourierPerturbation
from anosov_lab.maps import InverseMap

PHI_02 = ["--set", "action.kind=conjugated",
          "--set", "action.diffeo=" + json.dumps([{"k": [0, 1], "sin": [0.02, 0]}])]


def _lemma3_work(tmp_path, monkeypatch, args):
    """Shooting work of the Lemma 3 stage of one in-process ``teichmuller``
    run: ``_shoot`` calls and their Newton iterations (calls of the
    position function, with their rows), the ``orbit`` calls and points of
    every handle, and the calls and points of ``LineField.angle_at``."""
    counts = dict.fromkeys(("shoot_calls", "newton_iterations", "newton_rows", "orbit_calls",
                            "orbit_points", "lookup_calls", "lookup_points"), 0)
    inside = [False]
    shoot, angle_at = foliations._shoot, foliations.LineField.angle_at

    def counting_shoot(leaves, position, x, tags=None):
        counts["shoot_calls"] += 1

        def counted(x):
            counts["newton_iterations"] += 1
            counts["newton_rows"] += len(x)
            return position(x)

        return shoot(leaves, counted, x, tags)

    def counting(kind, method):
        def wrapper(self, x, *args):
            if inside[0]:
                counts[f"{kind}_calls"] += 1
                counts[f"{kind}_points"] += len(x)
            return method(self, x, *args)
        return wrapper

    def flagged(*args, **kwargs):
        inside[0] = True
        try:
            return check(*args, **kwargs)
        finally:
            inside[0] = False

    check = rigidity.tangency_propagation_check
    monkeypatch.delenv("ANOSOV_LAB_OUT", raising=False)
    monkeypatch.setattr(foliations, "_shoot", counting_shoot)
    monkeypatch.setattr(foliations.LineField, "angle_at", counting("lookup", angle_at))
    for handle in (maps.PerturbedMap, maps.InverseMap, maps.ConjugatedMap):
        monkeypatch.setattr(handle, "orbit", counting("orbit", handle.orbit))
    monkeypatch.setattr(rigidity, "tangency_propagation_check", flagged)
    assert main(["teichmuller", *args, "--out", str(tmp_path)]) == 0
    return counts


def test_default_teichmuller_run_shoots_within_counts(tmp_path, monkeypatch):
    counts = _lemma3_work(tmp_path, monkeypatch, [])
    # the heteroclinic points in closed form; the 9 x 41 local-graph points
    # (two conditions), their s and the two holonomies of 8 x 49 rows: 4
    # solves of 20 Newton iterations, each orbit length with its reference
    # orbits, 125 orbits; and the 3 frame lookups, one orbit of 9 points each
    assert counts == {"shoot_calls": 4, "newton_iterations": 80, "newton_rows": 30_440,
                      "orbit_calls": 128, "orbit_points": 47_302,
                      "lookup_calls": 3, "lookup_points": 27}


def test_conjugated_teichmuller_run_shoots_within_counts(tmp_path, monkeypatch):
    counts = _lemma3_work(tmp_path, monkeypatch, PHI_02)
    # the 8 heteroclinic points take a fifth solve, of two conditions; the
    # 3 frame lookups read 3 orbits of 9 points, as on the linear action
    assert counts == {"shoot_calls": 5, "newton_iterations": 100, "newton_rows": 30_600,
                      "orbit_calls": 178, "orbit_points": 47_702,
                      "lookup_calls": 3, "lookup_points": 27}


@pytest.mark.parametrize("name, calls", [
    # per orbit, 2 Newton iterates of the one phi^-1 solve, whose last
    # also gives D phi at w, and D phi at A^n w
    ("conj_g1", 6),
    # the unstable field steps the forward map: its Jacobian at each of the
    # 28 steps (its lift evaluates p without ``trig``)
    ("inverse_perturbed", 28),
    # per step, 3 Newton iterates of the inverse, the last of which also
    # gives the forward Jacobian at the image
    ("perturbed_g1", 84),
])
def test_line_field_trig_evaluations(request, monkeypatch, name, calls):
    g = (InverseMap(request.getfixturevalue("perturbed_g1")) if name == "inverse_perturbed"
         else request.getfixturevalue(name))
    count = [0]
    trig = FourierPerturbation.trig

    def counting_trig(self, x):
        count[0] += 1
        return trig(self, x)

    monkeypatch.setattr(FourierPerturbation, "trig", counting_trig)
    foliations.compute_line_field(g, "unstable", n=32)
    assert count[0] == calls


def test_periodic_finder_work_at_max_period_7(monkeypatch, perturbed_g1):
    evaluations, heads = [0], []
    displacement, orbit = maps.PerturbedMap.displacement, maps.PerturbedMap.orbit

    def counting_displacement(self, x, out=None):
        evaluations[0] += 1
        return displacement(self, x, out=out)

    def counting_orbit(self, x, *args):
        # the one orbit of a period, at its orbit heads, ends its solve
        heads.append((evaluations[0], len(x)))
        evaluations[0] = 0
        return orbit(self, x, *args)

    # on the class, so that the shared fixture handle keeps no attribute of its own
    monkeypatch.setattr(maps.PerturbedMap, "displacement", counting_displacement)
    monkeypatch.setattr(maps.PerturbedMap, "orbit", counting_orbit)
    report = compare_smooth_invariants(perturbed_g1, 7)
    monkeypatch.undo()
    assert not {"displacement", "orbit"} & set(vars(perturbed_g1))
    # per period, the evaluations of p on the 1, 5, 16, 45, 121, 320 and
    # 841 seeds of Fix(A^n) until the residual is below PERIODIC_STOP, then
    # one orbit of the orbit heads
    assert heads == [(1, 1), (6, 3), (7, 6), (7, 13), (8, 25), (8, 58), (8, 121)]
    assert len(report.rows) == sum(n for _, n in heads) == 227


@pytest.mark.parametrize("args", [[], PHI_02], ids=["linear", "phi-0.02"])
def test_teichmuller_run_forms_at_most_four_eigen_frames(tmp_path, monkeypatch, args):
    # the two generators' frames in the config and those of their two
    # inverse handles, each built once
    calls = [0]
    eigen_data = lattice.eigen_data

    def counting(m):
        calls[0] += 1
        return eigen_data(m)

    monkeypatch.delenv("ANOSOV_LAB_OUT", raising=False)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "anosov_lab" and getattr(module, "eigen_data", None) is eigen_data:
            monkeypatch.setattr(module, "eigen_data", counting)
    assert main(["teichmuller", *args, "--out", str(tmp_path)]) == 0
    assert calls[0] <= 4

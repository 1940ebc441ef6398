"""Work-count guards for the Lemma 3 marches of ``teichmuller`` runs and
for the trig evaluations of the line-field transport.

The counts are deterministic: a run projects onto transversals and steps
leaves the same number of times on every machine.  Each bound sits a
little above or at the count at the default propagation step, 8e-3, of a
march that integrates each distinct leaf once and projects a row only
where it can cross.  At the step 4e-3, with one stable and one unstable
heteroclinic leaf per lattice vector and the unstable leaves integrated
again to the lifts of z', the default linear run made 132 projections of
6,812 points and 34,548 holonomy RK4 row-steps, and the run on the action
conjugated by phi = id + (0.02 sin 2 pi x2, 0) made 2,210 RK4 steps in
Lemma 3, 8,800 heteroclinic row-steps among them.  The field lookups
(``LineField.angle_at`` calls and points) are pinned exactly: a lookup
that moves off that path, or a change in their number, fails.

A line field evaluates the trig values of its map's Fourier terms once
per Jacobian batch and Newton iterate, never twice at one point.
"""

import json

import pytest

from anosov_lab import foliations, rigidity
from anosov_lab.cli import main
from anosov_lab.fourier import FourierPerturbation
from anosov_lab.maps import InverseMap

PHI_02 = ["--set", "action.kind=conjugated",
          "--set", "action.diffeo=" + json.dumps([{"k": [0, 1], "sin": [0.02, 0]}])]


def _teichmuller_work(tmp_path, monkeypatch, args):
    """Field lookups, projections and RK4 steps of one in-process
    ``teichmuller`` run: calls and points of ``LineField.angle_at`` and of
    ``LeafBundle.project``, and ``_rk4_step`` calls and rows within
    ``tangency_propagation_check``, within ``holonomies`` and within
    ``heteroclinic_points``."""
    counts = dict.fromkeys(("lookup_calls", "lookup_points", "project_calls",
                            "project_points", "lemma3_steps", "holonomy_row_steps",
                            "heteroclinic_row_steps"), 0)
    stage = set()
    angle_at = foliations.LineField.angle_at
    project, rk4_step = foliations.LeafBundle.project, foliations._rk4_step

    def counting_angle_at(self, x):
        counts["lookup_calls"] += 1
        counts["lookup_points"] += len(x)
        return angle_at(self, x)

    def counting_project(self, pts, which=0, near=None):
        counts["project_calls"] += 1
        counts["project_points"] += len(pts)
        return project(self, pts, which, near)

    def counting_step(field, pts, headings, h):
        counts["lemma3_steps"] += "lemma3" in stage
        counts["holonomy_row_steps"] += len(pts) * ("holonomy" in stage)
        counts["heteroclinic_row_steps"] += len(pts) * ("heteroclinic" in stage)
        return rk4_step(field, pts, headings, h)

    def flagged(name, run):
        def wrapper(*args, **kwargs):
            stage.add(name)
            try:
                return run(*args, **kwargs)
            finally:
                stage.discard(name)
        return wrapper

    monkeypatch.delenv("ANOSOV_LAB_OUT", raising=False)
    monkeypatch.setattr(foliations.LineField, "angle_at", counting_angle_at)
    monkeypatch.setattr(foliations.LeafBundle, "project", counting_project)
    monkeypatch.setattr(foliations, "_rk4_step", counting_step)
    for name, attr in (("lemma3", "tangency_propagation_check"), ("holonomy", "holonomies"),
                       ("heteroclinic", "heteroclinic_points")):
        monkeypatch.setattr(rigidity, attr, flagged(name, getattr(rigidity, attr)))
    assert main(["teichmuller", *args, "--out", str(tmp_path)]) == 0
    return counts


def test_default_teichmuller_run_projects_and_steps_within_bounds(tmp_path, monkeypatch):
    counts = _teichmuller_work(tmp_path, monkeypatch, [])
    assert counts["holonomy_row_steps"] > 0
    # 100 projections of 5,980 points and 17,348 holonomy row-steps
    assert counts["project_calls"] <= 105
    assert counts["project_points"] <= 6_100
    assert counts["holonomy_row_steps"] <= 17_500
    # direction_at and the marching lookup each make one angle_at call
    assert (counts["lookup_calls"], counts["lookup_points"]) == (1_885, 94_033)


def test_conjugated_teichmuller_run_steps_each_heteroclinic_leaf_once(tmp_path, monkeypatch):
    counts = _teichmuller_work(tmp_path, monkeypatch, PHI_02)
    assert counts["heteroclinic_row_steps"] > 0
    # 871 RK4 steps, 814 row-steps of them on the stable heteroclinic leaf
    # and the unstable leaf's marches toward every k; both bounds sit at
    # the counts
    assert counts["lemma3_steps"] <= 871
    assert counts["heteroclinic_row_steps"] <= 814
    assert (counts["lookup_calls"], counts["lookup_points"]) == (3_510, 96_687)


@pytest.mark.parametrize("name, calls, depth", [
    # 2 Newton iterates for the one phi^-1 solve, D phi at that point, and
    # D phi once per depth
    ("conj_g1", 12, 9),
    # one forward lift and Jacobian per depth
    ("inverse_perturbed", 9, 9),
    # per depth, 3 Newton iterates of the inverse and the Jacobian
    ("perturbed_g1", 32, 8),
])
def test_line_field_evaluates_trig_once_per_batch(request, monkeypatch, name, calls, depth):
    g = (InverseMap(request.getfixturevalue("perturbed_g1")) if name == "inverse_perturbed"
         else request.getfixturevalue(name))
    count = [0]
    trig = FourierPerturbation.trig

    def counting_trig(self, x):
        count[0] += 1
        return trig(self, x)

    monkeypatch.setattr(FourierPerturbation, "trig", counting_trig)
    field = foliations.compute_line_field(g, "unstable", n=32)
    assert (count[0], field.depth) == (calls, depth)

"""Work-count guard for the Lemma 3 marches of a default ``teichmuller`` run.

The counts are deterministic: a run projects onto transversals and steps
leaves the same number of times on every machine.  Each bound sits a
little above the count of a march that integrates each distinct holonomy
leaf once and projects a row only where it can cross (132 projections of
6,812 points, 34,548 holonomy RK4 row-steps), and far below the counts of
a march that steps every (sample, target) row and projects it at every
step (742, 82,784 and 77,584).
"""

from anosov_lab import foliations, rigidity
from anosov_lab.cli import main


def test_default_teichmuller_run_projects_and_steps_within_bounds(tmp_path, monkeypatch):
    counts = {"project_calls": 0, "project_points": 0, "holonomy_row_steps": 0}
    in_holonomies = [False]
    project, rk4_step, holonomies = (foliations.LeafBundle.project, foliations._rk4_step,
                                     rigidity.holonomies)

    def counting_project(self, pts, which=0, near=None):
        counts["project_calls"] += 1
        counts["project_points"] += len(pts)
        return project(self, pts, which, near)

    def counting_step(field, pts, headings, h):
        if in_holonomies[0]:
            counts["holonomy_row_steps"] += len(pts)
        return rk4_step(field, pts, headings, h)

    def flagged_holonomies(*args, **kwargs):
        in_holonomies[0] = True
        try:
            return holonomies(*args, **kwargs)
        finally:
            in_holonomies[0] = False

    monkeypatch.delenv("ANOSOV_LAB_OUT", raising=False)
    monkeypatch.setattr(foliations.LeafBundle, "project", counting_project)
    monkeypatch.setattr(foliations, "_rk4_step", counting_step)
    monkeypatch.setattr(rigidity, "holonomies", flagged_holonomies)
    assert main(["teichmuller", "--out", str(tmp_path)]) == 0
    assert counts["holonomy_row_steps"] > 0
    assert counts["project_calls"] <= 150
    assert counts["project_points"] <= 8_000
    assert counts["holonomy_row_steps"] <= 36_000

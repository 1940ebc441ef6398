"""Tests of the benchmark's span tracer and the per-layer metrics it feeds.

    python3 -m pytest bench/test_spans.py
"""

import numpy as np
import pytest

from spans import Tracer, layer_metrics, top_level_time


def test_wrapped_calls_form_a_call_tree():
    tracer = Tracer()

    inner_t = tracer.wrap(lambda x: x, "interp.inner", 0)
    outer_t = tracer.wrap(lambda x: inner_t(inner_t(x)), "rigidity.outer", None)
    outer_t(np.zeros((3, 2)))
    outer_t(np.zeros(2))
    root, out, inn = tracer.nodes
    assert out[:3] == [0, "rigidity.outer", 2]
    assert inn[:3] == [1, "interp.inner", 4]
    assert inn[5] == 2 * 3 + 2 * 1  # points: two (3, 2) batches, two single points
    assert 0.0 <= out[4] <= out[3] and inn[4] == pytest.approx(inn[3])
    assert out[4] == pytest.approx(out[3] - inn[3])


def _span(i, parent, name, calls=1, incl=1.0, self_s=1.0, points=0):
    return {"id": i, "parent": parent, "name": name, "calls": calls,
            "inclusive_s": incl, "self_s": self_s, "points": points}


def test_metrics_count_outermost_spans_and_required_callers():
    spans = [
        _span(1, 0, "conjugacy.solve_conjugacy", incl=3.0, self_s=1.0),
        _span(2, 1, "maps.PerturbedMap.displacement", calls=7, incl=2.0, self_s=2.0),
        _span(3, 0, "maps.PerturbedMap.displacement", calls=1, incl=0.5, self_s=0.5),
        _span(4, 0, "foliations.LineField.direction_at", calls=10, incl=4.0, self_s=1.0, points=25),
        _span(5, 4, "foliations.LineField.angle_at", calls=10, incl=3.0, self_s=1.0, points=25),
        _span(6, 5, "interp.PeriodicBicubic.__call__", calls=10, incl=2.0, self_s=2.0, points=25),
    ]
    m = layer_metrics(spans)
    assert m["conjugacy.solve_s"] == 3.0
    assert m["conjugacy.solve_sweeps"] == 7       # the call outside the solve is not a sweep
    assert m["foliations.field_lookups"] == 10    # angle_at inside direction_at is the same lookup
    assert m["foliations.field_lookup_points"] == 25
    assert m["foliations.points_per_lookup"] == 2.5
    assert m["interp.calls"] == 10 and m["interp.points"] == 25
    assert m["foliations.self_s"] == 2.0
    assert m["maps.self_s"] == 2.5
    assert m["rigidity.lemma3_s"] == 0.0 and m["foliations.project_calls"] == 0
    assert top_level_time(spans) == 7.5

"""Batched shooting calls against serial references.

The references below are the one-row, one-graph and one-lattice-vector
versions of holonomy, local graphs, heteroclinic points and the
tangency-propagation loop.  ``foliations._shoot`` takes the same fixed
Newton steps for every row, so a row of a batch gets the numbers of that
row alone: bit for bit on the linear action, and to rounding on a
conjugated one, where the phi^-1 solve inside ``ConjugatedMap.orbit``
stops on its whole batch.
"""

import numpy as np
import pytest

from anosov_lab.errors import TangencySuspected
from anosov_lab.foliations import (
    _identity,
    _line,
    _shoot,
    heteroclinic_points,
    holonomy,
    local_graph,
    verify_graph_transport,
)
from anosov_lab.interp import MonotoneCubic
from anosov_lab.lattice import line_angle
from anosov_lab.rigidity import HOLONOMY_SAMPLES, PropagationRow, tangency_propagation_check


@pytest.fixture(params=["linear", "conjugated"])
def fields(request):
    """f1u, f1s, f2s of the linear action, or of the action conjugated by
    phi = id + (0.02 sin 2 pi x2, 0)."""
    return request.getfixturevalue(
        "linear_fields" if request.param == "linear" else "conj_fields")


def _assert_close(got, want, linear):
    """Equal bit for bit on the linear action, within 1e-14 otherwise."""
    if linear:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def _frame(fields, bases):
    """The frame axes (m, 2, 2) and target directions (m, 2) at bases."""
    at = np.mod(bases, 1.0)
    return (np.stack([fields["f1u"].direction_at(at), fields["f1s"].direction_at(at)], axis=1),
            fields["f2s"].direction_at(at))


# --- serial references ------------------------------------------------------

def _ref_holonomy(g, origin, axis, target_origin, target_axis, samples):
    """One transversal pair: the stable leaves of g from origin + u axis at
    ``samples`` to the line target_origin + t target_axis."""
    m = len(samples)
    return holonomy(g, origin + samples[:, None] * axis,
                    _line(np.broadcast_to(target_origin, (m, 2)),
                          np.broadcast_to(target_axis, (m, 2))), samples)


def _ref_local_graph(fields, base, axes, leaf, eps):
    """One local graph at base, on the frame axes (2, 2) and the target
    direction leaf (2,)."""
    graph, = local_graph(base[None], axes[None], leaf[None], fields["f1u"].owner,
                         fields["f2s"].owner, eps)
    return graph


def _ref_tangency_propagation_check(fields, z, radius=1, eps=0.05):
    """The check one lattice vector at a time."""
    g1 = fields["f1u"].owner
    hps = heteroclinic_points(z, g1.element, radius, None if g1.is_linear else g1)
    samples = np.linspace(-eps, eps, HOLONOMY_SAMPLES)
    (axes_z,), (leaf_z,) = _frame(fields, z[None])
    theta_z = _ref_local_graph(fields, z, axes_z, leaf_z, eps)
    rows = []
    for hp in hps:
        (axes_zp,), (leaf_zp,) = _frame(fields, hp.lift[None])
        theta_zp = _ref_local_graph(fields, hp.lift, axes_zp, leaf_zp, eps)
        hol_s = MonotoneCubic(samples, _ref_holonomy(g1, z, axes_z[0], hp.lift_s, axes_zp[0],
                                                     samples), "holonomy")
        hol_u = MonotoneCubic(samples, _ref_holonomy(g1.inverse(), z, axes_z[1], hp.lift,
                                                     axes_zp[1], samples), "holonomy")
        u0 = hol_s.inverse(0.0)
        predicted = hol_u.derivative(theta_z(u0)) * theta_z.derivative(u0) / hol_s.derivative(u0)
        rows.append(PropagationRow(
            lattice=hp.lattice,
            angle=float(line_angle(axes_zp[:1], leaf_zp[None])[0]),
            measured_slope=float(theta_zp.derivative(0.0)),
            predicted_slope=float(predicted),
            transport_deviation=verify_graph_transport(theta_z, theta_zp, hol_s, hol_u),
        ))
    return rows


# --- comparisons ------------------------------------------------------------

def test_holonomies_match_serial_reference(fields):
    g = fields["f1s"].owner
    linear = g.is_linear
    axis = np.array([0.8, 0.6])
    samples = np.linspace(-0.05, 0.05, 25)
    targets = [(np.array([0.02, 0.31]), np.array([0.9, 0.2]) / np.hypot(0.9, 0.2)),
               (np.array([0.2, -0.15]), axis),
               (np.array([-0.25, 0.1]), np.array([0.6, 0.8]))]
    pair = np.repeat(np.arange(3), 25)
    origins = np.array([o for o, _ in targets])[pair]
    axes = np.array([d for _, d in targets])[pair]
    got = holonomy(g, np.tile(samples, 3)[:, None] * axis, _line(origins, axes),
                   np.tile(samples, 3))
    for j, (origin, direction) in enumerate(targets):
        want = _ref_holonomy(g, np.zeros(2), axis, origin, direction, samples)
        _assert_close(got[pair == j], want, linear)


def test_local_graph_matches_serial_reference(fields):
    # the frames are read once for all bases, as the batched call reads
    # them: a direction read off an inverse handle's orbit depends on its
    # batchmates by up to 1 ulp, which the graphs' coefficients amplify
    bases = np.array([[0.0, 0.0], [0.37, 0.81], [-0.2, 0.45]])
    axes, leaves = _frame(fields, bases)
    got = local_graph(bases, axes, leaves, fields["f1u"].owner, fields["f2s"].owner, 0.05)
    for graph, base, frame, leaf in zip(got, bases, axes, leaves):
        want = _ref_local_graph(fields, base, frame, leaf, 0.05)
        assert np.array_equal(graph.x, want.x)
        _assert_close(graph.c, want.c, fields["f1u"].owner.is_linear)


def test_heteroclinic_points_match_serial_reference(conj_g1, e1):
    z = np.zeros(2)
    got = heteroclinic_points(z, e1, 1, conj_g1)
    linear = heteroclinic_points(z, e1, 1)
    assert [h.lattice for h in got] == [h.lattice for h in linear]
    for g, w in zip(got, linear):
        k = np.array(w.lattice, dtype=float)
        alone = _shoot([(conj_g1, z[None]), (conj_g1.inverse(), (z - k)[None])], _identity,
                       w.lift_s[None])[0]
        _assert_close(g.lift_s, alone, False)
        _assert_close(g.lift, alone + k, False)
        assert (g.u_param, g.s_param) == (w.u_param, w.s_param)


def _assert_same_rows(got, want, linear):
    assert len(got) == len(want) == 8
    for g, w in zip(got, want):
        g, w = g.to_dict(), w.to_dict()
        assert g["lattice"] == w["lattice"] and g["angle"] == w["angle"]
        for key in ("measured_slope", "predicted_slope", "transport_deviation"):
            _assert_close(g[key], w[key], linear)


def test_propagation_rows_match_serial_loop_linear(linear_fields):
    f = linear_fields
    _assert_same_rows(tangency_propagation_check(f["f1u"], f["f1s"], f["f2s"], np.zeros(2)),
                      _ref_tangency_propagation_check(f, np.zeros(2)), True)


def test_propagation_rows_match_serial_loop_nonlinear(conj_fields):
    f = conj_fields
    _assert_same_rows(tangency_propagation_check(f["f1u"], f["f1s"], f["f2s"], np.zeros(2)),
                      _ref_tangency_propagation_check(f, np.zeros(2)), False)


# --- errors of stacked calls name their lattice vectors and kinds ---------

def test_stacked_tangency_names_local_graphs(linear_fields):
    f = linear_fields
    # a target field owned by g1 has g1's stable leaves, those of the frame
    with pytest.raises(TangencySuspected,
                       match=r"\[local graph at z; local graph k=\(-1, -1\); .*"
                             r"local graph k=\(1, 1\)\]$"):
        tangency_propagation_check(f["f1u"], f["f1s"], f["f1u"], np.zeros(2))

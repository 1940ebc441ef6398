"""Leaf-translation actions, the linearization pipeline, holonomy
factorization, tangency propagation, and the end-to-end rigidity verdict.

The central object is a one-parameter action S(t, y) on a transversal
parameter interval, conjugate to the rigid translations by a monotone
profile.  The linearization algorithm recovers the conjugating coordinate
g by integrating the measured partial derivative of S and verifies that
the conjugated action L = g o S o g^{-1} is affine, L(t, z) = z + alpha t.

Every experiment runs as named stages (``Stage``) over one ``RunContext``
through one runner, ``run_stages``; ``teichmuller_stages`` is the
end-to-end pass and ``teichmuller_verdict`` its verdict.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .config import ExperimentConfig, load_config
from .conjugacy import (
    Conjugacy,
    coarse_start,
    compare_smooth_invariants,
    estimate_holder_exponent,
    solve_conjugacy,
)
from .errors import (
    AnosovLabError,
    ChartOverflow,
    DomainMismatch,
    NonMonotoneG,
    SingularSystem,
)
from .foliations import (
    LineField,
    _identity,
    _line,
    _on_leaves,
    _shoot,
    chord_arc_length,
    heteroclinic_points,
    holonomy,
    leaf_arc_lengths,
    line_fields,
    local_graph,
    min_transversality_angle,
    verify_graph_transport,
)
from .interp import MonotoneCubic, inverse_spline
from .lattice import HyperbolicElement, _inv2, check_pair_hypothesis, line_angle

FD_STEP = 1e-5  # centered-difference step of dS/dy
HOLONOMY_SAMPLES = 49  # samples of each Lemma 3 holonomy
TRANSVERSAL_REACH = 1.5  # arc length either side of 0 that a slide may land within
LANDING_MARGIN = 0.25  # arc length of the transversal sampled past the predicted landings
SLIDE_SPACING = 4e-3  # the sigma spacing of the arc samples of each slid leaf
ALL_FIELDS = ("f1u", "f1s", "f2u", "f2s")  # the unstable and stable line fields of g1 and g2


class TranslationAction:
    """An action S(t, y) conjugate to rigid translations by a monotone
    profile psi: S(t, y) = psi(psi^{-1}(y) + t), psi the MonotoneCubic
    through the samples (r, psi(r))."""

    def __init__(self, r_values, psi_values):
        self.psi = MonotoneCubic(r_values, psi_values, "profile")
        self.y_domain = (float(self.psi.y.min()), float(self.psi.y.max()))

    def __call__(self, t, y):
        return self.psi(self.psi.inverse(y) + t)

    def time_to(self, y0, ys):
        """The times t(y) with S(t(y), y) = y0 for the y of ys, in closed
        form: S then reads psi at psi^{-1}(y0), inside its knots."""
        return self.psi.inverse(y0) - self.psi.inverse(ys)


def translation_action_from_conjugacy(h: Conjugacy, base, direction,
                                      span: float) -> TranslationAction:
    """The action induced on the h-image of the line through ``base`` with
    the given (unit) eigen-direction, in arc-length parameters.

    The profile is psi(r) = signed arc length along h(base + r v), built
    from Richardson-corrected chord sums on a sampling of spacing 1e-3.
    """
    v = np.asarray(direction, dtype=float)
    v = v / np.linalg.norm(v)
    base = np.asarray(base, dtype=float)
    n = max(8, int(round(2 * span / 1e-3)))
    if n % 2:
        n += 1
    r = np.linspace(-span, span, n + 1)
    fine = np.linspace(-span, span, 2 * n + 1)
    psi = chord_arc_length(h.lift(base[None, :] + fine[:, None] * v[None, :]))
    psi -= np.interp(0.0, r, psi)  # anchor: psi(0) = 0
    return TranslationAction(r, psi)


def verify_action_regularity(S: TranslationAction, t_values, y_values) -> float:
    """Refinement stability of dS/dy: sup |D_fine - D_coarse| between
    centered differences D(t, y) ~ dS/dy at steps FD_STEP and FD_STEP / 2
    on the (t, y) grid."""
    t_values = np.asarray(t_values, dtype=float)
    y_values = np.asarray(y_values, dtype=float)

    def d_field(ys, step):
        out = np.empty((len(t_values), len(ys)))
        for i, t in enumerate(t_values):
            out[i] = (S(t, ys + step) - S(t, ys - step)) / (2 * step)
        return out

    coarse = d_field(y_values, FD_STEP)
    fine = d_field(y_values, FD_STEP / 2.0)
    return float(np.max(np.abs(fine - coarse)))


@dataclass
class LinearizationResult:
    """Output of the translation-pseudogroup linearization."""

    alpha: float
    affinity_residual: float
    y0: float
    g: MonotoneCubic = field(repr=False)  # knots: the quadrature nodes y and g(y)
    action: TranslationAction = field(repr=False)

    def conjugated(self, t, z):
        """L(t, z) = g(S(t, g^{-1}(z)))."""
        return self.g(self.action(t, self.g.inverse(z)))


def _simpson_pieces(f, dx):
    """Simpson integral over the first interval of each consecutive pair,
    [x_i, x_{i+1}], from the quadratic through x_i, x_{i+1}, x_{i+2}."""
    x21, x32 = dx[:-1], dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * f[:-2] + (3 + x21x21_x31x32 + x21_x31) * f[1:-1]
                      - x21x21_x31x32 * f[2:])


def _cumulative_simpson(f, x):
    """Cumulative integral of the samples f over the increasing nodes x
    (at least 3), starting at 0: interval i is integrated by the quadratic
    through its own nodes and the next one's for even i, the previous
    one's for odd i and the last interval, and the pieces are summed in
    order (Cartwright's cumulative Simpson, the arithmetic of SciPy's
    ``cumulative_simpson`` with ``initial=0``)."""
    dx = np.diff(x)
    ahead = _simpson_pieces(f, dx)
    behind = _simpson_pieces(f[::-1], dx[::-1])[::-1]
    pieces = np.empty(len(dx))
    pieces[:-1:2] = ahead[::2]
    pieces[1::2] = behind[::2]
    pieces[-1] = behind[-1]
    return np.concatenate([[0.0], np.cumsum(pieces) + 0.0])  # + 0.0: no -0.0 sums


def linearize_translation_action(S: TranslationAction, y0: float, domain,
                                 quad_spacing: float = 1e-3,
                                 t_max: float | None = None) -> LinearizationResult:
    """Linearize a weakly smooth translation action.

    Steps: (1) read t(y) with S(t(y), y) = y0 off the profile for each
    quadrature node, t(y) = psi^{-1}(y0) - psi^{-1}(y); (2) measure
    the integrand dS/dy at (t(y), y) by centered differences; (3) integrate
    it by composite Simpson to get the coordinate g; (4) conjugate,
    L = g o S o g^{-1}, on an 11 x 11 test lattice; (5) fit alpha by least
    squares of L(t, z) - z against t.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not lo <= y0 <= hi:
        raise DomainMismatch(f"y0={y0} outside domain [{lo}, {hi}]")
    n = max(8, int(math.ceil((hi - lo) / quad_spacing)))
    ys = np.linspace(lo, hi, n + 1)

    t_of_y = S.time_to(y0, ys)
    integrand = (S(t_of_y, ys + FD_STEP) - S(t_of_y, ys - FD_STEP)) / (2 * FD_STEP)
    g_vals = _cumulative_simpson(integrand, ys)
    g_vals = g_vals - np.interp(y0, ys, g_vals)
    if not np.all(np.diff(g_vals) > 0):
        raise NonMonotoneG("integrated coordinate g is not strictly increasing")
    g = MonotoneCubic(ys, g_vals, "coordinate g")

    # test lattice: keep S(t, g^{-1}(z)) inside the sampled domain
    if t_max is None:
        t_max = 0.25 * (hi - lo)
    z_lo, z_hi = g_vals[0] + 1e-9, g_vals[-1] - 1e-9
    t_grid = np.linspace(0.0, t_max, 11)
    z_grid = np.linspace(z_lo, z_hi, 11)

    rows_t, rows_dz = [], []
    for t in t_grid:
        y_back = g.inverse(z_grid)
        y_img = S(t, y_back)
        ok = (y_img >= lo) & (y_img <= hi) & (y_back >= lo + 0.0) & (y_back <= hi)
        if not np.any(ok):
            continue
        l_vals = g(np.asarray(y_img)[ok])
        rows_t.append(np.full(int(np.sum(ok)), t))
        rows_dz.append(l_vals - z_grid[ok])
    tt = np.concatenate(rows_t)
    dz = np.concatenate(rows_dz)
    denom = float(np.dot(tt, tt))
    alpha = float(np.dot(tt, dz) / denom) if denom > 0 else float("nan")
    residual = float(np.max(np.abs(dz - alpha * tt)))
    return LinearizationResult(alpha=alpha, affinity_residual=residual, y0=float(y0), g=g,
                               action=S)


@dataclass
class FactorizationResult:
    """Decomposition of a leaf translation into two stable holonomies."""

    slide_s: float
    slide_r: float
    translation_t: float
    numeric_deviation: float


def _slope_normalized(v: np.ndarray) -> np.ndarray:
    """Eigen-direction rescaled to first coordinate 1 (never vertical for
    hyperbolic SL(2,Z) elements)."""
    return v / v[0]


def factor_translation_linear(e1: HyperbolicElement, e2: HyperbolicElement,
                              s: float) -> FactorizationResult:
    """Solve s v_1^s + r v_2^s = t v_1^u for (r, t), with the eigen-directions
    in first-coordinate-1 normalization, by the adjugate of the 2 x 2
    system [v_2^s, -v_1^u] (r, t) = -s v_1^s, whose determinant is the
    difference of the slopes of v_1^u and v_2^s."""
    v1s = _slope_normalized(e1.vs)
    v2s = _slope_normalized(e2.vs)
    v1u = _slope_normalized(e1.vu)
    if abs(v1u[1] - v2s[1]) < 1e-12:
        raise SingularSystem("v_2^s and v_1^u are linearly dependent")
    r, t = _inv2(np.column_stack([v2s, -v1u])[None], -s * v1s[None])[0]
    return FactorizationResult(slide_s=float(s), slide_r=float(r),
                               translation_t=float(t), numeric_deviation=0.0)


def _arc_to(sigma, s, at: float) -> float:
    """The sigma where the increasing s(sigma) reach ``at``, off 6 samples around it."""
    window = slice(max(int(np.searchsorted(s, at)) - 3, 0), None)
    return float(inverse_spline(sigma[window][:6], s[window][:6], "leaf arc length")(at))


def factor_translation_numeric(g1, g2, s: float) -> FactorizationResult:
    """Slide 9 points of the unstable leaf tau of the map handle g1 through
    0, at arc lengths y in [-0.1, 0.1], along the stable leaves of g1 by
    arc length s |v_1^s| (first-coordinate-1 normalization; s > 0 moves
    along v_1^s), then along the stable leaves of g2 back to tau (one 2 x 2
    ``_shoot``), and compare with the translation by the linear t.

    Predicted landings beyond TRANSVERSAL_REACH raise ChartOverflow before
    any leaf is sampled.  tau is sampled over the samples and their
    predicted landings, LANDING_MARGIN past them, and each start's stable
    leaf at SLIDE_SPACING (``leaf_arc_lengths``); a landing's parameter is
    tau's arc length at its coordinate along v_1^u, the stable direction of
    g1's inverse, read by that direction's dual row.
    """
    e1 = g1.element
    linear = factor_translation_linear(e1, g2.element, s)
    # factorization parameters use first-coordinate-1 normalization; the
    # leaves are sampled in arc length, so convert via the vector norms
    scale_1s = float(np.linalg.norm(_slope_normalized(e1.vs)))
    scale_1u = float(np.linalg.norm(_slope_normalized(e1.vu)))
    arc_slide, arc_t_pred = s * scale_1s, linear.translation_t * scale_1u
    y_samples = np.linspace(-0.1, 0.1, 9)
    lo, hi = y_samples[0] + arc_t_pred, y_samples[-1] + arc_t_pred
    if max(-lo, hi) > TRANSVERSAL_REACH:
        raise ChartOverflow(f"slide s = {s:g} predicts landings in [{lo:.6g}, {hi:.6g}], outside "
                            f"the transversal's parameters +-{TRANSVERSAL_REACH:g}")
    g1u, origin = g1.inverse(), np.zeros((len(y_samples), 2))
    sigma, (s_tau,) = leaf_arc_lengths(g1u, origin[:1], min(y_samples[0], lo) - LANDING_MARGIN,
                                       max(y_samples[-1], hi) + LANDING_MARGIN)
    tau = MonotoneCubic(sigma, s_tau, "leaf arc length")
    starts = _on_leaves(g1u, origin, tau.inverse(y_samples))
    sigma, slid = leaf_arc_lengths(g1, starts, min(arc_slide, 0.0), max(arc_slide, 0.0),
                                   SLIDE_SPACING)
    mids = _on_leaves(g1, starts, np.array([_arc_to(sigma, row, arc_slide) for row in slid]))
    # shot from the linear points at the predicted landings
    frame = g1u.element
    hits = _shoot([(g2, mids), (g1u, origin)], _identity,
                  tau.inverse(y_samples + arc_t_pred)[:, None] * frame.vs)
    sigma = hits @ frame.ws
    if np.any((sigma < tau.x[0]) | (sigma > tau.x[-1])):
        raise ChartOverflow(f"slide s = {s:g} lands outside the sampled transversal")
    landed = tau(sigma)
    deviation = float(np.max(np.abs(landed - (y_samples + arc_t_pred))))
    implied_t = float(np.mean(landed - y_samples)) / scale_1u
    return FactorizationResult(slide_s=float(s), slide_r=linear.slide_r,
                               translation_t=implied_t, numeric_deviation=deviation)


@dataclass
class PropagationRow:
    lattice: tuple
    angle: float              # between E_1^u and E_2^s at z'
    measured_slope: float
    predicted_slope: float
    transport_deviation: float

    @property
    def slope_difference(self) -> float:
        return abs(self.measured_slope - self.predicted_slope)

    def to_dict(self) -> dict:
        """The row as reported."""
        return {"lattice": self.lattice, "angle": self.angle,
                "measured_slope": self.measured_slope,
                "predicted_slope": self.predicted_slope,
                "transport_deviation": self.transport_deviation}


def tangency_propagation_check(field_1u: LineField, field_1s: LineField,
                               field_2s: LineField, z, radius: int = 1, eps: float = 0.05):
    """Transport the local graph of the second stable foliation from z to
    each heteroclinic point z' and compare predicted against measured
    slopes and graphs.

    The fields name the foliations: the maps owning ``field_1u`` and
    ``field_2s`` are g1 and g2, and every crossing is shot on them
    (``foliations._shoot``).  The heteroclinic points are those of g1's
    leaves (``heteroclinic_points``), in closed form when g1 is linear.
    The lift of each z' on the unstable leaf from z is its heteroclinic
    point, and its lift on the stable leaf is that point minus k.  The
    frame at z and at each z' is two straight axes through it along the
    directions of ``field_1u`` and ``field_1s`` there, and the target
    leaves' directions, of ``field_2s``, seed the local graphs.  The
    identity theta_z' = hol_u o theta_z o hol_s^-1 holds for any
    transversals used the same way at z and z', so the axes need not be
    leaves; ``measured_slope`` is the slope of the graph at z' in these
    straight-axis coordinates, which agree with the leaf coordinates to
    first order at z', since the axes are tangent to the leaves there.
    hol_s carries the u-axis at z along the stable leaves of g1 to the
    u-axis at the stable lift of z', hol_u the s-axis at z along the
    unstable leaves to the s-axis at the unstable lift, each at
    HOLONOMY_SAMPLES points of [-eps, eps].  Every object of every lattice
    vector comes from one batched call; an error keeps its class and names
    the failing k and whether the row belongs to a heteroclinic point, a
    local graph or a holonomy.

    The graphs and holonomies are not-a-knot cubic splines.  The predicted
    slope at z' is the chain rule of theta_z' = hol_u o theta_z o hol_s^-1
    at 0: hol_u'(theta_z(u0)) theta_z'(u0) / hol_s'(u0), u0 = hol_s^-1(0).

    Returns a list of PropagationRow, one per lattice vector.
    """
    z = np.asarray(z, dtype=float)
    g1, g2 = field_1u.owner, field_2s.owner
    # the linear action's heteroclinic points have a closed form
    hps = heteroclinic_points(z, g1.element, radius, None if g1.is_linear else g1)
    ks = [hp.lattice for hp in hps]
    n = len(hps)
    # lifts of z' reached along the unstable / stable leaves from z
    zp_u = np.array([hp.lift for hp in hps])
    zp_s = np.array([hp.lift_s for hp in hps])

    # graph 0 sits at z, graph 1 + j at the lift of the j-th z'
    bases = np.vstack([z[None, :], zp_u])
    at = np.mod(bases, 1.0)
    e_u, e_s, e_t = (f.direction_at(at) for f in (field_1u, field_1s, field_2s))
    graphs = local_graph(bases, np.stack([e_u, e_s], axis=1), e_t, g1, g2, eps,
                         ["local graph at z"] + [f"local graph k={k}" for k in ks])
    # one row per (k, sample)
    samples = np.linspace(-eps, eps, HOLONOMY_SAMPLES)
    pair = np.repeat(np.arange(n), HOLONOMY_SAMPLES)
    along = np.tile(samples, n)
    hol_tags = [f"holonomy k={ks[j]}" for j in pair]
    landed_s = holonomy(g1, z + along[:, None] * e_u[0], _line(zp_s[pair], e_u[1:][pair]),
                        along, hol_tags)
    landed_u = holonomy(g1.inverse(), z + along[:, None] * e_s[0],
                        _line(zp_u[pair], e_s[1:][pair]), along, hol_tags)
    angles = line_angle(e_u[1:], e_t[1:])
    theta_z = graphs[0]
    rows = []
    for hp, theta_zp, to_s, to_u, angle in zip(
            hps, graphs[1:], landed_s.reshape(n, -1), landed_u.reshape(n, -1), angles):
        hol_s = MonotoneCubic(samples, to_s, "holonomy")
        hol_u = MonotoneCubic(samples, to_u, "holonomy")
        deviation = verify_graph_transport(theta_z, theta_zp, hol_s, hol_u)
        u0 = hol_s.inverse(0.0)
        predicted = hol_u.derivative(theta_z(u0)) * theta_z.derivative(u0) / hol_s.derivative(u0)
        measured = theta_zp.derivative(0.0)
        rows.append(PropagationRow(
            lattice=hp.lattice,
            angle=float(angle),
            measured_slope=float(measured),
            predicted_slope=float(predicted),
            transport_deviation=float(deviation),
        ))
    return rows


@dataclass
class TeichmullerVerdict:
    """Outcome of the end-to-end triviality experiment."""

    transversality_min_angle: float
    lemma3_deviation: float
    lemma3_slope_deviation: float  # max |measured - predicted slope| at the z'
    prop1_affinity_residual: float
    jacobian_consistency: float
    verdict: str                 # smooth | obstructed | inconclusive
    diagnostics: dict
    errors: list


def _prop1_along(h: Conjugacy, direction, span: float, quad_spacing: float):
    """Linearize the translation action induced by h along the eigenline
    through 0, on the middle 60% of its profile's range."""
    S = translation_action_from_conjugacy(h, np.zeros(2), direction, span)
    lo, hi = S.y_domain
    return S, linearize_translation_action(S, 0.0, (0.6 * lo, 0.6 * hi),
                                           quad_spacing=quad_spacing)


@dataclass
class RunContext:
    """One run's inputs and what its stages made: ``made`` holds their
    products by name, ``errors`` their failures, ``timings`` their wall
    times."""

    cfg: ExperimentConfig  # the action kind and the settings
    handles: list          # the map of each generator, which holds its element
    field_keys: tuple = ALL_FIELDS  # what the line_fields stage computes
    made: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)


class Stage(NamedTuple):
    name: str
    needs: tuple    # products of earlier stages it reads from ctx.made
    run: Callable   # ctx -> None; puts its own products in ctx.made


# Stage functions reach their callees through this module's globals at run
# time, so a callee rebound here is the one every run calls.

def _solve_conjugacy(ctx: RunContext) -> None:
    """h for g1 on the grid_n grid, started from ``coarse_start``."""
    g1, n = ctx.handles[0], ctx.cfg.grid_n
    ctx.made["h"] = solve_conjugacy(g1, n=n, u0=coarse_start(g1, n))


def _compare_smooth_invariants(ctx: RunContext) -> None:
    ctx.made["periodic"] = compare_smooth_invariants(ctx.handles[0], ctx.cfg.max_period)


def _estimate_holder_exponent(ctx: RunContext) -> None:
    ctx.made["holder"] = estimate_holder_exponent(ctx.made["h"], ctx.handles[0].element.vu,
                                                  scales=np.geomspace(1e-4, 1e-2, 7),
                                                  seed=ctx.cfg.seed)


def _line_fields(ctx: RunContext) -> None:
    ctx.made["fields"] = line_fields(ctx.handles, ctx.field_keys, ctx.cfg.field_n)


def _tangency_propagation(ctx: RunContext) -> None:
    fields, cfg = ctx.made["fields"], ctx.cfg
    ctx.made["propagation"] = tangency_propagation_check(
        fields["f1u"], fields["f1s"], fields["f2s"], np.zeros(2), radius=cfg.radius, eps=cfg.eps)


def _prop1(ctx: RunContext) -> None:
    """Both eigen-directions at quadrature spacing 2e-3, and the regularity
    of the unstable action."""
    h, e1 = ctx.made["h"], ctx.handles[0].element
    S_u, lin_u = _prop1_along(h, e1.vu, ctx.cfg.span, 2e-3)
    _, lin_s = _prop1_along(h, e1.vs, ctx.cfg.span, 2e-3)
    reg_sup = verify_action_regularity(
        S_u, np.linspace(0.0, 0.1, 5),
        np.linspace(0.55 * S_u.y_domain[0], 0.55 * S_u.y_domain[1], 21))
    ctx.made["prop1"] = {
        "alpha_unstable": lin_u.alpha, "alpha_stable": lin_s.alpha,
        "residual_unstable": lin_u.affinity_residual,
        "residual_stable": lin_s.affinity_residual,
        "regularity_refinement_sup": reg_sup,
    }


def _jacobian(ctx: RunContext) -> None:
    """Refinement stability of the secant Jacobian of h and, when g1 holds
    a phi (phi = id too), its distance from D phi, on 25 random points."""
    h, pts = ctx.made["h"], np.random.default_rng(ctx.cfg.seed).random((25, 2))
    phi = getattr(ctx.handles[0], "phi", None)
    coarse = h.secant_jacobian(pts, delta=1e-4)
    fine = h.secant_jacobian(pts, delta=5e-5)
    jac = {"jacobian_refinement_sup": float(np.max(np.abs(fine - coarse)))}
    if phi is not None:
        jac["jacobian_vs_dphi_sup"] = float(np.max(np.abs(fine - phi.derivative(pts))))
    ctx.made["jacobian"] = jac


def _verdict(ctx: RunContext) -> None:
    """The measures only the teichmuller verdict reads: the smallest angles
    between E1u and E2s and between E2u and E1s."""
    made = ctx.made
    if "fields" in made:
        fields = made["fields"]
        made["transversality_pairs"] = {
            "E1u_vs_E2s": min_transversality_angle(fields["f1u"], fields["f2s"]),
            "E2u_vs_E1s": min_transversality_angle(fields["f2u"], fields["f1s"]),
        }


def _prop1_along_h(ctx: RunContext) -> None:
    """The unstable direction at quadrature spacing 1e-3."""
    _, ctx.made["linearization"] = _prop1_along(ctx.made["h"], ctx.handles[0].element.vu,
                                                ctx.cfg.span, 1e-3)


def _prop1_synthetic(ctx: RunContext) -> None:
    """The profile r + amp sin r, sampled at spacing 1e-3."""
    r = np.arange(-3.0, 3.0 + 5e-4, 1e-3)
    S = TranslationAction(r, r + ctx.cfg.prop1_profile_amp * np.sin(r))
    ctx.made["linearization"] = linearize_translation_action(S, 0.0, (-0.5, 0.5))


def _numeric_factorization(ctx: RunContext) -> None:
    ctx.made["factorization"] = factor_translation_numeric(*ctx.handles[:2], ctx.cfg.slide_s)


# The stage table.  TEICHMULLER is the end-to-end pass, VERDICT the last
# stage of every teichmuller run; the prop1 and factorize subcommands have
# their own last stage.
SOLVE = Stage("solve_conjugacy", (), _solve_conjugacy)
PERIODIC = Stage("compare_smooth_invariants", (), _compare_smooth_invariants)
HOLDER = Stage("estimate_holder_exponent", ("h",), _estimate_holder_exponent)
LINE_FIELDS = Stage("line_fields", (), _line_fields)
PROPAGATION = Stage("tangency_propagation", ("fields",), _tangency_propagation)
PROP1 = Stage("prop1", ("h",), _prop1)
JACOBIAN = Stage("jacobian", ("h",), _jacobian)
TEICHMULLER = (SOLVE, PERIODIC, HOLDER, LINE_FIELDS, PROPAGATION, PROP1, JACOBIAN)
VERDICT = Stage("verdict", (), _verdict)
PROP1_ALONG_H = Stage("prop1", ("h",), _prop1_along_h)
PROP1_SYNTHETIC = Stage("prop1", (), _prop1_synthetic)
FACTORIZATION = Stage("numeric_factorization", (), _numeric_factorization)


def run_stages(ctx: RunContext, stages) -> None:
    """The stage runner: run ``stages`` in order, skipping a stage that
    needs a product an earlier stage failed to make.  Each stage's wall
    time goes to ``ctx.timings`` under its name, and an AnosovLabError it
    raises becomes the ``ctx.errors`` entry ``"<stage>: <Type>: <message>"``;
    the stages after it still run."""
    for stage in stages:
        if not all(need in ctx.made for need in stage.needs):
            continue
        start = time.perf_counter()
        try:
            stage.run(ctx)
        except AnosovLabError as exc:
            ctx.errors.append(f"{stage.name}: {type(exc).__name__}: {exc}")
        finally:
            ctx.timings[stage.name] = round(time.perf_counter() - start, 6)


def obstructed(ctx: RunContext) -> bool:
    """Whether the periodic data found differ by more than their threshold."""
    periodic = ctx.made.get("periodic")
    return (periodic is not None
            and periodic.max_mismatch > ctx.cfg.thresholds["periodic_mismatch"])


def teichmuller_stages(ctx: RunContext):
    """The stages of the teichmuller pass, each yielded once the ones
    before it have run: the first three of TEICHMULLER, then, for a pair
    that periodic data do not obstruct, ``line_fields`` and
    ``tangency_propagation`` (only when ``check_pair_hypothesis`` holds),
    ``prop1`` and ``jacobian``, and last ``verdict`` in every run.  A run
    without a pair says why in a ``pair: ...`` entry, a failed pair
    hypothesis in a ``pair_hypothesis: ...`` entry."""
    yield from TEICHMULLER[:3]
    if not obstructed(ctx):
        yield from _pair_stages(ctx)
    yield VERDICT


def _pair_stages(ctx: RunContext):
    """The stages of the teichmuller pass after periodic data that need
    the generator pair."""
    if len(ctx.handles) < 2 or ctx.cfg.kind == "perturbed":
        # the pair checks assume that one h conjugates both maps; h is solved
        # from g1 alone, and nothing yet tests it against g2 = A2 + p
        why = ("the second map of a perturbed pair is not used, since h is solved from the "
               "first map alone and not tested against the second"
               ) if len(ctx.handles) > 1 else "only one generator map was given"
        ctx.errors.append(f"pair: {why}, so the line fields, Lemma 3 and Proposition 1 "
                          "were not run")
        return
    pair = ctx.made["pair"] = check_pair_hypothesis(*(g.element for g in ctx.handles[:2]))
    if pair.hypothesis_ok:
        yield from (LINE_FIELDS, PROPAGATION)
    else:
        ctx.errors.append(f"pair_hypothesis: the eigen-directions of g1 and g2 are not pairwise "
                          f"transverse (min sine {pair.min_pairwise_sine:g}), so the line fields "
                          f"and Lemma 3 were not run")
    yield from (PROP1, JACOBIAN)


def teichmuller_verdict(ctx: RunContext) -> TeichmullerVerdict:
    """``obstructed`` when periodic data differ by more than their
    threshold, else ``smooth`` when ``ctx.errors`` is empty and every
    measure is within its threshold, else ``inconclusive``.  An
    ``inconclusive`` verdict with no stage error lists one entry
    ``"verdict: <measure> <value> > thresholds.<key> = <threshold>"`` (``<``
    for the transversality angle) per check that fell short.  It only
    reads what the stages made, its own measures included (the
    ``verdict`` stage); the measures of the stages that did not run stay
    nan."""
    thr, made = ctx.cfg.thresholds, ctx.made
    diag: dict = {"thresholds": dict(thr)}
    transversality = lemma3 = slope = prop1 = jacobian = float("nan")
    if "h" in made:
        h = made["h"]
        # the residual is the solve's own sup |u o A - A u - p(h)| over its grid
        diag["conjugacy_sup_norm"], diag["conjugacy_residual"] = h.sup_norm, h.residual
    if "periodic" in made:
        diag["periodic_max_mismatch"] = made["periodic"].max_mismatch
        diag["periodic_rows"] = made["periodic"].rows
    if "holder" in made:
        diag["holder_exponent"], diag["holder_stderr"] = made["holder"]
    if "pair" in made:
        diag["pair_min_sine"] = made["pair"].min_pairwise_sine
    if "fields" in made:
        diag["line_field_changes"] = {key: f.change for key, f in made["fields"].items()}
    if "transversality_pairs" in made:
        pairs = made["transversality_pairs"]
        transversality = min(angle for angle, _ in pairs.values())
        diag["transversality_pairs"] = {key: (angle, tuple(at))
                                        for key, (angle, at) in pairs.items()}
    if "propagation" in made:
        rows = made["propagation"]
        lemma3 = max(r.transport_deviation for r in rows)
        slope = max(r.slope_difference for r in rows)
        diag["propagation_rows"] = [r.to_dict() for r in rows]
        diag["propagation_min_angle"] = min(r.angle for r in rows)
    if "prop1" in made:
        diag["prop1"] = made["prop1"]
        prop1 = max(made["prop1"]["residual_unstable"], made["prop1"]["residual_stable"])
    if "jacobian" in made:
        diag.update(made["jacobian"])
        jacobian = made["jacobian"]["jacobian_refinement_sup"]
    # each check's verdict field, measure, threshold key and whether the
    # measure must be at least (else at most) its threshold; nan falls short
    checks = (("transversality_min_angle", transversality, "transversality", True),
              ("lemma3_deviation", lemma3, "lemma3", False),
              ("prop1_affinity_residual", prop1, "prop1_residual", False),
              ("jacobian_consistency", jacobian, "jacobian", False))
    short = [f"verdict: {name} {value:.3g} {'<' if least else '>'} thresholds.{key} = "
             f"{thr[key]:g}" for name, value, key, least in checks
             if not (value >= thr[key] if least else value <= thr[key])]
    verdict = ("obstructed" if obstructed(ctx)
               else "inconclusive" if short or ctx.errors else "smooth")
    # a run that fell short only of thresholds names each check
    errors = short if verdict == "inconclusive" and not ctx.errors else list(ctx.errors)
    return TeichmullerVerdict(transversality, lemma3, slope, prop1, jacobian, verdict, diag,
                              errors)


def teichmuller_experiment(g1, g2=None, **settings) -> TeichmullerVerdict:
    """Run every numerically checkable consequence of the triviality
    argument on the marked action generated by (g1, g2) as the teichmuller
    pass: ``solve_conjugacy`` (h for g1), ``compare_smooth_invariants``
    (periodic data), ``estimate_holder_exponent`` (of h), ``line_fields``
    (Lemma 2 transversality), ``tangency_propagation`` (Lemma 3),
    ``prop1`` (the translation action of h linearized along both
    eigen-directions) and ``jacobian`` (the secant Jacobian of h); see
    ``teichmuller_stages`` for which of them run, ``run_stages`` for how a
    failure is reported and ``teichmuller_verdict`` for the verdict.
    The action is read off the handles alone (D phi off g1), and
    ``settings`` are ExperimentConfig fields set over the default config."""
    ctx = RunContext(replace(load_config(), **settings), [g for g in (g1, g2) if g is not None])
    run_stages(ctx, teichmuller_stages(ctx))
    return teichmuller_verdict(ctx)

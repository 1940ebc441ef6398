"""Leaf-translation actions, the linearization pipeline, holonomy
factorization, tangency propagation, and the end-to-end rigidity verdict.

The central object is a one-parameter action S(t, y) on a transversal
parameter interval, conjugate to the rigid translations by a monotone
profile.  The linearization algorithm recovers the conjugating coordinate
g by integrating the measured partial derivative of S and verifies that
the conjugated action L = g o S o g^{-1} is affine, L(t, z) = z + alpha t.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .conjugacy import Conjugacy, compare_smooth_invariants, estimate_holder_exponent, solve_conjugacy
from .errors import (
    AnosovLabError,
    DomainMismatch,
    NonMonotoneG,
    RootBracketFailed,
    SingularSystem,
)
from .foliations import (
    LeafBundle,
    LineField,
    _cross_to_target,
    _flow,
    _graph_plan,
    _graphs_on_leaves,
    heteroclinic_points,
    holonomies,
    integrate_leaves,
    line_fields,
    min_transversality_angle,
    verify_graph_transport,
)
from .interp import MonotoneCubic
from .lattice import HyperbolicElement, check_pair_hypothesis, line_angle

FD_STEP = 1e-5  # centered-difference step of dS/dy


class TranslationAction:
    """An action S(t, y) conjugate to rigid translations by a monotone
    profile psi: S(t, y) = psi(psi^{-1}(y) + t), psi the MonotoneCubic
    through the samples (r, psi(r))."""

    def __init__(self, r_values, psi_values):
        self.psi = MonotoneCubic(r_values, psi_values, "profile")
        self.y_domain = (float(self.psi.y.min()), float(self.psi.y.max()))

    def __call__(self, t, y):
        return self.psi(self.psi.inverse(y) + t)

    def flow_defect(self, t, s, y_values) -> float:
        """Sup of |S(t+s, y) - S(t, S(s, y))| over the samples."""
        y = np.asarray(y_values, dtype=float)
        return float(np.max(np.abs(self(t + s, y) - self(t, self(s, y)))))

    def identity_defect(self, y_values) -> float:
        y = np.asarray(y_values, dtype=float)
        return float(np.max(np.abs(self(0.0, y) - y)))


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
    curve = h.lift(base[None, :] + fine[:, None] * v[None, :])
    full = np.linalg.norm(curve[2::2] - curve[:-2:2], axis=1)
    halves = np.linalg.norm(np.diff(curve, axis=0), axis=1)
    half_sum = halves[0::2] + halves[1::2]
    seg = half_sum + (half_sum - full) / 3.0  # Richardson: O(dr^4) arc length
    psi = np.concatenate([[0.0], np.cumsum(seg)])
    psi -= np.interp(0.0, r, psi)  # anchor: psi(0) = 0
    return TranslationAction(r, psi)


@dataclass
class RegularityReport:
    """Refinement stability and modulus of continuity of dS/dy."""

    refinement_sup: float
    modulus_of_continuity: float
    d_field: np.ndarray  # (n_t, n_y) coarse finite-difference field


def verify_action_regularity(S: TranslationAction, t_values, y_values) -> RegularityReport:
    """Finite-difference field D(t, y) ~ dS/dy on the grid and on a
    2x-refined y-grid; reports sup |D_fine - D_coarse| and the discrete
    modulus of continuity of D."""
    t_values = np.asarray(t_values, dtype=float)
    y_values = np.asarray(y_values, dtype=float)

    def d_field(ys, step):
        out = np.empty((len(t_values), len(ys)))
        for i, t in enumerate(t_values):
            out[i] = (S(t, ys + step) - S(t, ys - step)) / (2 * step)
        return out

    coarse = d_field(y_values, FD_STEP)
    fine = d_field(y_values, FD_STEP / 2.0)
    refinement = float(np.max(np.abs(fine - coarse)))
    osc = 0.0
    if coarse.shape[1] > 1:
        osc = max(osc, float(np.max(np.abs(np.diff(coarse, axis=1)))))
    if coarse.shape[0] > 1:
        osc = max(osc, float(np.max(np.abs(np.diff(coarse, axis=0)))))
    return RegularityReport(refinement_sup=refinement, modulus_of_continuity=osc,
                            d_field=coarse)


@dataclass
class LinearizationResult:
    """Output of the translation-pseudogroup linearization."""

    alpha: float
    affinity_residual: float
    y0: float
    g: MonotoneCubic = field(repr=False)  # knots: the quadrature nodes y and g(y)
    action: TranslationAction = field(repr=False)

    @property
    def g_nodes(self) -> np.ndarray:
        """(m, 2): y and g(y) samples."""
        return np.column_stack([self.g.x, self.g.y])

    def conjugated(self, t, z):
        """L(t, z) = g(S(t, g^{-1}(z)))."""
        return self.g(self.action(t, self.g.inverse(z)))


def _solve_t(S: TranslationAction, ys, y0: float, t_range: float) -> np.ndarray:
    """Roots t(y) of S(t, y) = y0 for every node y of ys, by bisection
    bracketing plus secant polish, all nodes at once.

    Each node keeps the iterates of a solve of that node alone: it returns
    early where f = S - y0 is exactly 0 at a bracket end or midpoint, takes
    40 halvings of [-t_range, t_range], then up to 60 secant steps clipped
    to that range, stopping where f repeats, |f| < 1e-12 or the step is
    shorter than 1e-15.  Each round evaluates S on the live nodes only.
    Raises RootBracketFailed naming the first y without a sign change.
    """
    ys = np.asarray(ys, dtype=float)
    n = len(ys)

    def f(t, rows):
        return S(t, ys[rows]) - y0

    every = np.arange(n)
    lo = np.full(n, -t_range)
    hi = np.full(n, t_range)
    f_lo, f_hi = f(lo, every), f(hi, every)
    out = np.where(f_lo == 0.0, lo, hi)
    live = (f_lo != 0.0) & (f_hi != 0.0)
    lost = live & (np.sign(f_lo) == np.sign(f_hi))
    if lost.any():
        raise RootBracketFailed(f"no sign change for y={float(ys[lost][0])} in t range +-{t_range}")
    for _ in range(40):
        rows = np.flatnonzero(live)
        if len(rows) == 0:
            break
        mid = 0.5 * (lo[rows] + hi[rows])
        f_mid = f(mid, rows)
        root = f_mid == 0.0
        out[rows[root]] = mid[root]
        live[rows[root]] = False
        same = ~root & (np.sign(f_mid) == np.sign(f_lo[rows]))
        lo[rows[same]], f_lo[rows[same]] = mid[same], f_mid[same]
        other = ~root & ~same
        hi[rows[other]], f_hi[rows[other]] = mid[other], f_mid[other]
    polished = live.copy()
    t0, f0, t1, f1 = lo, f_lo, hi, f_hi
    for _ in range(60):
        rows = np.flatnonzero(live)
        if len(rows) == 0:
            break
        flat = f1[rows] == f0[rows]
        live[rows[flat]] = False
        rows = rows[~flat]
        t2 = t1[rows] - f1[rows] * (t1[rows] - t0[rows]) / (f1[rows] - f0[rows])
        t2 = np.minimum(np.maximum(t2, -t_range), t_range)
        f2 = f(t2, rows)
        t0[rows], f0[rows], t1[rows], f1[rows] = t1[rows], f1[rows], t2, f2
        live[rows[(np.abs(f2) < 1e-12) | (np.abs(t1[rows] - t0[rows]) < 1e-15)]] = False
    out[polished] = t1[polished]
    return out


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

    Steps: (1) solve S(t(y), y) = y0 for each quadrature node; (2) measure
    the integrand dS/dy at (t(y), y) by centered differences; (3) integrate
    it by composite Simpson to get the coordinate g; (4) conjugate,
    L = g o S o g^{-1}, on an 11 x 11 test lattice; (5) fit alpha by least
    squares of L(t, z) - z against t.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not lo <= y0 <= hi:
        raise DomainMismatch(f"y0={y0} outside domain [{lo}, {hi}]")
    t_range = 4.0 * (hi - lo)
    n = max(8, int(math.ceil((hi - lo) / quad_spacing)))
    ys = np.linspace(lo, hi, n + 1)

    t_of_y = _solve_t(S, ys, y0, t_range)
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
    in first-coordinate-1 normalization; exact linear algebra."""
    v1s = _slope_normalized(e1.vs)
    v2s = _slope_normalized(e2.vs)
    v1u = _slope_normalized(e1.vu)
    basis = np.column_stack([v2s, -v1u])
    det = float(np.linalg.det(basis))
    if abs(det) < 1e-12:
        raise SingularSystem("v_2^s and v_1^u are linearly dependent")
    r, t = np.linalg.solve(basis, -s * v1s)
    return FactorizationResult(slide_s=float(s), slide_r=float(r),
                               translation_t=float(t), numeric_deviation=0.0)


def factor_translation_numeric(field_1s: LineField, field_2s: LineField,
                               tau_ext: LeafBundle, e1: HyperbolicElement,
                               e2: HyperbolicElement, s: float,
                               step: float = 1e-3) -> FactorizationResult:
    """Slide 9 samples of the one-row unstable transversal ``tau_ext``, at
    the parameters y in [-0.1, 0.1], along the first stable foliation by
    leaf-length s, then along the second stable foliation back to the
    (extended) unstable leaf.

    The composed motion is compared with the translation by the t
    predicted by the linear factorization.
    """
    linear = factor_translation_linear(e1, e2, s)
    # factorization parameters use first-coordinate-1 normalization; the
    # leaf machinery works in arc length, so convert via the vector norms
    scale_1s = float(np.linalg.norm(_slope_normalized(e1.vs)))
    scale_1u = float(np.linalg.norm(_slope_normalized(e1.vu)))
    arc_slide = s * scale_1s
    y_samples = np.linspace(-0.1, 0.1, 9)
    if s == 0.0:
        landed = y_samples.copy()
        arc_t_pred = 0.0
    else:
        starts, _ = tau_ext.evaluate(y_samples)
        # leg 1: fixed arc-length slide along the first stable foliation,
        # signed so positive s moves along the canonical stable direction;
        # all starts flow together with integrate_leaf's step count and size
        n_steps = max(1, int(round(abs(arc_slide) / step)))
        headings = math.copysign(1.0, arc_slide) * field_1s.direction_at(np.mod(starts, 1.0))
        traj, _ = _flow(field_1s, starts, headings, n_steps, abs(arc_slide) / n_steps)
        mids = traj[-1]
        # leg 2: holonomy along the second stable foliation back to the leaf
        budget = abs(linear.slide_r) * 3.0 + 0.3
        landed, _ = _cross_to_target(field_2s, mids, tau_ext, budget=budget, step=step)
        arc_t_pred = linear.translation_t * scale_1u
    deviation = float(np.max(np.abs(landed - (y_samples + arc_t_pred))))
    implied_t = float(np.mean(landed - y_samples)) / scale_1u
    return FactorizationResult(slide_s=float(s), slide_r=linear.slide_r,
                               translation_t=implied_t, numeric_deviation=deviation)


@dataclass
class PropagationRow:
    lattice: tuple
    point: np.ndarray
    angle: float              # between E_1^u and E_2^s at z'
    measured_slope: float
    predicted_slope: float
    transport_deviation: float

    @property
    def slope_difference(self) -> float:
        return abs(self.measured_slope - self.predicted_slope)

    def to_dict(self) -> dict:
        """The row as reported: every field but the point."""
        return {"lattice": self.lattice, "angle": self.angle,
                "measured_slope": self.measured_slope,
                "predicted_slope": self.predicted_slope,
                "transport_deviation": self.transport_deviation}


def tangency_propagation_check(field_1u: LineField, field_1s: LineField,
                               field_2s: LineField, z, e1: HyperbolicElement,
                               radius: int = 1, eps: float = 0.05,
                               step: float = 1e-3, nonlinear: bool = False):
    """Transport the local graph of the second stable foliation from z to
    each heteroclinic point z' and compare predicted against measured
    slopes and graphs.  The holonomies run between frame axes of length
    0.3 at z and 0.6 at z'.

    The leaves of every lattice vector k run together, in phases with one
    batched call per field each: the heteroclinic leaves through z (when
    ``nonlinear``; one per field serves every k), every frame axis and
    target leaf of the local graphs at z and at each z', the local-graph
    crossings, and the holonomies.  The lift of each z' on the unstable
    leaf from z is the crossing point of its heteroclinic solve (z + a v_u
    for the linear action), and its lift on the stable leaf is that point
    minus k (z + b v_s for the linear action).  Each k gets the numbers a
    check of that k alone would give.  An error from a stacked call keeps
    its class and names the failing k and whether the row belongs to a
    heteroclinic leaf, a local graph or a holonomy.

    The graphs and holonomies are not-a-knot cubic splines.  The predicted
    slope at z' is the chain rule of theta_z' = hol_u o theta_z o hol_s^-1
    at 0: hol_u'(theta_z(u0)) theta_z'(u0) / hol_s'(u0), u0 = hol_s^-1(0).

    Returns a list of PropagationRow, one per lattice vector.
    """
    z = np.asarray(z, dtype=float)
    fu = field_1u if nonlinear else None
    fs = field_1s if nonlinear else None
    hps = heteroclinic_points(z, e1, radius, field_u=fu, field_s=fs, step=step)
    ks = [hp.lattice for hp in hps]
    n = len(hps)
    # lifts of z' reached along the unstable / stable leaves from z
    zp_u = np.array([hp.lift for hp in hps])
    if nonlinear:
        zp_s = zp_u - np.array(ks, dtype=float)
    else:
        zp_s = np.array([z + hp.s_param * e1.vs for hp in hps])

    # graph 0 sits at z, graph 1 + j at the lift of the j-th z'
    bases = np.vstack([z[None, :], zp_u])
    graph_tags = ["local graph at z"] + [f"local graph k={k}" for k in ks]
    hol_tags = [f"holonomy k={k}" for k in ks]
    reach, leaf_lengths = _graph_plan(bases, field_1u, field_2s, eps, graph_tags)
    # per frame field, one bundle: the holonomy axis at z, the axes of
    # every local graph, and the holonomy axis at each z'
    axis_tags = ["holonomy axis at z"] + graph_tags + hol_tags
    lengths = [0.3] + [reach] * (n + 1) + [0.6] * n
    axes_u = integrate_leaves(field_1u, np.vstack([z[None, :], bases, zp_s]), lengths,
                              step=step, centered=True, tags=axis_tags)
    axes_s = integrate_leaves(field_1s, np.vstack([z[None, :], bases, zp_u]), lengths,
                              step=step, centered=True, tags=axis_tags)
    leaves = integrate_leaves(field_2s, bases, leaf_lengths, step=step, centered=True,
                              tags=graph_tags)
    graphs = _graphs_on_leaves(field_1u, field_1s, axes_u.take(range(1, n + 2)),
                               axes_s.take(range(1, n + 2)), leaves, eps, reach, step, graph_tags)
    at_zp = range(n + 2, 2 * n + 2)
    hols_s = holonomies(field_1s, axes_u.take([0]), axes_u.take(at_zp),
                        [abs(hp.s_param) * 1.5 + 0.5 for hp in hps], step=step,
                        span=(-eps, eps), tags=hol_tags)
    hols_u = holonomies(field_1u, axes_s.take([0]), axes_s.take(at_zp),
                        [abs(hp.u_param) * 1.5 + 0.5 for hp in hps], step=step,
                        span=(-eps, eps), tags=hol_tags)
    angles = line_angle(field_1u.direction_at(np.mod(zp_u, 1.0)),
                        field_2s.direction_at(np.mod(zp_u, 1.0)))
    theta_z = graphs[0]
    rows = []
    for hp, theta_zp, hol_s, hol_u, angle in zip(hps, graphs[1:], hols_s, hols_u, angles):
        deviation = verify_graph_transport(theta_z, theta_zp, hol_s, hol_u)
        u0 = hol_s.inverse(0.0)
        predicted = hol_u.derivative(theta_z(u0)) * theta_z.derivative(u0) / hol_s.derivative(u0)
        measured = theta_zp.derivative(0.0)
        rows.append(PropagationRow(
            lattice=hp.lattice,
            point=hp.point,
            angle=float(angle),
            measured_slope=float(measured),
            predicted_slope=float(predicted),
            transport_deviation=float(deviation),
        ))
    return rows


DEFAULT_THRESHOLDS = {
    "transversality": 0.05,      # rad, Lemma-2 margin
    "lemma3": 1e-3,              # graph-transport deviation
    "prop1_residual": 1e-6,      # affinity residual of L
    "jacobian": 1e-3,            # secant-Jacobian refinement stability
    "periodic_mismatch": 1e-4,   # smooth-invariant obstruction
}


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


@contextmanager
def _stage(errors: list, name: str):
    """Run one named stage of ``teichmuller_experiment``: an AnosovLabError
    raised in it becomes the entry ``"name: Type: message"`` of ``errors``,
    and the stages after it still run."""
    try:
        yield
    except AnosovLabError as exc:
        errors.append(f"{name}: {type(exc).__name__}: {exc}")


def teichmuller_experiment(e1: HyperbolicElement, g1,
                           e2: HyperbolicElement | None = None, g2=None,
                           phi=None, thresholds: dict | None = None,
                           grid_n: int = 256, field_n: int = 128,
                           field_iters: int = 40, max_period: int = 2,
                           propagation_step: float = 8e-3, span: float = 0.35,
                           seed: int = 0, radius: int = 1,
                           eps: float = 0.05,
                           unpaired: str | None = None) -> TeichmullerVerdict:
    """Run every numerically checkable consequence of the triviality
    argument on the marked action generated by (g1, g2), as named stages:
    ``solve_conjugacy`` (h for g1), ``compare_smooth_invariants``
    (periodic data; a mismatch above threshold makes the run
    ``obstructed``), ``estimate_holder_exponent`` (of h) and, for a pair
    (``e2`` and ``g2`` given) that is not obstructed, ``line_fields`` (the
    four invariant line fields and Lemma 2 transversality, run only when
    ``check_pair_hypothesis`` holds), ``tangency_propagation`` (Lemma 3),
    ``prop1`` (the translation action of h linearized along both
    eigen-directions) and ``jacobian`` (refinement stability of the
    secant Jacobian of h and, with ``phi``, the known smooth conjugacy,
    its distance from D phi).  A stage whose input failed is skipped.

    An AnosovLabError ends only its own stage, as the ``errors`` entry
    ``"<stage>: <ExceptionType>: <message>"``; periodic seeds whose Newton
    diverged make one ``compare_smooth_invariants: NewtonFailed: ...``
    entry.  A run without a pair says why in a ``pair: ...`` entry
    (``unpaired`` or, when it is None, that only one generator map was
    given), a failed pair hypothesis in a ``pair_hypothesis: ...`` entry.
    The verdict is ``obstructed``, else ``smooth`` when ``errors`` is
    empty and every measure is within its threshold, else
    ``inconclusive``.  ``radius`` and ``eps`` are those of
    ``tangency_propagation_check``.
    """
    thr = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        thr.update(thresholds)
    diag: dict = {"thresholds": dict(thr)}
    errors: list[str] = []
    # the measures of the stages that did not run stay nan
    measures = dict.fromkeys(("transversality_min_angle", "lemma3_deviation",
                              "lemma3_slope_deviation", "prop1_affinity_residual",
                              "jacobian_consistency"), float("nan"))

    h = None
    with _stage(errors, "solve_conjugacy"):
        h = solve_conjugacy(e1, g1, n=grid_n)
        diag["conjugacy_sup_norm"] = h.displacement.sup_norm
        diag["conjugacy_residual"] = h.residual_on_grid(64)

    obstructed = False
    with _stage(errors, "compare_smooth_invariants"):
        report = compare_smooth_invariants(g1, e1, max_period)
        diag["periodic_max_mismatch"] = report.max_mismatch
        diag["periodic_rows"] = report.rows
        obstructed = report.max_mismatch > thr["periodic_mismatch"]
        report.check_converged()
    if h is not None:
        with _stage(errors, "estimate_holder_exponent"):
            diag["holder_exponent"], diag["holder_stderr"] = estimate_holder_exponent(
                h, e1.vu, scales=np.geomspace(1e-4, 1e-2, 7), seed=seed)

    paired = not obstructed and e2 is not None and g2 is not None
    if not (paired or obstructed):
        errors.append(f"pair: {unpaired or 'only one generator map was given'}, so the line "
                      "fields, Lemma 3 and Proposition 1 were not run")
    if paired:
        pair = check_pair_hypothesis(e1, e2)
        diag["pair_min_sine"] = pair.min_pairwise_sine
        fields = {}
        if not pair.hypothesis_ok:
            errors.append(f"pair_hypothesis: the eigen-directions of g1 and g2 are not pairwise "
                          f"transverse (min sine {pair.min_pairwise_sine:g}), so the line fields "
                          f"and Lemma 3 were not run")
        else:
            with _stage(errors, "line_fields"):
                fields = line_fields((g1, g2), ("f1u", "f1s", "f2u", "f2s"), field_n, field_iters)
                diag["line_field_depths"] = {key: f.depth for key, f in fields.items()}
                a1, at1 = min_transversality_angle(fields["f1u"], fields["f2s"])
                a2, at2 = min_transversality_angle(fields["f2u"], fields["f1s"])
                measures["transversality_min_angle"] = min(a1, a2)
                diag["transversality_pairs"] = {
                    "E1u_vs_E2s": (a1, tuple(np.asarray(at1, dtype=float))),
                    "E2u_vs_E1s": (a2, tuple(np.asarray(at2, dtype=float))),
                }

        if fields:
            with _stage(errors, "tangency_propagation"):
                rows = tangency_propagation_check(
                    fields["f1u"], fields["f1s"], fields["f2s"],
                    np.zeros(2), e1, radius=radius, eps=eps,
                    step=propagation_step, nonlinear=not g1.is_linear)
                measures["lemma3_deviation"] = max(r.transport_deviation for r in rows)
                measures["lemma3_slope_deviation"] = max(r.slope_difference for r in rows)
                diag["propagation_rows"] = [r.to_dict() for r in rows]
                diag["propagation_min_angle"] = min(r.angle for r in rows)

        if h is not None:
            with _stage(errors, "prop1"):
                S_u, lin_u = _prop1_along(h, e1.vu, span, 2e-3)
                _, lin_s = _prop1_along(h, e1.vs, span, 2e-3)
                measures["prop1_affinity_residual"] = max(lin_u.affinity_residual,
                                                          lin_s.affinity_residual)
                reg = verify_action_regularity(
                    S_u, np.linspace(0.0, 0.1, 5),
                    np.linspace(0.55 * S_u.y_domain[0], 0.55 * S_u.y_domain[1], 21))
                diag["prop1"] = {
                    "alpha_unstable": lin_u.alpha, "alpha_stable": lin_s.alpha,
                    "residual_unstable": lin_u.affinity_residual,
                    "residual_stable": lin_s.affinity_residual,
                    "regularity_refinement_sup": reg.refinement_sup,
                }

            with _stage(errors, "jacobian"):
                pts = np.random.default_rng(seed).random((25, 2))
                coarse = h.secant_jacobian(pts, delta=1e-4)
                fine = h.secant_jacobian(pts, delta=5e-5)
                jac_stab = float(np.max(np.abs(fine - coarse)))
                measures["jacobian_consistency"] = jac_stab
                diag["jacobian_refinement_sup"] = jac_stab
                if phi is not None:
                    diag["jacobian_vs_dphi_sup"] = float(np.max(np.abs(fine - phi.derivative(pts))))

    checks = (
        measures["transversality_min_angle"] >= thr["transversality"]
        and measures["lemma3_deviation"] <= thr["lemma3"]
        and measures["prop1_affinity_residual"] <= thr["prop1_residual"]
        and measures["jacobian_consistency"] <= thr["jacobian"]
    )
    verdict = ("obstructed" if obstructed
               else "smooth" if checks and not errors else "inconclusive")
    return TeichmullerVerdict(**measures, verdict=verdict, diagnostics=diag, errors=errors)

"""Periodic bicubic interpolation on uniform N x N torus grids, and the
not-a-knot cubic spline on the line.

The spline is the one cubic family of the program: it serves the Lemma 3
holonomy and graph maps and the Proposition 1 profiles and coordinates.
It does the arithmetic of SciPy's ``CubicSpline`` (default not-a-knot
ends) operation for operation, and agrees with it to the bit; of SciPy,
only ``ndimage`` is imported.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage


class PeriodicBicubic:
    """Bicubic spline interpolation of grid data with periodic wrap.

    ``values`` has shape (N, N, m); sample i, j sits at the torus point
    (i / N, j / N).
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        self.n = values.shape[0]
        self._coeffs = [
            ndimage.spline_filter(values[:, :, m], order=3, mode="grid-wrap")
            for m in range(values.shape[2])
        ]

    def __call__(self, x) -> np.ndarray:
        """Values at the torus points x of shape (n, 2): shape (n, m), the
        transposed view of one (m, n) array that each channel's
        ``map_coordinates`` call writes its row of."""
        coords = (x.T * self.n) % self.n
        out = np.empty((len(self._coeffs), len(x)))
        for c, row in zip(self._coeffs, out):
            ndimage.map_coordinates(c, coords, output=row, order=3, mode="grid-wrap",
                                    prefilter=False)
        return out.T


class HermiteCubic:
    """Piecewise cubic through (x_i, y_i) with slope d_i at each knot.

    Piece i holds c = [t / dx, (slope - d_i) / dx - t, d_i, y_i] on
    [x_i, x_{i+1}), where slope is the chord slope and
    t = d_i + d_{i+1} - 2 slope; the first and last pieces extend past the
    ends.  Values are the power sum c3 + c2 s + c1 s^2 + c0 s^3 in
    s = u - x_i, summed in that order.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, d: np.ndarray):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (d[:-1] + d[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - d[:-1]) / dx - t, d[:-1], y[:-1]))
        self._inner = x[1:-1].copy()

    def _pieces(self, u):
        """Coefficients of the piece of each u, and s = u - its left knot.

        The piece is the number of interior knots at or below u, which is
        the last i with x_i <= u, clipped to the first and last pieces."""
        i = np.searchsorted(self._inner, u, side="right")
        return self.c.take(i, axis=1), u - self.x.take(i)

    def __call__(self, u) -> np.ndarray:
        """Values at u, an array of u's shape (0-d for a scalar)."""
        u = np.asarray(u, dtype=float)
        (c0, c1, c2, c3), s = self._pieces(u.ravel())
        s2 = s * s
        return (0.0 + c3 + c2 * s + c1 * s2 + c0 * (s2 * s)).reshape(u.shape)

    def derivative(self, u) -> np.ndarray:
        """First derivative at u: the power sum of the coefficients
        [3 c0, 2 c1, c2], an array of u's shape."""
        u = np.asarray(u, dtype=float)
        (c0, c1, c2, _), s = self._pieces(u.ravel())
        return (0.0 + c2 + 2 * c1 * s + 3 * c0 * (s * s)).reshape(u.shape)


def _knots(x, y):
    """x and y as float arrays, checked: 1-D, equal lengths, at least 4
    knots, finite, x strictly increasing."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"x and y must be 1-D of one length, got {x.shape} and {y.shape}")
    if len(x) < 4:
        raise ValueError(f"need at least 4 knots, got {len(x)}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("x and y must be finite")
    if np.any(np.diff(x) <= 0):
        raise ValueError("x must be strictly increasing")
    return x, y


def not_a_knot_spline(x, y) -> HermiteCubic:
    """The C2 cubic spline through (x, y), at least 4 knots, whose third
    derivative is continuous across the second and the second-last knot.

    Its knot slopes solve a tridiagonal system by the steps of LAPACK's
    ``gtsv``: one elimination sweep down the rows, interchanging rows i and
    i + 1 where the subdiagonal entry is the larger (on near-uniform knots
    it never is, and the sweep is Thomas's), then back substitution.
    """
    x, y = _knots(x, y)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # row i: sub[i - 1] s[i - 1] + diag[i] s[i] + sup[i] s[i + 1] = rhs[i]
    diag = np.empty_like(x)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    sub = np.empty_like(dx)
    sub[:-1] = dx[1:]
    sup = np.empty_like(dx)
    sup[1:] = dx[:-1]
    rhs = np.empty_like(y)
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    # not-a-knot ends
    w = x[2] - x[0]
    diag[0], sup[0] = dx[1], w
    rhs[0] = ((dx[0] + 2 * w) * dx[1] * slope[0] + dx[0] * dx[0] * slope[1]) / w
    w = x[-1] - x[-3]
    diag[-1], sub[-1] = dx[-2], w
    rhs[-1] = (dx[-1] * dx[-1] * slope[-2] + (2 * w + dx[-1]) * dx[-2] * slope[-1]) / w
    diag, sub, sup, rhs = (a.tolist() for a in (diag, sub, sup, rhs))
    n = len(diag)
    fill = [0.0] * n  # second superdiagonal, nonzero only after an interchange
    for i in range(n - 1):
        if abs(diag[i]) >= abs(sub[i]):
            f = sub[i] / diag[i]
            diag[i + 1] -= f * sup[i]
            rhs[i + 1] -= f * rhs[i]
        else:
            f = diag[i] / sub[i]
            diag[i], sup[i], diag[i + 1] = sub[i], diag[i + 1], sup[i] - f * diag[i + 1]
            if i < n - 2:
                fill[i] = sup[i + 1]
                sup[i + 1] = -f * fill[i]
            rhs[i], rhs[i + 1] = rhs[i + 1], rhs[i] - f * rhs[i + 1]
    s = rhs + [0.0]
    s[-2] /= diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (s[i] - sup[i] * s[i + 1] - fill[i] * s[i + 2]) / diag[i]
    return HermiteCubic(x, y, np.array(s[:-1]))

"""Periodic bicubic interpolation on uniform N x N torus grids, and the
not-a-knot cubic spline on the line.

The bicubic is the periodic cubic B-spline: its coefficients come from one
2-D FFT of the grid values, taken in blocks of lines, and each value sums
16 of them.  The spline is the one cubic family of the program: a Lemma 3
local graph is one; ``MonotoneCubic``, a spline paired with its inverse,
is each Lemma 3 holonomy and the Proposition 1 profiles and coordinate g;
and ``inverse_spline`` alone reads a leaf's arc lengths back.  It does the
arithmetic of SciPy's ``CubicSpline`` (default not-a-knot ends) operation
for operation, and agrees with it to the bit; the package imports no SciPy.
"""

from __future__ import annotations

import numpy as np
# by name, so that the package's import loads np.fft, which NumPy 2 would
# load lazily inside the first experiment
from numpy.fft import fft, ifft, irfft, rfft

from .errors import NonMonotoneG
from .lattice import ROW_BLOCK


def _cubic_bspline_weights(s):
    """The weights of taps i - 1, i, i + 1 and i + 2 at t = i + s, s in
    [0, 1): shape (4, *s.shape).  The middle two are 2/3 - s^2 + s^3 / 2
    and its mirror in 1 - s."""
    u = 1 - s
    s2, u2 = s * s, u * u
    w = np.empty((4, *s.shape))
    np.multiply(u2, u / 6, out=w[0])
    np.multiply(s2, s / 2 - 1, out=w[1])
    np.multiply(u2, u / 2 - 1, out=w[2])
    w[1:3] += 2 / 3
    np.multiply(s2, s / 6, out=w[3])
    return w


class PeriodicBicubic:
    """Cubic B-spline interpolation of grid data with periodic wrap.

    ``values`` has shape (N, N, m); sample i, j sits at the torus point
    (i / N, j / N).  The spline through the samples weighs each coefficient
    by (1, 4, 1) / 6 along each axis, a circulant that the 2-D FFT
    diagonalizes, so the coefficients are the values' spectrum divided by
    d[k1] d[k2], d[k] = (4 + 2 cos 2 pi k / N) / 6 (Unser, IEEE SPM 1999).

    The build runs the 1-D transforms of ``rfft2`` and ``irfft2`` in their
    order, each in blocks of ROW_BLOCK // N lines, through one (N, N/2 + 1,
    m) complex spectrum: ``rfft`` along axis 1 a block of rows at a time
    into it; ``fft``, the division and ``ifft`` along axis 0 a block of
    columns at a time, in place; and ``irfft`` along axis 1 a block of rows
    at a time, written over the spectrum viewed as floats, where real row r
    ends before complex row r + 1 starts.  Every line is transformed alone,
    so the coefficients have the bits of ``irfft2(rfft2(v) / d d)``, and the
    build holds the spectrum and a few blocks besides the values: a traced
    peak of 17 to 20 B per grid point for m = 2 at N = 1024 and 512,
    against 48 for the whole-grid transforms.
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        n = self.n = values.shape[0]
        m = values.shape[2]
        d = (4 + 2 * np.cos(2 * np.pi / n * np.arange(n))) / 6
        step, half = max(1, ROW_BLOCK // n), d[:n // 2 + 1]
        spectrum = np.empty((n, len(half), m), dtype=complex)
        for r in range(0, n, step):
            spectrum[r:r + step] = rfft(values[r:r + step], axis=1)
        for c in range(0, len(half), step):
            block = fft(spectrum[:, c:c + step], axis=0)
            block /= (d[:, None] * half[c:c + step])[:, :, None]
            spectrum[:, c:c + step] = ifft(block, axis=0)
        flat = spectrum.reshape(-1).view(float)
        for r in range(0, n, step):
            real = irfft(spectrum[r:r + step], n, axis=1).reshape(-1)
            flat[r * n * m:r * n * m + real.size] = real
        # (N * N, m): the channels of a grid point side by side, so that one
        # gather fetches them all
        self._coeffs = flat[:n * n * m].reshape(n * n, m)
        # (i + k) mod N for the taps k = -1 .. 2 of every i in [0, N]
        self._wrap = np.arange(-1, n + 3) % n

    def __call__(self, x) -> np.ndarray:
        """Values at the torus points x of shape (n, 2): shape (n, m), the
        transposed view of one C-contiguous (m, n) array.

        On each axis t = (x N) mod N = i + s, and the taps are i - 1 .. i + 2
        mod N: t rounds to N for x just below 0.  The value is c(i, j) plus
        the weighted sum of c(tap) - c(i, j) over the 16 taps: the weights
        sum to 1, so this is the spline, and on the power-of-two grids the
        config allows, whose FFT keeps a constant's coefficients exact, a
        constant field comes back exactly."""
        size = self.n
        t = (x.T * size) % size
        i = np.floor(t)
        w = _cubic_bspline_weights(t - i)
        taps = self._wrap.take(i.astype(np.intp) + np.arange(4)[:, None, None])
        # (4, 4, n, m): the taps of every point and channel
        c = self._coeffs.take(taps[:, None, 0] * size + taps[:, 1], axis=0)
        centre = c[1, 1].copy()
        c -= centre
        rows = np.einsum("abpm,bp->apm", c, w[:, 1])
        out = np.empty((c.shape[-1], len(x)))
        np.einsum("apm,ap->mp", rows, w[:, 0], out=out)
        out += centre.T
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

    @property
    def domain(self):
        return float(self.x[0]), float(self.x[-1])

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


def inverse_spline(x, y, what: str) -> HermiteCubic:
    """The inverse of a strictly monotone map y(x) sampled at the knots x:
    the not-a-knot spline through (y, x), its knots reversed where y
    decreases.  Samples that are not strictly monotone raise NonMonotoneG,
    naming them by ``what``, before the spline is built."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    d = np.diff(y)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise NonMonotoneG(f"{what} samples are not strictly monotone")
    up = slice(None, None, 1 if d[0] > 0 else -1)  # the inverse's knots increasing
    return not_a_knot_spline(y[up], x[up])


class MonotoneCubic:
    """A strictly monotone map y(x) on strictly increasing knots x, and its
    inverse: the not-a-knot spline through (x, y) and ``inverse_spline``.

    ``derivative`` is the forward spline's.  Samples that are not strictly
    monotone raise NonMonotoneG, naming them by ``what``, before either
    spline is built.
    """

    def __init__(self, x, y, what: str):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self._inv = inverse_spline(self.x, self.y, what)
        self._fwd = not_a_knot_spline(self.x, self.y)

    @property
    def domain(self):
        return float(self.x[0]), float(self.x[-1])

    def __call__(self, x):
        return self._fwd(x)

    def inverse(self, y):
        return self._inv(y)

    def derivative(self, x):
        return self._fwd.derivative(x)

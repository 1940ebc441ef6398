"""Periodic bicubic interpolation on uniform N x N torus grids."""

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

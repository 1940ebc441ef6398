"""Nonlinear torus maps: perturbed automorphisms, diffeomorphisms id + q
and conjugated maps.

Every map handle exposes the same duck-typed surface:

    linear_part   -> IntMatrix2 (the homotopy class of the lift)
    lift(x)       -> lift values, equivariant: lift(x + k) = lift(x) + A k
    displacement(x) -> lift(x) - A x, a periodic function
    apply(x)      -> lift(x) mod 1
    jacobian(x)   -> derivative of the lift (batched (n, 2, 2))
    backward_jacobians(x) -> the jacobians along the backward orbit of x,
                     one depth at a time (a generator)
    inverse()     -> handle of the inverse map

Every evaluator takes a float batch of points x of shape (n, 2) and
returns one value per point: points (n, 2) or matrices (n, 2, 2).  Every
batch of matrices is laid out component-major (``lattice._empty2x2``):
each entry [:, r, c] is one contiguous plane, and the 2x2 kernels here
work plane by plane.
"""

from __future__ import annotations

import numpy as np

from .errors import NotADiffeo
from .fourier import FourierPerturbation
from .lattice import (HyperbolicElement, IntMatrix2, _empty2x2, _inv2, eigen_data, invert,
                      wrap_point)

NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 50


def _newton_inverse(linearize, y, z):
    """Solve lift(z) = y by Newton from the starting guess z.

    ``linearize(z)`` returns lift(z) and a function that forms jacobian(z)
    from the same sin and cos values, so each iterate evaluates the trig
    functions once, and the Jacobian is formed only at an iterate that has
    not converged.  The whole batch stops together, at the first iterate
    whose largest |lift(z) - y| is below NEWTON_TOL, or after
    NEWTON_MAX_ITERS steps, so a point's result can depend on its
    batchmates (a per-row stop is still open, ROADMAP item 3)."""
    for _ in range(NEWTON_MAX_ITERS):
        value, jacobian = linearize(z)
        res = value - y
        if np.max(np.abs(res)) < NEWTON_TOL:
            break
        z = z - _inv2(jacobian(), res)
    return z


def _plus(d, m):
    """The batch d (n, 2, 2) plus the one 2x2 matrix m, added in place,
    which keeps d's layout and allocates nothing."""
    d += m
    return d


class PerturbedMap:
    """g = A + p with A a hyperbolic automorphism and p a Fourier perturbation."""

    def __init__(self, base: HyperbolicElement, perturbation: FourierPerturbation):
        self._matrix = base.matrix
        self.perturbation = perturbation
        self._A = self._matrix.as_array()

    @property
    def linear_part(self) -> IntMatrix2:
        return self._matrix

    @property
    def is_linear(self) -> bool:
        return self.perturbation.is_zero

    def lift(self, x):
        return x @ self._A.T + self.perturbation.evaluate(x)

    def displacement(self, x):
        return self.perturbation.evaluate(x)

    def apply(self, x):
        return wrap_point(self.lift(x))

    def jacobian(self, x):
        return _plus(self.perturbation.derivative(x), self._A)

    def lift_and_jacobian(self, x):
        """lift(x) and a function that returns jacobian(x), both formed
        from one evaluation of the perturbation's trig values at x."""
        p = self.perturbation
        trig = p.trig(x)
        return (x @ self._A.T + p.value_from(trig),
                lambda: _plus(p.derivative_from(trig), self._A))

    def backward_jacobians(self, x):
        """jacobian(x_d) along the backward orbit x_d = g^{-d}(x),
        d = 1, 2, ..., with one Newton inverse per depth."""
        inv = self.inverse()
        while True:
            x = inv.apply(x)
            yield self.jacobian(x)

    def inverse(self):
        return InverseMap(self)


class InverseMap:
    """Inverse of a PerturbedMap, evaluated by Newton on the forward lift."""

    def __init__(self, forward):
        self.forward = forward
        self._B = invert(forward.linear_part).as_array()

    @property
    def linear_part(self) -> IntMatrix2:
        return invert(self.forward.linear_part)

    def lift(self, y):
        return _newton_inverse(self.forward.lift_and_jacobian, y, y @ self._B.T)

    def displacement(self, y):
        return self.lift(y) - y @ self._B.T

    def apply(self, y):
        return wrap_point(self.lift(y))

    def jacobian(self, y):
        return _inv2(self.forward.jacobian(self.lift(y)))

    def backward_jacobians(self, y):
        """jacobian(y_d) along the backward orbit of this inverse map, which
        is the forward map's orbit y_d = forward(y_{d-1}), d = 1, 2, ...:
        the jacobian at y_d is D forward(y_{d-1})^{-1}, formed at the point
        in hand, so no Newton solve is made; the forward lift and jacobian
        share one trig evaluation."""
        while True:
            value, jacobian = self.forward.lift_and_jacobian(y)
            yield _inv2(jacobian())
            y = wrap_point(value)

    def inverse(self):
        return self.forward


class Diffeo:
    """phi = id + q, invertible when the derivative bound of q is below 1."""

    def __init__(self, q: FourierPerturbation):
        if q.deriv_bound >= 1.0:
            raise NotADiffeo(f"derivative bound {q.deriv_bound:.3f} >= 1")
        self.q = q

    def lift(self, x):
        return x + self.q.evaluate(x)

    def derivative(self, x):
        return _plus(self.q.derivative(x), np.eye(2))

    def lift_and_derivative(self, x):
        """lift(x) and a function that returns derivative(x), both formed
        from one evaluation of q's trig values at x."""
        trig = self.q.trig(x)
        return (x + self.q.value_from(trig),
                lambda: _plus(self.q.derivative_from(trig), np.eye(2)))

    def inverse_lift(self, y):
        """Solve x + q(x) = y by Newton; the contraction bound makes the
        linear initial guess x = y sufficient."""
        return _newton_inverse(self.lift_and_derivative, y, y.copy())


def _conjugated_jacobian(d_out, A, d_in_inv):
    """d_out A d_in_inv for batches d_out, d_in_inv (n, 2, 2) and one A,
    the 2x2 product written out plane by plane into the layout of
    ``_empty2x2``.

    Each entry (i, l) sums (d_out[i, j] A[j, k]) d_in_inv[k, l] over
    (j, k) in row-major order, starting from +0.0, which is the order and
    association of np.einsum("nij,jk,nkl->nil", ...) to the bit."""
    out = _empty2x2(len(d_out))
    term = np.empty(len(d_out))
    for i in range(2):
        for l in range(2):
            acc = out[:, i, l]
            acc[...] = 0.0
            for j in range(2):
                for k in range(2):
                    np.multiply(d_out[:, i, j], A[j, k], out=term)
                    term *= d_in_inv[:, k, l]
                    acc += term
    return out


class ConjugatedMap:
    """g = phi o A o phi^{-1} for a linear hyperbolic A and a diffeo phi."""

    def __init__(self, phi: Diffeo, base: HyperbolicElement):
        self.phi = phi
        self.base = base
        self._A = base.matrix.as_array()
        self._B = invert(base.matrix).as_array()

    @property
    def linear_part(self) -> IntMatrix2:
        return self.base.matrix

    @property
    def is_linear(self) -> bool:
        """True when phi is the identity, so the map is its linear part A."""
        return self.phi.q.is_zero

    def lift(self, x):
        return self.phi.lift(self.phi.inverse_lift(x) @ self._A.T)

    def displacement(self, x):
        return self.lift(x) - x @ self._A.T

    def apply(self, x):
        return wrap_point(self.lift(x))

    def jacobian(self, x):
        w = self.phi.inverse_lift(x)
        return _conjugated_jacobian(self.phi.derivative(w @ self._A.T), self._A,
                                    _inv2(self.phi.derivative(w)))

    def backward_jacobians(self, x):
        """jacobian(x_d) along the backward orbit x_d = g^{-d}(x),
        d = 1, 2, ..., walked in phi's chart: w_d = phi^{-1}(x_d) is
        A^{-1} w_{d-1} up to an integer vector, since phi - id is periodic,
        so the one phi^{-1} solve at x serves every depth.  A w_d is
        w_{d-1} up to an integer vector, so D phi(w_{d-1}) is the
        D phi(A w_d) factor of depth d: D phi is evaluated once per orbit
        point and used at two depths."""
        w = self.phi.inverse_lift(x)
        d_prev = self.phi.derivative(w)
        while True:
            w = wrap_point(w @ self._B.T)
            d_here = self.phi.derivative(w)
            yield _conjugated_jacobian(d_prev, self._A, _inv2(d_here))
            d_prev = d_here

    def inverse(self):
        return ConjugatedMap(self.phi, eigen_data(invert(self.base.matrix)))

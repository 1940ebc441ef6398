"""Nonlinear torus maps: perturbed automorphisms, diffeomorphisms id + q
and conjugated maps.

Every map handle exposes the same duck-typed surface:

    element       -> HyperbolicElement of the linear part A (the homotopy
                     class of the lift) with its eigen-frame, formed once
                     per handle
    lift(x)       -> lift values, equivariant: lift(x + k) = lift(x) + A k
    displacement(x, out=None)
                  -> lift(x) - A x, a periodic function, into out when
                     given, an (n, 2) float array that may be x itself
    jacobian(x)   -> derivative of the lift (batched (n, 2, 2))
    orbit(x, n)   -> the n-th iterate of the lift and its derivative, for
                     n >= 0: (points (n, 2), matrices (n, 2, 2))
    inverse()     -> handle of the inverse map, built on the first call and
                     kept; its inverse is this handle

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
from .lattice import HyperbolicElement, _empty2x2, _inv2, eigen_data, invert, power

NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 50


def _newton_inverse(linearize, y, z):
    """Solve lift(z) = y by Newton from the starting guess z: (z, lift(z),
    jacobian), with jacobian the function that forms the derivative at z.

    ``linearize(z)`` returns lift(z) and a function that forms jacobian(z)
    from the same sin and cos values, so each iterate evaluates the trig
    functions once, and the Jacobian is formed only at an iterate that has
    not converged, or by the caller at the z returned: its linearization is
    the one Newton made there, and after NEWTON_MAX_ITERS steps the last z
    is linearized once more.  The whole batch stops together, at the first
    iterate whose largest |lift(z) - y| is below NEWTON_TOL, or after
    NEWTON_MAX_ITERS steps, so a point's result can depend on its
    batchmates (a per-row stop is still open, ROADMAP item 3)."""
    for _ in range(NEWTON_MAX_ITERS):
        value, jacobian = linearize(z)
        res = value - y
        if np.max(np.abs(res)) < NEWTON_TOL:
            return z, value, jacobian
        z = z - _inv2(jacobian(), res)
    return (z, *linearize(z))


def _stepped_orbit(step, x, n: int):
    """G^n(x) on the lift and the chain-rule product D G^n(x) by n explicit
    steps; ``step(z)`` returns the jacobian at z and the image of z."""
    jac = np.broadcast_to(np.eye(2), (len(x), 2, 2)).copy()
    z = x
    for _ in range(n):
        j_here, z = step(z)
        jac = np.einsum("nij,njk->nik", j_here, jac)
    return z, jac


def _copies(m, n: int):
    """n copies of the one 2x2 matrix m, in the layout of ``_empty2x2``."""
    out = _empty2x2(n)
    out[...] = m
    return out


def _plus(d, m):
    """The batch d (n, 2, 2) plus the one 2x2 matrix m, added in place,
    which keeps d's layout and allocates nothing."""
    d += m
    return d


class PerturbedMap:
    """g = A + p with A a hyperbolic automorphism and p a Fourier perturbation."""

    def __init__(self, element: HyperbolicElement, perturbation: FourierPerturbation):
        self.element = element
        self.perturbation = perturbation
        self._A = element.matrix.as_array()
        self._inverse = None  # the inverse handle, built by ``inverse``

    @property
    def is_linear(self) -> bool:
        return self.perturbation.is_zero

    def lift(self, x):
        return x @ self._A.T + self.perturbation.evaluate(x)

    def displacement(self, x, out=None):
        return self.perturbation.evaluate(x, out=out)

    def jacobian(self, x):
        return _plus(self.perturbation.derivative(x), self._A)

    def lift_and_jacobian(self, x):
        """lift(x) and a function that returns jacobian(x), both formed
        from one evaluation of the perturbation's trig values at x."""
        p = self.perturbation
        trig = p.trig(x)
        return (x @ self._A.T + p.value_from(trig),
                lambda: _plus(p.derivative_from(trig), self._A))

    def orbit(self, x, n: int):
        """g^n(x) and D g^n(x) by n steps of ``lift_and_jacobian``, so each
        step evaluates the trig functions once."""
        def step(z):
            value, jacobian = self.lift_and_jacobian(z)
            return jacobian(), value
        return _stepped_orbit(step, x, n)

    def inverse(self):
        """The handle of g^-1, built on the first call and kept."""
        if self._inverse is None:
            self._inverse = InverseMap(self)
        return self._inverse


class InverseMap:
    """Inverse of a PerturbedMap, evaluated by Newton on the forward lift."""

    def __init__(self, forward):
        self.forward = forward
        self.element = eigen_data(invert(forward.element.matrix))
        self._B = self.element.matrix.as_array()

    def _solve(self, y):
        """``_newton_inverse`` of the forward lift from y B^T: the image z,
        the forward lift at z and the function that forms its jacobian."""
        return _newton_inverse(self.forward.lift_and_jacobian, y, y @ self._B.T)

    def lift(self, y):
        return self._solve(y)[0]

    def displacement(self, y, out=None):
        return np.subtract(self.lift(y), y @ self._B.T, out=out)

    def jacobian(self, y):
        return _inv2(self._solve(y)[2]())

    def orbit(self, y, n: int):
        """The n-th iterate of this inverse map and its derivative by n
        steps.  Each step solves the Newton inverse at the point reduced
        mod 1 and adds back B k for the integer part k, since
        lift(y + k) = lift(y) + B k; so the solve reaches its stop on an
        orbit that grows like lambda_u^n.  The jacobian at the point is that
        of the forward map at the step's image, inverted, formed from the
        Newton solve's last trig evaluation there."""
        def step(z):
            k = np.floor(z)
            image, _, jacobian = self._solve(z - k)
            return _inv2(jacobian()), image + k @ self._B.T
        return _stepped_orbit(step, y, n)

    def inverse(self):
        return self.forward


class Diffeo:
    """phi = id + q, invertible when the derivative bound of q is below 1."""

    def __init__(self, q: FourierPerturbation):
        if not q.deriv_bound < 1.0:  # a nan bound too
            raise NotADiffeo(f"derivative bound {q.deriv_bound:.3g} is not below 1")
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
        linear initial guess x = y sufficient.  Returns (x, lift(x), the
        function that returns derivative(x)), the last two from Newton's
        own evaluation at x."""
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

    def __init__(self, phi: Diffeo, element: HyperbolicElement):
        self.phi = phi
        self.element = element
        self._A = element.matrix.as_array()
        self._powers = {}  # n -> A^n as a float array, formed on first use
        self._inverse = None  # the inverse handle, built by ``inverse``

    @property
    def is_linear(self) -> bool:
        """True when phi is the identity, so the map is its linear part A."""
        return self.phi.q.is_zero

    def lift(self, x):
        return self.phi.lift(self.phi.inverse_lift(x)[0] @ self._A.T)

    def displacement(self, x, out=None):
        """lift(x) - x A^T, both formed over the whole batch before out is
        written, so out may alias x."""
        if self.is_linear:  # lift(x) is x A^T, to the bit
            if out is None:
                return np.zeros((len(x), 2))
            out.fill(0.0)
            return out
        return np.subtract(self.lift(x), x @ self._A.T, out=out)

    def jacobian(self, x):
        w, _, derivative = self.phi.inverse_lift(x)
        return _conjugated_jacobian(self.phi.derivative(w @ self._A.T), self._A,
                                    _inv2(derivative()))

    def orbit(self, x, n: int):
        """g^n(x) = phi(A^n w) and D g^n(x) = D phi(A^n w) A^n D phi(w)^-1
        with w = phi^{-1}(x): one phi^{-1} solve for every n.  A^n scales
        an error of w by up to lambda_u^n, so w takes one more Newton step
        past the solve's stop, with the phi(w) and D phi(w) of the solve's
        own last evaluation at w; the jacobian uses that D phi(w) too.
        When phi is the identity this is x A^n^T and A^n, which the general
        path also gives to the bit, formed without its solve."""
        a_n = self._powers.get(n)
        if a_n is None:
            a_n = self._powers[n] = power(self.element.matrix, n).as_array()
        if self.is_linear:
            return x @ a_n.T, _copies(a_n, len(x))
        w, value, derivative = self.phi.inverse_lift(x)
        d_in_inv = _inv2(derivative())
        w = w - np.einsum("nij,nj->ni", d_in_inv, value - x)
        image, d_out = self.phi.lift_and_derivative(w @ a_n.T)
        return image, _conjugated_jacobian(d_out(), a_n, d_in_inv)

    def inverse(self):
        """The handle of g^-1 = phi A^-1 phi^-1, built on the first call and
        kept, with its A^n memo; its inverse is this handle."""
        if self._inverse is None:
            self._inverse = ConjugatedMap(self.phi, eigen_data(invert(self.element.matrix)))
            self._inverse._inverse = self
        return self._inverse

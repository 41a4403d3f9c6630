"""Discretized surface metrics and their differential operators.

A geometry is a fixed background grid plus a conformal exponent ``phi``;
the live metric is ``g = e^(2*phi) * g_background``.  Two backgrounds are
supported:

* ``TorusGeometry`` -- flat square torus of side ``length`` on an NxN
  periodic grid with spacing ``h = length / n``.  Fields are (n, n) arrays
  indexed ``[i, j]`` with ``x = i*h`` (axis 0) and ``y = j*h`` (axis 1).
* ``SphereGeometry`` -- unit round sphere, rotationally symmetric fields
  of the colatitude only.  Nodes are staggered, ``theta_j = (j + 1/2)*pi/n``,
  so no node sits on a pole; smooth axisymmetric fields are even across
  both poles, which fixes the ghost values used by first derivatives.
  Fields are (n,) arrays.

Scalar fields are plain ``numpy`` arrays whose shape ties them to the
geometry; every operator validates the shape and raises
:class:`~harnackflow.errors.GridMismatchError` on mismatch.

Numerical choices, in one place:

* second-order centered differences throughout (no spectral machinery);
* the sphere Laplacian is in flux form with the pole fluxes exactly zero,
  so its integral against the area weights telescopes to zero exactly;
* quadrature weights are exact cell areas of the background scaled by
  ``e^(2*phi)``: ``h^2`` on the torus and ``4*pi*sin(theta_j)*sin(dtheta/2)``
  on the sphere (the band area written so it is exactly proportional to
  ``sin(theta_j)``, which makes discrete mass conservation exact).

All operations are pure functions of immutable inputs; geometries hold a
read-only copy of ``phi`` and never mutate it.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatchError

# Scalar curvature of the unit round sphere.
SPHERE_BACKGROUND_CURVATURE = 2.0

# Safety factor of the explicit-step CFL rule dt <= CFL_FACTOR * h^2 * min(e^(2 phi)).
CFL_FACTOR = 0.2


def cfl_limit(h, phi):
    """Largest explicit step at background spacing h: 0.2 * h^2 * min(e^(2 phi))."""
    return CFL_FACTOR * h * h * float(np.exp(2.0 * np.asarray(phi).min()))


def _require_c_contiguous(w, out):
    # a plan reads and writes through flat views, which a strided array
    # would silently turn into copies
    for name, a in (("w", w), ("out", out)):
        if not a.flags.c_contiguous:
            raise GridMismatchError(f"laplacian_plan needs a C-contiguous {name}, not strides {a.strides}")


def _as_field(values, shape, name="field"):
    w = np.asarray(values, dtype=float)
    if w.shape != shape:
        raise GridMismatchError(f"{name} has shape {w.shape}, expected {shape}")
    if not np.all(np.isfinite(w)):
        raise GridMismatchError(f"{name} contains non-finite entries")
    return w


class SurfaceGeometry:
    """Shared conformal-metric machinery; subclasses supply background ops."""

    kind = "abstract"

    def __init__(self, n, phi=None):
        self.n = int(n)
        if self.n < 4:
            raise GridMismatchError(f"resolution n = {n} is too coarse (need n >= 4)")
        if phi is None:
            phi = np.zeros(self.field_shape)
        phi = _as_field(phi, self.field_shape, "phi").copy()
        phi.setflags(write=False)
        self.phi = phi

    # -- background hooks -------------------------------------------------

    @property
    def field_shape(self):
        raise NotImplementedError

    @property
    def background_spacing(self):
        """Grid spacing h of the background (torus: L/n, sphere: pi/n)."""
        raise NotImplementedError

    @property
    def background_curvature(self):
        raise NotImplementedError

    def laplacian_plan(self, w, out):
        """Background Laplacian bound to the arrays ``w`` and ``out``.

        Returns ``lap()``, which writes the Laplacian of the current contents
        of ``w`` over its trailing field axes into ``out`` and returns it.
        ``w`` may carry leading axes (the flow stacks members and fields
        there).  Every view and scratch buffer is made here, so a hot loop
        builds one plan per buffer pair and each call allocates nothing.
        Both plans work on flat views of the whole stack, so they need
        C-contiguous ``w`` and ``out``: a flat view of a strided array would
        be a copy.  A strided one raises GridMismatchError.  The flow's
        field-major stack ``(2, members, *field_shape)`` is contiguous, and
        so is every per-field block of it.
        """
        raise NotImplementedError

    def _bg_lap_raw(self, w):
        """Background Laplacian without shape validation."""
        w = np.ascontiguousarray(w)
        return self.laplacian_plan(w, np.empty(w.shape))()

    def background_laplacian(self, w):
        return self._bg_lap_raw(self.check_field(w))

    def background_area_weights(self):
        """Exact cell areas of the background metric."""
        raise NotImplementedError

    def _metric_diag(self):
        """Diagonal components (g_11, g_22) of the live metric per node."""
        raise NotImplementedError

    def with_phi(self, phi):
        raise NotImplementedError

    # -- conformal-metric operators ---------------------------------------

    def check_field(self, w, name="field"):
        return _as_field(w, self.field_shape, name)

    @property
    def node_count(self):
        return int(np.prod(self.field_shape))

    def conformal_factor(self):
        """e^(2*phi), the pointwise ratio of live to background metric."""
        return np.exp(2.0 * self.phi)

    def scalar_curvature(self):
        """Scalar curvature of the live metric, R = e^(-2 phi) (R_bg - 2 lap_bg phi)."""
        return np.exp(-2.0 * self.phi) * (
            self.background_curvature - 2.0 * self._bg_lap_raw(self.phi)
        )

    def laplace_beltrami(self, w):
        """Laplace-Beltrami of the live metric: e^(-2 phi) * background Laplacian."""
        w = self.check_field(w)
        return np.exp(-2.0 * self.phi) * self._bg_lap_raw(w)

    def grad_inner(self, w1, w2):
        """Pointwise inner product of gradients in the live metric."""
        raise NotImplementedError

    def grad_norm_sq(self, w):
        """|grad w|^2 in the live metric; exactly grad_inner(w, w), differentiating once."""
        raise NotImplementedError

    def covariant_hessian(self, w):
        """Covariant Hessian of the live metric, shape field_shape + (2, 2).

        Components are in background coordinates (torus: x, y; sphere:
        theta, azimuth).  The g-trace of the result agrees with
        :meth:`laplace_beltrami` to second order.
        """
        raise NotImplementedError

    def hessian_trace(self, w):
        """g^{ij} (hessian w)_{ij}; second-order consistent with laplace_beltrami."""
        t = self.covariant_hessian(w)
        g1, g2 = self._metric_diag()
        return t[..., 0, 0] / g1 + t[..., 1, 1] / g2

    def hessian_deviation_sq(self, w, sigma):
        """|hessian(w) - sigma * g|^2 contracted with the live metric.

        ``sigma`` may be a scalar or a field; the pure-trace subtraction is
        what every identity's Hessian-square term reduces to on surfaces,
        where the Ricci tensor is (R/2) g.
        """
        t = self.covariant_hessian(w)
        g1, g2 = self._metric_diag()
        d11 = t[..., 0, 0] - sigma * g1
        d22 = t[..., 1, 1] - sigma * g2
        d12 = t[..., 0, 1]
        return (d11 / g1) ** 2 + 2.0 * d12**2 / (g1 * g2) + (d22 / g2) ** 2

    def area_weights(self):
        """Quadrature weights of the live area measure, dmu = e^(2 phi) dmu_bg."""
        return self.conformal_factor() * self.background_area_weights()

    def integrate(self, w):
        """Integral of a scalar field against the live area measure."""
        w = self.check_field(w)
        return float(np.sum(w * self.area_weights()))

    def total_area(self):
        return float(np.sum(self.area_weights()))

    def cfl_bound(self):
        """Largest explicit step the scheme accepts for the current metric."""
        return cfl_limit(self.background_spacing, self.phi)


class TorusGeometry(SurfaceGeometry):
    """Flat square torus background, fully periodic NxN grid."""

    kind = "torus"

    def __init__(self, n, length, phi=None):
        self.length = float(length)
        if not self.length > 0:
            raise GridMismatchError("torus side length must be positive")
        super().__init__(n, phi)
        self.h = self.length / self.n

    @property
    def field_shape(self):
        return (self.n, self.n)

    @property
    def background_spacing(self):
        return self.length / self.n

    @property
    def background_curvature(self):
        return 0.0

    def with_phi(self, phi):
        return TorusGeometry(self.n, self.length, phi)

    def coords(self):
        """Node coordinate arrays (x, y), broadcastable to the field shape."""
        ax = np.arange(self.n) * self.h
        return ax[:, None], ax[None, :]

    def _dx(self, w):
        return (np.roll(w, -1, axis=0) - np.roll(w, 1, axis=0)) / (2.0 * self.h)

    def _dy(self, w):
        return (np.roll(w, -1, axis=1) - np.roll(w, 1, axis=1)) / (2.0 * self.h)

    def laplacian_plan(self, w, out):
        # Five-point stencil summed in the order
        # (w[i+1,j] + w[i-1,j]) + w[i,j+1] + w[i,j-1] - 4 w, then / h^2,
        # each neighbour sum in one pass over contiguous memory: an add over
        # strided column slices costs about four times a flat pass.
        _require_c_contiguous(w, out)
        n = self.n
        # views, not copies, since both arrays are contiguous
        wf, of = w.reshape(-1), out.reshape(-1)
        w_fields, out_fields = w.reshape(-1, n * n), out.reshape(-1, n * n)
        four_w = np.empty(w.shape)
        saved = np.empty(w.shape[:-1])
        h2 = self.h * self.h
        # (flat target, flat neighbour, wrap column, its wrap neighbour): the
        # flat j + 1 pass is wrong in the last column, the j - 1 pass in the first
        cols = (
            (of[:-1], wf[1:], out[..., -1], w[..., 0]),
            (of[1:], wf[:-1], out[..., 0], w[..., -1]),
        )

        def lap():
            # i +- 1: rows 1..n-2 of each field at flat offsets +-n, then
            # the two wrap rows
            np.add(w_fields[:, 2 * n :], w_fields[:, : -2 * n], out=out_fields[:, n:-n])
            np.add(w[..., 1, :], w[..., -1, :], out=out[..., 0, :])
            np.add(w[..., 0, :], w[..., -2, :], out=out[..., -1, :])
            for target, b, wrap, wrap_b in cols:
                # the flat pass adds a zero in the wrap column, whose sum it
                # discards, so that sum cannot overflow or raise a warning
                np.copyto(saved, wrap)
                wrap.fill(0.0)
                np.add(target, b, out=target)
                np.add(saved, wrap_b, out=wrap)
            np.multiply(w, 4.0, out=four_w)
            np.subtract(out, four_w, out=out)
            return np.divide(out, h2, out=out)

        return lap

    def background_area_weights(self):
        return np.full(self.field_shape, self.h * self.h)

    def _metric_diag(self):
        e2p = self.conformal_factor()
        return e2p, e2p

    def grad_inner(self, w1, w2):
        w1 = self.check_field(w1, "w1")
        w2 = self.check_field(w2, "w2")
        inner = self._dx(w1) * self._dx(w2) + self._dy(w1) * self._dy(w2)
        return np.exp(-2.0 * self.phi) * inner

    def grad_norm_sq(self, w):
        w = self.check_field(w)
        wx, wy = self._dx(w), self._dy(w)
        return np.exp(-2.0 * self.phi) * (wx * wx + wy * wy)

    def covariant_hessian(self, w):
        w = self.check_field(w)
        h2 = self.h * self.h
        wxx = (np.roll(w, -1, axis=0) - 2.0 * w + np.roll(w, 1, axis=0)) / h2
        wyy = (np.roll(w, -1, axis=1) - 2.0 * w + np.roll(w, 1, axis=1)) / h2
        wxy = (
            np.roll(w, (-1, -1), axis=(0, 1))
            - np.roll(w, (-1, 1), axis=(0, 1))
            - np.roll(w, (1, -1), axis=(0, 1))
            + np.roll(w, (1, 1), axis=(0, 1))
        ) / (4.0 * h2)
        px, py = self._dx(self.phi), self._dy(self.phi)
        wx, wy = self._dx(w), self._dy(w)
        t = np.empty(self.field_shape + (2, 2))
        t[..., 0, 0] = wxx - px * wx + py * wy
        t[..., 1, 1] = wyy - py * wy + px * wx
        t[..., 0, 1] = wxy - py * wx - px * wy
        t[..., 1, 0] = t[..., 0, 1]
        return t


def _sphere_background(n):
    """Cached staggered-grid background arrays for the unit sphere."""
    bg = _SPHERE_BG_CACHE.get(n)
    if bg is None:
        dtheta = np.pi / n
        theta = (np.arange(n) + 0.5) * dtheta
        # Half-node sines for the flux form; forced to exactly zero at the
        # poles so the polar fluxes vanish identically.
        sin_half = np.sin(np.arange(n + 1) * dtheta)
        sin_half[0] = 0.0
        sin_half[n] = 0.0
        sin_theta = np.sin(theta)
        bg = {
            "dtheta": dtheta,
            "theta": theta,
            "sin_theta": sin_theta,
            "cos_theta": np.cos(theta),
            "sin_plus": sin_half[1:],
            "inv_sin_dt2": 1.0 / (sin_theta * dtheta * dtheta),
            "weights": (4.0 * np.pi * np.sin(0.5 * dtheta)) * sin_theta,
        }
        for arr in bg.values():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        _SPHERE_BG_CACHE[n] = bg
    return bg


_SPHERE_BG_CACHE = {}


def sphere_flux_plan(w, out, rows):
    """Sphere Laplacian over a flat stack of rows of any resolutions, bound to ``w`` and ``out``.

    ``rows`` lists the node count n of each row in flat order; together
    they cover ``w``, which may be any C-contiguous array (the flow's
    field-major stack is phi's rows, then f's).  Returns ``lap()`` as
    ``SurfaceGeometry.laplacian_plan`` does, and each row gets exactly the
    Laplacian of its own sphere.
    """
    # Flux form over the flat stack: flux[o + j] is the flux into node j of
    # the row at offset o from node j - 1, so one exact-zero pole flux sits
    # between consecutive rows and at both ends.  The difference pass skips
    # those row junctions, which are never written and stay +0, so no
    # difference across two rows can overflow or warn; each row's sin_plus
    # ends in the exact zero there.
    _require_c_contiguous(w, out)
    wf, of = w.reshape(-1), out.reshape(-1)
    if sum(rows) != wf.size:
        raise GridMismatchError(f"rows of {sum(rows)} nodes in total do not cover a stack of {wf.size}")
    flux = np.zeros(wf.size + 1)
    inner, upper, lower = flux[1:-1], flux[1:], flux[:-1]
    w_next, w_prev = wf[1:], wf[:-1]
    if len(rows) == 1:
        bg = _sphere_background(rows[0])
        inside, sin_plus, inv_sin_dt2 = True, bg["sin_plus"][:-1], bg["inv_sin_dt2"]
    else:
        inside = np.ones(wf.size - 1, dtype=bool)
        inside[np.cumsum(rows)[:-1] - 1] = False
        backgrounds = [_sphere_background(n) for n in rows]
        sin_plus = np.concatenate([bg["sin_plus"] for bg in backgrounds])[:-1]
        inv_sin_dt2 = np.concatenate([bg["inv_sin_dt2"] for bg in backgrounds])

    def lap():
        np.subtract(w_next, w_prev, inner, where=inside)  # w_{j+1} - w_j
        np.multiply(sin_plus, inner, inner)
        np.subtract(upper, lower, of)
        np.multiply(of, inv_sin_dt2, of)
        return out

    return lap


class SphereGeometry(SurfaceGeometry):
    """Unit round sphere background, rotationally symmetric fields of theta."""

    kind = "rot_sphere"

    def __init__(self, n, phi=None):
        super().__init__(n, phi)
        bg = _sphere_background(self.n)
        self.dtheta = bg["dtheta"]
        self.theta = bg["theta"]
        self.sin_theta = bg["sin_theta"]
        self.cos_theta = bg["cos_theta"]
        self._sin_plus = bg["sin_plus"]
        self._inv_sin_dt2 = bg["inv_sin_dt2"]
        self._weights = bg["weights"]

    @property
    def field_shape(self):
        return (self.n,)

    @property
    def background_spacing(self):
        return np.pi / self.n

    @property
    def background_curvature(self):
        return SPHERE_BACKGROUND_CURVATURE

    def with_phi(self, phi):
        return SphereGeometry(self.n, phi)

    def extinction_time(self):
        """Time left until the flow shrinks this sphere to a point.

        An evolving sphere loses area at the constant rate 8 pi
        (Gauss-Bonnet), so that time is its total area over 8 pi.
        """
        return self.total_area() / (8.0 * np.pi)

    @staticmethod
    def round_phi(radius):
        """Conformal exponent of the round sphere of the given radius."""
        return float(np.log(radius))

    def _ghost(self, w):
        """Even reflection across both poles (smooth axisymmetric fields)."""
        out = np.empty(self.n + 2)
        out[1:-1] = w
        out[0] = w[0]
        out[-1] = w[-1]
        return out

    def _dtheta_centered(self, w):
        g = self._ghost(w)
        return (g[2:] - g[:-2]) / (2.0 * self.dtheta)

    def _d2theta(self, w):
        g = self._ghost(w)
        return (g[2:] - 2.0 * g[1:-1] + g[:-2]) / (self.dtheta * self.dtheta)

    def laplacian_plan(self, w, out):
        # the uniform case of the flux plan: every row has this sphere's n
        return sphere_flux_plan(w, out, [self.n] * (w.size // self.n))

    def background_area_weights(self):
        # Band area 2*pi*(cos(theta-) - cos(theta+)) written as an exact
        # multiple of sin(theta_j); summing sin over staggered nodes gives
        # total area 4*pi to round-off.
        return self._weights

    def _metric_diag(self):
        e2p = self.conformal_factor()
        return e2p, e2p * self.sin_theta**2

    def grad_inner(self, w1, w2):
        w1 = self.check_field(w1, "w1")
        w2 = self.check_field(w2, "w2")
        # product of derivatives first: keeps the operation exactly symmetric
        return (self._dtheta_centered(w1) * self._dtheta_centered(w2)) * np.exp(-2.0 * self.phi)

    def grad_norm_sq(self, w):
        dw = self._dtheta_centered(self.check_field(w))
        return (dw * dw) * np.exp(-2.0 * self.phi)

    def covariant_hessian(self, w):
        w = self.check_field(w)
        dphi = self._dtheta_centered(self.phi)
        dw = self._dtheta_centered(w)
        t = np.zeros(self.field_shape + (2, 2))
        t[:, 0, 0] = self._d2theta(w) - dphi * dw
        t[:, 1, 1] = (self.sin_theta * self.cos_theta + self.sin_theta**2 * dphi) * dw
        return t

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
:class:`~harnackflow.errors.GridMismatchError` on mismatch.  The
differential operators (the Laplacians, gradients and Hessians) work over
the trailing field axes of a stack with any leading axes, each field of it
exactly as alone, and two stacked arguments broadcast against each other:
one call differentiates a field for every tuple of a batch.  A state's
fields, the integral and the total area take one field exactly.

Numerical choices, in one place:

* second-order centered differences throughout (no spectral machinery);
* on the torus every stencil is a set of slice passes over the field
  itself (``_wrapped``, and the Laplacian plan): no padded copy of a field
  is made, and no pass combines two nodes the stencil does not pair;
* the covariant Hessian is built one component at a time
  (``_hessian_components``), so ``hessian_deviation_sq`` never holds the
  whole (..., 2, 2) tensor;
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

import itertools
import math
import numbers
from functools import cached_property

import numpy as np

from .errors import ConstraintViolationError, GridMismatchError, require_real

# Scalar curvature of the unit round sphere.
SPHERE_BACKGROUND_CURVATURE = 2.0

# Safety factor of the explicit-step CFL rule dt <= CFL_FACTOR * h^2 * min(e^(2 phi)).
CFL_FACTOR = 0.2

# Most nodes a grid may have: one snapshot of it, phi and f in float64,
# then fills flow.MAX_SNAPSHOT_BYTES (2^34 bytes), the most any plan keeps.
MAX_NODES = 2**30


def cfl_limit(h, phi):
    """Largest explicit step at background spacing h: 0.2 * h^2 * min(e^(2 phi))."""
    return CFL_FACTOR * h * h * float(np.exp(2.0 * np.asarray(phi).min()))


def _require_c_contiguous(w, out):
    # a plan reads and writes through flat views, which a strided array
    # would silently turn into copies
    for name, a in (("w", w), ("out", out)):
        if not a.flags.c_contiguous:
            raise GridMismatchError(f"laplacian_plan needs a C-contiguous {name}, not strides {a.strides}")


def _deviation_sq(t, sigma, g):
    """((t - sigma g) / g)^2, written into t when t has the broadcast shape."""
    sg = sigma * g
    d = np.subtract(t, sg, out=t if np.broadcast_shapes(t.shape, sg.shape) == t.shape else None)
    d /= g
    d *= d
    return d


def _as_field(values, shape, name="field", stacked=False):
    """``values`` as a finite float array of ``shape``, after any leading axes if ``stacked``."""
    try:
        w = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise GridMismatchError(f"{name} of type {type(values).__name__} is not an array of real numbers") from None
    tail = w.shape[w.ndim - len(shape):] if stacked and w.ndim >= len(shape) else w.shape
    if tail != shape:
        where = " after any leading axes" if stacked else ""
        raise GridMismatchError(f"{name} has shape {w.shape}, expected {shape}{where}")
    if not np.all(np.isfinite(w)):
        raise GridMismatchError(f"{name} contains non-finite entries")
    return w


class SurfaceGeometry:
    """Shared conformal-metric machinery; subclasses supply background ops."""

    kind = "abstract"

    def __init__(self, n, phi=None):
        if type(self) is SurfaceGeometry:
            raise ConstraintViolationError("SurfaceGeometry is abstract: build a TorusGeometry or a SphereGeometry")
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise GridMismatchError(f"resolution n = {n!r} must be an integer")
        self.n = int(n)
        if self.n < 4:
            raise GridMismatchError(f"resolution n = {n} is too coarse (need n >= 4)")
        # refused by arithmetic, before any array of the grid is made
        if math.prod(self.field_shape) > MAX_NODES:
            raise GridMismatchError(f"resolution n = {n} gives more than {MAX_NODES} nodes (2^30)")
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

    @property
    def plan_unit(self):
        """Unit of a ``laplacian_plan``'s output: h^2 on the torus, 1 on the sphere."""
        raise NotImplementedError

    def laplacian_plan(self, w, out, scratch=None):
        """Background Laplacian, in units of ``plan_unit``, bound to the arrays ``w`` and ``out``.

        Returns ``lap()``, which writes ``plan_unit`` times the Laplacian of
        the current contents of ``w`` over its trailing field axes into
        ``out`` and returns it: the torus plan writes the bare five-point
        sum, and leaves the division by h^2 to its reader, which can fold
        it into an operand it multiplies by anyway.
        ``w`` may carry leading axes (the flow stacks members and fields
        there).  Every view and buffer is made here, so a hot loop builds
        one plan per buffer pair and each call allocates nothing.
        ``scratch``, an array shaped like ``w``, is free for the torus plan
        to overwrite on every call, so plans used one at a time may share
        it; one is made when it is None, and the sphere plan needs none.
        Both plans work on flat views of the whole stack, so they need
        C-contiguous ``w`` and ``out``: a flat view of a strided array would
        be a copy.  A strided one raises GridMismatchError.  The flow's
        field-major stack ``(2, members, *field_shape)`` is contiguous, and
        so is every per-field block of it.
        """
        raise NotImplementedError

    def _bg_lap_raw(self, w):
        """Background Laplacian without shape validation: the plan's output over ``plan_unit``."""
        w = np.ascontiguousarray(w)
        out = self.laplacian_plan(w, np.empty(w.shape))()
        return np.divide(out, self.plan_unit, out=out)

    def background_laplacian(self, w):
        return self._bg_lap_raw(self.check_fields(w))

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
        """``w`` as a float array of exactly the field shape, finite everywhere."""
        return _as_field(w, self.field_shape, name)

    def check_fields(self, w, name="field"):
        """``w`` as a finite float stack of fields: the field shape after any leading axes."""
        return _as_field(w, self.field_shape, name, stacked=True)

    def check_pair(self, w1, w2):
        """Two stacks of fields whose leading axes broadcast against each other, checked."""
        w1, w2 = self.check_fields(w1, "w1"), self.check_fields(w2, "w2")
        if w1.shape != w2.shape:
            try:
                np.broadcast_shapes(w1.shape, w2.shape)
            except ValueError:
                raise GridMismatchError(f"stacks of shapes {w1.shape} and {w2.shape} do not broadcast") from None
        return w1, w2

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

    @cached_property
    def R(self):
        """``scalar_curvature()``, computed on first use and kept, read-only, for the life of the geometry."""
        curv = self.scalar_curvature()
        curv.setflags(write=False)
        return curv

    def laplace_beltrami(self, w):
        """Laplace-Beltrami of the live metric: e^(-2 phi) * background Laplacian."""
        lap = self._bg_lap_raw(self.check_fields(w))
        lap *= np.exp(-2.0 * self.phi)
        return lap

    def grad_inner(self, w1, w2):
        """Pointwise inner product of gradients in the live metric; the stacks broadcast."""
        raise NotImplementedError

    def grad_norm_sq(self, w):
        """|grad w|^2 in the live metric; exactly grad_inner(w, w), differentiating once."""
        raise NotImplementedError

    def _hessian_components(self, w):
        """The covariant Hessian's components 12, 11 and 22 of the checked stack w, built one at a time.

        A generator: each component is a fresh array of w's shape, made
        when it is asked for, so a caller that reduces one before asking
        for the next never holds the whole (..., 2, 2) tensor.
        """
        raise NotImplementedError

    def covariant_hessian(self, w):
        """Covariant Hessian of the live metric, shape ``w.shape + (2, 2)``.

        Components are in background coordinates (torus: x, y; sphere:
        theta, azimuth).  The g-trace of the result agrees with
        :meth:`laplace_beltrami` to second order.
        """
        w = self.check_fields(w)
        t = np.empty(w.shape + (2, 2))
        for (i, j), part in zip(((0, 1), (0, 0), (1, 1)), self._hessian_components(w)):
            t[..., i, j] = part
        t[..., 1, 0] = t[..., 0, 1]
        return t

    def hessian_trace(self, w):
        """g^{ij} (hessian w)_{ij}; second-order consistent with laplace_beltrami."""
        _, t11, t22 = self._hessian_components(self.check_fields(w))
        g1, g2 = self._metric_diag()
        return t11 / g1 + t22 / g2

    def hessian_deviation_sq(self, w, sigma):
        """|hessian(w) - sigma * g|^2 contracted with the live metric.

        ``sigma`` may be a scalar, a field or a stack of them, which
        broadcasts against ``w``, finite everywhere, or GridMismatchError
        is raised; the pure-trace subtraction is what every
        identity's Hessian-square term reduces to on surfaces, where the
        Ricci tensor is (R/2) g.  The sum is
        ((t11 - sigma g11) / g11)^2 + 2 t12^2 / (g11 g22) + ((t22 - sigma g22) / g22)^2,
        in that order.  Each term is reduced as soon as its component is
        built, in place where the broadcast allows, so the (..., 2, 2)
        tensor never exists; the mixed term is built first, while no sum
        is alive yet, and added second, as a sum of two commutes exactly.
        """
        w = self.check_fields(w)
        given = sigma
        try:
            sigma = np.asarray(given, dtype=float)  # None reads as NaN
            np.broadcast_shapes(sigma.shape, w.shape)
            finite = bool(np.all(np.isfinite(sigma)))
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise GridMismatchError(f"sigma = {given!r:.80} is not finite reals that broadcast against w, {w.shape}")
        parts = self._hessian_components(w)
        mixed = next(parts)
        g1, g2 = self._metric_diag()
        mixed *= mixed
        mixed *= 2.0
        mixed /= g1 * g2
        total = _deviation_sq(next(parts), sigma, g1)
        total += mixed
        del mixed
        total += _deviation_sq(next(parts), sigma, g2)
        return total

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
        require_real(length, "length")
        self.length = float(length)
        if not 0 < self.length < np.inf:  # NaN fails too
            raise GridMismatchError(f"torus side length {self.length!r} must be positive and finite")
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

    @property
    def plan_unit(self):
        return self.h * self.h

    def with_phi(self, phi):
        return TorusGeometry(self.n, self.length, phi)

    def coords(self):
        """Node coordinate arrays (x, y), broadcastable to the field shape."""
        ax = np.arange(self.n) * self.h
        return ax[:, None], ax[None, :]

    def _derivative(self, w, axis):
        """Centered d/dx (axis 0) or d/dy (axis 1) of each field of w, (w[i+1] - w[i-1]) / (2h), from slices of w itself.

        Divided in place: at n = 128 a field is 128 KiB, and every
        temporary of that size is a fresh mapping.
        """
        d = _wrapped(np.subtract, w, _shift(axis, 1), w, _shift(axis, -1), np.empty(w.shape))
        d /= 2.0 * self.h
        return d

    def laplacian_plan(self, w, out, scratch=None):
        # Five-point stencil summed in the order
        # (w[i+1,j] + w[i-1,j]) + w[i,j+1] + w[i,j-1] - 4 w, not divided by
        # h^2, the plan's unit: a reader folds 1/h^2 into an operand it
        # multiplies by anyway.  Each neighbour sum is one pass over
        # contiguous memory: an add over strided column slices costs about
        # four times a flat pass.
        _require_c_contiguous(w, out)
        n = self.n
        # views, not copies, since both arrays are contiguous
        wf, of = w.reshape(-1), out.reshape(-1)
        w_fields, out_fields = w.reshape(-1, n * n), out.reshape(-1, n * n)
        if scratch is None:
            scratch = np.empty(w.shape)
        elif scratch.shape != w.shape:
            raise GridMismatchError(f"laplacian_plan needs a scratch of shape {w.shape}, not {scratch.shape}")
        four_w = scratch
        saved = np.empty(w.shape[:-1])
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
            return np.subtract(out, four_w, out=out)

        return lap

    def background_area_weights(self):
        return np.full(self.field_shape, self.h * self.h)

    def _metric_diag(self):
        e2p = self.conformal_factor()
        return e2p, e2p

    def grad_inner(self, w1, w2):
        # one axis at a time, so at most two derivatives are alive at once
        w1, w2 = self.check_pair(w1, w2)
        total = self._derivative_product(w1, w2, 0)
        total += self._derivative_product(w1, w2, 1)
        total *= np.exp(-2.0 * self.phi)
        return total

    def _derivative_product(self, w1, w2, axis):
        d1, d2 = self._derivative(w1, axis), self._derivative(w2, axis)
        if d1.size < d2.size:  # the product goes into the larger stack; it commutes exactly
            d1, d2 = d2, d1
        return np.multiply(d1, d2, out=d1 if d1.shape == np.broadcast_shapes(d1.shape, d2.shape) else None)

    def grad_norm_sq(self, w):
        w = self.check_fields(w)
        total = self._derivative(w, 0)
        total *= total
        dy = self._derivative(w, 1)
        total += np.multiply(dy, dy, out=dy)
        del dy
        total *= np.exp(-2.0 * self.phi)
        return total

    def _hessian_components(self, w):
        # Each component keeps the operand order of the np.roll form, so it
        # is the same bits: ((w[i+1] - 2w) + w[i-1]) / h^2 - px wx + py wy
        # for 11, its transpose for 22, and for 12
        # (((w[i+1,j+1] - w[i+1,j-1]) - w[i-1,j+1]) + w[i-1,j-1]) / (4 h^2) - py wx - px wy.
        # Every neighbour is a wrapped slice of w itself (``_wrapped``), and
        # each product of first derivatives is made once, the last two in
        # the memory of w's derivatives.
        h2 = self.h * self.h
        px, py = (self._derivative(self.phi, axis) for axis in (0, 1))
        wx, wy = (self._derivative(w, axis) for axis in (0, 1))
        pywx, pxwy = py * wx, px * wy
        pxwx, pywy = np.multiply(wx, px, out=wx), np.multiply(wy, py, out=wy)
        del px, py, wx, wy

        def second(axis):
            t = np.multiply(w, 2.0)
            _wrapped(np.subtract, w, _shift(axis, 1), t, (0, 0), t)
            _wrapped(np.add, t, (0, 0), w, _shift(axis, -1), t)
            t /= h2
            return t

        t = _wrapped(np.subtract, w, (1, 1), w, (1, -1), np.empty(w.shape))
        _wrapped(np.subtract, t, (0, 0), w, (-1, 1), t)
        _wrapped(np.add, t, (0, 0), w, (-1, -1), t)
        t /= 4.0 * h2
        t -= pywx
        yield np.subtract(t, pxwy, out=t)
        del t, pywx, pxwy  # the caller owns t now
        t = second(0)
        t -= pxwx
        yield np.add(t, pywy, out=t)
        del t  # the caller owns it now
        t = second(1)
        t -= pywy
        t += pxwx
        del pxwx, pywy
        yield t


def _shift(axis, step):
    """The (rows, columns) shift of ``step`` nodes along ``axis`` 0 or 1."""
    return (step, 0) if axis == 0 else (0, step)


def _wrapped(op, a, shift_a, b, shift_b, out):
    """``op(a, b, out=out)`` over the two trailing periodic axes, with a and b shifted.

    A shift (di, dj) reads a[..., i + di, j + dj], indices taken mod n.
    Each axis is cut where a shifted index wraps, and op runs once per
    block on slices, so no padded copy is made and no two nodes that the
    stencil does not pair are ever combined: an inf meets only its stencil
    neighbours.  ``out`` may be a or b when that one is unshifted.
    """
    blocks = [_wrap_blocks(out.shape[axis], shift_a[k], shift_b[k]) for k, axis in enumerate((-2, -1))]
    for rows, rows_a, rows_b in blocks[0]:
        for cols, cols_a, cols_b in blocks[1]:
            op(a[..., rows_a, cols_a], b[..., rows_b, cols_b], out=out[..., rows, cols])
    return out


def _wrap_blocks(n, s, r):
    """(target, source shifted by s, source shifted by r) slices covering one periodic axis of n nodes."""
    cuts = sorted({0, n, -s % n, -r % n})
    return [
        (slice(lo, hi), slice((lo + s) % n, (lo + s) % n + hi - lo), slice((lo + r) % n, (lo + r) % n + hi - lo))
        for lo, hi in zip(cuts, cuts[1:])
    ]


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


def sphere_flux_plans(rows, *pairs):
    """Sphere Laplacians over flat stacks of rows of any resolutions, one per ``(w, out)`` pair.

    ``rows`` lists the node count n of each row in flat order; together
    they cover each ``w``, which may be any C-contiguous array (the flow's
    field-major stack is phi's rows, then f's).  Returns one ``lap()`` per
    pair, as ``SurfaceGeometry.laplacian_plan`` does, and each row gets
    exactly the Laplacian of its own sphere.  The plans share their flux
    buffer, junction mask and coefficients, so they must run one at a time.
    The coefficients of each run of rows of one n are tiled from its
    sphere's, so the Python work is per run, not per row.
    """
    parts = []
    for n, run in itertools.groupby(rows):
        count = len(list(run))
        bg = _sphere_background(n)
        parts.append([bg[key] if count == 1 else np.tile(bg[key], count) for key in ("sin_plus", "inv_sin_dt2")])
    sin_plus, inv_sin_dt2 = parts[0] if len(parts) == 1 else (np.concatenate(part) for part in zip(*parts))
    # each row's sin_plus ends in the exact zero of its pole, at the junction
    # with the next row, whose difference the flux pass skips; one row has
    # no junction, and an unmasked pass is cheaper
    inside = sin_plus[:-1] != 0.0 if len(rows) > 1 else True
    return _flux_plans((inside, sin_plus[:-1], inv_sin_dt2), pairs)


def _flux_plans(coefficients, pairs):
    # Flux form over the flat stack: flux[o + j] is the flux into node j of
    # the row at offset o from node j - 1, so one exact-zero pole flux sits
    # between consecutive rows and at both ends.  The difference pass skips
    # those row junctions (``inside`` is False there), which are never
    # written and stay +0, so no difference across two rows can overflow or
    # warn; each row's sin_plus ends in the exact zero there.
    inside, sin_plus, inv_sin_dt2 = coefficients
    size = inv_sin_dt2.size
    flux = np.zeros(size + 1)
    inner, upper, lower = flux[1:-1], flux[1:], flux[:-1]

    def plan(w, out):
        _require_c_contiguous(w, out)
        wf, of = w.reshape(-1), out.reshape(-1)
        if wf.size != size:
            raise GridMismatchError(f"rows of {size} nodes in total do not cover a stack of {wf.size}")
        w_next, w_prev = wf[1:], wf[:-1]

        def lap():
            np.subtract(w_next, w_prev, inner, where=inside)  # w_{j+1} - w_j
            np.multiply(sin_plus, inner, inner)
            np.subtract(upper, lower, of)
            np.multiply(of, inv_sin_dt2, of)
            return out

        return lap

    return [plan(w, out) for w, out in pairs]


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

    @property
    def plan_unit(self):
        return 1.0

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
        """Even reflection of each field of w across both poles (smooth axisymmetric fields)."""
        out = np.empty(w.shape[:-1] + (self.n + 2,))
        out[..., 1:-1] = w
        out[..., 0] = w[..., 0]
        out[..., -1] = w[..., -1]
        return out

    def _dtheta_centered(self, w):
        g = self._ghost(w)
        return (g[..., 2:] - g[..., :-2]) / (2.0 * self.dtheta)

    def _d2theta(self, w):
        g = self._ghost(w)
        return (g[..., 2:] - 2.0 * g[..., 1:-1] + g[..., :-2]) / (self.dtheta * self.dtheta)

    def laplacian_plan(self, w, out, scratch=None):
        # the uniform case of the flux plan: every row has this sphere's n
        return sphere_flux_plans([self.n] * (w.size // self.n), (w, out))[0]

    def background_area_weights(self):
        # Band area 2*pi*(cos(theta-) - cos(theta+)) written as an exact
        # multiple of sin(theta_j); summing sin over staggered nodes gives
        # total area 4*pi to round-off.
        return self._weights

    def _metric_diag(self):
        e2p = self.conformal_factor()
        return e2p, e2p * self.sin_theta**2

    def grad_inner(self, w1, w2):
        w1, w2 = self.check_pair(w1, w2)
        # product of derivatives first: keeps the operation exactly symmetric
        return (self._dtheta_centered(w1) * self._dtheta_centered(w2)) * np.exp(-2.0 * self.phi)

    def grad_norm_sq(self, w):
        dw = self._dtheta_centered(self.check_fields(w))
        return (dw * dw) * np.exp(-2.0 * self.phi)

    def _hessian_components(self, w):
        dphi, dw = self._dtheta_centered(self.phi), self._dtheta_centered(w)
        yield np.zeros(w.shape)
        yield self._d2theta(w) - dphi * dw
        yield (self.sin_theta * self.cos_theta + self.sin_theta**2 * dphi) * dw

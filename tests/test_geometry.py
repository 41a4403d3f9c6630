import numpy as np
import pytest

import harnackflow as hf
from harnackflow.errors import GridMismatchError
from helpers import (
    reference_deviation_sq,
    reference_sphere_laplacian,
    reference_torus_gradient,
    reference_torus_hessian,
    reference_torus_laplacian,
    reference_torus_stencil,
)


def sphere(n, phi_amp=0.0):
    geom = hf.SphereGeometry(n)
    if phi_amp:
        geom = geom.with_phi(phi_amp * geom.cos_theta)
    return geom


def torus(n, length=2 * np.pi, phi=None):
    return hf.TorusGeometry(n, length, phi)


# -- scalar curvature --------------------------------------------------------


def test_round_sphere_curvature_is_two():
    geom = sphere(64)
    assert np.allclose(geom.scalar_curvature(), 2.0, rtol=0, atol=1e-13)


def test_flat_torus_curvature_is_zero():
    geom = torus(32)
    assert np.all(geom.scalar_curvature() == 0.0)


def test_torus_conformal_curvature_formula():
    # R must equal -2 e^(-2 phi) * (flat 5-point Laplacian of phi), with the
    # stencil recomputed here independently of the geometry class.
    n, length = 32, 2 * np.pi
    h = length / n
    x, y = np.meshgrid(np.arange(n) * h, np.arange(n) * h, indexing="ij")
    phi = 0.05 * np.sin(2 * np.pi * x / length)
    lap = (
        np.roll(phi, -1, 0) + np.roll(phi, 1, 0) + np.roll(phi, -1, 1) + np.roll(phi, 1, 1) - 4 * phi
    ) / h**2
    expected = -2.0 * np.exp(-2.0 * phi) * lap
    geom = torus(n, length, phi)
    assert np.allclose(geom.scalar_curvature(), expected, rtol=1e-12, atol=1e-14)


# -- Laplace-Beltrami --------------------------------------------------------


def test_laplacian_of_constant_is_zero():
    for geom in (sphere(32), torus(16)):
        w = np.full(geom.field_shape, 3.7)
        assert np.all(geom.laplace_beltrami(w) == 0.0)


def test_torus_sine_eigenfunction_second_order():
    length = 2 * np.pi
    errs = {}
    for n in (64, 128):
        geom = torus(n, length)
        x, _ = geom.coords()
        w = np.sin(2 * np.pi * x / length) * np.ones((1, n))
        lam = (2 * np.pi / length) ** 2
        errs[n] = np.max(np.abs(geom.laplace_beltrami(w) + lam * w))
    assert errs[64] < 2e-3
    assert 3.3 < errs[64] / errs[128] < 4.7


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def signed_stack(rng, shape):
    """Values over many magnitudes, with +0.0 and -0.0 sprinkled in."""
    w = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
    w[rng.random(shape) < 0.1] = 0.0
    w[rng.random(shape) < 0.1] = -0.0
    return w


@pytest.mark.parametrize("n", [4, 5, 8, 33])
@pytest.mark.parametrize("members", [1, 2, 3])
def test_torus_laplacian_plan_matches_roll_reference(n, members):
    geom = torus(n, 3.0)
    w = signed_stack(np.random.default_rng(100 * n + members), (members, 2, n, n))
    out = np.empty_like(w)
    assert geom._laplacian_plan(w, out)() is out
    assert np.array_equal(bits(out), bits(reference_torus_stencil(w)))


def test_torus_laplacian_plan_reads_live_data():
    geom = torus(8, 3.0)
    rng = np.random.default_rng(7)
    w = signed_stack(rng, (2, 2, 8, 8))
    out = np.empty_like(w)
    lap = geom._laplacian_plan(w, out)
    lap()
    w[...] = signed_stack(rng, w.shape)  # rewrite the bound buffer in place
    lap()
    assert np.array_equal(bits(out), bits(reference_torus_stencil(w)))


def test_torus_laplacian_plan_rejects_strided_arrays():
    geom = torus(8)
    w = np.zeros((2, 8, 8))
    with pytest.raises(GridMismatchError):
        geom._laplacian_plan(w.transpose(0, 2, 1), np.empty_like(w))
    with pytest.raises(GridMismatchError):
        geom._laplacian_plan(w, np.empty((2, 8, 16))[..., ::2])


def test_background_laplacian_of_non_contiguous_field():
    geom = torus(16, 3.0)
    field = signed_stack(np.random.default_rng(3), (16, 16)).T
    assert not field.flags.c_contiguous
    expected = reference_torus_laplacian(np.ascontiguousarray(field), geom.h)
    assert np.array_equal(bits(geom.background_laplacian(field)), bits(expected))


def test_torus_operators_keep_the_divided_stencil():
    # the plan writes the bare stencil, and the geometry operators divide it
    # by h^2 before anything else, so on a curved torus each is the
    # divide-form composition bit for bit
    geom = torus(16, 3.0)
    x, y = geom.coords()
    geom = geom.with_phi(0.2 * np.sin(2 * np.pi * x / 3.0) * np.cos(4 * np.pi * y / 3.0) + 0.05)
    w = signed_stack(np.random.default_rng(5), geom.field_shape)
    e2m = np.exp(-2.0 * geom.phi)
    assert np.array_equal(bits(geom.laplace_beltrami(w)), bits(e2m * reference_torus_laplacian(w, geom.h)))
    curvature = e2m * (0.0 - 2.0 * reference_torus_laplacian(geom.phi, geom.h))
    assert np.array_equal(bits(geom.scalar_curvature()), bits(curvature))
    assert np.array_equal(bits(geom.R), bits(curvature))


def test_torus_laplacian_plan_warns_no_more_than_reference():
    # Infinities of both signs placed so that no stencil sum mixes them,
    # but a flat pass over the whole stack would: across the two fields in
    # the row sum, and across a wrap column in both column sums.  The
    # reference raises no warning (RuntimeWarning is an error here).
    geom = torus(8, 3.0)
    w = signed_stack(np.random.default_rng(11), (1, 2, 8, 8))
    w[0, 0, -1, 3], w[0, 1, 1, 3] = np.inf, -np.inf
    w[0, 0, 4, -1], w[0, 0, 4, 0] = np.inf, -np.inf
    expected = reference_torus_stencil(w)
    out = np.empty_like(w)
    geom._laplacian_plan(w, out)()
    assert np.array_equal(bits(out), bits(expected))


@pytest.mark.parametrize("n", [4, 5, 64])
@pytest.mark.parametrize("shape", [(), (1,), (2,), (3,), (4,), (5,), (6,), (2, 3)], ids=str)
def test_sphere_laplacian_plan_matches_flux_reference(n, shape):
    geom = sphere(n)
    w = signed_stack(np.random.default_rng(10 * n + len(shape)), shape + (n,))
    w[..., 0], w[..., -1] = -0.0, 0.0  # signed zeros on both sides of every row junction
    out = np.empty_like(w)
    assert geom._laplacian_plan(w, out)() is out
    assert np.array_equal(bits(out), bits(reference_sphere_laplacian(w)))


def test_sphere_laplacian_plan_reads_live_data():
    geom = sphere(16)
    rng = np.random.default_rng(8)
    w = signed_stack(rng, (2, 3, 16))
    out = np.empty_like(w)
    lap = geom._laplacian_plan(w, out)
    lap()
    w[...] = signed_stack(rng, w.shape)  # rewrite the bound buffer in place
    lap()
    assert np.array_equal(bits(out), bits(reference_sphere_laplacian(w)))


def test_sphere_laplacian_plan_rejects_strided_arrays():
    geom = sphere(8)
    w = np.zeros((3, 8))
    with pytest.raises(GridMismatchError):
        geom._laplacian_plan(np.zeros((8, 3)).T, np.empty_like(w))
    with pytest.raises(GridMismatchError):
        geom._laplacian_plan(w, np.empty((3, 16))[:, ::2])


def test_sphere_laplacian_plan_warns_no_more_than_reference():
    # Rows of +1e308 and -1e308 meet at row junctions: within each row the
    # fluxes are zero, so the reference raises no warning (RuntimeWarning
    # is an error here), but a difference across a junction overflows.
    geom = sphere(8)
    w = signed_stack(np.random.default_rng(12), (4, 8))
    w[1], w[2] = 1e308, -1e308
    expected = reference_sphere_laplacian(w)
    out = np.empty_like(w)
    geom._laplacian_plan(w, out)()
    assert np.array_equal(bits(out), bits(expected))


def test_sphere_harmonic_eigenfunction_second_order():
    errs = {}
    for n in (64, 128):
        geom = sphere(n)
        w = np.cos(geom.theta)
        errs[n] = np.max(np.abs(geom.laplace_beltrami(w) + 2.0 * w))
    assert errs[64] < 2e-3
    assert 3.3 < errs[64] / errs[128] < 4.7


def test_conformal_covariance_is_exact():
    # laplace_beltrami is literally e^(-2 phi) times the background stencil
    geom = sphere(48, phi_amp=0.3)
    w = np.exp(np.cos(geom.theta))
    assert np.array_equal(
        geom.laplace_beltrami(w), np.exp(-2.0 * geom.phi) * geom.background_laplacian(w)
    )


def test_operator_linearity():
    geom = sphere(48, phi_amp=0.2)
    w1 = np.cos(geom.theta)
    w2 = np.exp(0.4 * np.cos(geom.theta))
    combo = geom.laplace_beltrami(2.0 * w1 - 3.0 * w2)
    parts = 2.0 * geom.laplace_beltrami(w1) - 3.0 * geom.laplace_beltrami(w2)
    scale = np.max(np.abs(parts))
    assert np.allclose(combo, parts, rtol=0, atol=1e-12 * scale)


# -- gradients ---------------------------------------------------------------


def test_gradient_of_constant_is_zero():
    geom = torus(16)
    w = np.full(geom.field_shape, 2.0)
    assert np.all(geom.grad_norm_sq(w) == 0.0)


def test_torus_sine_gradient_norm():
    length = 2 * np.pi
    geom = torus(96, length)
    x, _ = geom.coords()
    k = 2 * np.pi / length
    w = np.sin(k * x) * np.ones((1, 96))
    expected = k**2 * np.cos(k * x) ** 2 * np.ones((1, 96))
    assert np.max(np.abs(geom.grad_norm_sq(w) - expected)) < 5e-3 * k**2


@pytest.mark.parametrize("geom", [sphere(48, phi_amp=0.2), torus(24, 3.0, 0.1 * np.outer(np.sin(np.arange(24)), np.cos(np.arange(24))))], ids=["sphere", "torus"])
def test_grad_norm_sq_is_grad_inner_bit_for_bit(geom):
    w = signed_stack(np.random.default_rng(5), geom.field_shape)
    assert np.array_equal(bits(geom.grad_norm_sq(w)), bits(geom.grad_inner(w, w)))


def test_grad_inner_symmetry_and_consistency():
    geom = sphere(48, phi_amp=0.2)
    w1 = np.cos(geom.theta)
    w2 = np.exp(0.3 * np.cos(geom.theta))
    assert np.array_equal(geom.grad_inner(w1, w2), geom.grad_inner(w2, w1))
    assert np.array_equal(geom.grad_inner(w1, w1), geom.grad_norm_sq(w1))


# -- covariant Hessian -------------------------------------------------------


def test_hessian_of_constant_is_zero():
    geom = sphere(32, phi_amp=0.1)
    w = np.full(geom.field_shape, 1.5)
    assert np.all(geom.covariant_hessian(w) == 0.0)


def test_unit_sphere_hessian_of_cos_theta():
    # On the unit round sphere, hess(cos theta) = -cos(theta) * g.
    n = 128
    geom = sphere(n)
    w = np.cos(geom.theta)
    t = geom.covariant_hessian(w)
    g_theta = np.ones(n)
    g_phi = geom.sin_theta**2
    assert np.max(np.abs(t[:, 0, 0] + w * g_theta)) < 2e-3
    assert np.max(np.abs(t[:, 1, 1] + w * g_phi)) < 2e-3
    assert np.all(t[:, 0, 1] == 0.0)


@pytest.mark.parametrize("n", [4, 5, 33])
def test_torus_gradients_match_roll_reference(n):
    rng = np.random.default_rng(40 + n)
    geom = torus(n, 3.0, np.tanh(signed_stack(rng, (n, n))))  # e^(-2 phi) stays finite
    w1, w2 = signed_stack(rng, (n, n)), signed_stack(rng, (n, n))
    (x1, y1), (x2, y2) = reference_torus_gradient(geom, w1), reference_torus_gradient(geom, w2)
    e2m = np.exp(-2.0 * geom.phi)
    assert np.array_equal(bits(geom.grad_norm_sq(w1)), bits(e2m * (x1 * x1 + y1 * y1)))
    assert np.array_equal(bits(geom.grad_inner(w1, w2)), bits(e2m * (x1 * x2 + y1 * y2)))


@pytest.mark.parametrize("n", [4, 5, 33])
def test_torus_hessian_matches_roll_reference(n):
    rng = np.random.default_rng(20 + n)
    geom = torus(n, 3.0, signed_stack(rng, (n, n)))
    w = signed_stack(rng, (n, n))
    assert np.array_equal(bits(geom.covariant_hessian(w)), bits(reference_torus_hessian(geom, w)))


@pytest.mark.parametrize(
    "w_shape, sigma_shape",
    [((), None), ((), ()), ((3,), None), ((3,), (3,)), ((), (3,)), ((3,), ()), ((2, 1), (3,))],
    ids=["field-scalar", "field-field", "stack-scalar", "stack-stack", "field-stack", "stack-field", "broadcast"],
)
@pytest.mark.parametrize("n", [4, 5, 17])
def test_torus_hessian_deviation_is_the_reference_composition(n, w_shape, sigma_shape):
    # built one component at a time, with no (..., 2, 2) tensor, and still
    # the bits of the whole-tensor form; a field against a stack of sigma
    # is how the batched fuzz calls it, and a stack of w against one sigma
    # field the other way round
    rng = np.random.default_rng(60 + n + len(w_shape))
    geom = torus(n, 3.0, np.tanh(signed_stack(rng, (n, n))))  # e^(2 phi) stays finite
    w = signed_stack(rng, w_shape + (n, n))
    sigmas = [1.3, 0.0, -0.0] if sigma_shape is None else [signed_stack(rng, sigma_shape + (n, n))]
    for sigma in sigmas:
        expected = reference_deviation_sq(geom, w, sigma)
        got = geom.hessian_deviation_sq(w, sigma)
        assert got.shape == expected.shape
        assert np.array_equal(bits(got), bits(expected))


@pytest.mark.parametrize("sigma_shape", [None, (), (3,)], ids=["scalar", "field", "stack"])
def test_sphere_hessian_deviation_is_the_composition_of_its_hessian(sigma_shape):
    rng = np.random.default_rng(70)
    geom = sphere(16, phi_amp=0.2)
    w = signed_stack(rng, (2, 1, 16))
    sigma = 0.7 if sigma_shape is None else signed_stack(rng, sigma_shape + (16,))
    expected = reference_deviation_sq(geom, w, sigma, geom.covariant_hessian(w))
    assert np.array_equal(bits(geom.hessian_deviation_sq(w, sigma)), bits(expected))


@pytest.mark.parametrize("shape1, shape2", [((2, 3), (2, 3)), ((3,), ()), ((2, 1), (3,))], ids=str)
def test_torus_gradients_of_stacks_match_roll_reference(shape1, shape2):
    # the pad-free differences over any leading axes; the last pair
    # broadcasts with neither stack holding the other, which used to raise
    # a raw ValueError in grad_inner
    n = 9
    rng = np.random.default_rng(80 + len(shape1))
    geom = torus(n, 3.0, np.tanh(signed_stack(rng, (n, n))))
    w1, w2 = signed_stack(rng, shape1 + (n, n)), signed_stack(rng, shape2 + (n, n))
    (x1, y1), (x2, y2) = reference_torus_gradient(geom, w1), reference_torus_gradient(geom, w2)
    e2m = np.exp(-2.0 * geom.phi)
    assert np.array_equal(bits(geom.grad_norm_sq(w1)), bits(e2m * (x1 * x1 + y1 * y1)))
    assert np.array_equal(bits(geom.grad_inner(w1, w2)), bits(e2m * (x1 * x2 + y1 * y2)))
    assert np.array_equal(bits(geom.grad_inner(w2, w1)), bits(e2m * (x2 * x1 + y2 * y1)))


def test_torus_derivatives_warn_no_more_than_reference():
    # Infinities placed so that no centered difference pairs two of them,
    # but a flat pass would: across the two fields of the stack in d/dx,
    # and across a row end in d/dy.  The reference raises no warning
    # (RuntimeWarning is an error here), and neither may the slice passes.
    geom = torus(8, 3.0)
    w = signed_stack(np.random.default_rng(12), (1, 2, 8, 8))
    w[0, 0, -1, 3], w[0, 1, 1, 3] = np.inf, np.inf
    w[0, 0, 4, 0], w[0, 0, 3, -2] = np.inf, np.inf
    expected = reference_torus_gradient(geom, w)
    for axis in (0, 1):
        assert np.array_equal(bits(geom._derivative(w, axis)), bits(expected[axis]))


def test_torus_hessian_trace_matches_laplacian_exactly():
    # The first-derivative terms cancel identically on the flat background.
    n, length = 32, 2 * np.pi
    geom = torus(n, length)
    x, y = geom.coords()
    phi = 0.1 * np.sin(2 * np.pi * x / length) * np.sin(2 * np.pi * y / length)
    geom = geom.with_phi(phi)
    w = np.cos(2 * np.pi * x / length) * np.sin(2 * np.pi * y / length)
    trace = geom.hessian_trace(w)
    lap = geom.laplace_beltrami(w)
    assert np.max(np.abs(trace - lap)) < 1e-11 * max(1.0, np.max(np.abs(lap)))


def test_sphere_hessian_trace_refinement_ratio():
    # Generic conformal factor: the trace defect is O(h^2); halving h
    # shrinks it by a factor in [3.3, 4.7].
    devs = {}
    for n in (64, 128):
        geom = sphere(n, phi_amp=0.2)
        w = np.exp(0.5 * np.cos(geom.theta))
        devs[n] = np.max(np.abs(geom.hessian_trace(w) - geom.laplace_beltrami(w)))
    assert 3.3 < devs[64] / devs[128] < 4.7


def test_hessian_deviation_on_round_sphere():
    # For constant w, |hess - sigma g|^2 = n sigma^2 = 2 sigma^2.
    geom = sphere(32)
    w = np.zeros(32)
    sigma = 1.3
    dev = geom.hessian_deviation_sq(w, sigma)
    assert np.allclose(dev, 2.0 * sigma**2, rtol=1e-13, atol=0)


# -- integration -------------------------------------------------------------


def test_sphere_area_tolerance_at_n256():
    geom = sphere(256)
    area = geom.integrate(np.ones(256))
    assert abs(area - 4 * np.pi) <= 1e-6 * 4 * np.pi


def test_torus_area_and_odd_integrand():
    length = 2 * np.pi
    geom = torus(64, length)
    assert abs(geom.integrate(np.ones((64, 64))) - length**2) < 1e-10
    x, _ = geom.coords()
    w = np.sin(2 * np.pi * x / length) * np.ones((1, 64))
    assert abs(geom.integrate(w)) < 1e-12


def test_area_weights_positive():
    for geom in (sphere(32, phi_amp=0.4), torus(16, phi=None)):
        assert np.all(geom.area_weights() > 0.0)


# -- errors ------------------------------------------------------------------


def test_grid_mismatch_raises():
    geom = sphere(32)
    with pytest.raises(GridMismatchError):
        geom.laplace_beltrami(np.zeros(33))
    with pytest.raises(GridMismatchError):
        geom.integrate(np.zeros((32, 32)))
    with pytest.raises(GridMismatchError):
        torus(16).grad_inner(np.zeros((16, 16)), np.zeros(16))


@pytest.mark.parametrize("length", [0.0, -1.0, float("inf"), float("nan")], ids=["zero", "negative", "inf", "nan"])
def test_torus_side_length_must_be_positive_and_finite(length):
    # an infinite side length used to build a torus with h = inf
    with pytest.raises(GridMismatchError, match="positive and finite"):
        torus(8, length)


@pytest.mark.parametrize(
    "make",
    [lambda: hf.SphereGeometry(8.7), lambda: hf.SphereGeometry("8"), lambda: hf.TorusGeometry(8.7, 1.0)],
    ids=["sphere-float", "sphere-string", "torus-float"],
)
def test_a_non_integral_resolution_is_refused(make):
    # each used to build a grid of n = 8
    with pytest.raises(GridMismatchError, match="must be an integer"):
        make()


def test_non_finite_field_rejected():
    geom = sphere(32)
    bad = np.zeros(32)
    bad[3] = np.nan
    with pytest.raises(GridMismatchError):
        geom.laplace_beltrami(bad)
    with pytest.raises(GridMismatchError):
        hf.SphereGeometry(32, bad)


@pytest.mark.parametrize(
    "make",
    [lambda: hf.SphereGeometry(10**12), lambda: hf.TorusGeometry(10**12, 1.0), lambda: hf.TorusGeometry(2**15 + 1, 1.0)],
    ids=["sphere-1e12", "torus-1e12", "torus-over-2^30-nodes"],
)
def test_grid_too_large_is_refused_before_any_array(make, monkeypatch):
    # these used to raise a raw MemoryError and ValueError ("array is too big")
    def no_array(*args, **kwargs):
        raise AssertionError("an array was made")

    for name in ("zeros", "empty", "arange", "sin", "full"):
        monkeypatch.setattr(np, name, no_array)
    with pytest.raises(GridMismatchError, match="nodes"):
        make()


@pytest.mark.parametrize("sigma", [None, "x", np.ones(3), np.ones((2, 7))])
def test_hessian_deviation_sigma_that_is_not_a_real_broadcast_is_refused(sigma):
    geom = hf.TorusGeometry(8, 1.0)
    w = np.ones((4, 8, 8))
    with pytest.raises(GridMismatchError, match="sigma"):
        geom.hessian_deviation_sq(w, sigma)


def test_abstract_geometry_is_refused():
    from harnackflow.errors import ConstraintViolationError

    with pytest.raises(ConstraintViolationError, match="abstract"):
        hf.SurfaceGeometry(8)

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mvgrad.errors import NonFinite, SingularDiffusion
from mvgrad.measure import EmpiricalMeasure
from mvgrad.model import (SCHEDULE_FACTORIES, BismutSchedule, CylindricalDrift, Diffusion,
                          _single_term, linear_schedule, quadratic_schedule, scaled,
                          sine_schedule, validate_ellipticity, zeta)
from mvgrad.scenarios import (affine_drift, build_family, constant_diffusion,
                              default_observables, default_perturbations,
                              regularized_singular_drift, sine_coupling_drift,
                              trig_diffusion, trig_drift)
from mvgrad.simulate import TimeGrid, simulate_particles
from mvgrad.tangent import cylindrical_coupling

from conftest import brownian_model, gaussian_cloud, mfou_model


def derivative_mismatch(sched, n_probes=64, step=1e-6):
    """Max gap between beta_prime and a central difference of beta."""
    s = np.linspace(step, sched.t - step, n_probes)
    fd = (sched.beta(s + step) - sched.beta(s - step)) / (2 * step)
    return float(np.max(np.abs(fd - sched.beta_prime(s))))


def const_diffusion_matrix(mat):
    mat = np.asarray(mat, dtype=float)

    def sigma(t, x):
        return np.broadcast_to(mat, (x.shape[0],) + mat.shape)

    return Diffusion(sigma=sigma, constant_in_x=True)


def _swap(a):
    return np.swapaxes(a, 1, 2)


# Each contraction the package computes as one product when the contracted
# axis has length 1: (the expression it replaces, its length-one form, the
# operand shapes at that site with N = 7).
LENGTH_ONE_SITES = {
    "simulate euler, shared sigma": (lambda sig, dw: dw @ sig[0].T,
                                     lambda sig, dw: _single_term(sig[:, :, 0], dw),
                                     [(1, 2, 1), (7, 1)]),
    "simulate euler": (lambda sig, dw: np.einsum("idm,im->id", sig, dw),
                       lambda sig, dw: _single_term(sig[:, :, 0], dw), [(7, 2, 1), (7, 1)]),
    "tangent coupling": (lambda gz, g: gz @ g, lambda gz, g: _single_term(gz[:, :, 0], g),
                         [(7, 2, 1), (1,)]),
    "bismut zeta, shared": (lambda z, v: v @ z[0].T,
                            lambda z, v: _single_term(z[:, :, 0], v), [(1, 3, 1), (7, 1)]),
    "bismut zeta": (lambda z, v: np.einsum("amd,ad->am", z, v),
                    lambda z, v: _single_term(z[:, :, 0], v), [(7, 3, 1), (7, 1)]),
    "bismut ito sum": (lambda zv, dw: np.sum(zv * dw, axis=1),
                       lambda zv, dw: _single_term(zv[:, 0], dw[:, 0]), [(7, 1), (7, 1)]),
    "bismut qv": (lambda zv, _: np.sum(zv * zv, axis=1),
                  lambda zv, _: _single_term(zv[:, 0], zv[:, 0]), [(7, 1), (7, 1)]),
    "model a, d = 1": (lambda sig, _: sig @ _swap(sig),
                       lambda sig, _: _single_term(sig, _swap(sig)), [(7, 1, 1), (1,)]),
    "model a, d = 2": (lambda sig, _: sig @ _swap(sig),
                       lambda sig, _: _single_term(sig, _swap(sig)), [(7, 2, 1), (1,)]),
}


@pytest.mark.parametrize("site", sorted(LENGTH_ONE_SITES))
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("signed_zeros", [False, True])
def test_length_one_contraction_is_bit_exact(site, seed, signed_zeros):
    replaced, fast, shapes = LENGTH_ONE_SITES[site]
    rng = np.random.default_rng(seed)
    if signed_zeros:
        # products of these hold -0.0 as well as +0.0, which the sums make +0.0
        a, b = (rng.choice([-0.0, 0.0, -1.5, 2.0], size=shape) for shape in shapes)
    else:
        a, b = (rng.normal(size=shape) for shape in shapes)
    want, got = replaced(a, b), fast(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestZeta:
    """One point is a (1, d) batch, so the result must be exactly (1, m, d)."""

    @staticmethod
    def one_point(diff, d, m):
        z = zeta(diff(0.0, np.zeros((1, d))))
        assert z.shape == (1, m, d)
        return z[0]

    def test_identity(self):
        diff = const_diffusion_matrix(np.eye(2))
        assert np.allclose(self.one_point(diff, 2, 2), np.eye(2))

    def test_diagonal(self):
        diff = const_diffusion_matrix(np.diag([2.0, 1.0]))
        assert np.allclose(self.one_point(diff, 2, 2), np.diag([0.5, 1.0]))

    def test_upper_triangular_is_inverse_transpose(self):
        sig = np.array([[1.0, 1.0], [0.0, 1.0]])
        diff = const_diffusion_matrix(sig)
        z = self.one_point(diff, 2, 2)
        # square invertible sigma: zeta collapses to the plain inverse,
        # certified by the defining identity sigma @ zeta = I
        assert np.allclose(z, np.linalg.inv(sig))
        assert np.allclose(sig @ z, np.eye(2), atol=1e-12)

    def test_random_draws_satisfy_identity(self, rng):
        for _ in range(25):
            d = rng.integers(1, 4)
            m = rng.integers(d, 4)
            sig_mat = rng.standard_normal((d, m)) + np.eye(d, m)
            a = sig_mat @ sig_mat.T
            if np.linalg.cond(a) > 1e6:
                continue
            z = self.one_point(const_diffusion_matrix(sig_mat), d, m)
            assert np.allclose(sig_mat @ z, np.eye(d), atol=1e-10)

    def test_batch_shape(self):
        diff = const_diffusion_matrix(np.eye(2))
        out = zeta(diff(0.0, np.zeros((7, 2))))
        assert out.shape == (7, 2, 2)

    def test_singular_raises(self):
        diff = const_diffusion_matrix(np.diag([1.0, 0.0]))
        with pytest.raises(SingularDiffusion):
            zeta(diff(0.0, np.zeros((1, 2))))


@pytest.mark.parametrize("x", [[0.0, 2.0], np.zeros((1, 2, 1))], ids=["point", "3d"])
@pytest.mark.parametrize("call", [
    lambda x: EmpiricalMeasure(x),
    lambda x: zeta(np.ones(np.shape(x) + (1,))),      # a point's (d, m) sigma, a 4-D array
    lambda x: validate_ellipticity(const_diffusion_matrix(np.eye(2)), x),
], ids=["EmpiricalMeasure", "zeta", "validate_ellipticity"])
def test_only_point_batches_are_accepted(call, x):
    # a (d,) point is neither promoted to (1, d) nor read as d particles
    with pytest.raises(ValueError, match=r"\(N, d\) array"):
        call(x)


def solved_zeta(diff, x):
    """sigma* (sigma sigma*)^{-1} by a batched LAPACK solve."""
    sig = diff(0.0, x)
    return np.swapaxes(np.linalg.solve(sig @ np.swapaxes(sig, 1, 2), sig), 1, 2)


def scalar_state_diffusion(sigma_row):
    """d = 1 diffusion whose (1, m) row is sigma_row(x[:, 0])."""
    return Diffusion(sigma=lambda t, x: np.stack(sigma_row(x[:, 0]), axis=1)[:, None, :])


class TestZetaOneDimensional:
    """For d = 1, zeta is sigma*/a elementwise instead of a batched solve."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_trig_matches_solve_bitwise(self, seed):
        diff = trig_diffusion(1.0, 0.25)
        x = gaussian_cloud(5000, std=1.0 + seed, seed=seed).points
        z = zeta(diff(0.0, x))
        assert z.shape == (5000, 1, 1)
        assert np.array_equal(z, solved_zeta(diff, x))

    @pytest.mark.parametrize("seed", [4, 5])
    def test_two_noise_coordinates(self, seed):
        # a multi-column solve may scale by a rounded reciprocal of a instead
        # of dividing, so the two agree to the last bit, not bitwise
        diff = scalar_state_diffusion(lambda x: (1.0 + 0.25 * np.sin(x), 0.5 * np.cos(x)))
        x = gaussian_cloud(5000, std=3.0, seed=seed).points
        z = zeta(diff(0.0, x))
        assert z.shape == (5000, 2, 1)
        np.testing.assert_array_max_ulp(z, solved_zeta(diff, x), maxulp=1)
        sig = diff(0.0, x)
        assert np.allclose(sig @ z, 1.0, rtol=0.0, atol=4e-16)

    @pytest.mark.parametrize("row", [lambda x: (x,), lambda x: (x, 0.0 * x)],
                             ids=["m1", "m2"])
    def test_zero_sigma_raises_without_warning(self, row):
        diff = scalar_state_diffusion(row)
        x = np.array([[1.0], [0.0], [-2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularDiffusion):
                zeta(diff(0.0, x))


class TestLionsDerivative:
    """The measure derivative of each drift, through its coupling contraction.

    Row i of cylindrical_coupling(drift, t, X, z, V) is the mean over j of
    the measure-derivative matrix at (X_i, mu), point X_j, applied to V_j.
    """

    def test_meanfield_ou_is_kappa_identity(self):
        kappa = 0.7
        drift = affine_drift(2, a=1.0, kappa=kappa)
        X = gaussian_cloud(50, d=2, seed=3).points
        V = gaussian_cloud(50, d=2, seed=4).points
        out = cylindrical_coupling(drift, 0.0, X, drift.moment_vector(X), V)
        assert np.allclose(out, kappa * V.mean(axis=0), atol=1e-14)

    def test_no_measure_dependence_gives_zero(self):
        drift = trig_drift(a=1.0, c_nl=0.5)
        X = gaussian_cloud(20, seed=1).points
        out = cylindrical_coupling(drift, 0.0, X, drift.moment_vector(X), np.ones_like(X))
        assert np.all(out == 0.0)

    def test_quadratic_moment_hand_computation(self):
        # F(x, z) = z e_1 with h(y) = y_1^2 in d=2: derivative matrix has
        # single entry (1,1) = 2 y_1, evaluated at y=(3,0) -> 6
        def F(t, x, z):
            out = np.zeros_like(x)
            out[:, 0] = z[0]
            return out

        def grad_x_F(t, x, z):
            return np.zeros((x.shape[0], 2, 2))

        def grad_z_F(t, x, z):
            out = np.zeros((x.shape[0], 2, 1))
            out[:, 0, 0] = 1.0
            return out

        drift = CylindricalDrift(
            F=F, grad_x_F=grad_x_F, grad_z_F=grad_z_F,
            h=(lambda x: x[:, 0] ** 2,),
            grad_h=(lambda x: np.stack([2.0 * x[:, 0], np.zeros(x.shape[0])], axis=1),),
        )
        y = np.array([[3.0, 0.0]])
        z = drift.moment_vector(y)
        # a one-particle system: the columns of the matrix, one direction each
        out = np.stack([cylindrical_coupling(drift, 0.0, y, z, e[None, :])[0]
                        for e in np.eye(2)], axis=1)
        expected = np.zeros((2, 2))
        expected[0, 0] = 6.0
        assert np.allclose(out, expected)

    def test_linear_in_grad_z_slot(self):
        drift = sine_coupling_drift(a=1.0, kappa=0.4)
        doubled = CylindricalDrift(
            F=drift.F, grad_x_F=drift.grad_x_F,
            grad_z_F=lambda t, x, z: 2.0 * np.asarray(drift.grad_z_F(t, x, z)),
            h=drift.h, grad_h=drift.grad_h,
        )
        X = gaussian_cloud(30, seed=5).points
        V = gaussian_cloud(30, seed=6).points
        z = drift.moment_vector(X)
        base = cylindrical_coupling(drift, 0.0, X, z, V)
        twice = cylindrical_coupling(doubled, 0.0, X, z, V)
        assert np.array_equal(twice, 2.0 * base)

    def test_no_moments_give_a_zero_coupling(self):
        # a drift built from F and grad_x_F alone declares no moments; its
        # coupling is zero without any grad_z_F to call
        drift = CylindricalDrift(F=lambda t, x, z: -x,
                                 grad_x_F=lambda t, x, z: -np.ones((x.shape[0], 1, 1)))
        assert drift.n == 0 and drift.grad_z_F is None
        X = gaussian_cloud(12, seed=7).points
        V = gaussian_cloud(12, seed=8).points
        z = drift.moment_vector(X)
        assert z.dtype == np.float64 and z.shape == (0,)
        out = cylindrical_coupling(drift, 0.0, X, z, V)
        assert out.shape == V.shape and out.dtype == np.float64
        assert np.all(out == 0.0) and not np.signbit(out).any()

    def test_moments_need_their_gradients_and_grad_z(self):
        F = lambda t, x, z: -x
        gx = lambda t, x, z: -np.ones((x.shape[0], 1, 1))
        gz = lambda t, x, z: np.zeros((x.shape[0], 1, 1))
        h, gh = (lambda x: x[:, 0],), (lambda x: np.ones_like(x),)
        with pytest.raises(ValueError, match="same number of moments"):
            CylindricalDrift(F=F, grad_x_F=gx, grad_z_F=gz, h=h)
        with pytest.raises(ValueError, match="same number of moments"):
            CylindricalDrift(F=F, grad_x_F=gx, grad_z_F=gz, grad_h=gh)
        with pytest.raises(ValueError, match="needs grad_z_F"):
            CylindricalDrift(F=F, grad_x_F=gx, h=h, grad_h=gh)
        assert CylindricalDrift(F=F, grad_x_F=gx, grad_z_F=gz, h=h, grad_h=gh).n == 1


class TestDriftEval:
    """The drift as the integrator evaluates it: F(t, x, mu(h)) plus b0."""

    def test_pure_linear(self):
        model = build_family("affine", d=2, a=1.0, kappa=0.0)
        drift = model.meanfield_drift
        mu = gaussian_cloud(10, d=2, seed=2)
        out = drift.F(0.0, np.array([[1.0, 2.0]]), drift.moment_vector(mu.points))
        assert np.allclose(out, [[-1.0, -2.0]])

    def test_meanfield_ou_at_origin(self):
        drift = mfou_model(a=1.0, kappa=1.0, d=2).meanfield_drift
        mu = EmpiricalMeasure(np.tile([2.0, 0.0], (8, 1)))
        out = drift.F(0.0, np.zeros((1, 2)), drift.moment_vector(mu.points))
        assert np.allclose(out, [[2.0, 0.0]])

    def test_regularized_singularity_at_origin(self):
        sing = regularized_singular_drift(delta=1e-3)
        out = sing(0.0, np.zeros((1, 1)))
        assert np.allclose(out, 0.0)

    @pytest.mark.parametrize("delta", [1e-1, 1e-3])
    def test_regularized_singularity_gradient(self, delta):
        # against a central difference with step 6.06e-6 (delta + |x|), near
        # the cube root of double eps, across the core |x| = delta^(2/3)
        sing = regularized_singular_drift(delta=delta, strength=1.5)
        core = delta ** (2.0 / 3.0)
        x = np.array([0.0, core, -core, 1.0, -1.0, 5.0, -5.0])[:, None]
        h = 6.06e-6 * (delta + np.abs(x))
        fd = (sing(0.0, x + h) - sing(0.0, x - h)) / (2.0 * h)
        grad = sing.grad(0.0, x)
        assert grad.shape == (7, 1, 1)
        np.testing.assert_allclose(grad[:, :, 0], fd, rtol=1e-7)

    def test_regularized_singularity_needs_positive_delta(self):
        for delta in (0.0, -1e-3):
            with pytest.raises(ValueError):
                regularized_singular_drift(delta=delta)

    def test_depends_on_measure_only_through_moments(self):
        # noise-free mean-field OU: one Euler step of a particle at 0.25 in two
        # very different clouds with identical means
        model = mfou_model(a=1.0, kappa=0.5, sigma=0.0)
        mu1 = EmpiricalMeasure(np.array([[0.25], [-1.0], [1.0], [3.0]]))
        mu2 = EmpiricalMeasure(np.array([[0.25], [0.0], [0.5], [2.5]]))
        assert np.mean(mu1.points) == np.mean(mu2.points)
        grid = TimeGrid(t_end=0.1, n_steps=1)
        p1 = simulate_particles(model, mu1, grid, 0)
        p2 = simulate_particles(model, mu2, grid, 0)
        assert p1.states[1, 0, 0] == p2.states[1, 0, 0]

    def test_nonfinite_detected(self):
        model = build_family("affine", d=1, a=1.0, kappa=0.0)
        bad = CylindricalDrift(F=lambda t, x, z: np.full_like(x, np.nan),
                               grad_x_F=lambda t, x, z: np.zeros((x.shape[0], 1, 1)))
        model = replace(model, meanfield_drift=bad)
        with pytest.raises(NonFinite) as err:
            simulate_particles(model, gaussian_cloud(4), TimeGrid(0.1, 2), 0)
        assert str(err.value) == "non-finite state at step 1"


class TestEllipticity:
    def test_identity_passes(self):
        validate_ellipticity(const_diffusion_matrix(np.eye(2)), np.zeros((3, 2)))

    def test_degenerate_fails(self):
        with pytest.raises(SingularDiffusion):
            validate_ellipticity(const_diffusion_matrix(np.diag([1.0, 0.0])),
                                 np.zeros((3, 2)))

    def test_trig_diffusion_extremes(self):
        # sigma(x) = 1 + 0.5 sin x on [0, 2pi]: eigenvalues of sigma sigma*
        # range over [(1-0.5)^2, (1+0.5)^2] = [0.25, 2.25], condition 9
        probes = np.linspace(0.0, 2.0 * math.pi, 721)[:, None]
        validate_ellipticity(trig_diffusion(1.0, 0.5), probes)
        # the condition cap is inclusive: sigma = diag(1e4, 1) gives exactly 1e8
        validate_ellipticity(const_diffusion_matrix(np.diag([1e4, 1.0])), np.zeros((3, 2)))
        with pytest.raises(SingularDiffusion):
            validate_ellipticity(const_diffusion_matrix(np.diag([1e4 * (1 + 1e-6), 1.0])),
                                 np.zeros((3, 2)))

    def test_empty_probes_rejected(self):
        with pytest.raises(ValueError):
            validate_ellipticity(const_diffusion_matrix(np.eye(1)), np.zeros((0, 1)))


class TestAnalyticGradients:
    """Analytic derivatives must match central differences at order two."""

    def _grad_error(self, drift, t, pts, z, step):
        n_pts, d = pts.shape
        fd = np.zeros((n_pts, d, d))
        for j in range(d):
            e = np.zeros(d)
            e[j] = step
            fd[:, :, j] = (np.asarray(drift.F(t, pts + e, z))
                           - np.asarray(drift.F(t, pts - e, z))) / (2 * step)
        return np.max(np.abs(fd - np.asarray(drift.grad_x_F(t, pts, z))))

    @pytest.mark.parametrize("drift", [trig_drift(1.0, 0.5),
                                       sine_coupling_drift(1.0, 0.5),
                                       affine_drift(2, 1.0, 0.3)])
    def test_grad_x_second_order(self, drift, rng):
        d = 2 if drift.n == 2 else 1
        pts = rng.standard_normal((16, d))
        z = rng.standard_normal(drift.n)
        e1 = self._grad_error(drift, 0.0, pts, z, 1e-3)
        e2 = self._grad_error(drift, 0.0, pts, z, 5e-4)
        if e1 < 1e-10:
            # exact gradient (affine case): both errors sit at roundoff
            assert e2 < 1e-10
        else:
            # second order: halving the step divides the error by about four
            assert e2 <= e1 / 3.0 + 1e-12

    def test_grad_z_second_order(self, rng):
        drift = sine_coupling_drift(1.0, 0.5)
        pts = rng.standard_normal((16, 1))
        z = np.array([0.4])
        step = 1e-3

        def err(h):
            fd = (np.asarray(drift.F(0.0, pts, z + h))
                  - np.asarray(drift.F(0.0, pts, z - h))) / (2 * h)
            return np.max(np.abs(fd - np.asarray(drift.grad_z_F(0.0, pts, z))[:, :, 0]))

        assert err(step / 2) <= err(step) / 3.0 + 1e-12

    def test_grad_h_matches(self, rng):
        drift = affine_drift(2, 1.0, 0.3)
        pts = rng.standard_normal((16, 2))
        step = 1e-4
        for hl, gl in zip(drift.h, drift.grad_h):
            for j in range(2):
                e = np.zeros(2)
                e[j] = step
                fd = (np.asarray(hl(pts + e)) - np.asarray(hl(pts - e))) / (2 * step)
                assert np.allclose(fd, np.asarray(gl(pts))[:, j], atol=1e-8)

    def test_grad_sigma_second_order(self, rng):
        diff = trig_diffusion(1.0, 0.25)
        pts = rng.standard_normal((16, 1))

        def err(h):
            fd = (diff(0.0, pts + h) - diff(0.0, pts - h)) / (2 * h)
            return np.max(np.abs(fd - np.asarray(diff.grad_sigma(0.0, pts))[:, :, :, 0]))

        assert err(5e-4) <= err(1e-3) / 3.0 + 1e-12

    def test_growth_bound_on_moment_gradients(self, rng):
        # |grad h_l(y)| <= c (1 + |y|^{k-1}) on a compact probe set
        drift = affine_drift(2, 1.0, 0.5)
        k = 2.0
        pts = 5.0 * rng.standard_normal((128, 2))
        for gl in drift.grad_h:
            norms = np.linalg.norm(np.asarray(gl(pts)), axis=1)
            bound = 1.0 + np.linalg.norm(pts, axis=1) ** (k - 1.0)
            assert np.all(norms <= 2.0 * bound)


@pytest.mark.parametrize("d", [1, 2])
def test_constant_coefficients_are_cached_read_only(d):
    # the hot loops get one cached array per particle count; a write into
    # it would corrupt every later step, so it must raise instead
    drift, diff = affine_drift(d, 1.0, 0.5), constant_diffusion(d, d, 1.5)
    eye = np.eye(d)
    for N in (3, 7, 3):
        x, z = np.zeros((N, d)), np.zeros(d)
        outs = [(diff.sigma(0.0, x), 1.5 * eye), (drift.grad_x_F(0.0, x, z), -1.5 * eye),
                (drift.grad_z_F(0.0, x, z), 0.5 * eye)]
        outs += [(gl(x), eye[l]) for l, gl in enumerate(drift.grad_h)]
        for out, each in outs:
            assert out.shape == (N,) + each.shape
            assert np.array_equal(out, np.broadcast_to(each, out.shape))
            with pytest.raises(ValueError):
                out[...] = 7.0


class TestSchedules:
    @pytest.mark.parametrize("factory", [linear_schedule, quadratic_schedule,
                                         sine_schedule])
    def test_endpoints_and_derivative(self, factory):
        sched = factory(0.7)
        assert float(sched.beta(np.array(0.0))) == pytest.approx(0.0, abs=1e-12)
        assert float(sched.beta(np.array(0.7))) == pytest.approx(1.0, abs=1e-12)
        assert derivative_mismatch(sched) < 1e-6

    def test_bad_endpoints_rejected(self):
        with pytest.raises(ValueError):
            BismutSchedule(beta=lambda s: np.asarray(s), beta_prime=lambda s: 1.0,
                           t=2.0)

    def test_by_name(self):
        assert SCHEDULE_FACTORIES["linear"](1.0).t == 1.0
        with pytest.raises(KeyError):
            SCHEDULE_FACTORIES["nope"](1.0)


class TestPayoffsAndFields:
    """Payoffs map an (N, d) cloud to (N,) floats and fields to (N, d) floats."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_payoffs_return_one_float_per_particle(self, d):
        x = gaussian_cloud(7, d=d, seed=3).points
        for name, f in default_observables(d).items():
            out = f(x)
            assert isinstance(out, np.ndarray) and out.dtype == np.float64, name
            assert out.shape == (7,), name

    @pytest.mark.parametrize("d", [1, 2])
    def test_fields_return_one_float_vector_per_particle(self, d):
        x = gaussian_cloud(7, d=d, seed=3).points
        for name, phi in default_perturbations(d).items():
            out = phi(x)
            assert isinstance(out, np.ndarray) and out.dtype == np.float64, name
            assert out.shape == (7, d), name

    def test_planar_fields_are_named(self):
        assert list(default_perturbations(2)) == [
            "identity", "sine_field", "const_e1", "neg_const_e1", "const_e2", "neg_const_e2"]

    def test_scaled_is_bit_exact(self):
        x = gaussian_cloud(7, d=2, seed=3).points
        for phi in default_perturbations(2).values():
            assert scaled(phi, 2.0)(x).tobytes() == (2.0 * phi(x)).tobytes()


class TestModelValidation:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            build_family("affine", d=0)

    def test_schedules_registry_has_three(self):
        from mvgrad.model import SCHEDULE_FACTORIES
        assert len(SCHEDULE_FACTORIES) >= 3

    def test_brownian_has_no_singular_part(self):
        assert not brownian_model().has_singular_part
        assert build_family("singular").has_singular_part

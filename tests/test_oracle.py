import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from mvgrad.bismut import estimate_intrinsic
from mvgrad.errors import GridMismatch, UnequalSupport, UnsupportedScenario
from mvgrad.measure import EmpiricalMeasure
from mvgrad.model import linear_schedule
from mvgrad.oracle import (affine_reference, finite_difference_intrinsic,
                           fit_loglog_slope, moment_report,
                           richardson_intrinsic, stability_report,
                           tv_gradient_scaling, tv_sign_reference)
from mvgrad.scenarios import (build_family, constant_observable,
                              coord_observable, coordinate_field,
                              default_perturbations, family_params, get_scenario,
                              identity_field, sine_field)
from mvgrad.simulate import TimeGrid

from conftest import brownian_model, gaussian_cloud, mfou_model

const_e1 = coordinate_field(0, 1.0)


class TestFiniteDifference:
    def test_constant_payoff_exactly_zero(self):
        model = mfou_model()
        mu0 = gaussian_cloud(200, seed=1)
        est = finite_difference_intrinsic(model, mu0, const_e1,
                                          constant_observable(3.0), 0.5,
                                          TimeGrid(0.5, 50), 0.1, 2)
        assert est.value == 0.0
        assert est.stderr == 0.0

    def test_affine_flow_eps_independent(self):
        # linear dynamics and payoff: the quotient is exactly linear in eps,
        # so different ladder entries agree to roundoff
        model = brownian_model()
        mu0 = gaussian_cloud(500, seed=3)
        grid = TimeGrid(0.5, 50)
        vals = [finite_difference_intrinsic(model, mu0, identity_field(),
                                            coord_observable(0), 0.5, grid,
                                            eps, 4).value
                for eps in (0.1, 0.05, 0.025)]
        assert abs(vals[0] - vals[1]) < 1e-11
        assert abs(vals[1] - vals[2]) < 1e-11
        # and equals the sample phi-mean by direct computation
        assert vals[0] == pytest.approx(float(mu0.points.mean()), abs=1e-11)

    def test_richardson_matches_estimator(self):
        model = mfou_model()
        mu0 = gaussian_cloud(3000, seed=5)
        grid = TimeGrid(1.0, 300)
        est = estimate_intrinsic(model, mu0, const_e1, coord_observable(0),
                                 1.0, grid, linear_schedule(1.0), 6)
        rich = richardson_intrinsic(model, mu0, const_e1, coord_observable(0),
                                    1.0, grid, 0.05, 6)
        gap = abs(est.value - rich.value)
        assert gap <= 3.0 * math.hypot(est.stderr, rich.stderr)

    def test_richardson_improves_order_on_smooth_nonlinear(self):
        # quadratic bias term: plain quotients drift linearly in eps while
        # the extrapolated pair cancels that slope
        model = build_family("meanfield_sine")
        mu0 = gaussian_cloud(2000, seed=7)
        grid = TimeGrid(0.5, 100)
        phi = sine_field()
        f = coord_observable(0)

        def fd(eps):
            return finite_difference_intrinsic(model, mu0, phi, f, 0.5, grid,
                                               eps, 8).value

        def rich(eps):
            return richardson_intrinsic(model, mu0, phi, f, 0.5, grid, eps, 8).value

        fd_gap = abs(fd(0.2) - fd(0.05))
        rich_gap = abs(rich(0.2) - rich(0.05))
        assert rich_gap < fd_gap / 3.0

    def test_eps_validation(self):
        model = brownian_model()
        mu0 = gaussian_cloud(8, seed=0)
        with pytest.raises(ValueError):
            finite_difference_intrinsic(model, mu0, const_e1, coord_observable(0),
                                        0.5, TimeGrid(0.5, 5), 0.0, 0)

    def test_grid_must_end_at_t(self):
        model = brownian_model()
        mu0 = gaussian_cloud(8, seed=0)
        with pytest.raises(GridMismatch):
            finite_difference_intrinsic(model, mu0, const_e1, coord_observable(0),
                                        0.5, TimeGrid(1.0, 5), 0.1, 0)

    def test_richardson_grid_must_end_at_t(self):
        # the pair would otherwise silently give the derivative at grid.t_end
        model = brownian_model()
        mu0 = gaussian_cloud(8, seed=0)
        with pytest.raises(GridMismatch):
            richardson_intrinsic(model, mu0, const_e1, coord_observable(0),
                                 0.5, TimeGrid(1.0, 5), 0.1, 0)


def reference(scenario, f_name, t, points, phi_name="const_e1"):
    """affine_reference for a registry scenario at a one-dimensional cloud."""
    scen = get_scenario(scenario)
    pts = np.asarray(points, dtype=float).reshape(-1, 1)
    phi = default_perturbations(1)[phi_name]
    return affine_reference(scen.family, scen.params, f_name, t, pts, phi(pts))


SPREAD = [-1.3, -0.2, 0.4, 0.9, 2.1]


class TestQuadratureReference:
    """affine_reference against closed forms and adaptive quadrature."""

    def test_brownian_sine(self):
        val = reference("brownian", "sin", 1.0, [0.0])
        assert val == pytest.approx(math.exp(-0.5), abs=1e-10)

    def test_ou_linear(self):
        val = reference("ou", "coord1", 1.0, [0.0])
        assert val == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_constant_payoff(self):
        val = reference("brownian", "const1", 1.0, SPREAD)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_meanfield_ou_constant_direction(self):
        val = reference("meanfield_ou", "coord1", 1.0, SPREAD)
        assert val == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_ou_identity_direction_scales_with_start(self):
        val = reference("ou", "coord1", 1.0, [2.0], "identity")
        assert val == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)

    def test_negative_direction(self):
        plus = reference("brownian", "sin", 1.0, [0.0])
        minus = reference("brownian", "sin", 1.0, [0.0], "neg_const_e1")
        assert minus == pytest.approx(-plus, abs=1e-14)

    def test_sign_reference_from_point_mass(self):
        val = reference("brownian", "sign0", 0.25, [0.0])
        assert val == pytest.approx(math.sqrt(2.0 / (math.pi * 0.25)), rel=1e-12)

    def test_quadrature_error_below_budget(self):
        # independent check through adaptive quadrature of the same integral
        s = 1.0  # brownian noise std at t=1

        def integrand(g, x0):
            return math.cos(x0 + g) * norm.pdf(g, scale=s)

        for x0 in (0.0, 0.7):
            direct, _ = integrate.quad(integrand, -12, 12, args=(x0,))
            assert abs(reference("brownian", "sin", 1.0, [x0]) - direct) < 1e-8

    def test_meanfield_cloud_matches_per_particle_quadrature(self):
        # mean_i of E cos(X_t^i) (alpha sin x_i + gamma mean sin), each
        # expectation by adaptive quadrature over the Gaussian noise
        t = 0.7
        alpha = math.exp(-1.5 * t)                  # a + kappa = 1.5
        gamma = math.exp(-t) - alpha
        s = math.sqrt((1.0 - math.exp(-3.0 * t)) / 3.0)
        x = np.array(SPREAD)
        m, mean_phi = x.mean(), np.sin(x).mean()
        terms = []
        for xi in x:
            mean_i = alpha * xi + gamma * m
            expect, _ = integrate.quad(lambda g: math.cos(mean_i + g) * norm.pdf(g, scale=s),
                                       -15 * s, 15 * s, epsabs=1e-13, epsrel=1e-13)
            terms.append(expect * (alpha * math.sin(xi) + gamma * mean_phi))
        val = reference("meanfield_ou", "sin", t, SPREAD, "sine_field")
        assert val == pytest.approx(float(np.mean(terms)), abs=1e-10)

    def test_unsupported_combinations(self):
        with pytest.raises(UnsupportedScenario):
            reference("trig", "sin", 1.0, [0.0])
        with pytest.raises(UnsupportedScenario):
            reference("brownian", "tanh", 1.0, [0.0])

    def test_spread_sign_and_sine_field(self):
        # brownian at t=1: G ~ N(0, 1), and every point moves only by noise
        x = np.array(SPREAD)
        sign = reference("brownian", "sign0", 1.0, SPREAD)
        assert sign == pytest.approx(float(np.mean(2.0 * norm.pdf(x))), rel=1e-12)
        sine = reference("brownian", "sin", 1.0, SPREAD, "sine_field")
        expect = math.exp(-0.5) * np.cos(x) * np.sin(x)
        assert sine == pytest.approx(float(np.mean(expect)), rel=1e-12)


def brownian_tv(shift, sigma, t):
    """tv_sign_reference's gap for the driftless affine flow with noise scale sigma."""
    return tv_sign_reference("affine", family_params("affine", sigma=sigma), shift, t)[1]


class TestTvSignReference:
    def test_matches_direct_quadrature(self):
        c, sigma, t = 0.5, 1.0, 0.2
        theta = c / 2.0
        s = sigma * math.sqrt(t)

        def gap_by_quad():
            f = lambda x: math.copysign(1.0, x - theta)
            lhs, _ = integrate.quad(lambda x: f(x) * norm.pdf(x, 0.0, s), -12, 12,
                                    points=[theta])
            rhs, _ = integrate.quad(lambda x: f(x) * norm.pdf(x, c, s), -12, 12,
                                    points=[theta])
            return abs(lhs - rhs)

        assert brownian_tv(c, sigma, t) == pytest.approx(gap_by_quad(), abs=1e-10)

    def test_never_exceeds_tv_range(self):
        for t in (1e-4, 0.01, 1.0, 10.0):
            assert brownian_tv(1.0, 1.0, t) <= 2.0

    def test_diffusive_slope_for_large_t(self):
        ts = [10.0, 20.0, 40.0]
        vals = [brownian_tv(0.5, 1.0, t) for t in ts]
        slope = fit_loglog_slope(ts, vals)
        assert slope == pytest.approx(-0.5, abs=0.01)

    @pytest.mark.parametrize("scenario", ["ou", "meanfield_ou"])
    def test_mean_reverting_flow_matches_direct_quadrature(self, scenario):
        # from a point mass x the law at t is N(e^{-a t} x, s^2) with
        # s^2 = sigma^2 (1 - e^{-2 (a + kappa) t}) / (2 (a + kappa))
        scen = get_scenario(scenario)
        a, kappa = scen.params["a"], scen.params["kappa"]
        c, t = 1.0, 0.5
        theta = math.exp(-a * t) * c / 2.0      # the midpoint of the two laws' means
        s = math.sqrt((1.0 - math.exp(-2.0 * (a + kappa) * t)) / (2.0 * (a + kappa)))
        f = lambda x: math.copysign(1.0, x - theta)
        lhs, _ = integrate.quad(lambda x: f(x) * norm.pdf(x, 0.0, s), -12, 12,
                                points=[theta])
        rhs, _ = integrate.quad(lambda x: f(x) * norm.pdf(x, math.exp(-a * t) * c, s),
                                -12, 12, points=[theta])
        assert tv_sign_reference(scen.family, scen.params, c, t)[1] == pytest.approx(
            abs(lhs - rhs), abs=1e-10)

    @pytest.mark.parametrize("scenario", ["brownian", "ou", "meanfield_ou"])
    @pytest.mark.parametrize("c, t", [(1.0, 0.5), (1.0, 2.0)])
    def test_midpoint_step_attains_tv_distance(self, scenario, c, t):
        # from the point masses 0 and c the laws are N(0, v) and N((alpha +
        # gamma) c, v); the step at their midpoint reaches int |p - q|
        scen = get_scenario(scenario)
        a, kappa, sigma = (scen.params[key] for key in ("a", "kappa", "sigma"))
        rate = a + kappa
        mean = math.exp(-a * t) * c
        s = sigma * math.sqrt(t if rate == 0.0 else
                              (1.0 - math.exp(-2.0 * rate * t)) / (2.0 * rate))
        tv, _ = integrate.quad(lambda x: abs(norm.pdf(x, 0.0, s) - norm.pdf(x, mean, s)),
                               -12.0 * s, mean + 12.0 * s, points=[mean / 2.0],
                               epsabs=1e-12)
        theta, gap = tv_sign_reference(scen.family, scen.params, c, t)
        assert theta == pytest.approx(mean / 2.0, rel=1e-12)
        assert gap == pytest.approx(tv, abs=1e-10)

    def test_other_family_unsupported(self):
        scen = get_scenario("trig")
        with pytest.raises(UnsupportedScenario):
            tv_sign_reference(scen.family, scen.params, 1.0, 0.5)


class TestFitSlope:
    def test_exact_power_law(self):
        ts = [0.1, 0.2, 0.4]
        vals = [3.0 * t ** (-0.5) for t in ts]
        assert fit_loglog_slope(ts, vals) == pytest.approx(-0.5, abs=1e-12)

    def test_positive_values_required(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 2.0], [1.0, 0.0])


class TestStabilityReport:
    def test_identical_clouds_degenerate(self):
        model = mfou_model()
        mu0 = gaussian_cloud(64, seed=9)
        rep = stability_report(model, mu0, mu0, TimeGrid(0.5, 50), 10)
        assert rep.initial_distance == 0.0
        assert rep.sup_ratio == 0.0 and rep.terminal_ratio == 0.0

    def test_brownian_translation_exact(self):
        # b = 0: the synchronous gap is the constant initial shift, both
        # ratios are exactly one
        model = brownian_model()
        mu0 = gaussian_cloud(128, seed=11)
        nu0 = mu0.shifted([0.7])
        rep = stability_report(model, mu0, nu0, TimeGrid(0.5, 50), 12)
        assert rep.initial_distance == pytest.approx(0.7, abs=1e-12)
        assert rep.sup_ratio == pytest.approx(1.0, abs=1e-10)
        assert rep.terminal_ratio == pytest.approx(1.0, abs=1e-10)

    def test_meanfield_ou_contracts(self):
        model = mfou_model(a=1.0, kappa=0.5)
        mu0 = gaussian_cloud(256, seed=13)
        rep = stability_report(model, mu0, mu0.shifted([0.5]),
                               TimeGrid(1.0, 200), 14)
        assert rep.terminal_ratio <= 1.0 + 1e-9
        assert rep.sup_ratio <= 1.0 + 1e-9

    def test_unequal_sizes_rejected(self):
        model = brownian_model()
        with pytest.raises(UnequalSupport):
            stability_report(model, gaussian_cloud(8, seed=0),
                             gaussian_cloud(9, seed=1), TimeGrid(0.5, 5), 0)


class TestMomentReport:
    def test_frozen_dynamics_ratio_below_one(self):
        model = build_family("affine", d=1, a=0.0, kappa=0.0, sigma=0.0)
        clouds = [gaussian_cloud(128, std=s, seed=15) for s in (0.5, 2.0)]
        # zero drift and noise: sup equals the initial moment exactly
        rep = moment_report(model, clouds, TimeGrid(0.2, 10), 16)
        for i0, sup, ratio in zip(rep.initial_moments, rep.sup_moments, rep.ratios):
            assert sup == pytest.approx(i0, abs=1e-12)
            assert ratio == pytest.approx(i0 / (1.0 + i0), abs=1e-12)
            assert ratio < 1.0

    def test_brownian_second_moment_growth(self):
        model = brownian_model()
        n = 20_000
        mu0 = gaussian_cloud(n, seed=17)
        t = 0.5
        rep = moment_report(model, [mu0], TimeGrid(t, 50), 18)
        # independent increments: E|X_t|^2 = E|X_0|^2 + t
        expected_sup = rep.initial_moments[0] + t
        assert rep.sup_moments[0] == pytest.approx(expected_sup,
                                                   abs=4.0 * t * math.sqrt(6.0 / n))

    def test_dissipative_large_start_bounded(self):
        model = mfou_model(a=1.0, kappa=0.5)
        big = gaussian_cloud(256, std=10.0, seed=19)
        rep = moment_report(model, [big], TimeGrid(1.0, 100), 20)
        assert rep.max_ratio <= 1.0 + 1e-6
        assert len(rep.rows()) == 1


class TestTvScaling:
    def _point_pair(self, n, c):
        mu0 = EmpiricalMeasure(np.zeros((n, 1)))
        nu0 = EmpiricalMeasure(np.full((n, 1), c))
        return mu0, nu0

    def test_identical_laws_zero_gap(self):
        model = brownian_model()
        mu0, _ = self._point_pair(500, 0.5)
        gaps = tv_gradient_scaling(model, mu0, mu0, [TimeGrid(0.1, 10), TimeGrid(0.2, 20)],
                                   (0.3, 0.3), seed=21)
        assert gaps == [0.0, 0.0]

    def test_slope_matches_reference(self):
        model = brownian_model()
        c = 0.5
        mu0, nu0 = self._point_pair(4000, c)
        ts = (0.05, 0.1, 0.2, 0.4)
        grids = [TimeGrid(t, max(1, int(round(t / 1e-3)))) for t in ts]
        gaps = tv_gradient_scaling(model, mu0, nu0, grids, [c / 2.0] * len(ts), seed=24)
        assert all(g <= 2.0 for g in gaps)
        exact = [brownian_tv(c, 1.0, t) for t in ts]
        exact_slope = fit_loglog_slope(ts, exact)
        assert fit_loglog_slope(ts, gaps) == pytest.approx(exact_slope, abs=0.15)

    def test_unequal_sizes_rejected(self):
        model = brownian_model()
        with pytest.raises(UnequalSupport):
            tv_gradient_scaling(model, gaussian_cloud(8, seed=0), gaussian_cloud(9, seed=1),
                                [TimeGrid(0.1, 5)], (0.0,), seed=25)

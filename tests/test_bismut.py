import collections
import contextlib
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mvgrad import bismut, runner, simulate, tangent
from mvgrad.bismut import (Estimate, _sum_over_m, _zeta_apply, dual_norm_lower_bound,
                           estimate_classical, estimate_intrinsic, weight_frozen,
                           weight_meanfield)
from mvgrad.config import ExperimentConfig
from mvgrad.errors import (GridMismatch, MeasureDependence, MemoryBudgetExceeded,
                           NonFinite, ScheduleMismatch)
from mvgrad.measure import EmpiricalMeasure, sample_initial
from mvgrad.model import (BLOWUP_THRESHOLD, SCHEDULE_FACTORIES, CylindricalDrift,
                          linear_schedule, quadratic_schedule, scaled)
from mvgrad.model import zeta as model_zeta
from mvgrad.oracle import richardson_intrinsic
from mvgrad.scenarios import (constant_observable, coord_observable,
                              coordinate_field, default_observables,
                              default_perturbations, get_scenario, identity_field,
                              sign_observable, sin_observable)
from mvgrad.simulate import (MEMORY_BUDGET_ENV, TimeGrid, reusing_work,
                             simulate_particles)
from mvgrad.tangent import frozen_tangent, meanfield_tangent

from conftest import (brownian_model, collect, csv_modes, gaussian_cloud,
                      mfou_model, ou_model, planar_trig_grad_sigma, planar_trig_model,
                      planar_trig_sigma)

const_e1 = coordinate_field(0, 1.0)


def brownian_setup(n=256, n_steps=64, t=1.0, seed=3):
    model = brownian_model()
    mu0 = gaussian_cloud(n, seed=seed)
    grid = TimeGrid(t_end=t, n_steps=n_steps)
    paths = simulate_particles(model, mu0, grid, seed + 1)
    return model, mu0, grid, paths


class TestWeightFrozen:
    def test_zero_tangent_gives_zero(self):
        model, mu0, grid, paths = brownian_setup()
        tang = frozen_tangent(paths, model, np.zeros((mu0.N, 1)))
        w, _ = weight_frozen(paths, tang, linear_schedule(grid.t_end), model)
        assert np.all(w == 0.0)

    def test_brownian_telescopes_to_endpoint(self, rng):
        # constant tangent, linear schedule: the Ito sum collapses to
        # <v0, W_t>/t up to float re-association
        model, mu0, grid, paths = brownian_setup()
        v0 = rng.standard_normal((mu0.N, 1))
        tang = frozen_tangent(paths, model, v0)
        w, _ = weight_frozen(paths, tang, linear_schedule(grid.t_end), model)
        endpoint = paths.noise.sum(axis=0)
        expected = (v0 * endpoint).sum(axis=1) / grid.t_end
        assert np.allclose(w, expected, atol=1e-12)

    def test_weights_are_centered(self):
        model, mu0, grid, paths = brownian_setup(n=2048)
        tang = frozen_tangent(paths, model, np.ones((mu0.N, 1)))
        w, _ = weight_frozen(paths, tang, linear_schedule(grid.t_end), model)
        stderr = w.std(ddof=1) / math.sqrt(len(w))
        assert abs(w.mean()) < 3.0 * stderr

    def test_schedule_mismatch(self):
        model, mu0, grid, paths = brownian_setup()
        tang = frozen_tangent(paths, model, np.ones((mu0.N, 1)))
        with pytest.raises(ScheduleMismatch):
            weight_frozen(paths, tang, linear_schedule(grid.t_end * 2), model)

    def test_nonfinite_rejected(self):
        model, mu0, grid, paths = brownian_setup()
        V = np.ones((grid.n_steps + 1, mu0.N, 1))
        V[3, 5, 0] = np.nan
        with pytest.raises(NonFinite):
            weight_frozen(paths, V, linear_schedule(grid.t_end), model)


class TestWeightMeanfield:
    def test_zero_measure_derivative(self):
        model = ou_model(a=1.0)
        mu0 = gaussian_cloud(64, seed=5)
        paths = simulate_particles(model, mu0, TimeGrid(0.5, 50), 6)
        w = weight_meanfield(paths, meanfield_tangent(paths, model, const_e1), model)
        assert np.all(w == 0.0)

    def test_meanfield_ou_ito_isometry(self):
        # constant phi: psi_s = kappa * Vbar_s with Vbar_s = (1 - a dt)^s,
        # so Var(w) = kappa^2 sum_s Vbar_s^2 dt (sigma = 1)
        a, kappa, n = 1.0, 0.5, 4096
        model = mfou_model(a=a, kappa=kappa)
        mu0 = gaussian_cloud(n, seed=7)
        grid = TimeGrid(t_end=1.0, n_steps=200)
        paths = simulate_particles(model, mu0, grid, 8)
        w = weight_meanfield(paths, meanfield_tangent(paths, model, const_e1), model)

        stderr = w.std(ddof=1) / math.sqrt(n)
        assert abs(w.mean()) < 3.0 * stderr

        vbar = (1.0 - a * grid.dt) ** np.arange(grid.n_steps)
        var_theory = kappa**2 * np.sum(vbar**2) * grid.dt
        sample_var = w.var(ddof=1)
        assert abs(sample_var - var_theory) < 4.0 * var_theory * math.sqrt(2.0 / n)

    def test_doubling_phi(self):
        model = mfou_model()
        mu0 = gaussian_cloud(64, seed=9)
        paths = simulate_particles(model, mu0, TimeGrid(0.5, 50), 10)
        w1 = weight_meanfield(paths, meanfield_tangent(paths, model, const_e1), model)
        w2 = weight_meanfield(
            paths, meanfield_tangent(paths, model, scaled(const_e1, 2.0)), model)
        assert np.array_equal(w2, 2.0 * w1)


@pytest.mark.parametrize("estimator", ["intrinsic", "classical"])
def test_tangent_blow_up_at_the_last_step_is_raised(estimator):
    # grad b = 10 and dt = 0.1: V_s = 1.5e5 * 2^s up to rounding crosses the
    # threshold only at V_10, the slice after the last one a weight reads;
    # each tangent stream must still be drawn that far
    assert 1.5e5 * 2**9 < 0.8 * BLOWUP_THRESHOLD and 1.5e5 * 2**10 > 1.5 * BLOWUP_THRESHOLD
    model, grid, sched, f = ou_model(a=-10.0), TimeGrid(1.0, 10), linear_schedule(1.0), \
        coord_observable(0)
    with pytest.raises(NonFinite, match="^tangent blow-up at step 10$"):
        if estimator == "intrinsic":
            estimate_intrinsic(model, gaussian_cloud(50, seed=1), coordinate_field(0, 1.5e5),
                               f, 1.0, grid, sched, 2)
        else:
            estimate_classical(model, [0.0], [1.5e5], f, 1.0, grid, sched, 2, 50)


class TestEstimateIntrinsic:
    def test_constant_payoff_centered(self):
        model = mfou_model()
        mu0 = gaussian_cloud(2000, seed=11)
        grid = TimeGrid(1.0, 100)
        est = estimate_intrinsic(model, mu0, const_e1, constant_observable(2.0),
                                 1.0, grid, linear_schedule(1.0), 12)
        assert abs(est.value) < 3.0 * est.stderr

    def test_brownian_linear_constant_direction(self):
        # affine flow, linear payoff: derivative equals the phi-average, 1.0
        model = brownian_model()
        mu0 = gaussian_cloud(4000, seed=13)
        grid = TimeGrid(1.0, 200)
        est = estimate_intrinsic(model, mu0, const_e1, coord_observable(0),
                                 1.0, grid, linear_schedule(1.0), 14)
        assert abs(est.value - 1.0) < 3.0 * est.stderr
        assert est.term2 == 0.0
        assert csv_modes("brownian") == {"certified"}

    def test_brownian_identity_direction_is_initial_mean(self):
        model = brownian_model()
        mu0 = gaussian_cloud(4000, seed=15)
        grid = TimeGrid(1.0, 200)
        est = estimate_intrinsic(model, mu0, identity_field(), coord_observable(0),
                                 1.0, grid, linear_schedule(1.0), 16)
        target = float(mu0.points.mean())
        assert abs(est.value - target) < 4.0 * est.stderr

    def test_meanfield_ou_decay(self):
        a, kappa = 1.0, 0.5
        model = mfou_model(a=a, kappa=kappa)
        mu0 = gaussian_cloud(4000, seed=17)
        grid = TimeGrid(1.0, 400)
        est = estimate_intrinsic(model, mu0, const_e1, coord_observable(0),
                                 1.0, grid, linear_schedule(1.0), 18)
        target = (1.0 - a * grid.dt) ** grid.n_steps
        assert abs(est.value - target) < 3.0 * est.stderr
        # both terms contribute: the coupling term carries the kappa piece
        assert abs(est.term2) > 3.0 * est.stderr / 10.0

    def test_doubling_bit_exact(self):
        model = mfou_model()
        mu0 = gaussian_cloud(500, seed=19)
        grid = TimeGrid(0.5, 50)
        args = (coord_observable(0), 0.5, grid, linear_schedule(0.5), 20)
        base = estimate_intrinsic(model, mu0, const_e1, *args)
        twice = estimate_intrinsic(model, mu0, scaled(const_e1, 2.0), *args)
        assert twice.value == 2.0 * base.value
        assert twice.stderr == 2.0 * base.stderr
        assert twice.term1 == 2.0 * base.term1
        assert twice.term2 == 2.0 * base.term2

    def test_general_linearity(self):
        model = mfou_model()
        mu0 = gaussian_cloud(500, seed=21)
        grid = TimeGrid(0.5, 50)
        args = (coord_observable(0), 0.5, grid, linear_schedule(0.5), 22)
        phi_a, phi_b = const_e1, identity_field()
        combo = lambda x: 0.3 * phi_a(x) + 0.7 * phi_b(x)
        ea = estimate_intrinsic(model, mu0, phi_a, *args)
        eb = estimate_intrinsic(model, mu0, phi_b, *args)
        ec = estimate_intrinsic(model, mu0, combo, *args)
        assert ec.value == pytest.approx(0.3 * ea.value + 0.7 * eb.value, abs=1e-12)

    def test_grid_mismatch(self):
        model = brownian_model()
        mu0 = gaussian_cloud(16, seed=0)
        with pytest.raises(GridMismatch):
            estimate_intrinsic(model, mu0, const_e1, coord_observable(0),
                               1.0, TimeGrid(0.5, 10), linear_schedule(1.0), 0)

    def test_repeat_same_seed_bit_identical(self):
        model = mfou_model()
        mu0 = gaussian_cloud(400, seed=23)
        grid = TimeGrid(0.5, 50)
        args = (model, mu0, const_e1, coord_observable(0), 0.5, grid,
                linear_schedule(0.5), 24)
        e1, e2 = estimate_intrinsic(*args), estimate_intrinsic(*args)
        assert e1.value == e2.value and e1.stderr == e2.stderr


class TestEstimateClassical:
    def test_constant_payoff(self):
        model = brownian_model()
        est = estimate_classical(model, [0.0], [1.0], constant_observable(1.0),
                                 1.0, TimeGrid(1.0, 100), linear_schedule(1.0),
                                 25, 2000)
        assert abs(est.value) < 3.0 * est.stderr

    def test_brownian_sine_payoff(self):
        # d/dx E sin(x + W_1) at 0 is exp(-1/2)
        model = brownian_model()
        grid = TimeGrid(1.0, 500)
        est = estimate_classical(model, [0.0], [1.0], sin_observable(0), 1.0,
                                 grid, linear_schedule(1.0), 26, 4000)
        assert abs(est.value - math.exp(-0.5)) < 3.0 * est.stderr + 2.0 * grid.dt

    def test_ou_linear_payoff(self):
        model = ou_model(a=1.0)
        grid = TimeGrid(1.0, 500)
        est = estimate_classical(model, [0.0], [1.0], coord_observable(0), 1.0,
                                 grid, linear_schedule(1.0), 27, 4000)
        assert abs(est.value - math.exp(-1.0)) < 3.0 * est.stderr + 2.0 * grid.dt

    @pytest.mark.parametrize("scen_name", ["brownian", "ou", "trig"])
    def test_power_of_two_scaling_bit_exact(self, scen_name):
        # the control-variate coefficient is a closed-form ratio, so scaling
        # v by 4 scales value and stderr exactly
        model = get_scenario(scen_name).build()
        args = (sin_observable(0), 1.0, TimeGrid(1.0, 100), linear_schedule(1.0),
                28, 1000)
        base = estimate_classical(model, [0.3], [1.0], *args)
        four = estimate_classical(model, [0.3], [4.0], *args)
        assert four.value == 4.0 * base.value
        assert four.stderr == 4.0 * base.stderr

    def test_measure_dependence_rejected(self):
        model = mfou_model(kappa=0.5)
        with pytest.raises(MeasureDependence):
            estimate_classical(model, [0.0], [1.0], coord_observable(0), 1.0,
                               TimeGrid(1.0, 10), linear_schedule(1.0), 0, 16)

    def test_measure_dependence_with_a_vanishing_z_gradient_rejected(self):
        # F = -x + kappa z^2 reads the mean: its z-gradient 2 kappa z is 0 on
        # a cloud at x = 0, where a probe of the gradient would see no measure
        kappa = 0.5
        drift = CylindricalDrift(
            F=lambda t, x, z: -x + kappa * z[0] ** 2,
            grad_x_F=lambda t, x, z: -np.ones((x.shape[0], 1, 1)),
            grad_z_F=lambda t, x, z: np.full((x.shape[0], 1, 1), 2.0 * kappa * z[0]),
            h=(lambda x: x[:, 0],), grad_h=(lambda x: np.ones_like(x),))
        model = dataclasses.replace(ou_model(), meanfield_drift=drift)
        with pytest.raises(MeasureDependence):
            estimate_classical(model, [0.0], [1.0], sin_observable(0), 1.0,
                               TimeGrid(1.0, 100), linear_schedule(1.0), 3, 500)


class TestDualNorm:
    def test_constant_payoff_near_zero(self):
        model = brownian_model()
        mu0 = gaussian_cloud(1000, seed=29)
        best = dual_norm_lower_bound(
            model, mu0, constant_observable(1.0), 0.5, TimeGrid(0.5, 50),
            linear_schedule(0.5), [const_e1, coordinate_field(0, -1.0)], 30)
        assert abs(best.value) < 4.0 * best.stderr

    def test_sign_pair_selects_absolute_value(self):
        model = brownian_model()
        mu0 = EmpiricalMeasure(np.zeros((2000, 1)))
        t = 0.25
        fields = [const_e1, coordinate_field(0, -1.0)]
        best = dual_norm_lower_bound(
            model, mu0, sign_observable(0.0), t, TimeGrid(t, 25),
            linear_schedule(t), fields, 31)
        # both fields have unit L^k norm already, so each is estimated as given
        each = [estimate_intrinsic(model, mu0, phi, sign_observable(0.0), t,
                                   TimeGrid(t, 25), linear_schedule(t), 31)
                for phi in fields]
        assert best.value == max(est.value for est in each)
        # closed form: E|W_t| / t = sqrt(2 / (pi t))
        target = math.sqrt(2.0 / (math.pi * t))
        assert abs(best.value - target) < 3.0 * best.stderr

    def test_empty_dictionary(self):
        model = brownian_model()
        mu0 = gaussian_cloud(16, seed=0)
        with pytest.raises(ValueError):
            dual_norm_lower_bound(model, mu0, sign_observable(0.0), 0.5,
                                  TimeGrid(0.5, 5), linear_schedule(0.5), [], 0)


def beta_bundle(n, n_steps, seed, ci_seeds, schedules):
    """A brownian run at t = 0.5 whose beta_invariance compares ``schedules``
    (set after resolution, so a schedule may repeat)."""
    cfg = ExperimentConfig(scenario="brownian", n_particles=n, n_steps=n_steps, t=0.5,
                           seed=seed, ci_seeds=ci_seeds, checks=("beta_invariance",))
    bundle = runner.resolve_bundle(cfg)
    return dataclasses.replace(bundle, cfg=dataclasses.replace(cfg, schedules=schedules))


class TestBetaInvariance:
    def test_two_schedules_agree(self):
        rows = runner.check_beta_invariance(
            beta_bundle(1500, 100, 33, (1, 2, 3), ("linear", "quadratic")))
        pairs = [r for r in rows if "-vs-" in r.label]
        assert all(r.status == "pass" for r in pairs)
        assert len(pairs) == 1

    def test_identical_schedules_bit_identical(self):
        rows = runner.check_beta_invariance(
            beta_bundle(400, 50, 35, (5, 6), ("linear", "linear")))
        assert rows[0].value == rows[1].value
        assert rows[2].label == "linear-vs-linear" and rows[2].value == 0.0

    def test_single_seed_uses_estimate_stderr(self):
        # one ci seed has no spread across seeds: each schedule's stderr is
        # its estimate's own, and the pair tolerance is 3 sigma of those
        bundle = beta_bundle(300, 40, 37, (5,), ("linear", "quadratic"))
        ses = [estimate_intrinsic(bundle.model, bundle.mu0(), const_e1, coord_observable(0),
                                  0.5, bundle.grid(), bundle.sched(name), 5).stderr
               for name in ("linear", "quadratic")]
        rows = runner.check_beta_invariance(bundle)
        assert [r.stderr for r in rows[:2]] == ses
        assert rows[2].params == f"tol={3.0 * math.hypot(*ses)!r}"


class TestEstimateType:
    def test_negative_stderr_rejected(self):
        with pytest.raises(ValueError):
            Estimate(value=0.0, stderr=-1.0)


class TestMemory:
    def test_guard_counts_tangents(self, monkeypatch):
        # stored states (101 x 200 x 8 B) plus increments (100 x 200 x 8 B) take
        # 0.3216 MB; a tangent stream on them adds its two (200, 1) slices of V,
        # 3200 B, for 0.3248 MB: within a 0.3249 MB budget, not within 0.3247.
        # An estimate outside a block streams its states, so each of its tangent
        # streams counts the increments, two state slices and two slices of V,
        # 0.16 + 0.0032 + 0.0032 MB = 0.1664 MB: within 0.1665, not within 0.1663
        # (the state stream alone asks for 0.1632 MB)
        model = mfou_model()
        mu0 = gaussian_cloud(200, seed=0)
        grid = TimeGrid(0.5, 100)
        paths = simulate_particles(model, mu0, grid, 1)
        estimate = lambda: estimate_intrinsic(model, mu0, const_e1, coord_observable(0), 0.5,
                                              grid, linear_schedule(0.5), 1)
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "0.3249")
        frozen_tangent(paths, model, np.ones((200, 1)))
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "0.3247")
        with pytest.raises(MemoryBudgetExceeded):
            frozen_tangent(paths, model, np.ones((200, 1)))
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "0.1665")
        estimate()
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "0.1663")
        with pytest.raises(MemoryBudgetExceeded):
            estimate()

    @pytest.mark.parametrize("scen_name", ["trig", "meanfield_ou"])
    def test_traced_peak_of_an_estimate(self, scen_name):
        # outside a block an estimate streams its states: the increments, two
        # slices of the states and of each tangent stream and per-step
        # temporaries (about 0.35 MB here), never a trajectory of states (3.2 MB)
        scen = get_scenario(scen_name)
        model = scen.build()
        N, n = 2000, 200
        mu0 = sample_initial(scen.initial_law, N, 3)
        grid = TimeGrid(1.0, n)
        tracemalloc.start()
        try:
            estimate_intrinsic(model, mu0, const_e1, coord_observable(0), 1.0, grid,
                               linear_schedule(1.0), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * N * n * model.m + 1e6


class TestPlanarStateDependentNoise:
    def test_grad_sigma_is_exact(self):
        x = np.random.default_rng(0).normal(size=(50, 2))
        h = 1e-6
        for j in range(2):
            step = np.zeros(2)
            step[j] = h
            fd = (planar_trig_sigma(0.0, x + step) - planar_trig_sigma(0.0, x - step)) / (2 * h)
            assert np.max(np.abs(fd - planar_trig_grad_sigma(0.0, x)[..., j])) < 1e-8

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("f_name,p_name", [("coord1", "const_e1"), ("sin", "sine_field")])
    def test_estimate_agrees_with_richardson(self, f_name, p_name, seed):
        # the runner's intrinsic_vs_fd rule: gap within 3 combined stderrs
        model = planar_trig_model()
        f, phi = default_observables(2)[f_name], default_perturbations(2)[p_name]
        mu0 = sample_initial({"family": "gaussian", "mean": [0.0, 0.0], "cov": 1.0},
                             2000, seed)
        grid = TimeGrid(1.0, 200)
        est = estimate_intrinsic(model, mu0, phi, f, 1.0, grid, linear_schedule(1.0), seed)
        rich = richardson_intrinsic(model, mu0, phi, f, 1.0, grid, 0.05, seed)
        assert abs(est.value - rich.value) <= 3.0 * math.hypot(est.stderr, rich.stderr)

    # (value, stderr) as float.hex at N = 500, n = 50.  At d = 2, m = 3 every
    # contraction takes the general einsum/matmul path, which the length-one
    # products for d = m = 1 must leave bit for bit as it was.
    PINNED = {
        (1, "coord1", "const_e1"): ("0x1.814c950bf3c54p-2", "0x1.fe11d07e6518ep-6"),
        (1, "sin", "sine_field"): ("-0x1.7f63bde0dcc7ep-10", "0x1.465c387ed6f03p-7"),
        (2, "coord1", "const_e1"): ("0x1.620fbbbe4c63dp-2", "0x1.91f59fbaf2678p-6"),
        (2, "sin", "sine_field"): ("-0x1.338d169ba0639p-8", "0x1.4828159245e5dp-7"),
    }

    @pytest.mark.parametrize("seed, f_name, p_name", sorted(PINNED))
    def test_estimate_bits_are_pinned(self, seed, f_name, p_name):
        f, phi = default_observables(2)[f_name], default_perturbations(2)[p_name]
        mu0 = sample_initial({"family": "gaussian", "mean": [0.0, 0.0], "cov": 1.0},
                             500, seed)
        est = estimate_intrinsic(planar_trig_model(), mu0, phi, f, 1.0, TimeGrid(1.0, 50),
                                 quadratic_schedule(1.0), seed)
        assert (est.value.hex(), est.stderr.hex()) == self.PINNED[seed, f_name, p_name]


# (value, stderr, term1, term2) as float.hex of the d = 1 scenarios under
# quadratic_schedule(1.0): meanfield_ou and trig at N = 500, n = 50, and
# singular_demo at N = 200, n = 1000 (its tangent needs dt <= 2 delta / strength).
# They guard the in-place Euler and tangent updates and the cached coefficients.
ONE_DIMENSIONAL_PINS = {
    ("meanfield_ou", 1, "coord1", "const_e1"):
        ("0x1.8f79effb5e239p-2", "0x1.bf3d60516f0fap-6",
         "0x1.e875f13db0244p-3", "0x1.367deeb90c230p-3"),
    ("meanfield_ou", 1, "sin", "sine_field"):
        ("-0x1.725a11993871bp-7", "0x1.27e946b002b33p-7",
         "-0x1.0796ac00f98d5p-7", "-0x1.ab0d9660fb90ep-9"),
    ("meanfield_ou", 2, "coord1", "const_e1"):
        ("0x1.3e8d5719e5d87p-2", "0x1.64b7981d10ae6p-6",
         "0x1.8068f5dee3ab6p-3", "0x1.f96370a9d00aep-4"),
    ("meanfield_ou", 2, "sin", "sine_field"):
        ("0x1.463834087f9a4p-6", "0x1.fbf51717f921dp-8",
         "0x1.dca8aed5eecfap-7", "0x1.5f8f727620c9bp-8"),
    ("trig", 1, "coord1", "const_e1"):
        ("0x1.16227564990c9p-1", "0x1.192b79d5f287ap-5",
         "0x1.16227564990c9p-1", "0x0.0p+0"),
    ("trig", 1, "sin", "sine_field"):
        ("-0x1.2e100e09e0e08p-5", "0x1.09f648c37f460p-6",
         "-0x1.2e100e09e0e08p-5", "0x0.0p+0"),
    ("trig", 2, "coord1", "const_e1"):
        ("0x1.bdc48227f0453p-2", "0x1.ef90b69b8b95fp-6",
         "0x1.bdc48227f0453p-2", "0x0.0p+0"),
    ("trig", 2, "sin", "sine_field"):
        ("0x1.f0bc5bfa40d08p-7", "0x1.c7adfe6f5f96ep-7",
         "0x1.f0bc5bfa40d08p-7", "0x0.0p+0"),
    ("singular_demo", 1, "coord1", "const_e1"):
        ("0x1.4a8a0c0b7bd26p-3", "0x1.a0e53d8efcd9cp-5",
         "0x1.4a8a0c0b7bd26p-3", "0x0.0p+0"),
    ("singular_demo", 1, "sin", "sine_field"):
        ("0x1.930380dd5e161p-4", "0x1.c98e6d4838989p-6",
         "0x1.930380dd5e161p-4", "0x0.0p+0"),
    ("singular_demo", 2, "coord1", "const_e1"):
        ("0x1.5af854e71d5b7p-2", "0x1.804c78da1208bp-4",
         "0x1.5af854e71d5b7p-2", "0x0.0p+0"),
    ("singular_demo", 2, "sin", "sine_field"):
        ("0x1.c9bb9f01fdd7ap-3", "0x1.2d8fee7fcbabdp-4",
         "0x1.c9bb9f01fdd7ap-3", "0x0.0p+0"),
}


@pytest.mark.parametrize("name, seed, f_name, p_name", sorted(ONE_DIMENSIONAL_PINS))
def test_one_dimensional_estimate_bits_are_pinned(name, seed, f_name, p_name):
    scenario = get_scenario(name)
    N, n = (200, 1000) if name == "singular_demo" else (500, 50)
    f, phi = default_observables(1)[f_name], default_perturbations(1)[p_name]
    mu0 = sample_initial(scenario.initial_law, N, seed)
    est = estimate_intrinsic(scenario.build(), mu0, phi, f, 1.0, TimeGrid(1.0, n),
                             quadratic_schedule(1.0), seed)
    got = tuple(x.hex() for x in (est.value, est.stderr, est.term1, est.term2))
    assert got == ONE_DIMENSIONAL_PINS[name, seed, f_name, p_name]


# Every grid the shipped configs build: t = 1 at n = 500 and n = 1000, and
# brownian.cfg's t_grid horizons at its dt = 1/500.
SHIPPED_GRIDS = [(1.0, 500), (1.0, 1000), (0.05, 25), (0.1, 50), (0.2, 100), (0.4, 200)]


@pytest.mark.parametrize("t, n", SHIPPED_GRIDS)
@pytest.mark.parametrize("schedule", ["linear", "quadratic", "sine"])
def test_weight_reads_beta_prime_as_one_point_calls(t, n, schedule):
    # the weight pass evaluates beta' once over its grid; each step must see
    # the bits of the one-point call at t_s = s * dt
    model = ou_model()
    grid = TimeGrid(t, n)
    paths = simulate_particles(model, gaussian_cloud(4, seed=1), grid, 2)
    V = collect(frozen_tangent(paths, model, np.ones((4, 1))))
    sched = SCHEDULE_FACTORIES[schedule](t)
    w, qv = weight_frozen(paths, V, sched, model)
    want_w, want_qv = np.zeros(4), np.zeros(4)
    for s in range(n):
        bp = float(sched.beta_prime(np.array(s * grid.dt)))
        zv = _zeta_apply(model, paths.at(s, model), V[s])
        want_w += bp * _sum_over_m(zv, paths.noise[s])
        want_qv += (bp * bp * grid.dt) * _sum_over_m(zv, zv)
    assert w.tobytes() == want_w.tobytes() and qv.tobytes() == want_qv.tobytes()


def counted_trig(counts):
    """The trig model whose four coefficient callables add their calls to ``counts``."""
    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call
    model = get_scenario("trig").build()
    drift, diff = model.meanfield_drift, model.diffusion
    return dataclasses.replace(
        model, meanfield_drift=dataclasses.replace(
            drift, F=counted("F", drift.F), grad_x_F=counted("grad_x_F", drift.grad_x_F)),
        diffusion=dataclasses.replace(diff, sigma=counted("sigma", diff.sigma),
                                      grad_sigma=counted("grad_sigma", diff.grad_sigma)))


@pytest.mark.parametrize("held", [False, True], ids=["streamed", "held paths"])
def test_each_coefficient_is_evaluated_once_per_step(held, monkeypatch):
    # the Euler step, both tangents and both Ito terms of step s read one record;
    # sigma's extra call is validate_ellipticity's probe of the starting points,
    # and zeta is still applied twice per step, once per weight
    counts, zetas = collections.Counter(), []
    monkeypatch.setattr(bismut, "zeta", lambda *a: zetas.append(1) or model_zeta(*a))
    model, (N, n) = counted_trig(counts), (100, 50)
    mu0, grid = sample_initial(get_scenario("trig").initial_law, N, 3), TimeGrid(1.0, n)
    args = (model, mu0, const_e1, sin_observable(), 1.0, grid, linear_schedule(1.0), 3)
    with reusing_work() if held else contextlib.nullcontext():
        if held:
            simulate_particles(model, mu0, grid, 3)
            assert dict(counts) == {"F": n, "sigma": n}
            counts.clear()
        estimate_intrinsic(*args)
    want = {"sigma": n + 1, "grad_x_F": n, "grad_sigma": n} | ({} if held else {"F": n})
    assert dict(counts) == want and len(zetas) == 2 * n


def _reuse_case(name, N, n):
    """(model, mu0, phi, f, grid) of the reuse tests: meanfield_ou and trig
    from the registry, or the d = 2, m = 3 model."""
    if name == "planar":
        law, model = {"family": "gaussian", "mean": [0.0, 0.0], "cov": 1.0}, planar_trig_model()
    else:
        scenario = get_scenario(name)
        law, model = scenario.initial_law, scenario.build()
    return (model, sample_initial(law, N, 5), default_perturbations(model.d)["sine_field"],
            default_observables(model.d)["sin"], TimeGrid(1.0, n))


@pytest.mark.parametrize("name", ["meanfield_ou", "trig", "planar"])
def test_values_free_guard_counts_what_the_pass_allocates(name, monkeypatch):
    # a mean-field stream holds no values trajectory: only the two slices of
    # V outlive a step, and the rest is per-step temporaries, psi_s among them
    model, mu0, phi, _, grid = _reuse_case(name, 2000, 200)
    paths = simulate_particles(model, mu0, grid, 6)
    requests = []
    monkeypatch.setattr(tangent, "_guard_memory", lambda need, reads: requests.append(need))
    def drain():
        for _ in meanfield_tangent(paths, model, phi):
            pass

    peak = _traced_peak(drain)
    held = 2 * 8 * paths.N * paths.d
    assert requests == [paths.states.nbytes + paths.noise.nbytes + held]
    assert held <= peak <= held + 20 * 8 * paths.N * paths.d


def _three_schedules(model, mu0, phi, f, grid, seed=6):
    return [estimate_intrinsic(model, mu0, phi, f, 1.0, grid, SCHEDULE_FACTORIES[name](1.0),
                               seed)
            for name in ("linear", "quadratic", "sine")]


@pytest.mark.parametrize("name", ["meanfield_ou", "trig", "planar", "meanfield_sine"])
def test_schedules_sharing_work_are_bit_identical(name):
    # inside the block the second and third schedule reuse the paths and the
    # coupling weight of the first; another field reuses the paths only.
    # Outside a block each estimate streams its states instead.  The streamed
    # ones run first, so no array the block freed can lend them the moments
    # that meanfield_sine's tangents read: one read before it is recorded
    # changes the bits
    model, mu0, phi, f, grid = case = _reuse_case(name, 300, 40)
    other = default_perturbations(model.d)["const_e1"]
    estimates = lambda: [e for seed in (6, 7) for e in _three_schedules(*case, seed) + [
        estimate_intrinsic(model, mu0, other, f, 1.0, grid, linear_schedule(1.0), seed)]]
    bits = lambda e: tuple(x.hex() for x in (e.value, e.stderr, e.term1, e.term2))
    streamed = estimates()
    with reusing_work():
        shared = estimates()
    assert [bits(e) for e in shared] == [bits(e) for e in streamed]


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["meanfield_ou", "trig", "planar"])
def test_schedules_sharing_work_keep_the_peak_of_one_estimate(name):
    # the block holds the paths and w2 between estimates
    # and drops them before it builds for the next seed: estimates in it peak
    # where one estimate in a block of its own does
    model, mu0, phi, f, grid = case = _reuse_case(name, 2000, 200)
    one = lambda seed: estimate_intrinsic(model, mu0, phi, f, 1.0, grid,
                                          linear_schedule(1.0), seed)

    def shared():
        with reusing_work():
            _three_schedules(*case)
            one(7)

    def alone():
        with reusing_work():
            one(6)

    assert _traced_peak(shared) <= 1.05 * _traced_peak(alone)


# float.hex of (value, stderr) of estimate_classical at x = 0, v = 1 with f = sin,
# the quadratic schedule, N = 500 and n = 50, recorded when the classical
# estimator still read stored paths through weight_frozen
CLASSICAL_PINS = {
    ("ou", 1): ("0x1.2baffa8172104p-2", "0x1.430f7d4f62d95p-8"),
    ("ou", 2): ("0x1.2d64bca033efcp-2", "0x1.82662433970b4p-9"),
    ("brownian", 1): ("0x1.2eb9f8b6fc6f8p-1", "0x1.61ddb0fead53bp-6"),
    ("brownian", 2): ("0x1.2cc26adfadad1p-1", "0x1.017dbb195f5dcp-6"),
}


@pytest.mark.parametrize("name, seed", sorted(CLASSICAL_PINS))
def test_classical_bits_are_pinned_inside_and_outside_a_block(name, seed):
    args = (get_scenario(name).build(), [0.0], [1.0], default_observables(1)["sin"], 1.0,
            TimeGrid(1.0, 50), quadratic_schedule(1.0), seed, 500)
    streamed = estimate_classical(*args)
    with reusing_work():
        stored = estimate_classical(*args)
    for est in (streamed, stored):
        assert (est.value.hex(), est.stderr.hex()) == CLASSICAL_PINS[name, seed]


class TestClassicalPaths:
    ARGS = (sin_observable(0), 1.0, TimeGrid(1.0, 200), linear_schedule(1.0), 3, 2000)

    def test_streams_outside_a_block(self, monkeypatch):
        # the increments and two slices, 3.2 + 0.032 MB, not a stored build's 6.416 MB
        requests, guard = [], simulate._guard_memory
        monkeypatch.setattr(simulate, "_guard_memory",
                            lambda need, reads: requests.append(need) or guard(need, reads))
        estimate_classical(get_scenario("ou").build(), [0.0], [1.0], *self.ARGS)
        assert requests == [8 * 2000 * (200 + 2)]

    def test_stores_and_holds_its_paths_inside_a_block(self):
        model = get_scenario("ou").build()
        with reusing_work():
            before = simulate.work_counts()
            first = estimate_classical(model, [0.0], [1.0], *self.ARGS)
            held = simulate._held.chain[1][1]
            again = estimate_classical(model, [0.0], [1.0], *self.ARGS)
            assert simulate.work_counts() == (before[0] + 1, before[1] + 1)
            assert simulate._held.chain[1][1] is held and held.states.shape == (201, 2000, 1)
        assert (again.value, again.stderr) == (first.value, first.stderr)


@pytest.mark.parametrize("name", ["meanfield_ou", "trig", "planar"])
def test_public_weights_equal_the_estimators_sums(name):
    # weight_frozen and weight_meanfield run the estimator's own loop, so on the
    # same stored paths their products with f(X_T) average to its terms bit for bit
    model, mu0, phi, f, grid = _reuse_case(name, 300, 40)
    sched = quadratic_schedule(1.0)
    with reusing_work():
        paths = simulate_particles(model, mu0, grid, 6)
        est = estimate_intrinsic(model, mu0, phi, f, 1.0, grid, sched, 6)
    fx = f(paths.terminal())
    w1 = weight_frozen(paths, frozen_tangent(paths, model, phi(paths.states[0])), sched, model)[0]
    w2 = weight_meanfield(paths, meanfield_tangent(paths, model, phi), model)
    assert float(np.mean(fx * w1)).hex() == est.term1.hex()
    assert float(np.mean(fx * w2)).hex() == est.term2.hex()


@pytest.mark.parametrize("N", [1, 64, 65, 127, 5000])
def test_ellipticity_probe_takes_at_most_64_points(N, monkeypatch):
    probes = []
    monkeypatch.setattr(bismut, "validate_ellipticity",
                        lambda diffusion, pts: probes.append(pts.copy()))
    model, mu0, grid = brownian_model(), gaussian_cloud(N, seed=1), TimeGrid(1.0, 2)
    estimate_intrinsic(model, mu0, const_e1, sin_observable(0), 1.0, grid,
                       linear_schedule(1.0), 2)
    [pts] = probes
    assert 1 <= len(pts) <= 64 and np.array_equal(pts[0], mu0.points[0])
    assert len(pts) == N or N > 64

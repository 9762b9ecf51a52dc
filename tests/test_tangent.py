import math

import numpy as np
import pytest

from mvgrad.bismut import estimate_intrinsic
from mvgrad.errors import MissingGradSigma
from mvgrad.measure import EmpiricalMeasure, pushforward
from mvgrad.model import CylindricalDrift, Diffusion, linear_schedule, scaled
from mvgrad.scenarios import (build_family, coord_observable, identity_field,
                              sine_coupling_drift, sine_field)
from mvgrad.simulate import TimeGrid, simulate_particles
from mvgrad.tangent import cylindrical_coupling, frozen_tangent, meanfield_tangent

from conftest import (brownian_model, collect, csv_modes, gaussian_cloud,
                      mfou_model, ou_model)

const_field = lambda x: np.ones_like(x)


def coupling_direct(drift: CylindricalDrift, t, X, z, V):
    """O(N^2) reference for cylindrical_coupling: every pairwise matrix built."""
    N, d = X.shape
    gz = np.asarray(drift.grad_z_F(t, X, z), dtype=float)           # (N, d, n)
    gh = np.stack([np.asarray(gl(X), dtype=float) for gl in drift.grad_h], axis=0)  # (n, N, d)
    out = np.zeros_like(V)
    for i in range(N):
        acc = np.zeros(d)
        for j in range(N):
            M = gz[i] @ gh[:, j, :]                                  # (d, d)
            acc += M @ V[j]
        out[i] = acc / N
    return out


class TestFrozenTangent:
    def test_constant_coefficients_keep_v0(self, rng):
        model = brownian_model()
        mu0 = gaussian_cloud(16, seed=0)
        paths = simulate_particles(model, mu0, TimeGrid(0.5, 20), 1)
        v0 = rng.standard_normal((16, 1))
        tang = collect(frozen_tangent(paths, model, v0))
        assert np.array_equal(tang[-1], v0)

    def test_linear_decay_closed_form(self):
        # grad b = -a: V_s = (1 - a dt)^s v0 exactly, e^{-at} v0 in the limit
        a = 1.3
        model = ou_model(a=a)
        mu0 = gaussian_cloud(8, seed=1)
        grid = TimeGrid(t_end=1.0, n_steps=1000)
        paths = simulate_particles(model, mu0, grid, 2)
        v0 = np.full((8, 1), 2.0)
        tang = collect(frozen_tangent(paths, model, v0))
        expected = (1.0 - a * grid.dt) ** grid.n_steps * 2.0
        assert np.allclose(tang[-1], expected, rtol=1e-12)
        assert np.allclose(tang[-1], 2.0 * math.exp(-a), atol=4e-3)

    def test_pathwise_fd_order_under_common_noise(self):
        model = build_family("trig")
        mu0 = gaussian_cloud(256, seed=3)
        grid = TimeGrid(t_end=0.5, n_steps=250)
        base = simulate_particles(model, mu0, grid, 5)
        tang = collect(frozen_tangent(base, model, np.ones((256, 1))))
        errs = []
        for eps in (0.1, 0.05):
            shifted = EmpiricalMeasure(mu0.points + eps)
            pert = simulate_particles(model, shifted, grid, 5)
            quot = (pert.states - base.states) / eps
            errs.append(np.max(np.mean(np.abs(quot - tang), axis=(1, 2))))
        assert errs[1] <= errs[0] / 1.7

    def test_linearity_bit_exact(self, rng):
        model = build_family("trig")
        mu0 = gaussian_cloud(32, seed=4)
        paths = simulate_particles(model, mu0, TimeGrid(0.5, 50), 6)
        u = rng.standard_normal((32, 1))
        w = rng.standard_normal((32, 1))
        tu = collect(frozen_tangent(paths, model, u))
        tw = collect(frozen_tangent(paths, model, w))
        combo = collect(frozen_tangent(paths, model, 2.0 * u))
        assert np.array_equal(combo, 2.0 * tu)
        both = collect(frozen_tangent(paths, model, u + w))
        assert np.allclose(both, tu + tw, atol=1e-12)

    def test_boundedness_surrogate(self, rng):
        model = ou_model(a=1.0)
        mu0 = gaussian_cloud(128, seed=7)
        paths = simulate_particles(model, mu0, TimeGrid(1.0, 200), 8)
        k = model.k
        for _ in range(5):
            direction = rng.standard_normal(1)
            v0 = np.tile(direction, (128, 1))
            tang = collect(frozen_tangent(paths, model, v0))
            sup_norm = np.max(np.abs(tang), axis=0)
            ratio = np.mean(sup_norm**k) ** (1 / k) / abs(direction[0])
            assert ratio <= 2.0

    def test_missing_grad_sigma(self):
        model = build_family("trig")
        bad_diff = Diffusion(sigma=model.diffusion.sigma, grad_sigma=None,
                             constant_in_x=False)
        from dataclasses import replace
        bad = replace(model, diffusion=bad_diff)
        mu0 = gaussian_cloud(8, seed=0)
        paths = simulate_particles(bad, mu0, TimeGrid(0.1, 5), 0)
        with pytest.raises(MissingGradSigma):
            frozen_tangent(paths, bad, np.ones((8, 1)))

    def test_heuristic_regime_flagging(self):
        # exact for the regularized drift, uncertified as delta -> 0
        model = build_family("singular")
        mu0 = gaussian_cloud(8, mean=1.0, std=0.2, seed=0)
        grid = TimeGrid(0.1, 10)
        paths = simulate_particles(model, mu0, grid, 0)
        tang = collect(frozen_tangent(paths, model, np.ones((8, 1))))
        assert np.all(np.isfinite(tang))
        values, psi = collect(meanfield_tangent(paths, model, const_field))
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(psi))
        est = estimate_intrinsic(model, mu0, const_field, coord_observable(), 0.1,
                                 grid, linear_schedule(0.1), 0)
        assert np.isfinite(est.value)
        assert csv_modes("singular_demo") == {"heuristic"}

    def test_v0_shape_checked(self):
        model = brownian_model()
        mu0 = gaussian_cloud(8, seed=0)
        paths = simulate_particles(model, mu0, TimeGrid(0.1, 5), 0)
        with pytest.raises(ValueError):
            frozen_tangent(paths, model, np.ones((4, 1)))


class TestMeanfieldTangent:
    def test_no_coupling_equals_frozen(self):
        # vanishing measure derivative: psi = 0 and the two recursions agree
        model = ou_model(a=0.7)
        mu0 = gaussian_cloud(32, seed=2)
        paths = simulate_particles(model, mu0, TimeGrid(0.5, 100), 3)
        mt, psi = collect(meanfield_tangent(paths, model, identity_field()))
        ft = collect(frozen_tangent(paths, model, identity_field()(paths.states[0])))
        assert np.array_equal(mt, ft)
        assert np.all(psi == 0.0)

    def test_meanfield_ou_tangent_mean(self):
        # constant phi: every tangent equals the mean tangent, which obeys
        # dV = -a V dt exactly in the Euler recursion
        a, kappa = 1.0, 0.5
        model = mfou_model(a=a, kappa=kappa)
        mu0 = gaussian_cloud(64, seed=9)
        grid = TimeGrid(t_end=1.0, n_steps=1000)
        paths = simulate_particles(model, mu0, grid, 10)
        tang, _ = collect(meanfield_tangent(paths, model, const_field))
        expected = (1.0 - a * grid.dt) ** grid.n_steps
        assert np.allclose(tang[-1], expected, rtol=1e-10)
        assert np.allclose(tang[-1], math.exp(-a), atol=3e-3)

    def test_doubling_phi_bit_exact(self):
        model = mfou_model()
        mu0 = gaussian_cloud(32, seed=11)
        paths = simulate_particles(model, mu0, TimeGrid(0.5, 50), 12)
        phi = sine_field()
        base, base_psi = collect(meanfield_tangent(paths, model, phi))
        twice, twice_psi = collect(meanfield_tangent(paths, model, scaled(phi, 2.0)))
        assert np.array_equal(twice, 2.0 * base)
        assert np.array_equal(twice_psi, 2.0 * base_psi)

    def test_fast_coupling_equals_direct(self, rng):
        drift = sine_coupling_drift(a=1.0, kappa=0.8)
        for n in (16, 256):
            X = rng.standard_normal((n, 1))
            V = rng.standard_normal((n, 1))
            z = drift.moment_vector(X)
            fast = cylindrical_coupling(drift, 0.3, X, z, V)
            direct = coupling_direct(drift, 0.3, X, z, V)
            assert np.allclose(fast, direct, atol=1e-12)

    def test_fd_consistency_coupled(self):
        # coupled rerun from a pushed-forward start under the same seed:
        # the difference quotient approaches the tangent at first order
        model = build_family("meanfield_sine")
        mu0 = gaussian_cloud(256, seed=13)
        grid = TimeGrid(t_end=0.5, n_steps=250)
        base = simulate_particles(model, mu0, grid, 14)
        phi = sine_field()
        tang, _ = collect(meanfield_tangent(base, model, phi))
        errs = []
        for eps in (0.1, 0.05, 0.025):
            pert = simulate_particles(model, pushforward(mu0, phi, eps), grid, 14)
            quot = (pert.states - base.states) / eps
            errs.append(np.max(np.mean(np.abs(quot - tang), axis=(1, 2))))
        orders = [math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)]
        assert min(orders) >= 0.8

    def test_psi_recorded_left_point(self):
        model = mfou_model()
        mu0 = gaussian_cloud(16, seed=15)
        paths = simulate_particles(model, mu0, TimeGrid(0.2, 10), 16)
        tang, psi = collect(meanfield_tangent(paths, model, const_field))
        assert psi.shape == (10, 16, 1)
        drift = model.meanfield_drift
        psi0 = cylindrical_coupling(drift, 0.0, paths.states[0],
                                    paths.moment_flow[0], tang[0])
        assert np.array_equal(psi[0], psi0)

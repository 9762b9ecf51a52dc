import math
import threading
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from mvgrad import runner, simulate, tangent
from mvgrad.bismut import estimate_classical, estimate_intrinsic
from mvgrad.config import ExperimentConfig, load_config
from mvgrad.errors import (GridMismatch, MemoryBudgetExceeded, NonFinite,
                           SingularDiffusion)
from mvgrad.measure import EmpiricalMeasure, sample_initial
from mvgrad.model import CylindricalDrift, Diffusion, ModelSpec, linear_schedule
from mvgrad.runner import resolve_bundle
from mvgrad.simulate import (MEMORY_BUDGET_ENV, TimeGrid, brownian_increments,
                             reusing_work, simulate_particles)
from mvgrad.scenarios import build_family, coord_observable, coordinate_field, get_scenario

from conftest import brownian_model, gaussian_cloud, mfou_model, planar_trig_model


def check_paths(paths, model, tol=1e-12):
    """Recompute the moment flow and finiteness invariants of stored paths."""
    if not np.all(np.isfinite(paths.states)) or not np.all(np.isfinite(paths.noise)):
        raise NonFinite("stored paths contain non-finite entries")
    drift = model.meanfield_drift
    for s in range(paths.grid.n_steps + 1):
        row = drift.moment_vector(paths.states[s])
        if np.max(np.abs(row - paths.moment_flow[s]), initial=0.0) > tol:
            raise AssertionError(f"moment flow row {s} does not match its state slice")


def record_guard_totals(monkeypatch) -> list:
    """The list of totals that _guard_memory compares, the held paths
    included, appended as the simulator and the tangent streams request them."""
    totals, guard = [], simulate._guard_memory

    def recorded(need, reads):
        totals.append(guard(need, reads))
        return totals[-1]

    monkeypatch.setattr(simulate, "_guard_memory", recorded)
    monkeypatch.setattr(tangent, "_guard_memory", recorded)
    return totals


def zero_noise_model(a=0.0, d=1):
    return build_family("affine", d=d, a=a, kappa=0.0, sigma=0.0)


class TestTimeGrid:
    def test_dt(self):
        grid = TimeGrid(t_end=1.0, n_steps=4)
        assert grid.dt == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(t_end=0.0, n_steps=5)
        with pytest.raises(ValueError):
            TimeGrid(t_end=1.0, n_steps=0)


class TestBrownianIncrements:
    def test_repeatable(self):
        grid = TimeGrid(t_end=1.0, n_steps=16)
        a = brownian_increments(grid, 32, 2, 123)
        b = brownian_increments(grid, 32, 2, 123)
        assert a is not b and np.array_equal(a, b)
        c = brownian_increments(grid, 32, 2, 124)
        assert not np.array_equal(a, c)

    def test_read_only(self):
        dw = brownian_increments(TimeGrid(t_end=1.0, n_steps=4), 3, 1, 0)
        assert not dw.flags.writeable
        with pytest.raises(ValueError):
            dw[0, 0, 0] = 1.0

    def test_reuse_holds_the_last_key_only(self):
        grid = TimeGrid(t_end=1.0, n_steps=8)
        with reusing_work():
            a = brownian_increments(grid, 4, 2, 5)
            assert brownian_increments(grid, 4, 2, 5) is a
            other_seed = brownian_increments(grid, 4, 2, 6)
            assert brownian_increments(grid, 4, 2, 6) is other_seed
            other_grid = brownian_increments(TimeGrid(t_end=1.0, n_steps=9), 4, 2, 6)
            assert other_grid is not other_seed
            again = brownian_increments(grid, 4, 2, 5)
            assert again is not a and np.array_equal(again, a)
            assert brownian_increments(grid, 4, 2, 5) is again
        after = brownian_increments(grid, 4, 2, 5)
        assert after is not again and np.array_equal(after, a)

    def test_reuse_is_per_thread(self):
        grid = TimeGrid(t_end=1.0, n_steps=8)
        seen = []
        worker = threading.Thread(target=lambda: seen.append(brownian_increments(grid, 4, 1, 5)))
        with reusing_work():
            a = brownian_increments(grid, 4, 1, 5)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert brownian_increments(grid, 4, 1, 5) is a
        assert seen[0] is not a and np.array_equal(seen[0], a)

    def test_moments(self):
        grid = TimeGrid(t_end=1.0, n_steps=50)
        n = 20_000
        dw = brownian_increments(grid, n, 1, 5)
        total = dw.size
        assert abs(dw.mean()) < 4.0 * math.sqrt(grid.dt / total)
        # per-step covariance across particles approximates dt
        step_vars = dw[:, :, 0].var(axis=1)
        tol = 4.0 * grid.dt * math.sqrt(2.0 / n)
        assert np.all(np.abs(step_vars - grid.dt) < tol)

    def test_cross_particle_independence(self):
        grid = TimeGrid(t_end=1.0, n_steps=4096)
        dw = brownian_increments(grid, 2, 1, 9)
        x, y = dw[:, 0, 0], dw[:, 1, 0]
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(grid.n_steps)

    def test_per_particle_stream_reconstruction(self):
        # any single particle's noise is recomputable without the particles
        # after it, which is what makes the layout schedule-independent
        grid = TimeGrid(t_end=0.5, n_steps=20)
        dw = brownian_increments(grid, 10, 3, 77)
        for i in (0, 4, 9):
            assert np.array_equal(dw[:, i, :], brownian_increments(grid, i + 1, 3, 77)[:, i, :])

    def test_columns_match_fresh_philox_streams(self):
        # the re-keyed generator against a fresh Philox(key=[seed, i]) per
        # particle, the streams' definition
        grid = TimeGrid(t_end=0.5, n_steps=7)
        N = 20
        dw = brownian_increments(grid, N, 2, 31)
        for i in (0, 1, N - 1):
            u = np.random.Generator(np.random.Philox(key=[31, i])).random((7, 2))
            want = ndtri(np.maximum(u, 2.0 ** -60)) * np.sqrt(grid.dt)
            assert dw[:, i, :].tobytes() == want.tobytes()

    def test_seed_is_keyed_as_a_64_bit_word(self):
        # seed -1 is the word 2^64 - 1, not seed 0 after a round trip through float
        grid = TimeGrid(t_end=1.0, n_steps=8)
        column = lambda seed: brownian_increments(grid, 4, 1, seed)[:, 3]
        minus_one = column(-1)
        assert np.array_equal(minus_one, column(2**64 - 1))
        assert not np.array_equal(minus_one, column(0))

    def test_builder_holds_one_tensor(self):
        # the guard counts 8 n N m bytes of noise: the builder may not hold a
        # second full-size copy while it fills the tensor
        grid = TimeGrid(t_end=1.0, n_steps=1000)
        tracemalloc.start()
        try:
            dw = brownian_increments(grid, 5000, 1, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * dw.nbytes


class TestHeldPaths:
    GRID = TimeGrid(t_end=0.5, n_steps=20)

    def test_equal_starting_points_hit(self):
        model = mfou_model()
        with reusing_work():
            paths = simulate_particles(model, gaussian_cloud(16, seed=1), self.GRID, 3)
            again = simulate_particles(model, gaussian_cloud(16, seed=1), self.GRID, 3)
        assert again is paths

    @pytest.mark.parametrize("change", [
        {"mu0": gaussian_cloud(16, seed=2)}, {"seed": 4},
        {"grid": TimeGrid(t_end=0.5, n_steps=21)}, {"model": mfou_model()}],
        ids=["cloud", "seed", "grid", "model"])
    def test_any_other_key_misses(self, change):
        args = dict(model=mfou_model(), mu0=gaussian_cloud(16, seed=1), grid=self.GRID,
                    seed=3)
        with reusing_work():
            paths = simulate_particles(**args)
            other = simulate_particles(**(args | change))
        assert other is not paths
        if "model" in change:
            # an equal model object integrates the same bits
            assert np.array_equal(other.states, paths.states)

    def test_new_noise_key_frees_the_held_paths(self):
        model, mu0 = mfou_model(), gaussian_cloud(16, seed=1)
        with reusing_work():
            held = weakref.ref(simulate_particles(model, mu0, self.GRID, 3))
            assert held() is not None
            simulate_particles(model, mu0, self.GRID, 4)
            assert held() is None

    def test_outside_a_block_nothing_is_shared(self):
        model, mu0 = mfou_model(), gaussian_cloud(16, seed=1)
        p1 = simulate_particles(model, mu0, self.GRID, 3)
        p2 = simulate_particles(model, mu0, self.GRID, 3)
        assert p1 is not p2 and p1.states is not p2.states and p1.noise is not p2.noise
        assert np.array_equal(p1.states, p2.states)
        # nor held: a third call from the same cloud, after another, integrates anew
        simulate_particles(model, gaussian_cloud(16, seed=2), self.GRID, 3)
        p3 = simulate_particles(model, mu0, self.GRID, 3)
        assert p3 is not p1 and p3 is not p2
        assert simulate._held.chain is None

    @pytest.mark.parametrize("end", ["new tensor", "block end"])
    def test_kept_paths_are_freed(self, end):
        # a hit, an estimate and a stream from another cloud leave the held
        # paths in place; a new tensor or the block's end frees them
        model, mu0 = mfou_model(), gaussian_cloud(16, seed=1)
        with reusing_work():
            held = weakref.ref(simulate_particles(model, mu0, self.GRID, 3))
            simulate_particles(model, mu0, self.GRID, 3)
            estimate_intrinsic(model, mu0, coordinate_field(0), coord_observable(0),
                               self.GRID.t_end, self.GRID, linear_schedule(self.GRID.t_end), 3)
            for _ in simulate_particles(model, gaussian_cloud(16, seed=2), self.GRID, 3,
                                        stream=True):
                pass
            assert held() is not None
            if end == "new tensor":
                simulate_particles(model, mu0, self.GRID, 4)
                assert held() is None
        assert held() is None

    def test_kept_paths_after_a_raised_build(self):
        # the failed build drops the held paths first and leaves the chain at
        # the tensor alone; an estimate from mu0 then builds and holds its
        # paths again, and their coupling weight below them
        model, mu0 = mfou_model(), gaussian_cloud(16, seed=1)
        phi, f = coordinate_field(0), coord_observable(0)
        sched = linear_schedule(self.GRID.t_end)
        want = estimate_intrinsic(model, mu0, phi, f, self.GRID.t_end, self.GRID, sched, 3)
        with reusing_work():
            base = simulate_particles(model, mu0, self.GRID, 3)
            with pytest.raises(NonFinite):
                simulate_particles(model, EmpiricalMeasure(np.full((16, 1), 1e9)),
                                   self.GRID, 3)
            assert len(simulate._held.chain) == 1
            got = estimate_intrinsic(model, mu0, phi, f, self.GRID.t_end, self.GRID, sched, 3)
            chain = simulate._held.chain
            assert len(chain) == 3 and chain[0][0] == (3, 16, 1, self.GRID)
            paths = chain[1][1]
            assert paths is not base and paths.states.tobytes() == base.states.tobytes()
            assert chain[2][0] == (paths, phi)
        assert got == want

    def test_the_held_paths_are_the_ones_handed_out(self):
        # a build, a hit, then builds only: one path set is held, so a cloud
        # asked for again after another is integrated anew
        model, mu0 = mfou_model(), gaussian_cloud(16, seed=1)
        blowup = EmpiricalMeasure(np.full((16, 1), 1e9))
        clouds = [mu0, mu0, gaussian_cloud(16, seed=2), mu0, blowup, mu0]
        with reusing_work():
            before = simulate.work_counts()
            for cloud in clouds:
                try:
                    paths = simulate_particles(model, cloud, self.GRID, 3)
                except NonFinite:
                    continue
                assert simulate._held.chain[1][1] is paths
            assert simulate.work_counts() == (before[0] + 1, before[1] + 5)

    def test_an_inner_block_joins_the_outer_one(self):
        model, mu0 = mfou_model(), gaussian_cloud(16, seed=1)
        with reusing_work():
            before = simulate.work_counts()
            a = simulate_particles(model, mu0, self.GRID, 3)
            with reusing_work():
                assert simulate_particles(model, mu0, self.GRID, 3) is a
            assert simulate_particles(model, mu0, self.GRID, 3) is a
            assert brownian_increments(self.GRID, 16, 1, 3) is a.noise
            assert simulate.work_counts() == (before[0] + 1, before[1] + 1)
        assert simulate._held.chain is None

    def test_guard_counts_the_kept_paths(self, monkeypatch):
        # at N = 2000, n = 200 a stream requests its increments and two slices,
        # 3.2 + 0.032 = 3.232 MB, a simulation its states and increments,
        # 6.416 MB, and a tangent stream the paths it reads plus two slices of
        # V, 6.448 MB; the held mu0 paths (states and one moment per node,
        # 3.217608 MB) add to a request that neither reads them nor drops them,
        # so only a stream from another cloud (6.449608 MB) exceeds 6.449 MB
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "6.449")
        model, mu0, grid = mfou_model(), gaussian_cloud(2000, seed=1), TimeGrid(0.5, 200)
        other = gaussian_cloud(2000, seed=2)
        with reusing_work():
            simulate_particles(model, mu0, grid, 3)
            with pytest.raises(MemoryBudgetExceeded):
                simulate_particles(model, other, grid, 3, stream=True)
            estimate_intrinsic(model, mu0, coordinate_field(0), coord_observable(0), 0.5,
                               grid, linear_schedule(0.5), 3)
            for _ in simulate_particles(model, mu0, grid, 3, stream=True):
                pass
            simulate_particles(model, other, grid, 3)

    def test_guard_skips_kept_paths_that_a_new_noise_key_frees(self, monkeypatch):
        # the held mu0 paths (3.22 MB) make a stream from another cloud on
        # their tensor ask for 6.45 MB; on another noise key it asks for its
        # own 3.23 MB, as the new tensor's build drops them
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "6.449")
        model, mu0, grid = mfou_model(), gaussian_cloud(2000, seed=1), TimeGrid(0.5, 200)
        other = gaussian_cloud(2000, seed=2)
        with reusing_work():
            simulate_particles(model, mu0, grid, 3)
            with pytest.raises(MemoryBudgetExceeded):
                simulate_particles(model, other, grid, 3, stream=True)
            for _ in simulate_particles(model, other, grid, 4, stream=True):
                pass
            assert len(simulate._held.chain) == 1

    def test_wasserstein_reruns_count_the_held_paths(self, monkeypatch):
        # each shift streams its matched cloud's run beside the held mu0 run,
        # so each stream asks the guard for both: at least 2 trajectory sizes
        cfg, _ = load_config(Path(__file__).parent.parent / "configs" / "meanfield_ou.cfg")
        bundle = resolve_bundle(replace(cfg, n_particles=2000, n_steps=200,
                                        checks=("wasserstein_lipschitz",)))
        N, n, d, m = 2000, 200, bundle.model.d, bundle.model.m
        stream_need, requests, guard = 8 * N * (2 * d + n * m), [], simulate._guard_memory

        def recorded(need, reads):
            total = guard(need, reads)
            if need == stream_need:
                requests.append(total)
            return total

        monkeypatch.setattr(simulate, "_guard_memory", recorded)
        runner._run_unit(bundle, ["wasserstein_lipschitz"])
        assert len(requests) == 3
        assert min(requests) >= 2.0 * 8 * (n + 1) * N * d

    @pytest.mark.parametrize("config", ["meanfield_ou.cfg", "brownian.cfg"])
    def test_shared_unit_peaks_near_its_largest_check(self, config):
        # the held set is the one handed out, so it adds no trajectory to the
        # largest check's peak
        cfg, _ = load_config(Path(__file__).parent.parent / "configs" / config)
        bundle = resolve_bundle(replace(cfg, n_particles=2000, n_steps=200))
        names = [name for name in bundle.checks if runner.CHECK_SPECS[name].work == "shared"]
        trajectory = 8 * (200 + 1) * 2000 * bundle.model.d

        def peak(unit):
            tracemalloc.start()
            try:
                runner._run_unit(bundle, unit)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alone = max(peak([name]) for name in names)
        assert peak(names) <= alone + 0.1 * trajectory

    @pytest.mark.parametrize("config", ["meanfield_ou.cfg", "brownian.cfg"])
    def test_each_unit_peaks_near_its_largest_guard_request(self, config, monkeypatch):
        # what a unit holds beside a request is what the guard counts, and no
        # unit holds more than the held mu0 paths and their shared increments,
        # beside which an oracle rerun streams two slices at a time
        cfg, _ = load_config(Path(__file__).parent.parent / "configs" / config)
        bundle = resolve_bundle(replace(cfg, n_particles=2000, n_steps=200))
        names = list(bundle.checks)
        trajectory = 8 * (200 + 1) * 2000 * bundle.model.d
        requests = record_guard_totals(monkeypatch)
        for unit in runner._units(names):
            requests.clear()
            tracemalloc.start()
            try:
                runner._run_unit(bundle, [names[i] for i in unit])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= max(requests) + 0.15 * trajectory, [names[i] for i in unit]
            assert peak <= 2.2 * trajectory, [names[i] for i in unit]

    @pytest.mark.parametrize("scenario", ["trig", "meanfield_sine"])
    def test_tangent_fd_order_peaks_near_its_largest_guard_request(self, scenario,
                                                                    monkeypatch):
        # the check holds the base paths and their noise, and on each rung draws
        # a fresh tangent stream against the rung's streamed perturbed run, one
        # slice of each at a time: about 2 trajectory sizes
        cfg = ExperimentConfig(scenario=scenario, n_particles=2000, n_steps=200,
                               seed=7, checks=("tangent_fd_order",))
        bundle = resolve_bundle(cfg)
        trajectory = 8 * (200 + 1) * 2000 * bundle.model.d
        requests = record_guard_totals(monkeypatch)
        tracemalloc.start()
        try:
            runner._run_unit(bundle, ["tangent_fd_order"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(requests) + 0.1 * trajectory
        assert peak <= 2.2 * trajectory

    def test_states_are_read_only(self):
        paths = simulate_particles(mfou_model(), gaussian_cloud(16, seed=1), self.GRID, 3)
        with pytest.raises(ValueError):
            paths.states[0, 0, 0] = 1.0


class TestStream:
    GRID = TimeGrid(t_end=0.5, n_steps=20)

    @pytest.mark.parametrize("name", ["trig", "meanfield_ou", "brownian2d", "planar"])
    def test_slices_are_the_stored_states(self, name):
        # each slice is read when drawn and again after the next one is drawn,
        # the last draw before it is overwritten
        model = planar_trig_model() if name == "planar" else get_scenario(name).build()
        mu0 = gaussian_cloud(32, d=model.d, seed=1)
        states = simulate_particles(model, mu0, self.GRID, 3).states
        last = None
        for s, x in enumerate(simulate_particles(model, mu0, self.GRID, 3, stream=True)):
            if last is not None:
                assert last.tobytes() == states[s - 1].tobytes()
            assert x.tobytes() == states[s].tobytes()
            last = x
        assert s == self.GRID.n_steps

    def test_adds_one_integration_and_leaves_the_held_work(self):
        model, mu0, other = mfou_model(), gaussian_cloud(16, seed=1), gaussian_cloud(16, seed=2)
        phi, f = coordinate_field(0), coord_observable(0)
        sched = linear_schedule(self.GRID.t_end)
        with reusing_work():
            estimate_intrinsic(model, mu0, phi, f, self.GRID.t_end, self.GRID, sched, 3)
            base = simulate_particles(model, mu0, self.GRID, 3)
            chain = list(simulate._held.chain)
            assert len(chain) == 3 and chain[1][1] is base
            before = simulate.work_counts()
            stream = simulate_particles(model, other, self.GRID, 3, stream=True)
            assert simulate.work_counts() == (before[0], before[1] + 1)
            for _ in stream:
                pass
            assert simulate.work_counts() == (before[0], before[1] + 1)
            assert all(a is b for a, b in zip(simulate._held.chain, chain, strict=True))
            # a stream whose key is the held paths' is served from them
            served = [x for x in simulate_particles(model, mu0, self.GRID, 3, stream=True)]
            assert all(np.shares_memory(x, base.states) for x in served)
            assert simulate.work_counts() == (before[0], before[1] + 1)
            assert all(a is b for a, b in zip(simulate._held.chain, chain, strict=True))

    def test_guard_counts_the_noise_and_two_slices(self, monkeypatch):
        # at N = 2000, n = 200 a stream requests its increments and two slices,
        # 3.2 + 0.032 MB, and a stored run its increments and states, 6.416 MB
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "5")
        requests = record_guard_totals(monkeypatch)
        model, mu0, grid = mfou_model(), gaussian_cloud(2000, seed=1), TimeGrid(0.5, 200)
        for _ in simulate_particles(model, mu0, grid, 3, stream=True):
            pass
        assert requests == [8 * 2000 * (200 + 2)]
        with pytest.raises(MemoryBudgetExceeded):
            simulate_particles(model, mu0, grid, 3)


class TestSimulateParticles:
    def test_no_drift_no_noise_constant(self, rng):
        model = zero_noise_model()
        mu0 = gaussian_cloud(20, seed=1)
        grid = TimeGrid(t_end=1.0, n_steps=10)
        paths = simulate_particles(model, mu0, grid, 0)
        assert np.array_equal(paths.states[-1], paths.states[0])

    def test_linear_decay_matches_euler_recursion(self):
        # b = -x, sigma = 0: X_t = (1 - dt)^n exactly, e^{-1} in the limit
        model = zero_noise_model(a=1.0)
        mu0 = EmpiricalMeasure(np.array([[1.0]]))
        grid = TimeGrid(t_end=1.0, n_steps=1000)
        paths = simulate_particles(model, mu0, grid, 0)
        terminal = paths.states[-1, 0, 0]
        assert terminal == pytest.approx((1.0 - grid.dt) ** 1000, rel=1e-12)
        assert terminal == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_brownian_variance(self):
        model = brownian_model()
        n = 20_000
        mu0 = EmpiricalMeasure(np.zeros((n, 1)))
        grid = TimeGrid(t_end=0.5, n_steps=50)
        paths = simulate_particles(model, mu0, grid, 3)
        var = paths.states[-1, :, 0].var()
        t = grid.t_end
        assert abs(var - t) < 3.0 * t * math.sqrt(2.0 / n)

    def test_meanfield_ou_mean_decay(self):
        model = mfou_model(a=1.0, kappa=1.0)
        n = 20_000
        mu0 = sample_initial({"family": "gaussian", "mean": [2.0], "cov": 1.0}, n, 4)
        grid = TimeGrid(t_end=1.0, n_steps=500)
        paths = simulate_particles(model, mu0, grid, 8)
        m0 = mu0.points.mean()
        m_t = paths.states[-1, :, 0].mean()
        # the mean obeys dm/dt = -a m regardless of kappa
        target = m0 * math.exp(-1.0)
        assert abs(m_t - target) < 4.0 / math.sqrt(n) + 2e-3 * abs(m0)

    def test_determinism_bit_exact(self):
        model = mfou_model()
        mu0 = gaussian_cloud(64, seed=2)
        grid = TimeGrid(t_end=0.5, n_steps=100)
        p1 = simulate_particles(model, mu0, grid, 99)
        p2 = simulate_particles(model, mu0, grid, 99)
        assert np.array_equal(p1.states, p2.states)
        assert np.array_equal(p1.noise, p2.noise)
        assert np.array_equal(p1.moment_flow, p2.moment_flow)

    def test_moment_flow_invariant(self):
        model = mfou_model()
        mu0 = gaussian_cloud(32, seed=5)
        grid = TimeGrid(t_end=0.3, n_steps=30)
        paths = simulate_particles(model, mu0, grid, 1)
        check_paths(paths, model)

    def test_weak_euler_order(self):
        # deterministic linear decay: global error in dt at order >= 0.8
        model = zero_noise_model(a=1.0)
        mu0 = EmpiricalMeasure(np.array([[1.0]]))
        errs = []
        for n_steps in (250, 500, 1000):
            grid = TimeGrid(t_end=1.0, n_steps=n_steps)
            paths = simulate_particles(model, mu0, grid, 0)
            errs.append(abs(paths.states[-1, 0, 0] - math.exp(-1.0)))
        orders = [math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)]
        assert min(orders) >= 0.8

    def test_synchronous_coupling_stability(self):
        # same seed, shifted initials: the gap contracts uniformly in the
        # shift size for the dissipative affine family
        model = mfou_model(a=1.0, kappa=0.5)
        mu0 = gaussian_cloud(256, seed=3)
        grid = TimeGrid(t_end=1.0, n_steps=200)
        base = simulate_particles(model, mu0, grid, 7)
        ratios = []
        for shift in (1e-3, 1e-2, 1e-1, 1.0):
            nu0 = mu0.shifted([shift])
            run = simulate_particles(model, nu0, grid, 7)
            gap_k = np.mean(np.max(np.abs(run.states - base.states), axis=(0, 2)) ** 2)
            ratios.append(gap_k / shift**2)
        assert max(ratios) <= 1.0 + 1e-9        # contraction
        assert max(ratios) - min(ratios) < 1e-6  # stable as the shift shrinks

    def test_blowup_guard_reports_step(self):
        cubic = CylindricalDrift(F=lambda t, x, z: x**3,
                                 grad_x_F=lambda t, x, z: (3.0 * x**2)[:, :, None])
        model = ModelSpec(d=1, m=1, k=2.0, meanfield_drift=cubic,
                          diffusion=brownian_model().diffusion, horizon=10.0)
        mu0 = EmpiricalMeasure(np.array([[4.0]]))
        grid = TimeGrid(t_end=5.0, n_steps=50)
        with pytest.raises(NonFinite) as err:
            simulate_particles(model, mu0, grid, 0)
        assert str(err.value).startswith("blow-up guard tripped at step ")

    def test_degenerate_diffusion_rejected_by_precheck(self):
        # the Euler scheme integrates zero noise; the weight's zeta rejects it
        model = zero_noise_model()
        mu0 = gaussian_cloud(8, seed=0)
        grid, f, sched = TimeGrid(1.0, 10), coord_observable(0), linear_schedule(1.0)
        paths = simulate_particles(model, mu0, grid, 0)
        assert np.array_equal(paths.states[-1], paths.states[0])
        with pytest.raises(SingularDiffusion):
            estimate_intrinsic(model, mu0, coordinate_field(0), f, 1.0, grid, sched, 0)
        with pytest.raises(SingularDiffusion):
            estimate_classical(model, [0.0], [1.0], f, 1.0, grid, sched, 0, 8)

    def test_condition_cap_enforced_before_the_weight(self):
        # sigma = diag(1e4 (1 + 1e-6), 1): condition of sigma sigma* just above COND_CAP
        mat = np.diag([1e4 * (1 + 1e-6), 1.0])
        diffusion = Diffusion(sigma=lambda t, x: np.broadcast_to(mat, (x.shape[0], 2, 2)),
                              constant_in_x=True)
        model = replace(brownian_model(d=2), diffusion=diffusion)
        grid = TimeGrid(1.0, 10)
        with pytest.raises(SingularDiffusion):
            estimate_intrinsic(model, gaussian_cloud(8, d=2, seed=0), coordinate_field(0),
                               coord_observable(0), 1.0, grid, linear_schedule(1.0), 0)

    def test_horizon_enforced(self):
        model = brownian_model()
        mu0 = gaussian_cloud(8, seed=0)
        with pytest.raises(GridMismatch):
            simulate_particles(model, mu0, TimeGrid(t_end=100.0, n_steps=10), 0)

    def test_memory_guard(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "0.01")
        model = brownian_model()
        mu0 = gaussian_cloud(64, seed=0)
        with pytest.raises(MemoryBudgetExceeded):
            simulate_particles(model, mu0, TimeGrid(1.0, 100), 0)

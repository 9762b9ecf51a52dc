"""Acceptance suite: one test per criterion, desk scale.

Defaults follow the acceptance contract: N = 5000 particles, dt = 1e-3,
t = 1, dimensions 1 or 2, every criterion within a one-core minute.  Each
test prints an ACCEPTANCE line naming the criterion and its outcome.

Criterion 1's standard-error budget (2% of the value at N = 5000) cannot
be met by averaging the plain payoff-weight products in the mean-reverting
linear-payoff case: their variance is at least twice the squared value
(Cauchy-Schwarz on the two Gaussian integrals), so the relative standard
error of that estimator cannot drop below sqrt(2/N) = 2.0%.  The classical
estimator therefore subtracts the quadratic-variation control variate
w^2 - <w>_T, which brings both cases below the budget with the assertion
kept as stated.
"""

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from mvgrad import runner
from mvgrad.bismut import dual_norm_lower_bound, estimate_classical, estimate_intrinsic
from mvgrad.config import ExperimentConfig
from mvgrad.measure import EmpiricalMeasure, _assignment, sample_initial, wasserstein
from mvgrad.model import linear_schedule, scaled, zeta
from mvgrad.oracle import (affine_reference, fit_loglog_slope,
                           moment_report, richardson_intrinsic,
                           stability_report, tv_gradient_scaling,
                           tv_sign_reference)
from mvgrad.scenarios import (coord_observable, coordinate_field, get_scenario,
                              sign_observable, sin_observable, sine_field)
from mvgrad.simulate import TimeGrid, simulate_particles
from mvgrad.tangent import meanfield_tangent
from mvgrad.measure import pushforward
from mvgrad.model import Diffusion

from conftest import collect

N_DESK = 5000
DT_DESK = 1e-3
T_DESK = 1.0
GRID_DESK = TimeGrid(t_end=T_DESK, n_steps=1000)

const_e1 = coordinate_field(0, 1.0)
neg_e1 = coordinate_field(0, -1.0)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")


def desk_mu0(scenario_name: str, seed: int = 1001) -> EmpiricalMeasure:
    scen = get_scenario(scenario_name)
    return sample_initial(scen.initial_law, N_DESK, seed)


def point_cloud(value: float, n: int = N_DESK) -> EmpiricalMeasure:
    return EmpiricalMeasure(np.full((n, 1), float(value)))


def test_criterion_01_classical_gradient_closed_form():
    cases = [("brownian", "sin", sin_observable(0)), ("ou", "coord1", coord_observable(0))]
    failures = []
    for scen_name, f_name, f in cases:
        scen = get_scenario(scen_name)
        model = scen.build()
        est = estimate_classical(model, [0.0], [1.0], f, T_DESK, GRID_DESK,
                                 linear_schedule(T_DESK), seed=2024,
                                 n_particles=N_DESK)
        ref = affine_reference(scen.family, scen.params, f_name, T_DESK,
                               np.zeros((1, 1)), np.ones((1, 1)))
        gap = abs(est.value - ref)
        tol = 3.0 * est.stderr + 2.0 * DT_DESK
        match_ok = gap <= tol
        rel = est.stderr / abs(est.value)
        budget_ok = rel <= 0.02
        detail = (f"[{scen_name}] est={est.value:.5f} ref={ref:.5f} "
                  f"gap={gap:.2g} tol={tol:.2g} rel_stderr={rel:.2%}")
        report("criterion-01 closed-form match", match_ok, detail)
        report("criterion-01 stderr budget <=2%", budget_ok, detail)
        if not match_ok:
            failures.append(f"{scen_name}: match {detail}")
        if not budget_ok:
            failures.append(f"{scen_name}: stderr budget {detail}")
    assert not failures, "; ".join(failures)


def test_criterion_02_intrinsic_oracle_agreement():
    failures = []
    # scenario, perturbation, analytic target at the sampled initial cloud
    for scen_name in ("brownian", "meanfield_ou"):
        scen = get_scenario(scen_name)
        model = scen.build()
        mu0 = desk_mu0(scen_name)
        f = coord_observable(0)
        est = estimate_intrinsic(model, mu0, const_e1, f, T_DESK, GRID_DESK,
                                 linear_schedule(T_DESK), seed=2025,
                                 scenario=scen_name)
        rich = richardson_intrinsic(model, mu0, const_e1, f, T_DESK, GRID_DESK,
                                    eps=0.05, seed=2025, scenario=scen_name)
        gap = abs(est.value - rich.value)
        tol = 3.0 * math.hypot(est.stderr, rich.stderr)
        ok = gap <= tol
        report("criterion-02 estimator-vs-fd", ok,
               f"[{scen_name}] est={est.value:.5f} fd={rich.value:.5f} "
               f"gap={gap:.2g} tol={tol:.2g}")
        if not ok:
            failures.append(scen_name)
        # affine flow: the exact derivative at the sampled cloud
        analytic = affine_reference(scen.family, scen.params, "coord1", T_DESK,
                                    mu0.points, const_e1(mu0.points))
        ok2 = abs(est.value - analytic) <= 3.0 * est.stderr
        report("criterion-02 analytic value", ok2,
               f"[{scen_name}] est={est.value:.5f} analytic={analytic:.5f} "
               f"z={(est.value - analytic) / est.stderr:+.2f}")
        if not ok2:
            failures.append(f"{scen_name}-analytic")
    assert not failures, failures


def test_criterion_03_schedule_invariance():
    failures = []
    for scen_name in ("brownian", "meanfield_ou"):
        # config seed 1001 draws desk_mu0's cloud; the runner applies the 3-sigma rule
        cfg = ExperimentConfig(scenario=scen_name, n_particles=N_DESK,
                               n_steps=GRID_DESK.n_steps, t=T_DESK, seed=1001,
                               ci_seeds=(101, 202, 303),
                               schedules=("linear", "quadratic", "sine"),
                               observables=("coord1",), perturbations=("const_e1",),
                               checks=("beta_invariance",))
        bundle = runner.resolve_bundle(cfg)
        assert np.array_equal(bundle.mu0().points, desk_mu0(scen_name).points)
        for row in runner.check_beta_invariance(bundle):
            if "-vs-" not in row.label:
                continue
            ok = row.status == "pass"
            report("criterion-03 schedule invariance", ok,
                   f"[{scen_name}] {row.label}: gap={row.value:.2g} {row.params}")
            if not ok:
                failures.append(f"{scen_name}:{row.label}")
    assert not failures, failures


def test_criterion_04_linearity_bit_exact():
    model = get_scenario("meanfield_ou").build()
    mu0 = sample_initial(get_scenario("meanfield_ou").initial_law, 1000, 41)
    grid = TimeGrid(t_end=T_DESK, n_steps=200)
    args = (coord_observable(0), T_DESK, grid, linear_schedule(T_DESK), 42)
    base = estimate_intrinsic(model, mu0, const_e1, *args)
    twice = estimate_intrinsic(model, mu0, scaled(const_e1, 2.0), *args)
    ok = twice.value == 2.0 * base.value and twice.stderr == 2.0 * base.stderr
    report("criterion-04 linearity", ok,
           f"2*value gap={twice.value - 2.0 * base.value!r}")
    assert ok


def test_criterion_05_tangent_fd_consistency_order():
    failures = []
    ladder = (0.1, 0.05, 0.025)
    phi = sine_field()
    for scen_name in ("trig", "meanfield_sine"):
        model = get_scenario(scen_name).build()
        mu0 = sample_initial(get_scenario(scen_name).initial_law, 2000, 51)
        base = simulate_particles(model, mu0, GRID_DESK, 52)
        tang, _ = collect(meanfield_tangent(base, model, phi))
        errs = []
        for eps in ladder:
            pert = simulate_particles(model, pushforward(mu0, phi, eps),
                                      GRID_DESK, 52)
            quot = (pert.states - base.states) / eps
            errs.append(float(np.max(
                np.mean(np.linalg.norm(tang - quot, axis=2), axis=1))))
        orders = [math.log(errs[i] / errs[i + 1])
                  / math.log(ladder[i] / ladder[i + 1])
                  for i in range(len(ladder) - 1)]
        ok = min(orders) >= 0.8
        report("criterion-05 tangent fd order", ok,
               f"[{scen_name}] errs={['%.3g' % e for e in errs]} "
               f"orders={['%.2f' % o for o in orders]}")
        if not ok:
            failures.append(scen_name)
    assert not failures, failures


def test_criterion_06_dual_norm_time_scaling():
    model = get_scenario("brownian").build()
    mu0 = point_cloud(0.0)
    f = sign_observable(0.0)
    ts = (0.05, 0.1, 0.2, 0.4)
    values = []
    for t in ts:
        grid = TimeGrid(t_end=t, n_steps=max(1, int(round(t / DT_DESK))))
        est = dual_norm_lower_bound(model, mu0, f, t, grid,
                                    linear_schedule(t), [const_e1, neg_e1],
                                    seed=61)
        values.append(est.value)
    slope = fit_loglog_slope(ts, values)
    ok = -0.65 <= slope <= -0.35
    report("criterion-06 dual-norm scaling", ok,
           f"slope={slope:.3f} values={['%.3f' % v for v in values]}")
    assert ok, slope


def test_criterion_07_tv_scaling_matches_quadrature():
    scen = get_scenario("brownian")
    model = scen.build()
    c = 0.5
    ts = (0.05, 0.1, 0.2, 0.4)
    grids = [TimeGrid(t_end=t, n_steps=max(1, int(round(t / DT_DESK)))) for t in ts]
    gaps = tv_gradient_scaling(model, point_cloud(0.0), point_cloud(c), grids,
                               [c / 2.0] * len(ts), seed=71)
    slope = fit_loglog_slope(ts, gaps)
    exact = [tv_sign_reference(scen.family, scen.params, c, t)[1] for t in ts]
    exact_slope = fit_loglog_slope(ts, exact)
    gap = abs(slope - exact_slope)
    ok = gap <= 0.15
    report("criterion-07 tv scaling", ok,
           f"empirical={slope:.3f} exact={exact_slope:.3f} gap={gap:.3f}")
    assert ok, (slope, exact_slope)


def test_criterion_08_wasserstein_lipschitz_ladder():
    model = get_scenario("meanfield_ou").build()
    mu0 = desk_mu0("meanfield_ou")
    ratios = []
    for c in (0.02, 0.2, 2.0):
        _, _, terminal = stability_report(model, mu0, mu0.shifted([c]), GRID_DESK,
                                          seed=81)
        ratios.append(terminal)
    variation = (max(ratios) - min(ratios)) / max(ratios)
    ok = variation < 0.20
    report("criterion-08 lipschitz ladder", ok,
           f"ratios={['%.4f' % r for r in ratios]} variation={variation:.2%}")
    assert ok, ratios


def test_criterion_09_moment_bound_ladder():
    failures = []
    cap = 2.0
    for scen_name in ("ou", "meanfield_ou"):
        model = get_scenario(scen_name).build()
        ladder = [sample_initial({"family": "gaussian", "mean": [0.0], "cov": v},
                                 N_DESK, 90 + j)
                  for j, v in enumerate((0.1, 1.0, 10.0, 100.0))]
        ratios = [sup / (1.0 + i0)
                  for i0, sup in moment_report(model, ladder, GRID_DESK, seed=91)]
        ok = max(ratios) <= cap
        report("criterion-09 moment bound", ok,
               f"[{scen_name}] ratios={['%.3f' % r for r in ratios]} cap={cap}")
        if not ok:
            failures.append(scen_name)
    assert not failures, failures


def test_criterion_10_exact_micro_oracles():
    rng = np.random.default_rng(20240)

    # assignment equals factorial enumeration on tiny instances
    for n, d, k in itertools.product((2, 3, 4, 5, 6), (1, 2), (1.0, 2.0)):
        a = EmpiricalMeasure(rng.standard_normal((n, d)))
        b = EmpiricalMeasure(rng.standard_normal((n, d)))
        dist, _ = _assignment(a, b, k)
        best = min(
            np.mean(np.linalg.norm(a.points - b.points[list(perm)], axis=1) ** k)
            for perm in itertools.permutations(range(n)))
        assert dist == pytest.approx(best ** (1.0 / k), abs=1e-12)

    # sorted pairing equals the assignment solver in dimension one
    for n in (64, 512):
        a = EmpiricalMeasure(rng.standard_normal((n, 1)))
        b = EmpiricalMeasure(rng.standard_normal((n, 1)))
        ds, _ = wasserstein(a, b, 2.0)
        da, _ = _assignment(a, b, 2.0)
        assert abs(ds - da) <= 1e-10

    # diffusion pseudo-inverse identity on 100 well-conditioned draws
    checked = 0
    while checked < 100:
        d = int(rng.integers(1, 4))
        m = int(rng.integers(d, 4))
        mat = rng.standard_normal((d, m)) + 2.0 * np.eye(d, m)
        if np.linalg.cond(mat @ mat.T) > 1e6:
            continue
        diff = Diffusion(sigma=lambda t, x, mat=mat:
                         np.broadcast_to(mat, (x.shape[0], *mat.shape)),
                         constant_in_x=True)
        z = zeta(diff(0.0, np.zeros((1, d))))
        assert z.shape == (1, m, d)
        assert np.max(np.abs(mat @ z[0] - np.eye(d))) <= 1e-10
        checked += 1
    report("criterion-10 exact micro oracles", True, "w2 brute force, sorted, zeta")


def test_criterion_11_cli_byte_determinism(tmp_path):
    cfg_text = """\
[experiment]
scenario = brownian
n_particles = 2000
n_steps = 200
t = 1.0
seed = 5
ci_seeds = 1, 2

[estimator]
observables = coord1
perturbations = const_e1
checks = intrinsic_vs_fd, intrinsic_closed_form, linearity, determinism

[oracle]
eps_ladder = 0.1, 0.05
"""
    cfg = tmp_path / "det.cfg"
    cfg.write_text(cfg_text)

    def run(out, extra=()):
        proc = subprocess.run(
            [sys.executable, "-m", "mvgrad.cli", "run", "--config", str(cfg),
             "--out", str(tmp_path / out), *extra],
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        return (tmp_path / out / "results.csv").read_bytes()

    serial_1 = run("s1")
    serial_2 = run("s2")
    par_1 = run("p1", ("--parallel", "2"))
    par_2 = run("p2", ("--parallel", "2"))
    ok = serial_1 == serial_2 == par_1 == par_2
    report("criterion-11 byte determinism", ok,
           f"{len(serial_1)} bytes, serial and parallel")
    assert ok

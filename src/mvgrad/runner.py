"""Config-driven suite runner: executes declared checks, writes CSV + manifest.

Every declared check lands in the CSV as one or more rows with an explicit
status (ok, pass, fail, or error); nothing is silently skipped.  Exit codes:
0 all checks pass, 1 a check failed, 2 configuration problem, 3 numerical
failure (with a machine-readable record in errors.json).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import multiprocessing
import os
import platform
import resource
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy

from . import __version__
from .bismut import (_mean_stderr, dual_norm_lower_bound, estimate_classical,
                     estimate_intrinsic)
from .config import ExperimentConfig
from .errors import ConfigError, MVGradError, UnsupportedScenario
from .measure import ASSIGNMENT_CAP, EmpiricalMeasure, pushforward, sample_initial
from .model import SCHEDULE_FACTORIES, ModelSpec, scaled, validate_ellipticity
from .oracle import (affine_reference, fit_loglog_slope,
                     finite_difference_intrinsic, moment_report,
                     richardson_intrinsic, stability_report,
                     tv_gradient_scaling, tv_sign_reference)
from .scenarios import (Scenario, default_observables, default_perturbations,
                        dual_dictionary, family_params, get_scenario)
from .simulate import (MEMORY_BUDGET_ENV, TimeGrid, memory_budget_bytes,
                       reusing_work, simulate_particles, work_counts)
from .tangent import meanfield_tangent

CSV_HEADER = ("scenario", "quantity", "label", "value", "stderr", "status",
              "params", "seed")

MOMENT_RATIO_CAP = 2.0
LIPSCHITZ_VARIATION_CAP = 0.20
# A scaling check's fitted log-log slope passes within this of the exact one
SLOPE_TOL = 0.15
TANGENT_ORDER_MIN = 0.8
# Finite-difference errors at or below this on every ladder entry mean an
# exact tangent (an affine flow): they are rounding noise, with no order to fit.
TANGENT_EXACT_TOL = 1e-10
# _gate's rows (Richardson, coord1|...|exact, classical|...; the last one's
# scale keeps its 2 dt slack) and the schedule rows fail with reason=spread when
# the estimate's stderr exceeds this multiple of a nonzero scale (_spread): a
# diverged estimate's own stderr would widen the 3-sigma tolerance past any gap.
# A zero scale leaves the 3-sigma test alone.
ESTIMATE_SPREAD_CAP = 100.0


@dataclass(frozen=True)
class ResultRow:
    scenario: str
    quantity: str
    label: str
    value: Optional[float]
    stderr: Optional[float]
    status: str
    params: str
    seed: int

    def as_csv(self) -> list:
        fmt = lambda x: "" if x is None else repr(float(x))
        return [self.scenario, self.quantity, self.label, fmt(self.value),
                fmt(self.stderr), self.status, self.params, str(self.seed)]


def _params_echo(**kv) -> str:
    # float() so that a numpy scalar echoes as a plain number
    return "|".join(f"{key}={float(kv[key])!r}" if isinstance(kv[key], float)
                    else f"{key}={kv[key]}" for key in sorted(kv))


@dataclass
class RunBundle:
    """Resolved scenario context shared by all checks of a run."""

    cfg: ExperimentConfig
    scenario: Scenario
    model: ModelSpec
    observables: dict
    perturbations: dict
    checks: tuple

    @property
    def scenario_name(self) -> str:
        return self.scenario.name

    @property
    def mode(self) -> str:
        """The mode= label of estimate rows: heuristic with a singular drift."""
        return "heuristic" if self.model.has_singular_part else "certified"

    def mu0(self, seed: Optional[int] = None) -> EmpiricalMeasure:
        return sample_initial(self.scenario.initial_law, self.cfg.n_particles,
                              self.cfg.seed if seed is None else seed)

    def grid(self, t: Optional[float] = None) -> TimeGrid:
        cfg = self.cfg
        if t is None:
            return TimeGrid(t_end=cfg.t, n_steps=cfg.n_steps)
        return TimeGrid(t_end=t, n_steps=max(1, int(round(t / cfg.dt))))

    def sched(self, name: Optional[str] = None, t: Optional[float] = None):
        return SCHEDULE_FACTORIES[name or self.cfg.schedules[0]](self.cfg.t if t is None else t)

    def obs(self, name: str):
        return self.observables[name]      # names are resolved by resolve_bundle

    def field(self, name: str):
        return self.perturbations[name]

    def estimate(self, phi, f, mu0: Optional[EmpiricalMeasure] = None):
        """estimate_intrinsic at the run's t, grid, schedule and seed."""
        cfg = self.cfg
        return estimate_intrinsic(self.model, self.mu0() if mu0 is None else mu0, phi, f,
                                  cfg.t, self.grid(), self.sched(), cfg.seed)

    def richardson(self, phi, f, mu0: EmpiricalMeasure):
        """richardson_intrinsic at the run's t, grid, seed and next-to-last eps_ladder eps."""
        cfg = self.cfg
        eps = cfg.eps_ladder[-2 if len(cfg.eps_ladder) >= 2 else -1]
        return richardson_intrinsic(self.model, mu0, phi, f, cfg.t, self.grid(), eps, cfg.seed)

    def pairs(self):
        return [(f, p) for f in self.cfg.observables for p in self.cfg.perturbations]

    def point_mass(self, value: float = 0.0) -> EmpiricalMeasure:
        x0 = np.zeros(self.model.d)
        x0[0] = value
        return EmpiricalMeasure(np.tile(x0, (self.cfg.n_particles, 1)))


def resolve_bundle(cfg: ExperimentConfig) -> RunBundle:
    if cfg.scenario == "custom":
        params = dict(cfg.custom or {})
        family = params.pop("family", None)
        try:
            params = family_params(family, **params)
        except (MVGradError, ValueError) as exc:
            raise ConfigError(f"[custom] {exc}") from exc
    else:
        scen = get_scenario(cfg.scenario)
        params = scen.params
    # an invalid MVGRAD_MEMORY_BUDGET_MB raises ConfigError here; so does a
    # starting cloud, or the d x d matrices that the build and the ellipticity
    # check hold (drift, diffusion, sigma sigma* and the eigensolver's copy),
    # that alone exceed the budget, before anything allocates them (a [custom]
    # law's mean included); only the affine family reads d, the others are 1-D
    d, budget = int(params.get("d", 1)), memory_budget_bytes()
    for what, need in ((f"a starting cloud of {cfg.n_particles} particles",
                        8 * cfg.n_particles * d),
                       (f"a model of dimension d = {d}", 4 * 8 * d * d)):
        if need > budget:
            raise ConfigError(f"{what} needs {need / 1e6:.0f} MB, budget is "
                              f"{budget / 1e6:.0f} MB (set {MEMORY_BUDGET_ENV} to raise it)")
    if cfg.scenario == "custom":
        scen = Scenario(name="custom", description="[custom] section", family=family,
                        params=params, checks=("intrinsic_estimate", "determinism"),
                        initial_law={"family": "gaussian", "mean": [0.0] * d, "cov": 1.0})
    try:
        model = scen.build()
        validate_ellipticity(model.diffusion, np.atleast_2d(scen.initial_law["mean"]))
    except (MVGradError, ValueError) as exc:
        raise ConfigError(f"scenario {scen.name}: {exc}") from exc
    checks = cfg.checks or scen.checks
    if cfg.t > model.horizon + 1e-12:
        raise ConfigError(f"t={cfg.t} exceeds the scenario horizon {model.horizon}")
    observables = default_observables(model.d)
    perturbations = default_perturbations(model.d)
    for kind, names, known in (("check", checks, CHECK_SPECS),
                               ("schedule", cfg.schedules, SCHEDULE_FACTORIES),
                               ("observable", cfg.observables, observables),
                               ("perturbation", cfg.perturbations, perturbations)):
        unknown = [n for n in names if n not in known]
        if unknown:
            raise ConfigError(f"unknown {kind} {unknown[0]!r} for scenario {scen.name}; "
                              f"have {sorted(known)}")
    bundle = RunBundle(cfg=cfg, scenario=scen, model=model, observables=observables,
                       perturbations=perturbations, checks=checks)
    for check in checks:
        _require_needs(bundle, check)
    return bundle


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _row(bundle, quantity, label, value, stderr, status, seed, **params) -> ResultRow:
    return ResultRow(scenario=bundle.scenario_name, quantity=quantity, label=label,
                     value=value, stderr=stderr, status=status,
                     params=_params_echo(**params), seed=seed)


def _spread(stderr: float, scale: float) -> dict:
    return {"reason": "spread"} if scale > 0 and stderr > ESTIMATE_SPREAD_CAP * scale else {}


def _gate(est, ref: float, ref_se: float, scale: float, slack: float = 0.0):
    """(status, {gap, tol, any reason}) vs ref +- ref_se: 3 sigma + slack, unless _spread."""
    gap = abs(est.value - ref)
    tol = 3.0 * float(np.hypot(est.stderr, ref_se)) + slack
    spread = _spread(est.stderr, scale)
    return "pass" if gap <= tol and not spread else "fail", dict(gap=gap, tol=tol, **spread)


def check_intrinsic_estimate(bundle: RunBundle):
    cfg = bundle.cfg
    rows = []
    for f_name, p_name in bundle.pairs():
        est = bundle.estimate(bundle.field(p_name), bundle.obs(f_name))
        rows.append(_row(bundle, "intrinsic_estimate", f"{f_name}|{p_name}",
                         est.value, est.stderr, "ok", cfg.seed,
                         mode=bundle.mode, term1=est.term1, term2=est.term2))
    return rows


def check_intrinsic_vs_fd(bundle: RunBundle):
    cfg = bundle.cfg
    rows = []
    for f_name, p_name in bundle.pairs():
        f, phi = bundle.obs(f_name), bundle.field(p_name)
        mu0 = bundle.mu0()
        est = bundle.estimate(phi, f, mu0)
        rows.append(_row(bundle, "intrinsic_estimate", f"{f_name}|{p_name}",
                         est.value, est.stderr, "ok", cfg.seed, mode=bundle.mode))
        for eps in cfg.eps_ladder:
            fd = finite_difference_intrinsic(bundle.model, mu0, phi, f, cfg.t,
                                             bundle.grid(), eps, cfg.seed)
            rows.append(_row(bundle, "fd_oracle", f"{f_name}|{p_name}|eps={eps:g}",
                             fd.value, fd.stderr, "ok", cfg.seed, eps=eps))
        rich = bundle.richardson(phi, f, mu0)
        label = f"{f_name}|{p_name}|richardson"
        scale = max(abs(rich.value), rich.stderr)
        if scale == 0:
            # an oracle of exactly 0 +- 0 (a constant payoff, or a step no
            # particle crossed) has nothing to compare the estimate with
            rows.append(_row(bundle, "fd_oracle", label, rich.value, rich.stderr,
                             "ok", cfg.seed, reason="degenerate-oracle"))
            continue
        status, verdict = _gate(est, rich.value, rich.stderr, scale)
        rows.append(_row(bundle, "fd_oracle", label, rich.value, rich.stderr,
                         status, cfg.seed, estimate=est.value, **verdict))
    return rows


def _derivative_scale(bundle: RunBundle, mu0: EmpiricalMeasure, f_name: str, phi) -> float:
    """The size of the derivative of f along phi at mu0, free of any estimate's
    spread: |the affine flow's exact derivative along ||phi||_1| at the cloud,
    else max(|value|, stderr) of the Richardson oracle at the run's seed."""
    scen, cfg = bundle.scenario, bundle.cfg
    try:
        return abs(affine_reference(scen.family, scen.params, f_name, cfg.t, mu0.points,
                                    np.abs(phi(mu0.points)).sum(axis=1, keepdims=True)))
    except UnsupportedScenario:
        rich = bundle.richardson(phi, bundle.obs(f_name), mu0)
        return max(abs(rich.value), rich.stderr)


def check_intrinsic_closed_form(bundle: RunBundle):
    """Affine flow with linear payoff against its exact derivative at the cloud."""
    cfg, scen = bundle.cfg, bundle.scenario
    mu0 = bundle.mu0()
    rows = []
    for p_name in cfg.perturbations:
        phi = bundle.field(p_name)
        est = bundle.estimate(phi, bundle.obs("coord1"), mu0)
        ref = affine_reference(scen.family, scen.params, "coord1", cfg.t, mu0.points,
                               phi(mu0.points))
        # (alpha + gamma) mean ||phi||_1 bounds |ref| and is 0 only where phi = 0
        status, verdict = _gate(est, ref, 0.0, _derivative_scale(bundle, mu0, "coord1", phi))
        rows.append(_row(bundle, "closed_form", f"coord1|{p_name}|exact",
                         est.value, est.stderr, status, cfg.seed, reference=ref, **verdict))
    return rows


_CLASSICAL_TARGETS = {"brownian": "sin", "ou": "coord1"}


def check_classical_gradient(bundle: RunBundle):
    cfg, scen = bundle.cfg, bundle.scenario
    f_name = _CLASSICAL_TARGETS.get(scen.name, "coord1")
    f = bundle.obs(f_name)
    x0, v = np.zeros(bundle.model.d), np.eye(bundle.model.d)[0]
    est = estimate_classical(bundle.model, x0, v, f, cfg.t, bundle.grid(),
                             bundle.sched(), cfg.seed, cfg.n_particles)
    rows = [_row(bundle, "intrinsic_estimate", f"classical|{f_name}",
                 est.value, est.stderr, "ok", cfg.seed, x0=0.0)]
    try:
        ref = affine_reference(scen.family, scen.params, f_name, cfg.t,
                               x0[None, :], v[None, :])
    except MVGradError:
        # nothing to compare against: the estimate stands, the run is not failed
        rows.append(_row(bundle, "closed_form", f"classical|{f_name}",
                         None, None, "ok", cfg.seed, reason="no-closed-form"))
        return rows
    # at x0 = 0 the stderr keeps a Monte Carlo floor, so the scale keeps the slack
    slack = 2.0 * cfg.dt
    status, verdict = _gate(est, ref, 0.0, abs(ref) + slack, slack)
    rows.append(_row(bundle, "closed_form", f"classical|{f_name}",
                     ref, 0.0, status, cfg.seed, estimate=est.value, **verdict))
    return rows


def check_beta_invariance(bundle: RunBundle):
    """Each schedule's mean estimate over the ci seeds; a pair of schedules
    passes when its gap is within 3 sigma of their combined standard errors.
    A schedule fails with reason=spread when _spread finds its stderr too wide
    for _derivative_scale, or a diverged one would pass every pair.
    Seeds run outer and schedules inner, so consecutive estimates share their
    noise, and identical schedules give bit-identical means."""
    cfg = bundle.cfg
    f_name, p_name = cfg.observables[0], cfg.perturbations[0]
    mu0, phi = bundle.mu0(), bundle.field(p_name)
    args = (mu0, phi, bundle.obs(f_name), cfg.t, bundle.grid())
    scheds = [bundle.sched(name) for name in cfg.schedules]
    by_seed = [[estimate_intrinsic(bundle.model, *args, sched, seed) for sched in scheds]
               for seed in cfg.ci_seeds]
    scale = _derivative_scale(bundle, mu0, f_name, phi)
    stats, rows = [], []
    for name, ests in zip(cfg.schedules, zip(*by_seed)):
        mean, se = _mean_stderr(np.array([e.value for e in ests]))
        # one seed has no spread across seeds: its per-particle stderr stands in
        se = ests[0].stderr if len(ests) == 1 else se
        stats.append((mean, se))
        spread = _spread(se, scale)
        rows.append(_row(bundle, "beta_check", f"schedule={name}", mean, se,
                         "fail" if spread else "ok", cfg.ci_seeds[0],
                         n_seeds=len(cfg.ci_seeds), **spread))
    for (a, (mean_a, se_a)), (b, (mean_b, se_b)) in itertools.combinations(
            zip(cfg.schedules, stats), 2):
        gap, tol = abs(mean_a - mean_b), 3.0 * math.hypot(se_a, se_b)
        rows.append(_row(bundle, "beta_check", f"{a}-vs-{b}", gap, None,
                         "pass" if gap <= tol else "fail", cfg.ci_seeds[0], tol=tol))
    return rows


def check_linearity(bundle: RunBundle):
    cfg = bundle.cfg
    f_name, p_name = cfg.observables[0], cfg.perturbations[0]
    phi, f = bundle.field(p_name), bundle.obs(f_name)
    base = bundle.estimate(phi, f)
    doubled = bundle.estimate(scaled(phi, 2.0), f)
    exact = doubled.value == 2.0 * base.value and doubled.stderr == 2.0 * base.stderr
    return [_row(bundle, "intrinsic_estimate", f"linearity|{f_name}|{p_name}",
                 doubled.value - 2.0 * base.value, None,
                 "pass" if exact else "fail", cfg.seed, base=base.value)]


def check_determinism(bundle: RunBundle):
    cfg = bundle.cfg
    f_name, p_name = cfg.observables[0], cfg.perturbations[0]
    args = (bundle.field(p_name), bundle.obs(f_name), bundle.mu0())
    e1 = bundle.estimate(*args)
    e2 = bundle.estimate(*args)
    same = e1.value == e2.value and e1.stderr == e2.stderr
    return [_row(bundle, "intrinsic_estimate", "determinism", e1.value, e1.stderr,
                 "pass" if same else "fail", cfg.seed)]


def _scaling_rows(bundle, quantity, values, stderrs, exact, reason, **params) -> list:
    """One ``ok`` row per t_grid horizon, then a slope row carrying ``params``:
    it passes when the log-log slope of ``values`` is within SLOPE_TOL of that
    of ``exact``; a value that is not positive fails it with ``reason``, and an
    exact one (say, one that underflowed) with reason=nonpositive-exact."""
    cfg = bundle.cfg
    rows = [_row(bundle, quantity, f"t={t:g}", value, se, "ok", cfg.seed, exact=ref)
            for t, value, se, ref in zip(cfg.t_grid, values, stderrs, exact, strict=True)]
    for why, figures in ((reason, values), ("nonpositive-exact", exact)):
        if not all(v > 0 for v in figures):
            return rows + [_row(bundle, quantity, "slope", None, None, "fail", cfg.seed,
                                reason=why)]
    slope = fit_loglog_slope(cfg.t_grid, values)
    exact_slope = fit_loglog_slope(cfg.t_grid, exact)
    status = "pass" if abs(slope - exact_slope) <= SLOPE_TOL else "fail"
    return rows + [_row(bundle, quantity, "slope", slope, None, status, cfg.seed,
                        exact=exact_slope, tol=SLOPE_TOL, **params)]


def check_dual_norm_scaling(bundle: RunBundle):
    """Point-mass start with a step payoff, where the +-e_j dictionary attains
    the dual norm: its decay (t^{-1/2} for Brownian motion) is fitted against
    that of the exact derivative along e1 of the scenario's affine flow."""
    cfg, scen, d = bundle.cfg, bundle.scenario, bundle.model.d
    mu0, f, dictionary = bundle.point_mass(0.0), bundle.obs("sign0"), dual_dictionary(d)
    ests = [dual_norm_lower_bound(bundle.model, mu0, f, t, bundle.grid(t),
                                  bundle.sched(t=t), dictionary, cfg.seed)
            for t in cfg.t_grid]
    exact = [abs(affine_reference(scen.family, scen.params, "sign0", t,
                                  np.zeros((1, d)), np.eye(d)[:1]))
             for t in cfg.t_grid]
    return _scaling_rows(bundle, "dual_norm", [e.value for e in ests],
                         [e.stderr for e in ests], exact, "nonpositive-bound")


def check_tv_scaling(bundle: RunBundle):
    """Two point masses, one step at their laws' midpoint: the gap is the
    total-variation distance, and its decay is fitted against the exact one."""
    cfg, scen = bundle.cfg, bundle.scenario
    c = cfg.tv_shift
    thetas, exact = zip(*(tv_sign_reference(scen.family, scen.params, c, t)
                          for t in cfg.t_grid))
    gaps = tv_gradient_scaling(bundle.model, bundle.point_mass(0.0), bundle.point_mass(c),
                               [bundle.grid(t) for t in cfg.t_grid], thetas, cfg.seed)
    return _scaling_rows(bundle, "tv_slope", gaps, [None] * len(gaps), exact,
                         "zero-gap", shift=c)


def check_wasserstein_lipschitz(bundle: RunBundle):
    cfg = bundle.cfg
    mu0 = bundle.mu0()
    rows, ratios = [], []
    shift = np.zeros(bundle.model.d)
    for c in cfg.stability_shifts:
        shift[0] = c
        nu0 = mu0.shifted(shift)
        w0, sup, terminal = stability_report(bundle.model, mu0, nu0, bundle.grid(), cfg.seed)
        # a shift that vanishes on the cloud in floating point has w0 = 0 and no ratios
        status, why = ("ok", {}) if w0 > 0 else ("fail", {"reason": "zero-shift"})
        ratios += [terminal] if w0 > 0 else []
        rows.append(_row(bundle, "stability", f"shift={c:g}|terminal",
                         terminal, None, status, cfg.seed, w0=w0, **why))
        rows.append(_row(bundle, "stability", f"shift={c:g}|sup", sup, None, status, cfg.seed,
                         **why))
    if len(ratios) < 2:
        return rows + [_row(bundle, "stability", "ratio-variation", None, None, "fail",
                            cfg.seed, reason="zero-shift")]
    variation = (max(ratios) - min(ratios)) / max(ratios) if max(ratios) > 0 else 0.0
    status = "pass" if variation < LIPSCHITZ_VARIATION_CAP else "fail"
    rows.append(_row(bundle, "stability", "ratio-variation", variation, None,
                     status, cfg.seed, cap=LIPSCHITZ_VARIATION_CAP))
    return rows


def check_moment_bound(bundle: RunBundle):
    cfg = bundle.cfg
    mean = np.atleast_1d(np.asarray(bundle.scenario.initial_law["mean"], dtype=float))
    ladder = [sample_initial({"family": "gaussian", "mean": mean, "cov": v},
                             cfg.n_particles, cfg.seed + j)
              for j, v in enumerate(cfg.moment_variances)]
    # sup_s E|X_s|^k against 1 + E|X_0|^k for each initial law of the ladder
    ratios = [(i0, sup / (1.0 + i0))
              for i0, sup in moment_report(bundle.model, ladder, bundle.grid(), cfg.seed)]
    rows = [_row(bundle, "moment", f"init={i0:.6g}", ratio, None, "ok", cfg.seed)
            for i0, ratio in ratios]
    worst = max(ratio for _, ratio in ratios)
    status = "pass" if worst <= MOMENT_RATIO_CAP else "fail"
    rows.append(_row(bundle, "moment", "max-ratio", worst, None, status,
                     cfg.seed, cap=MOMENT_RATIO_CAP))
    return rows


def check_tangent_fd_order(bundle: RunBundle):
    # needs a particle-varying field: uniform shifts propagate exactly
    # linearly through mean-coupled drifts and leave no O(eps) error to fit
    cfg, phi, mu0, grid = bundle.cfg, bundle.field("sine_field"), bundle.mu0(), bundle.grid()
    model = bundle.model
    errs, rows = [], []
    for eps in cfg.eps_ladder:
        base = simulate_particles(model, mu0, grid, cfg.seed)
        tangent = meanfield_tangent(base, model, phi)
        pert = simulate_particles(model, pushforward(mu0, phi, eps), grid, cfg.seed,
                                  stream=True)
        # max over time slices of the mean over particles, one slice at a time
        err = float(np.max([np.mean(np.linalg.norm(v - (p - x) / eps, axis=1))
                            for p, (v, _), x in zip(pert, tangent, base.states)]))
        errs.append(err)
        rows.append(_row(bundle, "fd_oracle", f"tangent|eps={eps:g}", err, None,
                         "ok", cfg.seed))
    if max(errs) <= TANGENT_EXACT_TOL:
        rows.append(_row(bundle, "fd_oracle", "tangent-order", None, None, "pass",
                         cfg.seed, reason="exact-tangent"))
        return rows
    orders = [float(np.log(errs[i] / errs[i + 1]) /
                    np.log(cfg.eps_ladder[i] / cfg.eps_ladder[i + 1]))
              for i in range(len(errs) - 1)]
    status = "pass" if min(orders) >= TANGENT_ORDER_MIN else "fail"
    rows.append(_row(bundle, "fd_oracle", "tangent-order", min(orders), None,
                     status, cfg.seed, orders=";".join(f"{o:.3f}" for o in orders)))
    return rows


# Needs that a run's model or size must meet, each a test of the bundle and
# what the test asks for.
NAMED_NEEDS: dict[str, tuple] = {
    # a drift that declares no moments, so it does not read the measure
    "measure_free_drift": (lambda b: b.model.meanfield_drift.n == 0, "a measure-free drift"),
    # the family affine_reference and tv_sign_reference have closed forms for
    "affine_family": (lambda b: b.scenario.family == "affine", "the affine family"),
    # beyond d = 1 the transport is an exact assignment, capped in size
    "assignment_cap": (lambda b: b.model.d == 1 or b.cfg.n_particles <= ASSIGNMENT_CAP,
                       f"n_particles at most {ASSIGNMENT_CAP} when d > 1"),
}


@dataclass(frozen=True)
class CheckSpec:
    """A check's one declaration: its function check_<name>; the quantity of its
    gated rows, which its error row carries too; its needs, each a NAMED_NEEDS
    name or the fewest distinct entries of a config list it reads (t_grid ones
    must lie within the horizon); and its work (_units): "shared" reads only the
    run's own noise key and joins the one shared reusing_work() block, "own"
    reads other keys and gets a block of its own, "regenerates" runs in none."""

    run: Callable
    quantity: str = "intrinsic_estimate"
    needs: dict = field(default_factory=dict)
    work: str = "shared"


CHECK_SPECS: dict[str, CheckSpec] = {s.run.__name__.removeprefix("check_"): s for s in (
    CheckSpec(check_intrinsic_estimate),
    CheckSpec(check_intrinsic_vs_fd, "fd_oracle", {"eps_ladder": 1}),
    CheckSpec(check_intrinsic_closed_form, "closed_form", {"affine_family": True}),
    CheckSpec(check_classical_gradient, "closed_form", {"measure_free_drift": True}),
    # eps_ladder for the Richardson scale of its spread cap
    CheckSpec(check_beta_invariance, "beta_check", {"schedules": 2, "eps_ladder": 1}, "own"),
    CheckSpec(check_linearity),
    CheckSpec(check_determinism, work="regenerates"),
    CheckSpec(check_dual_norm_scaling, "dual_norm", {"t_grid": 2, "affine_family": True},
              "own"),
    CheckSpec(check_tv_scaling, "tv_slope", {"t_grid": 2, "affine_family": True}, "own"),
    CheckSpec(check_wasserstein_lipschitz, "stability",
              {"stability_shifts": 2, "assignment_cap": True}),
    CheckSpec(check_moment_bound, "moment", {"moment_variances": 1}),
    CheckSpec(check_tangent_fd_order, "fd_oracle", {"eps_ladder": 2}),
)}
# what _run_one_check calls a check through, and the tracer wraps
CHECKS: dict[str, Callable] = {name: spec.run for name, spec in CHECK_SPECS.items()}


def _require_needs(bundle: RunBundle, check: str) -> None:
    cfg, model = bundle.cfg, bundle.model
    for need, count in CHECK_SPECS[check].needs.items():
        if need in NAMED_NEEDS:
            holds, what = NAMED_NEEDS[need]
            if not holds(bundle):
                raise ConfigError(f"check {check} needs {what} "
                                  f"(scenario {cfg.scenario})")
        elif len(set(getattr(cfg, need))) < count:
            raise ConfigError(f"check {check} needs {count} distinct {need} entries")
        elif need == "t_grid" and max(cfg.t_grid) > model.horizon + 1e-12:
            raise ConfigError(f"check {check} needs every t_grid entry within "
                              f"the scenario horizon {model.horizon}")


# ---------------------------------------------------------------------------
# Suite execution
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    rows: list
    errors: list
    exit_code: int
    csv_path: Optional[Path] = None


def _error_result(bundle: RunBundle, name: str, exc: BaseException, wall: float):
    """(rows, error records, check record) of a check that raised ``exc``."""
    kind = type(exc).__name__
    rows = [_row(bundle, CHECK_SPECS[name].quantity, name, None, None, "error",
                 bundle.cfg.seed, error=kind)]
    return (rows, [{"check": name, "type": kind, "message": str(exc)}],
            {"wall_s": wall, "noise_tensors": None, "integrations": None})


def _run_one_check(bundle: RunBundle, name: str):
    """Run one check in the calling thread; returns (rows, error records, record):
    its wall time and the noise tensors built and paths integrated meanwhile.

    It shares whatever ``reusing_work`` block its unit opened (see _units).
    """
    start, before = time.perf_counter(), work_counts()
    try:
        rows, errors = CHECKS[name](bundle), []
    except (MVGradError, ArithmeticError) as exc:
        rows, errors, _ = _error_result(bundle, name, exc, 0.0)
    tensors, integrations = (b - a for a, b in zip(before, work_counts()))
    return rows, errors, {"wall_s": time.perf_counter() - start,
                          "noise_tensors": tensors, "integrations": integrations}


def _units(names: list) -> list:
    """Indices into ``names`` per unit of work, in order of first check: the
    "shared" checks share one, and each other check is one."""
    shared = [i for i, name in enumerate(names) if CHECK_SPECS[name].work == "shared"]
    units = [[i] for i, name in enumerate(names) if CHECK_SPECS[name].work != "shared"]
    return sorted(units + [shared] if shared else units)


def _workers(cfg: ExperimentConfig, names: list) -> int:
    """min(parallel, units): above 1, the worker processes a run of ``names`` forks."""
    return min(cfg.parallel, len(_units(names)))


def _run_unit(bundle: RunBundle, names: list) -> list:
    """_run_one_check of each name in order, in one ``reusing_work`` block
    unless the unit is a regenerating check."""
    with nullcontext() if CHECK_SPECS[names[0]].work == "regenerates" else reusing_work():
        return [_run_one_check(bundle, name) for name in names]


# The run's bundle inside a check worker.  Its model's coefficients are
# closures, which do not pickle, so workers are forked and inherit it from
# the pool's initializer; only check names and results cross the pipe.
_worker_bundle: Optional[RunBundle] = None


def _adopt_bundle(bundle: RunBundle) -> None:
    global _worker_bundle
    _worker_bundle = bundle


def _run_in_worker(names: list):
    return _run_unit(_worker_bundle, names)


def _run_in_workers(bundle: RunBundle, units: list, workers: int) -> list:
    """_run_unit of every unit (its check names) on ``workers`` forked processes.

    A worker that dies (killed, say, by the kernel's OOM killer) breaks the
    pool: each check of a unit whose result was lost, or that could no longer
    be submitted, gets an error record instead.
    """
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt_bundle, initargs=(bundle,)) as pool:
        futures = []
        for unit in units:
            try:
                futures.append(pool.submit(_run_in_worker, unit))
            except BrokenProcessPool as exc:
                lost = Future()
                lost.set_exception(exc)
                futures += [lost] * (len(units) - len(futures))
                break
        results = []
        for unit, fut in zip(units, futures):
            try:
                results.append(fut.result())
            except BrokenProcessPool as exc:
                results.append([_error_result(bundle, name, exc, time.perf_counter() - start)
                                for name in unit])
    return results


def run_suite(cfg: ExperimentConfig) -> tuple[list, list, list]:
    """Execute all declared checks; returns (rows, error records, check records).

    The checks on the run's own noise share one ``reusing_work`` block (see
    _units).  With ``parallel`` W > 1 the units run on min(W, units) forked
    worker processes, one whole unit at a time each; the results are put back
    in declaration order, so the rows are those of a serial run, and so are the
    {"name", "wall_s", "noise_tensors", "integrations"} check records.
    """
    bundle = resolve_bundle(cfg)
    names = list(bundle.checks)
    units = _units(names)
    jobs = [[names[i] for i in unit] for unit in units]
    workers = _workers(cfg, names)
    by_unit = (_run_in_workers(bundle, jobs, workers) if workers > 1
               else [_run_unit(bundle, job) for job in jobs])
    # back in declaration order: the indices are distinct, so only they are compared
    results = [r for _, r in sorted(zip(itertools.chain(*units), itertools.chain(*by_unit)))]
    rows = [r for chunk, _, _ in results for r in chunk]
    errors = [e for _, chunk, _ in results for e in chunk]
    records = [{"name": name, **record} for name, (_, _, record) in zip(names, results)]
    return rows, errors, records


def _versions() -> dict:
    """What bit-identity of results.csv depends on, and the cores a run may use."""
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": nproc}


def write_outputs(cfg: ExperimentConfig, config_text: str, rows: list,
                  errors: list, out_dir: Path, wall_clock: float,
                  check_records: list) -> RunResult:
    out_dir.mkdir(parents=True, exist_ok=True)
    # the manifest is written last, so a write that fails leaves none at all
    (out_dir / "manifest.json").unlink(missing_ok=True)
    csv_path = out_dir / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.as_csv())

    statuses = [r.status for r in rows]
    summary = {s: statuses.count(s) for s in ("ok", "pass", "fail", "error")}
    failed = [{"quantity": r.quantity, "label": r.label, "params": r.params}
              for r in rows if r.status == "fail"]
    exit_code = 3 if errors else 1 if summary["fail"] else 0

    if errors:
        with open(out_dir / "errors.json", "w") as fh:
            json.dump(errors, fh, indent=2, sort_keys=True)
    else:
        (out_dir / "errors.json").unlink(missing_ok=True)   # a previous run's

    manifest = {
        "version": __version__,
        "config_text": config_text,
        "resolved_config": cfg.to_dict(),
        "summary": summary,
        "failed_checks": failed,
        "exit_code": exit_code,
        "wall_clock_s": wall_clock,
        # ru_maxrss is in KiB on Linux: the process's peak so far, in MiB,
        # and, when check workers ran, the largest peak among its finished
        # child processes (null otherwise: a serial run's reading is not a worker's)
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "workers_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            if _workers(cfg, [c["name"] for c in check_records]) > 1 else None,
        "checks": check_records,
        "versions": _versions(),
        "outputs": {"results_csv": csv_path.name,
                    "errors_json": "errors.json" if errors else None},
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return RunResult(rows=rows, errors=errors, exit_code=exit_code, csv_path=csv_path)


def run_experiment(cfg: ExperimentConfig, config_text: str, out_dir) -> RunResult:
    """run_suite, then write_outputs; an output it cannot write raises ConfigError."""
    start = time.perf_counter()
    rows, errors, check_records = run_suite(cfg)
    wall = time.perf_counter() - start
    try:
        return write_outputs(cfg, config_text, rows, errors, Path(out_dir), wall,
                             check_records)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to {out_dir}: {exc}") from exc

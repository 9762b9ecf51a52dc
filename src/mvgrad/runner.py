"""Config-driven suite runner: executes declared checks, writes CSV + manifest.

Every declared check lands in the CSV as one or more rows with an explicit
status (ok, pass, fail, or error); nothing is silently skipped.  Exit codes:
0 all checks pass, 1 a check failed, 2 configuration problem, 3 numerical
failure (with a machine-readable record in errors.json).
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
import platform
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy

from . import __version__
from .bismut import (beta_invariance_check, dual_norm_lower_bound,
                     estimate_classical, estimate_intrinsic)
from .config import ExperimentConfig
from .errors import ConfigError, MVGradError, SingularDiffusion
from .measure import ASSIGNMENT_CAP, EmpiricalMeasure, pushforward, sample_initial
from .model import (SCHEDULE_FACTORIES, ModelSpec, schedule_by_name,
                    validate_ellipticity)
from .oracle import (affine_reference, fit_loglog_slope,
                     finite_difference_intrinsic, moment_report,
                     richardson_intrinsic, stability_report,
                     tv_gradient_scaling, tv_sign_reference)
from .scenarios import (Scenario, build_family, default_observables,
                        default_perturbations, dual_dictionary, get_scenario)
from .simulate import (MEMORY_BUDGET_ENV, TimeGrid, memory_budget_bytes,
                       reusing_noise, simulate_particles)
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
# A Richardson row fails when the estimate's stderr exceeds this multiple of
# the oracle's scale max(|value|, stderr): a diverged estimate's own stderr
# would otherwise widen the 3-sigma tolerance until any gap passes.
ESTIMATE_SPREAD_CAP = 100.0
# determinism compares two regenerations of its run, so it never shares noise
NOISE_REGENERATING_CHECKS = frozenset({"determinism"})


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

    def mu0(self, seed: Optional[int] = None) -> EmpiricalMeasure:
        return sample_initial(self.scenario.initial_law, self.cfg.n_particles,
                              self.cfg.seed if seed is None else seed)

    def grid(self, t: Optional[float] = None) -> TimeGrid:
        cfg = self.cfg
        if t is None:
            return TimeGrid(t_end=cfg.t, n_steps=cfg.n_steps)
        return TimeGrid(t_end=t, n_steps=max(1, int(round(t / cfg.dt))))

    def sched(self, name: Optional[str] = None, t: Optional[float] = None):
        return schedule_by_name(name or self.cfg.schedule,
                                self.cfg.t if t is None else t)

    def obs(self, name: str):
        return self.observables[name]      # names are resolved by resolve_bundle

    def field(self, name: str):
        return self.perturbations[name]

    def estimate(self, phi, f, mu0: Optional[EmpiricalMeasure] = None):
        """estimate_intrinsic at the run's t, grid, schedule and seed."""
        cfg = self.cfg
        return estimate_intrinsic(self.model, self.mu0() if mu0 is None else mu0, phi, f,
                                  cfg.t, self.grid(), self.sched(), cfg.seed)

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
            d = build_family(family, **params).d
        except (MVGradError, ValueError) as exc:
            raise ConfigError(f"[custom] {exc}") from exc
        law = {"family": "gaussian", "mean": [0.0] * d, "cov": 1.0}
        scen = Scenario(name="custom", description="[custom] section", family=family,
                        params=params, initial_law=law,
                        checks=("intrinsic_estimate", "determinism"))
    else:
        scen = get_scenario(cfg.scenario)
    model = scen.build()
    try:
        validate_ellipticity(model.diffusion, np.atleast_1d(scen.initial_law["mean"]))
    except SingularDiffusion as exc:
        raise ConfigError(f"scenario {scen.name}: {exc}") from exc
    checks = cfg.checks or scen.checks
    if cfg.t > model.horizon + 1e-12:
        raise ConfigError(f"t={cfg.t} exceeds the scenario horizon {model.horizon}")
    observables = default_observables(model.d)
    perturbations = default_perturbations(model.d)
    for kind, names, known in (("check", checks, CHECKS),
                               ("schedule", (cfg.schedule,) + cfg.schedules,
                                SCHEDULE_FACTORIES),
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
    # an invalid MVGRAD_MEMORY_BUDGET_MB raises ConfigError here; so does a
    # starting cloud that alone exceeds the budget, before any draw allocates it
    budget, cloud = memory_budget_bytes(), 8 * cfg.n_particles * model.d
    if cloud > budget:
        raise ConfigError(f"a starting cloud of {cfg.n_particles} particles needs "
                          f"{cloud / 1e6:.0f} MB, budget is {budget / 1e6:.0f} MB "
                          f"(set {MEMORY_BUDGET_ENV} to raise it)")
    return bundle


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _row(bundle, quantity, label, value, stderr, status, seed, **params) -> ResultRow:
    return ResultRow(scenario=bundle.scenario_name, quantity=quantity, label=label,
                     value=value, stderr=stderr, status=status,
                     params=_params_echo(**params), seed=seed)


def check_intrinsic_estimate(bundle: RunBundle):
    cfg = bundle.cfg
    rows = []
    for f_name, p_name in bundle.pairs():
        est = bundle.estimate(bundle.field(p_name), bundle.obs(f_name))
        rows.append(_row(bundle, "intrinsic_estimate", f"{f_name}|{p_name}",
                         est.value, est.stderr, "ok", cfg.seed,
                         mode=est.mode, term1=est.term1, term2=est.term2))
    return rows


def check_intrinsic_vs_fd(bundle: RunBundle):
    cfg = bundle.cfg
    rows = []
    eps_rich = cfg.eps_ladder[-2] if len(cfg.eps_ladder) >= 2 else cfg.eps_ladder[-1]
    for f_name, p_name in bundle.pairs():
        f, phi = bundle.obs(f_name), bundle.field(p_name)
        mu0 = bundle.mu0()
        est = bundle.estimate(phi, f, mu0)
        rows.append(_row(bundle, "intrinsic_estimate", f"{f_name}|{p_name}",
                         est.value, est.stderr, "ok", cfg.seed, mode=est.mode))
        for eps in cfg.eps_ladder:
            fd = finite_difference_intrinsic(bundle.model, mu0, phi, f, cfg.t,
                                             bundle.grid(), eps, cfg.seed)
            rows.append(_row(bundle, "fd_oracle", f"{f_name}|{p_name}|eps={eps:g}",
                             fd.value, fd.stderr, "ok", cfg.seed, eps=eps))
        rich = richardson_intrinsic(bundle.model, mu0, phi, f, cfg.t, bundle.grid(),
                                    eps_rich, cfg.seed)
        label = f"{f_name}|{p_name}|richardson"
        scale = max(abs(rich.value), rich.stderr)
        if scale == 0:
            # an oracle of exactly 0 +- 0 (a constant payoff, or a step no
            # particle crossed) has nothing to compare the estimate with
            rows.append(_row(bundle, "fd_oracle", label, rich.value, rich.stderr,
                             "ok", cfg.seed, reason="degenerate-oracle"))
            continue
        gap = abs(est.value - rich.value)
        tol = 3.0 * float(np.hypot(est.stderr, rich.stderr))
        spread = est.stderr > ESTIMATE_SPREAD_CAP * scale
        status = "pass" if gap <= tol and not spread else "fail"
        rows.append(_row(bundle, "fd_oracle", label, rich.value, rich.stderr,
                         status, cfg.seed, gap=gap, tol=tol, estimate=est.value))
    return rows


def check_intrinsic_closed_form(bundle: RunBundle):
    """Affine flow with linear payoff against its exact derivative at the cloud."""
    cfg, scen = bundle.cfg, bundle.scenario
    mu0 = bundle.mu0()
    rows = []
    for p_name in cfg.perturbations:
        phi = bundle.field(p_name)
        est = bundle.estimate(phi, bundle.obs("coord1"), mu0)
        ref = affine_reference(scen.family, scen.params, "coord1", cfg.t,
                               mu0.points, phi(mu0.points))
        gap = abs(est.value - ref)
        tol = 3.0 * est.stderr
        status = "pass" if gap <= tol else "fail"
        rows.append(_row(bundle, "closed_form", f"coord1|{p_name}|exact",
                         est.value, est.stderr, status, cfg.seed,
                         reference=ref, gap=gap, tol=tol))
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
    gap = abs(est.value - ref)
    tol = 3.0 * est.stderr + 2.0 * cfg.dt
    status = "pass" if gap <= tol else "fail"
    rows.append(_row(bundle, "closed_form", f"classical|{f_name}",
                     ref, 0.0, status, cfg.seed, estimate=est.value,
                     gap=gap, tol=tol))
    return rows


def check_beta_invariance(bundle: RunBundle):
    cfg = bundle.cfg
    scheds = [bundle.sched(name) for name in cfg.schedules]
    f_name, p_name = cfg.observables[0], cfg.perturbations[0]
    report = beta_invariance_check(bundle.model, bundle.mu0(), bundle.field(p_name),
                                   bundle.obs(f_name), cfg.t, bundle.grid(),
                                   cfg.ci_seeds, scheds)
    rows = [_row(bundle, "beta_check", f"schedule={name}", mean, se, "ok",
                 cfg.ci_seeds[0], n_seeds=len(cfg.ci_seeds))
            for name, mean, se in zip(report.schedule_names, report.means, report.stderrs)]
    return rows + [_row(bundle, "beta_check", f"{a}-vs-{b}", gap, None,
                        "pass" if ok else "fail", cfg.ci_seeds[0], tol=tol)
                   for a, b, gap, tol, ok in report.pairs]


def check_linearity(bundle: RunBundle):
    cfg = bundle.cfg
    f_name, p_name = cfg.observables[0], cfg.perturbations[0]
    phi, f = bundle.field(p_name), bundle.obs(f_name)
    base = bundle.estimate(phi, f)
    doubled = bundle.estimate(phi.scaled(2.0), f)
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
    of ``exact``, and a value that is not positive fails it with ``reason``."""
    cfg = bundle.cfg
    rows = [_row(bundle, quantity, f"t={t:g}", value, se, "ok", cfg.seed, exact=ref)
            for t, value, se, ref in zip(cfg.t_grid, values, stderrs, exact, strict=True)]
    if not all(v > 0 for v in values):
        return rows + [_row(bundle, quantity, "slope", None, None, "fail", cfg.seed,
                            reason=reason)]
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
        rep = stability_report(bundle.model, mu0, nu0, bundle.grid(), cfg.seed)
        ratios.append(rep.terminal_ratio)
        rows.append(_row(bundle, "stability", f"shift={c:g}|terminal",
                         rep.terminal_ratio, None, "ok", cfg.seed, w0=rep.initial_distance))
        rows.append(_row(bundle, "stability", f"shift={c:g}|sup",
                         rep.sup_ratio, None, "ok", cfg.seed))
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
    rep = moment_report(bundle.model, ladder, bundle.grid(), cfg.seed)
    rows = [_row(bundle, "moment", label, ratio, None, "ok", cfg.seed)
            for label, ratio in rep.rows()]
    status = "pass" if rep.max_ratio <= MOMENT_RATIO_CAP else "fail"
    rows.append(_row(bundle, "moment", "max-ratio", rep.max_ratio, None, status,
                     cfg.seed, cap=MOMENT_RATIO_CAP))
    return rows


def check_tangent_fd_order(bundle: RunBundle):
    # needs a particle-varying field: uniform shifts propagate exactly
    # linearly through mean-coupled drifts and leave no O(eps) error to fit
    cfg = bundle.cfg
    phi = bundle.field("sine_field")
    mu0 = bundle.mu0()
    grid = bundle.grid()
    base = simulate_particles(bundle.model, mu0, grid, cfg.seed)
    tang, _ = meanfield_tangent(base, bundle.model, phi)
    errs, rows = [], []
    for eps in cfg.eps_ladder:
        pert = simulate_particles(bundle.model, pushforward(mu0, phi, eps),
                                  grid, cfg.seed)
        quot = (pert.states - base.states) / eps
        err = float(np.max(np.mean(np.linalg.norm(tang - quot, axis=2), axis=1)))
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


CHECKS: dict[str, Callable] = {
    "intrinsic_estimate": check_intrinsic_estimate,
    "intrinsic_vs_fd": check_intrinsic_vs_fd,
    "intrinsic_closed_form": check_intrinsic_closed_form,
    "classical_gradient": check_classical_gradient,
    "beta_invariance": check_beta_invariance,
    "linearity": check_linearity,
    "determinism": check_determinism,
    "dual_norm_scaling": check_dual_norm_scaling,
    "tv_scaling": check_tv_scaling,
    "wasserstein_lipschitz": check_wasserstein_lipschitz,
    "moment_bound": check_moment_bound,
    "tangent_fd_order": check_tangent_fd_order,
}

# Needs that a run's model or size must meet, each a test of the bundle and
# what the test asks for.
NAMED_NEEDS: dict[str, tuple] = {
    # no measure derivative at the check's starting point
    "measure_free_drift": (
        lambda b: b.model.meanfield_drift.is_measure_free(np.zeros(b.model.d)),
        "a measure-free drift"),
    # the family affine_reference and tv_sign_reference have closed forms for
    "affine_family": (lambda b: b.scenario.family == "affine", "the affine family"),
    # beyond d = 1 the transport is an exact assignment, capped in size
    "assignment_cap": (lambda b: b.model.d == 1 or b.cfg.n_particles <= ASSIGNMENT_CAP,
                       f"n_particles at most {ASSIGNMENT_CAP} when d > 1"),
}

# What each check needs from the config: a named need above, or the fewest
# distinct entries of each list it reads (t_grid entries are horizons, so
# they must also lie within the model's).
CHECK_NEEDS: dict[str, dict] = {
    "intrinsic_vs_fd": {"eps_ladder": 1},
    "intrinsic_closed_form": {"affine_family": True},
    "classical_gradient": {"measure_free_drift": True},
    "beta_invariance": {"schedules": 2},
    "dual_norm_scaling": {"t_grid": 2, "affine_family": True},
    "tv_scaling": {"t_grid": 2, "affine_family": True},
    "wasserstein_lipschitz": {"stability_shifts": 2, "assignment_cap": True},
    "moment_bound": {"moment_variances": 1},
    "tangent_fd_order": {"eps_ladder": 2},
}


def _require_needs(bundle: RunBundle, check: str) -> None:
    cfg, model = bundle.cfg, bundle.model
    for need, count in CHECK_NEEDS.get(check, {}).items():
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
    """(rows, error records, wall s) of a check that raised ``exc``."""
    kind = type(exc).__name__
    rows = [_row(bundle, "intrinsic_estimate", name, None, None, "error",
                 bundle.cfg.seed, error=kind)]
    return rows, [{"check": name, "type": kind, "message": str(exc)}], wall


def _run_one_check(bundle: RunBundle, name: str):
    """Run one check in the calling process; returns (rows, error records, wall s).

    Unless the check is in NOISE_REGENERATING_CHECKS, its simulations share
    noise tensors; checks never share them with each other.
    """
    start = time.perf_counter()
    reuse = nullcontext() if name in NOISE_REGENERATING_CHECKS else reusing_noise()
    try:
        with reuse:
            rows = CHECKS[name](bundle)
    except (MVGradError, FloatingPointError) as exc:
        return _error_result(bundle, name, exc, time.perf_counter() - start)
    return rows, [], time.perf_counter() - start


# The run's bundle inside a check worker.  Its model's coefficients are
# closures, which do not pickle, so workers are forked and inherit it from
# the pool's initializer; only check names and results cross the pipe.
_worker_bundle: Optional[RunBundle] = None


def _adopt_bundle(bundle: RunBundle) -> None:
    global _worker_bundle
    _worker_bundle = bundle


def _run_in_worker(name: str):
    return _run_one_check(_worker_bundle, name)


def _run_in_workers(bundle: RunBundle, names: list, workers: int) -> list:
    """_run_one_check of every name on ``workers`` forked processes, in order.

    A worker that dies (killed, say, by the kernel's OOM killer) breaks the
    pool: each check whose result was lost gets an error record instead.
    """
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt_bundle, initargs=(bundle,)) as pool:
        futures = [pool.submit(_run_in_worker, name) for name in names]
        results = []
        for name, fut in zip(names, futures):
            try:
                results.append(fut.result())
            except BrokenProcessPool as exc:
                results.append(_error_result(bundle, name, exc,
                                             time.perf_counter() - start))
    return results


def run_suite(cfg: ExperimentConfig) -> tuple[list, list, list]:
    """Execute all declared checks; returns (rows, error records, check walls).

    With ``parallel`` W > 1 the checks run on min(W, checks) forked worker
    processes, one check at a time each; the results are gathered in
    declaration order, so the rows are those of a serial run.  The walls
    are {"name", "wall_s"} records in declaration order.
    """
    bundle = resolve_bundle(cfg)
    names = list(bundle.checks)
    workers = min(cfg.parallel, len(names))
    if workers > 1:
        results = _run_in_workers(bundle, names, workers)
    else:
        results = [_run_one_check(bundle, name) for name in names]
    rows = [r for chunk, _, _ in results for r in chunk]
    errors = [e for _, chunk, _ in results for e in chunk]
    walls = [{"name": name, "wall_s": wall} for name, (_, _, wall) in zip(names, results)]
    return rows, errors, walls


def _versions() -> dict:
    """What bit-identity of results.csv depends on, and the cores a run may use."""
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": nproc}


def write_outputs(cfg: ExperimentConfig, config_text: str, rows: list,
                  errors: list, out_dir: Path, wall_clock: float,
                  check_walls: list) -> RunResult:
    out_dir.mkdir(parents=True, exist_ok=True)
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
    if errors:
        exit_code = 3
    elif summary["fail"]:
        exit_code = 1
    else:
        exit_code = 0

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
        # and the largest peak among its finished child processes (the
        # check workers of a parallel run)
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "workers_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "checks": check_walls,
        "versions": _versions(),
        "outputs": {"results_csv": csv_path.name,
                    "errors_json": "errors.json" if errors else None},
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return RunResult(rows=rows, errors=errors, exit_code=exit_code, csv_path=csv_path)


def run_experiment(cfg: ExperimentConfig, config_text: str, out_dir) -> RunResult:
    start = time.perf_counter()
    rows, errors, check_walls = run_suite(cfg)
    wall = time.perf_counter() - start
    return write_outputs(cfg, config_text, rows, errors, Path(out_dir), wall, check_walls)

"""Config-driven suite runner: executes declared checks, writes CSV + manifest.

Every declared check lands in the CSV as one or more rows with an explicit
status (ok, pass, fail, or error); nothing is silently skipped.  Exit codes:
0 all checks pass, 1 a check failed, 2 configuration problem, 3 numerical
failure (with a machine-readable record in errors.json).
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .bismut import (beta_invariance_check, dual_norm_lower_bound,
                     estimate_classical, estimate_intrinsic)
from .config import ExperimentConfig
from .errors import ConfigError, MVGradError
from .measure import EmpiricalMeasure, pushforward, sample_initial
from .model import SCHEDULE_FACTORIES, ModelSpec, schedule_by_name
from .oracle import (fit_loglog_slope, finite_difference_intrinsic,
                     gaussian_quadrature_reference, moment_report,
                     richardson_intrinsic, stability_report,
                     tv_gradient_scaling, tv_sign_reference)
from .scenarios import (build_family, default_observables,
                        default_perturbations, dual_dictionary, get_scenario,
                        sign_observable)
from .simulate import TimeGrid, memory_budget_bytes, simulate_particles
from .tangent import meanfield_tangent

CSV_HEADER = ("scenario", "quantity", "label", "value", "stderr", "status",
              "params", "seed")

MOMENT_RATIO_CAP = 2.0
LIPSCHITZ_VARIATION_CAP = 0.20
DUAL_SLOPE_BAND = (-0.65, -0.35)
TV_SLOPE_TOL = 0.15
TANGENT_ORDER_MIN = 0.8
# Finite-difference errors at or below this on every ladder entry mean an
# exact tangent (an affine flow): they are rounding noise, with no order to fit.
TANGENT_EXACT_TOL = 1e-10
# A Richardson row fails when the estimate's stderr exceeds this multiple of
# the oracle's scale max(|value|, stderr): a diverged estimate's own stderr
# would otherwise widen the 3-sigma tolerance until any gap passes.
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
    return "|".join(f"{key}={kv[key]!r}" if isinstance(kv[key], float) else f"{key}={kv[key]}"
                    for key in sorted(kv))


@dataclass
class RunBundle:
    """Resolved scenario context shared by all checks of a run."""

    cfg: ExperimentConfig
    scenario_name: str
    model: ModelSpec
    initial_law: dict
    observables: dict
    perturbations: dict
    checks: tuple
    scenario_params: dict

    def mu0(self, seed: Optional[int] = None) -> EmpiricalMeasure:
        return sample_initial(self.initial_law, self.cfg.n_particles,
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
                                  cfg.t, self.grid(), self.sched(), cfg.seed,
                                  scenario=self.scenario_name)

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
            model = build_family(family, **params)
        except (MVGradError, ValueError) as exc:
            raise ConfigError(f"[custom] {exc}") from exc
        checks = cfg.checks or ("intrinsic_estimate", "determinism")
        law = {"family": "gaussian", "mean": [0.0] * model.d, "cov": 1.0}
        name, scen_params = "custom", params
    else:
        scen = get_scenario(cfg.scenario)
        model = scen.build()
        checks = cfg.checks or scen.checks
        law = scen.initial_law
        name, scen_params = scen.name, scen.params
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
            raise ConfigError(f"unknown {kind} {unknown[0]!r} for scenario {name}; "
                              f"have {sorted(known)}")
    for check in checks:
        _require_needs(cfg, model, check)
    memory_budget_bytes()  # an invalid MVGRAD_MEMORY_BUDGET_MB raises ConfigError here
    return RunBundle(cfg=cfg, scenario_name=name, model=model, initial_law=law,
                     observables=observables, perturbations=perturbations,
                     checks=checks, scenario_params=dict(scen_params))


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
                                             bundle.grid(), eps, cfg.seed,
                                             scenario=bundle.scenario_name)
            rows.append(_row(bundle, "fd_oracle", f"{f_name}|{p_name}|eps={eps:g}",
                             fd.value, fd.stderr, "ok", cfg.seed, eps=eps))
        rich = richardson_intrinsic(bundle.model, mu0, phi, f, cfg.t, bundle.grid(),
                                    eps_rich, cfg.seed, scenario=bundle.scenario_name)
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
    """Mean-preserving drift with linear payoff: the derivative is the phi-mean itself."""
    cfg = bundle.cfg
    mu0 = bundle.mu0()
    rows = []
    for p_name in cfg.perturbations:
        phi = bundle.field(p_name)
        est = bundle.estimate(phi, bundle.obs("coord1"), mu0)
        ref = float(np.mean(np.asarray(phi(mu0.points))[:, 0]))
        gap = abs(est.value - ref)
        tol = 3.0 * est.stderr
        status = "pass" if gap <= tol else "fail"
        rows.append(_row(bundle, "quadrature", f"coord1|{p_name}|exact",
                         est.value, est.stderr, status, cfg.seed,
                         reference=ref, gap=gap, tol=tol))
    return rows


_CLASSICAL_TARGETS = {"brownian": "sin", "ou": "coord1"}


def check_classical_gradient(bundle: RunBundle):
    cfg = bundle.cfg
    f_name = _CLASSICAL_TARGETS.get(bundle.scenario_name, "coord1")
    f = bundle.obs(f_name)
    x0, v = np.zeros(bundle.model.d), np.eye(bundle.model.d)[0]
    est = estimate_classical(bundle.model, x0, v, f, cfg.t, bundle.grid(),
                             bundle.sched(), cfg.seed, cfg.n_particles,
                             scenario=bundle.scenario_name)
    rows = [_row(bundle, "intrinsic_estimate", f"classical|{f_name}",
                 est.value, est.stderr, "ok", cfg.seed, x0=0.0)]
    try:
        ref = gaussian_quadrature_reference(bundle.scenario_name, f_name, cfg.t,
                                            "const_e1", x0=0.0)
    except MVGradError:
        # nothing to compare against: the estimate stands, the run is not failed
        rows.append(_row(bundle, "quadrature", f"classical|{f_name}",
                         None, None, "ok", cfg.seed, reason="no-closed-form"))
        return rows
    gap = abs(est.value - ref)
    tol = 3.0 * est.stderr + 2.0 * cfg.dt
    status = "pass" if gap <= tol else "fail"
    rows.append(_row(bundle, "quadrature", f"classical|{f_name}",
                     ref, 0.0, status, cfg.seed, estimate=est.value,
                     gap=gap, tol=tol))
    return rows


def check_beta_invariance(bundle: RunBundle):
    cfg = bundle.cfg
    scheds = [bundle.sched(name) for name in cfg.schedules]
    f_name, p_name = cfg.observables[0], cfg.perturbations[0]
    report = beta_invariance_check(bundle.model, bundle.mu0(), bundle.field(p_name),
                                   bundle.obs(f_name), cfg.t, bundle.grid(),
                                   cfg.ci_seeds, scheds, scenario=bundle.scenario_name)
    rows = [_row(bundle, "beta_check", f"schedule={name}", mean, se, "ok",
                 cfg.ci_seeds[0], n_seeds=report.n_seeds)
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


def check_dual_norm_scaling(bundle: RunBundle):
    """Point-mass start with a step payoff: bound should decay like t^{-1/2}."""
    cfg = bundle.cfg
    mu0 = bundle.point_mass(0.0)
    f = bundle.obs("sign0")
    dictionary = dual_dictionary(bundle.model.d)
    rows, values = [], []
    for t in cfg.t_grid:
        est = dual_norm_lower_bound(bundle.model, mu0, f, t, bundle.grid(t),
                                    bundle.sched(t=t), dictionary, cfg.seed,
                                    scenario=bundle.scenario_name)
        values.append(est.value)
        rows.append(_row(bundle, "dual_norm", f"t={t:g}", est.value, est.stderr,
                         "ok", cfg.seed))
    if all(v > 0 for v in values):
        slope = fit_loglog_slope(cfg.t_grid, values)
        lo, hi = DUAL_SLOPE_BAND
        status = "pass" if lo <= slope <= hi else "fail"
        rows.append(_row(bundle, "dual_norm", "slope", slope, None, status,
                         cfg.seed, band_lo=lo, band_hi=hi))
    else:
        rows.append(_row(bundle, "dual_norm", "slope", None, None, "fail",
                         cfg.seed, reason="nonpositive-bound"))
    return rows


def check_tv_scaling(bundle: RunBundle):
    cfg = bundle.cfg
    c = cfg.tv_shift
    mu0 = bundle.point_mass(0.0)
    nu0 = bundle.point_mass(c)
    dictionary = [sign_observable(c / 2.0)]
    report = tv_gradient_scaling(bundle.model, mu0, nu0, cfg.t_grid, dictionary,
                                 cfg.dt, cfg.seed)
    rows = [_row(bundle, "tv_slope", label, gap, None, "ok", cfg.seed)
            for label, gap in report.rows()]
    sigma0 = float(bundle.scenario_params.get("sigma", 1.0))
    exact = [tv_sign_reference(c, sigma0, t) for t in cfg.t_grid]
    exact_slope = fit_loglog_slope(cfg.t_grid, exact)
    if report.slope is None:
        rows.append(_row(bundle, "tv_slope", "slope", None, None, "fail",
                         cfg.seed, reason="zero-gap"))
        return rows
    gap = abs(report.slope - exact_slope)
    status = "pass" if gap <= TV_SLOPE_TOL else "fail"
    rows.append(_row(bundle, "tv_slope", "slope", report.slope, None, status,
                     cfg.seed, exact=exact_slope, tol=TV_SLOPE_TOL, shift=c))
    return rows


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
    mean = np.atleast_1d(np.asarray(bundle.initial_law.get("mean", [0.0]), dtype=float))
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
    tang = meanfield_tangent(base, bundle.model, phi)
    errs, rows = [], []
    for eps in cfg.eps_ladder:
        pert = simulate_particles(bundle.model, pushforward(mu0, phi, eps),
                                  grid, cfg.seed)
        quot = (pert.states - base.states) / eps
        err = float(np.max(np.mean(np.linalg.norm(tang.values - quot, axis=2), axis=1)))
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

# What each check needs from the config: the fewest distinct entries of each
# list it reads (t_grid entries are horizons, so they must also lie within
# the model's), for "measure_free_drift" a drift with no measure derivative
# at the check's starting point, and for "mean_preserving_drift" a drift
# whose particle average vanishes, so that E X_t = E X_0.
CHECK_NEEDS: dict[str, dict] = {
    "intrinsic_vs_fd": {"eps_ladder": 1},
    "intrinsic_closed_form": {"mean_preserving_drift": True},
    "classical_gradient": {"measure_free_drift": True},
    "beta_invariance": {"schedules": 2},
    "dual_norm_scaling": {"t_grid": 2},
    "tv_scaling": {"t_grid": 2},
    "wasserstein_lipschitz": {"stability_shifts": 2},
    "moment_bound": {"moment_variances": 1},
    "tangent_fd_order": {"eps_ladder": 2},
}


def _preserves_mean(model: ModelSpec) -> bool:
    """Whether the drift averages to zero over a probe cloud with nonzero mean."""
    probes = np.outer([0.5, 1.0, 2.0], np.ones(model.d))
    b = model.drift(0.0, probes, model.meanfield_drift.moment_vector(probes))
    return bool(np.max(np.abs(np.mean(b, axis=0))) <= 1e-12 * (1.0 + np.max(np.abs(b))))


def _require_needs(cfg: ExperimentConfig, model: ModelSpec, check: str) -> None:
    for need, count in CHECK_NEEDS.get(check, {}).items():
        if need == "measure_free_drift":
            if not model.meanfield_drift.is_measure_free(np.zeros(model.d)):
                raise ConfigError(f"check {check} needs a measure-free drift, "
                                  f"which scenario {cfg.scenario} does not have")
        elif need == "mean_preserving_drift":
            if not _preserves_mean(model):
                raise ConfigError(f"check {check} needs a drift that keeps the particle "
                                  f"mean fixed, which scenario {cfg.scenario} does not have")
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


def _run_one_check(bundle: RunBundle, name: str):
    try:
        return CHECKS[name](bundle), []
    except (MVGradError, FloatingPointError) as exc:
        row = _row(bundle, "intrinsic_estimate", name, None, None, "error",
                   bundle.cfg.seed, error=type(exc).__name__)
        return [row], [{"check": name, "type": type(exc).__name__, "message": str(exc)}]


def run_suite(cfg: ExperimentConfig) -> tuple[list, list]:
    """Execute all declared checks; returns (rows, error records)."""
    bundle = resolve_bundle(cfg)
    names = list(bundle.checks)
    rows_per: list = [None] * len(names)
    errs_per: list = [None] * len(names)
    if cfg.parallel > 1:
        with ThreadPoolExecutor(max_workers=cfg.parallel) as pool:
            futures = {i: pool.submit(_run_one_check, bundle, name)
                       for i, name in enumerate(names)}
            for i, fut in futures.items():
                rows_per[i], errs_per[i] = fut.result()
    else:
        for i, name in enumerate(names):
            rows_per[i], errs_per[i] = _run_one_check(bundle, name)
    rows = [r for chunk in rows_per for r in chunk]
    errors = [e for chunk in errs_per for e in chunk]
    return rows, errors


def write_outputs(cfg: ExperimentConfig, config_text: str, rows: list,
                  errors: list, out_dir: Path, wall_clock: float) -> RunResult:
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

    manifest = {
        "version": __version__,
        "config_text": config_text,
        "resolved_config": cfg.to_dict(),
        "summary": summary,
        "failed_checks": failed,
        "exit_code": exit_code,
        "wall_clock_s": wall_clock,
        "outputs": {"results_csv": csv_path.name,
                    "errors_json": "errors.json" if errors else None},
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return RunResult(rows=rows, errors=errors, exit_code=exit_code, csv_path=csv_path)


def run_experiment(cfg: ExperimentConfig, config_text: str, out_dir) -> RunResult:
    start = time.perf_counter()
    rows, errors = run_suite(cfg)
    wall = time.perf_counter() - start
    return write_outputs(cfg, config_text, rows, errors, Path(out_dir), wall)

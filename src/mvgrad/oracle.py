"""Independent ground truth: finite differences, quadrature, empirical bounds.

Everything here reaches the target quantities by a different route than the
weight-based estimators: common-random-number finite differences of actual
reruns, Gauss-Hermite quadrature on known Gaussian transition laws, and
direct empirical versions of the moment/stability/total-variation bounds.
The only shared code is the particle integrator and measure arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.stats import norm as _norm

from .bismut import Estimate, _check_grid, _mean_stderr, _mode
from .errors import UnequalSupport, UnsupportedScenario
from .measure import EmpiricalMeasure, pushforward, wasserstein
from .model import ModelSpec, Observable, PerturbationField
from .scenarios import get_scenario
from .simulate import TimeGrid, simulate_particles

Array = np.ndarray


# ---------------------------------------------------------------------------
# Common-random-number finite differences
# ---------------------------------------------------------------------------

def _fd_samples(model: ModelSpec, mu0: EmpiricalMeasure, phi, f: Observable,
                grid: TimeGrid, eps: float, seed: int,
                base=None) -> Array:
    """Per-particle difference quotients under shared noise and indices."""
    if base is None:
        base = simulate_particles(model, mu0, grid, seed)
    pert = simulate_particles(model, pushforward(mu0, phi, eps), grid, seed)
    return (f(pert.terminal()) - f(base.terminal())) / eps


def finite_difference_intrinsic(model: ModelSpec, mu0: EmpiricalMeasure,
                                phi: PerturbationField, f: Observable, t: float,
                                grid: TimeGrid, eps: float, seed: int,
                                scenario: str = "") -> Estimate:
    """One-sided difference quotient of the perturbed semigroup value.

    Both runs ride identical Brownian increments and identical initial
    sample indices, so for affine flows the quotient is exactly
    eps-independent and in general the Monte Carlo noise of the difference
    is far below that of either run.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    _check_grid(grid, t)
    value, stderr = _mean_stderr(_fd_samples(model, mu0, phi, f, grid, eps, seed))
    return Estimate(value=value, stderr=stderr, mode=_mode(model), scenario=scenario)


def richardson_intrinsic(model: ModelSpec, mu0: EmpiricalMeasure,
                         phi: PerturbationField, f: Observable, t: float,
                         grid: TimeGrid, eps: float, seed: int,
                         scenario: str = "") -> Estimate:
    """Richardson pair (eps, eps/2): cancels the leading O(eps) bias."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    _check_grid(grid, t)
    base = simulate_particles(model, mu0, grid, seed)
    d_full = _fd_samples(model, mu0, phi, f, grid, eps, seed, base=base)
    d_half = _fd_samples(model, mu0, phi, f, grid, eps / 2.0, seed, base=base)
    value, stderr = _mean_stderr(2.0 * d_half - d_full)
    return Estimate(value=value, stderr=stderr, mode=_mode(model), scenario=scenario)


# ---------------------------------------------------------------------------
# Gaussian closed forms by quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineFlow:
    """One-dimensional affine flow X_t = alpha X_0 + gamma mean(mu0) + G."""

    alpha: float
    gamma: float
    noise_var: float


def _affine_flow(a: float, kappa: float, sigma: float, t: float) -> AffineFlow:
    rate = a + kappa
    alpha = math.exp(-rate * t)
    gamma = math.exp(-a * t) - alpha
    if rate == 0.0:
        var = sigma * sigma * t
    else:
        var = sigma * sigma * (1.0 - math.exp(-2.0 * rate * t)) / (2.0 * rate)
    return AffineFlow(alpha=alpha, gamma=gamma, noise_var=var)


def _gauss_hermite_expect(fun, mean0: float, var0: float, noise_var: float) -> float:
    """E[fun(X0, G)] for independent X0 ~ N(mean0, var0), G ~ N(0, noise_var).

    Uses 201 Gauss-Hermite nodes per variable.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(201)
    weights = weights / weights.sum()
    g = math.sqrt(noise_var) * nodes if noise_var > 0 else np.zeros(1)
    wg = weights if noise_var > 0 else np.ones(1)
    if var0 > 0:
        x0 = mean0 + math.sqrt(var0) * nodes
        wx = weights
    else:
        x0 = np.array([mean0])
        wx = np.ones(1)
    vals = fun(x0[:, None], g[None, :])
    return float(wx @ vals @ wg)


_FPRIME = {
    "coord1": lambda y: np.ones_like(y),
    "sin": np.cos,
    "const1": lambda y: np.zeros_like(y),
}


def gaussian_quadrature_reference(scenario_id: str, f_name: str, t: float,
                                  phi_name: str, x0: Optional[float] = None) -> float:
    """Exact derivative value for an affine scenario via Gauss-Hermite nodes.

    Supports the one-dimensional affine registry entries (constant noise),
    observables with known derivative ("coord1", "sin") plus the
    distributional step observable "sign0" for point-mass starts, and
    perturbations "identity", "const_e1", "neg_const_e1".  ``x0`` replaces
    the scenario's initial law by a point mass (the classical-gradient
    case).  Raises :class:`UnsupportedScenario` otherwise.
    """
    scen = get_scenario(scenario_id)
    if scen.family != "affine" or scen.d != 1:
        raise UnsupportedScenario(
            f"no Gaussian closed form for scenario {scenario_id!r}"
        )
    p = scen.params
    flow = _affine_flow(float(p.get("a", 0.0)), float(p.get("kappa", 0.0)),
                        float(p.get("sigma", 1.0)), t)
    if x0 is not None:
        mean0, var0 = float(x0), 0.0
    else:
        law = scen.initial_law
        if law.get("family") != "gaussian":
            raise UnsupportedScenario("initial law must be Gaussian or a point mass")
        mean0 = float(np.atleast_1d(law.get("mean", 0.0))[0])
        var0 = float(np.atleast_1d(law.get("cov", 1.0))[0])

    if phi_name in ("const_e1", "neg_const_e1"):
        c = 1.0 if phi_name == "const_e1" else -1.0
        phi_of_x0 = None
    elif phi_name == "identity":
        c = None
        phi_of_x0 = lambda x: x
    else:
        raise UnsupportedScenario(f"no closed form for perturbation {phi_name!r}")

    if f_name == "sign0":
        # derivative of E sign(y + G) in y is twice the noise density at -y
        if var0 != 0.0 or phi_of_x0 is not None:
            raise UnsupportedScenario("sign0 reference needs a point mass and constant phi")
        s = math.sqrt(flow.noise_var)
        y = (flow.alpha + flow.gamma) * mean0
        dens = math.exp(-0.5 * (y / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        return (flow.alpha + flow.gamma) * c * 2.0 * dens

    try:
        fprime = _FPRIME[f_name]
    except KeyError:
        raise UnsupportedScenario(f"no closed form for observable {f_name!r}") from None

    a_, g_ = flow.alpha, flow.gamma
    if phi_of_x0 is None:
        fun = lambda x0v, gv: fprime(a_ * x0v + g_ * mean0 + gv) * ((a_ + g_) * c)
    else:
        fun = lambda x0v, gv: fprime(a_ * x0v + g_ * mean0 + gv) * (a_ * x0v + g_ * mean0)
    return _gauss_hermite_expect(fun, mean0, var0, flow.noise_var)


def tv_sign_reference(shift: float, sigma: float, t: float) -> float:
    """Exact separation |E f(x + sW) - E f(x + shift + sW)| for f = sign(. - theta).

    The two starting points are 0 and ``shift``; theta is their midpoint,
    which maximizes the gap over step positions.
    """
    theta = shift / 2.0
    s = sigma * math.sqrt(t)
    return abs(2.0 * (_norm.cdf(theta / s) - _norm.cdf((theta - shift) / s)))


def fit_loglog_slope(ts: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log(values) against log(ts)."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(values, dtype=float)
    if np.any(vals <= 0):
        raise ValueError("log-log fit needs strictly positive values")
    return float(np.polyfit(np.log(ts), np.log(vals), 1)[0])


# ---------------------------------------------------------------------------
# Empirical bound reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    """Synchronous-coupling contraction figures for one initial pair."""

    initial_distance: float
    sup_ratio: float          # (mean_i sup_s |X1-X2|^k)^(1/k) / W_k(mu0, nu0)
    terminal_ratio: float     # W_k(law_t mu0, law_t nu0) / W_k(mu0, nu0)


def stability_report(model: ModelSpec, mu0: EmpiricalMeasure, nu0: EmpiricalMeasure,
                     grid: TimeGrid, seed: int) -> StabilityReport:
    """Couple two runs through identical noise after optimal initial pairing.

    The initial clouds are matched by the exact transport plan so that the
    realized initial cost equals W_k; both ratio outputs are then direct
    empirical versions of the flow's stability constants.
    """
    if mu0.N != nu0.N:
        raise UnequalSupport("stability coupling needs equal sample counts")
    k = model.k
    w0, plan = wasserstein(mu0, nu0, k)
    if w0 == 0.0:
        # identical initial clouds: ratios reported as 0
        return StabilityReport(initial_distance=0.0, sup_ratio=0.0, terminal_ratio=0.0)
    nu_matched = EmpiricalMeasure(nu0.points[plan.pairing])
    run1 = simulate_particles(model, mu0, grid, seed)
    run2 = simulate_particles(model, nu_matched, grid, seed)
    gaps = np.linalg.norm(run1.states - run2.states, axis=2)   # (n+1, N)
    sup_k = float(np.mean(np.max(gaps, axis=0) ** k) ** (1.0 / k))
    wt, _ = wasserstein(run1.terminal_measure(), run2.terminal_measure(), k)
    return StabilityReport(initial_distance=w0, sup_ratio=sup_k / w0,
                           terminal_ratio=wt / w0)


@dataclass(frozen=True)
class MomentReport:
    """sup-in-time moment growth across a ladder of initial laws."""

    initial_moments: tuple    # E-hat |X_0|^k per ladder entry
    sup_moments: tuple        # sup_s E-hat |X_s|^k
    ratios: tuple             # sup / (1 + initial)

    @property
    def max_ratio(self) -> float:
        return max(self.ratios)

    def rows(self) -> list:
        return [(f"init={i0:.6g}", r) for i0, r in zip(self.initial_moments, self.ratios)]


def moment_report(model: ModelSpec, mu0_ladder: Sequence[EmpiricalMeasure],
                  grid: TimeGrid, seed: int,
                  check_ellipticity: bool = True) -> MomentReport:
    """Tabulate sup_s E|X_s|^k against 1 + E|X_0|^k over initial laws.

    ``check_ellipticity=False`` admits degenerate noise (useful for frozen
    or deterministic comparison dynamics).
    """
    k = model.k
    inits, sups, ratios = [], [], []
    for mu0 in mu0_ladder:
        paths = simulate_particles(model, mu0, grid, seed,
                                   check_ellipticity=check_ellipticity)
        norms_k = np.linalg.norm(paths.states, axis=2) ** k    # (n+1, N)
        per_slice = norms_k.mean(axis=1)
        i0 = float(per_slice[0])
        sup = float(per_slice.max())
        inits.append(i0)
        sups.append(sup)
        ratios.append(sup / (1.0 + i0))
    return MomentReport(initial_moments=tuple(inits), sup_moments=tuple(sups),
                        ratios=tuple(ratios))


@dataclass(frozen=True)
class TVScalingReport:
    """Dictionary lower bound on total-variation separation across times.

    ``slope`` is the fitted log-log decay exponent; the diffusive
    prediction for short times is -1/2.  The bound never exceeds the
    total-variation range 2 and can only grow under dictionary
    enlargement.
    """

    ts: tuple
    gaps: tuple
    slope: Optional[float]

    def rows(self) -> list:
        return [(f"t={t:g}", g) for t, g in zip(self.ts, self.gaps)]


def tv_gradient_scaling(model: ModelSpec, mu0: EmpiricalMeasure, nu0: EmpiricalMeasure,
                        t_grid: Sequence[float], dictionary: Sequence[Observable],
                        dt: float, seed: int) -> TVScalingReport:
    """Lower-bound the total-variation gap with a dictionary of |f| <= 1.

    For each time the two laws are simulated at the common step size and
    the largest absolute mean gap over the dictionary is recorded; the gap
    is a genuine lower bound on the total-variation distance because every
    dictionary member is verified to satisfy |f| <= 1 on the realized
    samples.
    """
    if mu0.N != nu0.N:
        raise UnequalSupport("tv scaling needs equal sample counts")
    for f in dictionary:
        if f.bound is None:
            raise ValueError(f"dictionary member {f.name or '<anon>'} must be bounded")
    ts, gaps = [], []
    for t in t_grid:
        n_steps = max(1, int(round(t / dt)))
        grid = TimeGrid(t_end=t, n_steps=n_steps)
        run1 = simulate_particles(model, mu0, grid, seed)
        run2 = simulate_particles(model, nu0, grid, seed)
        x1, x2 = run1.terminal(), run2.terminal()
        best = 0.0
        for f in dictionary:
            f.check_bound(x1)
            f.check_bound(x2)
            best = max(best, abs(float(np.mean(f(x1))) - float(np.mean(f(x2)))))
        ts.append(float(t))
        gaps.append(best)
    slope: Optional[float] = None
    if all(g > 0 for g in gaps) and len(gaps) >= 2:
        slope = fit_loglog_slope(ts, gaps)
    return TVScalingReport(ts=tuple(ts), gaps=tuple(gaps), slope=slope)

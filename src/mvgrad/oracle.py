"""Independent ground truth: finite differences, closed forms, empirical bounds.

Everything here reaches the target quantities by a different route than the
weight-based estimators: common-random-number finite differences of actual
reruns, the exact derivative of affine flows at the sampled cloud, and
direct empirical versions of the moment/stability/total-variation bounds.
The only shared code is the particle integrator and measure arithmetic.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

from .bismut import Estimate, _check_grid, _mean_stderr
from .errors import UnequalSupport, UnsupportedScenario
from .measure import EmpiricalMeasure, pushforward, wasserstein
from .model import ModelSpec
from .simulate import TimeGrid, simulate_particles

Array = np.ndarray


# ---------------------------------------------------------------------------
# Common-random-number finite differences
# ---------------------------------------------------------------------------

def _fd_samples(model: ModelSpec, mu0: EmpiricalMeasure, phi, f: Callable,
                grid: TimeGrid, eps: float, seed: int,
                base=None) -> Array:
    """Per-particle difference quotients under shared noise and indices."""
    if base is None:
        base = simulate_particles(model, mu0, grid, seed)
    pert = _terminal(model, pushforward(mu0, phi, eps), grid, seed)
    return (f(pert) - f(base.terminal())) / eps


def _terminal(model: ModelSpec, mu0: EmpiricalMeasure, grid: TimeGrid, seed: int) -> Array:
    """X_n of a streamed run, which holds two slices at a time."""
    return deque(simulate_particles(model, mu0, grid, seed, stream=True), maxlen=1).pop()


def finite_difference_intrinsic(model: ModelSpec, mu0: EmpiricalMeasure,
                                phi: Callable, f: Callable, t: float,
                                grid: TimeGrid, eps: float, seed: int) -> Estimate:
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
    return Estimate(value=value, stderr=stderr)


def richardson_intrinsic(model: ModelSpec, mu0: EmpiricalMeasure,
                         phi: Callable, f: Callable, t: float,
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
    return Estimate(value=value, stderr=stderr, scenario=scenario)


# ---------------------------------------------------------------------------
# Exact affine derivative at a sampled cloud
# ---------------------------------------------------------------------------

def _affine_flow(family: str, params: dict, t: float) -> tuple:
    """(alpha, gamma, v) of X_t = alpha x + gamma mean(mu0) + G, G ~ N(0, v),
    for an ``affine`` family; another family raises UnsupportedScenario."""
    if family != "affine":
        raise UnsupportedScenario(f"no closed form for family {family!r}")
    a, kappa, sigma = params["a"], params["kappa"], params["sigma"]
    rate = a + kappa
    alpha = math.exp(-rate * t)
    gamma = math.exp(-a * t) - alpha
    decay = t if rate == 0.0 else -math.expm1(-2.0 * rate * t) / (2.0 * rate)
    return alpha, gamma, sigma * sigma * decay


def _expected_fprime(f_name: str, y: Array, var: float) -> Array:
    """E f'(y + G) for G ~ N(0, var), in closed form."""
    if f_name == "coord1":
        return np.ones_like(y)
    if f_name == "sin":
        return math.exp(-0.5 * var) * np.cos(y)
    if f_name == "sign0":
        # sign jumps by 2 at 0, so E sign'(y + G) is twice the density of G at -y,
        # written as scipy.stats.norm.pdf evaluates it, so the bits are its own
        s = math.sqrt(var)
        x = y / s
        return 2.0 * (np.exp(-x**2/2.0) / np.sqrt(2*np.pi) / s)
    if f_name == "const1":
        return np.zeros_like(y)
    raise UnsupportedScenario(f"no closed form for observable {f_name!r}")


def affine_reference(family: str, params: dict, f_name: str, t: float,
                     points: Array, phi_values: Array) -> float:
    """Exact derivative along phi of E f(X_t) at the cloud ``points``.

    Each coordinate of an ``affine`` flow started at the cloud is
    X_t = alpha x_i + gamma m + G with m the cloud mean and G ~ N(0, v), so
    the derivative is mean_i E f'(alpha x_i + gamma m + G) (alpha phi(x_i) +
    gamma mean phi), read on the first coordinate.  ``phi_values`` holds
    phi at each point; a one-point cloud gives the classical gradient.
    Raises :class:`UnsupportedScenario` for another family or an observable
    without a closed form.
    """
    alpha, gamma, var = _affine_flow(family, params, t)
    x = np.asarray(points, dtype=float)[:, 0]
    phi = np.asarray(phi_values, dtype=float)[:, 0]
    fprime = _expected_fprime(f_name, alpha * x + gamma * np.mean(x), var)
    return float(np.mean(fprime * (alpha * phi + gamma * np.mean(phi))))


def tv_sign_reference(family: str, params: dict, shift: float,
                      t: float) -> tuple[float, float]:
    """(theta, exact gap) of the step f = sign(. - theta) between two flows.

    The flows start at the point masses 0 and ``shift``.  From a point mass
    x an ``affine`` flow is X_t = (alpha + gamma) x + G with G ~ N(0, v), so
    the two laws are Gaussians of equal variance, and theta = (alpha +
    gamma) shift / 2 is the midpoint of their means.  There the step's gap
    |E f(X_t^0) - E f(X_t^shift)| equals the total-variation distance
    int |p - q| of the two laws.  Another family raises UnsupportedScenario.
    """
    alpha, gamma, var = _affine_flow(family, params, t)
    theta = (alpha + gamma) * shift / 2.0
    s = math.sqrt(var)
    gap = abs(2.0 * (ndtr(theta / s) - ndtr((theta - (alpha + gamma) * shift) / s)))
    return theta, gap


def fit_loglog_slope(ts: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log(values) against log(ts)."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(values, dtype=float)
    if np.any(vals <= 0):
        raise ValueError("log-log fit needs strictly positive values")
    return float(np.polyfit(np.log(ts), np.log(vals), 1)[0])


# ---------------------------------------------------------------------------
# Empirical stability and moment figures
# ---------------------------------------------------------------------------

def stability_report(model: ModelSpec, mu0: EmpiricalMeasure, nu0: EmpiricalMeasure,
                     grid: TimeGrid, seed: int) -> tuple[float, float, float]:
    """Couple two runs through identical noise after optimal initial pairing.

    The initial clouds are matched by the exact transport plan so that the
    realized initial cost equals W_k = w0.  Returns (w0, sup ratio, terminal
    ratio): (mean_i sup_s |X1 - X2|^k)^(1/k) / w0 and W_k of the terminal
    laws / w0, direct empirical versions of the flow's stability constants.
    """
    if mu0.N != nu0.N:
        raise UnequalSupport("stability coupling needs equal sample counts")
    k = model.k
    w0, plan = wasserstein(mu0, nu0, k)
    if w0 == 0.0:
        return 0.0, 0.0, 0.0        # identical initial clouds: ratios reported as 0
    nu_matched = EmpiricalMeasure(nu0.points[plan.pairing])
    run1 = simulate_particles(model, mu0, grid, seed)
    run2 = simulate_particles(model, nu_matched, grid, seed, stream=True)
    # each particle's largest gap over the time slices, one slice at a time
    sup = np.zeros(mu0.N)
    for x1, x2 in zip(run1.states, run2):
        np.maximum(sup, np.linalg.norm(x1 - x2, axis=1), out=sup)
    sup_k = float(np.mean(sup ** k) ** (1.0 / k))
    # x2 is the last slice drawn, run2's terminal one
    wt, _ = wasserstein(EmpiricalMeasure(run1.terminal()), EmpiricalMeasure(x2), k)
    return w0, sup_k / w0, wt / w0


def moment_report(model: ModelSpec, mu0_ladder: Sequence[EmpiricalMeasure],
                  grid: TimeGrid, seed: int) -> list:
    """Per initial law, (E-hat |X_0|^k, sup_s E-hat |X_s|^k) of its run.

    Each run is streamed and reduced to its per-slice moments, so the ladder
    holds two slices of one run at a time.
    """
    pairs = []
    for mu0 in mu0_ladder:
        per_slice = [float((np.linalg.norm(x, axis=1) ** model.k).mean())
                     for x in simulate_particles(model, mu0, grid, seed, stream=True)]
        pairs.append((per_slice[0], max(per_slice)))
    return pairs


def tv_gradient_scaling(model: ModelSpec, mu0: EmpiricalMeasure, nu0: EmpiricalMeasure,
                        grids: Sequence[TimeGrid], thetas: Sequence[float],
                        seed: int) -> list:
    """Per grid, the gap |mean sign(X_1 - theta) - mean sign(Y_1 - theta)|.

    X and Y start at mu0 and nu0 and ride identical noise on each grid, and
    the step at that grid's theta is read on the first coordinate.  As
    |sign| <= 1, each gap is a lower bound on the total-variation distance
    of the two laws; :func:`tv_sign_reference` gives the theta at which an
    affine flow attains it.
    """
    if mu0.N != nu0.N:
        raise UnequalSupport("tv scaling needs equal sample counts")
    step = lambda mu, grid, theta: float(np.mean(np.sign(
        _terminal(model, mu, grid, seed)[:, 0] - theta)))
    return [abs(step(mu0, grid, theta) - step(nu0, grid, theta))
            for grid, theta in zip(grids, thetas, strict=True)]

"""Monte Carlo derivative estimators built from stochastic-integral weights.

The core identity turns a derivative of an expectation into an expectation
of payoff times weight, with no derivative of the payoff: the weight is the
Ito integral of the schedule derivative against the diffusion's right
pseudo-inverse applied to the tangent flow.  The measure-derivative variant
adds a second weight, driven by the mean-field coupling term instead of the
tangent itself and carrying no schedule factor.

One particle system supplies everything at once: the initial samples, the
driving noise of the decoupled processes, and the frozen-law surrogate.
That reuse saves an O(N) factor, and no bias from it has been resolved: on
``meanfield_ou`` with f = sin, n = 100 and 400 seeds per size, the mean of
the estimate minus the exact value at the cloud lay within 1.5 sigma of 0 at
N = 25, 100, 400 and 1600, for phi = identity and const_e1.  Everything
downstream of the paths is linear in the perturbation, so rescaling phi by a
power of two rescales the estimate bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (GridMismatch, MeasureDependence, NonFinite,
                     ScheduleMismatch)
from .measure import EmpiricalMeasure, lk_norm
from .model import (BismutSchedule, Coefficients, ModelSpec, _single_term, scaled,
                    validate_ellipticity, zeta)
from .simulate import ParticlePaths, TimeGrid, _held, _hold, _reused, simulate_particles
from .tangent import frozen_tangent, meanfield_tangent

Array = np.ndarray


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo value with its standard error.

    ``stderr`` treats per-particle products as i.i.d., which ignores the
    weak coupling between particles.  For :func:`estimate_classical` it is
    the standard error of the residuals left after the quadratic-variation
    control variate.
    """

    value: float
    stderr: float
    scenario: str = ""
    term1: Optional[float] = None
    term2: Optional[float] = None

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


def _zeta_apply(model: ModelSpec, coef: Coefficients, direction: Array) -> Array:
    """zeta of the step's sigma applied per particle to a (N, d) direction -> (N, m)."""
    const = model.diffusion.constant_in_x
    z = zeta(coef.sigma)                                    # (1 or N, m, d)
    if model.d == 1:
        return _single_term(z[:, :, 0], direction)
    return direction @ z[0].T if const else np.einsum("amd,ad->am", z, direction)


def _sum_over_m(a: Array, b: Array) -> Array:
    """Per-particle sum of a * b over the noise axis of two (N, m) arrays."""
    return _single_term(a[:, 0], b[:, 0]) if a.shape[1] == 1 else np.sum(a * b, axis=1)


def _check_grid(grid: TimeGrid, t: float) -> None:
    if abs(grid.t_end - t) > 1e-12:
        raise GridMismatch(f"grid ends at {grid.t_end}, requested t={t}")


def _ito_sums(paths: ParticlePaths, model: ModelSpec, sched: Optional[BismutSchedule],
              tangents: Callable[[], tuple[Iterable, Iterable]],
              qv: bool = False) -> tuple[Array, Array, Optional[Array]]:
    """The per-step Ito loop of every weight: per-particle (w1, w2, qv).

    ``tangents()`` hands over two streams, a frozen one of directions V_s and a
    mean-field one of (V_s, psi_s); either may yield None for a weight not formed.
    Each step reads X_s and its record once and adds w1 += beta'(t_s) <zeta V, dW>,
    w2 += <zeta psi, dW> and, with ``qv``, the quadratic variation
    qv += beta'(t_s)^2 |zeta V|^2 dt, with zeta applied to the record's sigma
    (:func:`_zeta_apply`).  zeta needs elliptic noise, which is checked on at most
    64 of the starting points before the streams are made.  Raises NonFinite if w1
    or w2 is not finite.
    """
    if sched is not None and abs(sched.t - paths.grid.t_end) > 1e-12:
        raise ScheduleMismatch(f"schedule ends at {sched.t}, paths at {paths.grid.t_end}")
    validate_ellipticity(model.diffusion, paths.states[0][:: math.ceil(paths.N / 64)])
    frozen, coupled = tangents()
    n, dt = paths.grid.n_steps, paths.grid.dt
    # beta' over the whole grid at once; each entry equals its one-point value
    bps = [] if sched is None else np.broadcast_to(
        sched.beta_prime(np.arange(n) * dt), n).tolist()
    w1, w2 = np.zeros(paths.N), np.zeros(paths.N)
    q = np.zeros(paths.N) if qv else None
    # zip draws X_s before the tangents, which finish step s - 1 and read X_s, so
    # the tangents' blow-up guards on V_n run before the loop ends at s = n
    for s, (_, V, (_, psi)) in enumerate(zip(paths, frozen, coupled)):
        if s == n:
            break
        coef, dW = paths.at(s, model), paths.noise[s]
        if V is not None:
            zv = _zeta_apply(model, coef, V)
            w1 += bps[s] * _sum_over_m(zv, dW)
            if q is not None:
                q += (bps[s] * bps[s] * dt) * _sum_over_m(zv, zv)
        if psi is not None:
            w2 += _sum_over_m(_zeta_apply(model, coef, psi), dW)
    if not (np.isfinite(w1).all() and np.isfinite(w2).all()):
        raise NonFinite("weight vector contains non-finite entries")
    return w1, w2, q


def weight_frozen(paths: ParticlePaths, V: Iterable[Array], sched: BismutSchedule,
                  model: ModelSpec) -> tuple[Array, Array]:
    """Left-point Ito sum  w_i = sum_s beta'(t_s) <zeta(t_s, X_si) V_si, dW_si>.

    ``V`` streams the frozen-tangent slices (:func:`frozen_tangent`), or is
    their whole array; it is drawn past its last direction, so a stream's
    blow-up guard on V_n runs.  Also returns the quadratic variation
    <w>_i = sum_s beta'(t_s)^2 |zeta(t_s, X_si) V_si|^2 dt, so that
    w^2 - <w> is a mean-zero martingale usable as a control variate (see
    :func:`estimate_classical`).
    """
    w, _, qv = _ito_sums(paths, model, sched, lambda: (V, repeat((None, None))), qv=True)
    return w, qv


def weight_meanfield(paths: ParticlePaths, tangent: Iterable[tuple], model: ModelSpec) -> Array:
    """Coupling weight  w_i = sum_s <zeta(t_s, X_si) psi_si, dW_si>.

    ``tangent`` is the mean-field stream of :func:`meanfield_tangent`, whose
    per-step coupling terms psi are read as drawn; it is drawn to (V_n, None),
    so its blow-up guard on V_n runs.  No schedule derivative appears here:
    the measure-derivative term of the identity enters with unit weight.
    """
    return _ito_sums(paths, model, None, lambda: (repeat(None), tangent))[1]


def _mean_stderr(samples: Array) -> tuple[float, float]:
    n = samples.shape[0]
    mean = float(np.mean(samples))
    if n < 2:
        return mean, 0.0
    return mean, float(np.std(samples, ddof=1) / math.sqrt(n))


def _controlled_mean_stderr(samples: Array, control: Array) -> tuple[float, float]:
    """Mean of ``samples`` corrected by the mean-zero ``control``.

    Subtracts k * control with k = <c, g> / <c, c> on the centred samples,
    a closed form that scales exactly under power-of-two rescaling.  The
    standard error is that of the residuals with ddof = 2 for the fitted
    intercept and slope; estimating k from the same samples leaves an
    O(1/N) bias.  Falls back to the plain mean when the
    control is constant or there are too few samples to fit it.
    """
    n = samples.shape[0]
    if n < 3:
        return _mean_stderr(samples)
    c = control - np.mean(control)
    cc = float(np.dot(c, c))
    if cc == 0.0:
        return _mean_stderr(samples)
    k = float(np.dot(c, samples - np.mean(samples))) / cc
    resid = samples - k * control
    return float(np.mean(resid)), float(np.std(resid, ddof=2) / math.sqrt(n))


def estimate_intrinsic(model: ModelSpec, mu0: EmpiricalMeasure, phi: Callable,
                       f: Callable, t: float, grid: TimeGrid, sched: BismutSchedule,
                       seed: int, scenario: str = "") -> Estimate:
    """Directional measure derivative of mu -> E f(X_t) along phi at mu0.

    One forward loop draws each state X_s, advances the mean-field tangent and
    the frozen tangent from phi(X_0), and adds the step's Ito terms
    (:func:`_ito_sums`) to both weights: the point-derivative term pairs the
    payoff with the frozen tangent's weight w1, which carries beta', and the
    coupling term with the weight w2 of the mean-field psi, which carries none.
    It is linear in phi for fixed seed.  Outside ``reusing_work`` the paths are
    streamed, so an estimate holds their increments and a few (N, d) slices;
    inside it the loop reads the held paths, and the held w2 of (paths, phi)
    serves every schedule, which then runs the frozen tangent alone.
    """
    _check_grid(grid, t)
    paths = simulate_particles(model, mu0, grid, seed, stream=_held.chain is None)
    w2 = _reused(2, lambda k: k[0] is paths and k[1] is phi)

    def tangents():
        coupled = repeat((None, None)) if w2 is not None else meanfield_tangent(paths, model, phi)
        return frozen_tangent(paths, model, np.asarray(phi(paths.states[0]), dtype=float)), coupled

    w1, w2_new, _ = _ito_sums(paths, model, sched, tangents)
    if w2 is None:
        w2_new.flags.writeable = False
        w2 = _hold(2, (paths, phi), w2_new)

    fx = f(paths.terminal())
    g = fx * (w1 + w2)
    value, stderr = _mean_stderr(g)
    return Estimate(value=value, stderr=stderr, scenario=scenario,
                    term1=float(np.mean(fx * w1)), term2=float(np.mean(fx * w2)))


def estimate_classical(model: ModelSpec, x, v, f: Callable, t: float,
                       grid: TimeGrid, sched: BismutSchedule, seed: int,
                       n_particles: int) -> Estimate:
    """Gradient of x -> E f(X_t^x) along v, for measure-free dynamics.

    Monte Carlo over independent copies started at the point x; statistically
    this is the point-mass case of the intrinsic estimator with a constant
    perturbation, and the drift must not depend on the measure: it must
    declare no moments.

    The plain products f * w have variance at least 2 (E f w)^2 for a
    linear payoff under mean reversion, so their relative standard error
    cannot fall below sqrt(2/N).  The estimate therefore subtracts the
    control variate c = w^2 - <w>_T, an exact discrete-time martingale with
    mean zero, with its coefficient fitted in closed form; ``stderr`` is the
    standard error of the residuals, and the fitted coefficient leaves an
    O(1/N) bias.
    """
    _check_grid(grid, t)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if model.meanfield_drift.n:
        raise MeasureDependence("classical gradient requires a drift that declares no moments")
    mu0 = EmpiricalMeasure(np.tile(x, (n_particles, 1)))
    paths = simulate_particles(model, mu0, grid, seed, stream=_held.chain is None)
    v0 = np.tile(v, (n_particles, 1))
    w, _, qv = _ito_sums(paths, model, sched,
                         lambda: (frozen_tangent(paths, model, v0), repeat((None, None))), qv=True)
    g = f(paths.terminal()) * w
    value, stderr = _controlled_mean_stderr(g, w * w - qv)
    return Estimate(value=value, stderr=stderr, term1=value, term2=0.0)


def dual_norm_lower_bound(model: ModelSpec, mu0: EmpiricalMeasure, f: Callable,
                          t: float, grid: TimeGrid, sched: BismutSchedule,
                          dictionary: Sequence[Callable], seed: int) -> Estimate:
    """Max directional derivative over unit-normalized dictionary fields.

    Each field is rescaled to unit L^k(mu0) norm before estimation, so the
    maximum is a lower bound for the dual norm of the measure gradient
    (a richer dictionary can only raise it).  Returns the best estimate.
    """
    if not dictionary:
        raise ValueError("dictionary must be nonempty")
    best: Optional[Estimate] = None
    for phi in dictionary:
        nrm = lk_norm(phi, mu0, model.k)
        if nrm == 0.0:
            continue
        est = estimate_intrinsic(model, mu0, scaled(phi, 1.0 / nrm), f, t, grid, sched,
                                 seed)
        if best is None or est.value > best.value:
            best = est
    if best is None:
        raise ValueError("all dictionary fields have zero norm under mu0")
    return best


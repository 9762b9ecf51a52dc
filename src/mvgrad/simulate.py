"""Euler integration of the interacting particle system.

Owns all path randomness.  Brownian increments come from counter-based
(Philox) streams keyed by (seed, particle index) with the step index
addressing the position inside the stream, so output is bit-identical for
any parallel schedule and any single particle's noise can be regenerated in
isolation.  A tensor is built from one generator, re-keyed per particle to
the state a fresh stream starts in.  Increments are retained in memory
(they are the raw material for every stochastic-integral weight); a budget
guard, which the tangent flows also call, errors out instead of spilling to
disk.  Inside a :func:`reusing_work` block, consecutive simulations on the
same noise (common random numbers) share one read-only tensor, and repeated
ones from equal starting points their read-only paths.  With m = 1 the Euler
step's sum over the noise axis is its one product (:func:`mvgrad.model._single_term`).
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, GridMismatch, MemoryBudgetExceeded, NonFinite
from .measure import EmpiricalMeasure
from .model import BLOWUP_THRESHOLD, ModelSpec, _single_term

Array = np.ndarray

MEMORY_BUDGET_ENV = "MVGRAD_MEMORY_BUDGET_MB"
DEFAULT_MEMORY_BUDGET_MB = 4096

# Uniform draws are clamped away from 0 before the inverse normal CDF; the
# event has probability 2^-53 per draw and would otherwise map to -inf.
_U_FLOOR = 2.0 ** -60

_MASK64 = 2**64 - 1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_end] with n_steps steps."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps


def memory_budget_bytes() -> int:
    """Budget from MVGRAD_MEMORY_BUDGET_MB (default 4096 MB).

    Raises ConfigError unless the value is a finite positive number.
    """
    mb = os.environ.get(MEMORY_BUDGET_ENV)
    if not mb:
        return int(DEFAULT_MEMORY_BUDGET_MB * 1e6)
    try:
        budget = float(mb)
    except ValueError:
        budget = math.nan
    if not (math.isfinite(budget) and budget > 0):
        raise ConfigError(f"{MEMORY_BUDGET_ENV}={mb!r} is not a positive number of MB")
    return int(budget * 1e6)


def _guard_memory(need: int, reads) -> None:
    """Raise MemoryBudgetExceeded if ``need`` bytes of trajectories, plus the paths a
    reusing_work() block keeps unless the request ``reads(key, paths)``, exceed the budget."""
    if _held.kept and not reads(*_held.kept):
        need += _held.kept[1].states.nbytes + _held.kept[1].moment_flow.nbytes
    budget = memory_budget_bytes()
    if need > budget:
        raise MemoryBudgetExceeded(
            f"retained trajectories need {need / 1e6:.0f} MB, budget is "
            f"{budget / 1e6:.0f} MB (set {MEMORY_BUDGET_ENV} to raise it)"
        )


def _noise_tensor(grid: TimeGrid, seed: int, particles: range, m: int) -> Array:
    """Increments of ``particles``, (n_steps, len(particles), m), from one
    Philox set per particle to counter 0 and an empty buffer, the state of
    ``Philox(key=[seed, particle])``."""
    out = np.empty((grid.n_steps, len(particles), m))
    gen = np.random.Generator(np.random.Philox(0))
    state = dict(bit_generator="Philox", buffer=(0,) * 4, buffer_pos=4, has_uint32=0, uinteger=0)
    for j, i in enumerate(particles):
        key = (seed & _MASK64, i & _MASK64)
        gen.bit_generator.state = dict(state, state={"counter": (0,) * 4, "key": key})
        u = gen.random((grid.n_steps, m))
        out[:, j, :] = ndtri(np.maximum(u, _U_FLOOR)) * np.sqrt(grid.dt)
    return out


def particle_increments(seed: int, particle: int, grid: TimeGrid, m: int) -> Array:
    """Increments of one particle's stream, reproducible in isolation."""
    return _noise_tensor(grid, seed, range(particle, particle + 1), m)[:, 0, :]


class _Held(threading.local):
    chain = None                    # inside reusing_work(): (key, value) per level
    kept = None                     # (key, paths) asked for twice on the held tensor
    tensors = integrations = 0      # work_counts()


_held = _Held()


@contextmanager
def reusing_work():
    """Let a call in this block hand back what the last one of its kind built.

    The calling thread holds one entry per level, the last key and what was
    built for it: the noise tensor of a (seed, N, m, grid), the paths last handed
    out on it, and the frozen tangent and coupling weight of one (paths, phi).  A
    new key drops its level's entry and every one below before building anew.
    Paths asked for a second time are also kept until the tensor changes or the
    block ends, so a tensor holds at most two path sets.  Inner blocks join it.
    """
    if _held.chain is not None:
        yield
        return
    _held.chain = []
    try:
        yield
    finally:
        _held.chain = _held.kept = None


def _reused(level: int, matches):
    """The value held at ``level`` if its key ``matches``; else None, with
    that entry and every one below it dropped.  None outside a block."""
    chain = [] if _held.chain is None else _held.chain
    if len(chain) > level and matches(chain[level][0]):
        return chain[level][1]
    del chain[level:]


def _hold(level: int, key, value):
    """``value``, held at ``level`` in place of that entry and every one below."""
    if _held.chain is not None:
        _held.chain[level:] = [(key, value)]
    return value


def work_counts() -> tuple[int, int]:
    """(noise tensors built, paths integrated) so far on the calling thread."""
    return _held.tensors, _held.integrations


def brownian_increments(grid: TimeGrid, N: int, m: int, seed: int) -> Array:
    """Read-only Gaussian(0, dt I) increment tensor of shape (n_steps, N, m).

    Column i is :func:`particle_increments` of particle i, so the output
    does not depend on evaluation order and two calls with equal arguments
    are bit-identical; inside :func:`reusing_work` they are the same array.
    """
    key = (seed, N, m, grid)
    held = _reused(0, lambda k: k == key)
    if held is not None:
        return held
    _held.tensors += 1
    _held.kept = None
    out = _noise_tensor(grid, seed, range(N), m)
    out.flags.writeable = False
    return _hold(0, key, out)


@dataclass(frozen=True)
class ParticlePaths:
    """Time-gridded trajectories with their driving noise retained.

    The read-only ``states`` are (n_steps+1, N, d), ``noise`` (n_steps, N, m),
    and ``moment_flow`` records the empirical moments mu_s(h_l) of each time
    slice, one row per grid node.
    """

    states: Array
    noise: Array
    grid: TimeGrid
    moment_flow: Array

    @property
    def N(self) -> int:
        return self.states.shape[1]

    @property
    def d(self) -> int:
        return self.states.shape[2]

    def terminal(self) -> Array:
        return self.states[-1]

    def terminal_measure(self) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.states[-1])


def _step_guard(X: Array, step: int) -> None:
    # one reduction per step: a nan or inf entry also fails the comparison
    peak = np.abs(X).max()
    if not peak <= BLOWUP_THRESHOLD:
        if not np.isfinite(peak):
            raise NonFinite(f"non-finite state at step {step}", step=step)
        raise NonFinite(f"blow-up guard tripped at step {step}", step=step)


def simulate_particles(model: ModelSpec, mu0: EmpiricalMeasure, grid: TimeGrid,
                       seed: int) -> ParticlePaths:
    """Integrate the N-particle interacting system.

    Each step computes the empirical drift moments of the current slice
    (the only cross-particle synchronization), then updates all particles
    independently with their own noise.  Output is fully determined by
    (model, mu0, grid, seed); inside :func:`reusing_work` the held or kept paths
    of the same model, noise and starting points (bit for bit) are returned and held.
    """
    if grid.t_end > model.horizon + 1e-12:
        raise GridMismatch(f"grid end {grid.t_end} exceeds model horizon {model.horizon}")
    if mu0.d != model.d:
        raise ValueError(f"initial measure dimension {mu0.d} != model dimension {model.d}")
    N, d = mu0.points.shape
    n = grid.n_steps
    dt = grid.dt
    start = mu0.points.tobytes()
    # a kept hit reads the kept paths, and a new tensor frees them
    _guard_memory(8 * N * ((n + 1) * d + n * model.m),
                  lambda key, _: key[0] is model and key[2] == start)

    dW = brownian_increments(grid, N, model.m, seed)
    matches = lambda k: k[0] is model and k[1] is dW and k[2] == start
    held = _reused(1, matches)
    if held is not None:
        _held.kept = ((model, dW, start), held)
        return held
    if _held.kept is not None and matches(_held.kept[0]):
        return _hold(1, *_held.kept)
    _held.integrations += 1
    states = np.empty((n + 1, N, d))
    states[0] = mu0.points
    drift = model.meanfield_drift
    flow = np.empty((n + 1, drift.n))

    X = states[0]
    for s in range(n):
        t = s * dt
        z = drift.moment_vector(X)
        flow[s] = z
        b = model.drift(t, X, z)
        sig = model.diffusion(t, X if not model.diffusion.constant_in_x else X[:1])
        if model.m == 1:
            incr = _single_term(sig[:, :, 0], dW[s])
        elif sig.shape[0] == 1 and N > 1:
            incr = dW[s] @ sig[0].T
        else:
            incr = np.einsum("idm,im->id", sig, dW[s])
        X = np.add(X, b * dt, out=states[s + 1])
        X += incr
        _step_guard(X, s + 1)
    flow[n] = drift.moment_vector(X)
    states.flags.writeable = flow.flags.writeable = False
    return _hold(1, (model, dW, start),
                 ParticlePaths(states=states, noise=dW, grid=grid, moment_flow=flow))

"""Euler integration of the interacting particle system.

Brownian increments come from counter-based (Philox) streams keyed by
(seed, particle index) through :func:`mvgrad.measure._stream`, which keys
every stream, with the step index addressing the position inside the stream,
so output is bit-identical for any parallel schedule and any single particle's
noise can be regenerated in isolation.  Increments are retained in memory
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
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator
import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, GridMismatch, MemoryBudgetExceeded, NonFinite
from .measure import EmpiricalMeasure, _stream
from .model import BLOWUP_THRESHOLD, ModelSpec, _single_term

Array = np.ndarray

MEMORY_BUDGET_ENV = "MVGRAD_MEMORY_BUDGET_MB"
DEFAULT_MEMORY_BUDGET_MB = 4096

# Uniform draws are clamped away from 0 before the inverse normal CDF; the
# event has probability 2^-53 per draw and would otherwise map to -inf.
_U_FLOOR = 2.0 ** -60


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


def _guard_memory(need: int, reads) -> int:
    """Raise MemoryBudgetExceeded if ``need`` bytes of trajectories, plus the paths a
    reusing_work() block holds unless the request ``reads(key, paths)`` them or frees
    them, exceed the budget; else return that total."""
    chain = _held.chain or ()
    if len(chain) > 1 and not reads(*chain[1]):
        need += chain[1][1].states.nbytes + chain[1][1].moment_flow.nbytes
    budget = memory_budget_bytes()
    if need > budget:
        raise MemoryBudgetExceeded(
            f"retained trajectories need {need / 1e6:.0f} MB, budget is "
            f"{budget / 1e6:.0f} MB (set {MEMORY_BUDGET_ENV} to raise it)"
        )
    return need


def _noise_tensor(grid: TimeGrid, seed: int, N: int, m: int) -> Array:
    """Increments of N particles, (n_steps, N, m), from one generator re-keyed
    per particle i to the fresh stream ``Philox(key=[seed, i])``."""
    out = np.empty((grid.n_steps, N, m))
    gen = None
    for i in range(N):
        gen = _stream(seed, i, gen)
        u = gen.random((grid.n_steps, m))
        out[:, i, :] = ndtri(np.maximum(u, _U_FLOOR)) * np.sqrt(grid.dt)
    return out


class _Held(threading.local):
    chain = None                    # inside reusing_work(): (key, value) per level
    tensors = integrations = 0      # work_counts()


_held = _Held()


@contextmanager
def reusing_work():
    """Let a call in this block hand back what the last one of its kind built.

    The calling thread holds one entry per level, the last key and what was
    built for it: the noise tensor of a (seed, N, m, grid), the paths last built
    on it, and the coupling weight of one (paths, phi).  A new key drops its
    level's entry and every one below before building anew, so a tensor holds
    at most one path set; a streamed run builds nothing into the chain.  Inner
    blocks join it.
    """
    if _held.chain is not None:
        yield
        return
    _held.chain = []
    try:
        yield
    finally:
        _held.chain = None


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

    Column i is particle i's own stream, ``Philox(key=[seed, i])`` from its
    start, so the output does not depend on evaluation order or on N, and two
    calls with equal arguments are bit-identical; inside :func:`reusing_work`
    they are the same array.
    """
    key = (seed, N, m, grid)
    held = _reused(0, lambda k: k == key)
    if held is not None:
        return held
    _held.tensors += 1
    out = _noise_tensor(grid, seed, N, m)
    out.flags.writeable = False
    return _hold(0, key, out)


@dataclass(frozen=True)
class ParticlePaths:
    """Time-gridded trajectories with their driving noise retained.

    The read-only ``states`` are (n_steps+1, N, d), or a stream's two slices
    (:func:`simulate_particles`), ``noise`` (n_steps, N, m), and ``moment_flow``
    records the empirical moments mu_s(h_l) of each time slice, one row per grid
    node.  Iterating reads X_0, ..., X_n; a stream draws each as it is read.
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

    def __iter__(self) -> Iterator[Array]:
        return iter(self.states)

    def terminal(self) -> Array:
        return self.states[self.grid.n_steps]


class _Slices:
    """A stream's states: X_s is slice s % len(slices) until drawn over; iterating draws."""

    def __init__(self, slices: Array, steps: Iterator[Array]):
        self.slices, self.steps = slices, steps
        self.shape, self.nbytes = slices.shape, slices.nbytes

    def __getitem__(self, s: int) -> Array:
        return self.slices[s % len(self.slices)]

    def __iter__(self) -> Iterator[Array]:
        return self.steps


def _step_guard(X: Array, step: int) -> None:
    # one reduction per step: a nan or inf entry also fails the comparison
    peak = np.abs(X).max()
    if not peak <= BLOWUP_THRESHOLD:
        if not np.isfinite(peak):
            raise NonFinite(f"non-finite state at step {step}")
        raise NonFinite(f"blow-up guard tripped at step {step}")


def _euler(model: ModelSpec, dW: Array, dt: float, slices: Array,
           flow: Array) -> Iterator[Array]:
    """X_0 = slices[0], ..., X_n on dW, each drawn into slices[s % len(slices)] with its
    moments in ``flow``; an overflow raises FloatingPointError (an error row)."""
    drift, X = model.meanfield_drift, slices[0]
    for s in range(len(dW)):
        with np.errstate(over="raise"):
            flow[s] = z = drift.moment_vector(X)
        yield X
        with np.errstate(over="raise"):
            t = s * dt
            b = model.drift(t, X, z)
            sig = model.diffusion(t, X if not model.diffusion.constant_in_x else X[:1])
            if model.m == 1:
                incr = _single_term(sig[:, :, 0], dW[s])
            elif sig.shape[0] == 1 and len(X) > 1:
                incr = dW[s] @ sig[0].T
            else:
                incr = np.einsum("idm,im->id", sig, dW[s])
            X = np.add(X, b * dt, out=slices[(s + 1) % len(slices)])
            X += incr
            _step_guard(X, s + 1)
    flow[-1] = drift.moment_vector(X)
    yield X


def simulate_particles(model: ModelSpec, mu0: EmpiricalMeasure, grid: TimeGrid,
                       seed: int, stream: bool = False):
    """Integrate the N-particle interacting system.

    Each step computes the empirical drift moments of the current slice
    (the only cross-particle synchronization), then updates all particles
    independently with their own noise.  Output is fully determined by
    (model, mu0, grid, seed); inside :func:`reusing_work` the held paths of the
    same model, noise and starting points (bit for bit) are returned, and any
    other paths are built and held in their place.  With ``stream``, paths that
    draw X_0, ..., X_n as they are iterated (the held paths on a hit) and read as
    stored ones for the steps drawn: ``states[s]`` is valid until the next but one
    is drawn, and ``moment_flow[s]`` is recorded when X_s is.  A stream leaves the
    work chain as it found it.
    """
    if grid.t_end > model.horizon + 1e-12:
        raise GridMismatch(f"grid end {grid.t_end} exceeds model horizon {model.horizon}")
    if mu0.d != model.d:
        raise ValueError(f"initial measure dimension {mu0.d} != model dimension {model.d}")
    N, d = mu0.points.shape
    n = grid.n_steps
    start = mu0.points.tobytes()
    # held paths sit on the held tensor, so they match on model and start alone
    same = lambda key: key[0] is model and key[1] == start
    # a hit reads the held paths, a stored build drops them first and a new tensor
    # frees them, so only a stream from another start is counted beside them
    _guard_memory(8 * N * ((2 if stream else n + 1) * d + n * model.m),
                  lambda key, _: not stream or same(key)
                  or _held.chain[0][0] != (seed, N, model.m, grid))

    dW = brownian_increments(grid, N, model.m, seed)
    chain = [] if _held.chain is None else _held.chain
    if len(chain) > 1 and same(chain[1][0]):
        return chain[1][1]
    _held.integrations += 1
    if not stream:
        del chain[1:]
    flow = np.empty((n + 1, model.meanfield_drift.n))
    states = np.empty((2 if stream else n + 1, N, d))
    states[0] = mu0.points
    steps = _euler(model, dW, grid.dt, states, flow)
    if stream:
        return ParticlePaths(states=_Slices(states, steps), noise=dW, grid=grid,
                             moment_flow=flow)
    deque(steps, maxlen=0)
    states.flags.writeable = flow.flags.writeable = False
    return _hold(1, (model, start),
                 ParticlePaths(states=states, noise=dW, grid=grid, moment_flow=flow))

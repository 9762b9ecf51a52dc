"""Problem instances: drift and diffusion coefficients, schedules.

Coefficient callables follow one batching convention throughout the package:
the state argument is an (N, d) array of particle positions and the return
value carries the particle axis first.  Concretely,

* ``F(t, x, z)``          -> (N, d)       mean-field drift, z an (n,) moment vector
* ``grad_x_F(t, x, z)``   -> (N, d, d)    entry [i, a, b] = dF_a/dx_b
* ``grad_z_F(t, x, z)``   -> (N, d, n)    entry [i, a, l] = dF_a/dz_l; none when n = 0
* ``h[l](x)``             -> (N,)         moment functionals
* ``grad_h[l](x)``        -> (N, d)
* ``sigma(t, x)``         -> (N, d, m)
* ``grad_sigma(t, x)``    -> (N, d, m, d) entry [i, a, b, j] = d sigma_ab / dx_j
* singular ``eval(t, x)`` -> (N, d)
* singular ``grad(t, x)`` -> (N, d, d)    entry [i, a, b] = d b0_a/dx_b
* payoff ``f(x)``         -> (N,)
* perturbation ``phi(x)`` -> (N, d)       a field pushing the initial law around

Scalar ``t`` everywhere; grids are uniform and coefficients may be
time-dependent but default to autonomous.  All objects here are immutable
after construction and evaluation functions must be pure, so instances can
be shared freely across parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFinite, SingularDiffusion

Array = np.ndarray

#: Hard ceiling on |X| used by the integrators' blow-up guard.
BLOWUP_THRESHOLD = 1e8

#: Largest condition number of a = sigma sigma* that
#: :func:`validate_ellipticity` accepts.
COND_CAP = 1e8


def _single_term(a, b) -> Array:
    """A sum over a length-one axis as its one product, + 0.0 as sums start at +0.0."""
    out = a * b
    out += 0.0
    return out


@dataclass(frozen=True)
class CylindricalDrift:
    """Mean-field drift of cylindrical form F(x, mu(h_1), ..., mu(h_n)).

    The measure enters only through the n = len(h) scalar moments mu(h_l),
    which is what makes both the particle update and the measure-derivative
    contraction O(N) per step.  ``grad_z_F`` and ``grad_h`` together encode
    the measure derivative: its action at (x, mu) on a point y is the
    matrix sum_l dF/dz_l(x, z) (x) grad_h_l(y).  A drift that does not read
    the measure declares no moments: ``F`` and ``grad_x_F`` alone, z empty.
    """

    F: Callable[[float, Array, Array], Array]
    grad_x_F: Callable[[float, Array, Array], Array]
    grad_z_F: Optional[Callable[[float, Array, Array], Array]] = None
    h: tuple = ()
    grad_h: tuple = ()

    def __post_init__(self):
        if len(self.h) != len(self.grad_h):
            raise ValueError("h and grad_h must list the same number of moments")
        if self.h and self.grad_z_F is None:
            raise ValueError("a drift that declares moments needs grad_z_F")

    @property
    def n(self) -> int:
        return len(self.h)

    def moment_vector(self, points: Array) -> Array:
        """Empirical moments (mu(h_1), ..., mu(h_n)) of a point cloud."""
        return np.array([np.add.reduce(hl(points)) / len(points) for hl in self.h])


@dataclass(frozen=True)
class SingularDrift:
    """Regularized stand-in b0 for a locally integrable drift component.

    ``eval`` must already include the delta-regularization so every value
    is finite; ``grad`` is its exact state gradient.
    """

    eval: Callable[[float, Array], Array]
    grad: Callable[[float, Array], Array]

    def __call__(self, t: float, x: Array) -> Array:
        out = np.asarray(self.eval(t, x), dtype=float)
        if not np.all(np.isfinite(out)):
            raise NonFinite("regularized singular drift returned a non-finite value")
        return out


@dataclass(frozen=True)
class Diffusion:
    """Noise coefficient sigma(t, x) in R^{d x m}.

    ``grad_sigma`` may be omitted for diffusions constant in the state
    (set ``constant_in_x=True``); tangent integration requires one of the
    two.
    """

    sigma: Callable[[float, Array], Array]
    grad_sigma: Optional[Callable[[float, Array], Array]] = None
    constant_in_x: bool = False

    def __call__(self, t: float, x: Array) -> Array:
        return np.asarray(self.sigma(t, x), dtype=float)


def scaled(phi: Callable, factor: float) -> Callable:
    """The perturbation field factor * phi."""
    return lambda x: factor * np.asarray(phi(x), dtype=float)


@dataclass(frozen=True)
class BismutSchedule:
    """Weighting schedule beta on [0, t] with beta(0)=0 and beta(t)=1.

    Any C^1 schedule with those endpoints is admissible; estimates must
    not depend on the choice beyond Monte Carlo noise, which is exactly
    what the invariance check exercises.
    """

    beta: Callable[[Array], Array]
    beta_prime: Callable[[Array], Array]
    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("schedule terminal time must be positive")
        b0 = float(self.beta(np.array(0.0)))
        bt = float(self.beta(np.array(self.t)))
        if abs(b0) > 1e-12 or abs(bt - 1.0) > 1e-12:
            raise ValueError(f"schedule must satisfy beta(0)=0, beta(t)=1; got {b0}, {bt}")


def linear_schedule(t: float) -> BismutSchedule:
    return BismutSchedule(beta=lambda s: np.asarray(s) / t,
                          beta_prime=lambda s: np.full_like(np.asarray(s, dtype=float), 1.0 / t),
                          t=t)


def quadratic_schedule(t: float) -> BismutSchedule:
    return BismutSchedule(beta=lambda s: (np.asarray(s) / t) ** 2,
                          beta_prime=lambda s: 2.0 * np.asarray(s) / t ** 2, t=t)


def sine_schedule(t: float) -> BismutSchedule:
    w = math.pi / (2.0 * t)
    return BismutSchedule(beta=lambda s: np.sin(w * np.asarray(s)),
                          beta_prime=lambda s: w * np.cos(w * np.asarray(s)), t=t)


SCHEDULE_FACTORIES = {
    "linear": linear_schedule,
    "quadratic": quadratic_schedule,
    "sine": sine_schedule,
}


@dataclass(frozen=True)
class ModelSpec:
    """A full problem instance.

    The drift splits as b = b0 + F(x, mu(h)) with b0 the optional
    regularized singular part and F the cylindrical mean-field part;
    :meth:`drift` and :meth:`drift_grad_x` are the only places that add
    the two.  ``k`` is the Wasserstein exponent the instance lives in and
    ``horizon`` the largest admissible terminal time.
    """

    d: int
    m: int
    k: float
    meanfield_drift: CylindricalDrift
    diffusion: Diffusion
    horizon: float
    singular_drift: Optional[SingularDrift] = None

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise ValueError("state and noise dimensions must be >= 1")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if not self.k >= 1:
            raise ValueError("Wasserstein exponent k must be >= 1")

    @property
    def has_singular_part(self) -> bool:
        return self.singular_drift is not None

    def drift(self, t: float, x: Array, z: Array) -> Array:
        """The full drift F(t, x, z) + b0(t, x), (N, d)."""
        b = np.asarray(self.meanfield_drift.F(t, x, z), dtype=float)
        if self.singular_drift is not None:
            b = b + self.singular_drift(t, x)
        return b

    def drift_grad_x(self, t: float, x: Array, z: Array) -> Array:
        """State gradient of :meth:`drift`, (N, d, d)."""
        G = np.asarray(self.meanfield_drift.grad_x_F(t, x, z), dtype=float)
        if self.singular_drift is not None:
            G = G + np.asarray(self.singular_drift.grad(t, x), dtype=float)
        return G


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def zeta(diffusion: Diffusion, t: float, x) -> Array:
    """Right pseudo-inverse sigma*(sigma sigma*)^{-1} of the diffusion.

    This is the matrix that converts a state-space direction into the noise
    coordinates paired against the Brownian increments: for an (N, d) batch
    x the result is (N, m, d), with sigma(t,x) @ zeta(t,x) = I_d per point.
    Any other shape of x raises ValueError.  Conditioning is
    :func:`validate_ellipticity`'s job; an exactly singular a = sigma sigma*
    raises :class:`SingularDiffusion`.  For d = 1, zeta is sigma*/a
    elementwise.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x must be an (N, d) array, got {x.shape}")
    sig = diffusion(t, x)                       # (N, d, m)
    sig_t = np.swapaxes(sig, 1, 2)
    a = _single_term(sig, sig_t) if sig.shape[2] == 1 else sig @ sig_t   # (N, d, d)
    if sig.shape[1] == 1:
        if not a.all():
            raise SingularDiffusion(f"sigma sigma* vanishes at t={t}")
        out = sig_t / a                         # sigma* a^{-1}: (N, m, 1)
    else:
        try:
            z = np.linalg.solve(a, sig)         # a^{-1} sigma: (N, d, m)
        except np.linalg.LinAlgError as exc:
            raise SingularDiffusion(str(exc)) from exc
        out = np.swapaxes(z, 1, 2)              # sigma* a^{-1}: (N, m, d)
    return out


def validate_ellipticity(diffusion: Diffusion, probe_points) -> None:
    """Raise :class:`SingularDiffusion` unless sigma sigma* is elliptic at t = 0.

    Over the probe points, a nonempty (N, d) array (any other shape raises
    ValueError), the smallest eigenvalue of a = sigma sigma* must exceed
    1e-10 and the condition number stay within ``COND_CAP``.
    """
    pts = np.asarray(probe_points, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError(f"probe points must be an (N, d) array with N >= 1, got {pts.shape}")
    sig = diffusion(0.0, pts)
    eigs = np.linalg.eigvalsh(sig @ np.swapaxes(sig, 1, 2))
    lo, hi = float(eigs[:, 0].min()), float(eigs[:, -1].max())
    cond = math.inf if lo <= 0 else hi / lo
    if not (lo > 1e-10 and cond <= COND_CAP):
        raise SingularDiffusion(
            f"ellipticity check failed: min eig {lo:.3g}, condition {cond:.3g}"
        )

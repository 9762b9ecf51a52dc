"""Linear variational flows along stored particle paths.

Two variants share one recursion.  The frozen-measure tangent differentiates
the decoupled dynamics with respect to the starting point, so only the state
gradient of the drift enters.  The mean-field tangent additionally carries
the measure-derivative coupling: each particle feels the average, over the
whole system, of the drift's measure derivative contracted with every other
particle's tangent.  For cylindrical drifts that coupling costs O(N n) per
step instead of O(N^2).

Both recursions take the drift's state gradient from
:meth:`ModelSpec.drift_grad_x`, which includes the exact gradient of a
regularized singular part b0.  They are certified only when b0 is absent
(the smooth regime, where the transformed and plain variational equations
coincide).  With b0 present the recursion is the exact variational
equation of the delta-regularized drift, but the paper does not certify
the plain variational equation as delta -> 0, so the runner labels such
rows mode=heuristic.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import MissingGradSigma, NonFinite
from .model import BLOWUP_THRESHOLD, CylindricalDrift, ModelSpec, _single_term
from .simulate import ParticlePaths, _guard_memory

Array = np.ndarray


def _diffusion_terms(model: ModelSpec, t: float, X: Array, V: Array, dW: Array) -> Array:
    """(sum_j d_j sigma V_j) dW for one step; zero for state-constant sigma."""
    diff = model.diffusion
    if diff.constant_in_x:
        return 0.0
    if diff.grad_sigma is None:
        raise MissingGradSigma(
            "tangent integration needs grad_sigma for a state-dependent diffusion"
        )
    S = np.asarray(diff.grad_sigma(t, X), dtype=float)      # (N, d, m, j)
    directional = np.einsum("admj,aj->adm", S, V)           # (N, d, m)
    return np.einsum("adm,am->ad", directional, dW)


def _variational_flow(paths: ParticlePaths, model: ModelSpec, V0: Array,
                      coupled: bool) -> tuple[Array, Optional[Array]]:
    """The tangent recursion along stored paths, from V_0 = V0.

    Each step adds (grad_x b) V dt and (grad sigma . V) dW; with ``coupled``
    the measure-derivative term psi joins the drift part and is recorded
    per step.  Returns the (n_steps+1, N, d) values and psi (None unless
    coupled).  The memory guard counts the paths it reads and the arrays
    it allocates.
    """
    if V0.shape != (paths.N, paths.d):
        raise ValueError(f"start directions must have shape {(paths.N, paths.d)}, "
                         f"got {V0.shape}")
    drift = model.meanfield_drift
    n = paths.grid.n_steps
    dt = paths.grid.dt
    _guard_memory(paths.states.nbytes + paths.noise.nbytes
                  + 8 * paths.N * paths.d * (n + 1 + (n if coupled else 0)),
                  lambda _, kept: kept is paths)
    values = np.empty_like(paths.states)
    values[0] = V0
    psi = np.empty((n, paths.N, paths.d)) if coupled else None
    V = values[0]
    for s in range(n):
        t = s * dt
        X = paths.states[s]
        z = paths.moment_flow[s]
        G = model.drift_grad_x(t, X, z)
        drift_term = np.einsum("aij,aj->ai", G, V)
        if coupled:
            psi[s] = cylindrical_coupling(drift, t, X, z, V)
            drift_term += psi[s]
        noise_term = _diffusion_terms(model, t, X, V, paths.noise[s])
        V = np.add(V, drift_term * dt, out=values[s + 1])
        V += noise_term
        if not np.abs(V).max() <= BLOWUP_THRESHOLD:
            raise NonFinite(f"tangent blow-up at step {s + 1}", step=s + 1)
    return values, psi


def frozen_tangent(paths: ParticlePaths, model: ModelSpec, v0: Array) -> Array:
    """Derivative of the decoupled flow in its starting point, along v0.

    Integrates V' = (grad_x b) V dt + (grad sigma . V) dW along the stored
    paths with the measure flow frozen at the recorded moments and returns
    the (n_steps+1, N, d) values.  Linear in v0 (bit-exactly so for
    power-of-two rescalings).
    """
    return _variational_flow(paths, model, np.asarray(v0, dtype=float), coupled=False)[0]


def cylindrical_coupling(drift: CylindricalDrift, t: float, X: Array, z: Array,
                         V: Array) -> Array:
    """Empirical measure-derivative coupling for one time slice.

    Returns the (N, d) array whose row i is the system average of the
    drift's measure derivative at particle i contracted against every
    particle's tangent: first the n scalars g_l = mean_j grad_h_l(X_j).V_j,
    then dF/dz(t, X_i, z) @ g, which is zero for n = 0 and one product for 1.
    """
    if drift.n == 0:
        return np.zeros_like(V)
    g = np.empty(drift.n)
    for l, gl in enumerate(drift.grad_h):
        gV = np.asarray(gl(X), dtype=float) * V
        g[l] = np.add.reduce(np.add.reduce(gV, axis=1)) / len(X)
    gz = np.asarray(drift.grad_z_F(t, X, z), dtype=float)   # (N, d, n)
    return _single_term(gz[:, :, 0], g) if drift.n == 1 else gz @ g


def meanfield_tangent(paths: ParticlePaths, model: ModelSpec, phi) -> tuple[Array, Array]:
    """Derivative of the particle flow along an initial-law perturbation phi.

    Starts from V_0 = phi(X_0) and adds the measure-derivative coupling to
    the frozen recursion each step.  The expectation in the coupling is the
    in-system empirical average (the propagation-of-chaos surrogate); see
    :mod:`mvgrad.bismut` for what its bias measured.
    Returns the (n_steps+1, N, d) values and the (n_steps, N, d) coupling
    terms psi, which the second stochastic-integral weight reuses.
    """
    V0 = np.asarray(phi(paths.states[0]), dtype=float)
    return _variational_flow(paths, model, V0, coupled=True)

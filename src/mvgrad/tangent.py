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
the plain variational equation as delta -> 0, so estimates carry mode
"heuristic".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MissingGradSigma, NonFinite
from .model import BLOWUP_THRESHOLD, CylindricalDrift, ModelSpec
from .simulate import ParticlePaths

Array = np.ndarray


@dataclass(frozen=True)
class TangentPaths:
    """Per-particle derivative trajectories V along a stored base run.

    ``kind`` is "frozen" (derivative in the starting point, measure flow
    held fixed) or "meanfield" (full derivative along an initial-law
    perturbation).  Mean-field tangents retain the per-step coupling term
    ``psi`` because the same contraction reappears inside the second
    stochastic-integral weight.
    """

    values: Array
    kind: str
    psi: Optional[Array] = None


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
    coupled).
    """
    drift = model.meanfield_drift
    n = paths.grid.n_steps
    dt = paths.grid.dt
    values = np.empty_like(paths.states)
    values[0] = V0
    psi = np.empty((n, paths.N, paths.d)) if coupled else None
    V = np.array(V0, copy=True)
    for s in range(n):
        t = s * dt
        X = paths.states[s]
        z = paths.moment_flow[s]
        G = model.drift_grad_x(t, X, z)
        drift_term = np.einsum("aij,aj->ai", G, V)
        if coupled:
            psi[s] = cylindrical_coupling(drift, t, X, z, V)
            drift_term = drift_term + psi[s]
        V = V + drift_term * dt + _diffusion_terms(model, t, X, V, paths.noise[s])
        if not np.max(np.abs(V)) <= BLOWUP_THRESHOLD:
            raise NonFinite(f"tangent blow-up at step {s + 1}", step=s + 1)
        values[s + 1] = V
    return values, psi


def frozen_tangent(paths: ParticlePaths, model: ModelSpec, v0: Array) -> TangentPaths:
    """Derivative of the decoupled flow in its starting point, along v0.

    Integrates V' = (grad_x b) V dt + (grad sigma . V) dW along the stored
    paths with the measure flow frozen at the recorded moments.  Linear in
    v0 (bit-exactly so for power-of-two rescalings).
    """
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (paths.N, paths.d):
        raise ValueError(f"v0 must have shape {(paths.N, paths.d)}, got {v0.shape}")
    values, _ = _variational_flow(paths, model, v0, coupled=False)
    return TangentPaths(values=values, kind="frozen")


def cylindrical_coupling(drift: CylindricalDrift, t: float, X: Array, z: Array,
                         V: Array) -> Array:
    """Empirical measure-derivative coupling for one time slice.

    Returns the (N, d) array whose row i is the system average of the
    drift's measure derivative at particle i contracted against every
    particle's tangent: first the n scalars g_l = mean_j grad_h_l(X_j).V_j,
    then the per-particle contraction dF/dz(t, X_i, z) @ g.
    """
    if drift.n == 0:
        return np.zeros_like(V)
    g = np.empty(drift.n)
    for l, gl in enumerate(drift.grad_h):
        g[l] = float(np.mean(np.sum(np.asarray(gl(X), dtype=float) * V, axis=1)))
    gz = np.asarray(drift.grad_z_F(t, X, z), dtype=float)   # (N, d, n)
    return gz @ g


def meanfield_tangent(paths: ParticlePaths, model: ModelSpec, phi) -> TangentPaths:
    """Derivative of the particle flow along an initial-law perturbation phi.

    Starts from V_0 = phi(X_0) and adds the measure-derivative coupling to
    the frozen recursion each step.  The expectation in the coupling is the
    in-system empirical average (the propagation-of-chaos surrogate), which
    introduces an O(N^{-1/2}) bias absorbed into downstream tolerances.
    """
    V0 = np.asarray(phi(paths.states[0]), dtype=float)
    if V0.shape != (paths.N, paths.d):
        raise ValueError("phi must map (N, d) states to (N, d) directions")
    values, psi = _variational_flow(paths, model, V0, coupled=True)
    return TangentPaths(values=values, kind="meanfield", psi=psi)

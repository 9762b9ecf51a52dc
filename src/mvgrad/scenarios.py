"""Built-in coefficient families and the scenario registry.

A scenario bundles a model builder with a default initial law, named
observables and perturbation fields, and the list of verification checks
it is meant to exercise.  Everything a scenario produces is immutable and
rebuilt on demand, so runs never share mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnknownFamily
from .model import (CylindricalDrift, Diffusion, ModelSpec, Observable,
                    PerturbationField, SingularDrift)

Array = np.ndarray


# ---------------------------------------------------------------------------
# Coefficient families
# ---------------------------------------------------------------------------

def _identity_moments(d: int):
    """Coordinate means as the moment functionals: h_l(x) = x_l."""
    hs, grads = [], []
    for l in range(d):
        def hl(x, l=l):
            return x[:, l]
        def gl(x, l=l):
            out = np.zeros_like(x)
            out[:, l] = 1.0
            return out
        hs.append(hl)
        grads.append(gl)
    return tuple(hs), tuple(grads)


def affine_drift(d: int, a: float, kappa: float) -> CylindricalDrift:
    """F(x, z) = -a x + kappa (z - x) with z the coordinate-mean vector."""
    hs, grads = _identity_moments(d)
    eye = np.eye(d)

    def F(t, x, z):
        return -a * x + kappa * (z[None, :] - x)

    def grad_x_F(t, x, z):
        return np.broadcast_to(-(a + kappa) * eye, (x.shape[0], d, d))

    def grad_z_F(t, x, z):
        return np.broadcast_to(kappa * eye, (x.shape[0], d, d))

    return CylindricalDrift(n=d, F=F, grad_x_F=grad_x_F, grad_z_F=grad_z_F,
                            h=hs, grad_h=grads)


def sine_coupling_drift(a: float, kappa: float) -> CylindricalDrift:
    """d=1 drift F(x, z) = -a x + kappa sin(z - x); smooth and nonlinear."""
    hs, grads = _identity_moments(1)

    def F(t, x, z):
        return -a * x + kappa * np.sin(z[0] - x)

    def grad_x_F(t, x, z):
        return (-a - kappa * np.cos(z[0] - x))[:, :, None]

    def grad_z_F(t, x, z):
        return (kappa * np.cos(z[0] - x))[:, :, None]

    return CylindricalDrift(n=1, F=F, grad_x_F=grad_x_F, grad_z_F=grad_z_F,
                            h=hs, grad_h=grads)


def trig_drift(a: float, c_nl: float) -> CylindricalDrift:
    """d=1 measure-free drift -a x + c_nl sin(x) (nonlinear in the state)."""
    hs, grads = _identity_moments(1)

    def F(t, x, z):
        return -a * x + c_nl * np.sin(x)

    def grad_x_F(t, x, z):
        return (-a + c_nl * np.cos(x))[:, :, None]

    def grad_z_F(t, x, z):
        return np.zeros((x.shape[0], 1, 1))

    return CylindricalDrift(n=1, F=F, grad_x_F=grad_x_F, grad_z_F=grad_z_F,
                            h=hs, grad_h=grads)


def constant_diffusion(d: int, m: int, sigma0: float) -> Diffusion:
    base = sigma0 * np.eye(d, m)

    def sigma(t, x):
        return np.broadcast_to(base, (x.shape[0], d, m))

    return Diffusion(sigma=sigma, constant_in_x=True)


def trig_diffusion(sigma0: float, amp: float) -> Diffusion:
    """d=m=1 diffusion sigma0 + amp sin(x); elliptic when |amp| < sigma0."""
    if not abs(amp) < sigma0:
        raise ValueError("need |amp| < sigma0 for uniform ellipticity")

    def sigma(t, x):
        return (sigma0 + amp * np.sin(x))[:, :, None]

    def grad_sigma(t, x):
        return (amp * np.cos(x))[:, :, None, None]

    return Diffusion(sigma=sigma, grad_sigma=grad_sigma, constant_in_x=False)


def regularized_singular_drift(delta: float, strength: float = 1.0) -> SingularDrift:
    """d=1 attracting drift -s x / (|x|^{3/2} + delta), finite for delta > 0.

    Behaves like -s sign(x) |x|^{-1/2} away from the regularized core, a
    locally integrable singularity.  Its gradient is
    -s (delta - |x|^{3/2} / 2) / (|x|^{3/2} + delta)^2.
    """
    if not delta > 0:
        raise ValueError(f"delta = {delta!r} must be positive")

    def ev(t, x):
        return -strength * x / (np.abs(x) ** 1.5 + delta)

    def grad(t, x):
        r = np.abs(x) ** 1.5
        return (-strength * (delta - 0.5 * r) / (r + delta) ** 2)[:, :, None]

    return SingularDrift(eval=ev, grad=grad)


# The parameters build_family reads for each family.
FAMILY_PARAMS = {
    "affine": ("k", "horizon", "sigma", "d", "a", "kappa"),
    "trig": ("k", "horizon", "sigma", "a", "c_nl", "amp"),
    "meanfield_sine": ("k", "horizon", "sigma", "a", "kappa"),
    "singular": ("k", "horizon", "sigma", "a", "delta", "strength"),
}


def build_family(family: str, **p) -> ModelSpec:
    """Construct a model from a named coefficient family.

    :data:`FAMILY_PARAMS` lists the families and the parameters each reads;
    a missing parameter takes its default, and any other parameter or a
    non-finite value is an error.
    """
    known = FAMILY_PARAMS.get(family)
    if known is None:
        raise UnknownFamily(f"unknown coefficient family {family!r}")
    unknown = [key for key in p if key not in known]
    if unknown:
        raise ValueError(f"family {family} reads {list(known)}, not {unknown[0]!r}")
    nonfinite = [key for key, value in p.items() if not math.isfinite(value)]
    if nonfinite:
        raise ValueError(f"parameter {nonfinite[0]} = {p[nonfinite[0]]!r} is not finite")
    k = float(p.get("k", 2.0))
    horizon = float(p.get("horizon", 4.0))
    sigma0 = float(p.get("sigma", 1.0))
    if family == "affine":
        d = int(p.get("d", 1))
        drift = affine_drift(d, float(p.get("a", 0.0)), float(p.get("kappa", 0.0)))
        return ModelSpec(d=d, m=d, k=k, meanfield_drift=drift,
                         diffusion=constant_diffusion(d, d, sigma0),
                         horizon=horizon)
    if family == "trig":
        drift = trig_drift(float(p.get("a", 1.0)), float(p.get("c_nl", 0.5)))
        diff = trig_diffusion(sigma0, float(p.get("amp", 0.25)))
        return ModelSpec(d=1, m=1, k=k, meanfield_drift=drift, diffusion=diff,
                         horizon=horizon)
    if family == "meanfield_sine":
        drift = sine_coupling_drift(float(p.get("a", 1.0)), float(p.get("kappa", 0.5)))
        return ModelSpec(d=1, m=1, k=k, meanfield_drift=drift,
                         diffusion=constant_diffusion(1, 1, sigma0),
                         horizon=horizon)
    if family == "singular":
        drift = affine_drift(1, float(p.get("a", 0.5)), 0.0)
        sing = regularized_singular_drift(float(p.get("delta", 1e-3)),
                                          float(p.get("strength", 1.0)))
        return ModelSpec(d=1, m=1, k=k, meanfield_drift=drift,
                         diffusion=constant_diffusion(1, 1, sigma0),
                         horizon=horizon, singular_drift=sing)


# ---------------------------------------------------------------------------
# Named observables and perturbation fields
# ---------------------------------------------------------------------------

def coord_observable(j: int = 0) -> Observable:
    return Observable(f=lambda x: x[:, j], name=f"coord{j + 1}")


def sin_observable(j: int = 0) -> Observable:
    return Observable(f=lambda x: np.sin(x[:, j]), bound=1.0, name="sin")


def sign_observable(theta: float = 0.0, j: int = 0) -> Observable:
    return Observable(f=lambda x: np.sign(x[:, j] - theta), bound=1.0,
                      name=f"sign@{theta:g}")


def tanh_observable(j: int = 0) -> Observable:
    return Observable(f=lambda x: np.tanh(x[:, j]), bound=1.0, name="tanh")


def constant_observable(c: float = 1.0) -> Observable:
    return Observable(f=lambda x: np.full(x.shape[0], c), bound=abs(c) or 1.0,
                      name=f"const{c:g}")


def identity_field() -> PerturbationField:
    return PerturbationField(phi=lambda x: np.array(x, copy=True), name="identity")


def coordinate_field(j: int = 0, sign: float = 1.0) -> PerturbationField:
    def phi(x):
        out = np.zeros_like(x)
        out[:, j] = sign
        return out
    name = f"const_e{j + 1}" if sign >= 0 else f"neg_const_e{j + 1}"
    return PerturbationField(phi=phi, name=name)


def sine_field() -> PerturbationField:
    return PerturbationField(phi=lambda x: np.sin(x), name="sine_field")


def default_observables(d: int) -> dict:
    obs = {"coord1": coord_observable(0), "sin": sin_observable(0),
           "sign0": sign_observable(0.0, 0), "tanh": tanh_observable(0),
           "const1": constant_observable(1.0)}
    return obs


def default_perturbations(d: int) -> dict:
    fields = {"identity": identity_field(), "sine_field": sine_field()}
    for j in range(d):
        plus = coordinate_field(j, +1.0)
        minus = coordinate_field(j, -1.0)
        fields[plus.name] = plus
        fields[minus.name] = minus
    return fields


def dual_dictionary(d: int) -> list:
    """Signed coordinate fields, the default dictionary for dual-norm bounds."""
    out = []
    for j in range(d):
        out.append(coordinate_field(j, +1.0))
        out.append(coordinate_field(j, -1.0))
    return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """Registry entry: model recipe plus the checks it exercises."""

    name: str
    description: str
    family: str
    params: dict
    d: int
    initial_law: dict
    checks: tuple

    def build(self) -> ModelSpec:
        return build_family(self.family, **self.params)


_REGISTRY: dict[str, Scenario] = {}


def _register(s: Scenario) -> None:
    _REGISTRY[s.name] = s


_register(Scenario(
    name="brownian",
    description="driftless unit-noise baseline with Gaussian start",
    family="affine", params={"d": 1, "a": 0.0, "kappa": 0.0, "sigma": 1.0},
    d=1, initial_law={"family": "gaussian", "mean": [0.0], "cov": 1.0},
    checks=("classical_gradient", "intrinsic_vs_fd", "intrinsic_closed_form",
            "beta_invariance", "linearity", "dual_norm_scaling", "tv_scaling",
            "determinism"),
))

_register(Scenario(
    name="brownian2d",
    description="planar driftless baseline (exercises matrix-valued plumbing)",
    family="affine", params={"d": 2, "a": 0.0, "kappa": 0.0, "sigma": 1.0},
    d=2, initial_law={"family": "gaussian", "mean": [0.0, 0.0], "cov": 1.0},
    checks=("intrinsic_vs_fd", "linearity", "determinism"),
))

_register(Scenario(
    name="ou",
    description="linear mean-reverting drift, constant noise",
    family="affine", params={"d": 1, "a": 1.0, "kappa": 0.0, "sigma": 1.0},
    d=1, initial_law={"family": "gaussian", "mean": [0.0], "cov": 1.0},
    checks=("classical_gradient", "intrinsic_vs_fd", "moment_bound",
            "linearity", "determinism"),
))

_register(Scenario(
    name="meanfield_ou",
    description="mean-reverting drift coupled to the running mean",
    family="affine", params={"d": 1, "a": 1.0, "kappa": 0.5, "sigma": 1.0},
    d=1, initial_law={"family": "gaussian", "mean": [0.0], "cov": 1.0},
    checks=("intrinsic_vs_fd", "beta_invariance", "wasserstein_lipschitz",
            "moment_bound", "linearity", "determinism"),
))

_register(Scenario(
    name="trig",
    description="nonlinear drift with trigonometric state-dependent noise",
    family="trig", params={"a": 1.0, "c_nl": 0.5, "sigma": 1.0, "amp": 0.25},
    d=1, initial_law={"family": "gaussian", "mean": [0.0], "cov": 1.0},
    checks=("tangent_fd_order", "intrinsic_vs_fd", "determinism"),
))

_register(Scenario(
    name="meanfield_sine",
    description="smooth nonlinear coupling through the running mean",
    family="meanfield_sine", params={"a": 1.0, "kappa": 0.5, "sigma": 1.0},
    d=1, initial_law={"family": "gaussian", "mean": [0.0], "cov": 1.0},
    checks=("tangent_fd_order", "intrinsic_vs_fd", "linearity", "determinism"),
))

_register(Scenario(
    name="singular_demo",
    description="regularized integrable singularity at the origin (heuristic mode)",
    family="singular",
    params={"a": 0.5, "delta": 1e-3, "sigma": 1.0, "strength": 1.0},
    d=1, initial_law={"family": "gaussian", "mean": [1.0], "cov": 0.25},
    checks=("moment_bound", "intrinsic_estimate", "intrinsic_vs_fd", "determinism"),
))


def get_scenario(name: str) -> Scenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownFamily(
            f"unknown scenario {name!r}; have {sorted(_REGISTRY)}"
        ) from None


def scenario_names() -> list:
    return sorted(_REGISTRY)


def all_scenarios() -> list:
    return [_REGISTRY[n] for n in scenario_names()]

import os
from pathlib import Path

import numpy as np
import pytest

from mvgrad import runner
from mvgrad.config import ExperimentConfig
from mvgrad.measure import EmpiricalMeasure
from mvgrad.model import Diffusion, ModelSpec
from mvgrad.scenarios import affine_drift, build_family

# pytest imports this checkout's package from src/ (pyproject's pythonpath);
# the programs the tests start, the CLI and perfbench, import it from there too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH"))))


def brownian_model(d=1, sigma=1.0):
    return build_family("affine", d=d, a=0.0, kappa=0.0, sigma=sigma)


def ou_model(a=1.0, d=1, sigma=1.0):
    return build_family("affine", d=d, a=a, kappa=0.0, sigma=sigma)


def mfou_model(a=1.0, kappa=0.5, d=1, sigma=1.0):
    return build_family("affine", d=d, a=a, kappa=kappa, sigma=sigma)


def gaussian_cloud(n, d=1, mean=0.0, std=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return EmpiricalMeasure(mean + std * rng.standard_normal((n, d)))


def planar_trig_sigma(t, x):
    """d = 2, m = 3 state-dependent noise; rows stay nearly orthonormal."""
    s0, c0 = np.sin(x[:, 0]), np.cos(x[:, 0])
    s1, c1 = np.sin(x[:, 1]), np.cos(x[:, 1])
    out = np.empty((x.shape[0], 2, 3))
    out[:, 0, 0] = 1.0 + 0.25 * s0
    out[:, 0, 1] = 0.2 * c1
    out[:, 0, 2] = 0.3
    out[:, 1, 0] = 0.2 * s1
    out[:, 1, 1] = 1.0 + 0.25 * c0
    out[:, 1, 2] = 0.3 * s0
    return out


def planar_trig_grad_sigma(t, x):
    """Entry [i, a, b, j] = d sigma_ab / dx_j of :func:`planar_trig_sigma`."""
    s0, c0 = np.sin(x[:, 0]), np.cos(x[:, 0])
    s1, c1 = np.sin(x[:, 1]), np.cos(x[:, 1])
    out = np.zeros((x.shape[0], 2, 3, 2))
    out[:, 0, 0, 0] = 0.25 * c0
    out[:, 0, 1, 1] = -0.2 * s1
    out[:, 1, 0, 1] = 0.2 * c1
    out[:, 1, 1, 0] = -0.25 * s0
    out[:, 1, 2, 0] = 0.3 * c0
    return out


def planar_trig_model() -> ModelSpec:
    """d = 2 state, m = 3 noise: runs the per-particle zeta solve with m > d."""
    diff = Diffusion(sigma=planar_trig_sigma, grad_sigma=planar_trig_grad_sigma)
    return ModelSpec(d=2, m=3, k=2.0, meanfield_drift=affine_drift(2, 1.0, 0.5),
                     diffusion=diff, horizon=4.0)


def collect(stream):
    """The whole arrays of a tangent stream, each slice copied as it is drawn,
    since the stream overwrites it two draws later: frozen_tangent's
    (n_steps+1, N, d) values, or meanfield_tangent's values and its
    (n_steps, N, d) coupling terms psi."""
    values, psi, paired = [], [], False
    for item in stream:
        paired = isinstance(item, tuple)
        V, p = item if paired else (item, None)
        values.append(V.copy())
        if p is not None:
            psi.append(p.copy())
    return (np.array(values), np.array(psi)) if paired else np.array(values)


def csv_modes(scenario):
    """The mode= params of a scenario's intrinsic_estimate rows in results.csv."""
    cfg = ExperimentConfig(scenario=scenario, n_particles=8, n_steps=10, t=0.1,
                           checks=("intrinsic_estimate",))
    rows = runner.check_intrinsic_estimate(runner.resolve_bundle(cfg))
    return {dict(kv.split("=") for kv in r.params.split("|"))["mode"] for r in rows}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

import os
from pathlib import Path

import numpy as np
import pytest

from mvgrad import runner
from mvgrad.config import ExperimentConfig
from mvgrad.measure import EmpiricalMeasure
from mvgrad.scenarios import build_family
from mvgrad.tangent import frozen_tangent

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


def frozen_values(paths, model, v0):
    """The (n_steps+1, N, d) values of frozen_tangent's stream, each slice
    copied before the stream writes a later step into its buffer."""
    return np.array([V.copy() for V in frozen_tangent(paths, model, v0)])


def csv_modes(scenario):
    """The mode= params of a scenario's intrinsic_estimate rows in results.csv."""
    cfg = ExperimentConfig(scenario=scenario, n_particles=8, n_steps=10, t=0.1,
                           checks=("intrinsic_estimate",))
    rows = runner.check_intrinsic_estimate(runner.resolve_bundle(cfg))
    return {dict(kv.split("=") for kv in r.params.split("|"))["mode"] for r in rows}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

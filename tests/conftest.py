import os
from pathlib import Path

import numpy as np
import pytest

from mvgrad import runner
from mvgrad.config import ExperimentConfig
from mvgrad.measure import EmpiricalMeasure
from mvgrad.scenarios import build_family

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

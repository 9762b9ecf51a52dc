"""The benchmark's entry points, driven at a small size.

``perfbench/selftest.py`` pins call counts but never calls a workload's
``check_unit`` or ``memory_probe``, so a signature drift between a workload
and the package would pass it and fail every benchmark operation.  Here each
workload runs one unit, checks it and takes its memory probe, with no failed
operation.  Nothing under ``perfbench/`` is edited: the module is loaded by
path and its output directory pointed at ``tmp_path``.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from mvgrad.runner import resolve_bundle

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
DESK_STEPS = 50
SUITE_SIZE = {"n_particles": 200, "n_steps": 100}


@pytest.fixture
def wl(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT_DIR", tmp_path)
    return module


def small_workload(wl, name):
    """The named workload at a small size; returns it and the seed of its unit."""
    workload = wl.WORKLOADS[name](0)
    if isinstance(workload, wl.DeskTrig):
        workload.grid = dataclasses.replace(workload.grid, n_steps=DESK_STEPS)
        return workload, workload.seeds[0]
    # the shipped seed, which selftest.py also runs at this size
    workload.cfg = dataclasses.replace(workload.cfg, **SUITE_SIZE)
    workload.bundle = resolve_bundle(workload.cfg)
    return workload, workload.cfg.seed


@pytest.mark.parametrize("name", ["desk_trig", "run_meanfield_ou", "run_brownian_par2"])
def test_workload_unit_check_and_memory_probe(wl, name):
    workload, seed = small_workload(wl, name)
    result = workload.run_unit(seed)
    outcome = workload.check_unit(seed, result, {})
    assert outcome.attempted >= 1
    assert outcome.failed == 0, outcome.detail
    assert workload.memory_probe(seed) is not None

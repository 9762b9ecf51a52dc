"""The benchmark's workloads: inputs made from the workload seed, timed units, checks.

A workload turns the workload seed into program seeds and prepares the
inputs (set-up), runs one timed unit at a time, and checks each unit's
output afterwards against an oracle that runs outside the timed region.

* ``desk_trig``: one unit is one ``estimate_intrinsic`` on the ``trig``
  scenario (state-dependent sigma) at N=5000, n=1000; its check is
  ``richardson_intrinsic`` at the same seed with the runner's rule
  gap <= 3 * hypot(stderrs).  One operation is one estimate.
* ``run_meanfield_ou`` / ``run_brownian_par2``: one unit is one
  ``run_experiment`` of a shipped config with the seed overridden (and
  ``parallel=2`` for the second).  It must exit 0 with only ``ok``/``pass``
  rows; one operation is one result row (one check item).

Program seeds come from fixed pools, rotated by the workload seed, so the
same workload seed gives the same inputs.  ``capture.py`` ran every pool
seed at the commit that introduced the benchmark and recorded its outputs
in ``capture.json``; a unit whose output is bit-identical to that capture
counts towards ``csv_identical``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
CAPTURE_PATH = BENCH_DIR / "capture.json"

DESK_SEEDS = tuple(range(11, 43))
SUITE_SEEDS = tuple(range(1, 13))

DESK_SCENARIO = "trig"
DESK_N = 5000
DESK_STEPS = 1000
DESK_T = 1.0
DESK_OBSERVABLE = "coord1"
DESK_FIELD = "const_e1"
RICHARDSON_EPS = 0.05       # the runner's eps_ladder[-2] for the shipped ladder
GAP_SIGMAS = 3.0            # the runner's acceptance rule


def use_source_tree() -> None:
    """Import ``mvgrad`` from the checkout's ``src/``, not from site-packages."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)


def rotated(pool, workload_seed: int) -> list:
    start = random.Random(workload_seed).randrange(len(pool))
    return list(pool[start:] + pool[:start])


def load_capture() -> dict:
    with open(CAPTURE_PATH) as fh:
        return json.load(fh)


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclasses.dataclass
class Outcome:
    """Checked result of one unit: operations attempted and failed."""

    attempted: int
    failed: int
    identical: bool
    detail: dict


class DeskTrig:
    """Repeated desk-scale ``estimate_intrinsic`` on ``trig``, distinct seeds."""

    name = "desk_trig"
    capture_key = "desk_trig"

    def __init__(self, workload_seed: int):
        from mvgrad import TimeGrid, linear_schedule, sample_initial
        from mvgrad.scenarios import (default_observables, default_perturbations,
                                      get_scenario)
        scen = get_scenario(DESK_SCENARIO)
        self.model = scen.build()
        self.f = default_observables(self.model.d)[DESK_OBSERVABLE]
        self.phi = default_perturbations(self.model.d)[DESK_FIELD]
        self.grid = TimeGrid(t_end=DESK_T, n_steps=DESK_STEPS)
        self.sched = linear_schedule(DESK_T)
        self.seeds = rotated(DESK_SEEDS, workload_seed)
        self.mu0 = {k: sample_initial(scen.initial_law, DESK_N, k) for k in self.seeds}
        self.n_particles, self.n_steps = DESK_N, DESK_STEPS

    def run_unit(self, seed: int):
        from mvgrad import estimate_intrinsic
        return estimate_intrinsic(self.model, self.mu0[seed], self.phi, self.f,
                                  DESK_T, self.grid, self.sched, seed,
                                  scenario=DESK_SCENARIO)

    def check_unit(self, seed: int, est, capture: dict) -> Outcome:
        from mvgrad import richardson_intrinsic
        ref = richardson_intrinsic(self.model, self.mu0[seed], self.phi, self.f,
                                   DESK_T, self.grid, RICHARDSON_EPS, seed,
                                   scenario=DESK_SCENARIO)
        gap = abs(est.value - ref.value)
        tol = GAP_SIGMAS * math.hypot(est.stderr, ref.stderr)
        ok = math.isfinite(est.value) and gap <= tol
        known = capture.get(str(seed), {})
        identical = (known.get("value") == repr(est.value)
                     and known.get("stderr") == repr(est.stderr))
        return Outcome(attempted=1, failed=0 if ok else 1, identical=identical,
                       detail={"value": est.value, "stderr": est.stderr,
                               "oracle": ref.value, "oracle_stderr": ref.stderr,
                               "gap_sigmas": gap / math.hypot(est.stderr, ref.stderr)})

    def ops_per_unit(self) -> int:
        return 1

    def memory_probe(self, seed: int):
        return self.run_unit(seed)


class SuiteRun:
    """``run_experiment`` of a shipped config with the seed overridden."""

    def __init__(self, name: str, config: str, parallel: int, workload_seed: int):
        from mvgrad.config import load_config
        from mvgrad.runner import resolve_bundle
        self.name = name
        self.capture_key = config
        self.cfg, self.text = load_config(ROOT / "configs" / config)
        self.parallel = parallel
        self.bundle = resolve_bundle(self.cfg)
        self.bundle.mu0()
        self.seeds = rotated(SUITE_SEEDS, workload_seed)
        self.n_particles, self.n_steps = self.cfg.n_particles, self.cfg.n_steps
        self.model = self.bundle.model
        self._runs = 0

    def config_for(self, seed: int):
        cfg = dataclasses.replace(self.cfg, seed=seed, parallel=self.parallel)
        cfg.validate()
        return cfg

    def run_unit(self, seed: int):
        from mvgrad.runner import run_experiment
        self._runs += 1
        out = OUT_DIR / self.name / f"{seed}-{self._runs}"
        return run_experiment(self.config_for(seed), self.text, out)

    def check_unit(self, seed: int, result, capture: dict) -> Outcome:
        bad = [r for r in result.rows if r.status not in ("ok", "pass")]
        failed = len(bad)
        if result.exit_code != 0 and not bad:
            failed = 1
        digest = file_sha256(result.csv_path)
        identical = capture.get(str(seed), {}).get("sha256") == digest
        return Outcome(attempted=max(len(result.rows), 1), failed=failed,
                       identical=identical,
                       detail={"exit_code": result.exit_code, "rows": len(result.rows),
                               "sha256": digest,
                               "bad_rows": [f"{r.quantity}:{r.label}:{r.status}" for r in bad]})

    def ops_per_unit(self) -> int:
        """Operations a suite that raised is charged with: its declared checks."""
        return len(self.bundle.checks)

    def memory_probe(self, seed: int):
        """One ``estimate_intrinsic`` at the config's size: the suite's unit of memory."""
        from mvgrad import estimate_intrinsic
        b, cfg = self.bundle, self.config_for(seed)
        f_name, p_name = cfg.observables[0], cfg.perturbations[0]
        return estimate_intrinsic(b.model, b.mu0(seed), b.field(p_name), b.obs(f_name),
                                  cfg.t, b.grid(), b.sched(), seed,
                                  scenario=b.scenario_name)


WORKLOADS = {
    "desk_trig": DeskTrig,
    "run_meanfield_ou": lambda seed: SuiteRun("run_meanfield_ou", "meanfield_ou.cfg", 1, seed),
    "run_brownian_par2": lambda seed: SuiteRun("run_brownian_par2", "brownian.cfg", 2, seed),
}

"""Self-test of the benchmark's exact counts and of its tracer, at a small size.

    python3 perfbench/selftest.py

Runs both shipped configs at N=200, n=100 with their shipped seeds under the
tracer, twice each, and requires the per-check simulation and distinct
noise-key counts to repeat exactly and to equal the hand counts below.  The
counts do not depend on N or n_steps, so they are those of the full-size
configs: meanfield_ou.cfg runs 36 simulations over 5 noise keys and
brownian.cfg 41 over 8.  It also checks that a desk estimate makes the
hand-counted calls, that the tracer restores every binding, also after an
exception, and that the benchmark counts a raising operation as failed and
keeps going.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import workloads as wl

wl.use_source_tree()

from tracer import Tracer, installed_wrappers, layer_metrics  # noqa: E402
import worker  # noqa: E402

SMALL = {"n_particles": 200, "n_steps": 100}

# (simulations, distinct noise keys) per check, counted from runner.py:
#   intrinsic_vs_fd: 1 estimate + 3 eps x (base + perturbed) + Richardson (base + 2)
#   beta_invariance: schedules x ci_seeds; one key per ci seed
#   wasserstein_lipschitz: 3 shifts x 2 coupled runs; moment_bound: 4 ladder laws
#   dual_norm_scaling / tv_scaling: 4 horizons x 2 (+-e1 fields / two starts);
#   one key per horizon grid, shared by the two checks
HAND_COUNTS = {
    "meanfield_ou.cfg": {
        "checks": {"intrinsic_vs_fd": (10, 1), "beta_invariance": (12, 4),
                   "wasserstein_lipschitz": (6, 1), "moment_bound": (4, 1),
                   "linearity": (2, 1), "determinism": (2, 1)},
        "total": (36, 5),
    },
    "brownian.cfg": {
        "checks": {"classical_gradient": (1, 1), "intrinsic_vs_fd": (10, 1),
                   "intrinsic_closed_form": (1, 1), "beta_invariance": (9, 3),
                   "linearity": (2, 1), "dual_norm_scaling": (8, 4),
                   "tv_scaling": (8, 4), "determinism": (2, 1)},
        "total": (41, 8),
    },
}


def expect(what: str, got, want) -> None:
    if got != want:
        print(f"FAIL {what}: got {got!r}, want {want!r}")
        sys.exit(1)
    print(f"ok   {what}: {got!r}")


def suite_counts(config: str) -> tuple[dict, tuple]:
    from mvgrad.runner import run_experiment
    suite = wl.SuiteRun(f"selftest-{config}", config, 1, 0)
    cfg = dataclasses.replace(suite.cfg, **SMALL)
    with Tracer() as tracer:
        result = run_experiment(cfg, suite.text, wl.OUT_DIR / "selftest" / config)
    expect(f"{config} exit code", result.exit_code, 0)
    m = layer_metrics(tracer.spans, 1.0, worker.ALL_CHECKS)
    per_check = {name: (m[f"runner.check.{name}.simulations"],
                        m[f"runner.check.{name}.noise_keys"])
                 for name in suite.bundle.checks}
    expect(f"{config} noise calls == simulations", m["simulate.noise.calls"],
           m["simulate.particles.calls"])
    return per_check, (m["simulate.particles.calls"], m["simulate.noise.distinct_keys"])


def main() -> int:
    for config, want in HAND_COUNTS.items():
        first = suite_counts(config)
        second = suite_counts(config)
        expect(f"{config} counts repeat exactly", second, first)
        expect(f"{config} per-check (simulations, noise keys)", first[0], want["checks"])
        expect(f"{config} total (simulations, noise keys)", first[1], want["total"])
        expect("no wrapper left installed", installed_wrappers(), [])

    desk = wl.DeskTrig(0)
    small = dataclasses.replace(desk.grid, n_steps=50)
    desk.grid = small
    with Tracer() as tracer:
        desk.run_unit(desk.seeds[0])
    m = layer_metrics(tracer.spans, 1.0, worker.ALL_CHECKS)
    expect("desk estimate: simulations, noise calls, tangents",
           (m["simulate.particles.calls"], m["simulate.noise.calls"],
            m["tangent.frozen.calls"], m["tangent.meanfield.calls"]), (1, 1, 1, 1))
    expect("desk estimate: zeta calls (two weight passes x n_steps)",
           m["model.zeta.calls"], 2 * small.n_steps)
    expect("desk estimate: particle steps", m["simulate.particles.particle_steps"],
           wl.DESK_N * small.n_steps)

    from mvgrad import MemoryBudgetExceeded
    os.environ["MVGRAD_MEMORY_BUDGET_MB"] = "1"
    try:
        tracer = Tracer()
        try:
            with tracer:
                desk.run_unit(desk.seeds[0])
        except MemoryBudgetExceeded:
            pass
        expect("wrappers restored after an exception", installed_wrappers(), [])
        expect("failed call still leaves a span",
               [s[2] for s in tracer.spans if s[1] == 0], ["bismut.estimate_intrinsic"])
        errors: list = []
        units = worker._run_units(desk, desk.seeds[:2], errors)
        attempted, failed, _, _ = worker._check_units(desk, units, {}, errors)
        expect("raising operations count as failed, run continues",
               (attempted, failed, [e["type"] for e in errors]),
               (2, 2, ["MemoryBudgetExceeded", "MemoryBudgetExceeded"]))
    finally:
        del os.environ["MVGRAD_MEMORY_BUDGET_MB"]
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One run of one workload in a fresh process; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Prints one JSON object on its last stdout line.  ``ready`` is the
``time.monotonic()`` reading once the workload's inputs exist (imports,
config parse, initial draw), so the parent can time set-up from before it
started this process.

With ``--trace 0`` it runs timed units until ``--seconds`` have passed (at
least one), records the peak RSS, and then checks every unit.  With
``--trace 1`` it runs one untraced batch, the same batch again under the
tracer, and one ``estimate_intrinsic`` under ``tracemalloc`` (one more
operation), and reports the per-layer figures.  Exceptions from the program count as failed
operations; the run goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback

import workloads as wl

# units per traced batch: desk_trig traces four estimates, a suite traces one run
TRACE_BATCH = {"desk_trig": 4}

# every check of the two shipped configs; each gets runner.check.<name>.* figures
ALL_CHECKS = ("beta_invariance", "classical_gradient", "determinism", "dual_norm_scaling",
              "intrinsic_closed_form", "intrinsic_vs_fd", "linearity", "moment_bound",
              "tv_scaling", "wasserstein_lipschitz")


def _rusage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_minflt


def _run_units(workload, seeds, errors):
    """Run each seed's unit once; returns [(seed, wall_s, result or None)]."""
    units = []
    for seed in seeds:
        start = time.perf_counter()
        try:
            result = workload.run_unit(seed)
        except Exception as exc:          # the program failed this operation
            result = None
            errors.append({"seed": seed, "stage": "run", "type": type(exc).__name__,
                           "traceback": traceback.format_exc()})
        units.append((seed, time.perf_counter() - start, result))
    return units


def _check_units(workload, units, capture, errors):
    """Oracle checks outside the timed region; returns (attempted, failed, identical, details)."""
    attempted = failed = identical = 0
    details = []
    for seed, wall, result in units:
        if result is None:
            n = workload.ops_per_unit()
            attempted, failed = attempted + n, failed + n
            details.append({"seed": seed, "wall_s": wall, "error": True})
            continue
        try:
            out = workload.check_unit(seed, result, capture)
        except Exception as exc:
            errors.append({"seed": seed, "stage": "check", "type": type(exc).__name__,
                           "traceback": traceback.format_exc()})
            attempted, failed = attempted + 1, failed + 1
            details.append({"seed": seed, "wall_s": wall, "error": True})
            continue
        attempted += out.attempted
        failed += out.failed
        identical += int(out.identical)
        details.append({"seed": seed, "wall_s": wall, "attempted": out.attempted,
                        "failed": out.failed, "identical": out.identical, **out.detail})
    return attempted, failed, identical, details


def _timed(workload, seconds, errors):
    """Units back to back until ``seconds`` have passed; ``run_s`` is the region's time per unit.

    The mean, not the median, of the unit times: the machine's speed flips
    between levels every few seconds, and the median of a two-level mix
    jumps between the levels where the mean moves smoothly.
    """
    units = []
    start = time.perf_counter()
    for seed in workload.seeds:
        if units and time.perf_counter() - start >= seconds:
            break
        units += _run_units(workload, [seed], errors)
    region_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return units, {"run_s": region_s / len(units), "peak_rss_mb": peak_rss_mb}


def _traced(workload, errors):
    import tracemalloc
    from tracer import Tracer, installed_wrappers, layer_metrics

    size = TRACE_BATCH.get(workload.name, 1)
    seeds = workload.seeds
    plain_seeds, traced_seeds, probe_seed = seeds[:size], seeds[size:2 * size], seeds[2 * size]

    cpu0, flt0 = _rusage()
    plain = _run_units(workload, plain_seeds, errors)
    cpu1, flt1 = _rusage()
    plain_s = sum(u[1] for u in plain)

    tracer = Tracer()
    with tracer:
        traced = _run_units(workload, traced_seeds, errors)
    leftover = installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracer left wrappers behind: {leftover}")
    traced_s = sum(u[1] for u in traced)

    probe_failed = 0
    tracemalloc.start()
    try:
        workload.memory_probe(probe_seed)
    except Exception as exc:          # the program failed this operation
        probe_failed = 1
        errors.append({"seed": probe_seed, "stage": "memory_probe",
                       "type": type(exc).__name__, "traceback": traceback.format_exc()})
    finally:
        traced_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    m = layer_metrics(tracer.spans, traced_s, ALL_CHECKS)
    d, mm = workload.model.d, workload.model.m
    n, N = workload.n_steps, workload.n_particles
    m.update({
        "process.cpu_s": cpu1 - cpu0,
        "process.minor_faults": flt1 - flt0,
        "memory.traced_peak_mb": traced_peak / 1e6,
        # the formula of mvgrad.simulate._guard_memory at the same sizes
        "memory.guard_mb_computed": 8 * N * ((n + 1) * d + n * mm) / 1e6,
        "trace.overhead_s": traced_s - plain_s,
    })
    return plain + traced, m, {"plain_s": plain_s, "traced_s": traced_s,
                               "spans": len(tracer.spans), "bindings": tracer.bindings(),
                               "probe_failed": probe_failed}


def environment() -> dict:
    import hashlib
    import platform

    import numpy
    import scipy

    def cpuinfo(field):
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.split(":")[0].strip() == field:
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    caches = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                caches[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    commit = None
    if (wl.ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((wl.ROOT / "src").rglob("*.py")) + sorted((wl.ROOT / "configs").glob("*")):
        digest.update(path.relative_to(wl.ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpuinfo("model name"), "l2_cache": caches.get("L2 cache"),
        "l3_cache": caches.get("L3 cache") or cpuinfo("cache size"),
        "MVGRAD_MEMORY_BUDGET_MB": os.environ.get("MVGRAD_MEMORY_BUDGET_MB"),
        "git_commit": commit, "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl.use_source_tree()
    workload = wl.WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    capture = wl.load_capture().get(workload.capture_key, {})
    errors: list = []
    extra: dict = {}
    if args.trace:
        units, metrics, extra = _traced(workload, errors)
    else:
        units, metrics = _timed(workload, args.seconds, errors)
    attempted, failed, identical, details = _check_units(workload, units, capture, errors)
    if args.trace:
        metrics["csv_identical"] = identical
        attempted, failed = attempted + 1, failed + extra["probe_failed"]
    print(json.dumps({"ready": ready, "attempted": attempted, "failed": failed,
                      "metrics": metrics, "units": details, "errors": errors,
                      "trace": extra, "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""mvgrad benchmark: one run of one workload, every metric printed by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh worker
process (``worker.py``); with ``--trace 0`` two more workers only set up,
so that ``setup_s`` is the median of three set-ups.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``); the line before it holds the environment and per-unit
details, which are also written to ``.bench_out/``.  Exits non-zero
without a result if the checkout holds no ``mvgrad`` sources or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("desk_trig", "run_meanfield_ou", "run_brownian_par2")
SETUP_ONLY_RUNS = 2
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _worker(args, extra, deadline) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def run(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not args.trace:
        setups = [_worker(args, ["--setup-only"], deadline) for _ in range(SETUP_ONLY_RUNS)]
    res = _worker(args, [], deadline)
    setups = [r["setup_s"] for r in setups + [res]]

    spec = _spec()
    if args.trace:
        wanted = spec["per_layer"]
        values = dict(res["metrics"])
    else:
        wanted = spec["end_to_end"]
        values = dict(res["metrics"], setup_s=statistics.median(setups),
                      ok_frac=1.0 - res["failed"] / res["attempted"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_samples_s": setups, "env": res["env"], "units": res["units"],
              "errors": res["errors"], "trace_info": res["trace"]}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"env": res["env"], "setup_samples_s": setups,
                      "units": [{k: u.get(k) for k in ("seed", "wall_s", "failed", "identical",
                                                       "sha256", "gap_sigmas")}
                                for u in res["units"]]}))
    return {"correct": res["failed"] == 0 and res["attempted"] > 0,
            "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "mvgrad" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no mvgrad sources under {ROOT}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

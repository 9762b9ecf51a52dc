"""Record every pool seed's outputs at the current commit into capture.json.

    python3 perfbench/capture.py

For ``desk_trig`` it stores each estimate's value and stderr (as ``repr``
strings) with its Richardson oracle; for each shipped config it stores the
SHA-256 of ``results.csv`` from a serial run, its exit code and whether
every row was ``ok``/``pass``.  The benchmark compares later outputs with
these to report ``csv_identical``; the capture is informational and never
decides correctness.
"""

from __future__ import annotations

import json
import sys
import time

import workloads as wl

wl.use_source_tree()


def main() -> int:
    capture = {"desk_trig": {}, "meanfield_ou.cfg": {}, "brownian.cfg": {}}
    desk = wl.DeskTrig(0)
    for seed in wl.DESK_SEEDS:
        est = desk.run_unit(seed)
        out = desk.check_unit(seed, est, {})
        capture["desk_trig"][str(seed)] = {
            "value": repr(est.value), "stderr": repr(est.stderr),
            "oracle": repr(out.detail["oracle"]),
            "gap_sigmas": round(out.detail["gap_sigmas"], 4), "pass": out.failed == 0}
        print("desk_trig", seed, capture["desk_trig"][str(seed)], flush=True)
    for config in ("meanfield_ou.cfg", "brownian.cfg"):
        suite = wl.SuiteRun(f"capture-{config}", config, 1, 0)
        for seed in wl.SUITE_SEEDS:
            start = time.perf_counter()
            result = suite.run_unit(seed)
            out = suite.check_unit(seed, result, {})
            capture[config][str(seed)] = {
                "sha256": out.detail["sha256"], "exit_code": result.exit_code,
                "all_ok": out.failed == 0, "wall_s": round(time.perf_counter() - start, 2)}
            print(config, seed, capture[config][str(seed)], flush=True)
    with open(wl.CAPTURE_PATH, "w") as fh:
        json.dump(capture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    failed = [(k, s) for k, rows in capture.items() for s, row in rows.items()
              if not row.get("pass", row.get("all_ok"))]
    print("failing pool seeds:", failed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

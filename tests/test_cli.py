import collections
import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvgrad import runner, simulate
from mvgrad.bismut import estimate_intrinsic
from mvgrad.cli import main
from mvgrad.config import ExperimentConfig, load_config
from mvgrad.errors import ConfigError
from mvgrad.measure import EmpiricalMeasure
from mvgrad.model import SCHEDULE_FACTORIES
from mvgrad.runner import CHECKS, run_experiment
from mvgrad.scenarios import (FAMILY_PARAMS, all_scenarios, default_observables,
                              default_perturbations, get_scenario, scenario_names)

SMALL_CONFIG = """\
[experiment]
scenario = brownian
n_particles = 400
n_steps = 50
t = 0.5
seed = 7
ci_seeds = 1, 2

[estimator]
observables = coord1
perturbations = const_e1
checks = intrinsic_vs_fd, intrinsic_closed_form, linearity, determinism

[oracle]
eps_ladder = 0.1, 0.05
"""


def write_config(tmp_path, text=SMALL_CONFIG, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRun:
    def test_small_suite_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "manifest.json").exists()
        text = (out / "results.csv").read_text()
        assert text.startswith("scenario,quantity,label,value,stderr,status,params,seed")
        assert ",fail," not in text

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_parallel_flag_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        serial = tmp_path / "serial"
        par1 = tmp_path / "par1"
        par2 = tmp_path / "par2"
        assert main(["run", "--config", str(cfg), "--out", str(serial)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(par1),
                     "--parallel", "3"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(par2),
                     "--parallel", "3"]) == 0
        s = (serial / "results.csv").read_bytes()
        assert (par1 / "results.csv").read_bytes() == s
        assert (par2 / "results.csv").read_bytes() == s

    def test_seed_override_changes_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b), "--seed", "8"]) == 0
        assert (a / "results.csv").read_bytes() != (b / "results.csv").read_bytes()

    def test_clean_rerun_removes_previous_errors(self, tmp_path, monkeypatch):
        text = (SMALL_CONFIG.replace("n_particles = 400", "n_particles = 100")
                .replace("n_steps = 50", "n_steps = 20")
                .replace(CHECKS_LINE, "checks = linearity"))
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        monkeypatch.setenv("MVGRAD_MEMORY_BUDGET_MB", "0.001")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert (out / "errors.json").exists()
        monkeypatch.delenv("MVGRAD_MEMORY_BUDGET_MB")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert not (out / "errors.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 0
        assert manifest["outputs"]["errors_json"] is None

    def test_invalid_particle_count_exits_2(self, tmp_path, capsys):
        bad = SMALL_CONFIG.replace("n_particles = 400", "n_particles = 0")
        cfg = write_config(tmp_path, bad)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert json.loads(err.strip())["error"] == "config"

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_horizon_violation_exits_2(self, tmp_path):
        bad = SMALL_CONFIG.replace("t = 0.5", "t = 99.0")
        cfg = write_config(tmp_path, bad)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_manifest_replay_reproduces_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "first"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        replay_cfg = tmp_path / "replay.cfg"
        replay_cfg.write_text(manifest["config_text"])
        out2 = tmp_path / "second"
        assert main(["run", "--config", str(replay_cfg), "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_manifest_contents(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 0
        assert manifest["resolved_config"]["scenario"] == "brownian"
        assert manifest["summary"]["fail"] == 0
        assert manifest["version"]
        assert manifest["resolved_config"]["out_dir"] == str(out)
        assert set(manifest["versions"]) == {"python", "numpy", "scipy", "nproc"}
        assert manifest["versions"]["nproc"] >= 1
        assert [c["name"] for c in manifest["checks"]] == [
            "intrinsic_vs_fd", "intrinsic_closed_form", "linearity", "determinism"]
        assert all(c["wall_s"] > 0 for c in manifest["checks"])
        assert manifest["peak_rss_mb"] > 0
        # a serial run forks no worker, so no child's peak is a worker's
        assert manifest["workers_peak_rss_mb"] is None
        # a fresh process, whose only children are the run's check workers
        par = tmp_path / "par"
        src = str(Path(runner.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-m", "mvgrad.cli", "run", "--config", str(cfg),
                        "--out", str(par), "--parallel", "2"], env=env, check=True,
                       capture_output=True, timeout=600)
        assert json.loads((par / "manifest.json").read_text())["workers_peak_rss_mb"] > 0

    def test_numerical_failure_exits_3(self, tmp_path):
        # explosive custom drift trips the blow-up guard mid-run
        text = """\
[experiment]
scenario = custom
n_particles = 100
n_steps = 400
t = 4.0
seed = 3

[estimator]
checks = intrinsic_estimate

[custom]
family = affine
d = 1
a = -6.0
kappa = 0.0
sigma = 1.0
"""
        cfg = tmp_path / "blowup.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        records = json.loads((out / "errors.json").read_text())
        assert records and records[0]["type"] == "NonFinite"
        rows = (out / "results.csv").read_text()
        assert ",error," in rows

    def test_tangent_blow_up_exits_3(self, tmp_path):
        # at delta = 1e-4 the heuristic tangent sees a drift gradient of order
        # 1/delta and diverges; the estimate must not reach the oracle row
        text = """\
[experiment]
scenario = custom
n_particles = 50
n_steps = 1000
t = 1.0
seed = 7

[estimator]
observables = tanh
perturbations = const_e1
checks = intrinsic_vs_fd

[custom]
family = singular
delta = 1e-4
"""
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 3
        records = json.loads((out / "errors.json").read_text())
        assert [(r["check"], r["type"]) for r in records] == [("intrinsic_vs_fd", "NonFinite")]
        assert records[0]["message"].startswith("tangent blow-up at step ")
        assert [r["status"] for r in read_rows(out)] == ["error"]

    def test_diverged_estimate_fails_its_oracle_row(self, tmp_path):
        # at delta = 3e-4 the heuristic tangent stays under the blow-up guard
        # but its estimate (about -7.7e3 +- 7.0e3) is far off the oracle's
        # -0.06 +- 0.08; the 3-sigma tolerance alone would pass it
        text = """\
[experiment]
scenario = custom
n_particles = 50
n_steps = 1000
t = 1.0
seed = 7

[estimator]
observables = tanh
perturbations = const_e1
checks = intrinsic_vs_fd

[custom]
family = singular
delta = 3e-4
"""
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 1
        rich = [r for r in read_rows(out) if r["label"] == "tanh|const_e1|richardson"]
        assert [r["status"] for r in rich] == ["fail"]
        assert not (out / "errors.json").exists()

    def test_diverged_estimate_fails_its_closed_form_row(self, tmp_path):
        # at t = 1e-12 the weight's 1/t blows the estimate up to about
        # -7.1e4 +- 6.9e4 against the exact 1.0; 3 sigma alone would pass it
        text = """\
[experiment]
scenario = brownian
n_particles = 200
n_steps = 100
t = 1e-12
seed = 7

[estimator]
perturbations = const_e1
checks = intrinsic_closed_form
"""
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 1
        assert [(r["label"], r["status"]) for r in read_rows(out)] == [
            ("coord1|const_e1|exact", "fail")]

    def test_unstable_euler_grid_fails_every_gated_row_on_spread(self, tmp_path):
        # a * dt = 2.1 makes the Euler grid unstable: every estimate diverges
        # (the classical one to about -1.9e4 +- 6.5e5 against the exact
        # 6.3e-92), and the classical row's tolerance grows with it
        text = """\
[experiment]
scenario = custom
n_particles = 200
n_steps = 100
t = 1.0
seed = 7

[estimator]
checks = classical_gradient, intrinsic_closed_form, intrinsic_vs_fd, beta_invariance

[custom]
family = affine
a = 210
"""
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 1
        gated = [r for r in read_rows(out) if r["quantity"] == "closed_form"
                 or r["label"].endswith("richardson") or r["label"].startswith("schedule=")]
        assert [r["label"] for r in gated] == [
            "classical|coord1", "coord1|const_e1|exact", "coord1|const_e1|richardson",
            "schedule=linear", "schedule=quadratic", "schedule=sine"]
        assert all(r["status"] == "fail" and "reason=spread" in r["params"].split("|")
                   for r in gated)

    def test_classical_row_passes_a_correct_estimate_of_a_tiny_derivative(self, tmp_path):
        # at x0 = 0 the classical estimate's stderr keeps a Monte Carlo floor
        # (about 1.9e-3 here) while the exact derivative is e^{-20} = 2.1e-9:
        # the spread cap's scale keeps the 2 * dt slack, so a correct estimate
        # is not failed for a stderr above 100 times the exact value
        text = """\
[experiment]
scenario = custom
n_particles = 200
n_steps = 100
t = 1.0
seed = 7

[estimator]
checks = classical_gradient

[custom]
family = affine
a = 20
"""
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 0
        (row,) = [r for r in read_rows(out) if r["quantity"] == "closed_form"]
        assert row["label"] == "classical|coord1" and row["status"] == "pass"
        assert "reason=spread" not in row["params"].split("|")

    def test_underflowed_exact_derivative_leaves_the_closed_form_rows_to_3_sigma(
            self, tmp_path):
        # a * t = 800 underflows the exact derivative to 0.0, so there is no
        # scale to cap the estimate's spread against; the gap is within 3 sigma
        text = """\
[experiment]
scenario = custom
n_particles = 200
n_steps = 2000
t = 1.0
seed = 7

[estimator]
checks = intrinsic_closed_form, classical_gradient

[custom]
family = affine
a = 800
"""
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 0
        rows = [r for r in read_rows(out) if r["quantity"] == "closed_form"]
        assert [(r["label"], r["status"]) for r in rows] == [
            ("coord1|const_e1|exact", "pass"), ("classical|coord1", "pass")]
        exact, classical = rows
        assert "reference=0.0" in exact["params"].split("|") and float(classical["value"]) == 0.0

    def test_diverged_estimate_fails_its_schedule_rows(self, tmp_path):
        # at t = 1e-12 each schedule's mean over the ci seeds is in the
        # thousands, against the exact 1.0; each pair's 3-sigma tolerance,
        # built from those same stderrs, would pass it
        text = """\
[experiment]
scenario = brownian
n_particles = 200
n_steps = 100
t = 1e-12
seed = 7
ci_seeds = 101, 202, 303

[estimator]
checks = beta_invariance
"""
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 1
        rows = read_rows(out)
        assert [(r["label"], r["status"], r["params"]) for r in rows[:3]] == [
            (f"schedule={s}", "fail", "n_seeds=3|reason=spread")
            for s in ("linear", "quadratic", "sine")]
        assert [r["status"] for r in rows[3:]] == ["pass"] * 3
        assert all(float(r["stderr"]) > 100.0 for r in rows[:3])

    def test_schedule_spread_without_a_closed_form_is_capped_by_richardson(self, tmp_path):
        # trig has no closed form, so the scale is the Richardson oracle's
        text = SMALL_CONFIG.replace("scenario = brownian", "scenario = trig").replace(
            CHECKS_LINE, "checks = beta_invariance")
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [r["status"] for r in rows] == ["ok"] * 3 + ["pass"] * 3
        assert all(r["params"] == "n_seeds=2" for r in rows[:3])

    def test_closed_form_along_a_second_coordinate_passes(self, tmp_path):
        # the exact derivative along +-e2 is 0, but the estimate has a spread;
        # the spread cap's scale must still see phi's second coordinate
        text = """\
[experiment]
scenario = brownian2d
n_particles = 200
n_steps = 50
t = 1.0
seed = 7

[estimator]
perturbations = const_e2, neg_const_e2
checks = intrinsic_closed_form
"""
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [(r["label"], r["status"]) for r in rows] == [
            ("coord1|const_e2|exact", "pass"), ("coord1|neg_const_e2|exact", "pass")]
        assert all(float(r["stderr"]) > 0 for r in rows)

    def test_custom_scenario(self, tmp_path):
        text = """\
[experiment]
scenario = custom
n_particles = 200
n_steps = 20
t = 0.2
seed = 3

[estimator]
checks = intrinsic_estimate, determinism

[custom]
family = affine
d = 1
a = 0.5
kappa = 0.2
sigma = 1.0
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0


CHECKS_LINE = "checks = intrinsic_vs_fd, intrinsic_closed_form, linearity, determinism"


def only_check(name):
    return (CHECKS_LINE, f"checks = {name}")


def oracle_line(line):
    return ("[oracle]\n", f"[oracle]\n{line}\n")


# (config edits as (old, new) replacements, MVGRAD_MEMORY_BUDGET_MB value)
BAD_INPUTS = {
    "unknown-check": ((("checks = intrinsic_vs_fd,", "checks = intrinsic_vs_fdd,"),), None),
    "unknown-schedule": ((("[estimator]\n", "[estimator]\nschedules = linear, cubic\n"),),
                         None),
    # the run's schedule is the first entry of schedules: there is no schedule key
    "schedule-key": ((("[estimator]\n", "[estimator]\nschedule = linear\n"),), None),
    "empty-schedules": ((("[estimator]\n", "[estimator]\nschedules =\n"),), None),
    "unknown-observable": ((("observables = coord1", "observables = nosuch"),), None),
    "unknown-perturbation": ((("perturbations = const_e1", "perturbations = nosuch"),), None),
    "budget-not-a-number": ((), "banana"),
    "budget-negative": ((), "-5"),
    "unknown-key": ((("seed = 7", "seed = 7\nn_partcles = 9999"),), None),
    "unknown-section": ((("[oracle]\n", "[plots]\nstyle = dark\n\n[oracle]\n"),), None),
    "unknown-custom-key": ((("scenario = brownian", "scenario = custom"),
                            ("[oracle]\n", "[custom]\nfamily = affine\nc_nl = 0.5\n\n[oracle]\n")),
                           None),
    "empty-observables": ((("observables = coord1", "observables ="),), None),
    "empty-perturbations": ((("perturbations = const_e1", "perturbations ="),), None),
    "one-schedule": ((only_check("beta_invariance"),
                      ("[estimator]\n", "[estimator]\nschedules = linear\n")), None),
    "empty-eps-ladder": ((("eps_ladder = 0.1, 0.05", "eps_ladder ="),), None),
    "one-eps-for-tangent-order": ((only_check("tangent_fd_order"),
                                   ("eps_ladder = 0.1, 0.05", "eps_ladder = 0.1")), None),
    "one-t-for-dual-norm": ((only_check("dual_norm_scaling"), oracle_line("t_grid = 0.2")), None),
    "one-t-for-tv": ((only_check("tv_scaling"), oracle_line("t_grid = 0.2")), None),
    "t-beyond-horizon": ((only_check("dual_norm_scaling"), oracle_line("t_grid = 0.1, 5.0")),
                         None),
    "empty-stability-shifts": ((only_check("wasserstein_lipschitz"),
                                oracle_line("stability_shifts =")), None),
    "empty-moment-variances": ((only_check("moment_bound"),
                                oracle_line("moment_variances =")), None),
    "negative-moment-variance": ((oracle_line("moment_variances = -1"),), None),
    "zero-tv-shift": ((oracle_line("tv_shift = 0"),), None),
    "classical-on-meanfield": ((("scenario = brownian", "scenario = meanfield_ou"),
                                only_check("classical_gradient")), None),
    "closed-form-on-trig": ((("scenario = brownian", "scenario = trig"),
                             only_check("intrinsic_closed_form")), None),
    "tv-on-trig": ((("scenario = brownian", "scenario = trig"), only_check("tv_scaling"),
                    oracle_line("t_grid = 0.1, 0.2")), None),
    "dual-norm-on-trig": ((("scenario = brownian", "scenario = trig"),
                           only_check("dual_norm_scaling"), oracle_line("t_grid = 0.1, 0.2")),
                          None),
    # the starting cloud alone (8 TB) exceeds the budget: refused before any draw
    "cloud-above-budget": ((("n_particles = 400", "n_particles = 1000000000000"),
                            only_check("linearity")), "4096"),
    # the d x d coefficient matrices alone (8 TB each) exceed the budget:
    # refused before the model is built
    "custom-d-above-budget": ((("scenario = brownian", "scenario = custom"),
                               only_check("intrinsic_estimate"),
                               ("[oracle]\n",
                                "[custom]\nfamily = affine\nd = 1000000\n\n[oracle]\n")),
                              "4096"),
    "transport-above-cap": ((("scenario = brownian", "scenario = brownian2d"),
                             ("n_particles = 400", "n_particles = 4097"),
                             only_check("wasserstein_lipschitz"),
                             oracle_line("stability_shifts = 0.02, 0.2")), None),
    "custom-infinite-k": ((("scenario = brownian", "scenario = custom"),
                           ("[oracle]\n", "[custom]\nfamily = affine\nk = inf\n\n[oracle]\n")),
                          None),
    "custom-infinite-sigma": ((("scenario = brownian", "scenario = custom"),
                               ("[oracle]\n",
                                "[custom]\nfamily = affine\nsigma = inf\n\n[oracle]\n")),
                              None),
    "repeated-eps-ladder": ((("eps_ladder = 0.1, 0.05", "eps_ladder = 0.1, 0.1, 0.05"),), None),
    "repeated-ci-seeds": ((only_check("beta_invariance"),
                           ("ci_seeds = 1, 2", "ci_seeds = 5, 5")), None),
    # streams are keyed by the seed mod 2^64: these would alias seeds 2^64 - 1, 1 and 0
    "negative-seed": ((("seed = 7", "seed = -1"),), None),
    "seed-beyond-range": ((("seed = 7", "seed = 18446744073709551617"),), None),
    "ci-seed-beyond-range": ((("ci_seeds = 1, 2", "ci_seeds = 1, 18446744073709551616"),),
                             None),
    "infinite-tv-shift": ((oracle_line("tv_shift = inf"),), None),
    "infinite-eps": ((("eps_ladder = 0.1, 0.05", "eps_ladder = 0.1, inf"),), None),
    "nan-stability-shift": ((oracle_line("stability_shifts = 0.2, nan"),), None),
    "custom-zero-delta": ((("scenario = brownian", "scenario = custom"),
                           only_check("intrinsic_estimate"),
                           ("[oracle]\n", "[custom]\nfamily = singular\ndelta = 0\n\n[oracle]\n")),
                          None),
    "custom-zero-sigma": ((("scenario = brownian", "scenario = custom"),
                           only_check("intrinsic_estimate"),
                           ("[oracle]\n", "[custom]\nfamily = affine\nsigma = 0\n\n[oracle]\n")),
                          None),
}


def test_seed_range_leaves_room_for_the_moment_ladder():
    # the ladder keys seed + j for j < len(moment_variances): from the largest
    # seed that stays below 2^64, so it cannot wrap onto another seed's streams
    ExperimentConfig(seed=2**63 - 1, ci_seeds=(0, 2**63 - 1)).validate()
    for bad in (dict(seed=2**63), dict(ci_seeds=(1, 2**63))):
        with pytest.raises(ConfigError, match=r"\[0, 2\^63\)"):
            ExperimentConfig(**bad).validate()


def test_custom_dimension_is_checked_before_its_law_is_built(monkeypatch):
    # a [custom] law's mean holds d floats: at d = 10^6 (8 MB) the budget check
    # on the d x d matrices refuses the config before the mean is built
    monkeypatch.setenv("MVGRAD_MEMORY_BUDGET_MB", "4096")
    cfg = ExperimentConfig(scenario="custom", custom={"family": "affine", "d": 10**6},
                           n_particles=100)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="dimension d = 1000000"):
            runner.resolve_bundle(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_config_error(case, tmp_path, monkeypatch, capsys):
    edits, budget = BAD_INPUTS[case]
    text = SMALL_CONFIG
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    assert text != SMALL_CONFIG or budget is not None
    if budget is not None:
        monkeypatch.setenv("MVGRAD_MEMORY_BUDGET_MB", budget)
    assert_config_error(write_config(tmp_path, text), tmp_path / "out", capsys)


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("[experiment]\nscenario = brownian\n# caf\xe9\n".encode("latin-1"))
    assert_config_error(cfg, tmp_path / "out", capsys)


def assert_config_error(cfg, out, capsys):
    """validate and run (in process and as a subprocess) exit 2 with a config record."""
    assert main(["validate", "--config", str(cfg)]) == 2
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    for line in capsys.readouterr().err.strip().splitlines():
        assert json.loads(line)["error"] == "config"
    proc = subprocess.run(
        [sys.executable, "-m", "mvgrad.cli", "run", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_out_under_a_regular_file_is_config_error(tmp_path):
    # run creates its output directory before the first check: a path it
    # cannot create exits 2 with a config record, not a traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "mvgrad.cli", "run", "--config", str(write_config(tmp_path)),
         "--out", str(blocker / "sub")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr.strip().splitlines()[-1])["error"] == "config"


@pytest.mark.parametrize("output", ["results.csv", "errors.json", "manifest.json"])
def test_output_that_cannot_be_written_is_config_error(tmp_path, output):
    # the checks have run, but an output in the directory is itself a
    # directory: run exits 2 with a config record, not a traceback
    text = SMALL_CONFIG.replace(CHECKS_LINE, "checks = linearity")
    out = tmp_path / "out"
    (out / output).mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "-m", "mvgrad.cli", "run", "--config",
         str(write_config(tmp_path, text)), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    record = json.loads(proc.stderr.strip().splitlines()[-1])
    assert record["error"] == "config" and output in record["message"]


def test_failed_write_leaves_no_other_runs_manifest(tmp_path):
    # the seed-3 run cannot replace errors.json (a directory), so it exits 2;
    # its results.csv must not stand beside the seed-7 run's manifest.json
    text = SMALL_CONFIG.replace(CHECKS_LINE, "checks = linearity")
    cfg, out = write_config(tmp_path, text), tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["resolved_config"]["seed"] == 7
    (out / "errors.json").mkdir()
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 2
    assert {r["seed"] for r in read_rows(out)} == {"3"}
    assert not (out / "manifest.json").exists()


def test_check_needs_are_known():
    # an unknown need name would reach getattr(cfg, need) and end in a traceback
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    for check, spec in runner.CHECK_SPECS.items():
        for need in spec.needs:
            assert need in runner.NAMED_NEEDS or need in fields, (check, need)


def test_checks_are_called_through_their_module_functions():
    # each check is declared once, and CHECKS calls its check_<name>
    assert CHECKS == {name: getattr(runner, f"check_{name}") for name in runner.CHECK_SPECS}
    assert len(CHECKS) == 12
    assert {spec.work for spec in runner.CHECK_SPECS.values()} == {
        "shared", "own", "regenerates"}


def test_readme_needs_table_names_the_checks_that_declare_needs():
    # README's Check | Needs table is documentation of CheckSpec.needs
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("| Check | Needs |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    named = [re.match(r"\| `(\w+)` \|", line).group(1) for line in table.splitlines()]
    assert len(named) == len(set(named))
    assert set(named) == {name for name, spec in runner.CHECK_SPECS.items() if spec.needs}
    assert len(named) == 9


@pytest.mark.parametrize("name", scenario_names())
def test_registry_entry_resolves_with_its_checks(name):
    # a registry entry whose declared checks need what its model lacks fails here
    bundle = runner.resolve_bundle(ExperimentConfig(scenario=name))
    assert bundle.checks == get_scenario(name).checks
    assert set(bundle.scenario.params) == set(FAMILY_PARAMS[bundle.scenario.family])


def test_registry_declares_its_moments():
    # the measure-free families declare no moments; only a coupled drift reads mu
    declared = {name: get_scenario(name).build().meanfield_drift.n for name in scenario_names()}
    assert declared == {"brownian": 0, "brownian2d": 0, "ou": 0, "singular_demo": 0,
                        "trig": 0, "meanfield_ou": 1, "meanfield_sine": 1}


def test_uncoupled_meanfield_sine_is_measure_free(tmp_path):
    # kappa = 0 leaves the affine drift -a x, so the classical gradient applies
    text = """\
[experiment]
scenario = custom
n_particles = 300
n_steps = 100
t = 1.0
seed = 7

[estimator]
observables = sin
checks = classical_gradient, intrinsic_vs_fd

[custom]
family = meanfield_sine
kappa = 0
"""
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, text)),
                 "--out", str(out)]) == 0
    assert [r["label"] for r in read_rows(out)][:2] == ["classical|coord1", "classical|coord1"]


def test_singular_demo_writes_each_row_once(tmp_path):
    # its checks once declared both intrinsic_estimate and intrinsic_vs_fd,
    # which writes the same intrinsic_estimate row itself
    cfg = ExperimentConfig(scenario="singular_demo", n_particles=100, n_steps=1000)
    keys = [(r.quantity, r.label) for r in run_experiment(cfg, "", tmp_path).rows]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("name", scenario_names())
def test_registry_entry_runs_its_checks(name, tmp_path):
    # singular_demo's explicit tangent needs dt <= 2 delta / strength
    n_steps = 1000 if name == "singular_demo" else 100
    cfg = ExperimentConfig(scenario=name, n_particles=100, n_steps=n_steps)
    result = run_experiment(cfg, "", tmp_path)
    assert result.exit_code == 0
    assert all(r.status != "error" for r in result.rows)


def test_classical_gradient_without_closed_form_is_ok(tmp_path):
    text = (SMALL_CONFIG.replace("scenario = brownian", "scenario = trig")
            .replace(CHECKS_LINE, "checks = classical_gradient"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, text)),
                 "--out", str(out)]) == 0
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["quantity"], r["status"]) for r in rows] == [
        ("intrinsic_estimate", "ok"), ("closed_form", "ok")]
    assert rows[1]["params"] == "reason=no-closed-form"
    assert not (out / "errors.json").exists()


def read_rows(out):
    with open(out / "results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_error_row_carries_the_quantity_of_its_check(tmp_path):
    # singular_demo's tangent needs dt <= 2 delta / strength = 0.002, so at
    # n = 80 (dt = 0.0125) every estimate blows up; a check's error row then
    # sits under the quantity of its own gated rows
    cfg = ExperimentConfig(scenario="singular_demo", n_particles=300, n_steps=80, seed=3,
                           checks=("intrinsic_estimate", "intrinsic_vs_fd", "determinism"))
    result = run_experiment(cfg, "", tmp_path)
    assert result.exit_code == 3
    assert [(r.label, r.quantity) for r in result.rows if r.status == "error"] == [
        ("intrinsic_estimate", "intrinsic_estimate"), ("intrinsic_vs_fd", "fd_oracle"),
        ("determinism", "intrinsic_estimate")]


@pytest.mark.parametrize("scenario", ["ou", "meanfield_ou", "brownian2d"])
def test_closed_form_on_every_affine_scenario(scenario, tmp_path):
    text = (SMALL_CONFIG.replace("scenario = brownian", f"scenario = {scenario}")
            .replace("perturbations = const_e1",
                     "perturbations = const_e1, identity, sine_field")
            .replace(CHECKS_LINE, "checks = intrinsic_closed_form"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, text)),
                 "--out", str(out)]) == 0
    assert [(r["label"], r["status"]) for r in read_rows(out)] == [
        (f"coord1|{p}|exact", "pass") for p in ("const_e1", "identity", "sine_field")]


TV_CONFIG = """\
[experiment]
scenario = {scenario}
n_particles = 4000
n_steps = 400
t = 1.0
seed = 3

[estimator]
checks = dual_norm_scaling, tv_scaling

[oracle]
t_grid = 0.25, 0.5, 1, 2
tv_shift = 1
"""


@pytest.mark.parametrize("scenario", ["ou", "meanfield_ou"])
def test_tv_slope_of_a_mean_reverting_flow_passes(scenario, tmp_path):
    # both scaling checks fit against the exact slope of the scenario's own
    # affine flow, not Brownian motion's t^{-1/2}
    out = tmp_path / "out"
    cfg = write_config(tmp_path, TV_CONFIG.format(scenario=scenario))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert [(r["quantity"], r["status"]) for r in read_rows(out) if r["label"] == "slope"] == [
        ("dual_norm", "pass"), ("tv_slope", "pass")]


def test_degenerate_oracle_is_ok_not_pass(tmp_path):
    # a constant payoff's Richardson oracle is exactly 0 +- 0: the estimate
    # has nothing to be compared with, so the row neither passes nor fails
    text = (SMALL_CONFIG.replace("observables = coord1", "observables = const1")
            .replace(CHECKS_LINE, "checks = intrinsic_vs_fd"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, text)),
                 "--out", str(out)]) == 0
    last = read_rows(out)[-1]
    assert (last["label"], last["value"], last["stderr"], last["status"],
            last["params"]) == ("const1|const_e1|richardson", "0.0", "0.0", "ok",
                                "reason=degenerate-oracle")


def test_exact_tangent_passes_without_an_order(tmp_path):
    # an affine flow has an exact tangent: the finite-difference errors are
    # rounding noise, so no order is fitted
    text = (SMALL_CONFIG.replace("scenario = brownian", "scenario = ou")
            .replace(CHECKS_LINE, "checks = tangent_fd_order"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, text)),
                 "--out", str(out)]) == 0
    last = read_rows(out)[-1]
    assert (last["label"], last["value"], last["status"], last["params"]) == (
        "tangent-order", "", "pass", "reason=exact-tangent")


# (three rung errors, fitted order) of tangent_fd_order as float.hex at N = 200,
# n = 50, seed 7 and the default eps_ladder 0.1, 0.05, 0.025.  They guard the
# per-rung tangent streams, which must reduce to the bits of one whole tangent.
TANGENT_FD_ORDER_PINS = {
    "trig": ("0x1.66610e44dff43p-9", "0x1.655c067acd388p-10", "0x1.64cdc58c27fdcp-11",
             "0x1.00932214b8456p+0"),
    "meanfield_sine": ("0x1.beb120088f9cdp-10", "0x1.ba8d66b5651f3p-11",
                       "0x1.b8759f12d235cp-12", "0x1.01c0316e739c1p+0"),
}


@pytest.mark.parametrize("scenario", sorted(TANGENT_FD_ORDER_PINS))
def test_tangent_fd_order_bits_are_pinned(scenario):
    cfg = ExperimentConfig(scenario=scenario, n_particles=200, n_steps=50, seed=7,
                           checks=("tangent_fd_order",))
    rows = runner.check_tangent_fd_order(runner.resolve_bundle(cfg))
    assert [r.label for r in rows] == ["tangent|eps=0.1", "tangent|eps=0.05",
                                       "tangent|eps=0.025", "tangent-order"]
    assert rows[-1].status == "pass"
    assert tuple(r.value.hex() for r in rows) == TANGENT_FD_ORDER_PINS[scenario]


def test_underflowed_exact_value_is_a_failed_slope_not_a_traceback(tmp_path, capfd):
    # at a = 2000 the exact derivative at t = 0.4 is of order e^{-800}, which
    # underflows to 0.0: there is no exact slope to compare with
    text = """\
[experiment]
scenario = custom
n_particles = 200
n_steps = 10000

[estimator]
checks = dual_norm_scaling

[oracle]
t_grid = 0.05, 0.4

[custom]
family = affine
a = 2000
"""
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, text)),
                 "--out", str(out)]) == 1
    rows = read_rows(out)
    assert [(r["label"], r["status"]) for r in rows] == [
        ("t=0.05", "ok"), ("t=0.4", "ok"), ("slope", "fail")]
    assert rows[1]["params"] == "exact=0.0"
    assert rows[2]["params"] == "reason=nonpositive-exact"
    assert not (out / "errors.json").exists()
    assert "Traceback" not in capfd.readouterr().err


def test_zero_gap_is_a_failed_check_not_a_numerical_error(tmp_path):
    text = (SMALL_CONFIG.replace("n_particles = 400", "n_particles = 2")
            .replace("n_steps = 50", "n_steps = 3")
            .replace(CHECKS_LINE, "checks = tv_scaling"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, text)),
                 "--out", str(out)]) == 1
    last = read_rows(out)[-1]
    assert (last["label"], last["status"], last["params"]) == ("slope", "fail",
                                                               "reason=zero-gap")
    assert not (out / "errors.json").exists()


def test_zero_shift_is_a_failed_stability_row(tmp_path):
    # 1e-300 vanishes on the cloud in floating point, so w0 = 0 and its ratios
    # are not figures of the flow; the variation is taken over the other shifts
    text = (SMALL_CONFIG.replace("scenario = brownian", "scenario = meanfield_ou")
            .replace("n_particles = 400", "n_particles = 200")
            .replace(CHECKS_LINE, "checks = wasserstein_lipschitz")
            .replace("[oracle]\n", "[oracle]\nstability_shifts = 1e-300, 0.2, 2.0\n"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, text)),
                 "--out", str(out)]) == 1
    rows = [(r["label"], r["status"], r["params"]) for r in read_rows(out)]
    assert rows[:2] == [("shift=1e-300|terminal", "fail", "reason=zero-shift|w0=0.0"),
                        ("shift=1e-300|sup", "fail", "reason=zero-shift")]
    assert [status for _, status, _ in rows[2:]] == ["ok"] * 4 + ["pass"]
    one_left = text.replace("1e-300, 0.2, 2.0", "1e-300, 0.2")
    assert main(["run", "--config", str(write_config(tmp_path, one_left)),
                 "--out", str(out)]) == 1
    assert read_rows(out)[-1]["params"] == "reason=zero-shift"


AFFINE_TV = """\
[experiment]
scenario = custom
n_particles = 200
n_steps = 100

[estimator]
checks = tv_scaling

[custom]
family = affine
a = {a}
"""


@pytest.mark.parametrize("a, check, kind", [("-1000", "tv_scaling", "OverflowError"),
                                            ("1e308", "tv_scaling", "ZeroDivisionError"),
                                            ("1e308", "intrinsic_estimate", "FloatingPointError")])
def test_arithmetic_error_in_a_check_is_an_error_row(a, check, kind, tmp_path):
    # tv_sign_reference evaluates the affine flow before any simulation: at
    # a = -1000 exp(1000 t) overflows, and at a = 1e308 the variance is 0;
    # the drift -a x at a = 1e308 overflows in the first Euler step, which
    # printed numpy's RuntimeWarning before the step guard saw the inf
    text = AFFINE_TV.format(a=a).replace("checks = tv_scaling", f"checks = {check}")
    cfg, out = write_config(tmp_path, text), tmp_path / "out"
    src = str(Path(runner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "mvgrad.cli", "run", "--config", str(cfg),
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert [(r["label"], r["status"], r["params"]) for r in read_rows(out)] == [
        (check, "error", f"error={kind}")]
    assert json.loads((out / "errors.json").read_text())[0]["type"] == kind


def test_config_is_checked_when_it_is_made():
    cfg = ExperimentConfig()
    for bad in (dict(schedules=()), dict(n_particles=0), dict(seed=-1)):
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, **bad)
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)


def test_first_schedule_is_the_runs():
    cfg = ExperimentConfig(n_particles=50, n_steps=10, schedules=("sine", "linear"))
    bundle = runner.resolve_bundle(cfg)
    phi, f = bundle.field("const_e1"), bundle.obs("coord1")
    by_name = {name: estimate_intrinsic(bundle.model, bundle.mu0(), phi, f, cfg.t, bundle.grid(),
                                        SCHEDULE_FACTORIES[name](cfg.t), cfg.seed).value
               for name in cfg.schedules}
    assert bundle.estimate(phi, f).value == by_name["sine"] != by_name["linear"]


def test_parallel_run_leaves_warning_filters_alone(tmp_path):
    text = (SMALL_CONFIG.replace("scenario = brownian", "scenario = singular_demo")
            .replace(CHECKS_LINE, "checks = intrinsic_estimate, determinism, moment_bound")
            + "\n[output]\nparallel = 2\n")
    cfg = write_config(tmp_path, text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        before = list(warnings.filters)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        after = list(warnings.filters)
    assert code == 0
    assert after == before
    assert not caught


TWO_CHECKS = (SMALL_CONFIG.replace("n_particles = 400", "n_particles = 100")
              .replace("n_steps = 50", "n_steps = 20")
              .replace(CHECKS_LINE, "checks = linearity, determinism"))


def two_check_config(tmp_path, parallel):
    cfg, _ = load_config(write_config(tmp_path, TWO_CHECKS))
    return dataclasses.replace(cfg, parallel=parallel, out_dir=str(tmp_path / "out"))


def test_parallel_never_starts_more_workers_than_checks(tmp_path, monkeypatch):
    recorded = []

    class InlineExecutor:
        """Records the pool size it is asked for and runs every call at once."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            recorded.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(runner, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(runner, "_worker_bundle", None)
    rows, errors, _ = runner.run_suite(two_check_config(tmp_path, 64))
    assert recorded == [2]
    assert not errors and [r.status for r in rows] == ["pass", "pass"]


def test_pool_broken_at_submit_is_an_error_row(tmp_path, monkeypatch, capfd):
    class BreakingExecutor:
        """Runs the first call at once; the pool is broken at the second submit."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            initializer(*initargs)
            self.submitted = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.submitted += 1
            if self.submitted > 1:
                raise BrokenProcessPool("a worker died before this check was submitted")
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(runner, "ProcessPoolExecutor", BreakingExecutor)
    monkeypatch.setattr(runner, "_worker_bundle", None)
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, TWO_CHECKS)),
                 "--out", str(out), "--parallel", "2"]) == 3
    records = json.loads((out / "errors.json").read_text())
    assert [(r["check"], r["type"]) for r in records] == [("determinism", "BrokenProcessPool")]
    assert [r["status"] for r in read_rows(out)] == ["pass", "error"]
    assert "Traceback" not in capfd.readouterr().err


def test_checks_run_in_worker_processes(tmp_path, monkeypatch):
    def reporting_pid(name):
        def check(bundle):
            return [runner.ResultRow(scenario="brownian", quantity="pid", label=name,
                                     value=None, stderr=None, status="ok",
                                     params=f"pid={os.getpid()}", seed=0)]
        return check

    for name in ("linearity", "determinism"):
        monkeypatch.setitem(CHECKS, name, reporting_pid(name))
    rows, errors, _ = runner.run_suite(two_check_config(tmp_path, 2))
    assert not errors and [r.label for r in rows] == ["linearity", "determinism"]
    pids = {int(r.params.removeprefix("pid=")) for r in rows}
    assert os.getpid() not in pids
    assert len(pids) <= 2


def test_dead_worker_is_an_error_row(tmp_path, monkeypatch, capfd):
    def dying(bundle):
        os._exit(1)

    monkeypatch.setitem(CHECKS, "linearity", dying)
    cfg = write_config(tmp_path, TWO_CHECKS)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--parallel", "2"]) == 3
    records = json.loads((out / "errors.json").read_text())
    assert {"check": "linearity", "type": "BrokenProcessPool"} in [
        {"check": r["check"], "type": r["type"]} for r in records]
    assert all(r["message"] for r in records)
    assert read_rows(out)[0]["status"] == "error"
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.parent.glob("configs/*.cfg")),
                         ids=lambda p: p.name)
def test_shipped_configs_validate(path):
    assert main(["validate", "--config", str(path)]) == 0


# sha256 of results.csv for each shipped config at N = 200, n = 100.  The pins
# hold for Python 3.11.7, numpy 2.4.6 and scipy 1.17.1; a change may re-pin
# one only when it names the rows that move.
RESULTS_SHA256 = {
    ("brownian.cfg", 7): "bebf31010bcdac87b3d8d62efe63123d19d4f187e37c34e6e38a11b2d9364258",
    ("brownian.cfg", 1): "10b017a20b5f7fd589d765c0876b438f1e0e20c5ce4137e9b89a48893f2843d6",
    ("meanfield_ou.cfg", 7): "e80d013656f0198ee5b8b72495e807edfa02cc328dcd3496f945c9e51cfc804f",
    ("meanfield_ou.cfg", 1): "af6051a965a3f1ac10aef764d8dfc511dc3edc8b61b74c333b28f7cb5271aec6",
}


@pytest.mark.parametrize("config, seed", sorted(RESULTS_SHA256))
def test_shipped_config_results_are_pinned(config, seed, tmp_path):
    """results.csv of a shipped config, byte for byte (see RESULTS_SHA256)."""
    cfg, text = load_config(Path(__file__).parent.parent / "configs" / config)
    for parallel in (1, 2):
        cfg = dataclasses.replace(cfg, n_particles=200, n_steps=100, seed=seed,
                                  parallel=parallel)
        result = run_experiment(cfg, text, tmp_path / str(parallel))
        digest = hashlib.sha256(result.csv_path.read_bytes()).hexdigest()
        assert digest == RESULTS_SHA256[config, seed]


# (noise tensors built, paths integrated) per check.  The checks on the run's
# own noise key share one block, in declaration order: the first of them
# builds its tensor, and each integrates once per simulation from a cloud
# other than the one whose paths are held (the last stored run on the tensor,
# here mu0 at the run's seed), and once per streamed run, which is never held.
# Each other check has a block of its own, and determinism regenerates both of
# its runs.  Counted from runner.py:
#   intrinsic_vs_fd: mu0 for the estimate, held while every eps reads it; the
#     3 pushforwards of the ladder, then Richardson's eps and eps/2
#     pushforwards, all streamed: 1 + 3 + 2 = 6
#   beta_invariance: one per ci seed, the schedules reuse it
#   wasserstein_lipschitz: mu0 is held, so only each shift's matched cloud: 3
#   moment_bound: 4 streamed ladder laws; linearity, intrinsic_closed_form:
#     mu0 is held
#   classical_gradient: the point mass, first on the run's key
#   dual_norm_scaling: per horizon, +-e1 start at one point mass
#   tv_scaling: per horizon, two point masses
WORK_PER_CHECK = {
    "meanfield_ou.cfg": {"intrinsic_vs_fd": (1, 6), "beta_invariance": (4, 4),
                         "wasserstein_lipschitz": (0, 3), "moment_bound": (0, 4),
                         "linearity": (0, 0), "determinism": (2, 2)},
    "brownian.cfg": {"classical_gradient": (1, 1), "intrinsic_vs_fd": (0, 6),
                     "intrinsic_closed_form": (0, 0), "beta_invariance": (3, 3),
                     "linearity": (0, 0), "dual_norm_scaling": (4, 4), "tv_scaling": (4, 8),
                     "determinism": (2, 2)},
}


@pytest.mark.parametrize("config", sorted(WORK_PER_CHECK))
def test_noise_tensors_built_per_check(config, monkeypatch, tmp_path):
    built = collections.Counter()
    running = []
    build = simulate._noise_tensor

    def counting(grid, seed, N, m):
        built[running[-1]] += 1
        return build(grid, seed, N, m)

    def tagged(name, check):
        def run(bundle):
            running.append(name)
            try:
                return check(bundle)
            finally:
                running.pop()
        return run

    monkeypatch.setattr(simulate, "_noise_tensor", counting)
    for name, check in list(CHECKS.items()):
        monkeypatch.setitem(CHECKS, name, tagged(name, check))
    cfg, _ = load_config(Path(__file__).parent.parent / "configs" / config)
    want = WORK_PER_CHECK[config]
    for parallel in (1, 2):
        cfg = dataclasses.replace(cfg, n_particles=200, n_steps=100, parallel=parallel)
        result = run_experiment(cfg, "", tmp_path / str(parallel))
        assert not result.errors and all(r.status in ("ok", "pass") for r in result.rows)
        manifest = json.loads((tmp_path / str(parallel) / "manifest.json").read_text())
        # the forked workers count their own work, so the records are those of a serial run
        assert {c["name"]: (c["noise_tensors"], c["integrations"])
                for c in manifest["checks"]} == want
    # the builder itself, seen in this process only (a Counter reads 0 for the others)
    assert built == collections.Counter({name: tensors for name, (tensors, _) in want.items()})


def small_shipped_config(config):
    cfg, _ = load_config(Path(__file__).parent.parent / "configs" / config)
    return dataclasses.replace(cfg, n_particles=200, n_steps=100)


@pytest.mark.parametrize("config, checks", [
    pytest.param("brownian.cfg", None, id="brownian.cfg"),
    pytest.param("meanfield_ou.cfg", None, id="meanfield_ou.cfg"),
    # classical_gradient between two mu0 checks drops mu0's paths, so
    # linearity integrates them again
    pytest.param("brownian.cfg", ("intrinsic_vs_fd", "classical_gradient", "linearity",
                                  "intrinsic_closed_form"), id="brownian.cfg-reordered")])
def test_shared_unit_rows_equal_each_check_run_alone(config, checks):
    cfg = small_shipped_config(config)
    if checks:
        cfg = dataclasses.replace(cfg, checks=checks)
    rows, errors, _ = runner.run_suite(cfg)
    alone = [row for name in runner.resolve_bundle(cfg).checks
             for row in runner.run_suite(dataclasses.replace(cfg, checks=(name,)))[0]]
    assert not errors and rows == alone


def test_raising_check_leaves_the_rest_of_its_unit_unchanged(monkeypatch):
    # moment_bound holds mu0's paths, then raises in a build, which drops them
    # first; linearity follows it on the chain cut back to the tensor
    def raising(bundle):
        simulate.simulate_particles(bundle.model, bundle.mu0(), bundle.grid(),
                                    bundle.cfg.seed)
        blow_up = EmpiricalMeasure(np.full((bundle.cfg.n_particles, 1), 1e9))
        simulate.simulate_particles(bundle.model, blow_up, bundle.grid(), bundle.cfg.seed)

    cfg = small_shipped_config("meanfield_ou.cfg")
    rows, _, _ = runner.run_suite(cfg)
    monkeypatch.setitem(CHECKS, "moment_bound", raising)
    raised, errors, _ = runner.run_suite(cfg)
    assert [(e["check"], e["type"]) for e in errors] == [("moment_bound", "NonFinite")]
    assert [r for r in raised if r.quantity != "moment"] == [
        r for r in rows if r.quantity != "moment"]


def test_lost_unit_is_an_error_row_for_each_of_its_checks(tmp_path, monkeypatch, capfd):
    class LosingExecutor:
        """Loses the first unit submitted, as a dead worker would; runs the rest."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            initializer(*initargs)
            self.submitted = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.submitted += 1
            fut = concurrent.futures.Future()
            if self.submitted == 1:
                fut.set_exception(BrokenProcessPool("the worker running this unit died"))
            else:
                fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(runner, "ProcessPoolExecutor", LosingExecutor)
    monkeypatch.setattr(runner, "_worker_bundle", None)
    text = TWO_CHECKS.replace("checks = linearity, determinism",
                              "checks = intrinsic_closed_form, determinism, linearity")
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, text)),
                 "--out", str(out), "--parallel", "2"]) == 3
    records = json.loads((out / "errors.json").read_text())
    assert [(r["check"], r["type"]) for r in records] == [
        ("intrinsic_closed_form", "BrokenProcessPool"), ("linearity", "BrokenProcessPool")]
    assert [r["status"] for r in read_rows(out)] == ["error", "pass", "error"]
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize("name", scenario_names())
def test_shared_checks_read_only_the_run_noise_key(name, monkeypatch):
    """Every check declared shared reads the run's own noise key alone, or the
    shared unit would build tensors anew."""
    shared = tuple(c for c in get_scenario(name).checks
                   if runner.CHECK_SPECS[c].work == "shared")
    n_steps = 1000 if name == "singular_demo" else 100   # see test_registry_entry_runs_its_checks
    cfg = ExperimentConfig(scenario=name, n_particles=100, n_steps=n_steps, checks=shared)
    bundle = runner.resolve_bundle(cfg)
    keys = set()
    build = simulate.brownian_increments

    def recording(grid, N, m, seed):
        keys.add((seed, N, m, grid))
        return build(grid, N, m, seed)

    monkeypatch.setattr(simulate, "brownian_increments", recording)
    _, errors, _ = runner.run_suite(cfg)
    assert not errors
    assert keys == {(cfg.seed, cfg.n_particles, bundle.model.m, bundle.grid())}


@pytest.mark.parametrize("name", scenario_names())
def test_own_checks_read_another_noise_key(name, monkeypatch):
    """Every check declared own that the scenario can run reads a noise key
    besides the run's own, or it would get a block of its own without need."""
    n_steps = 1000 if name == "singular_demo" else 100   # see test_registry_entry_runs_its_checks
    keys = set()
    build = simulate.brownian_increments

    def recording(grid, N, m, seed):
        keys.add((seed, N, m, grid))
        return build(grid, N, m, seed)

    monkeypatch.setattr(simulate, "brownian_increments", recording)
    for check in [c for c, spec in runner.CHECK_SPECS.items() if spec.work == "own"]:
        cfg = ExperimentConfig(scenario=name, n_particles=100, n_steps=n_steps,
                               checks=(check,))
        try:
            bundle = runner.resolve_bundle(cfg)
        except ConfigError:
            continue        # the scenario does not meet the check's needs
        keys.clear()
        _, errors, _ = runner.run_suite(cfg)
        assert not errors
        assert keys - {(cfg.seed, cfg.n_particles, bundle.model.m, bundle.grid())}, check


# List keys of the generated configs, with the entries each may draw from.
LIST_KEYS = {
    ("experiment", "ci_seeds"): st.integers(0, 999).map(str),
    ("estimator", "schedules"): st.sampled_from(sorted(SCHEDULE_FACTORIES)),
    ("estimator", "observables"): st.sampled_from(sorted(default_observables(1))),
    ("estimator", "perturbations"): st.sampled_from(sorted(default_perturbations(1))),
    ("oracle", "eps_ladder"): st.sampled_from(["0.1", "0.05", "0.025"]),
    ("oracle", "t_grid"): st.sampled_from(["0.05", "0.1", "0.2", "0.4"]),
    ("oracle", "moment_variances"): st.sampled_from(["0.1", "1", "10"]),
    ("oracle", "stability_shifts"): st.sampled_from(["0.02", "0.2", "2.0"]),
}

# (section, key, value): an unknown key or section, a non-positive value, or
# a repeated eps_ladder entry (generated ladders are drawn without repeats)
BAD_ENTRIES = [
    ("experiment", "n_partcles", "9"), ("plots", "style", "dark"),
    ("experiment", "n_particles", "0"), ("experiment", "n_steps", "0"),
    ("experiment", "t", "-0.5"), ("oracle", "tv_shift", "0"),
    ("oracle", "eps_ladder", "0.1, 0"), ("oracle", "t_grid", "0"),
    ("oracle", "moment_variances", "-1"), ("oracle", "stability_shifts", "0"),
    ("output", "parallel", "0"), ("oracle", "eps_ladder", "0.05, 0.05"),
]

# [custom] affine rates a: exp(-a t) overflows at -1000, the variance's
# (1 - e^{-2at}) / 2a cancels at 1e-20, and 2a overflows at 1e308
AFFINE_RATES = ["-1000", "-3", "0", "1e-20", "0.5", "1e308"]


@st.composite
def generated_configs(draw):
    sections = {
        "experiment": {
            "scenario": draw(st.sampled_from(scenario_names())),
            "n_particles": str(draw(st.integers(1, 40))),
            "n_steps": str(draw(st.integers(1, 8))),
            "t": draw(st.sampled_from(["0.25", "0.5", "1.0"])),
            "seed": str(draw(st.integers(0, 99))),
        },
        "estimator": {
            "checks": ", ".join(draw(st.sets(st.sampled_from(sorted(CHECKS))))),
        },
        "oracle": {"tv_shift": draw(st.sampled_from(["0.25", "0.5", "1.0"]))},
        "output": {"parallel": str(draw(st.integers(1, 2)))},
    }
    for (section, key), entry in LIST_KEYS.items():
        # lengths 0-3 and repeated entries, both less often than long lists
        # of distinct entries, so that most configs reach a run; a repeated
        # eps_ladder entry is a config error, so the ladder never repeats
        # (a repeated ci_seeds entry is one too, and may be drawn: it exits 2)
        length = draw(st.sampled_from((2, 3) * 8 + (1, 0)))
        unique = key == "eps_ladder" or draw(st.sampled_from((True, True, True, False)))
        sections[section][key] = ", ".join(draw(st.lists(
            entry, min_size=length, max_size=length, unique=unique)))
    if draw(st.sampled_from((False, False, True))):
        sections["experiment"]["scenario"] = "custom"
        sections["custom"] = {"family": "affine", "a": draw(st.sampled_from(AFFINE_RATES))}
    if draw(st.sampled_from((False, False, False, False, True))):
        section, key, value = draw(st.sampled_from(BAD_ENTRIES))
        sections.setdefault(section, {})[key] = value
    return "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                     for name, body in sections.items())


@settings(max_examples=30, deadline=None)
@given(text=generated_configs())
def test_generated_configs_exit_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "gen.cfg"
        cfg.write_text(text)
        validated = main(["validate", "--config", str(cfg)])
        ran = main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert validated in (0, 2)
    assert ran in (0, 1, 2, 3)
    assert (validated == 2) == (ran == 2)


def test_readme_library_example_runs(capsys):
    # README's python block, executed as written: it must keep to the public API
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    [block] = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert "| oracle:" in capsys.readouterr().out


class TestOtherCommands:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        text = capsys.readouterr().out
        names = [s.name for s in all_scenarios()]
        assert len(names) >= 4
        for scen in all_scenarios():
            assert scen.name in text
            # every entry advertises at least one verification target
            assert scen.checks and scen.checks[0] in text

    def test_validate_good(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_bad(self, tmp_path):
        cfg = write_config(tmp_path, "[experiment]\nscenario = nope\n")
        assert main(["validate", "--config", str(cfg)]) == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    @staticmethod
    def _fresh_interpreter(code: str) -> str:
        src = str(Path(runner.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        return proc.stdout

    def test_no_module_imports_scipy_stats(self):
        # scipy.stats is most of the package's import time and it needs none of it
        code = ("import sys, mvgrad, mvgrad.runner, mvgrad.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
        assert self._fresh_interpreter(code).strip() == "[]"

    def test_d1_transport_loads_no_assignment_solver(self):
        # scipy.optimize, scipy.spatial and scipy.linalg load only when a d >= 2
        # transport runs
        code = "\n".join([
            "import sys, mvgrad, mvgrad.runner, mvgrad.cli",
            "from mvgrad.measure import EmpiricalMeasure, wasserstein",
            "solver = lambda: sorted(m for m in sys.modules",
            "                        if m.startswith(('scipy.optimize', 'scipy.spatial',",
            "                                         'scipy.linalg')))",
            "w1, _ = wasserstein(EmpiricalMeasure([[0.0], [2.0]]), EmpiricalMeasure([[3.0], [1.0]]), 2)",
            "print(w1, solver() == [])",
            "a = EmpiricalMeasure([[0.0, 0.0], [1.0, 1.0]])",
            "w2, plan = wasserstein(a, EmpiricalMeasure(a.points[::-1]), 2)",
            "print(w2, plan.pairing.tolist(), solver() != [])",
        ])
        assert self._fresh_interpreter(code).splitlines() == ["1.0 True", "0.0 [1, 0] True"]

    def test_console_entry_point(self, tmp_path):
        # one end-to-end subprocess pass through the installed module
        proc = subprocess.run(
            [sys.executable, "-m", "mvgrad.cli", "list-scenarios"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "brownian" in proc.stdout

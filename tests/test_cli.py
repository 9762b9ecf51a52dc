import collections
import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mvgrad import runner, simulate
from mvgrad.cli import main
from mvgrad.config import ExperimentConfig, load_config
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
        assert manifest["workers_peak_rss_mb"] >= 0
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
    "unknown-schedule": ((("[estimator]\n", "[estimator]\nschedule = cubic\n"),), None),
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


def test_check_needs_are_known():
    # an unknown need name would reach getattr(cfg, need) and end in a traceback
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    assert set(runner.CHECK_NEEDS) <= set(CHECKS)
    for check, needs in runner.CHECK_NEEDS.items():
        for need in needs:
            assert need in runner.NAMED_NEEDS or need in fields, (check, need)


@pytest.mark.parametrize("name", scenario_names())
def test_registry_entry_resolves_with_its_checks(name):
    # a registry entry whose declared checks need what its model lacks fails here
    bundle = runner.resolve_bundle(ExperimentConfig(scenario=name))
    assert bundle.checks == get_scenario(name).checks
    assert set(bundle.scenario.params) == set(FAMILY_PARAMS[bundle.scenario.family])


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
    cfg = dataclasses.replace(cfg, n_particles=200, n_steps=100, seed=seed)
    result = run_experiment(cfg, text, tmp_path)
    digest = hashlib.sha256(result.csv_path.read_bytes()).hexdigest()
    assert digest == RESULTS_SHA256[config, seed]


# Noise tensors each check builds: one per distinct noise key its
# consecutive simulations use, except determinism, which regenerates.
TENSORS_PER_CHECK = {
    "meanfield_ou.cfg": {"intrinsic_vs_fd": 1, "beta_invariance": 4,
                         "wasserstein_lipschitz": 1, "moment_bound": 1,
                         "linearity": 1, "determinism": 2},
    "brownian.cfg": {"classical_gradient": 1, "intrinsic_vs_fd": 1,
                     "intrinsic_closed_form": 1, "beta_invariance": 3,
                     "linearity": 1, "dual_norm_scaling": 4, "tv_scaling": 4,
                     "determinism": 2},
}


@pytest.mark.parametrize("config", sorted(TENSORS_PER_CHECK))
def test_noise_tensors_built_per_check(config, monkeypatch):
    built = collections.Counter()
    running = []
    draw = simulate.particle_increments

    def counting(seed, particle, grid, m):
        if particle == 0:
            built[running[-1]] += 1
        return draw(seed, particle, grid, m)

    def tagged(name, check):
        def run(bundle):
            running.append(name)
            try:
                return check(bundle)
            finally:
                running.pop()
        return run

    monkeypatch.setattr(simulate, "particle_increments", counting)
    for name, check in list(CHECKS.items()):
        monkeypatch.setitem(CHECKS, name, tagged(name, check))
    cfg, _ = load_config(Path(__file__).parent.parent / "configs" / config)
    cfg = dataclasses.replace(cfg, n_particles=200, n_steps=100, parallel=1)
    rows, errors, _ = runner.run_suite(cfg)
    assert not errors and all(r.status in ("ok", "pass") for r in rows)
    assert dict(built) == TENSORS_PER_CHECK[config]


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
            "schedule": draw(st.sampled_from(sorted(SCHEDULE_FACTORIES))),
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

    def test_console_entry_point(self, tmp_path):
        # one end-to-end subprocess pass through the installed module
        proc = subprocess.run(
            [sys.executable, "-m", "mvgrad.cli", "list-scenarios"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "brownian" in proc.stdout

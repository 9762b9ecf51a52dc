import json
import subprocess
import sys

import pytest

from mvgrad.cli import main
from mvgrad.scenarios import all_scenarios

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


# (config edit, MVGRAD_MEMORY_BUDGET_MB value)
BAD_INPUTS = {
    "unknown-check": (("checks = intrinsic_vs_fd,", "checks = intrinsic_vs_fdd,"), None),
    "unknown-schedule": (("[estimator]\n", "[estimator]\nschedule = cubic\n"), None),
    "unknown-observable": (("observables = coord1", "observables = nosuch"), None),
    "unknown-perturbation": (("perturbations = const_e1", "perturbations = nosuch"), None),
    "budget-not-a-number": (None, "banana"),
    "budget-negative": (None, "-5"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_config_error(case, tmp_path, monkeypatch, capsys):
    edit, budget = BAD_INPUTS[case]
    text = SMALL_CONFIG.replace(*edit) if edit else SMALL_CONFIG
    assert text != SMALL_CONFIG or budget is not None
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    if budget is not None:
        monkeypatch.setenv("MVGRAD_MEMORY_BUDGET_MB", budget)
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

"""Tests for the command-line interface: subcommand behavior, artifact
emission, and exit codes (0 success, 2 configuration error, 3 numerical
failure)."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest

from nscontrol import harness
from nscontrol.cli import main
from nscontrol.filtering import spectral_basis
from nscontrol.serialize import read_csv, read_json_summary, save_matrix
from nscontrol.sysid import BlackBoxSystem, identify_then_control


def run_cli(argv):
    """Invoke main() capturing stdout/stderr; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_scenarios_lists_all_presets():
    code, out, _ = run_cli(["scenarios"])
    assert code == 0
    for name in (
        "double-integrator",
        "scalar-0.9",
        "b747",
        "pendulum",
        "ventilator",
        "sir",
    ):
        assert name in out


def test_simulate_writes_artifacts():
    with tempfile.TemporaryDirectory() as tmp:
        code, out, _ = run_cli(
            [
                "simulate",
                "--preset",
                "double-integrator",
                "--horizon",
                "30",
                "--out",
                tmp,
            ]
        )
        assert code == 0
        assert "controller=lqr" in out
        header, data = read_csv(os.path.join(tmp, "report.csv"))
        assert data.shape[0] == 30
        summary = read_json_summary(os.path.join(tmp, "summary.json"))
        assert summary["controller"] == "lqr"
        assert summary["comparator"] == "none"
        assert summary["horizon"] == 30


def test_regret_gpc_on_preset():
    with tempfile.TemporaryDirectory() as tmp:
        code, out, _ = run_cli(
            [
                "regret",
                "--preset",
                "scalar-0.9",
                "--controller",
                "gpc",
                "--h",
                "4",
                "--radius",
                "2.0",
                "--step-size",
                "0.05",
                "--horizon",
                "120",
                "--seed",
                "5",
                "--out",
                tmp,
            ]
        )
        assert code == 0
        assert "comparator=best-dac" in out
        summary = read_json_summary(os.path.join(tmp, "summary.json"))
        assert summary["seed"] == 5
        assert "final_avg_regret" in summary


def test_regret_from_config_file():
    text = """
[system]
preset = scalar-0.9

[controller]
kind = gpc
h = 3
radius = 2.0
step_size = 0.05

[run]
horizon = 200
"""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        code, out, _ = run_cli(["regret", "--config", path, "--horizon", "80"])
        assert code == 0
        assert "T=80" in out

        # Learner and comparator flags override the file's values.
        h2 = os.path.join(tmp, "h2.cfg")
        with open(h2, "w") as fh:
            fh.write(text.replace("h = 3", "h = 2"))
        reports = {}
        for name, argv in (
            ("file", ["--config", h2]),
            ("flag", ["--config", path, "--h", "2"]),
            ("h3", ["--config", path]),
        ):
            out_dir = os.path.join(tmp, name)
            assert run_cli(["regret", *argv, "--horizon", "80", "--out", out_dir])[0] == 0
            with open(os.path.join(out_dir, "report.csv"), "rb") as fh:
                reports[name] = fh.read()
        assert reports["flag"] == reports["file"] != reports["h3"]

        with open(path, "a") as fh:
            fh.write("\n[comparator]\nkind = best-dac\n")
        code, out, _ = run_cli(["regret", "--config", path, "--comparator", "zero"])
        assert code == 0
        assert "comparator=zero" in out


def _run_config(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        return run_cli([command, "--config", path])


def _regret_from_config(text):
    return _run_config("regret", text)


def test_regret_config_rejects_unknown_comparator_option():
    # The gain key, lowercased by the config parser, is a known option; the
    # unknown one is a configuration error, not a TypeError traceback.
    code, _, err = _regret_from_config(
        "[system]\npreset = scalar-0.9\n\n[controller]\nkind = zero\n\n"
        "[comparator]\nkind = best-dac\nk = zero\nbogus = 1\n\n[run]\nhorizon = 20\n"
    )
    assert code == 2
    assert "unknown best-dac options: ['bogus']" in err

    code, _, err = _regret_from_config(
        "[system]\npreset = ventilator\n\n[controller]\nkind = zero\n\n"
        "[comparator]\nkind = best-drc\nmax_iter = many\n\n[run]\nhorizon = 20\n"
    )
    assert code == 2
    assert "max_iter = 'many' is not a valid int" in err


def test_regret_config_comparator_budget_options():
    code, out, _ = _regret_from_config(
        "[system]\npreset = ventilator\n\n[controller]\nkind = zero\n\n"
        "[comparator]\nkind = best-drc\nmax_iter = 100\ntol = 1e-9\n\n[run]\nhorizon = 60\n"
    )
    assert code == 0
    assert "comparator=best-drc T=60" in out


def test_regret_config_rejects_bad_run_and_perturbation_numbers():
    code, _, err = _regret_from_config(
        "[system]\npreset = scalar-0.9\n\n[controller]\nkind = zero\n\n[run]\nhorizon = ten\n"
    )
    assert code == 2
    assert "horizon = 'ten' is not a valid int" in err

    code, _, err = _regret_from_config(
        "[system]\npreset = scalar-0.9\n\n[perturbation]\nkind = iid-gaussian\nsigma = big\n\n"
        "[controller]\nkind = zero\n\n[run]\nhorizon = 20\n"
    )
    assert code == 2
    assert "sigma = 'big' is not a valid float" in err


def test_config_file_rejects_unknown_sections_and_keys():
    base = "[system]\npreset = scalar-0.9\n\n[controller]\nkind = zero\n\n[run]\nhorizon = 20\n"
    for extra, message in (
        ("[controler]\nkind = gpc\n", "unknown config file options: ['controler']"),
        ("[cost]\nkind = quadratic\nqq = Q.txt\n", "unknown [cost] options: ['qq']"),
        ("[perturbation]\nkind = iid-gaussian\nsigmaa = 0.01\n",
         "unknown iid-gaussian perturbation options: ['sigmaa']"),
        ("[perturbation]\nkind = iid-uniform-ball\nclip = true\n",
         "unknown iid-uniform-ball perturbation options: ['clip']"),
        # A key a kind needs, and a key the file format cannot express.
        ("[perturbation]\nkind = constant\n",
         "[perturbation] kind = constant needs the matrix file key 'vector'"),
        ("[perturbation]\nkind = recorded\nclip = true\n",
         "[perturbation] kind = recorded needs the matrix file key 'sequence'"),
        ("[comparator]\nkind = best-linear\nstarts = 3\n",
         "[comparator] starts cannot be set in a config file"),
    ):
        code, _, err = _regret_from_config(base + "\n" + extra)
        assert code == 2
        assert message in err
    for section, key in (("system", "presett"), ("run", "horizn")):
        code, _, err = _regret_from_config(base.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n"))
        assert code == 2
        assert f"unknown [{section}] options: ['{key}']" in err
    for kind in ("zero", "linear", "lqr", "gpc", "grc"):
        code, _, err = _regret_from_config(base.replace("kind = zero", f"kind = {kind}\nbogus = 1"))
        assert code == 2
        assert f"configuration error: unknown {kind} options: ['bogus']" in err
    # The learners dropped their truncation depth, and a file that sets one
    # is an error naming it.
    for kind in ("gpc", "grc"):
        code, _, err = _regret_from_config(base.replace("kind = zero", f"kind = {kind}\nh_trunc = 20"))
        assert code == 2
        assert f"configuration error: unknown {kind} options: ['h_trunc']" in err


def test_sysid_subcommand():
    with tempfile.TemporaryDirectory() as tmp:
        code, out, _ = run_cli(
            [
                "sysid",
                "--preset",
                "scalar-0.9",
                "--horizon",
                "600",
                "--k",
                "1",
                "--h",
                "4",
                "--radius",
                "2.0",
                "--step-size",
                "0.1",
                "--out",
                tmp,
            ]
        )
        assert code == 0
        assert "sigma_min=" in out
        summary = read_json_summary(os.path.join(tmp, "summary.json"))
        assert summary["controller"] == "identify-then-control"
        assert summary["T0"] > 0
        assert "A_error" in summary and "residual" in summary

        # A config file's learner options reach the controller.
        path = os.path.join(tmp, "constant.cfg")
        with open(path, "w") as fh:
            fh.write("[system]\npreset = scalar-0.9\n\n[controller]\nradius = 2.0\n"
                     "schedule = constant\n\n[run]\nhorizon = 600\nout = constant\n")
        assert run_cli(["sysid", "--config", path])[0] == 0
        reports = {}
        for schedule in ("constant", "sqrt"):
            config = harness.config_from_preset("scalar-0.9", {}, 600)
            box = BlackBoxSystem(config.system, config.perturbation, seed=0, x0=config.x0)
            report = identify_then_control(
                box, 600, config.cost, k=1, radius=2.0, schedule=schedule
            )
            reports[schedule] = os.path.join(tmp, f"{schedule}.csv")
            harness.write_report_csv(report, reports[schedule])
        with open(os.path.join(tmp, "constant", "report.csv"), "rb") as fh:
            by_cli = fh.read()
        with open(reports["constant"], "rb") as fh, open(reports["sqrt"], "rb") as gh:
            assert by_cli == fh.read() != gh.read()


def test_readme_sysid_line_stays_bounded_under_the_default_step():
    # The README's identification example at its default learner options
    # (radius 10, AdaGrad-norm): a finite per-step regret, with the state
    # guard's fields in the summary.
    with tempfile.TemporaryDirectory() as tmp:
        code, out, _ = run_cli(["sysid", "--preset", "scalar-0.9", "--horizon", "4000",
                                "--seed", "0", "--out", tmp])
        assert code == 0
        summary = read_json_summary(os.path.join(tmp, "summary.json"))
    assert summary["final_avg_regret"] <= 1e3
    assert f"avg_regret={summary['final_avg_regret']:.6g}" in out
    assert summary["state_ratio_bound"] == 1e3
    assert 0.0 < summary["max_state_ratio"] <= 1e3


def test_sysid_with_a_large_sqrt_step_stays_bounded_or_exits_3():
    # A hand-set step the plant cannot take, from a config file (no flag
    # sets the schedule): each seed ends bounded or as a numerical failure
    # from the state guard, never as a diverged regret.
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(4):
            path = os.path.join(tmp, f"sqrt{seed}.cfg")
            with open(path, "w") as fh:
                fh.write("[system]\npreset = scalar-0.9\n\n[controller]\nschedule = sqrt\n"
                         f"step_size = 10\n\n[run]\nhorizon = 4000\nseed = {seed}\n")
            code, out, err = run_cli(["sysid", "--config", path])
            assert code in (0, 3), (seed, code, err)
            if code == 3:
                assert "exceeds the state bound" in err
            else:
                assert float(out.split("avg_regret=")[1].split()[0]) <= 1e3


def test_sysid_exits_3_when_the_model_gain_does_not_stabilize_the_plant():
    code, _, err = run_cli(["sysid", "--preset", "double-integrator"])
    assert code == 3
    assert "exceeds the state bound" in err


def test_filter_subcommand():
    with tempfile.TemporaryDirectory() as tmp:
        code, out, _ = run_cli(
            ["filter", "--preset", "b747", "--horizon", "60", "--out", tmp]
        )
        assert code == 0
        header, data = read_csv(os.path.join(tmp, "filter.csv"))
        assert header == ["t", "state_error", "obs_error", "sigma_trace"]
        assert data.shape == (60, 4)
        summary = read_json_summary(os.path.join(tmp, "summary.json"))
        assert summary["mse_state"] > 0.0


@pytest.mark.parametrize("command", ["filter", "spectral"])
def test_a_diverging_open_loop_plant_is_a_numerical_failure(command):
    # The pendulum is open-loop unstable and its state leaves the floats
    # before T = 6000: a numerical failure (exit 3) that names the first
    # non-finite state, with no overflow warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run_cli([command, "--preset", "pendulum", "--horizon", "6000"])
    assert code == 3
    assert "numerical failure: the open-loop plant's state is non-finite at t=4891" in err


def test_spectral_subcommand_caches_basis():
    with tempfile.TemporaryDirectory() as tmp:
        argv = [
            "spectral",
            "--preset",
            "scalar-0.9",
            "--horizon",
            "120",
            "--filters",
            "10",
            "--out",
            tmp,
        ]
        code, _, _ = run_cli(argv)
        assert code == 0
        basis_path = os.path.join(tmp, "spectral_basis_T120_h10.txt")
        assert os.path.exists(basis_path)
        header, data = read_csv(os.path.join(tmp, "spectral.csv"))
        assert header == ["t", "sq_error", "avg_loss"]
        assert data.shape == (120, 3)
        # Second run hits the cache and succeeds identically.
        code2, _, _ = run_cli(argv)
        assert code2 == 0
        # A truncated cache (as a killed writer could leave) is a
        # configuration error, not a numpy traceback.
        with open(basis_path, "rb") as fh:
            whole = fh.read()
        for cut in (whole[:3000], whole[:-1]):
            with open(basis_path, "wb") as fh:
                fh.write(cut)
            code3, _, err = run_cli(argv)
            assert code3 == 2
            assert "malformed" in err


def test_spectral_summary_reports_the_basis_decay():
    # basis_lambda_1 and basis_tail_ratio = lambda_h / lambda_1 are those of
    # spectral_basis itself, on the first run, which builds and caches the
    # basis, and on the second, which loads it.
    basis = spectral_basis(120, 20)
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["spectral", "--preset", "scalar-0.9", "--horizon", "120", "--out", tmp]
        for _ in range(2):
            code, _, _ = run_cli(argv)
            assert code == 0
            summary = read_json_summary(os.path.join(tmp, "summary.json"))
            assert summary["basis_lambda_1"] == basis.eigenvalues[0]
            assert summary["basis_tail_ratio"] == basis.eigenvalues[-1] / basis.eigenvalues[0]
            assert 0.0 <= summary["basis_tail_ratio"] < 1e-6


def test_configuration_error_exit_code():
    code, _, err = run_cli(["simulate", "--preset", "no-such-scenario"])
    assert code == 2
    assert "configuration error" in err

    # Noise levels are standard deviations: a negative one is refused.
    for flag, level in (("--process-noise", "-1"), ("--obs-noise", "-0.5"), ("--obs-noise", "nan")):
        code, out, err = run_cli(["filter", "--preset", "b747", "--horizon", "20", flag, level])
        assert code == 2
        assert flag in err and "mse" not in out

    # Observation costs cannot feed the identification pipeline.
    code, _, err = run_cli(["sysid", "--preset", "ventilator", "--horizon", "300"])
    assert code == 2
    assert "state cost" in err

    # sysid forwards the learner options and checks them first.
    code, _, err = _run_config(
        "sysid", "[system]\npreset = scalar-0.9\n\n[controller]\nschedule = constant\nbogus = 7\n"
    )
    assert code == 2
    assert "unknown sysid options: ['bogus']" in err


def test_state_cost_comparators_refuse_an_observation_cost_before_simulating():
    # The ventilator cost lives on (pressure, flow) pairs; the action and
    # linear comparators charge states, so both refuse before any step.
    for kind, policy in (("best-linear", "linear"), ("best-dac", "action")):
        with mock.patch.object(harness, "simulate", side_effect=AssertionError("simulated")):
            code, _, err = run_cli(
                ["regret", "--preset", "ventilator", "--controller", "zero",
                 "--comparator", kind, "--horizon", "300"]
            )
        assert code == 2
        assert f"the {policy}-policy comparator needs a state cost; use best-drc" in err


def test_invalid_learner_radius_exit_code():
    # A negative projection radius is a configuration error (exit 2), not a
    # ZeroDivisionError traceback from the first zero-gradient update.
    code, _, err = run_cli(
        ["regret", "--preset", "scalar-0.9", "--controller", "gpc", "--radius", "-1",
         "--horizon", "50"]
    )
    assert code == 2
    assert "radius" in err

    # A fixed policy takes no learner option ...
    code, _, err = run_cli(["simulate", "--controller", "lqr", "--radius", "9"])
    assert code == 2
    assert "configuration error: unknown lqr options: ['radius']" in err

    # ... but its h still sets the comparator's depth.
    zero = ["regret", "--preset", "scalar-0.9", "--controller", "zero", "--horizon", "50"]
    code, by_flag, _ = run_cli(zero + ["--h", "3"])
    assert code == 0
    code, by_file, _ = _run_config(
        "regret",
        "[system]\npreset = scalar-0.9\n\n[controller]\nkind = zero\n\n"
        "[comparator]\nh = 3\n\n[run]\nhorizon = 50\n",
    )
    assert code == 0
    assert by_flag == by_file != run_cli(zero)[1]


def test_numerical_failure_exit_code():
    # An inline system with B = 0 cannot be excited: every moment is zero
    # and the pipeline aborts with a numerical diagnostic.
    with tempfile.TemporaryDirectory() as tmp:
        save_matrix(0.5 * np.eye(2), os.path.join(tmp, "A.txt"))
        save_matrix(np.zeros((2, 1)), os.path.join(tmp, "B.txt"))
        path = os.path.join(tmp, "dead.cfg")
        with open(path, "w") as fh:
            fh.write("[system]\na = A.txt\nb = B.txt\n\n[run]\nhorizon = 500\n")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, _, err = run_cli(["sysid", "--config", path])
    assert code == 3
    assert "numerical failure" in err


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "nscontrol.cli", "scenarios"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "scalar-0.9" in proc.stdout

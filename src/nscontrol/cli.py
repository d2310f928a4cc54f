"""Command-line interface for scenario simulation, regret experiments,
system identification, and filtering demos.

Subcommands
-----------
``scenarios``
    List the built-in benchmark scenarios.
``simulate``
    Run a controller on a scenario and write the per-step trajectory
    report (no comparator).
``regret``
    Run a controller and an offline hindsight comparator, reporting
    average regret.
``sysid``
    Run the explore/identify/exploit pipeline against a black-box system.
``filter``
    Track a noisy linear system with the predictive Kalman recursion.
``spectral``
    Learn an input-to-output map online with spectral filtering.

All subcommands accept ``--config PATH`` (scenario file), ``--seed N``,
``--out DIR`` (artifact directory), and ``--horizon T``.  Exit codes:
0 on success, 2 on configuration errors, 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .filtering import (  # noqa: F401 - perfbench/tracing.py wraps kalman_step here
    KalmanState,
    OnlineSpectralFilter,
    SpectralPredictor,
    cached_basis,
    kalman_filter,
    kalman_step,
    spectral_basis,
)
from .harness import (
    ScenarioConfig,
    _affine_recursion,
    _write_report,
    component_seed,
    config_from_preset,
    generate_perturbations,
    learner_options,
    load_config,
    run_experiment,
    scenario_presets,
)
from .lds_core import PerturbationSource
from .serialize import write_csv, write_json_summary
from .sysid import BlackBoxSystem, identify_then_control

__all__ = ["main"]


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="scenario config file")
    sub.add_argument("--seed", type=int, metavar="N", help="master seed")
    sub.add_argument("--out", metavar="DIR", help="artifact output directory")
    sub.add_argument("--horizon", type=int, metavar="T", help="number of steps")


def _add_scenario_flags(sub: argparse.ArgumentParser, controller: Optional[str]) -> None:
    """Scenario and learner flags; ``--controller`` (defaulting to
    ``controller``) unless ``controller`` is None."""
    sub.add_argument(
        "--preset",
        default="scalar-0.9",
        help="benchmark scenario name (ignored with --config)",
    )
    if controller is not None:
        sub.add_argument(
            "--controller",
            default=controller,
            choices=["zero", "linear", "lqr", "gpc", "grc"],
            help="controller kind (ignored with --config)",
        )
    sub.add_argument("--h", type=int, help="learner window length")
    sub.add_argument("--radius", type=float, help="learner projection radius")
    sub.add_argument("--step-size", type=float, help="learner step-size scale")


def _scenario_config(args: argparse.Namespace, default_horizon: int) -> ScenarioConfig:
    """The config file's scenario, else the preset's; then the learner and
    comparator flags given override its values."""
    if args.config:
        overrides = {
            key: getattr(args, key)
            for key in ("horizon", "seed", "out")
            if getattr(args, key) is not None
        }
        config = load_config(args.config, overrides)
    else:
        config = config_from_preset(
            args.preset,
            controller={"kind": getattr(args, "controller", "zero")},
            horizon=args.horizon if args.horizon is not None else default_horizon,
            seed=args.seed if args.seed is not None else 0,
            out_dir=args.out,
        )
    for key in ("h", "radius", "step_size"):
        value = getattr(args, key, None)
        if value is not None:
            config.controller[key] = value
    if getattr(args, "comparator", None):
        config.comparator["kind"] = args.comparator
    return config


def _cmd_scenarios(args: argparse.Namespace) -> int:
    for name, bp in sorted(scenario_presets().items()):
        print(
            f"{name:18s} d_x={bp.system.d_x} d_u={bp.system.d_u} "
            f"cost_on={bp.cost_on:11s} {bp.description}"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _scenario_config(args, default_horizon=100)
    config.comparator = {"kind": "none"}
    report = run_experiment(config)
    print(
        f"{config.name}: controller={report.controller} T={report.horizon} "
        f"seed={report.seed} total_cost={report.total_cost:.6g} "
        f"gamma={report.gamma:.6g}"
    )
    if config.out_dir:
        print(f"artifacts written to {config.out_dir}")
    return 0


def _cmd_regret(args: argparse.Namespace) -> int:
    config = _scenario_config(args, default_horizon=500)
    report = run_experiment(config)
    print(
        f"{config.name}: controller={report.controller} "
        f"comparator={report.comparator} T={report.horizon} "
        f"seed={report.seed} total_cost={report.total_cost:.6g} "
        f"comparator_cost={report.comparator_total_cost:.6g} "
        f"avg_regret={report.final_avg_regret:.6g}"
    )
    if config.out_dir:
        print(f"artifacts written to {config.out_dir}")
    return 0


def _cmd_sysid(args: argparse.Namespace) -> int:
    config = _scenario_config(args, default_horizon=2000)
    learner = learner_options(config.controller)
    if config.cost_on != "state":
        raise ConfigurationError(
            "the identification pipeline needs a state cost; pick a preset "
            "whose cost consumes states"
        )
    T = config.horizon
    source = config.perturbation
    if config.noise_embedding is not None:
        w = generate_perturbations(
            source, T, config.system.d_x, config.seed, config.noise_embedding
        )
        source = PerturbationSource.recorded(w)
    box = BlackBoxSystem(config.system, source, seed=config.seed, x0=config.x0)
    k = args.k if args.k is not None else config.system.d_x
    report = identify_then_control(box, T, config.cost, k=k, seed=config.seed, **learner)
    extras = report.extras
    print(
        f"{config.name}: T={T} T0={extras['T0']} k={extras['k']} "
        f"explore_steps={extras['n_explore']} sigma_min={extras['sigma_min']:.3g} "
        f"residual={extras['residual']:.3g} A_error={extras['A_error']:.3g} "
        f"B_error={extras['B_error']:.3g} avg_regret={report.final_avg_regret:.6g}"
    )
    if config.out_dir:
        _write_report(report, config.out_dir)
        print(f"artifacts written to {config.out_dir}")
    return 0


def _finish(config: ScenarioConfig, line: str, csv_name: str, columns: list, rows: object,
            summary: dict) -> int:
    """Print a command's result ``line``; with ``--out``, write ``rows`` to
    ``csv_name`` and ``summary`` to ``summary.json`` there."""
    print(line)
    if config.out_dir:
        write_csv(os.path.join(config.out_dir, csv_name), columns, rows)
        write_json_summary(os.path.join(config.out_dir, "summary.json"), summary)
        print(f"artifacts written to {config.out_dir}")
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    for flag, level in (("--process-noise", args.process_noise), ("--obs-noise", args.obs_noise)):
        if not level >= 0.0:  # also NaN
            raise ConfigurationError(f"{flag} must be a number >= 0, got {level}")
    config = _scenario_config(args, default_horizon=200)
    T = config.horizon
    system = config.system
    d_x = system.d_x
    Sigma_x = (args.process_noise**2) * np.eye(d_x)
    Sigma_y = (args.obs_noise**2) * np.eye(system.d_y)

    w = generate_perturbations(
        PerturbationSource.gaussian(sigma=args.process_noise),
        T,
        d_x,
        config.seed,
    )
    rng_obs = np.random.default_rng(component_seed(config.seed, "measurement"))
    # The measurement noise in one block of T rows: the same normals as T
    # draws of one row each.
    v = args.obs_noise * rng_obs.standard_normal((T, system.d_y))

    # Neither the states nor the observations depend on the estimate, so
    # the plant runs first, x_{t+1} = [A_t | I] [x_t; w_t], and
    # kalman_filter then filters the whole record, replaying the covariance
    # cycle once it repeats.
    A, _, C = system.stacks(0, T)
    x0 = np.zeros(d_x) if config.x0 is None else config.x0
    X = _affine_recursion(A, np.broadcast_to(np.eye(d_x), A.shape), x0, w)[:-1]
    Y = np.einsum("tij,tj->ti", C, X) + v

    state = KalmanState(x_hat=np.zeros(d_x), Sigma=Sigma_x)
    X_hat, Sigmas, _ = kalman_filter(state, A, C, Sigma_x, Sigma_y, Y)
    traces = np.trace(Sigmas, axis1=1, axis2=2)
    state_err = np.linalg.norm(X_hat - X, axis=1)
    obs_err = np.linalg.norm(np.einsum("tij,tj->ti", C, X_hat) - Y, axis=1)
    rows = zip(range(1, T + 1), state_err.tolist(), obs_err.tolist(), traces.tolist())
    summary = {
        "name": config.name,
        "horizon": T,
        "seed": config.seed,
        "process_noise": args.process_noise,
        "obs_noise": args.obs_noise,
        "mse_state": float(state_err.dot(state_err)) / T,
        "mse_obs": float(obs_err.dot(obs_err)) / T,
    }
    line = (f"{config.name}: kalman T={T} seed={config.seed} "
            f"mse_state={summary['mse_state']:.6g} mse_obs={summary['mse_obs']:.6g}")
    return _finish(config, line, "filter.csv", ["t", "state_error", "obs_error", "sigma_trace"],
                   rows, summary)


def _cmd_spectral(args: argparse.Namespace) -> int:
    config = _scenario_config(args, default_horizon=500)
    T = config.horizon
    system = config.system
    h = args.filters
    # With --out the basis is cached there, exactly, as base64 float64 rows:
    # a rerun into the same directory reads it back instead of building it.
    if config.out_dir:
        basis = cached_basis(T, h, config.out_dir)
    else:
        basis = spectral_basis(T, h)

    rng = np.random.default_rng(component_seed(config.seed, "excitation"))
    predictor = SpectralPredictor.zeros(
        basis,
        d_y=system.d_y,
        d_u=system.d_u,
        kappa=args.kappa,
        step_scale=args.step_size if args.step_size is not None else 0.1,
    )
    online = OnlineSpectralFilter(predictor, d_u=system.d_u)

    # One draw of all T rows takes the same signs from the stream as T
    # draws of one row each.
    inputs = rng.integers(0, 2, size=(T, system.d_u)).astype(float) * 2.0 - 1.0

    # The outputs do not depend on the predictions, so the plant runs first
    # and run() then learns on the whole record, its filter outputs from one
    # FFT convolution.
    A, B, C = system.stacks(0, T)
    x0 = np.zeros(system.d_x) if config.x0 is None else config.x0
    X = _affine_recursion(A, B, x0, inputs)
    online.run(inputs, np.einsum("tij,tj->ti", C, X[1:]))
    losses = np.array(online.losses)
    running = np.cumsum(losses) / np.arange(1, T + 1)
    rows = zip(range(1, T + 1), losses.tolist(), running.tolist())
    last_quarter = float(losses[3 * T // 4 :].mean()) if T >= 4 else float(losses.mean())
    summary = {
        "name": config.name,
        "horizon": T,
        "seed": config.seed,
        "filters": h,
        "avg_loss": float(losses.mean()),
        "last_quarter_avg_loss": last_quarter,
        # How fast the basis eigenvalues decay: the filtering error bound
        # goes with the tail lambda_h / lambda_1.
        "basis_lambda_1": float(basis.eigenvalues[0]),
        "basis_tail_ratio": float(basis.eigenvalues[-1] / basis.eigenvalues[0]),
    }
    line = (f"{config.name}: spectral T={T} filters={h} seed={config.seed} "
            f"avg_loss={summary['avg_loss']:.6g} "
            f"last_quarter={summary['last_quarter_avg_loss']:.6g}")
    return _finish(config, line, "spectral.csv", ["t", "sq_error", "avg_loss"], rows, summary)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nscontrol",
        description="Online control experiments: simulation, regret, "
        "identification, and filtering.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("scenarios", help="list built-in scenarios")
    _add_common_flags(sub)
    sub.set_defaults(func=_cmd_scenarios)

    sub = subs.add_parser("simulate", help="run a controller, no comparator")
    _add_common_flags(sub)
    _add_scenario_flags(sub, controller="lqr")
    sub.set_defaults(func=_cmd_simulate)

    sub = subs.add_parser("regret", help="run a controller against a comparator")
    _add_common_flags(sub)
    _add_scenario_flags(sub, controller="gpc")
    sub.add_argument(
        "--comparator",
        choices=["best-dac", "best-drc", "best-linear", "zero", "none"],
        help="comparator kind (default: matched to the controller)",
    )
    sub.set_defaults(func=_cmd_regret)

    sub = subs.add_parser("sysid", help="explore, identify, then control")
    _add_common_flags(sub)
    _add_scenario_flags(sub, controller=None)
    sub.add_argument("--k", type=int, help="controllability index (default d_x)")
    sub.set_defaults(func=_cmd_sysid)

    sub = subs.add_parser("filter", help="Kalman-filter a noisy scenario")
    _add_common_flags(sub)
    sub.add_argument("--preset", default="scalar-0.9", help="scenario name")
    sub.add_argument(
        "--process-noise", type=float, default=0.1, help="process noise level"
    )
    sub.add_argument(
        "--obs-noise", type=float, default=0.1, help="observation noise level"
    )
    sub.set_defaults(func=_cmd_filter)

    sub = subs.add_parser("spectral", help="online spectral filtering demo")
    _add_common_flags(sub)
    sub.add_argument("--preset", default="scalar-0.9", help="scenario name")
    sub.add_argument("--filters", type=int, default=20, help="number of filters")
    sub.add_argument("--step-size", type=float, help="learner step-size scale")
    sub.add_argument("--kappa", type=float, default=10.0, help="coefficient radius")
    sub.set_defaults(func=_cmd_spectral)

    return parser


def main(argv: Optional[list] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

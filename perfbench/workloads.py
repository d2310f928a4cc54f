"""The benchmark's workloads: the runs each one makes and the checks on
their outputs.

A *run* is one call a user of nscontrol would make: ``run_experiment`` on a
generated config, or ``nscontrol.cli.main`` on an argument list.  A *pass*
executes every run of a workload once, back to back, in one process.

The workload seed only generates inputs (config seeds, the sinusoid phase);
the program receives the generated configs and argument lists.  Import this
module only after ``nscontrol`` is importable (``perfbench/run.py`` arranges
that).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

import nscontrol
from nscontrol import cli

#: Reference totals are recorded at this workload seed only.
DEFAULT_SEED = 0
#: Relative tolerance on reference totals.  Learner runs are exact replays;
#: the comparator is an iterative solve whose last digits can follow the
#: BLAS summation order.
REFERENCE_RTOL = 1e-6
#: Slack on "comparator total <= total of the same class at M = 0".
PROPERTY_RTOL = 1e-9
#: Largest allowed ``||Z v - lambda v|| / lambda_1`` for a basis vector read
#: back from the spectral cache file.
BASIS_RESIDUAL_TOL = 1e-8
#: scalar-0.9 stage costs are O(1); a per-step regret beyond this means the
#: identified-model controller left every bounded orbit.
SYSID_REGRET_LIMIT = 1e3

#: Criterion 09's learner settings (tests/test_acceptance.py).
GPC = {"kind": "gpc", "h": 8, "radius": 2.0, "step_size": 0.05}
GRC = {"kind": "grc", "h": 6, "radius": 3.0, "step_size": 0.1}

#: Horizons of the timed passes; the warm-up pass runs each run at
#: ``WARMUP_HORIZON`` steps instead.
HORIZONS = {
    "regret-b747": 1000,
    "closed-loop-gpc": 4000,
    "regret-grc": 2000,
    "spectral": 2000,
    "filter": 2000,
}
WARMUP_HORIZON = 60
#: The README's identification example, kept verbatim (it diverges at
#: this commit; see KNOWN_DEFECT).
README_SYSID = ["sysid", "--preset", "scalar-0.9", "--horizon", "4000", "--seed", "0"]
KNOWN_DEFECT = (
    "README sysid invocation exits 0 but diverges "
    "(avg_regret ~1.7e155, thousands of overflow warnings)"
)

#: ``(total_cost, comparator_total_cost)`` per experiment run, or the
#: summary value per CLI run, at ``DEFAULT_SEED``.
REFERENCE = {
    ("regret-b747", "b747/gpc/best-dac"): (165322.95328269986, 30110.251969609602),
    ("closed-loop-gpc", "b747/gpc/none"): (360714.00731657236, 0.0),
    ("closed-loop-gpc", "scalar-0.9/gpc/none"): (1094.0493182872615, 0.0),
    ("regret-grc", "scalar-0.9/grc/sinusoidal"): (546.3340605429147, 544.9058240337606),
    ("regret-grc", "scalar-0.9/grc/iid-gaussian"): (9412.30435507152, 271.14802746265923),
    ("cli-filter-sysid", "spectral"): 0.0023679777811215726,
    ("cli-filter-sysid", "filter"): 0.34379508628276073,
}


@dataclass
class Run:
    """One program call and what its output is checked against."""

    workload: str
    label: str
    seed: int
    config: Optional[object] = None  # ScenarioConfig, for run_experiment
    argv: Optional[list] = None  # for nscontrol.cli.main
    out_dir: Optional[str] = None
    known_defect: Optional[str] = None


@dataclass
class Outcome:
    """What a run returned, raised, printed and warned."""

    run: Run
    report: Optional[object] = None
    exit_code: Optional[int] = None
    stdout: str = ""
    error: Optional[str] = None
    warnings: tuple = ()


def _sinusoid(seed: int) -> "nscontrol.PerturbationSource":
    phase = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=1)
    return nscontrol.PerturbationSource.sinusoidal(amplitude=1.0, omega=1.0, phase=phase)


def build(workload: str, seed: int, out_dir: str, warmup: bool = False) -> list:
    """The runs of one pass.  Creates nothing on disk."""

    def horizon(key: str) -> int:
        return WARMUP_HORIZON if warmup else HORIZONS[key]

    def experiment(label, preset, controller, T, comparator=None, perturbation=None, out=None):
        config = nscontrol.config_from_preset(
            preset,
            controller=controller,
            horizon=T,
            seed=seed,
            comparator=comparator,
            perturbation=perturbation,
            out_dir=out,
        )
        return Run(workload, label, seed, config=config, out_dir=out)

    if workload == "regret-b747":
        out = os.path.join(out_dir, "regret")
        return [
            experiment("b747/gpc/best-dac", "b747", GPC, horizon(workload),
                       comparator={"kind": "best-dac"}, out=out)
        ]
    if workload == "closed-loop-gpc":
        none = {"kind": "none"}
        return [
            experiment("b747/gpc/none", "b747", GPC, horizon(workload), none),
            experiment("scalar-0.9/gpc/none", "scalar-0.9", GPC, horizon(workload), none,
                       perturbation=_sinusoid(seed)),
        ]
    if workload == "regret-grc":
        drc = {"kind": "best-drc"}
        return [
            experiment("scalar-0.9/grc/sinusoidal", "scalar-0.9", GRC, horizon(workload), drc,
                       perturbation=_sinusoid(seed)),
            experiment("scalar-0.9/grc/iid-gaussian", "scalar-0.9", GRC, horizon(workload), drc,
                       perturbation=nscontrol.PerturbationSource.gaussian(0.3)),
        ]
    if workload == "cli-filter-sysid":
        spectral_out = os.path.join(out_dir, "spectral")
        filter_out = os.path.join(out_dir, "filter")
        sysid = list(README_SYSID)
        if warmup:
            sysid[sysid.index("--horizon") + 1] = str(4 * WARMUP_HORIZON)
        return [
            Run(workload, "spectral", seed, out_dir=spectral_out, argv=[
                "spectral", "--preset", "scalar-0.9", "--horizon", str(horizon("spectral")),
                "--filters", "20", "--seed", str(seed), "--out", spectral_out]),
            Run(workload, "filter", seed, out_dir=filter_out, argv=[
                "filter", "--preset", "b747", "--horizon", str(horizon("filter")),
                "--seed", str(seed), "--out", filter_out]),
            Run(workload, "sysid", seed, argv=sysid, known_defect=KNOWN_DEFECT),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def execute(run: Run, tracer=None) -> Outcome:
    """Make the call, recording every warning and capturing printed output.

    With a tracer, the call itself is a span (``harness.run_experiment`` or
    ``cli.<subcommand>``) and the run gets its own run id.
    """
    outcome = Outcome(run)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if run.config is not None:
            span, call = "harness.run_experiment", nscontrol.run_experiment
        else:
            span, call = "cli." + run.argv[0], cli.main
        if tracer is not None:
            tracer.begin_run(caught)
            call = tracer.wrap(span, call)
        try:
            if run.config is not None:
                outcome.report = call(run.config)
            else:
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
                    outcome.exit_code = call(run.argv)
                outcome.stdout = buffer.getvalue()
        except Exception as exc:  # a failed run is counted, not fatal
            outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.warnings = tuple(caught)
    return outcome


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means the run passed.
# ---------------------------------------------------------------------------


def _float_warnings(outcome: Outcome) -> list:
    n = sum(
        1
        for w in outcome.warnings
        if issubclass(w.category, RuntimeWarning)
        and re.search(r"overflow|invalid value", str(w.message))
    )
    return [f"{n} floating-point overflow/invalid-value warnings"] if n else []


def _matches(value: float, reference: float) -> bool:
    return math.isclose(value, reference, rel_tol=REFERENCE_RTOL, abs_tol=0.0)


def zero_policy_total(config, comparator: str, h: int) -> float:
    """Total cost of the comparator's class at ``M = 0`` on the run's own
    perturbations: the learner gain alone for action policies, no control
    for response policies."""
    system = config.system
    w = nscontrol.generate_perturbations(
        config.perturbation, config.horizon, system.d_x, config.seed, config.noise_embedding
    )
    if comparator == "best-dac":
        A0, B0, _ = system.matrices(0)
        K = nscontrol.dare_solve(A0, B0, config.cost.Q, config.cost.R).K
        Ms = np.zeros((h, system.d_u, system.d_x))
        return float(nscontrol.dac_rollout_costs(system, config.cost, K, Ms, w, config.x0).sum())
    Ms = np.zeros((h + 1, system.d_u, system.d_y))
    return float(nscontrol.drc_rollout_costs(system, config.cost, Ms, w, config.x0).sum())


def check_experiment(outcome: Outcome) -> list:
    run, report = outcome.run, outcome.report
    if outcome.error:
        return [f"raised {outcome.error}"]
    problems = _float_warnings(outcome)
    for name in ("costs", "comparator_costs", "state_norms"):
        if not np.all(np.isfinite(getattr(report, name))):
            problems.append(f"non-finite {name}")
    if problems:
        return problems
    totals = (report.total_cost, report.comparator_total_cost)
    reference = REFERENCE.get((run.workload, run.label))
    if run.seed == DEFAULT_SEED and reference is not None:
        if not all(_matches(v, r) for v, r in zip(totals, reference)):
            problems.append(f"totals {totals} differ from reference {reference}")
    comparator = run.config.comparator.get("kind")
    if comparator in ("best-dac", "best-drc"):
        bound = zero_policy_total(run.config, comparator, int(run.config.controller["h"]))
        if not report.comparator_total_cost <= bound * (1.0 + PROPERTY_RTOL):
            problems.append(
                f"comparator total {report.comparator_total_cost!r} exceeds its "
                f"class's M=0 total {bound!r}"
            )
    if run.out_dir:
        summary = nscontrol.read_json_summary(os.path.join(run.out_dir, "summary.json"))
        if summary.get("total_cost") != report.total_cost:
            problems.append("summary.json total_cost does not round-trip")
    return problems


_KEY_VALUE = re.compile(r"(\w+)=(\S+)")


def printed_values(stdout: str) -> dict:
    """Numeric ``key=value`` pairs from a CLI result line."""
    values = {}
    for key, text in _KEY_VALUE.findall(stdout):
        try:
            values[key] = float(text)
        except ValueError:
            pass
    return values


def basis_residual(Z: np.ndarray, basis) -> float:
    """Largest ``||Z v - lambda v|| / lambda_1`` over the basis vectors."""
    residual = Z @ basis.vectors.T - basis.vectors.T * basis.eigenvalues
    return float(np.linalg.norm(residual, axis=0).max() / basis.eigenvalues[0])


def check_cli(outcome: Outcome) -> list:
    run = outcome.run
    if outcome.error:
        return [f"raised {outcome.error}"]
    if outcome.exit_code != 0:
        return [f"exit code {outcome.exit_code}"]
    problems = _float_warnings(outcome)
    values = printed_values(outcome.stdout)
    if not values:
        problems.append("no result line printed")
    problems += [f"printed {k}={v!r}" for k, v in values.items() if not math.isfinite(v)]
    command = run.argv[0]
    if command == "sysid":
        regret = values.get("avg_regret", math.inf)
        if not abs(regret) <= SYSID_REGRET_LIMIT:
            problems.append(f"avg_regret {regret!r} beyond {SYSID_REGRET_LIMIT:g}")
        return problems
    summary = nscontrol.read_json_summary(os.path.join(run.out_dir, "summary.json"))
    key = "avg_loss" if command == "spectral" else "mse_state"
    if not math.isfinite(summary[key]):
        problems.append(f"summary {key} is {summary[key]!r}")
    reference = REFERENCE.get((run.workload, run.label))
    if run.seed == DEFAULT_SEED and reference is not None and not _matches(summary[key], reference):
        problems.append(f"{key} {summary[key]!r} differs from reference {reference!r}")
    return problems


def basis_file(run: Run) -> Optional[str]:
    """The spectral basis cache file a ``spectral`` run writes."""
    if run.argv is None or run.argv[0] != "spectral":
        return None
    T, h = (run.argv[run.argv.index(flag) + 1] for flag in ("--horizon", "--filters"))
    return os.path.join(run.out_dir, f"spectral_basis_T{T}_h{h}.txt")


def check_bases(paths: list) -> list:
    """Problems per basis file: its eigen-residual against ``build_Z``.

    Run after the timed passes, so that this check's own ``build_Z`` does
    not set the process's peak RSS.
    """
    problems, Z = [], None
    for path in paths:
        try:
            basis = nscontrol.load_basis(path)
        except (nscontrol.ConfigurationError, ValueError, IndexError) as exc:
            problems.append([f"basis file unreadable: {exc}"])
            continue
        if Z is None or Z.shape[0] != basis.T:
            Z = nscontrol.build_Z(basis.T)
        residual = basis_residual(Z, basis)
        ok = residual <= BASIS_RESIDUAL_TOL
        problems.append([] if ok else [f"basis eigen-residual {residual:.3e} > {BASIS_RESIDUAL_TOL:g}"])
    return problems


def check(outcome: Outcome) -> list:
    """Problems with a run's output; an empty list means it passed.  The
    basis eigen-residual is checked later, by ``check_bases``."""
    try:
        if outcome.run.config is not None:
            return check_experiment(outcome)
        return check_cli(outcome)
    except (nscontrol.ConfigurationError, KeyError) as exc:
        return [f"output unreadable: {exc!r}"]

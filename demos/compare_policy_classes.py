"""Comparing policy classes: how well one class approximates another.

A policy class A approximates a class B when every policy in B has one in
A whose costs stay close on every perturbation sequence.  The script
measures that with the approximation gap, the average per-step absolute
cost difference of two policies rolled out on the same perturbations,
for three constructive maps between classes:

* a linear policy u = K x and its disturbance-action unrolling over the
  last h perturbations, whose gap shrinks geometrically as h grows;
* a linear dynamic controller and its window (GLC) unrolling;
* a window controller and the linear policy on its lifted system, which
  plays the same controls, so the costs agree.

Run:
    python3 demos/compare_policy_classes.py
"""

import numpy as np

from nscontrol import LinearSystem, PerturbationSource, QuadraticCost, simulate
from nscontrol.policies import (
    GLCPolicy,
    LDCPolicy,
    LinearPolicy,
    approximation_gap,
    dac_from_linear,
    glc_from_ldc,
    lift_glc,
    policy_runner,
)

T = 400
SEEDS = range(3)


def mean_gap(policy_a, policy_b, system, cost) -> float:
    noise = PerturbationSource.uniform_ball()
    return float(np.mean([
        approximation_gap(policy_a, policy_b, system, noise, cost, T, seed=seed)
        for seed in SEEDS
    ]))


def main() -> None:
    A, B, K = np.array([[0.9]]), np.array([[1.0]]), np.array([[-0.5]])
    system = LinearSystem.time_invariant(A, B)
    cost = QuadraticCost(np.eye(1), np.eye(1))

    print(f"=== linear u = Kx vs its DAC unrolling (x' = 0.9x + u, K = -0.5, T={T}) ===")
    for h in (1, 2, 4, 8):
        gap = mean_gap(LinearPolicy(K), dac_from_linear(A, B, K, h), system, cost)
        print(f"  h={h}: approximation gap {gap:.3e}")

    print("\n=== LDC vs its GLC unrolling ===")
    ldc = LDCPolicy([[0.5]], [[1.0]], [[-0.3]], [[-0.2]])
    for h in (2, 8):
        gap = mean_gap(ldc, glc_from_ldc(ldc, h), system, cost)
        print(f"  h={h}: approximation gap {gap:.3e}")

    print("\n=== GLC vs the linear policy on its lifted system ===")
    glc = GLCPolicy([[[-0.4]], [[0.1]], [[-0.05]]])
    lifted = lift_glc(system, glc)
    n = lifted.system.d_x
    Q_lifted = np.zeros((n, n))
    Q_lifted[0, 0] = 1.0
    ws = PerturbationSource.uniform_ball().draw(0, T, 1, np.random.default_rng(0))
    glc_costs = simulate(
        system, policy_runner(glc, system), PerturbationSource.recorded(ws), cost, T
    ).costs
    lifted_costs = simulate(
        lifted.system,
        policy_runner(LinearPolicy(lifted.K_tilde), lifted.system),
        PerturbationSource.recorded(ws @ lifted.noise_embedding.T),
        QuadraticCost(Q_lifted, np.eye(1)),
        T,
    ).costs
    print(f"  total cost: GLC {glc_costs.sum():.6f}, lifted linear {lifted_costs.sum():.6f}")
    print(f"  largest per-step cost difference {np.max(np.abs(glc_costs - lifted_costs)):.1e}")


if __name__ == "__main__":
    main()

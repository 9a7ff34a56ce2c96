#!/usr/bin/env python3
"""Sampling the experiment event by event, against the exact distribution.

Each trial couples, reads a meter eigenvalue, then postselects. A run
carries the exact outcome table it sampled, so the exact conditional
mean sits next to the sampled one. The sampler is counter-based: trial
i always draws from block i of the random stream, so a run sharded
across workers reproduces the serial run bit for bit.
"""

import numpy as np

from weakmeas import (
    EstimateWithError,
    Observable,
    StateVector,
    WeakSetup,
    monte_carlo_run,
    projective_A_oracle,
    qubit_meter,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def main():
    a = Observable(SX)
    s = StateVector(np.array([2.0, 1.0], dtype=complex))
    f = StateVector(np.array([1.0, 0.5j]))
    setup = WeakSetup(a, s, f, qubit_meter(rho=2.0))
    eps, n, seed = 0.01, 200_000, 42

    run = monte_carlo_run(setup, eps, n, seed)
    table, est = run.table, run.estimate
    print(f"exact conditional mean   = {table.conditional_mean:+.6f}")
    print(f"sampled ({n} trials)  = {est.mean:+.6f} "
          f"+- {est.std_error:.6f}")
    print(f"successes                = {est.n_success} "
          f"(exact rate {table.total_success_prob:.4f})")
    z = (est.mean - table.conditional_mean) / est.std_error
    print(f"z-score                  = {z:+.2f}")

    half = n // 2
    first = monte_carlo_run(setup, eps, half, seed)
    second = monte_carlo_run(setup, eps, n - half, seed, trial_offset=half)
    merged = first.counts + second.counts
    print(f"\nsharded halves merge exactly: "
          f"{bool((merged == run.counts).all())}")
    merged_est = EstimateWithError.from_counts(table.values, merged[:, 0],
                                               n, seed)
    print(f"merged estimate matches:      {merged_est == est}")

    proj = projective_A_oracle(a, s, f, n, seed)
    print(f"\nprojective conditional (sampled) = {proj.mean:+.6f} "
          f"+- {proj.std_error:.6f}")
    print("the projective oracle measures A sharply first; its conditional")
    print("mean is a convex eigenvalue average, not the weak reading above.")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Coupling a qubit meter to a system and reading out the average.

The unconditional reading <r, (I x B) r> / eps converges to <s, As>
as the coupling strength eps shrinks, for any calibrated meter.
"""

import numpy as np

from weakmeas import (
    EpsSchedule,
    Observable,
    StateVector,
    WeakSetup,
    coupling_moment,
    eps_sweep,
    expectation,
    qubit_meter,
    unconditional_limit,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def main():
    meter = qubit_meter(rho=0.7)
    mom = coupling_moment(meter)
    print("qubit meter at rho = 0.7")
    print(f"  initial reading <m, Bm>      = "
          f"{np.vdot(meter.m.amps, meter.B.entries @ meter.m.amps).real:+.3e}")
    print(f"  coupling moment <m, BGm>     = {mom.real:+.6f} {mom.imag:+.6f}i")
    print(f"  gain 2 Im<m, BGm>            = {2 * mom.imag:.6f}")

    a = Observable(SX)
    s = StateVector(np.array([2.0, 1.0], dtype=complex))
    setup = WeakSetup(a, s, StateVector(np.array([1.0, 0.0], dtype=complex)),
                      meter)
    target = expectation(a, s)
    print(f"\nsystem average <s, As> = {target:.6f}")
    print(f"{'eps':>10}  {'reading/eps':>14}  {'error':>10}")
    # one coupled state per eps; every reading below comes from this record
    sweep = eps_sweep(setup, EpsSchedule.default())
    for eps, reading in zip(sweep.eps_values, sweep.readings):
        print(f"{eps:>10.2e}  {reading:>14.8f}  {abs(reading - target):>10.2e}")

    limit = unconditional_limit(sweep)
    print(f"\nextrapolated eps -> 0 limit = {limit:.12f}")
    print(f"difference from <s, As>     = {abs(limit - target):.2e}")


if __name__ == "__main__":
    main()

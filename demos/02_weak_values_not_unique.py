#!/usr/bin/env python3
"""The conditional reading depends on the meter, not just on (A, s, f).

One fixed triple: A = sigma_x, preselection (1, i)/sqrt(2), postselection
e1. The traditional weak value is 0 and the projective conditional is 0,
yet the measured eps -> 0 conditional reading is 2 rho, one value per
meter. Conditioned weak averages are a property of the whole arrangement.
"""

import numpy as np

from weakmeas import (
    Observable,
    StateVector,
    WeakSetup,
    aav_complex_weak_value,
    eps_sweep,
    projective_conditional_expectation,
    qubit_meter,
    traditional_weak_value,
    weak_value_closed_form,
    weak_value_extrapolation,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def main():
    a = Observable(SX)
    s = StateVector(np.array([1.0, 1.0j]))
    f = StateVector(np.array([1.0, 0.0], dtype=complex))

    ratio = aav_complex_weak_value(a, s, f)
    print(f"complex ratio <f,As>/<f,s>   = {ratio.real:+.1f} {ratio.imag:+.1f}i")
    print(f"traditional weak value       = {traditional_weak_value(a, s, f):+.1f}")
    print(f"projective conditional       = "
          f"{projective_conditional_expectation(a, s, f):+.1f}")
    print("\nboth meter-free notions sit at 0; now vary the meter:\n")

    print(f"{'rho':>8}  {'closed form':>12}  {'numeric limit':>16}")
    for rho in (-50.0, -5.0, 0.0, 5.0, 50.0):
        setup = WeakSetup(a, s, f, qubit_meter(rho))
        closed = weak_value_closed_form(setup)
        numeric = weak_value_extrapolation(eps_sweep(setup)).limit
        print(f"{rho:>8.1f}  {closed:>12.6f}  {numeric:>16.10f}")

    print("\nthe reading is 2 rho: any real number is reachable by dialing")
    print("the meter, with A's eigenvalues pinned at -1 and +1 throughout.")


if __name__ == "__main__":
    main()

"""The meter contract: the protocol and the oracles ask a meter for m,
apply_B, apply_G, couple and readout, and for nothing else.

A meter that holds only those five, bound to a real meter, must give
every protocol and oracle result of the meter it wraps bit for bit.
"""

import numpy as np
import pytest

from weakmeas.hilbert import Observable, StateVector
from weakmeas.meters import GridSpec, gaussian_grid_meter, qubit_meter
from weakmeas.oracle import exact_outcome_distribution, monte_carlo_run
from weakmeas.protocol import (
    CalibrationError,
    MeterSpec,
    WeakSetup,
    coupling_moment,
    disturbance,
    eps_sweep,
    unconditional_limit,
    verify_calibration,
    weak_value_report,
)

EPS = 1e-2


class FiveCalls:
    """A meter with nothing but the five calls of the contract."""

    __slots__ = ("m", "apply_B", "apply_G", "couple", "readout")

    def __init__(self, meter):
        self.m = meter.m
        self.apply_B = meter.apply_B
        self.apply_G = meter.apply_G
        self.couple = meter.couple
        self.readout = meter.readout


def same(a, b):
    """Equal to the bit: same dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def setups(meter):
    """The canonical AAV system and a random three-level one."""
    rng = np.random.default_rng(5)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s, f = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    return [
        WeakSetup(Observable([[0, 1], [1, 0]]), StateVector([1, 1j]),
                  StateVector([1, 0]), meter),
        WeakSetup(Observable((h + h.conj().T) / 2.0), StateVector(s),
                  StateVector(f), meter),
    ]


@pytest.mark.parametrize("rho", [50.0, -0.0, -3.75])
def test_five_calls_give_the_qubit_meters_results_bit_for_bit(rho):
    dense = qubit_meter(rho)
    bare = FiveCalls(dense)
    assert not hasattr(bare, "B") and not hasattr(bare, "G")
    assert verify_calibration(bare) is None
    assert coupling_moment(bare) == coupling_moment(dense)
    for full, thin in zip(setups(dense), setups(bare)):
        want, got = eps_sweep(full), eps_sweep(thin)
        for name in ("eps_values", "readings", "moments", "probabilities",
                     "system_states"):
            assert same(getattr(got, name), getattr(want, name)), name
        # reprs round-trip every float and complex, signed zeros included
        assert repr(weak_value_report(got)) == repr(weak_value_report(want))
        assert repr(unconditional_limit(got)) == \
            repr(unconditional_limit(want))
        assert same(disturbance(got), disturbance(want))
        for a, b in zip(exact_outcome_distribution(thin, EPS),
                        exact_outcome_distribution(full, EPS)):
            assert same(a, b)
        run = monte_carlo_run(thin, EPS, 20_000, seed=7)
        ref = monte_carlo_run(full, EPS, 20_000, seed=7)
        assert same(run.counts, ref.counts)
        assert repr(run.estimate) == repr(ref.estimate)


def test_five_calls_fail_calibration_as_the_dense_meter_does():
    base = qubit_meter(2.0)
    doubled = MeterSpec(base.m, Observable(2.0 * base.B.entries), base.G)
    with pytest.raises(CalibrationError) as dense_exc:
        verify_calibration(doubled)
    with pytest.raises(CalibrationError) as bare_exc:
        verify_calibration(FiveCalls(doubled))
    assert str(bare_exc.value) == str(dense_exc.value)


def test_grid_meter_is_not_a_dense_meter():
    meter = gaussian_grid_meter(GridSpec(256, 12.0), 3.0)
    assert not isinstance(meter, MeterSpec)
    verify_calibration(FiveCalls(meter))

import math
import warnings

import numpy as np
import pytest

from weakmeas import meters
from weakmeas.hilbert import (
    Observable,
    StateVector,
    eig_hermitian,
    evolve_coupling,
)
from weakmeas.meters import (
    DEFAULT_HALF_WIDTH,
    DEFAULT_N_POINTS,
    MAX_N_POINTS,
    GridMeter,
    GridSpec,
    _momentum_matrix,
    chirped_gaussian_state,
    gaussian_grid_meter,
    momentum_operator,
    position_operator,
    qubit_meter,
)
from weakmeas.oracle import _branch_tables
from weakmeas.protocol import (
    CalibrationError,
    WeakSetup,
    coupled_state,
    coupling_moment,
    verify_calibration,
)

import reference


def moment(v, op, w=None):
    w = v if w is None else w
    return complex(np.vdot(v, op @ w))


class TestQubitMeter:
    def test_reads_zero_initially(self):
        for rho in (0.0, 50.0, -3.7):
            m = qubit_meter(rho)
            assert moment(m.m.amps, m.B.entries) == 0

    def test_coupling_moment_exact(self):
        assert coupling_moment(qubit_meter(0.0)) == 0.5j
        assert coupling_moment(qubit_meter(50.0)) == 50.0 + 0.5j
        assert coupling_moment(qubit_meter(-3.75)) == -3.75 + 0.5j

    @pytest.mark.parametrize("rho", [0.0, -0.0, 3.0, -3.0, 37.5, -37.5,
                                     1e3, -1e3])
    def test_coupling_moment_is_rho_plus_half_i_to_the_bit(self, rho):
        # aav-grid uses this moment as the qubit meter's, without one;
        # B's upper entry rho + 0.5j sums rho with a zero, so -0.0 reads +0.0
        got = coupling_moment(qubit_meter(rho))
        want = complex(rho + 0.0, 0.5)
        assert got == want
        assert np.signbit(got.real) == np.signbit(want.real)
        assert np.signbit(got.imag) == np.signbit(want.imag)

    def test_readout_hermitian(self):
        m = qubit_meter(12.5)
        np.testing.assert_array_equal(m.B.entries,
                                      m.B.entries.conj().T)

    def test_calibrated_for_any_rho(self):
        rng = np.random.default_rng(201)
        for rho in rng.uniform(-100, 100, size=10):
            verify_calibration(qubit_meter(rho))

    def test_m_and_g_are_shared(self):
        first = qubit_meter(2.0)
        dec = eig_hermitian(first.G)
        second = qubit_meter(-7.5)
        assert second.G is first.G and second.m is first.m
        # the second meter's G decomposition is a cache hit
        assert second.G._decomp is dec
        assert eig_hermitian(second.G) is dec
        assert second.B is not first.B
        assert second.B.entries[0, 1] == -7.5 + 0.5j

    def test_calibration_is_checked_for_every_rho(self, monkeypatch):
        # a B built at twice its scale has gain 2; every rho must catch it
        build = meters.Observable
        monkeypatch.setattr(meters, "Observable",
                            lambda e: build(2.0 * np.asarray(e)))
        for rho in (2.0, -7.5, 2.0):
            with pytest.raises(CalibrationError, match="gain"):
                qubit_meter(rho)


class TestGridSpec:
    def test_defaults(self):
        g = GridSpec.default()
        assert g.n_points == DEFAULT_N_POINTS
        assert g.half_width == DEFAULT_HALF_WIDTH
        assert g.spacing == pytest.approx(2 * 20.0 / 1024)

    def test_points_cover_half_open_interval(self):
        g = GridSpec(256, 10.0)
        pts = g.points()
        assert pts[0] == -10.0
        assert pts[-1] == pytest.approx(10.0 - g.spacing)
        np.testing.assert_allclose(np.diff(pts), g.spacing)
        # the spacing follows from n_points and half_width alone
        with pytest.raises(TypeError):
            GridSpec(256, 10.0, 99.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec(300, 10.0)

    def test_rejects_nonpositive_width(self):
        # NaN fails every comparison, so a sign test alone lets it through
        for width in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="half_width"):
                GridSpec(256, width)

    def test_rejects_oversized_grid(self):
        GridSpec(MAX_N_POINTS, 20.0)
        for n in (2 * MAX_N_POINTS, 2 ** 40):
            with pytest.raises(ValueError):
                GridSpec(n, 20.0)


SMALL_GRID = GridSpec(256, 12.0)


class TestScalarArguments:
    """A meter constructor refuses a bool, or a scalar of the wrong kind,
    with a ValueError that names the argument: n_points is an integer,
    half_width and rho are real numbers. Numpy scalars pass, and a
    non-finite rho fails calibration on either meter alike."""

    @pytest.mark.parametrize("call, error, message", [
        ("GridSpec(1024.0, 20.0)", ValueError, "n_points must be"),
        ("GridSpec(np.float64(256), 12.0)", ValueError, "n_points must be"),
        ("GridSpec(True, 20.0)", ValueError, "n_points must be"),
        ("GridSpec(1024, '20')", ValueError, "half_width must be"),
        ("GridSpec(2048, True)", ValueError, "half_width must be"),
        ("GridSpec(256, 12 + 0j)", ValueError, "half_width must be"),
        ("qubit_meter('1')", ValueError, "rho must be"),
        ("qubit_meter(True)", ValueError, "rho must be"),
        ("qubit_meter(np.True_)", ValueError, "rho must be"),
        ("gaussian_grid_meter(SMALL_GRID, '3')", ValueError, "rho must be"),
        ("gaussian_grid_meter(SMALL_GRID, False)", ValueError, "rho must be"),
        ("qubit_meter(math.inf)", CalibrationError,
         "qubit meter rho inf is not finite"),
        ("qubit_meter(math.nan)", CalibrationError,
         "qubit meter rho nan is not finite"),
        ("gaussian_grid_meter(SMALL_GRID, -math.inf)", CalibrationError,
         "grid meter rho -inf is not finite"),
        ("GridSpec(np.int64(256), np.float32(12.0))", None, None),
        ("qubit_meter(np.int32(3))", None, None),
        ("gaussian_grid_meter(SMALL_GRID, np.float64(3.0))", None, None),
    ], ids=lambda x: x if isinstance(x, str) else "")
    def test_refused_by_name(self, call, error, message):
        if error is None:
            eval(call)
        else:
            with pytest.raises(error, match=f"^{message}"):
                eval(call)


class TestPositionOperator:
    def test_diagonal_of_grid_points(self):
        g = GridSpec(128, 10.0)
        q = position_operator(g)
        np.testing.assert_array_equal(np.diag(q.entries), g.points())

    def test_exactly_hermitian(self):
        q = position_operator(GridSpec(128, 10.0))
        np.testing.assert_array_equal(q.entries, q.entries.conj().T)

    def test_gaussian_moments(self):
        g = GridSpec.default()
        m = gaussian_grid_meter(g, 0.0).m.amps
        q = position_operator(g).entries
        assert abs(moment(m, q)) <= 1e-10          # symmetric density
        assert moment(m, q @ q).real == pytest.approx(1.0, abs=1e-8)


class TestMomentumOperator:
    def test_plane_wave_eigenvector(self):
        g = GridSpec.default()
        k0 = 2 * np.pi * 5 / (2 * g.half_width)    # a grid wavenumber
        wave = np.exp(1j * k0 * g.points()) / np.sqrt(g.n_points)
        p = momentum_operator(g).entries
        np.testing.assert_allclose(p @ wave, k0 * wave, atol=1e-10)

    def test_real_state_has_zero_momentum(self):
        g = GridSpec.default()
        m = gaussian_grid_meter(g, 0.0).m.amps
        p = momentum_operator(g).entries
        assert abs(moment(m, p)) <= 1e-10

    def test_cross_moment_is_half_i(self):
        g = GridSpec.default()
        m = gaussian_grid_meter(g, 0.0).m.amps
        q = position_operator(g).entries
        p = momentum_operator(g).entries
        assert abs(moment(m, q @ p) - 0.5j) <= 1e-8


class TestGaussianGridMeter:
    def test_moments_at_defaults(self):
        g = GridSpec.default()
        for rho in (0.0, 1.0, 3.0):
            meter = gaussian_grid_meter(g, rho)
            assert abs(coupling_moment(meter) - (rho + 0.5j)) <= 1e-8
            assert abs(moment(meter.m.amps, meter.B.entries)) <= 1e-10

    def test_moment_accuracy_survives_refinement(self):
        # spectral accuracy: the error sits at its floor across doublings
        for n in (128, 256, 512, 1024):
            meter = gaussian_grid_meter(GridSpec(n, 12.0), 3.0)
            assert abs(coupling_moment(meter) - (3.0 + 0.5j)) <= 1e-10

    def test_coarse_narrow_grid_fails_calibration(self):
        with pytest.raises(CalibrationError):
            gaussian_grid_meter(GridSpec(128, 4.0), 0.0)

    @pytest.mark.parametrize("rho", [float("nan"), float("inf")])
    def test_non_finite_rho_fails_calibration(self, rho):
        # refused before the grid is touched, where inf * 0 would warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CalibrationError, match="not finite"):
                gaussian_grid_meter(GridSpec.default(), rho)

    @pytest.mark.parametrize("rho", [0.0, 2.0])
    @pytest.mark.parametrize("t", [1e155, -1e300, 1.6e307])
    def test_evolve_refuses_overflowing_phases(self, rho, t):
        # t^2 overflows, and at rho = 0 the chirp inf * 0 is NaN
        meter = gaussian_grid_meter(GridSpec(256, 12.0), rho)
        with pytest.raises(ValueError, match="overflow"):
            meter.evolve(np.array([[0.0], [t]]), meter.m.amps)


def random_state(rng, dim):
    return StateVector(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Observable(m + m.conj().T)


class TestGridMeterAgainstDenseViews:
    """The matrix-free grid meter against dense linear algebra on its own
    n x n views. The split step and eigh agree to a few 1e-14 here."""

    @pytest.mark.parametrize("grid", [GridSpec(256, 12.0),
                                      GridSpec.default()])
    def test_evolve_matches_spectral_exponential(self, grid):
        for rho in (-50.0, -20.0, 0.0, 3.0, 50.0):
            meter = gaussian_grid_meter(grid, rho)
            g = Observable(meter.G.entries)
            for t in (6.25e-4, 1e-2, 0.1, 0.3):
                for signed in (t, -t):
                    got = meter.evolve(signed, meter.m.amps)
                    want = reference.evolve(g, signed, meter.m)
                    assert np.max(np.abs(got - want)) <= 1e-12, (rho, signed)

    def test_apply_g_matches_dense_view(self):
        rng = np.random.default_rng(211)
        grid = GridSpec(256, 12.0)
        for rho in (-20.0, 3.0):
            meter = gaussian_grid_meter(grid, rho)
            v = random_state(rng, grid.n_points).amps
            np.testing.assert_allclose(meter.apply_G(v),
                                       meter.G.entries @ v, atol=1e-12)
            np.testing.assert_allclose(meter.apply_B(v),
                                       meter.B.entries @ v, atol=0)

    def test_coupled_state_matches_evolve_coupling(self):
        rng = np.random.default_rng(212)
        grid = GridSpec(256, 12.0)
        for rho in (-50.0, 3.0, 50.0):
            meter = gaussian_grid_meter(grid, rho)
            g = Observable(meter.G.entries)
            for dim in (2, 3):
                setup = WeakSetup(random_hermitian(rng, dim),
                                  random_state(rng, dim),
                                  random_state(rng, dim), meter)
                for eps in (1e-2, 6.25e-4):
                    want = evolve_coupling(
                        setup.A, g, eps,
                        np.outer(setup.s.amps, meter.m.amps))
                    got = coupled_state(setup, eps)
                    assert np.max(np.abs(got - want)) <= 1e-12

    def test_branch_tables_match_dense_readout(self):
        rng = np.random.default_rng(213)
        grid = GridSpec(256, 12.0)
        for rho in (-20.0, 3.0):
            meter = gaussian_grid_meter(grid, rho)
            readout = Observable(meter.B.entries)
            setup = WeakSetup(random_hermitian(rng, 2), random_state(rng, 2),
                              random_state(rng, 2), meter)
            for eps in (1e-2, 6.25e-4):
                got = _branch_tables(setup, eps)
                want = reference.branch_tables(setup, eps, readout)
                assert len(got[0]) == grid.n_points
                for g, w in zip(got, want):
                    np.testing.assert_allclose(g, w, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 256, 1024])
    def test_dense_views_match_gathered_matrices_bytewise(self, n):
        grid = GridSpec(n, DEFAULT_HALF_WIDTH)
        assert (_momentum_matrix(grid).tobytes()
                == reference.momentum_matrix(grid).tobytes())
        for rho in (0.0, 12.3, -37.5):
            g = GridMeter(grid, rho).G.entries
            want = reference.coupling_matrix(grid, rho)
            assert g.dtype == want.dtype and g.shape == want.shape
            assert g.tobytes() == want.tobytes(), rho

    def test_dense_views_are_built_on_first_read(self):
        meter = gaussian_grid_meter(GridSpec(128, 10.0), 1.0)
        assert "entries" not in vars(meter.G)
        g = meter.G.entries
        assert g is meter.G.entries
        assert not g.flags.writeable
        assert g.shape == (128, 128)


class TestChirpedGaussianState:
    def test_zero_chirp_is_meter_state(self):
        g = GridSpec.default()
        m = gaussian_grid_meter(g, 0.0).m
        np.testing.assert_allclose(chirped_gaussian_state(g, 0.0).amps,
                                   m.amps, atol=1e-15)

    def test_position_density_unchanged(self):
        g = GridSpec.default()
        m = gaussian_grid_meter(g, 0.0).m.amps
        chirped = chirped_gaussian_state(g, 5.0).amps
        np.testing.assert_allclose(np.abs(chirped) ** 2, np.abs(m) ** 2,
                                   atol=1e-12)

    def test_normalized(self):
        v = chirped_gaussian_state(GridSpec.default(), 2.0)
        assert isinstance(v, StateVector)
        assert abs(np.linalg.norm(v.amps) - 1.0) <= 1e-12

    def test_conjugate_chirp_realizes_shifted_coupling(self):
        # <c(-rho), Q P c(-rho)> = <m, Q (P + rho Q) m>: the chirp is the
        # unitary that turns a plain momentum coupling into P + rho Q
        g = GridSpec.default()
        q = position_operator(g).entries
        p = momentum_operator(g).entries
        m = gaussian_grid_meter(g, 0.0).m.amps
        for rho in (1.0, 3.0):
            c = chirped_gaussian_state(g, -rho).amps
            lhs = moment(c, q @ p)
            rhs = moment(m, q @ (p + rho * q))
            assert abs(lhs - rhs) <= 1e-8
            assert abs(lhs - (rho + 0.5j)) <= 1e-8

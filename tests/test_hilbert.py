import numpy as np
import pytest
import scipy.linalg

from weakmeas.hilbert import (
    DimensionMismatchError,
    HermiticityError,
    Observable,
    StateVector,
    eig_hermitian,
    evolve_coupling,
    expectation,
    real_part,
    trace_distance,
)

from reference import (
    DensityMatrix,
    evolve,
    inner,
    large_zero_mean_system,
    partial_trace_meter,
    projector,
    tensor_op,
    tensor_state,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

E1 = StateVector([1, 0])
E2 = StateVector([0, 1])


def random_state(rng, n):
    return StateVector(rng.normal(size=n) + 1j * rng.normal(size=n))


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return Observable((m + m.conj().T) / 2)


class TestStateVector:
    def test_constructor_normalizes(self):
        v = StateVector([3, 4j])
        assert abs(np.linalg.norm(v.amps) - 1.0) <= 1e-12
        np.testing.assert_allclose(v.amps, [0.6, 0.8j], atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            StateVector([0, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError,
                           match="state vector needs at least one amplitude"):
            StateVector([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_rejected(self, bad):
        # NaN would otherwise survive normalization as an all-NaN state
        with pytest.raises(ValueError, match="non-finite"):
            StateVector([1.0, bad])

    @pytest.mark.parametrize("amps", [[1e308, 1e308], [1e200, 0.0],
                                      [1e308j, 1e308]])
    def test_norm_overflow_rejected(self, amps):
        # the norm overflows to inf, which would normalize to a zero
        # vector; refused by name, without a RuntimeWarning
        with pytest.raises(ValueError, match="overflow"):
            StateVector(amps)

    def test_large_finite_norm_keeps_its_bits(self):
        amps = np.array([3e153, 4e153j])
        np.testing.assert_array_equal(StateVector(amps).amps,
                                      amps / np.linalg.norm(amps))

    def test_immutable(self):
        v = StateVector([1, 0])
        with pytest.raises(AttributeError):
            v.dim = 3
        with pytest.raises(ValueError):
            v.amps[0] = 2.0


class TestInner:
    def test_orthonormal_basis(self):
        assert inner(E1, E1) == pytest.approx(1)
        assert inner(E1, E2) == pytest.approx(0)

    def test_circular_states_orthogonal(self):
        # (conj(1)*1 + conj(i)*(-i)) / 2 = (1 - 1) / 2 = 0
        v = StateVector([1, 1j])
        w = StateVector([1, -1j])
        assert inner(v, w) == pytest.approx(0, abs=1e-15)

    def test_conjugate_linearity(self):
        rng = np.random.default_rng(11)
        v = random_state(rng, 5)
        w = random_state(rng, 5)
        c = 0.7 - 1.3j
        lhs = inner(c * v.amps, w)
        np.testing.assert_allclose(lhs, np.conj(c) * inner(v, w))
        rhs = inner(v, c * w.amps)
        np.testing.assert_allclose(rhs, c * inner(v, w))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner(E1, StateVector([1, 0, 0]))


class TestTensor:
    def test_basis_product(self):
        v = tensor_state(E1, E2)
        np.testing.assert_array_equal(v, [0, 1, 0, 0])

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(21)
        s = rng.normal(size=3) + 1j * rng.normal(size=3)
        m = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.linalg.norm(tensor_state(s, m)) == pytest.approx(
            np.linalg.norm(s) * np.linalg.norm(m))

    def test_inner_factorizes(self):
        rng = np.random.default_rng(22)
        s, s2 = random_state(rng, 3), random_state(rng, 3)
        m, m2 = random_state(rng, 4), random_state(rng, 4)
        lhs = inner(tensor_state(s, m), tensor_state(s2, m2))
        np.testing.assert_allclose(lhs, inner(s, s2) * inner(m, m2),
                                   atol=1e-12)

    def test_identity_tensor_identity(self):
        i4 = tensor_op(Observable(np.eye(2)), Observable(np.eye(2)))
        np.testing.assert_array_equal(i4.entries, np.eye(4))

    def test_op_acts_factorwise(self):
        rng = np.random.default_rng(23)
        a = random_hermitian(rng, 3)
        g = random_hermitian(rng, 4)
        s, m = random_state(rng, 3), random_state(rng, 4)
        lhs = tensor_op(a, g).entries @ tensor_state(s, m)
        rhs = tensor_state(a.entries @ s.amps, g.entries @ m.amps)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_eigenvector_of_factor(self):
        op = tensor_op(Observable(SZ), Observable(np.eye(2)))
        v = tensor_state(E1, E2)
        np.testing.assert_allclose(op.entries @ v, v, atol=1e-15)

    def test_sandwich_factorizes(self):
        rng = np.random.default_rng(24)
        x, y = random_hermitian(rng, 2), random_hermitian(rng, 3)
        s, s2 = random_state(rng, 2), random_state(rng, 2)
        m, m2 = random_state(rng, 3), random_state(rng, 3)
        lhs = inner(tensor_state(s, m),
                    tensor_op(x, y).entries @ tensor_state(s2, m2))
        rhs = (inner(s, x.entries @ s2.amps)
               * inner(m, y.entries @ m2.amps))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestObservable:
    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            Observable([[0, 1], [0, 0]])

    def test_immutable(self):
        a = Observable(SZ)
        with pytest.raises(AttributeError, match="Observable is immutable"):
            a.dim = 3

    def test_storage_symmetrized(self):
        # defect below tolerance is accepted and symmetrized away
        m = np.array([[1.0, 0.5 + 1e-12j], [0.5, 2.0]])
        a = Observable(m)
        np.testing.assert_allclose(a.entries, a.entries.conj().T, atol=0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Observable(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN Hermiticity defect compares False against the tolerance,
        # so the finite check has to come first
        with pytest.raises(ValueError, match="non-finite"):
            Observable([[bad, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("m", [
        [[1e308, 0.0], [0.0, -1e308]],            # M + M† overflows
        [[0.0, 1e308], [1e308, 0.0]],
        [[0.0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0.0]],  # |m|
    ], ids=["diagonal", "off-diagonal", "modulus"])
    def test_overflow_rejected(self, m):
        # the symmetrization would hold inf and NaN, and every result
        # read from it would be an empty cell
        with pytest.raises(ValueError, match="overflow") as info:
            Observable(m)
        assert not isinstance(info.value, HermiticityError)

    def test_overflow_judged_before_hermiticity(self):
        # M - M† overflows for this anti-Hermitian pair
        with pytest.raises(ValueError, match="overflow") as info:
            Observable([[0.0, 1e308], [-1e308, 0.0]])
        assert not isinstance(info.value, HermiticityError)

    @pytest.mark.parametrize("m", [
        [[8e307, 0.0], [0.0, -8e307]],
        # |m| exceeds half the float range, M + M† does not overflow
        [[0.0, 7e307 + 7e307j], [7e307 - 7e307j, 0.0]],
    ], ids=["below-half-range", "large-modulus"])
    def test_large_entries_keep_their_bits(self, m):
        np.testing.assert_array_equal(Observable(m).entries, np.array(m))


class TestSpectral:
    def test_pauli_z(self):
        dec = eig_hermitian(Observable(SZ))
        np.testing.assert_allclose(dec.eigenvalues, [-1, 1])
        np.testing.assert_allclose(np.abs(dec.eigenvectors[:, 0]), [0, 1])
        np.testing.assert_allclose(np.abs(dec.eigenvectors[:, 1]), [1, 0])

    def test_pauli_x(self):
        dec = eig_hermitian(Observable(SX))
        np.testing.assert_allclose(dec.eigenvalues, [-1, 1])
        got = np.abs(dec.eigenvectors[:, 0])
        np.testing.assert_allclose(got, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(31)
        for n in (2, 5, 8, 64):
            a = random_hermitian(rng, n)
            dec = eig_hermitian(a)
            acc = np.zeros((n, n), dtype=complex)
            for lam, vec in zip(dec.eigenvalues, dec.eigenvectors.T):
                acc += lam * np.outer(vec, vec.conj())
            np.testing.assert_allclose(acc, a.entries, atol=1e-10)

    def test_orthonormal_eigenvectors(self):
        rng = np.random.default_rng(32)
        a = random_hermitian(rng, 8)
        dec = eig_hermitian(a)
        vm = dec.eigenvectors
        np.testing.assert_allclose(vm.conj().T @ vm, np.eye(8), atol=1e-10)

    def test_degenerate_grouping(self):
        rng = np.random.default_rng(33)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3))
                            + 1j * rng.normal(size=(3, 3)))
        a = Observable(q @ np.diag([2.0, 2.0, 5.0]) @ q.conj().T)
        dec = eig_hermitian(a)
        assert dec.group_starts.tolist() == [0, 2]
        # the grouped projector spans the same subspace regardless of the
        # eigenvector basis the solver picked inside the degenerate block
        expected = q[:, :2] @ q[:, :2].conj().T
        v = dec.eigenvectors[:, :2]
        np.testing.assert_allclose(v @ v.conj().T, expected, atol=1e-10)
        assert dec.group_values[0] == pytest.approx(2.0)

    def test_group_projectors_resolve_identity(self):
        rng = np.random.default_rng(34)
        a = random_hermitian(rng, 6)
        dec = eig_hermitian(a)
        v = dec.eigenvectors
        bounds = np.append(dec.group_starts, a.dim)
        acc = sum(v[:, lo:hi] @ v[:, lo:hi].conj().T
                  for lo, hi in zip(bounds[:-1], bounds[1:]))
        np.testing.assert_allclose(acc, np.eye(6), atol=1e-10)

    def test_decomposition_cached(self):
        a = Observable(SX)
        assert eig_hermitian(a) is eig_hermitian(a)


class TestEvolve:
    def test_zero_time_identity(self):
        rng = np.random.default_rng(41)
        v = random_state(rng, 4)
        h = random_hermitian(rng, 4)
        np.testing.assert_allclose(evolve(h, 0.0, v), v.amps, atol=1e-15)

    def test_eigenvector_phase(self):
        out = evolve(Observable(SZ), np.pi, E1)
        np.testing.assert_allclose(out, [-1, 0], atol=1e-14)

    def test_against_expm(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 7):
            h = random_hermitian(rng, n)
            v = random_state(rng, n)
            eps = rng.uniform(0.01, 1.0)
            want = scipy.linalg.expm(-1j * eps * h.entries) @ v.amps
            np.testing.assert_allclose(evolve(h, eps, v), want,
                                       atol=1e-10)

    def test_unitarity(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            h = random_hermitian(rng, 5)
            v = random_state(rng, 5)
            out = evolve(h, rng.uniform(0, 1), v)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_group_property(self):
        rng = np.random.default_rng(44)
        h = random_hermitian(rng, 4)
        v = random_state(rng, 4)
        e1, e2 = 0.3, 0.45
        once = evolve(h, e1 + e2, v)
        twice = evolve(h, e1, evolve(h, e2, v))
        np.testing.assert_allclose(twice, once, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evolve(Observable(SZ), 0.1, StateVector([1, 0, 0]))


class TestEvolveCoupling:
    def test_zero_time_identity(self):
        rng = np.random.default_rng(51)
        a = random_hermitian(rng, 2)
        g = random_hermitian(rng, 3)
        v = random_state(rng, 6).amps.reshape(2, 3)
        np.testing.assert_allclose(evolve_coupling(a, g, 0.0, v), v,
                                   atol=1e-15)

    def test_identity_system_factor(self):
        rng = np.random.default_rng(52)
        g = random_hermitian(rng, 3)
        s, m = random_state(rng, 2), random_state(rng, 3)
        out = evolve_coupling(Observable(np.eye(2)), g, 0.2,
                              np.outer(s.amps, m.amps))
        want = np.outer(s.amps, evolve(g, 0.2, m))
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_agrees_with_dense_paths(self):
        rng = np.random.default_rng(53)
        for ds, dm in ((2, 2), (3, 4), (4, 5)):
            a = random_hermitian(rng, ds)
            g = random_hermitian(rng, dm)
            v = random_state(rng, ds * dm)
            got = evolve_coupling(a, g, 0.1,
                                  v.amps.reshape(ds, dm)).reshape(-1)
            via_spectral = evolve(tensor_op(a, g), 0.1, v)
            via_expm = scipy.linalg.expm(
                -0.1j * np.kron(a.entries, g.entries)) @ v.amps
            np.testing.assert_allclose(got, via_spectral, atol=1e-10)
            np.testing.assert_allclose(got, via_expm, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evolve_coupling(Observable(SZ), Observable(SX), 0.1,
                            StateVector([1, 0, 0]).amps)


class TestProjector:
    def test_basis_projector(self):
        np.testing.assert_array_equal(projector(E1).entries,
                                      [[1, 0], [0, 0]])

    def test_scale_invariant(self):
        np.testing.assert_allclose(projector([2, 0]).entries,
                                   [[1, 0], [0, 0]], atol=1e-15)

    def test_uniform_superposition(self):
        p = projector(StateVector([1, 1]))
        np.testing.assert_allclose(p.entries, np.full((2, 2), 0.5),
                                   atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(61)
        p = projector(random_state(rng, 5)).entries
        np.testing.assert_allclose(p @ p, p, atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            projector([0, 0])


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(71)
        s, m = random_state(rng, 2), random_state(rng, 3)
        rho = DensityMatrix.from_state(StateVector(tensor_state(s, m)))
        got = partial_trace_meter(rho, 2, 3)
        np.testing.assert_allclose(got.entries,
                                   DensityMatrix.from_state(s).entries,
                                   atol=1e-12)

    def test_factorized_mixed_meter(self):
        rng = np.random.default_rng(72)
        s = random_state(rng, 2)
        ps = DensityMatrix.from_state(s).entries
        m1, m2 = random_state(rng, 3), random_state(rng, 3)
        rho_m = (0.25 * DensityMatrix.from_state(m1).entries
                 + 0.75 * DensityMatrix.from_state(m2).entries)
        got = partial_trace_meter(DensityMatrix(np.kron(ps, rho_m)), 2, 3)
        np.testing.assert_allclose(got.entries, ps, atol=1e-12)

    def test_bell_state(self):
        bell = StateVector([1, 0, 0, 1])
        got = partial_trace_meter(DensityMatrix.from_state(bell), 2, 2)
        np.testing.assert_allclose(got.entries, np.eye(2) / 2, atol=1e-14)

    def test_matches_loop_sum(self):
        rng = np.random.default_rng(73)
        v = random_state(rng, 12)
        rho = DensityMatrix.from_state(v)
        got = partial_trace_meter(rho, 3, 4)
        want = np.zeros((3, 3), dtype=complex)
        full = rho.entries
        for i in range(3):
            for j in range(3):
                for m in range(4):
                    want[i, j] += full[i * 4 + m, j * 4 + m]
        np.testing.assert_allclose(got.entries, want, atol=1e-13)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(74)
        rho = DensityMatrix.from_state(random_state(rng, 6))
        with pytest.raises(DimensionMismatchError):
            partial_trace_meter(rho, 2, 2)


class TestExpectation:
    def test_basis_state(self):
        assert expectation(Observable(SZ), E1) == pytest.approx(1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation(Observable(SZ), StateVector([1, 0, 0]))

    def test_balanced_superposition(self):
        v = StateVector([1, 1])
        assert expectation(Observable(SZ), v) == pytest.approx(0, abs=1e-15)

    def test_circular_state(self):
        v = StateVector([1, 1j])
        assert expectation(Observable(SX), v) == pytest.approx(0, abs=1e-15)

    def test_bounded_by_spectrum(self):
        rng = np.random.default_rng(81)
        a = random_hermitian(rng, 6)
        dec = eig_hermitian(a)
        for _ in range(10):
            x = expectation(a, random_state(rng, 6))
            assert dec.eigenvalues[0] - 1e-12 <= x
            assert x <= dec.eigenvalues[-1] + 1e-12

    def test_large_entries_pass(self):
        # the imaginary roundoff of <v, Av> grows with A's entries, so an
        # absolute cutoff would reject Hermitian A of scale 1e7
        rng = np.random.default_rng(82)
        for _ in range(40):
            m = 1e7 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            a = Observable((m + m.conj().T) / 2)
            v = random_state(rng, 4)
            want = complex(np.vdot(v.amps, a.entries @ v.amps)).real
            assert expectation(a, v) == want


class TestRealPart:
    def test_residue_is_relative_to_the_real_part(self):
        assert real_part(complex(1e7, 1e-5), "x") == 1e7
        assert real_part(complex(0.5, 1e-11), "x") == 0.5
        with pytest.raises(HermiticityError, match="x has imaginary residue"):
            real_part(complex(1e7, 1e-2), "x")
        with pytest.raises(HermiticityError):
            real_part(complex(0.5, 1e-9), "x")

    def test_residue_is_relative_to_the_operator_scale(self):
        assert real_part(complex(0.0, 1e-4), "x", 1e7) == 0.0
        assert real_part(complex(0.5, 1e-11), "x", 0.1) == 0.5
        with pytest.raises(HermiticityError):
            real_part(complex(0.0, 1e-2), "x", 1e7)
        with pytest.raises(HermiticityError):
            real_part(complex(0.5, 1e-9), "x", 0.1)

    def test_large_operator_with_zero_mean_passes(self):
        # the imaginary roundoff of <s, As> is about 1e-9 here, far above
        # IMAG_TOL * max(1, |<s, As>|) but not above IMAG_TOL * max|A_ij|
        rng = np.random.default_rng(0)
        for _ in range(40):
            a, s = large_zero_mean_system(rng)
            want = complex(np.vdot(s.amps, a.entries @ s.amps)).real
            assert expectation(a, s) == want
            assert abs(want) <= 1e-14 * np.max(np.abs(a.entries))


class TestDensityMatrix:
    def test_pure_state(self):
        rho = DensityMatrix.from_state(StateVector([1, 1j]))
        np.testing.assert_allclose(np.trace(rho.entries), 1.0, atol=1e-14)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))


class TestTraceDistance:
    def test_identical_states(self):
        rho = DensityMatrix.from_state(E1)
        assert trace_distance(rho.entries, rho.entries) == pytest.approx(
            0, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_distance(np.eye(2), np.eye(3))

    def test_orthogonal_states(self):
        d = trace_distance(DensityMatrix.from_state(E1).entries,
                           DensityMatrix.from_state(E2).entries)
        assert d == pytest.approx(1.0)

    def test_matches_nuclear_norm(self):
        rng = np.random.default_rng(91)
        rho = DensityMatrix.from_state(random_state(rng, 5))
        sigma = DensityMatrix.from_state(random_state(rng, 5))
        got = trace_distance(rho.entries, sigma.entries)
        want = 0.5 * np.linalg.svd(rho.entries - sigma.entries,
                                   compute_uv=False).sum()
        assert got == pytest.approx(want, abs=1e-12)

    def test_pure_state_formula(self):
        # for pure states: sqrt(1 - |<v,w>|^2)
        rng = np.random.default_rng(92)
        v, w = random_state(rng, 4), random_state(rng, 4)
        got = trace_distance(DensityMatrix.from_state(v).entries,
                             DensityMatrix.from_state(w).entries)
        want = np.sqrt(1.0 - abs(inner(v, w)) ** 2)
        assert got == pytest.approx(want, abs=1e-10)

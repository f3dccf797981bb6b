import math

import numpy as np
import pytest

from fockforge import (
    Cutoff,
    Ket,
    PolarParam,
    apply_swap,
    cnot_factorization,
    coherent,
    fidelity,
    full_swap,
    no_cloning_witness,
    swap_matrix,
    tensor_ket,
    vacuum,
)

QUBIT_SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=float,
)

QUTRIT_SWAP = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1],
    ],
    dtype=float,
)

CNOT_OUTER = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=float,
)

CNOT_MIDDLE = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ],
    dtype=float,
)


class TestSwapMatrix:
    def test_qubit_display(self):
        np.testing.assert_array_equal(swap_matrix(2).to_dense(), QUBIT_SWAP)

    def test_qutrit_display(self):
        np.testing.assert_array_equal(swap_matrix(3).to_dense(), QUTRIT_SWAP)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 32])
    def test_involution_and_permutation(self, n):
        u = swap_matrix(n)
        assert u.is_involution
        dense = u.to_dense()
        np.testing.assert_array_equal(dense.sum(axis=0), np.ones(n * n))
        np.testing.assert_array_equal(dense.sum(axis=1), np.ones(n * n))

    def test_rejects_trivial_dimension(self):
        with pytest.raises(ValueError):
            swap_matrix(1)


class TestApplySwap:
    def test_fixed_point(self):
        c = Cutoff(3)
        amps = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        k = Ket(amps, 1, c)
        out = apply_swap(k, k)
        np.testing.assert_array_equal(out.amplitudes, np.kron(amps, amps))

    def test_basis_pair(self):
        c = Cutoff(1)
        a = Ket(np.array([1.0, 0.0], dtype=complex), 1, c)
        b = Ket(np.array([0.0, 1.0], dtype=complex), 1, c)
        out = apply_swap(a, b)
        np.testing.assert_array_equal(out.amplitudes, [0, 0, 1, 0])

    def test_random_pairs_exact(self):
        rng = np.random.default_rng(17)
        c = Cutoff(9)
        perm = swap_matrix(10).perm
        for _ in range(20):
            a = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            out = apply_swap(Ket(a, 1, c), Ket(b, 1, c))
            # the permutation itself is a pure reindex: bitwise equality
            np.testing.assert_array_equal(out.amplitudes, np.kron(a, b)[perm])
            # against an independently formed b (x) a the products a_j b_i and
            # b_i a_j can differ by one ULP under fused multiply-add
            scale = np.abs(out.amplitudes).max()
            assert np.abs(out.amplitudes - np.kron(b, a)).max() <= 1e-15 * scale

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_swap(vacuum(Cutoff(2)), vacuum(Cutoff(3)))


class TestCnotFactorization:
    def test_displays(self):
        c1, c2, c3 = cnot_factorization()
        np.testing.assert_array_equal(c1.to_dense(), CNOT_OUTER)
        np.testing.assert_array_equal(c2.to_dense(), CNOT_MIDDLE)
        np.testing.assert_array_equal(c3.to_dense(), CNOT_OUTER)

    def test_product_is_swap(self):
        c1, c2, c3 = cnot_factorization()
        product = c1.compose(c2).compose(c3)
        np.testing.assert_array_equal(product.to_dense(), QUBIT_SWAP)

    def test_each_factor_involutive(self):
        for factor in cnot_factorization():
            assert factor.is_involution

    def test_outer_factors_equal_middle_differs(self):
        c1, c2, c3 = cnot_factorization()
        np.testing.assert_array_equal(c1.perm, c3.perm)
        assert not np.array_equal(c1.perm, c2.perm)


class TestCrossModuleConsistency:
    def test_permutation_route_matches_protocol_route(self):
        a1 = PolarParam.from_value(1.0)
        a2 = PolarParam.from_value(0.6j)
        cut = Cutoff(36)
        protocol = full_swap(a1, a2, 0.0, cut)
        permuted = apply_swap(coherent(a1, cut), coherent(a2, cut))
        assert fidelity(permuted, protocol.output) >= 1 - 1e-8
        # permutation route is bitwise the swapped product state
        target = tensor_ket(coherent(a2, cut), coherent(a1, cut))
        np.testing.assert_array_equal(permuted.amplitudes, target.amplitudes)


class TestNoCloningWitness:
    def test_basis_vector_clones(self):
        rep = no_cloning_witness(vacuum(Cutoff(3)))
        assert rep.residuals["clone_discrepancy"] == 0.0
        assert rep.residuals["scalar_mismatch"] == 2.0
        assert rep.passed

    def test_uniform_superposition_fails_to_clone(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[1] = 1 / math.sqrt(2)
        rep = no_cloning_witness(Ket(amps, 1, Cutoff(3)))
        # oracle: distance^2 = || (e00+e11)/sqrt(2) - uniform/2 ||^2 = 2 - sqrt(2)
        expected = math.sqrt(2 - math.sqrt(2))
        assert rep.residuals["clone_distance"] == pytest.approx(expected, rel=1e-12)
        assert rep.residuals["clone_distance"] > 0.4
        assert rep.residuals["witness_gap"] == 0.0
        assert rep.passed

    def test_generic_superposition_detected(self):
        rng = np.random.default_rng(9)
        amps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        rep = no_cloning_witness(Ket(amps, 1, Cutoff(4)))
        assert rep.residuals["clone_distance"] > 0.4

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            no_cloning_witness(Ket(np.zeros(3, dtype=complex), 1, Cutoff(2)))

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as dense_expm

import fockforge.protocols
from fockforge import (
    Cutoff,
    CutoffWarning,
    PolarParam,
    adequate_cutoff,
    apply_beamsplitter,
    beamsplitter_UJ,
    check_SDS,
    check_phase_formula,
    coherent,
    coherent_with_deficit,
    fidelity,
    full_swap,
    imperfect_clone,
    squeeze,
    squeezed_swap_obstruction,
    tensor_ket,
    vacuum,
)
from fockforge.config import COSH_GUARD
from fockforge.fock import safe_indices
from fockforge.formulas import (
    _conjugated_squeeze_pair,
    _hyperbolic_margin,
    squeeze_pair_exponent_coefficients,
)
from fockforge.lie import apply_sectors
from fockforge.protocols import _gaussian_exponential
from second_routes import (
    annihilation,
    dagger,
    identity,
    number,
    residual,
    tensor,
    two_mode_squeezer_UK,
)

RNG = np.random.default_rng(31)


def random_param(lo, hi, rng=RNG):
    return PolarParam.from_polar(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


def partial_traces(ket):
    d = ket.cutoff.dim
    grid = ket.amplitudes.reshape(d, d)
    rho1 = np.einsum("ij,kj->ik", grid, grid.conj())
    rho2 = np.einsum("ij,ik->jk", grid, grid.conj())
    return rho1, rho2


class TestBeamsplitter:
    def test_zero_is_identity(self):
        c = Cutoff(6)
        u = beamsplitter_UJ(PolarParam.from_value(0), c)
        np.testing.assert_array_equal(u.entries, np.eye(49))

    def test_vacuum_invariance(self):
        c = Cutoff(10)
        for _ in range(3):
            u = beamsplitter_UJ(random_param(0.1, 1.5), c)
            vac = tensor_ket(vacuum(c), vacuum(c))
            assert np.linalg.norm(u.entries @ vac.amplitudes - vac.amplitudes) < 1e-12

    def test_commutes_with_total_number(self):
        c = Cutoff(8)
        u = beamsplitter_UJ(PolarParam.from_value(0.7 - 0.4j), c)
        n_tot = tensor(number(c), identity(c)) + tensor(identity(c), number(c))
        comm = u @ n_tot - n_tot @ u
        assert np.abs(comm.entries).max() < 1e-10

    def test_conjugation_matches_rotation_closed_form(self):
        c = Cutoff(14)
        kappa = random_param(0.2, 1.2)
        u = beamsplitter_UJ(kappa, c)
        a = annihilation(c)
        a1 = tensor(a, identity(c))
        a2 = tensor(identity(c), a)
        m = kappa.modulus
        rhs = math.cos(m) * a1 - (kappa.value * math.sin(m) / m) * a2
        lhs = u @ a1 @ dagger(u)
        assert residual(lhs, rhs, 2) < 1e-10


class TestTwoModeSqueezer:
    def test_zero_is_identity(self):
        c = Cutoff(5)
        u = two_mode_squeezer_UK(PolarParam.from_value(0), c)
        np.testing.assert_array_equal(u.entries, np.eye(36))

    def test_vacuum_output_pairs_only(self):
        c = Cutoff(12)
        u = two_mode_squeezer_UK(PolarParam.from_value(0.5), c)
        out = u.entries[:, 0]
        d = c.dim
        for idx, amp in enumerate(out):
            i, j = divmod(idx, d)
            if i != j:
                assert abs(amp) <= 1e-10

    def test_guard(self):
        with pytest.raises(ValueError):
            two_mode_squeezer_UK(PolarParam.from_value(2.0), Cutoff(5))

    def test_conjugation_matches_hyperbolic_closed_form(self):
        c = Cutoff(40)
        kappa = PolarParam.from_polar(0.35, 0.8)
        u = two_mode_squeezer_UK(kappa, c)
        a = annihilation(c)
        a1 = tensor(a, identity(c))
        a2d = tensor(identity(c), dagger(a))
        m = kappa.modulus
        rhs = math.cosh(m) * a1 - (kappa.value * math.sinh(m) / m) * a2d
        lhs = u @ a1 @ dagger(u)
        assert residual(lhs, rhs, c.n_max - 10) < 1e-7


class TestApplyBeamsplitter:
    def test_zero_angle_passthrough(self):
        res = apply_beamsplitter(
            PolarParam.from_value(0.8),
            PolarParam.from_value(0.3j),
            PolarParam.from_value(0),
            Cutoff(24),
        )
        assert res.fidelity >= 1 - 1e-12

    def test_quarter_wave_mapping(self):
        # sin|k| = 1, phase 0: (1, i) -> (i, -1)
        res = apply_beamsplitter(
            PolarParam.from_value(1.0),
            PolarParam.from_value(1j),
            PolarParam.from_polar(math.pi / 2, 0.0),
        )
        c = res.output.cutoff
        target = tensor_ket(
            coherent(PolarParam.from_value(1j), c),
            coherent(PolarParam.from_value(-1.0), c),
        )
        assert fidelity(res.output, target) >= 1 - 1e-8

    def test_single_input_split(self):
        # second input dark: |a> -> |cos a> (x) |e^{-i(d+pi)} sin a>
        alpha = PolarParam.from_value(0.9)
        kappa = PolarParam.from_polar(0.6, 0.4)
        res = apply_beamsplitter(alpha, PolarParam.from_value(0), kappa)
        c = res.output.cutoff
        m, d = kappa.modulus, kappa.phase
        out2 = np.exp(-1j * (d + math.pi)) * math.sin(m) * alpha.value
        target = tensor_ket(
            coherent(PolarParam.from_value(math.cos(m) * alpha.value), c),
            coherent(PolarParam.from_value(out2), c),
        )
        assert fidelity(res.output, target) >= 1 - 1e-8

    def test_random_pairs(self):
        for _ in range(3):
            res = apply_beamsplitter(
                random_param(0.0, 1.5),
                random_param(0.0, 1.5),
                random_param(0.1, 1.5),
                Cutoff(36),
            )
            assert res.fidelity >= 1 - 1e-8
            assert res.report.residuals["energy_conservation"] <= 1e-8

    def test_result_fidelity_consistency(self):
        res = apply_beamsplitter(
            PolarParam.from_value(0.5),
            PolarParam.from_value(0.2j),
            PolarParam.from_value(0.3),
        )
        assert res.fidelity == pytest.approx(fidelity(res.output, res.predicted))


class TestFullSwap:
    def test_equal_pair_fixed(self):
        alpha = PolarParam.from_value(0.7 + 0.1j)
        res = full_swap(alpha, alpha, 0.0)
        assert res.fidelity >= 1 - 1e-10

    def test_basic_swap(self):
        res = full_swap(PolarParam.from_value(1.0), PolarParam.from_value(1j), 0.0)
        assert res.fidelity >= 1 - 1e-8
        assert res.stages == ("beamsplitter", "phase_rotation")

    def test_delta_independence(self):
        a1, a2 = PolarParam.from_value(0.9), PolarParam.from_value(0.4 - 0.6j)
        for delta in (0.0, math.pi / 3, -1.2):
            res = full_swap(a1, a2, delta)
            assert res.fidelity >= 1 - 1e-8
            # predicted labels do not depend on delta
            c = res.predicted.cutoff
            target = tensor_ket(coherent(a2, c), coherent(a1, c))
            assert fidelity(res.predicted, target) >= 1 - 1e-12

    def test_double_swap_restores_input(self):
        a1, a2 = PolarParam.from_value(1.1), PolarParam.from_value(0.5j)
        c = Cutoff(36)
        first = full_swap(a1, a2, 0.0, c)
        # feed the simulated output labels back through a second swap
        second = full_swap(a2, a1, 0.7, c)
        target = tensor_ket(coherent(a1, c), coherent(a2, c))
        assert fidelity(second.output, target) >= 1 - 1e-7
        assert first.fidelity >= 1 - 1e-7


class TestImperfectClone:
    def test_zero_input(self):
        res = imperfect_clone(PolarParam.from_value(0), Cutoff(12))
        assert res.fidelity >= 1 - 1e-12

    def test_unit_input(self):
        res = imperfect_clone(PolarParam.from_value(1.0), Cutoff(32))
        assert res.fidelity >= 1 - 1e-8
        n1, n2 = res.mean_occupations()
        assert n1 == pytest.approx(0.5, abs=1e-8)
        assert n2 == pytest.approx(0.5, abs=1e-8)

    def test_delta_free_prediction(self):
        alpha = PolarParam.from_value(0.8 + 0.3j)
        base = imperfect_clone(alpha)
        other = imperfect_clone(alpha, delta=0.7)
        assert fidelity(base.predicted, other.predicted) >= 1 - 1e-12
        assert other.fidelity >= 1 - 1e-8

    def test_marginals_agree(self):
        res = imperfect_clone(PolarParam.from_value(1.2))
        rho1, rho2 = partial_traces(res.output)
        assert np.linalg.norm(rho1 - rho2, "fro") <= 1e-8


class TestSharedCircuit:
    @pytest.mark.parametrize("n_max", [10, 40, 59])
    def test_idle_mode_is_exact_vacuum(self, n_max):
        # the clone's second input is the coherent state at amplitude 0
        c = Cutoff(n_max)
        ket, deficit = coherent_with_deficit(PolarParam.from_value(0), c)
        np.testing.assert_array_equal(ket.amplitudes, vacuum(c).amplitudes)
        assert deficit == 0.0

    def test_swap_and_clone_call_no_other_protocol(self, monkeypatch):
        # the benchmark counts each call of a public protocol as one operation
        def forbidden(*args, **kwargs):
            raise AssertionError("apply_beamsplitter was called")

        monkeypatch.setattr(fockforge.protocols, "apply_beamsplitter", forbidden)
        alpha = PolarParam.from_value(0.8 - 0.3j)
        assert full_swap(alpha, PolarParam.from_value(0.5j), 0.4).report.passed
        assert imperfect_clone(alpha, delta=-0.6).report.passed


class TestLargeAngles:
    """A finite angle of any size is reduced to (-pi, pi] once, and that one
    reduced angle enters both the simulated circuit and the prediction."""

    ANGLES = (1e6, 1e15, 1e300)

    @pytest.mark.parametrize("angle", ANGLES)
    def test_swap_matches_the_reduced_angle(self, angle):
        a1, a2 = PolarParam.from_value(1.0), PolarParam.from_value(1j)
        res = full_swap(a1, a2, angle)
        assert res.report.passed
        assert res.fidelity >= 1 - 1e-12
        reduced = full_swap(a1, a2, math.remainder(angle, 2 * math.pi))
        np.testing.assert_array_equal(res.output.amplitudes, reduced.output.amplitudes)

    @pytest.mark.parametrize("angle", ANGLES)
    def test_clone_matches_the_reduced_angle(self, angle):
        alpha = PolarParam.from_value(1.0)
        res = imperfect_clone(alpha, delta=angle)
        assert res.report.passed
        assert res.fidelity >= 1 - 1e-12
        reduced = imperfect_clone(alpha, delta=math.remainder(angle, 2 * math.pi))
        np.testing.assert_array_equal(res.output.amplitudes, reduced.output.amplitudes)

    @pytest.mark.parametrize("angle", ANGLES)
    def test_phase_formula_at_the_reduced_angle(self, angle):
        alpha = PolarParam.from_value(1.0)
        rep = check_phase_formula(angle, alpha)
        assert rep.passed
        reduced = check_phase_formula(math.remainder(angle, 2 * math.pi), alpha)
        assert rep.residuals == reduced.residuals
        assert rep.fidelities == reduced.fidelities


class TestCutoffWarnings:
    # the library's only channel for an inadequate cutoff is a CutoffWarning
    @pytest.mark.parametrize(
        "call,context",
        [
            (lambda: check_SDS(PolarParam.from_value(0.5), PolarParam.from_value(1.0), Cutoff(6)),
             "conjugated displacement"),
            (lambda: check_phase_formula(0.3, PolarParam.from_value(1.0), Cutoff(6)),
             "phase-rotated displacement"),
            (lambda: apply_beamsplitter(PolarParam.from_value(2.0), PolarParam.from_value(2j),
                                        PolarParam.from_value(0.5), Cutoff(8)),
             "beamsplitter input"),
            (lambda: full_swap(PolarParam.from_value(3.0), PolarParam.from_value(0), 0.0,
                               Cutoff(10)),
             "swap input"),
            (lambda: imperfect_clone(PolarParam.from_value(3.0), Cutoff(10)), "clone input"),
        ],
        ids=["check_SDS", "check_phase_formula", "apply_beamsplitter", "full_swap",
             "imperfect_clone"],
    )
    def test_inadequate_cutoff_warns(self, call, context):
        with pytest.warns(CutoffWarning, match=f"cutoff inadequate for {context}:"):
            call()


class TestLargeAmplitude:
    # the protocols never form the d^2 x d^2 beamsplitter, so n_max 128
    # (a 4.4 GB dense matrix) costs a ket and its sector blocks
    @pytest.mark.parametrize("modulus,n_max", [(5.0, 68), (8.0, 128)])
    def test_swap_and_clone_reach(self, modulus, n_max):
        assert adequate_cutoff(modulus) == n_max
        cut = Cutoff(n_max)
        alpha = PolarParam.from_polar(modulus, 0.3)
        dark = PolarParam.from_value(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CutoffWarning)
            swapped = full_swap(alpha, dark, -1.1, cut)
            cloned = imperfect_clone(alpha, cut, 0.6)
        for res in (swapped, cloned):
            assert res.fidelity >= 1 - 1e-6
            assert res.report.passed
        assert swapped.mean_occupations() == pytest.approx((0.0, modulus**2), abs=1e-6)
        half = modulus**2 / 2
        assert cloned.mean_occupations() == pytest.approx((half, half), abs=1e-6)

    def test_stages_map_kets_to_kets(self):
        # the named stages, applied by hand: the beamsplitter, then the phase product
        c = Cutoff(16)
        a1, a2 = PolarParam.from_value(0.6 - 0.2j), PolarParam.from_value(0.4j)
        delta = 0.9
        res = full_swap(a1, a2, delta, c)
        ket = tensor_ket(coherent(a1, c), coherent(a2, c))
        ket = apply_sectors("su2", PolarParam.from_polar(math.pi / 2, delta), ket)
        n = np.arange(c.dim)
        phases = np.outer(np.exp(-1j * delta * n), np.exp(1j * (delta + math.pi) * n))
        amps = ket.amplitudes * phases.reshape(-1)
        np.testing.assert_allclose(amps / np.linalg.norm(amps), res.output.amplitudes, atol=1e-15)


def dense_pair_exponent(coeffs, cut):
    """The exponent X of ``squeeze_pair_exponent_coefficients``, dense on the
    box-truncated two-mode space."""
    a = annihilation(cut).entries
    ad = a.conj().T
    eye = np.eye(cut.dim)
    return (
        coeffs["a1dag2"] * np.kron(ad @ ad, eye)
        + coeffs["a1sq"] * np.kron(a @ a, eye)
        + coeffs["a2dag2"] * np.kron(eye, ad @ ad)
        + coeffs["a2sq"] * np.kron(eye, a @ a)
        + coeffs["pair_create"] * np.kron(ad, ad)
        + coeffs["pair_destroy"] * np.kron(a, a)
    )


def dense_exp_block(coeffs, cut, margin):
    # expm of the dense X, one parity sector of n1 + n2 at a time (X has no
    # entry between them), sliced to the safe block
    x = dense_pair_exponent(coeffs, cut)
    flat = np.arange(cut.dim ** 2)
    odd = (flat // cut.dim + flat % cut.dim) % 2 == 1
    exp_x = np.zeros_like(x)
    for sector in (odd, ~odd):
        exp_x[np.ix_(sector, sector)] = dense_expm(x[np.ix_(sector, sector)])
    keep = safe_indices(cut, margin, modes=2)
    return exp_x[np.ix_(keep, keep)]


class TestObstruction:
    def test_matched_condition_no_change(self):
        # beta2 kappa = beta1 conj(kappa) kills the pair term and the
        # conjugation leaves the squeeze pair untouched
        kappa = PolarParam.from_polar(0.5, 0.7)
        beta1 = PolarParam.from_value(0.3 + 0.1j)
        beta2 = PolarParam.from_value(beta1.value * kappa.conj / kappa.value)
        rep = squeezed_swap_obstruction(beta1, beta2, kappa)
        assert rep.residuals["cross_term_modulus"] < 1e-15
        assert rep.residuals["invariance"] <= 1e-8
        assert "invariance" not in rep.unasserted
        assert rep.passed

    def test_real_kappa_equal_squeezes_trivial(self):
        beta = PolarParam.from_value(0.25)
        rep = squeezed_swap_obstruction(beta, beta, PolarParam.from_value(0.4))
        assert rep.residuals["cross_term_modulus"] == 0.0
        assert rep.passed

    def test_imaginary_kappa_real_squeeze_obstructed(self):
        # kappa = i k with real beta: pair coefficient i beta sin(2k)
        k = 0.5
        beta = PolarParam.from_value(0.3)
        rep = squeezed_swap_obstruction(
            beta, beta, PolarParam.from_polar(k, math.pi / 2)
        )
        expected = beta.modulus * math.sin(2 * k)
        assert rep.residuals["cross_term_modulus"] == pytest.approx(expected, rel=1e-10)
        assert rep.residuals["cross_term_modulus"] > 1e-3
        assert rep.residuals["exponent_match"] <= 1e-8
        assert "invariance" in rep.unasserted
        assert rep.residuals["invariance"] > 1e-3  # something really changed

    # margin 14 = n_max leaves the safe block {|0,0>}: the odd sector has no safe column
    @pytest.mark.parametrize("margin", [None, 0, 14])
    @pytest.mark.parametrize(
        "beta1,beta2,kappa",
        [
            (PolarParam.from_value(0.3), PolarParam.from_value(0.3), PolarParam.from_value(0.4)),
            (
                PolarParam.from_value(0.3),
                PolarParam.from_value(0.3),
                PolarParam.from_polar(0.5, math.pi / 2),
            ),
            (
                PolarParam.from_value(0.3 + 0.1j),
                PolarParam.from_value(-0.2 + 0.25j),
                PolarParam.from_polar(0.7, -1.2),
            ),
        ],
        ids=["invariant", "obstructed", "generic"],
    )
    def test_safe_block_matches_dense_route(self, beta1, beta2, kappa, margin):
        # reference: the dense U and the np.kron squeeze pair at n_max 14, and
        # exp(X) as U (S1 S2) U† with untruncated squeezes.  U keeps n1 + n2,
        # so its safe block is exact, and the squeezes' first 15 rows and
        # columns at n_max 80 are exact to round-off.
        cut = Cutoff(14)
        margin = _hyperbolic_margin(cut) if margin is None else margin
        coeffs = squeeze_pair_exponent_coefficients(beta1.value, beta2.value, kappa.value)
        u = beamsplitter_UJ(kappa, cut).entries
        pair = np.kron(squeeze(beta1, cut).entries, squeeze(beta2, cut).entries)
        wide = Cutoff(80)
        exact_pair = np.kron(
            squeeze(beta1, wide).entries[: cut.dim, : cut.dim],
            squeeze(beta2, wide).entries[: cut.dim, : cut.dim],
        )
        keep = safe_indices(cut, margin, modes=2)
        block = np.ix_(keep, keep)
        want = (
            (u @ pair @ u.conj().T)[block],
            (u @ exact_pair @ u.conj().T)[block],
            pair[block],
        )

        got_keep, conjugated, got_pair = _conjugated_squeeze_pair(beta1, beta2, kappa, cut, margin)
        got = (conjugated, _gaussian_exponential(coeffs, cut, got_keep), got_pair)
        for mine, ref in zip(got, want):
            assert np.abs(mine - ref).max() <= 1e-12
        rep = squeezed_swap_obstruction(beta1, beta2, kappa, cut, margin)
        ref_residuals = {
            "exponent_match": np.linalg.norm(want[0] - want[1], "fro"),
            "invariance": np.linalg.norm(want[0] - want[2], "fro"),
        }
        for key, value in ref_residuals.items():
            assert abs(rep.residuals[key] - value) <= 1e-12

    @pytest.mark.parametrize("n_max", [2, 6, 15])
    def test_exponent_keeps_total_parity(self, n_max):
        # every term of X moves n1 + n2 by two, so exp(X) has no entry between
        # the parity sectors, for any coefficients: the recurrence gives exact zeros
        rng = np.random.default_rng(n_max)
        keys = ("a1dag2", "a1sq", "a2dag2", "a2sq", "pair_create", "pair_destroy")
        coeffs = {k: complex(*rng.standard_normal(2)) for k in keys}
        cut = Cutoff(n_max)
        keep = safe_indices(cut, 0, modes=2)
        exp_x = _gaussian_exponential(coeffs, cut, keep)
        i1, i2 = np.divmod(keep, cut.dim)
        odd = (i1 + i2) % 2 == 1
        assert np.count_nonzero(exp_x[np.ix_(odd, ~odd)]) == 0
        assert np.count_nonzero(exp_x[np.ix_(~odd, odd)]) == 0
        assert np.count_nonzero(exp_x[np.ix_(odd, odd)]) > 0
        assert np.count_nonzero(exp_x[np.ix_(~odd, ~odd)]) > 0

    def test_guard(self):
        with pytest.raises(ValueError):
            squeezed_swap_obstruction(
                PolarParam.from_value(2.5),
                PolarParam.from_value(0.1),
                PolarParam.from_value(0.3),
            )


def polar(top):
    return st.builds(PolarParam.from_polar, st.floats(0.0, top), st.floats(-math.pi, math.pi))


class TestGaussianExponential:
    # at |beta| <= 0.2 the box-truncated expm at n_max 20 is within 7.9e-15 of
    # exp(X) on safe blocks up to n1 + n2 = 4 (40 draws at |beta1| = |beta2| = 0.2)
    DENSE_CUTOFF = Cutoff(20)
    GENERIC = (
        PolarParam.from_value(0.15 + 0.1j),
        PolarParam.from_value(-0.1 + 0.15j),
        PolarParam.from_polar(0.7, -1.2),
    )

    @settings(max_examples=15, deadline=None)
    @given(polar(0.2), polar(0.2), polar(2 * math.pi), st.integers(0, 4))
    @example(*GENERIC, 4)
    @example(PolarParam.from_polar(0.2, 1.0), PolarParam.from_polar(0.2, -2.0),
             PolarParam.from_polar(1.3, 0.4), 4)
    def test_matches_dense_exponential(self, beta1, beta2, kappa, cap):
        cut = self.DENSE_CUTOFF
        margin = cut.n_max - cap
        coeffs = squeeze_pair_exponent_coefficients(beta1.value, beta2.value, kappa.value)
        exp_x = _gaussian_exponential(coeffs, cut, safe_indices(cut, margin, modes=2))
        assert np.abs(exp_x - dense_exp_block(coeffs, cut, margin)).max() <= 1e-13

    def test_pair_create_one_percent_off_misses(self):
        # control: the dense comparison catches a 1 % error in the pair coefficient
        cut = self.DENSE_CUTOFF
        beta1, beta2, kappa = self.GENERIC
        coeffs = squeeze_pair_exponent_coefficients(beta1.value, beta2.value, kappa.value)
        wrong = {**coeffs, "pair_create": 1.01 * coeffs["pair_create"]}
        exp_x = _gaussian_exponential(wrong, cut, safe_indices(cut, cut.n_max - 4, modes=2))
        assert np.abs(exp_x - dense_exp_block(coeffs, cut, cut.n_max - 4)).max() > 1e-6

    def test_conjugation_converges_at_the_cosh_guard(self):
        # at cosh|beta| = COSH_GUARD the truncated conjugation is 1e-2 off exp(X)
        # at n_max 40 and 2e-7 at 80; at 160 only round-off is left
        top = math.acosh(COSH_GUARD) - 1e-12
        beta1, beta2 = PolarParam.from_polar(top, 0.7), PolarParam.from_polar(top, -2.1)
        kappa = PolarParam.from_polar(4.3, 1.1)
        rep = squeezed_swap_obstruction(beta1, beta2, kappa, Cutoff(160), margin=156)
        assert rep.residuals["exponent_match"] <= 1e-13
        assert rep.passed

    def test_zero_and_subnormal_exponents(self):
        zero = PolarParam.from_value(0)
        kappa = PolarParam.from_polar(0.4, 0.3)
        coeffs = squeeze_pair_exponent_coefficients(0j, 0j, kappa.value)
        keep, _, _ = _conjugated_squeeze_pair(zero, zero, kappa, Cutoff(10), 3)
        exp_x = _gaussian_exponential(coeffs, Cutoff(10), keep)
        np.testing.assert_array_equal(exp_x, np.eye(exp_x.shape[0]))
        # S1(0) S2(0) is the identity too, so both residuals measure U's safe block alone
        rep = squeezed_swap_obstruction(zero, zero, kappa)
        assert rep.residuals["exponent_match"] == rep.residuals["invariance"]
        assert rep.residuals["exponent_match"] <= 1e-13
        assert rep.passed
        # entries below 1e-308: A A† underflows to 0, so s = 0 needs no special case
        tiny = PolarParam.from_value(1e-310)
        rep = squeezed_swap_obstruction(tiny, tiny, kappa)
        assert rep.residuals["exponent_match"] <= 1e-13
        assert rep.passed

    def test_vacuum_block_at_full_margin(self):
        beta1 = PolarParam.from_value(0.3 + 0.1j)
        beta2 = PolarParam.from_value(-0.2 + 0.25j)
        kappa = PolarParam.from_polar(0.7, -1.2)
        n_max = fockforge.protocols.OBSTRUCTION_CUTOFF.n_max
        rep = squeezed_swap_obstruction(beta1, beta2, kappa, margin=n_max)
        assert rep.margin == n_max
        assert rep.residuals["exponent_match"] <= 1e-13
        assert rep.passed


class TestResultSerialization:
    def test_json_dict_shape(self):
        res = imperfect_clone(PolarParam.from_value(0.5), Cutoff(20))
        body = res.to_json_dict()
        assert set(body) == {"fidelity", "stages", "mean_occupations", "report"}
        assert body["stages"] == ["beamsplitter", "phase_rotation"]
        assert len(body["mean_occupations"]) == 2

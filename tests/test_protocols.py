import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.linalg import expm as dense_expm

import fockforge.protocols
from fockforge import (
    Cutoff,
    CutoffWarning,
    PolarParam,
    adequate_cutoff,
    annihilation,
    apply_beamsplitter,
    beamsplitter_UJ,
    check_SDS,
    check_phase_formula,
    coherent,
    coherent_with_deficit,
    dagger,
    fidelity,
    full_swap,
    identity,
    imperfect_clone,
    number,
    residual,
    squeeze,
    squeezed_swap_obstruction,
    tensor,
    tensor_ket,
    two_mode_squeezer_UK,
    vacuum,
)
from fockforge.config import COSH_GUARD
from fockforge.fock import safe_indices
from fockforge.formulas import _hyperbolic_margin, squeeze_pair_exponent_coefficients
from fockforge.lie import apply_sectors
from fockforge.protocols import (
    SERIES_TAIL,
    _bessel_tail,
    _bessel_weights,
    _obstruction_blocks,
    _pair_exponent,
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
        # reference: the dense U, the np.kron squeeze pair and one dense
        # expm of X on the whole d^2 space, sliced to the safe block
        cut = Cutoff(14)
        margin = _hyperbolic_margin(cut) if margin is None else margin
        coeffs = squeeze_pair_exponent_coefficients(beta1.value, beta2.value, kappa.value)
        u = beamsplitter_UJ(kappa, cut).entries
        pair = np.kron(squeeze(beta1, cut).entries, squeeze(beta2, cut).entries)
        a = annihilation(cut).entries
        ad = a.conj().T
        eye = np.eye(cut.dim)
        x = (
            coeffs["a1dag2"] * np.kron(ad @ ad, eye)
            + coeffs["a1sq"] * np.kron(a @ a, eye)
            + coeffs["a2dag2"] * np.kron(eye, ad @ ad)
            + coeffs["a2sq"] * np.kron(eye, a @ a)
            + coeffs["pair_create"] * np.kron(ad, ad)
            + coeffs["pair_destroy"] * np.kron(a, a)
        )
        keep = safe_indices(cut, margin, modes=2)
        block = np.ix_(keep, keep)
        want = ((u @ pair @ u.conj().T)[block], dense_expm(x)[block], pair[block])

        got = _obstruction_blocks(coeffs, beta1, beta2, kappa, cut, margin)
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
        # exp(X) is taken per parity sector of n1 + n2; that needs X to have
        # no entry between the sectors, for any coefficients
        rng = np.random.default_rng(n_max)
        keys = ("a1dag2", "a1sq", "a2dag2", "a2sq", "pair_create", "pair_destroy")
        coeffs = {k: complex(*rng.standard_normal(2)) for k in keys}
        cut = Cutoff(n_max)
        x = _pair_exponent(coeffs, cut).toarray()
        flat = np.arange(cut.dim ** 2)
        odd = (flat // cut.dim + flat % cut.dim) % 2 == 1
        assert np.count_nonzero(x[np.ix_(odd, ~odd)]) == 0
        assert np.count_nonzero(x[np.ix_(~odd, odd)]) == 0
        assert np.count_nonzero(x[np.ix_(odd, odd)]) > 0
        assert np.count_nonzero(x[np.ix_(~odd, ~odd)]) > 0

    def test_guard(self):
        with pytest.raises(ValueError):
            squeezed_swap_obstruction(
                PolarParam.from_value(2.5),
                PolarParam.from_value(0.1),
                PolarParam.from_value(0.3),
            )


def polar(top):
    return st.builds(PolarParam.from_polar, st.floats(0.0, top), st.floats(-math.pi, math.pi))


def dense_exp_block(coeffs, cut, margin):
    # one dense expm of X on the whole d^2 space, sliced to the safe block
    keep = safe_indices(cut, margin, modes=2)
    return dense_expm(_pair_exponent(coeffs, cut).toarray())[np.ix_(keep, keep)]


class TestChebyshevExponential:
    BETA_TOP = math.acosh(COSH_GUARD) - 1e-12
    GENERIC = (
        PolarParam.from_value(0.3 + 0.1j),
        PolarParam.from_value(-0.2 + 0.25j),
        PolarParam.from_polar(0.7, -1.2),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        polar(BETA_TOP),
        polar(BETA_TOP),
        polar(2 * math.pi),
        st.integers(2, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    )
    # margin = n_max: the safe block is the vacuum, so classes 1, 2 and 3 have no safe column
    @example(*GENERIC, (12, 12))
    @example(PolarParam.from_value(BETA_TOP), PolarParam.from_polar(BETA_TOP, 2.0),
             PolarParam.from_polar(1.3, 0.4), (12, 0))
    def test_series_matches_dense_exponential(self, beta1, beta2, kappa, sizes):
        n_max, margin = sizes
        cut = Cutoff(n_max)
        coeffs = squeeze_pair_exponent_coefficients(beta1.value, beta2.value, kappa.value)
        _, exp_x, _ = _obstruction_blocks(coeffs, beta1, beta2, kappa, cut, margin)
        assert np.abs(exp_x - dense_exp_block(coeffs, cut, margin)).max() <= 1e-12

    @pytest.mark.parametrize("margin", [0, 6])
    def test_series_cut_at_half_the_radius_misses(self, margin, monkeypatch):
        # control: the dense comparison catches a series stopped at k = R/2.
        # Halving R itself is no control: the spectral radius is 0.56-0.85 R
        # here, and outside [-1, 1] T_k grows only enough to lift the dropped
        # tail to 1e-13-1e-7 on these columns.
        cut = Cutoff(12)
        beta1, beta2, kappa = self.GENERIC
        coeffs = squeeze_pair_exponent_coefficients(beta1.value, beta2.value, kappa.value)
        weights = fockforge.protocols._bessel_weights
        monkeypatch.setattr(
            fockforge.protocols, "_bessel_weights", lambda r: weights(r)[: math.floor(r / 2) + 1]
        )
        _, exp_x, _ = _obstruction_blocks(coeffs, beta1, beta2, kappa, cut, margin)
        assert np.abs(exp_x - dense_exp_block(coeffs, cut, margin)).max() > 1e-6

    @pytest.mark.parametrize("n_max", [2, 6, 15])
    def test_exponent_joins_shell_classes_two_apart(self, n_max):
        # the series runs class by class (N = n1 + n2 mod 4) and stops at R = ||X||_1
        rng = np.random.default_rng(100 + n_max)
        keys = ("a1dag2", "a1sq", "a2dag2", "a2sq", "pair_create", "pair_destroy")
        coeffs = {k: complex(*rng.standard_normal(2)) for k in keys}
        cut = Cutoff(n_max)
        flat = np.arange(cut.dim ** 2)
        shell = (flat // cut.dim + flat % cut.dim) % 4
        rows, cols = np.nonzero(_pair_exponent(coeffs, cut).toarray())
        assert rows.size > 0
        assert np.all(shell[rows] == (shell[cols] + 2) % 4)

        b1, b2, kappa = (complex(*rng.standard_normal(2)) for _ in range(3))
        x = _pair_exponent(squeeze_pair_exponent_coefficients(b1, b2, kappa), cut).toarray()
        np.testing.assert_allclose(x, -x.conj().T, rtol=0, atol=1e-15)
        radius = np.abs(x).sum(axis=0).max()
        # the slack only absorbs eigvalsh's rounding where the two are equal (n_max 2)
        assert radius * (1 + 1e-12) >= np.abs(np.linalg.eigvalsh(1j * x)).max()

    @pytest.mark.parametrize("radius", [1e-3, 0.5, 3.0, 23.1, 49.3, 120.0, 400.0])
    def test_bessel_tail_bounds_and_weights(self, radius):
        weights = _bessel_weights(radius)
        order = weights.size - 1
        assert order > radius and _bessel_tail(radius, order) <= SERIES_TAIL
        assert order - 1 <= radius or _bessel_tail(radius, order - 1) > SERIES_TAIL
        j = special.jv(np.arange(order + 400), radius)
        for k in range(math.floor(radius) + 1, order + 5):
            assert _bessel_tail(radius, k) >= 2 * np.abs(j[k + 1:]).sum()
        # the weights are those of exp(-i R y) = sum_k weights_k (-i)^k T_k(y) on [-1, 1];
        # special.jv's weights miss this by 6e-14 at R = 120 and 3e-13 at R = 400
        y = np.linspace(-1, 1, 2001)
        cycle = np.array([1, -1j, -1, 1j])[np.arange(order + 1) % 4]
        series = np.polynomial.chebyshev.chebval(y, weights * cycle)
        assert np.abs(series - np.exp(-1j * radius * y)).max() <= 2e-16 * radius + 1e-15

    def test_zero_and_subnormal_exponents(self):
        zero = PolarParam.from_value(0)
        kappa = PolarParam.from_polar(0.4, 0.3)
        coeffs = squeeze_pair_exponent_coefficients(0j, 0j, kappa.value)
        _, exp_x, _ = _obstruction_blocks(coeffs, zero, zero, kappa, Cutoff(10), 3)
        np.testing.assert_array_equal(exp_x, np.eye(exp_x.shape[0]))
        # S1(0) S2(0) is the identity too, so both residuals measure U's safe block alone
        rep = squeezed_swap_obstruction(zero, zero, kappa)
        assert rep.residuals["exponent_match"] == rep.residuals["invariance"]
        assert rep.residuals["exponent_match"] <= 1e-13
        assert rep.passed
        # entries below 1e-308: 2/R would overflow, exp(X) is the identity
        tiny = PolarParam.from_value(1e-310)
        rep = squeezed_swap_obstruction(tiny, tiny, kappa)
        assert rep.residuals["exponent_match"] <= 1e-13
        assert rep.passed

    def test_vacuum_block_at_full_margin(self):
        beta1, beta2, kappa = self.GENERIC
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

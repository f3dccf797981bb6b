import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as dense_expm
from scipy.special import betaln, gammaln

from fockforge import (
    Cutoff,
    CutoffWarning,
    Ket,
    PolarParam,
    SpinJ,
    SpinK,
    annihilation,
    coherent,
    coherent_series,
    coherent_with_deficit,
    dagger,
    displacement,
    fidelity,
    make_report,
    occupation_expectations,
    perelomov_su2,
    perelomov_su11,
    phase_rotation,
    squeeze,
    su2_generators,
    su11_adequate_cutoff,
    su11_generators,
    vacuum,
)
from fockforge.config import PERELOMOV_AMPLITUDE_BOUND
from fockforge.fock import safe_indices
from second_routes import number_state, squeezed_coherent

RNG = np.random.default_rng(41)


def random_param(max_modulus, rng=RNG):
    return PolarParam.from_polar(
        rng.uniform(0.05, max_modulus), rng.uniform(-math.pi, math.pi)
    )


class TestNumberState:
    def test_vacuum(self):
        k = number_state(0, Cutoff(4))
        np.testing.assert_array_equal(k.amplitudes, [1, 0, 0, 0, 0])

    def test_orthonormality(self):
        c = Cutoff(6)
        states = [number_state(n, c).amplitudes for n in range(c.dim)]
        gram = np.array([[np.vdot(x, y) for y in states] for x in states])
        np.testing.assert_array_equal(gram, np.eye(c.dim))

    def test_resolution_of_identity(self):
        c = Cutoff(5)
        total = sum(
            np.outer(number_state(n, c).amplitudes, number_state(n, c).amplitudes.conj())
            for n in range(c.dim)
        )
        np.testing.assert_array_equal(total, np.eye(c.dim))

    def test_ladder_recursion_oracle(self):
        # |n> = (a†)^n / sqrt(n!) |0>
        c = Cutoff(7)
        ad = dagger(annihilation(c)).entries
        vec = np.zeros(c.dim, dtype=complex)
        vec[0] = 1.0
        for n in range(c.dim):
            target = number_state(n, c).amplitudes
            assert np.abs(vec / math.sqrt(math.factorial(n)) - target).max() < 1e-12
            vec = ad @ vec

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            number_state(5, Cutoff(4))


class TestDisplacement:
    def test_zero_is_identity(self):
        d = displacement(PolarParam.from_value(0), Cutoff(8))
        np.testing.assert_array_equal(d.entries, np.eye(9))

    def test_unitary(self):
        d = displacement(PolarParam.from_value(0.7 - 0.2j), Cutoff(30)).entries
        assert np.linalg.norm(d.conj().T @ d - np.eye(31), "fro") < 1e-10

    def test_matches_series_oracle(self):
        c = Cutoff(40)
        for _ in range(8):
            alpha = random_param(2.0)
            built = displacement(alpha, c).apply(vacuum(c)).amplitudes
            series = coherent_series(alpha, c).amplitudes
            assert np.abs(built - series).max() < 1e-10

    @pytest.mark.parametrize("modulus", [1e20, 1e150])
    def test_rejects_amplitude_whose_phases_a_float_cannot_resolve(self, modulus):
        # the chain would return a finite, unitary, meaningless matrix here
        with pytest.raises(ValueError, match="a float cannot resolve the chain phases"):
            displacement(PolarParam.from_value(modulus), Cutoff(10))

    def test_full_support_for_nonzero_alpha(self):
        amps = coherent(PolarParam.from_value(1.0), Cutoff(25)).amplitudes
        assert np.all(np.abs(amps) > 0)


class TestCoherent:
    def test_zero_gives_vacuum(self):
        k = coherent(PolarParam.from_value(0), Cutoff(5))
        np.testing.assert_array_equal(k.amplitudes, vacuum(Cutoff(5)).amplitudes)

    def test_overlap_formula(self):
        c = Cutoff(40)
        for _ in range(6):
            a, b = random_param(1.8), random_param(1.8)
            ka, kb = coherent(a, c), coherent(b, c)
            overlap = np.vdot(ka.amplitudes, kb.amplitudes)
            predicted = np.exp(
                -(abs(a.value) ** 2 + abs(b.value) ** 2) / 2 + np.conj(a.value) * b.value
            )
            assert abs(overlap - predicted) < 1e-8

    def test_eigenvector_property(self):
        c = Cutoff(40)
        alpha = PolarParam.from_value(1.1 + 0.4j)
        k = coherent(alpha, c)
        image = annihilation(c).entries @ k.amplitudes
        keep = safe_indices(c, 1)
        gap = (image - alpha.value * k.amplitudes)[keep]
        assert np.linalg.norm(gap) < 1e-8

    def test_deficit_reported(self):
        with pytest.warns(CutoffWarning):
            _, deficit = coherent_with_deficit(PolarParam.from_value(2.0), Cutoff(8))
        assert deficit > 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 8.0), st.floats(-math.pi, math.pi), st.integers(1, 128))
    def test_matches_truncated_dense_exponential(self, modulus, phase, n_max):
        # second route: column 0 of one dense exponential of alpha a† - conj(alpha) a,
        # at cutoffs below the tail rule too; the worst of 10680 draws was 6.2e-15
        alpha = PolarParam.from_polar(modulus, phase)
        cut = Cutoff(n_max)
        a = annihilation(cut).entries
        column = dense_expm(alpha.value * a.conj().T - alpha.conj * a)[:, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffWarning)
            got = coherent(alpha, cut).amplitudes
        assert np.abs(got - column / np.linalg.norm(column)).max() <= 2e-14

    @pytest.mark.parametrize("value", [1e-300, 1.0, 2.5, 8.0])
    def test_positive_amplitude_gives_real_state(self, value):
        # exactly real, as the dense exponential of a real generator is: np.kron of
        # a real and a complex ket then commutes bit for bit (test_universal_swap)
        amps = coherent(PolarParam.from_value(value), Cutoff(40)).amplitudes
        assert not amps.imag.any()


class TestSqueeze:
    def test_zero_is_identity(self):
        s = squeeze(PolarParam.from_value(0), Cutoff(8))
        np.testing.assert_array_equal(s.entries, np.eye(9))

    def test_vacuum_output_is_even(self):
        s = squeeze(PolarParam.from_value(0.6 + 0.3j), Cutoff(31))
        amps = s.apply(vacuum(Cutoff(31))).amplitudes
        assert np.abs(amps[1::2]).max() <= 1e-12

    def test_adjoint_negates_argument(self):
        c = Cutoff(24)
        z = PolarParam.from_value(0.4 - 0.5j)
        s = squeeze(z, c)
        s_neg = squeeze(PolarParam.from_value(-z.value), c)
        assert np.abs(dagger(s).entries - s_neg.entries).max() < 1e-10

    def test_rejects_parameter_whose_phases_a_float_cannot_resolve(self):
        with pytest.raises(ValueError, match="a float cannot resolve the chain phases"):
            squeeze(PolarParam.from_value(1e12), Cutoff(20))

    @pytest.mark.parametrize("z", [PolarParam.from_polar(0.6, 0.9), PolarParam.from_polar(0.8, -2.4)])
    def test_squeezed_vacuum_oracle(self, z):
        # S(z)|0> = (cosh r)^{-1/2} sum_n (e^{i phi} tanh r)^n sqrt((2n)!)/(2^n n!) |2n>,
        # r = |z|, phi = arg z.  The sign is +: at z = 0.6@0.9 the factor
        # -e^{i phi} tanh r misses column 0 by 0.70.  The whole column is
        # compared, so r stays where the truncation at n = 144 is below 1e-13
        # (at r = 1 it moves the last amplitude by 4e-10, dense expm alike).
        cut = Cutoff(144)
        r = z.modulus
        n = np.arange(cut.n_max // 2 + 1)
        log_mag = 0.5 * gammaln(2 * n + 1) - n * math.log(2) - gammaln(n + 1)
        want = np.zeros(cut.dim, dtype=complex)
        want[2 * n] = (np.exp(1j * z.phase) * math.tanh(r)) ** n * np.exp(log_mag)
        want /= math.sqrt(math.cosh(r))
        column = squeeze(z, cut).entries[:, 0]
        assert np.abs(column - want).max() <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(-math.pi, math.pi), st.integers(1, 20))
    def test_matches_unsplit_exponential(self, modulus, phase, n_max):
        # second route: one dense exponential of (z a†² - conj(z) a²)/2 across both
        # parity chains; moduli run past the two-mode cosh guard at acosh 3 = 1.76,
        # and n_max = 1 makes both chains single levels
        z = PolarParam.from_polar(modulus, phase)
        cut = Cutoff(n_max)
        a = annihilation(cut).entries
        ad = a.conj().T
        gen = 0.5 * (z.value * (ad @ ad) - z.conj * (a @ a))
        assert np.abs(squeeze(z, cut).entries - dense_expm(gen)).max() <= 1e-13


class TestPerelomovSu2:
    def test_zero_gives_lowest_weight(self):
        k = perelomov_su2(PolarParam.from_value(0), SpinJ(3))
        np.testing.assert_array_equal(k.amplitudes, [1, 0, 0, 0])

    def test_spin_half_closed_form(self):
        # 2x2 exponential in closed form: (cos|z|, (z/|z|) sin|z|)
        for _ in range(6):
            z = random_param(1.5)
            k = perelomov_su2(z, SpinJ(1))
            expected = np.array(
                [math.cos(z.modulus), (z.value / z.modulus) * math.sin(z.modulus)]
            )
            assert np.abs(k.amplitudes - expected).max() < 1e-12

    @pytest.mark.parametrize("two_j", range(1, 9))
    def test_exactly_normalized(self, two_j):
        z = random_param(2.5)
        k = perelomov_su2(z, SpinJ(two_j))
        assert abs(k.norm - 1.0) < 1e-12

    @pytest.mark.parametrize("two_j", [1030, 2000, 5000])
    def test_large_spin_stays_finite_and_normalized(self, two_j):
        # C(2J, n) overflows a float past 2J = 1029; the amplitudes must not
        k = perelomov_su2(PolarParam.from_polar(0.7, 0.4), SpinJ(two_j))
        assert np.all(np.isfinite(k.amplitudes))
        assert abs(k.norm - 1.0) <= 1e-12


class TestPerelomovSu11:
    def test_zero_gives_lowest_weight(self):
        k = perelomov_su11(PolarParam.from_value(0), SpinK(Fraction(1, 2), Cutoff(6)))
        np.testing.assert_array_equal(k.amplitudes, [1, 0, 0, 0, 0, 0, 0])

    def test_quarter_spin_matches_squeezed_vacuum(self):
        # the even-occupation half of S(z)|0> is the K=1/4 coherent state
        z = PolarParam.from_polar(0.6, 1.1)
        fock_cut = Cutoff(80)
        spin = SpinK(Fraction(1, 2), Cutoff(40))
        pere = perelomov_su11(z, spin)
        squeezed = squeeze(z, fock_cut).apply(vacuum(fock_cut))
        even = Ket(squeezed.amplitudes[0::2], 1, spin.cutoff)
        assert fidelity(pere, even) >= 1 - 1e-8

    def test_norm_deficit_small_at_adequate_cutoff(self):
        z = PolarParam.from_polar(0.5, 0.0)
        n_needed = su11_adequate_cutoff(z.modulus, 0.5)
        k = perelomov_su11(z, SpinK(Fraction(1, 2), Cutoff(n_needed)))
        assert abs(k.norm - 1.0) <= 1e-8

    def test_warns_when_cutoff_too_small(self):
        with pytest.warns(CutoffWarning):
            perelomov_su11(PolarParam.from_polar(0.9, 0.0), SpinK(Fraction(1, 2), Cutoff(4)))

    @pytest.mark.parametrize("modulus", [0.3, 0.6, 1.0, 2.0])
    @pytest.mark.parametrize("two_k", [Fraction(1, 2), Fraction(4)])
    def test_adequate_cutoff_is_minimal(self, two_k, modulus):
        # the boundary amplitude, prefactor included, is below the bound at
        # the adequate cutoff and not one level lower
        n_max = su11_adequate_cutoff(modulus, float(two_k))
        amps = np.abs(perelomov_su11(PolarParam.from_polar(modulus, 0.4),
                                     SpinK(two_k, Cutoff(n_max))).amplitudes)
        assert amps[-1] < PERELOMOV_AMPLITUDE_BOUND <= amps[-2]

    @pytest.mark.parametrize("two_k", [0.5, 4.0])
    def test_adequate_cutoff_keeps_its_digits_near_tanh_one(self, two_k):
        # at |z| = 15 the cutoff is ~1e14, where log(Gamma(2K+n) / n!) is
        # (2K-1) log n to 1e-13: an independent route to the boundary amplitude
        n_max = su11_adequate_cutoff(15.0, two_k)
        log_amp = (
            0.5 * ((two_k - 1) * math.log(n_max) - gammaln(two_k))
            - two_k * math.log(math.cosh(15.0))
            + n_max * math.log(math.tanh(15.0))
        )
        assert abs(log_amp - math.log(PERELOMOV_AMPLITUDE_BOUND)) < 1e-6

    @pytest.mark.parametrize("two_k", [300, 600])
    def test_large_spin_stays_finite_and_normalized(self, two_k):
        # C(2K - 1 + n, n) overflows a float here; the tail past n_max 3000 is
        # far below 1e-12
        k = perelomov_su11(PolarParam.from_polar(0.5, 0.4), SpinK(two_k, Cutoff(3000)))
        assert np.all(np.isfinite(k.amplitudes))
        assert abs(k.norm - 1.0) <= 1e-12

    @pytest.mark.parametrize("two_k", [0.5, 1.0, 1.5, 4.0])
    def test_adequate_cutoff_matches_beta_function_route(self, two_k):
        # the same bisection on log C(2K - 1 + n, n) = -log(2K + n) - log B(2K, n + 1);
        # past |z| ~ 15 one ulp of the log moves the crossing by 1e-15 of n
        log_bound = math.log(PERELOMOV_AMPLITUDE_BOUND)
        for z_abs in np.linspace(0.05, 19.0, 80):
            rate, log_sech = math.log(math.tanh(z_abs)), -math.log(math.cosh(z_abs))

            def below(n):
                log_binom = -math.log(two_k + n) - betaln(two_k, n + 1)
                return 0.5 * log_binom + two_k * log_sech + n * rate < log_bound

            lo = max(0, math.ceil(two_k * math.sinh(z_abs) ** 2 - math.cosh(z_abs) ** 2))
            hi = lo + 1
            while not below(hi):
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if below(mid) else (mid, hi)
            got = su11_adequate_cutoff(z_abs, two_k)
            if z_abs <= 15.0:
                assert got == hi
            else:
                assert got == pytest.approx(hi, rel=1e-14)

    def test_unresolvable_modulus_is_value_error(self):
        # tanh|z| rounds to 1.0 past |z| ~ 19.06, so no cutoff is adequate
        with pytest.raises(ValueError, match=r"\|z\| = 19\.5"):
            su11_adequate_cutoff(19.5, 4.0)
        with pytest.raises(ValueError, match=r"\|z\| = 19\.5"):
            perelomov_su11(PolarParam.from_value(19.5), SpinK(Fraction(4), Cutoff(10)))


def _dense_lowest_weight_orbit(triple, z: PolarParam) -> np.ndarray:
    """Column 0 of one unsplit dense exp(z X+ - conj(z) X-)."""
    return dense_expm(z.value * triple.plus.entries - z.conj * triple.minus.entries)[:, 0]


def _su11_closed_form_gap(z: PolarParam, two_k: Fraction, scale: float = 1.0) -> float:
    """Worst gap over the first 40 amplitudes between the closed form at
    scale |z| and the dense route at |z|.  The dense route is truncated 40
    levels past su11_adequate_cutoff: truncated there, where the boundary
    amplitude is just under 1e-10, it is off by up to 3e-11."""
    spin = SpinK(two_k, Cutoff(su11_adequate_cutoff(z.modulus, float(two_k)) + 40))
    want = _dense_lowest_weight_orbit(su11_generators(spin), z)[:40]
    got = perelomov_su11(PolarParam.from_polar(scale * z.modulus, z.phase), spin)
    return float(np.abs(got.amplitudes[:40] - want).max())


def _su2_closed_form_gap(z: PolarParam, two_j: int, scale: float = 1.0) -> float:
    want = _dense_lowest_weight_orbit(su2_generators(SpinJ(two_j)), z)
    got = perelomov_su2(PolarParam.from_polar(scale * z.modulus, z.phase), SpinJ(two_j))
    return float(np.abs(got.amplitudes - want).max())


class TestPerelomovClosedForms:
    """The closed-form generalized coherent states against the dense route."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.floats(0.0, 3.0), st.floats(-math.pi, math.pi))
    def test_su2_matches_dense_expm(self, two_j, modulus, phase):
        assert _su2_closed_form_gap(PolarParam.from_polar(modulus, phase), two_j) <= 1e-13

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(4)]),
        st.floats(0.0, 1.5),
        st.floats(-math.pi, math.pi),
    )
    def test_su11_matches_dense_expm(self, two_k, modulus, phase):
        assert _su11_closed_form_gap(PolarParam.from_polar(modulus, phase), two_k) <= 1e-13

    @pytest.mark.parametrize("modulus", [0.4, 1.3, 2.5])
    def test_su2_scaled_modulus_fails(self, modulus):
        z = PolarParam.from_polar(modulus, 0.7)
        for two_j in (1, 4, 30):
            assert _su2_closed_form_gap(z, two_j, scale=1.01) > 1e-6

    @pytest.mark.parametrize("modulus", [0.2, 0.9, 1.5])
    def test_su11_scaled_modulus_fails(self, modulus):
        z = PolarParam.from_polar(modulus, 0.7)
        for two_k in (Fraction(1, 2), Fraction(4)):
            assert _su11_closed_form_gap(z, two_k, scale=1.01) > 1e-6


class TestSqueezedCoherent:
    def test_double_zero_gives_vacuum(self):
        k = squeezed_coherent(
            PolarParam.from_value(0), PolarParam.from_value(0), Cutoff(6)
        )
        np.testing.assert_array_equal(k.amplitudes, vacuum(Cutoff(6)).amplitudes)

    def test_reduces_to_squeezed_state(self):
        c = Cutoff(30)
        beta = PolarParam.from_value(0.5 + 0.1j)
        lhs = squeezed_coherent(beta, PolarParam.from_value(0), c)
        rhs = squeeze(beta, c).apply(vacuum(c))
        assert fidelity(lhs, rhs) >= 1 - 1e-12

    def test_reduces_to_coherent_state(self):
        c = Cutoff(30)
        alpha = PolarParam.from_value(0.8)
        lhs = squeezed_coherent(PolarParam.from_value(0), alpha, c)
        assert fidelity(lhs, coherent(alpha, c)) >= 1 - 1e-12

    def test_unit_norm(self):
        c = Cutoff(40)
        k = squeezed_coherent(
            PolarParam.from_value(0.4 + 0.2j), PolarParam.from_value(0.9 - 0.3j), c
        )
        assert abs(k.norm - 1.0) <= 1e-10


class TestFidelity:
    def test_self_fidelity(self):
        k = coherent(PolarParam.from_value(0.5), Cutoff(20))
        assert fidelity(k, k) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        c = Cutoff(4)
        assert fidelity(number_state(0, c), number_state(1, c)) == 0.0

    def test_coherent_pair_formula(self):
        c = Cutoff(40)
        for _ in range(6):
            a, b = random_param(1.6), random_param(1.6)
            f = fidelity(coherent(a, c), coherent(b, c))
            assert abs(f - math.exp(-abs(a.value - b.value) ** 2)) < 1e-8

    def test_nan_amplitude_gives_nan_not_one(self):
        amps = np.array([1.0, math.nan, 0.0, 0.0], dtype=complex)
        f = fidelity(Ket(amps, 1, Cutoff(3)), vacuum(Cutoff(3)))
        assert math.isnan(f)
        report = make_report("nan_state", (), Cutoff(3), 0, {}, {"state": f}, 1e-6)
        assert not report.passed

    def test_rejects_mismatch_and_zero(self):
        with pytest.raises(ValueError):
            fidelity(vacuum(Cutoff(3)), vacuum(Cutoff(4)))
        with pytest.raises(ValueError):
            fidelity(
                Ket(np.zeros(4, dtype=complex), 1, Cutoff(3)), vacuum(Cutoff(3))
            )


class TestOccupations:
    def test_single_mode_mean(self):
        c = Cutoff(30)
        alpha = PolarParam.from_value(1.2)
        (n,) = occupation_expectations(coherent(alpha, c))
        assert n == pytest.approx(1.44, abs=1e-8)

    def test_two_mode_means(self):
        from fockforge import tensor_ket

        c = Cutoff(25)
        k = tensor_ket(coherent(PolarParam.from_value(1.0), c), vacuum(c))
        n1, n2 = occupation_expectations(k)
        assert n1 == pytest.approx(1.0, abs=1e-8)
        assert n2 == pytest.approx(0.0, abs=1e-12)


class TestPhaseRotation:
    def test_diagonal_and_exact(self):
        c = Cutoff(10)
        v = phase_rotation(0.7, c).entries
        assert np.count_nonzero(v - np.diag(np.diag(v))) == 0
        np.testing.assert_array_equal(np.diag(v), np.exp(1j * 0.7 * np.arange(11)))

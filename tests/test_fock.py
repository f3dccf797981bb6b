import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm
from scipy.special import gammainc

from fockforge import (
    Cutoff,
    CutoffWarning,
    Ket,
    Operator,
    PolarParam,
    adequate_cutoff,
    annihilation,
    dagger,
    expm,
    identity,
    number,
    poisson_tail,
    tensor,
    tensor_ket,
)
from fockforge.fock import _expm_array, safe_indices
from fockforge.states import displacement, phase_rotation
from second_routes import conjugate_by, residual, safe_projector


parts = st.floats(-1e307, 1e307)


def series_expm(g: np.ndarray, terms: int = 60) -> np.ndarray:
    """Power-series oracle: scale the argument until plain Taylor converges."""
    norm = np.linalg.norm(g, 2)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    scaled = g / 2.0 ** squarings
    out = np.eye(g.shape[0], dtype=complex)
    term = np.eye(g.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


class TestCutoff:
    def test_dimension(self):
        assert Cutoff(5).dim == 6

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            Cutoff(0)


class TestPolarParam:
    def test_roundtrip(self):
        p = PolarParam.from_value(0.3 - 0.4j)
        assert p.modulus == pytest.approx(0.5)
        assert abs(p.value - p.modulus * np.exp(1j * p.phase)) < 1e-15

    def test_zero_modulus_forces_zero_phase(self):
        p = PolarParam.from_polar(0.0, 2.3)
        assert p.phase == 0.0 and p.value == 0.0

    def test_inconsistent_rejected(self):
        with pytest.raises(ValueError):
            PolarParam(1.0 + 0j, 2.0, 0.0)

    @pytest.mark.parametrize(
        "text,value",
        [
            ("1,0", 1.0 + 0j),
            ("0,1", 1j),
            ("-0.5,0.25", -0.5 + 0.25j),
            ("2@0", 2.0 + 0j),
            ("1@3.141592653589793", -1.0 + 0j),
            ("1.5", 1.5 + 0j),
        ],
    )
    def test_parse(self, text, value):
        assert PolarParam.parse(text).value == pytest.approx(value)

    # 1.7e308,1.7e308: both parts are finite, but the modulus overflows
    @pytest.mark.parametrize("text", ["nan,0", "1,inf", "inf@0", "1@nan", "1e400", "1.7e308,1.7e308"])
    def test_parse_rejects_non_finite(self, text):
        with pytest.raises(ValueError, match="non-finite"):
            PolarParam.parse(text)

    # parts up to 1e307 keep the modulus finite; the overflow is a case above.
    # The example's angle underflows, which cmath.phase turned into a crash.
    @given(parts, parts)
    @example(6.597382799517139e163, 1.6297700968526833e-160)
    def test_parse_cartesian_roundtrip(self, re, im):
        p = PolarParam.parse(f"{re!r},{im!r}")
        assert p.value == complex(re, im)
        assert PolarParam.parse(f"{p.modulus!r}@{p.phase!r}").value == pytest.approx(p.value, rel=1e-15)

    @given(st.floats(0.0, 1e300), st.floats(-math.pi, math.pi, exclude_min=True))
    def test_parse_polar_roundtrip(self, modulus, phase):
        p = PolarParam.parse(f"{modulus!r}@{phase!r}")
        assert p.modulus == modulus
        assert p.phase == (phase if modulus > 0 else 0.0)
        again = PolarParam.parse(f"{p.value.real!r},{p.value.imag!r}")
        assert again.value == p.value


class TestLadders:
    def test_annihilation_entries(self):
        a = annihilation(Cutoff(2)).entries
        expected = np.array([[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]])
        np.testing.assert_allclose(a, expected)

    def test_annihilation_kills_vacuum(self):
        a = annihilation(Cutoff(5))
        vac = np.zeros(6)
        vac[0] = 1.0
        assert np.all(a.entries @ vac == 0)

    def test_creation_entries(self):
        ad = dagger(annihilation(Cutoff(2))).entries
        assert ad[1, 0] == 1.0 and ad[2, 1] == pytest.approx(math.sqrt(2))

    def test_dagger_involution(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        op = Operator(m, 1, Cutoff(4))
        np.testing.assert_array_equal(dagger(dagger(op)).entries, op.entries)

    def test_number_diagonal(self):
        n = number(Cutoff(2)).entries
        np.testing.assert_allclose(n, np.diag([0.0, 1.0, 2.0]))

    def test_number_is_adjoint_product(self):
        # (sqrt(n))^2 rounds in IEEE, so "equality" means machine precision
        c = Cutoff(7)
        a = annihilation(c)
        diff = (dagger(a) @ a).entries - number(c).entries
        assert np.abs(diff).max() < 1e-14

    def test_number_hermitian(self):
        n = number(Cutoff(6))
        np.testing.assert_array_equal(dagger(n).entries, n.entries)

    def test_ladder_structure(self):
        a = annihilation(Cutoff(8)).entries
        assert np.all(a == np.triu(a, 1))
        assert np.count_nonzero(a - np.diag(np.diag(a, 1), 1)) == 0

    def test_ccr_bulk_and_corner(self):
        for n_max in (2, 5, 9):
            c = Cutoff(n_max)
            a = annihilation(c)
            comm = a @ dagger(a) - dagger(a) @ a
            assert residual(comm, identity(c), 1) < 5e-15
            # commutator corner is -n_max, so the defect against I is -(n_max+1)
            assert comm.entries[n_max, n_max] == pytest.approx(-n_max)
            assert residual(comm, identity(c), 0) == pytest.approx(n_max + 1)


class TestTensor:
    def test_identity_tensor(self):
        c = Cutoff(3)
        np.testing.assert_array_equal(
            tensor(identity(c), identity(c)).entries, np.eye(16)
        )

    def test_stacking_order(self):
        # composite index (i, j) -> i*dim + j, first factor major
        c = Cutoff(1)
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        k = tensor_ket(Ket(e1, 1, c), Ket(e0, 1, c))
        np.testing.assert_array_equal(k.amplitudes, [0, 0, 1, 0])

    def test_mode_commutators(self):
        c = Cutoff(4)
        a = annihilation(c)
        a1 = tensor(a, identity(c))
        a2 = tensor(identity(c), a)
        comm = a1 @ dagger(a2) - dagger(a2) @ a1
        assert np.abs(comm.entries).max() == 0.0

    def test_tensor_coherence(self):
        rng = np.random.default_rng(3)
        c = Cutoff(3)
        ops = [
            Operator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), 1, c)
            for _ in range(4)
        ]
        a, b, x, y = ops
        lhs = (tensor(a, b) @ tensor(x, y)).entries
        rhs = tensor(a @ x, b @ y).entries
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_cutoff_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tensor(identity(Cutoff(2)), identity(Cutoff(3)))


class TestExpm:
    def test_zero_gives_identity(self):
        c = Cutoff(4)
        z = Operator(np.zeros((5, 5), dtype=complex), 1, c)
        np.testing.assert_array_equal(expm(z).entries, np.eye(5))

    def test_two_mode_zero_generator_is_exact_identity(self):
        # every level of a zero generator is its own sector; unsplit, the
        # dense exponential must still return the identity exactly
        c = Cutoff(6)
        zero = np.zeros((c.dim ** 2, c.dim ** 2), dtype=complex)
        np.testing.assert_array_equal(_expm_array(zero), np.eye(c.dim ** 2))
        np.testing.assert_array_equal(expm(Operator(zero, 2, c)).entries, np.eye(c.dim ** 2))

    def test_non_finite_exponential_is_rejected(self):
        # e^1000 overflows a float; the NaN or inf must not reach a state
        g = np.diag([1000.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="non-finite"):
            _expm_array(g)
        with pytest.raises(ValueError, match="non-finite"):
            expm(Operator(g, 1, Cutoff(1)))

    def test_diagonal_phase(self):
        c = Cutoff(2)
        g = Operator(1j * math.pi * np.diag([0.0, 1.0, 2.0]).astype(complex), 1, c)
        np.testing.assert_allclose(expm(g).entries, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_against_series_oracle(self):
        rng = np.random.default_rng(11)
        for dim in (3, 8, 16):
            c = Cutoff(dim - 1)
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            got = expm(Operator(m, 1, c)).entries
            want = series_expm(m)
            assert np.linalg.norm(got - want, 2) < 1e-12 * np.linalg.norm(want, 2)

    def test_blocked_path_matches_dense(self):
        # a generator with two decoupled sectors, exponentiated in one piece
        rng = np.random.default_rng(5)
        blocks = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2)]
        g = np.zeros((8, 8), dtype=complex)
        perm = rng.permutation(8)
        idx0, idx1 = perm[:4], perm[4:]
        g[np.ix_(idx0, idx0)] = blocks[0]
        g[np.ix_(idx1, idx1)] = blocks[1]
        got = expm(Operator(g, 1, Cutoff(7))).entries
        want = series_expm(g)
        assert np.linalg.norm(got - want, 2) < 1e-12 * np.linalg.norm(want, 2)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 30),
        st.floats(-3.0, 3.0),
        st.floats(0.0, 4.0),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_scipy_expm(self, dim, log_norm, skew, seed):
        # a Gaussian matrix with its strictly upper triangle weighted up to 1e4
        # times, scaled to a 1-norm of 1e-3 to 1e3; 1e-10 is 25 times the worst
        # gap in 10000 such draws
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        g = g + 10.0**skew * np.triu(g, 1)
        g *= 10.0**log_norm / np.linalg.norm(g, 1)
        want = scipy_expm(g)
        assume(np.all(np.isfinite(want)))  # a real eigenvalue past 709 overflows
        got = _expm_array(g)
        assert np.linalg.norm(got - want, 1) <= 1e-10 * np.linalg.norm(want, 1)

    def test_unitarity_of_antihermitian_exponentials(self):
        rng = np.random.default_rng(7)
        c = Cutoff(20)
        a = annihilation(c)
        for _ in range(5):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            gen = z * dagger(a) - np.conj(z) * a
            u = expm(gen).entries
            assert np.linalg.norm(u.conj().T @ u - np.eye(c.dim), "fro") < 1e-10

    def test_rejects_nonfinite(self):
        c = Cutoff(2)
        bad = np.zeros((3, 3), dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            expm(Operator(bad, 1, c))


class TestConjugateBy:
    def test_identity_conjugation(self):
        c = Cutoff(5)
        a = annihilation(c)
        np.testing.assert_array_equal(conjugate_by(identity(c), a).entries, a.entries)

    def test_conjugate_identity(self):
        c = Cutoff(5)
        u = phase_rotation(0.7, c)
        got = conjugate_by(u, identity(c)).entries
        assert np.abs(got - np.eye(c.dim)).max() < 1e-12

    def test_number_phase_rotates_annihilation(self):
        # exp(itN) a exp(-itN) = e^{-it} a, exact under truncation
        c = Cutoff(12)
        t = 0.9
        got = conjugate_by(phase_rotation(t, c), annihilation(c))
        want = np.exp(-1j * t) * annihilation(c).entries
        assert np.abs(got.entries - want).max() < 1e-13

    def test_rejects_nonunitary(self):
        c = Cutoff(3)
        with pytest.raises(ValueError):
            conjugate_by(2.0 * identity(c), annihilation(c))


class TestSafeProjector:
    def test_margin_zero_is_identity(self):
        c = Cutoff(6)
        np.testing.assert_array_equal(safe_projector(c, 0).entries, np.eye(7))

    def test_full_margin_keeps_vacuum(self):
        c = Cutoff(6)
        p = safe_projector(c, 6).entries
        assert p[0, 0] == 1.0 and np.count_nonzero(p) == 1

    def test_margin_bounds(self):
        with pytest.raises(ValueError):
            safe_projector(Cutoff(4), 5)
        with pytest.raises(ValueError):
            safe_projector(Cutoff(4), -1)

    def test_two_mode_total_occupation(self):
        c = Cutoff(3)
        idx = safe_indices(c, 1, modes=2)
        kept = {(int(i) // 4, int(i) % 4) for i in idx}
        assert kept == {(i, j) for i in range(4) for j in range(4) if i + j <= 2}


class TestResidual:
    def test_self_residual_zero(self):
        c = Cutoff(5)
        a = annihilation(c)
        for margin in (0, 2, 5):
            assert residual(a, a, margin) == 0.0

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(2)
        c = Cutoff(5)
        ops = [
            Operator(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), 1, c)
            for _ in range(3)
        ]
        a, b, x = ops
        assert residual(a, b, 1) == pytest.approx(residual(b, a, 1))
        assert residual(a, x, 1) <= residual(a, b, 1) + residual(b, x, 1) + 1e-12

    def test_margin_monotone(self):
        rng = np.random.default_rng(4)
        c = Cutoff(8)
        a = Operator(rng.standard_normal((9, 9)).astype(complex), 1, c)
        b = Operator(rng.standard_normal((9, 9)).astype(complex), 1, c)
        values = [residual(a, b, m) for m in range(0, 9)]
        assert all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))

    def test_phase_rotation_of_displacement(self):
        c = Cutoff(30)
        alpha = PolarParam.from_value(0.8 + 0.3j)
        t = 1.3
        lhs = conjugate_by(phase_rotation(t, c), displacement(alpha, c))
        rhs = displacement(PolarParam.from_value(np.exp(1j * t) * alpha.value), c)
        assert residual(lhs, rhs, 0) <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            residual(identity(Cutoff(2)), identity(Cutoff(3)), 0)


class TestTailRule:
    def test_tail_monotone_in_cutoff(self):
        tails = [poisson_tail(1.5, n) for n in range(2, 30)]
        assert all(t2 <= t1 for t1, t2 in zip(tails, tails[1:]))

    def test_adequate_cutoff_meets_bound(self):
        for alpha in (0.5, 1.0, 2.0):
            n = adequate_cutoff(alpha)
            assert poisson_tail(alpha, n) < 1e-12
            assert poisson_tail(alpha, n - 1) >= 1e-12

    def test_displacement_warns_when_inadequate(self):
        with pytest.warns(CutoffWarning):
            displacement(PolarParam.from_value(3.0), Cutoff(4))

    # perfbench's ladder of protocol amplitudes, 2.0 to 4.5
    LADDER = [2.0 + k / 8 for k in range(9)] + [3.25, 3.5, 3.75, 4.5]

    @pytest.mark.parametrize(
        "alpha",
        [0.0, 1e-150, 1e-3, 0.5, 1.0, *LADDER, 10.0, 30.0, 316.0, 1e20, 1e75, 1e150, 1e200],
    )
    def test_tail_matches_regularized_gamma(self, alpha):
        # scipy's gammainc(n + 1, lam) is the second route; past lam ~ 1e6 near
        # the mode it loses digits itself, so those n are left out
        lam = alpha * alpha
        ns = {0, 1, 2, 5, 10, 30, 100, 1000, 10**5}
        if lam <= 1e6:
            ns |= {max(0, int(lam + c * math.sqrt(lam))) for c in range(-10, 21)}
        for n in sorted(ns):
            want = float(gammainc(n + 1, lam)) if lam else 0.0
            got = poisson_tail(alpha, n)
            assert (got >= 1e-12) == (want >= 1e-12)
            assert got == pytest.approx(want, rel=2e-12, abs=1e-300)

    @pytest.mark.parametrize("alpha", [k / 20 for k in range(121)] + LADDER)
    def test_adequate_cutoff_matches_regularized_gamma(self, alpha):
        n = max(1, math.ceil(alpha * alpha))
        while gammainc(n + 1, alpha * alpha) >= 1e-12:
            n += 1
        assert adequate_cutoff(alpha) == n


class TestKet:
    def test_normalized_flag_validated(self):
        with pytest.raises(ValueError):
            Ket(np.array([2.0, 0.0], dtype=complex), 1, Cutoff(1), normalized=True)

    def test_normalize(self):
        k = Ket(np.array([3.0, 4.0], dtype=complex), 1, Cutoff(1)).normalize()
        assert k.norm == pytest.approx(1.0)
        assert k.normalized

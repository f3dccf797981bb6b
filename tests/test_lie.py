import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as dense_expm

import fockforge.lie
from fockforge import (
    Cutoff,
    Ket,
    LieTriple,
    Operator,
    PolarParam,
    SpinJ,
    SpinK,
    beamsplitter_UJ,
    schwinger_su2,
    schwinger_su11,
    single_mode_su11,
    su2_generators,
    su11_generators,
)
from fockforge.cli import RunConfig, _lie_reports, main
from fockforge.config import COSH_GUARD, DEFAULT_TOLERANCES, TAIL_BOUND
from fockforge.fock import annihilation, poisson_tail, safe_indices
from fockforge.lie import (
    apply_sectors,
    safe_rows,
    sector_blocks,
    sector_chains,
    sector_operator,
    solve_each_chain_once,
)
from fockforge.states import coherent_series, vacuum
from second_routes import two_mode_squeezer_UK
from test_acceptance import _closure

BUILDERS = {"su2": (beamsplitter_UJ, schwinger_su2), "su11": (two_mode_squeezer_UK, schwinger_su11)}


def _assembled_rows(chains, cut: Cutoff, keep: np.ndarray) -> np.ndarray:
    """The |keep| x d^2 rows that safe_rows gives chain by chain, as one
    dense array; each chain's rows sit at its own indices, once."""
    pos = np.full(cut.dim ** 2, -1)
    pos[keep] = np.arange(keep.size)
    out = np.zeros((keep.size, cut.dim ** 2), dtype=complex)
    seen = np.zeros(cut.dim ** 2, dtype=bool)
    for at, index, rows in chains:
        assert rows.shape == (at.size, index.size) and not seen[index].any()
        assert np.isin(at, index).all()
        seen[index] = True
        out[np.ix_(pos[at], index)] = rows
    return out


@st.composite
def kappas(draw, algebra):
    """A two-mode unitary parameter; su(1,1) moduli stay inside the cosh guard."""
    top = math.acosh(COSH_GUARD) - 1e-12 if algebra == "su11" else 2 * math.pi
    modulus = draw(st.floats(0.0, top))
    return PolarParam.from_polar(modulus, draw(st.floats(-math.pi, math.pi)))


def closure_residuals(triple, keep):
    """Frobenius norms of the three bracket relations on the kept block."""
    p, m, t = triple.plus.entries, triple.minus.entries, triple.third.entries
    sign = 1.0 if triple.algebra == "su2" else -1.0
    rels = [
        t @ p - p @ t - p,
        t @ m - m @ t + m,
        p @ m - m @ p - sign * 2.0 * t,
    ]
    k = np.asarray(keep)
    return [float(np.linalg.norm(r[np.ix_(k, k)], "fro")) for r in rels]


def wigner_small_d(two_j, beta):
    """d^j_{m'm}(beta) = <j m'|exp(-i beta Jy)|j m> by Wigner's sum formula,
    rows and columns indexed by j + m' and j + m."""
    f = math.factorial
    c, s = math.cos(beta / 2), math.sin(beta / 2)
    d = np.zeros((two_j + 1, two_j + 1))
    for a in range(two_j + 1):
        for b in range(two_j + 1):
            terms = (
                (-1) ** (a - b + k)
                / (f(b - k) * f(k) * f(a - b + k) * f(two_j - a - k))
                * c ** (two_j + b - a - 2 * k)
                * s ** (a - b + 2 * k)
                for k in range(max(0, b - a), min(b, two_j - a) + 1)
            )
            d[a, b] = math.sqrt(f(a) * f(two_j - a) * f(b) * f(two_j - b)) * sum(terms)
    return d


def loop_ladder(dim, coefficient):
    """X+ filled entry by entry, as the generators were first written."""
    plus = np.zeros((dim, dim), dtype=complex)
    for n in range(dim - 1):
        plus[n + 1, n] = math.sqrt(coefficient(n))
    return plus


class TestSu2:
    @pytest.mark.parametrize("two_j", range(1, 9))
    def test_matches_loop_reference_exactly(self, two_j):
        triple = su2_generators(SpinJ(two_j))
        want = loop_ladder(two_j + 1, lambda n: (n + 1) * (two_j - n))
        np.testing.assert_array_equal(triple.plus.entries, want)
        np.testing.assert_array_equal(
            triple.third.entries, np.diag(np.arange(two_j + 1) - two_j / 2).astype(complex)
        )

    def test_spin_half_matrices(self):
        triple = su2_generators(SpinJ(1))
        np.testing.assert_allclose(triple.plus.entries, [[0, 0], [1, 0]])
        np.testing.assert_allclose(triple.third.entries, np.diag([-0.5, 0.5]))

    def test_lowest_weight_annihilated(self):
        triple = su2_generators(SpinJ(5))
        e0 = np.zeros(6)
        e0[0] = 1.0
        assert np.all(triple.minus.entries @ e0 == 0)

    @pytest.mark.parametrize("two_j", range(1, 9))
    def test_closure_exact(self, two_j):
        triple = su2_generators(SpinJ(two_j))
        res = closure_residuals(triple, np.arange(two_j + 1))
        assert max(res) < 1e-12

    @pytest.mark.parametrize("two_j", range(1, 9))
    def test_casimir(self, two_j):
        triple = su2_generators(SpinJ(two_j))
        p, m, t = triple.plus.entries, triple.minus.entries, triple.third.entries
        casimir = t @ t + 0.5 * (p @ m + m @ p)
        j = two_j / 2
        assert np.abs(casimir - j * (j + 1) * np.eye(two_j + 1)).max() < 1e-12

    def test_dagger_pairing(self):
        triple = su2_generators(SpinJ(4))
        np.testing.assert_array_equal(triple.minus.entries, triple.plus.entries.conj().T)


class TestSu11:
    @pytest.mark.parametrize("two_k", [Fraction(1, 2), Fraction(1, 3), Fraction(7, 2)])
    def test_matches_loop_reference_exactly(self, two_k):
        cut = Cutoff(25)
        triple = su11_generators(SpinK(two_k, cut))
        k2 = float(two_k)
        want = loop_ladder(cut.dim, lambda n: (n + 1) * (k2 + n))
        np.testing.assert_array_equal(triple.plus.entries, want)
        np.testing.assert_array_equal(
            triple.third.entries, np.diag(k2 / 2 + np.arange(cut.dim)).astype(complex)
        )

    def test_quarter_spin_first_amplitude(self):
        triple = su11_generators(SpinK(Fraction(1, 2), Cutoff(8)))
        assert triple.plus.entries[1, 0] == pytest.approx(1 / math.sqrt(2))

    def test_lowest_weight_annihilated(self):
        triple = su11_generators(SpinK(Fraction(3, 2), Cutoff(8)))
        e0 = np.zeros(9)
        e0[0] = 1.0
        assert np.all(triple.minus.entries @ e0 == 0)

    @pytest.mark.parametrize("two_k", [Fraction(1, 2), Fraction(3, 2), Fraction(2)])
    def test_closure_on_bulk(self, two_k):
        cut = Cutoff(20)
        triple = su11_generators(SpinK(two_k, cut))
        res = closure_residuals(triple, np.arange(cut.dim - 1))
        assert max(res) < 1e-12

    def test_corner_violation_documented(self):
        # [K+, K-] = -2 K3 fails only at the truncation corner
        cut = Cutoff(10)
        triple = su11_generators(SpinK(Fraction(1, 2), cut))
        res_full = closure_residuals(triple, np.arange(cut.dim))
        assert res_full[2] > 1.0

    def test_rejects_nonpositive_spin(self):
        with pytest.raises(ValueError):
            SpinK(Fraction(0), Cutoff(4))


class TestSchwinger:
    def test_su2_plus_kills_double_vacuum(self):
        triple = schwinger_su2(Cutoff(4))
        vac = np.zeros(25)
        vac[0] = 1.0
        assert np.all(triple.plus.entries @ vac == 0)

    def test_su2_closure_on_bulk(self):
        cut = Cutoff(8)
        triple = schwinger_su2(cut)
        keep = safe_indices(cut, 1, modes=2)
        assert max(closure_residuals(triple, keep)) < 1e-12

    def test_su2_single_excitation_block(self):
        # the total-occupation-1 sector carries spin 1/2: |0,1> is the lowest
        # weight and |1,0> the highest
        cut = Cutoff(3)
        d = cut.dim
        triple = schwinger_su2(cut)
        lo, hi = 0 * d + 1, 1 * d + 0  # (0,1) and (1,0)
        block = np.ix_([lo, hi], [lo, hi])
        ref = su2_generators(SpinJ(1))
        np.testing.assert_allclose(triple.plus.entries[block], ref.plus.entries, atol=1e-12)
        np.testing.assert_allclose(triple.third.entries[block], ref.third.entries, atol=1e-12)

    def test_su11_lowers_nothing_from_vacuum(self):
        triple = schwinger_su11(Cutoff(4))
        vac = np.zeros(25)
        vac[0] = 1.0
        assert np.all(triple.minus.entries @ vac == 0)

    def test_su11_vacuum_weight(self):
        triple = schwinger_su11(Cutoff(4))
        vac = np.zeros(25)
        vac[0] = 1.0
        np.testing.assert_allclose(triple.third.entries @ vac, 0.5 * vac)

    def test_su11_closure_on_bulk(self):
        cut = Cutoff(8)
        triple = schwinger_su11(cut)
        keep = safe_indices(cut, 1, modes=2)
        assert max(closure_residuals(triple, keep)) < 1e-12

    @pytest.mark.parametrize("n_max", [1, 3, 6])
    @pytest.mark.parametrize(
        "builder,realization",
        [(beamsplitter_UJ, schwinger_su2), (two_mode_squeezer_UK, schwinger_su11)],
        ids=["UJ", "UK"],
    )
    def test_two_mode_unitary_is_exponential_of_realization(self, builder, realization, n_max):
        # second route: one dense exponential of kappa X+ - conj(kappa) X- on
        # the whole two-mode space, with no sector splitting
        cut = Cutoff(n_max)
        triple = realization(cut)
        for kappa in (PolarParam.from_polar(0.4, -2.3), PolarParam.from_polar(1.1, 0.9)):
            gen = kappa.value * triple.plus.entries - kappa.conj * triple.minus.entries
            gap = np.abs(builder(kappa, cut).entries - dense_expm(gen)).max()
            assert gap <= 1e-14


class TestSectorKernel:
    @pytest.mark.parametrize("algebra", ["su2", "su11"])
    @pytest.mark.parametrize("n_max", [1, 4, 9])
    def test_chains_partition_the_grid(self, algebra, n_max):
        d = n_max + 1
        seen = np.zeros((d, d), dtype=int)
        for n1, n2, ladder in sector_chains(algebra, Cutoff(n_max)):
            seen[n1, n2] += 1
            assert ladder.size == n1.size - 1
        assert np.all(seen == 1)

    @pytest.mark.parametrize("algebra", ["su2", "su11"])
    def test_zero_is_identity_on_kets(self, algebra):
        amps = np.random.default_rng(5).normal(size=36) + 0j
        ket = Ket(amps, 2, Cutoff(5))
        out = apply_sectors(algebra, PolarParam.from_value(0), ket)
        np.testing.assert_array_equal(out.amplitudes, amps)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["su2", "su11"]).flatmap(lambda alg: st.tuples(st.just(alg), kappas(alg))),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
    )
    def test_ket_application_matches_dense_builder(self, drawn, n_max, seed):
        algebra, kappa = drawn
        cut = Cutoff(n_max)
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=cut.dim ** 2) + 1j * rng.normal(size=cut.dim ** 2)
        builder, _ = BUILDERS[algebra]
        dense = builder(kappa, cut).entries @ amps
        got = apply_sectors(algebra, kappa, Ket(amps, 2, cut)).amplitudes
        assert np.abs(got - dense).max() <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["su2", "su11"]).flatmap(lambda alg: st.tuples(st.just(alg), kappas(alg))),
        st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    )
    def test_safe_rows_match_dense_builder(self, drawn, sizes):
        algebra, kappa = drawn
        n_max, margin = sizes
        cut = Cutoff(n_max)
        keep = safe_indices(cut, margin, modes=2)
        builder, _ = BUILDERS[algebra]
        rows = _assembled_rows(safe_rows(algebra, kappa, cut, keep), cut, keep)
        assert np.abs(rows - builder(kappa, cut).entries[keep]).max() <= 1e-13

    @pytest.mark.parametrize("algebra", ["hw", "su11"])
    @pytest.mark.parametrize("n_max, margin", [(1, 0), (8, 3), (40, 28), (144, 132)])
    def test_single_mode_safe_rows_match_dense_builder(self, algebra, n_max, margin):
        cut = Cutoff(n_max)
        keep = safe_indices(cut, margin, modes=1)
        kappa = PolarParam.from_polar(0.7, -1.2)
        rows = np.zeros((keep.size, cut.dim), dtype=complex)
        for at, index, chain_rows in safe_rows(algebra, kappa, cut, keep, modes=1):
            assert chain_rows.shape == (at.size, index.size) and np.isin(at, index).all()
            rows[np.ix_(at, index)] = chain_rows
        dense = sector_operator(algebra, kappa, cut, modes=1).entries[keep]
        assert np.abs(rows - dense).max() <= 1e-13

    @pytest.mark.parametrize("algebra", ["su2", "su11"])
    @pytest.mark.parametrize("margin", [0, 2, 5])
    def test_safe_rows_at_zero_are_identity_rows(self, algebra, margin):
        cut = Cutoff(5)
        keep = safe_indices(cut, margin, modes=2)
        rows = _assembled_rows(safe_rows(algebra, PolarParam.from_value(0), cut, keep), cut, keep)
        np.testing.assert_array_equal(rows, np.eye(cut.dim ** 2)[keep])

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["su2", "su11"]).flatmap(lambda alg: st.tuples(st.just(alg), kappas(alg))),
        st.integers(1, 8),
    )
    def test_dense_builder_matches_unsplit_exponential(self, drawn, n_max):
        algebra, kappa = drawn
        cut = Cutoff(n_max)
        builder, realization = BUILDERS[algebra]
        triple = realization(cut)
        gen = kappa.value * triple.plus.entries - kappa.conj * triple.minus.entries
        assert np.abs(builder(kappa, cut).entries - dense_expm(gen)).max() <= 1e-13

    @pytest.mark.parametrize("total", [1, 4, 7])
    @pytest.mark.parametrize("kappa", [PolarParam.from_polar(0.7, 0.0), PolarParam.from_polar(1.3, -2.1)])
    def test_beamsplitter_block_is_wigner_small_d(self, total, kappa):
        # sector N = n1 + n2 carries spin J = N/2 with m = n1 - J, and
        # U_J = e^{i phi J3} exp(|k|(J+ - J-)) e^{-i phi J3}, exp(|k|(J+ - J-)) being
        # the y rotation exp(-i beta Jy) at beta = -2|k|:
        #   <n1'|U_J|n1> = e^{i phi (n1' - n1)} d^J_{m'm}(-2|k|)
        cut = Cutoff(9)
        n1 = np.arange(total + 1)
        idx = n1 * cut.dim + (total - n1)
        block = beamsplitter_UJ(kappa, cut).entries[np.ix_(idx, idx)]
        phase = np.exp(1j * kappa.phase * (n1[:, None] - n1[None, :]))
        want = phase * wigner_small_d(total, -2 * kappa.modulus)
        assert np.abs(block - want).max() <= 1e-14

    @pytest.mark.parametrize("n_max", [1, 4, 9])
    def test_single_mode_chains_split_by_parity(self, n_max):
        chains = list(sector_chains("su11", Cutoff(n_max), modes=1))
        assert [occ.tolist() for occ, _ in chains] == [
            list(range(0, n_max + 1, 2)),
            list(range(1, n_max + 1, 2)),
        ]
        for occ, ladder in chains:
            # K+ = (a†)^2 / 2 moves |n> to |n+2> with sqrt((n+1)(n+2)) / 2
            np.testing.assert_array_equal(ladder, np.sqrt((occ[:-1] + 1.0) * (occ[:-1] + 2)) / 2)

    def test_single_mode_realization_is_su11_only(self):
        with pytest.raises(ValueError):
            list(sector_chains("su2", Cutoff(4), modes=1))

    @pytest.mark.parametrize("kappa", [PolarParam.from_polar(0.5, 0.7), PolarParam.from_polar(1.0, -2.6)])
    def test_squeezed_vacuum_oracle(self, kappa):
        # U_K|0,0> = sech r sum_n (e^{i phi} tanh r)^n |n,n>, r = |kappa|, phi = arg kappa
        cut = Cutoff(40)
        d = cut.dim
        r = kappa.modulus
        want = np.zeros(d * d, dtype=complex)
        n = np.arange(d)
        want[n * d + n] = (np.exp(1j * kappa.phase) * math.tanh(r)) ** n / math.cosh(r)
        keep = safe_indices(cut, cut.n_max // 2, modes=2)
        column = two_mode_squeezer_UK(kappa, cut).entries[:, 0]
        assert np.abs(column[keep] - want[keep]).max() <= 1e-13


def _dense_gap(built: np.ndarray, alpha: PolarParam, cut: Cutoff) -> float:
    """Relative Frobenius gap between ``built`` and one unsplit dense expm of
    the displacement generator alpha a† - conj(alpha) a."""
    a = annihilation(cut).entries
    dense = dense_expm(alpha.value * a.conj().T - alpha.conj * a)
    return float(np.linalg.norm(built - dense) / np.linalg.norm(dense))


def _series_gap(built: np.ndarray, alpha: PolarParam, cut: Cutoff) -> float:
    """Largest gap between column 0 of ``built`` and the renormalized closed form."""
    series = coherent_series(alpha, cut).amplitudes
    return float(np.abs(built[:, 0] - series / np.linalg.norm(series)).max())


# a Poisson tail below TAIL_BOUND = 1e-12 distorts amplitudes by about its root
SERIES_GAP = 1e-6
HW_CUTOFFS = st.sampled_from([10, 40, 144, 178])


class TestHeisenbergWeylChain:
    @pytest.mark.parametrize("n_max", [1, 4, 9])
    def test_one_chain_with_ladder_sqrt_n_plus_one(self, n_max):
        ((occ, ladder),) = sector_chains("hw", Cutoff(n_max), modes=1)
        np.testing.assert_array_equal(occ, np.arange(n_max + 1))
        np.testing.assert_array_equal(ladder, np.sqrt(np.arange(1, n_max + 1, dtype=float)))

    def test_single_mode_only(self):
        with pytest.raises(ValueError):
            list(sector_chains("hw", Cutoff(4)))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 10.0), st.floats(-math.pi, math.pi), HW_CUTOFFS)
    def test_matches_dense_expm(self, modulus, phase, n_max):
        alpha, cut = PolarParam.from_polar(modulus, phase), Cutoff(n_max)
        built = sector_operator("hw", alpha, cut, modes=1).entries
        assert _dense_gap(built, alpha, cut) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 10.0), st.floats(-math.pi, math.pi), HW_CUTOFFS)
    def test_column_zero_matches_coherent_series(self, modulus, phase, n_max):
        assume(poisson_tail(modulus, n_max) < TAIL_BOUND)
        alpha, cut = PolarParam.from_polar(modulus, phase), Cutoff(n_max)
        built = sector_operator("hw", alpha, cut, modes=1).entries
        assert _series_gap(built, alpha, cut) <= SERIES_GAP

    @pytest.mark.parametrize(
        "modulus,phase,n_max", [(0.5, 0.3, 10), (2.0, -1.2, 40), (6.0, 2.5, 144), (10.0, 0.0, 178)]
    )
    def test_scaled_amplitude_fails_both_routes(self, modulus, phase, n_max):
        # control: the gates above must catch an amplitude 1% off
        alpha, cut = PolarParam.from_polar(modulus, phase), Cutoff(n_max)
        assert poisson_tail(modulus, n_max) < TAIL_BOUND
        built = sector_operator("hw", PolarParam.from_value(1.01 * alpha.value), cut, modes=1).entries
        assert _dense_gap(built, alpha, cut) > 1e-13
        assert _series_gap(built, alpha, cut) > SERIES_GAP


class TestPhaseResolutionGuard:
    """sector_blocks rejects a parameter whose chain phases e^{-i |kappa| mu}
    a float cannot resolve, on every chain and every route through it."""

    @pytest.mark.parametrize("algebra, modes", [("hw", 1), ("su11", 1), ("su2", 2)])
    def test_limit_is_the_identity_tolerance(self, algebra, modes):
        cut = Cutoff(10)
        mu_max = max(
            np.abs(np.linalg.eigvalsh(np.diag(ladder, 1) + np.diag(ladder, -1))).max()
            for *_, ladder in sector_chains(algebra, cut, modes)
        )
        limit = DEFAULT_TOLERANCES.identity_residual / (mu_max * np.finfo(float).eps)
        sector_blocks(algebra, PolarParam.from_value(0.99 * limit), cut, modes)
        with pytest.raises(ValueError, match="a float cannot resolve the chain phases"):
            sector_blocks(algebra, PolarParam.from_value(1.01 * limit), cut, modes)

    @pytest.mark.parametrize("route", ["whole", "safe_rows", "apply_sectors"])
    def test_every_two_mode_route_is_guarded(self, route):
        cut = Cutoff(8)
        kappa = PolarParam.from_value(1e12)
        build = {
            "whole": lambda: sector_operator("su2", kappa, cut),
            "safe_rows": lambda: safe_rows("su2", kappa, cut, safe_indices(cut, 2, modes=2)),
            "apply_sectors": lambda: apply_sectors("su2", kappa, vacuum(cut, modes=2)),
        }[route]
        with pytest.raises(ValueError, match="a float cannot resolve the chain phases"):
            build()


class TestSingleModeSu11:
    def test_vacuum_weight_quarter(self):
        triple = single_mode_su11(Cutoff(6))
        vac = np.zeros(7)
        vac[0] = 1.0
        np.testing.assert_allclose(triple.third.entries @ vac, 0.25 * vac)

    def test_even_odd_weights(self):
        # K3 eigenvalue on |2m> is 1/4 + m, on |2m+1> it is 3/4 + m
        triple = single_mode_su11(Cutoff(9))
        diag = np.real(np.diag(triple.third.entries))
        for n, w in enumerate(diag):
            k = 0.25 if n % 2 == 0 else 0.75
            assert w == pytest.approx(k + n // 2)

    def test_closure_one_ladder_step_in(self):
        # one ladder step spans two occupation levels
        cut = Cutoff(20)
        triple = single_mode_su11(cut)
        res = closure_residuals(triple, np.arange(cut.dim - 2))
        assert max(res) < 1e-12

    def test_even_block_matches_abstract_quarter_spin(self):
        fock_cut = Cutoff(20)
        triple = single_mode_su11(fock_cut)
        even = np.arange(0, fock_cut.dim, 2)
        k_cut = Cutoff(len(even) - 1)
        abstract = su11_generators(SpinK(Fraction(1, 2), k_cut))
        # compare away from the boundary where the quadratic ladder truncates
        safe = np.arange(len(even) - 1)
        for mine, ref in (
            (triple.plus, abstract.plus),
            (triple.minus, abstract.minus),
            (triple.third, abstract.third),
        ):
            block = mine.entries[np.ix_(even, even)]
            diff = (block - ref.entries)[np.ix_(safe, safe)]
            assert np.abs(diff).max() < 1e-12


class TestLieTriple:
    @staticmethod
    def _reported_closures(monkeypatch):
        """Every (triple, kept indices) whose closure verify-all reports."""
        seen = []
        real = LieTriple.closure_residual

        def recording(self, keep):
            seen.append((self, keep))
            return real(self, keep)

        monkeypatch.setattr(LieTriple, "closure_residual", recording)
        _lie_reports(RunConfig())
        monkeypatch.undo()
        return seen

    def test_closure_gate_passes_on_reported_triples(self, monkeypatch):
        pairs = self._reported_closures(monkeypatch)
        assert len(pairs) == 12  # spin 2J = 1..8, then four realizations
        for triple, keep in pairs:
            got = triple.closure_residual(keep)
            assert got <= 1e-12
            assert abs(got - _closure(triple, keep)) <= 1e-14

    def test_closure_gate_fails_on_scaled_ladders(self, monkeypatch):
        # [X+, X-] then picks up a factor 1.01^2 that 2 X3 does not
        for triple, keep in self._reported_closures(monkeypatch):
            bad = LieTriple(1.01 * triple.plus, 1.01 * triple.minus, triple.third, triple.algebra)
            assert bad.closure_residual(keep) > 1e-3

    def test_rejects_mismatched_adjoint(self):
        cut = Cutoff(3)
        a = np.zeros((4, 4), dtype=complex)
        a[1, 0] = 1.0
        bad = a.copy()
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            LieTriple(
                Operator(a, 1, cut),
                Operator(bad, 1, cut),
                Operator(np.eye(4, dtype=complex), 1, cut),
                "su2",
            )


class TestChainSolves:
    """Inside solve_each_chain_once, sector_blocks diagonalizes each distinct
    chain once; outside it, every call solves afresh, as before."""

    @pytest.fixture
    def solves(self, monkeypatch):
        ladders = []
        real = fockforge.lie.eigh_tridiagonal

        def counted(diagonal, ladder):
            ladders.append(ladder.tobytes())
            return real(diagonal, ladder)

        monkeypatch.setattr(fockforge.lie, "eigh_tridiagonal", counted)
        return ladders

    def test_each_distinct_chain_solved_once(self, solves):
        kappa = PolarParam.from_polar(0.7, 0.4)
        c8, c11 = Cutoff(8), Cutoff(11)
        with solve_each_chain_once():
            apply_sectors("su2", kappa, vacuum(c8, modes=2))
            apply_sectors("su2", PolarParam.from_polar(1.3, -2.0), vacuum(c8, modes=2))
            apply_sectors("su2", kappa, vacuum(c11, modes=2))
        distinct = {ladder.tobytes() for c in (c8, c11) for *_, ladder in sector_chains("su2", c)}
        assert sorted(solves) == sorted(distinct)
        assert fockforge.lie._chain_solves.get() is None
        before = len(solves)
        apply_sectors("su2", kappa, vacuum(c8, modes=2))
        assert len(solves) - before == len(list(sector_chains("su2", c8)))

    @pytest.mark.parametrize("algebra, modes", [("hw", 1), ("su11", 1), ("su2", 2), ("su11", 2)])
    def test_blocks_equal_inside_and_outside(self, algebra, modes):
        kappa, cut = PolarParam.from_polar(0.6, 1.1), Cutoff(9)
        outside = sector_blocks(algebra, kappa, cut, modes)
        with solve_each_chain_once():
            sector_blocks(algebra, PolarParam.from_polar(0.2, -0.5), cut, modes)
            inside = sector_blocks(algebra, kappa, cut, modes)
        assert len(inside) == len(outside)
        for mine, ref in zip(inside, outside):
            for field in ("index", "phase", "vectors", "spectrum"):
                np.testing.assert_array_equal(getattr(mine, field), getattr(ref, field))

    def test_shared_vectors_are_read_only(self):
        with solve_each_chain_once():
            (block,) = sector_blocks("hw", PolarParam.from_value(0.5), Cutoff(6), modes=1)
            with pytest.raises(ValueError, match="read-only"):
                block.vectors[0, 0] = 0.0
        (block,) = sector_blocks("hw", PolarParam.from_value(0.5), Cutoff(6), modes=1)
        block.vectors[0, 0] = 0.0  # a solve outside the scope is the caller's own

    @pytest.mark.parametrize(
        "argv, code",
        [
            # n_max 12 is too small for some checks: they warn, exit 1
            (["verify-all", "--seed", "3", "--nmax", "12"], 1),
            # the phase-resolution guard raises inside the command: exit 2
            (["sweep", "--check", "check_J_rotation", "--values", "0.5,1e12"], 2),
        ],
    )
    def test_command_leaves_no_solves_behind(self, argv, code, solves, capsys):
        assert main(argv) == code
        capsys.readouterr()
        assert len(solves) == len(set(solves))  # the command's checks shared their solves
        assert fockforge.lie._chain_solves.get() is None

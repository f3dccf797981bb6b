import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import norm as sparse_norm

import fockforge.fock
import fockforge.states
from fockforge import (
    Cutoff,
    PolarParam,
    apply_beamsplitter,
    check_J_rotation,
    check_K_rotation,
    check_SDS,
    check_SSS_commute,
    check_UJ_squeeze_invariance,
    check_phase_formula,
    check_squeeze_conjugation,
    displacement,
    expm,
    full_swap,
    identity,
    imperfect_clone,
    squeeze_pair_exponent_coefficients,
    tensor,
)
from fockforge.cli import PROTOCOL_CHECKS, main
from fockforge.fock import annihilation, dagger, safe_indices
from fockforge.formulas import _restricted_conjugation, _sinc, _sinhc
from fockforge.lie import sector_blocks
from second_routes import conjugate_by, residual

RNG = np.random.default_rng(23)


def random_param(lo, hi, rng=RNG):
    return PolarParam.from_polar(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


def sparse_route_residuals(algebra: str, t: PolarParam, cut: Cutoff, margin: int) -> dict:
    """The J (su2) or K (su11) conjugation residuals by the sparse route: U's
    safe rows as one CSR array over the whole two-mode space, the ladders as
    sparse Kronecker products, and the safe block of U A U† in one product."""
    keep = safe_indices(cut, margin, modes=2)
    pos = np.full(cut.dim ** 2, -1)
    pos[keep] = np.arange(keep.size)
    rows, cols, vals = [], [], []
    for block in sector_blocks(algebra, t, cut, meets=keep):
        inside = pos[block.index] >= 0
        rows.append(np.repeat(pos[block.index[inside]], block.index.size))
        cols.append(np.tile(block.index, np.count_nonzero(inside)))
        vals.append(block.matrix()[inside].ravel())
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    u = sparse.csr_array(entries, shape=(keep.size, cut.dim ** 2))
    a = sparse.csr_array(annihilation(cut).entries)
    eye = sparse.eye_array(cut.dim, dtype=complex)
    a1, a2 = sparse.kron(a, eye, format="csr"), sparse.kron(eye, a, format="csr")
    m = t.modulus
    if algebra == "su2":
        c, ts = math.cos(m), t.value * _sinc(m)
        sides = {
            "a1_conjugation": (a1, c * a1 - ts * a2),
            "a2_conjugation": (a2, c * a2 + ts.conjugate() * a1),
        }
    else:
        a2d = a2.conj().T.tocsr()
        ch, ts = math.cosh(m), t.value * _sinhc(m)
        sides = {
            "a1_conjugation": (a1, ch * a1 - ts * a2d),
            "a2dag_conjugation": (a2d, ch * a2d - ts.conjugate() * a1),
        }
    return {
        name: float(sparse_norm(u @ op @ u.conj().T - rhs[keep][:, keep], "fro"))
        for name, (op, rhs) in sides.items()
    }


class TestChainPairConjugation:
    """check_J_rotation and check_K_rotation conjugate chain pair by chain
    pair; the sparse route over the whole two-mode space is the second route."""

    @pytest.mark.parametrize("n_max", [1, 4, 9, 24, 44, 80])
    @pytest.mark.parametrize(
        "check, algebra, top",
        [(check_J_rotation, "su2", 2 * math.pi), (check_K_rotation, "su11", 1.7)],
    )
    def test_residuals_match_sparse_route(self, check, algebra, top, n_max):
        rng = np.random.default_rng(n_max)
        cut = Cutoff(n_max)
        for margin in sorted({0, n_max // 3, n_max - 1}):
            t = random_param(0.0, top, rng)
            rep = check(t, cut, margin)
            want = sparse_route_residuals(algebra, t, cut, margin)
            for name, value in want.items():
                # truncated edges give residuals of order one; exact ones, round-off
                assert rep.residuals[name] == pytest.approx(value, rel=1e-12, abs=1e-13)


class TestJRotation:
    def test_zero_parameter_trivial(self):
        rep = check_J_rotation(PolarParam.from_value(0), Cutoff(8))
        assert rep.passed
        assert rep.residuals["a1_conjugation"] == pytest.approx(0.0, abs=1e-12)

    def test_quarter_turn_coefficients(self):
        # |t| = pi/2 with phase 0 sends a1 to -a2 (cos = 0, sin = 1)
        t = PolarParam.from_polar(math.pi / 2, 0.0)
        cut = Cutoff(16)
        a = annihilation(cut)
        eye = identity(cut)
        a1, a2 = tensor(a, eye), tensor(eye, a)
        gen = t.value * tensor(dagger(a), a) - t.conj * tensor(a, dagger(a))
        u = expm(gen)
        got = conjugate_by(u, a1)
        assert residual(got, -1.0 * a2, 2) < 1e-10

    def test_random_draws_within_tolerance(self):
        for _ in range(4):
            rep = check_J_rotation(random_param(0.05, 1.0))
            assert rep.passed
            assert rep.worst_residual <= 1e-8

    def test_restricted_path_matches_public_api(self):
        # the sliced conjugation must agree with conjugate_by + residual
        t = PolarParam.from_value(0.4 + 0.3j)
        cut = Cutoff(8)
        margin = 2
        a = annihilation(cut)
        eye = identity(cut)
        a1 = tensor(a, eye)
        gen = t.value * tensor(dagger(a), a) - t.conj * tensor(a, dagger(a))
        u = expm(gen)
        m = t.modulus
        rhs = math.cos(m) * a1 - (t.value * math.sin(m) / m) * tensor(eye, a)
        keep = safe_indices(cut, margin, modes=2)
        sliced = _restricted_conjugation(u.entries[keep], a1.entries)
        direct = residual(conjugate_by(u, a1), rhs, margin)
        sliced_res = float(np.linalg.norm(sliced - rhs.entries[np.ix_(keep, keep)], "fro"))
        assert sliced_res == pytest.approx(direct, abs=1e-13)

    def test_group_constraints_reported(self):
        rep = check_J_rotation(PolarParam.from_value(0.3 + 0.8j))
        assert rep.residuals["su2_unitarity"] < 1e-12
        assert rep.residuals["su2_determinant"] < 1e-12


class TestKRotation:
    def test_zero_parameter_trivial(self):
        rep = check_K_rotation(PolarParam.from_value(0), Cutoff(8))
        assert rep.passed

    def test_hyperbolic_normalization(self):
        for _ in range(4):
            m = RNG.uniform(0.05, 0.5)
            assert math.cosh(m) ** 2 - math.sinh(m) ** 2 == pytest.approx(1.0, abs=1e-12)
        rep = check_K_rotation(PolarParam.from_polar(0.4, 1.0))
        assert rep.residuals["su11_normalization"] < 1e-12

    def test_random_draws_within_tolerance(self):
        for _ in range(3):
            rep = check_K_rotation(random_param(0.05, 0.5))
            assert rep.passed
            assert rep.worst_residual <= 1e-8

    def test_guard_violation(self):
        with pytest.raises(ValueError):
            check_K_rotation(PolarParam.from_value(2.0))


class TestSqueezeConjugation:
    def test_zero_parameter_trivial(self):
        rep = check_squeeze_conjugation(PolarParam.from_value(0), Cutoff(8))
        assert rep.passed

    def test_log_two_coefficients(self):
        # cosh(ln 2) = 5/4 and sinh(ln 2) = 3/4
        eps = PolarParam.from_polar(math.log(2), 0.0)
        assert math.cosh(eps.modulus) == pytest.approx(1.25)
        assert math.sinh(eps.modulus) == pytest.approx(0.75)
        rep = check_squeeze_conjugation(eps)
        assert rep.passed and rep.worst_residual <= 1e-8

    def test_random_draws_within_tolerance(self):
        for _ in range(4):
            rep = check_squeeze_conjugation(random_param(0.05, 0.8))
            assert rep.passed and rep.worst_residual <= 1e-8

    def test_guard_violation(self):
        with pytest.raises(ValueError):
            check_squeeze_conjugation(PolarParam.from_value(1.9))

    @pytest.mark.parametrize(
        "eps, cutoff, margin",
        [((0.05, 0.0), None, None), ((0.69, 1.1), None, None), ((0.8, 0.3), Cutoff(16), 2),
         ((1.2, -2.0), Cutoff(40), 20)],
    )
    def test_matches_dense_squeeze_route(self, eps, cutoff, margin):
        # the safe rows of S from its parity chains give the residual that
        # the whole dense squeeze gives
        eps = PolarParam.from_polar(*eps)
        rep = check_squeeze_conjugation(eps, cutoff, margin)
        cut = cutoff or fockforge.formulas.SQUEEZE_CONJUGATION_CUTOFF
        keep = safe_indices(cut, rep.margin, modes=1)
        a = annihilation(cut).entries
        s = fockforge.states.squeeze(eps, cut).entries[keep]
        rhs = math.cosh(eps.modulus) * a - np.exp(1j * eps.phase) * math.sinh(eps.modulus) * a.conj().T
        dense = np.linalg.norm(s @ a @ s.conj().T - rhs[np.ix_(keep, keep)])
        assert rep.residuals["a_conjugation"] == pytest.approx(dense, rel=1e-12, abs=1e-16)


class TestSDS:
    def test_zero_squeeze_trivial(self):
        rep = check_SDS(PolarParam.from_value(0), PolarParam.from_value(0.5), Cutoff(40))
        assert rep.residuals["displacement_conjugation"] < 1e-10

    def test_scale_up_case(self):
        # phase locked to 2*chi with |eps| = ln 2 doubles alpha
        eps = PolarParam.from_polar(math.log(2), 0.0)
        alpha = PolarParam.from_value(0.5)
        rep = check_SDS(eps, alpha)
        assert 1 - rep.fidelities["scale_up_state"] <= 1e-8
        # and the predicted label is exactly e^{|eps|} alpha = 1.0
        assert math.exp(eps.modulus) * alpha.value == pytest.approx(1.0)

    def test_scale_down_case(self):
        eps = PolarParam.from_polar(math.log(2), 0.0)
        alpha = PolarParam.from_value(1.0)
        rep = check_SDS(eps, alpha)
        assert 1 - rep.fidelities["scale_down_state"] <= 1e-8
        assert math.exp(-eps.modulus) * alpha.value == pytest.approx(0.5)

    def test_random_draws_within_tolerance(self):
        for _ in range(3):
            rep = check_SDS(random_param(0.05, 0.8), random_param(0.1, 1.0))
            assert rep.passed and rep.worst_residual <= 1e-8

    def test_rejects_amplitude_past_float_resolution(self):
        with pytest.raises(ValueError, match="a float cannot resolve the chain phases"):
            check_SDS(PolarParam.from_value(0.3), PolarParam.from_value(1e20))


def refuse_dense_expm(monkeypatch):
    def refuse(g):
        raise AssertionError("dense matrix exponential called")

    for module in (fockforge.fock, fockforge.states):
        monkeypatch.setattr(module, "_expm_array", refuse)


class TestNoDenseDisplacement:
    def test_single_mode_displacement_checks_avoid_dense_expm(self, monkeypatch):
        refuse_dense_expm(monkeypatch)
        assert check_SDS(PolarParam.from_polar(0.4, 1.1), PolarParam.from_polar(0.8, 0.55)).passed
        assert check_phase_formula(0.9, PolarParam.from_value(1.2 - 0.4j)).passed

    def test_protocols_avoid_dense_expm(self, monkeypatch):
        refuse_dense_expm(monkeypatch)
        a1, a2 = PolarParam.from_value(1.2 + 0.3j), PolarParam.from_polar(0.4, 1.0)
        assert full_swap(a1, a2, 0.7).report.passed
        assert imperfect_clone(a1).report.passed
        assert apply_beamsplitter(a1, a2, PolarParam.from_polar(0.6, -0.4)).report.passed

    def test_commands_avoid_dense_expm(self, monkeypatch):
        # every command exits as it does with the dense exponential in place
        commands = [["verify-all", "--seed", "7"]]
        commands += [["sweep", "--check", c.name, "--values", "0.3,0.6"] for c in PROTOCOL_CHECKS]
        want = [main(argv) for argv in commands]
        refuse_dense_expm(monkeypatch)
        assert [main(argv) for argv in commands] == want


class TestSSSCommute:
    def test_identical_arguments_commute_exactly(self):
        z = PolarParam.from_value(0.4 + 0.1j)
        rep = check_SSS_commute(z, z)
        assert rep.residuals["commutator"] < 1e-12

    def test_matched_phases_commute(self):
        for _ in range(4):
            phase = RNG.uniform(-math.pi, math.pi)
            eps = PolarParam.from_polar(RNG.uniform(0.05, 0.8), phase)
            alp = PolarParam.from_polar(RNG.uniform(0.05, 0.8), phase)
            rep = check_SSS_commute(eps, alp)
            assert rep.passed
            assert rep.residuals["commutator"] <= 1e-8
            assert "commutator" not in rep.unasserted

    def test_mismatched_phases_witness(self):
        # quarter-turn phase offset: genuinely noncommuting
        eps = PolarParam.from_polar(0.3, 0.0)
        alp = PolarParam.from_polar(0.5, math.pi / 2)
        rep = check_SSS_commute(eps, alp)
        assert rep.residuals["commutator"] > 1e-3
        assert "commutator" in rep.unasserted
        assert rep.passed  # reported, not asserted


class TestPhaseFormula:
    def test_zero_angle_identity(self):
        rep = check_phase_formula(0.0, PolarParam.from_value(1.0))
        assert rep.residuals["displacement_conjugation"] < 1e-12

    def test_half_turn_negates(self):
        # t = pi sends D(1) to D(-1)
        cut = Cutoff(40)
        from fockforge.states import phase_rotation

        v = phase_rotation(math.pi, cut)
        lhs = conjugate_by(v, displacement(PolarParam.from_value(1.0), cut))
        rhs = displacement(PolarParam.from_value(-1.0), cut)
        assert residual(lhs, rhs, 0) < 1e-10

    def test_random_draws(self):
        for _ in range(4):
            t = RNG.uniform(-math.pi, math.pi)
            rep = check_phase_formula(t, random_param(0.1, 2.0))
            assert rep.passed
            assert 1 - rep.fidelities["rotated_state"] <= 1e-10
            assert rep.residuals["vacuum_invariance"] == 0.0

    def test_periodicity(self):
        alpha = PolarParam.from_value(0.9 + 0.2j)
        r1 = check_phase_formula(1.1, alpha)
        r2 = check_phase_formula(1.1 + 2 * math.pi, alpha)
        gap = abs(
            r1.residuals["displacement_conjugation"]
            - r2.residuals["displacement_conjugation"]
        )
        assert gap <= 1e-12


class TestUJSqueezeInvariance:
    def test_degenerate_parameter(self):
        rep = check_UJ_squeeze_invariance(
            PolarParam.from_value(0), PolarParam.from_value(0.3)
        )
        assert rep.passed and rep.residuals["invariance"] == 0.0

    def test_real_parameter_means_equal_squeezes(self):
        # real t makes the condition beta = alpha
        t = PolarParam.from_polar(0.8, 0.0)
        alpha = PolarParam.from_value(0.3 + 0.2j)
        beta = alpha.value * t.conj / t.value
        assert beta == pytest.approx(alpha.value)
        rep = check_UJ_squeeze_invariance(t, alpha)
        assert rep.passed and rep.residuals["invariance"] <= 1e-8

    def test_random_draws(self):
        for _ in range(3):
            rep = check_UJ_squeeze_invariance(
                random_param(0.05, 1.0), random_param(0.05, 0.5)
            )
            assert rep.passed and rep.worst_residual <= 1e-8

    def test_violating_pair_coefficient(self):
        # beta = -alpha conj(t)/t doubles the cross combination:
        # |pair| = 2|alpha||t| sin(2|t|)/(2|t|) = |alpha| sin(2|t|)
        t = 0.7 * np.exp(0.9j)
        alpha = 0.4 + 0.0j
        beta = -alpha * np.conj(t) / t
        coeffs = squeeze_pair_exponent_coefficients(alpha, beta, t)
        expected = abs(alpha) * math.sin(2 * abs(t))
        assert abs(coeffs["pair_create"]) == pytest.approx(expected, rel=1e-12)
        assert abs(coeffs["pair_create"]) > 1e-3

    def test_condition_kills_pair_terms(self):
        t = 0.6 * np.exp(-1.2j)
        alpha = 0.35 * np.exp(0.4j)
        beta = alpha * np.conj(t) / t
        coeffs = squeeze_pair_exponent_coefficients(alpha, beta, t)
        assert abs(coeffs["pair_create"]) < 1e-15
        assert abs(coeffs["pair_destroy"]) < 1e-15
        assert 2 * coeffs["a1dag2"] == pytest.approx(alpha)
        assert 2 * coeffs["a2dag2"] == pytest.approx(beta)


class TestMemoryReach:
    # one d^2 x d^2 complex array at n_max 80 takes 16 * 81^4 B, about 689 MB
    @pytest.mark.parametrize(
        "check,params",
        [
            (check_J_rotation, (PolarParam.from_polar(0.9, 0.4),)),
            (check_K_rotation, (PolarParam.from_polar(0.45, -1.1),)),
            (
                check_UJ_squeeze_invariance,
                (PolarParam.from_polar(0.8, 2.0), PolarParam.from_polar(0.4, 0.3)),
            ),
        ],
        ids=["J", "K", "UJ"],
    )
    def test_two_mode_checks_never_hold_a_dense_operand(self, check, params):
        cut = Cutoff(80)
        tracemalloc.start()
        try:
            rep = check(*params, cut)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < 16 * cut.dim ** 4 / 2


class TestMarginMonotonicity:
    def test_conjugation_residual_grows_toward_boundary(self):
        t = PolarParam.from_value(0.5 + 0.2j)
        cut = Cutoff(16)
        rep_default = check_J_rotation(t, cut)
        rep_zero = check_J_rotation(t, cut, margin=0)
        assert (
            rep_default.residuals["a1_conjugation"]
            <= rep_zero.residuals["a1_conjugation"] + 1e-12
        )


class TestReportShape:
    def test_json_schema_fields_exact(self):
        rep = check_J_rotation(PolarParam.from_value(0.2), Cutoff(8))
        body = rep.to_json_dict()
        assert set(body) == {
            "name",
            "params",
            "n_max",
            "margin",
            "residuals",
            "fidelities",
            "tolerance",
            "passed",
        }
        assert body["params"] == [{"re": 0.2, "im": 0.0}]
        json.dumps(body)  # serializable

    def test_pass_reflects_tolerance(self):
        # a deliberately inadequate cutoff must fail the squeeze check
        rep = check_squeeze_conjugation(
            PolarParam.from_polar(0.8, 0.3), Cutoff(16), margin=2
        )
        assert not rep.passed
        assert rep.worst_residual > rep.tolerance

"""Two-mode protocols: beamsplitter mixing, coherent-state swap, imperfect
cloning, and the squeezed-pair obstruction to a squeeze swap."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .config import DEFAULT_TOLERANCES, _guard_cosh
from .fock import Cutoff, Ket, PolarParam, tail_warning, tensor_ket
from .formulas import (
    _conjugated_squeeze_pair,
    _hyperbolic_margin,
    _sinc,
    _two_mode_ladders,
    squeeze_pair_exponent_coefficients,
)
# beamsplitter_UJ is bound here only because perfbench/run.py wraps protocols.beamsplitter_UJ
from .lie import apply_sectors, beamsplitter_UJ
from .report import Report, make_report
from .states import coherent_with_deficit, fidelity, occupation_expectations, phase_factors

SWAP_CUTOFF = Cutoff(36)
CLONE_CUTOFF = Cutoff(40)
OBSTRUCTION_CUTOFF = Cutoff(40)


@dataclass(frozen=True)
class TwoModeProtocolResult:
    """Simulated protocol output against its closed-form prediction."""

    output: Ket
    predicted: Ket
    fidelity: float
    stages: tuple[str, ...]
    report: Report

    def mean_occupations(self) -> tuple[float, float]:
        n1, n2 = occupation_expectations(self.output)
        return n1, n2

    def to_json_dict(self) -> dict:
        n1, n2 = self.mean_occupations()
        return {
            "fidelity": self.fidelity,
            "stages": list(self.stages),
            "mean_occupations": [n1, n2],
            "report": self.report.to_json_dict(),
        }


def _coherent_pair(
    alpha1: PolarParam, alpha2: PolarParam, cutoff: Cutoff
) -> tuple[Ket, float]:
    k1, d1 = coherent_with_deficit(alpha1, cutoff)
    k2, d2 = coherent_with_deficit(alpha2, cutoff)
    return tensor_ket(k1, k2), max(d1, d2)


def _beamsplitter_circuit(
    label: str,
    inputs: tuple[PolarParam, PolarParam],
    kappa: PolarParam,
    phases: tuple[float, float] | None,
    outputs: tuple[PolarParam, PolarParam],
    cutoff: Cutoff,
) -> tuple[Ket, float, Ket, Ket, float]:
    """|a1> (x) |a2> through exp(kappa J+ - conj(kappa) J-) and, when
    ``phases`` = (t1, t2) is given, exp(i t1 N) (x) exp(i t2 N).

    Returns the input pair, its truncation deficit, the renormalized output,
    the coherent pair at ``outputs`` and the fidelity between the two.
    """
    # the beamsplitter truncates by total occupation: guard the combined amplitude
    tail_warning(math.hypot(inputs[0].modulus, inputs[1].modulus), cutoff, context=label)
    incoming, in_deficit = _coherent_pair(*inputs, cutoff)
    ket = apply_sectors("su2", kappa, incoming)
    if phases is not None:
        t1, t2 = phases
        factors = np.outer(phase_factors(t1, cutoff), phase_factors(t2, cutoff)).reshape(-1)
        ket = Ket(ket.amplitudes * factors, 2, cutoff)
    output = ket.normalize()
    predicted, _ = _coherent_pair(*outputs, cutoff)
    return incoming, in_deficit, output, predicted, fidelity(output, predicted)


def apply_beamsplitter(
    alpha1: PolarParam,
    alpha2: PolarParam,
    kappa: PolarParam,
    cutoff: Cutoff | None = None,
    tolerance: float | None = None,
) -> TwoModeProtocolResult:
    """Mix a coherent pair on a beamsplitter and compare with the coherent
    pair it must map to:

        |a1> (x) |a2>  ->  |cos|k| a1 + e^{id} sin|k| a2> (x)
                           |cos|k| a2 - e^{-id} sin|k| a1>,  d = phase(kappa).
    """
    cutoff = cutoff or SWAP_CUTOFF
    tol = DEFAULT_TOLERANCES.fidelity_deficit if tolerance is None else tolerance

    m = kappa.modulus
    ks = kappa.value * _sinc(m)  # e^{i delta} sin|kappa|
    out1 = PolarParam.from_value(math.cos(m) * alpha1.value + ks * alpha2.value)
    out2 = PolarParam.from_value(math.cos(m) * alpha2.value - ks.conjugate() * alpha1.value)
    incoming, in_deficit, output, predicted, f = _beamsplitter_circuit(
        "beamsplitter input", (alpha1, alpha2), kappa, None, (out1, out2), cutoff
    )

    n_out = sum(occupation_expectations(output))
    n_in = sum(occupation_expectations(incoming))
    residuals = {
        "energy_conservation": abs(n_out - n_in),
        "input_truncation_deficit": in_deficit,
    }
    report = make_report(
        "apply_beamsplitter", (alpha1, alpha2, kappa), cutoff, 0, residuals, {"protocol": f}, tol
    )
    return TwoModeProtocolResult(output, predicted, f, ("beamsplitter",), report)


def full_swap(
    alpha1: PolarParam,
    alpha2: PolarParam,
    delta: float,
    cutoff: Cutoff | None = None,
    tolerance: float | None = None,
) -> TwoModeProtocolResult:
    """Swap a coherent pair: a quarter-wave beamsplitter (sin|kappa| = 1) with
    phase delta, followed by the per-mode phase rotation
    exp(-i delta N) (x) exp(i (delta+pi) N).  The end-to-end map is
    |a1> (x) |a2> -> |a2> (x) |a1> for every delta.
    """
    cutoff = cutoff or SWAP_CUTOFF
    tol = DEFAULT_TOLERANCES.fidelity_deficit if tolerance is None else tolerance

    kappa = PolarParam.from_polar(math.pi / 2, delta)
    _, in_deficit, output, predicted, f = _beamsplitter_circuit(
        "swap input", (alpha1, alpha2), kappa, (-kappa.phase, kappa.phase + math.pi),
        (alpha2, alpha1), cutoff,
    )
    residuals = {"input_truncation_deficit": in_deficit}
    params = (alpha1, alpha2, PolarParam.from_value(delta))
    report = make_report("full_swap", params, cutoff, 0, residuals, {"swap": f}, tol)
    return TwoModeProtocolResult(output, predicted, f, ("beamsplitter", "phase_rotation"), report)


def imperfect_clone(
    alpha: PolarParam,
    cutoff: Cutoff | None = None,
    delta: float = 0.0,
    tolerance: float | None = None,
) -> TwoModeProtocolResult:
    """Half-split an unknown coherent state across two modes:

        |a> (x) |0>  ->  |a/sqrt(2)> (x) |a/sqrt(2)>

    via an eighth-wave beamsplitter (|kappa| = pi/4) and a phase rotation on
    the second mode.  The predicted output is independent of delta.
    """
    cutoff = cutoff or CLONE_CUTOFF
    tol = DEFAULT_TOLERANCES.fidelity_deficit if tolerance is None else tolerance

    kappa = PolarParam.from_polar(math.pi / 4, delta)
    half = PolarParam.from_value(alpha.value / math.sqrt(2))
    # the idle mode is amplitude 0, which coherent_with_deficit gives as exactly |0>
    _, in_deficit, output, predicted, f = _beamsplitter_circuit(
        "clone input", (alpha, PolarParam.from_value(0)), kappa, (0.0, kappa.phase + math.pi),
        (half, half), cutoff,
    )

    n1, n2 = occupation_expectations(output)
    target_occupation = alpha.modulus ** 2 / 2
    residuals = {
        "marginal1_occupation": abs(n1 - target_occupation),
        "marginal2_occupation": abs(n2 - target_occupation),
        "input_truncation_deficit": in_deficit,
    }
    report = make_report("imperfect_clone", (alpha,), cutoff, 0, residuals, {"clone": f}, tol)
    return TwoModeProtocolResult(output, predicted, f, ("beamsplitter", "phase_rotation"), report)


def _pair_exponent(coeffs: dict[str, complex], cutoff: Cutoff) -> sparse.csr_array:
    """The sparse exponent X of ``squeeze_pair_exponent_coefficients`` on the
    box-truncated two-mode space.  Each term moves n1 + n2 by +-2, so X
    keeps the parity of n1 + n2."""
    a1, a2 = _two_mode_ladders(cutoff)
    a1d, a2d = a1.conj().T, a2.conj().T
    return (
        coeffs["a1dag2"] * (a1d @ a1d)
        + coeffs["a1sq"] * (a1 @ a1)
        + coeffs["a2dag2"] * (a2d @ a2d)
        + coeffs["a2sq"] * (a2 @ a2)
        + coeffs["pair_create"] * (a1d @ a2d)
        + coeffs["pair_destroy"] * (a1 @ a2)
    )


# the series stops once its truncation error on a unit column is below this
SERIES_TAIL = np.finfo(float).eps


def _bessel_tail(radius: float, order: int) -> float:
    """Upper bound on 2 sum_{k>order} |J_k(R)| for order > R.

    Kapteyn's inequality (DLMF 10.14.5) bounds |J_k(R)| by (rho e^s)^k, with
    z = R/k, s = sqrt(1 - z^2) and rho = z / (1 + s).  The log of that bound
    is concave in k with slope log(rho), so each later order shrinks it by at
    least the factor rho taken at ``order``.
    """
    z = radius / order
    s = math.sqrt(1.0 - z * z)
    rho = z / (1.0 + s)
    return 2.0 * (rho * math.exp(s)) ** order * rho / (1.0 - rho)


def _bessel_weights(radius: float) -> np.ndarray:
    """Weights J_0(R), 2 J_1(R), ..., 2 J_K(R) of the Chebyshev series of
    exp(X) for ||X|| <= R, with K the first order past R whose tail is at
    most ``SERIES_TAIL``.

    The J_k come from Miller's backward recurrence
    J_{k-1} = (2k/R) J_k - J_{k+1}, started at K and normalized by
    J_0 + 2 sum_k J_{2k} = 1; the start leaves an error of order J_{K+1}(R),
    below the tail, in each weight.  special.jv is off by up to 1e-14 near
    k = R at R = 120, which the sum of the series would carry.
    """
    order = math.floor(radius) + 1
    while _bessel_tail(radius, order) > SERIES_TAIL:
        order += 1
    j = np.zeros(order + 2)
    j[order] = 1.0
    for k in range(order, 0, -1):
        j[k - 1] = (2 * k / radius) * j[k] - j[k + 1]
    weights = 2.0 * j[: order + 1] / (j[0] + 2.0 * j[2::2].sum())
    weights[0] /= 2.0
    return weights


def _shell_exponential(x: sparse.csr_array, cutoff: Cutoff, keep: np.ndarray) -> np.ndarray:
    """Safe block of exp(X), on the indices ``keep``, as the Chebyshev series
    of Tal-Ezer and Kosloff (1984): exp(X) = J_0(R) w_0 + 2 sum_k J_k(R) w_k
    with w_0 = 1, w_1 = X/R and w_{k+1} = (2/R) X w_k + w_{k-1}, so that
    w_k = (-i)^k T_k(iX/R).  X is anti-Hermitian and R = ||X||_1, its largest
    column sum, bounds its spectral radius, so every w_k has norm <= 1.

    Every term of X moves N = n1 + n2 by +-2, so X joins the shell class
    N = q (mod 4) only to q + 2: columns starting on class q sit on q at even
    orders and on q + 2 at odd ones, and each step is one product with the
    block of X between the two classes.  A class with no safe column is skipped.
    """
    exp_x = np.zeros((keep.size, keep.size), dtype=complex)
    radius = float(abs(x).sum(axis=0).max())
    if radius < np.finfo(float).tiny:  # X = 0, or every entry below 1e-308: exp(X) = 1
        np.fill_diagonal(exp_x, 1.0)
        return exp_x
    weights = _bessel_weights(radius)
    flat = np.arange(x.shape[0])
    shell = (flat // cutoff.dim + flat % cutoff.dim) % 4
    for q in range(4):
        home, away = np.nonzero(shell == q)[0], np.nonzero(shell == (q + 2) % 4)[0]
        safe_home = np.nonzero(shell[keep] == q)[0]  # positions in keep
        if safe_home.size == 0:
            continue
        safe_away = np.nonzero(shell[keep] == (q + 2) % 4)[0]
        outward = (2.0 / radius) * x[away][:, home].tocsr()
        inward = (2.0 / radius) * x[home][:, away].tocsr()
        rows_home = np.searchsorted(home, keep[safe_home])  # places in the class
        rows_away = np.searchsorted(away, keep[safe_away])
        w_home = np.zeros((home.size, safe_home.size), dtype=complex)
        w_home[rows_home, np.arange(safe_home.size)] = 1.0
        w_away = 0.5 * (outward @ w_home)
        sum_home = weights[0] * w_home[rows_home]
        sum_away = weights[1] * w_away[rows_away]
        for k in range(2, weights.size):
            if k % 2 == 0:
                w_home += inward @ w_away
                sum_home += weights[k] * w_home[rows_home]
            else:
                w_away += outward @ w_home
                sum_away += weights[k] * w_away[rows_away]
        exp_x[np.ix_(safe_home, safe_home)] = sum_home
        exp_x[np.ix_(safe_away, safe_home)] = sum_away
    return exp_x


def _obstruction_blocks(
    coeffs: dict[str, complex],
    beta1: PolarParam,
    beta2: PolarParam,
    kappa: PolarParam,
    cutoff: Cutoff,
    margin: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Safe blocks of U (S1 S2) U†, exp(X) and S1 S2 at ``margin``.

    exp(X) pairs occupations up to the cutoff, so its safe columns come from
    the sparse X on the whole truncated space, as a Chebyshev series in X/R
    at R = ||X||_1, which bounds the spectral radius.  It runs once per shell
    class N = n1 + n2 (mod 4) that holds a safe column and stops at the first
    order past R whose Bessel tail is below machine epsilon
    (``_shell_exponential``).
    """
    keep, conjugated, pair = _conjugated_squeeze_pair(beta1, beta2, kappa, cutoff, margin)
    return conjugated, _shell_exponential(_pair_exponent(coeffs, cutoff), cutoff, keep), pair


def squeezed_swap_obstruction(
    beta1: PolarParam,
    beta2: PolarParam,
    kappa: PolarParam,
    cutoff: Cutoff | None = None,
    margin: int | None = None,
    tolerance: float | None = None,
) -> Report:
    """Why the beamsplitter cannot swap squeezed states.

    Conjugating S1(beta1) S2(beta2) by the beamsplitter produces an exponent
    X whose pair-creation coefficient is (beta2 kappa - beta1 conj(kappa)) *
    sin(2|kappa|)/(2|kappa|).  The conjugation is verified against exp(X) at
    the matrix level; when the coefficient vanishes the conjugation must leave
    the squeeze pair unchanged (the dichotomy: either an extra pair term
    appears, or nothing happens at all).
    """
    cutoff = cutoff or OBSTRUCTION_CUTOFF
    margin = _hyperbolic_margin(cutoff) if margin is None else margin
    tol = DEFAULT_TOLERANCES.identity_residual if tolerance is None else tolerance
    _guard_cosh(beta1.modulus, "beta1")
    _guard_cosh(beta2.modulus, "beta2")

    coeffs = squeeze_pair_exponent_coefficients(beta1.value, beta2.value, kappa.value)
    cross = coeffs["pair_create"]

    conjugated, exp_x, pair = _obstruction_blocks(coeffs, beta1, beta2, kappa, cutoff, margin)
    residuals = {
        "exponent_match": float(np.linalg.norm(conjugated - exp_x, "fro")),
        "invariance": float(np.linalg.norm(conjugated - pair, "fro")),
        "cross_term_modulus": abs(cross),
    }
    # The invariance residual is asserted only on the vanishing-cross-term
    # branch of the dichotomy; the coefficient itself is always informational.
    unasserted = ("cross_term_modulus",)
    if abs(cross) > 1e-12:
        unasserted = ("cross_term_modulus", "invariance")
    return make_report(
        "squeezed_swap_obstruction",
        (beta1, beta2, kappa),
        cutoff,
        margin,
        residuals,
        {},
        tol,
        unasserted=unasserted,
    )

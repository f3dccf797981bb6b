"""Two-mode protocols: beamsplitter mixing, coherent-state swap, imperfect
cloning, and the squeezed-pair obstruction to a squeeze swap."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, _guard_cosh
from .fock import Cutoff, Ket, PolarParam, tail_warning, tensor_ket
from .formulas import (
    _conjugated_squeeze_pair,
    _hyperbolic_margin,
    _sinc,
    squeeze_pair_exponent_coefficients,
)
# beamsplitter_UJ is bound here only because perfbench/run.py wraps protocols.beamsplitter_UJ
from .lie import apply_sectors, beamsplitter_UJ
from .report import Report, make_report
from .states import (
    coherent_closed_form, coherent_with_deficit, fidelity, occupation_expectations, phase_factors
)

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
    # the beamsplitter truncates by total occupation: guard the combined amplitude.
    # No input or output modulus exceeds it, the circuit keeping |a1|^2 + |a2|^2,
    # so this one warning covers every coherent state built below.
    tail_warning(math.hypot(inputs[0].modulus, inputs[1].modulus), cutoff, context=label)
    (k1, d1), (k2, d2) = (coherent_with_deficit(a, cutoff) for a in inputs)
    incoming, in_deficit = tensor_ket(k1, k2), max(d1, d2)
    ket = apply_sectors("su2", kappa, incoming)
    if phases is not None:
        t1, t2 = phases
        factors = np.outer(phase_factors(t1, cutoff), phase_factors(t2, cutoff)).reshape(-1)
        ket = Ket(ket.amplitudes * factors, 2, cutoff)
    output = ket.normalize()
    # the prediction is closed form, so that a wrong kernel cannot agree with itself
    predicted = tensor_ket(*(coherent_closed_form(out, cutoff) for out in outputs))
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


def _gaussian_exponential(
    coeffs: dict[str, complex], cutoff: Cutoff, keep: np.ndarray
) -> np.ndarray:
    """Safe block of exp(X), on the indices ``keep``, with no truncation, for
    the exponent X of ``squeeze_pair_exponent_coefficients``.

    X = (a†ᵀ A a† - aᵀ conj(A) a) / 2 has only pair terms, so exp(X) is a
    two-mode Gaussian; X is anti-Hermitian, so its creation terms, which give
    A, fix it.  With A A† = Q diag(s²) Q†, its normal-ordered form
    (Ma and Rhodes, Phys. Rev. A 41, 4625 (1990)) gives, at x = (conj(z), w),

        <0| e^{conj(z)·a} exp(X) e^{w·a†} |0> = C exp(xᵀ R x / 2),
        R = [[T, P], [Pᵀ, -conj(T)]],  T = Q diag(tanh s / s) Q† A,
        P = Q diag(sech s) Q†,  C = prod sech(s)^(1/2).

    The Fock entries G_k = <m1, m2|exp(X)|n1, n2>, k = (m1, m2, n1, n2), are
    its Taylor coefficients times sqrt(k!), so they obey
    G_{k+e_i} = sum_j R_ij sqrt(k_j) G_{k-e_j} / sqrt(k_i + 1) (Miatto and
    Quesada, Quantum 4, 366 (2020)), filled one axis at a time up to the
    largest safe occupation.  Every G_k is an entry of a unitary, so none
    exceeds one, and X = 0 gives the identity block exactly.
    """
    pair = coeffs["pair_create"]
    a = np.array([[2 * coeffs["a1dag2"], pair], [pair, 2 * coeffs["a2dag2"]]])
    s2, q = np.linalg.eigh(a @ a.conj().T)
    s = np.sqrt(np.maximum(s2, 0.0))
    shrink = np.ones_like(s)  # tanh(s) / s, which is 1 at s = 0
    np.divide(np.tanh(s), s, out=shrink, where=s > 0)
    t = (q * shrink) @ q.conj().T @ a
    p = (q / np.cosh(s)) @ q.conj().T
    r = np.block([[t, p], [p.T, -t.conj()]])

    i1, i2 = np.divmod(keep, cutoff.dim)
    size = int(i1.max()) + 1
    root = np.sqrt(np.arange(size))
    g = np.zeros((size,) * 4, dtype=complex)
    g[0, 0, 0, 0] = np.prod(1.0 / np.cosh(s)) ** 0.5
    for i in range(4):  # fill axis i: the axes before it are full, those after it at 0
        lead, rest = (slice(None),) * i, (0,) * (3 - i)
        column = root[1:].reshape((-1,) + (1,) * (i - 1))  # sqrt(k_j) along a slab axis
        for k in range(size - 1):
            slab = g[lead + (k,) + rest]
            step = r[i, i] * root[k] * g[lead + (k - 1,) + rest] if k else np.zeros_like(slab)
            for j in range(i):  # R_ij sqrt(k_j) G_{k-e_j}, from this slab
                np.moveaxis(step, j, 0)[1:] += r[i, j] * (column * np.moveaxis(slab, j, 0)[:-1])
            g[lead + (k + 1,) + rest] = step / root[k + 1]
    return g[i1[:, None], i2[:, None], i1, i2]


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

    # exp(X) is exact, while the conjugated pair is built on the truncated
    # space, so their safe blocks differ only by the conjugated side's truncation
    keep, conjugated, pair = _conjugated_squeeze_pair(beta1, beta2, kappa, cutoff, margin)
    exp_x = _gaussian_exponential(coeffs, cutoff, keep)
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

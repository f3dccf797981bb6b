"""State families on truncated Fock spaces and the fidelity metric."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .config import PERELOMOV_AMPLITUDE_BOUND

# _expm_array is bound here only because perfbench/run.py install_layers wraps
# its bindings outside fockforge.fock; no code in this package calls it
from .fock import (
    Cutoff,
    CutoffWarning,
    Ket,
    Operator,
    PolarParam,
    _STIRLING_FROM,
    _expm_array,
    _stirling_series,
    tail_warning,
)
# sector_blocks is read as lie.sector_blocks: lie is the one place it is bound
from . import lie
from .lie import SpinJ, SpinK, sector_operator


def vacuum(cutoff: Cutoff, modes: int = 1) -> Ket:
    amps = np.zeros(cutoff.dim ** modes, dtype=complex)
    amps[0] = 1.0
    return Ket(amps, modes, cutoff, normalized=True)


def displacement(alpha: PolarParam, cutoff: Cutoff) -> Operator:
    """Unitary exp(alpha a† - conj(alpha) a) on the sector kernel's Heisenberg-Weyl
    chain, which rejects unresolvable phases; warns when the tail rule fails.

    The library's dense form and the tests' second route: no command calls it,
    the checks reading D(alpha)'s safe blocks and chains from ``lie`` instead."""
    tail_warning(alpha.modulus, cutoff, context="displacement")
    return sector_operator("hw", alpha, cutoff)


def coherent_with_deficit(alpha: PolarParam, cutoff: Cutoff) -> tuple[Ket, float]:
    """Displaced vacuum, column 0 of the Heisenberg-Weyl chain's D(alpha),
    renormalized, plus the recorded truncation deficit.

    The truncated displacement stays exactly unitary, so the lost amplitude
    shows up as distortion rather than norm loss; the deficit is therefore
    measured on the closed-form expansion as the norm shortfall of its
    restriction to the cutoff. The deficit is the only report of the
    truncation: unlike ``coherent``, this raises no CutoffWarning, its callers
    guarding the cutoff for the amplitudes they combine.
    """
    # the closed form goes first: it rejects an amplitude too large to square
    deficit = abs(1.0 - coherent_series(alpha, cutoff).norm)
    (block,) = lie.sector_blocks("hw", alpha, cutoff)
    # entry k of W e^{-i|alpha| mu} W^T e_0 is (-i)^k times a real number, the
    # chain having a zero diagonal: its i^k is applied exactly and the real part
    # kept, so that a positive alpha gives an exactly real state
    k = np.arange(cutoff.dim)
    column = lie.real_times(block.vectors, block.spectrum * block.vectors[0])
    real = (np.array([1, 1j, -1, -1j])[k % 4] * column).real
    return Ket(real * np.exp(1j * alpha.phase * k), 1, cutoff).normalize(), deficit


def coherent(alpha: PolarParam, cutoff: Cutoff) -> Ket:
    """Displaced vacuum |alpha>; warns when the cutoff fails the tail rule."""
    ket, _ = coherent_with_deficit(alpha, cutoff)
    tail_warning(alpha.modulus, cutoff, context="displacement")
    return ket


def coherent_series(alpha: PolarParam, cutoff: Cutoff) -> Ket:
    """Closed-form coherent amplitudes e^{-|a|^2/2} a^n / sqrt(n!), untruncated
    values restricted to the cutoff (not renormalized).

    Independent of the matrix-exponential route; serves as its cross-check.
    Raises ValueError when |a|^2 overflows a float.
    """
    n = np.arange(cutoff.dim)
    if alpha.modulus == 0.0:
        return Ket(np.eye(cutoff.dim, dtype=complex)[0], 1, cutoff)
    mean = alpha.modulus * alpha.modulus
    if math.isinf(mean):
        raise ValueError(
            f"coherent amplitude |alpha| = {alpha.modulus:.4g} is too large: |alpha|^2 overflows"
        )
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(cutoff.dim)])
    log_mag = -0.5 * mean + n * math.log(alpha.modulus) - 0.5 * log_factorial
    amps = np.exp(log_mag) * np.exp(1j * n * alpha.phase)
    return Ket(amps, 1, cutoff, normalized=False)


def squeeze(z: PolarParam, cutoff: Cutoff) -> Operator:
    """Unitary exp((z (a†)^2 - conj(z) a^2) / 2), the su(1,1) boost
    exp(z K+ - conj(z) K-) of the quadratic realization K+ = (a†)^2/2,
    assembled from its even and odd parity chains; z = 0 is the exact identity.
    No command calls it: the checks read the parity chains by rows or on kets."""
    return sector_operator("squeeze", z, cutoff)


def phase_factors(t: float, cutoff: Cutoff) -> np.ndarray:
    """Diagonal of exp(i t N): e^{i t n} for n = 0 ... n_max."""
    return np.exp(1j * t * np.arange(cutoff.dim))


def phase_rotation(t: float, cutoff: Cutoff) -> Operator:
    """Diagonal unitary exp(i t N), built exactly entry by entry.

    The library's dense form and the tests' second route: no command calls it,
    the checks multiplying by ``phase_factors`` instead."""
    return Operator(np.diag(phase_factors(t, cutoff)), 1, cutoff)


def perelomov_su2(z: PolarParam, spin: SpinJ) -> Ket:
    """exp(z J+ - conj(z) J-) applied to the lowest-weight state, in closed form:
    sqrt(C(2J, n)) cos^(2J-n)|z| sin^n|z| e^{i n phase(z)}; exactly unit norm.
    The tan|z| form would flip sign past |z| = pi/2 and is infinite there.
    Magnitudes are taken in log space, since C(2J, n) overflows a float past
    2J = 1029, and z = 0 gives the exact lowest weight."""
    two_j, r = spin.two_j, z.modulus
    if r == 0.0:
        return Ket(np.eye(spin.dim, dtype=complex)[0], 1, Cutoff(two_j), normalized=True)
    n = np.arange(spin.dim)
    cos, sin = math.cos(r), math.sin(r)
    log_binom, binom = np.empty(spin.dim), 1
    for k in range(spin.dim):  # C(2J, k) exactly, as a Python integer
        log_binom[k] = math.log(binom)
        binom = binom * (two_j - k) // (k + 1)
    mags = np.exp(0.5 * log_binom + (two_j - n) * math.log(abs(cos)) + n * math.log(abs(sin)))
    # the signs of cos^(2J-n) and sin^n, which the logs drop
    mags *= math.copysign(1.0, cos) ** (two_j - n) * math.copysign(1.0, sin) ** n
    return Ket(mags * np.exp(1j * z.phase * n), 1, Cutoff(two_j), normalized=True)


def _log_rising_binomial(two_k: float, n: np.ndarray) -> np.ndarray:
    """log(Gamma(2K + n) / (n! Gamma(2K))), the log of C(2K - 1 + n, n), at
    integers n >= 0.  From n = _STIRLING_FROM on it is (n + 1/2) log1p((2K - 1)
    / (n + 1)) + (2K - 1)(log(n + 2K) - 1) plus the difference of Stirling's
    series, which keeps its digits at n ~ 1e16, where a difference of lgamma
    values has none left."""
    n = np.asarray(n, dtype=float)
    out = np.empty_like(n)
    small = n < _STIRLING_FROM
    out[small] = [math.lgamma(two_k + k) - math.lgamma(k + 1.0) for k in n[small]]
    big = n[~small]
    out[~small] = (
        (big + 0.5) * np.log1p((two_k - 1) / (big + 1))
        + (two_k - 1) * (np.log(big + two_k) - 1)
        + _stirling_series(big + two_k)
        - _stirling_series(big + 1)
    )
    return out - math.lgamma(two_k)


def su11_adequate_cutoff(z_abs: float, two_k: float) -> int:
    """Smallest truncation past the amplitude peak at which the closed-form
    boundary amplitude of the spin-K state (see perelomov_su11) lies below
    PERELOMOV_AMPLITUDE_BOUND, found by bisection.

    Raises ValueError when tanh|z| rounds to 1: the amplitudes then never decay.
    """
    if z_abs == 0.0:
        return 1
    rate = math.tanh(z_abs)
    if rate == 1.0:
        raise ValueError(f"su(1,1) state |z| = {z_abs:.4g} is too large: tanh|z| rounds to 1")
    log_rate, log_sech = math.log(rate), -math.log(math.cosh(z_abs))
    log_bound = math.log(PERELOMOV_AMPLITUDE_BOUND)

    def below(n: int) -> bool:
        log_binom = float(_log_rising_binomial(two_k, n))
        return 0.5 * log_binom + two_k * log_sech + n * log_rate < log_bound

    # the amplitudes fall from the peak on, where tanh^2|z| (2K + n) <= n + 1
    lo = max(0, math.ceil(two_k * math.sinh(z_abs) ** 2 - math.cosh(z_abs) ** 2))
    hi = lo + 1
    while not below(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if below(mid) else (mid, hi)
    return hi


def perelomov_su11(z: PolarParam, spin: SpinK) -> Ket:
    """exp(z K+ - conj(z) K-) applied to |K,0>, in closed form:
    sqrt(Gamma(2K+n) / (n! Gamma(2K))) sech^(2K)|z| tanh^n|z| e^{i n phase(z)},
    the untruncated amplitudes restricted to the spin's cutoff (not renormalized).

    Amplitudes decay like tanh(|z|)^n; warns when the cutoff leaves the
    amplitude at the boundary above the adequacy bound.
    """
    two_k = float(spin.two_k)
    if z.modulus > 0:
        needed = su11_adequate_cutoff(z.modulus, two_k)
        if spin.cutoff.n_max < needed:
            warnings.warn(
                f"cutoff inadequate for su(1,1) state: n_max={spin.cutoff.n_max} "
                f"< {needed} required for |z|={z.modulus:.4g}",
                CutoffWarning,
                stacklevel=2,
            )
    r = z.modulus
    if r == 0.0:
        return Ket(np.eye(spin.cutoff.dim, dtype=complex)[0], 1, spin.cutoff)
    n = np.arange(spin.cutoff.dim)
    # in log space: C(2K - 1 + n, n) overflows a float at large 2K and n
    log_mag = (
        0.5 * _log_rising_binomial(two_k, n)
        + n * math.log(math.tanh(r))
        - two_k * math.log(math.cosh(r))
    )
    return Ket(np.exp(log_mag) * np.exp(1j * z.phase * n), 1, spin.cutoff, normalized=False)


def fidelity(x: Ket, y: Ket) -> float:
    """|<x|y>|^2 with both vectors renormalized first."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    nx, ny = x.norm, y.norm
    if nx == 0.0 or ny == 0.0:
        raise ValueError("fidelity of the zero vector is undefined")
    overlap = np.vdot(x.amplitudes, y.amplitudes) / (nx * ny)
    # np.minimum keeps a NaN overlap NaN, where min(1.0, nan) would read 1.0
    return float(np.minimum(1.0, abs(overlap) ** 2))


def occupation_expectations(ket: Ket) -> tuple[float, ...]:
    """Mean occupation per mode, computed from the probability weights."""
    probs = np.abs(ket.amplitudes) ** 2
    total = probs.sum()
    if total == 0.0:
        raise ValueError("zero vector has no occupation statistics")
    probs = probs / total
    d = ket.cutoff.dim
    if ket.modes == 1:
        return (float(np.dot(np.arange(d), probs)),)
    grid = probs.reshape(d, d)
    n1 = float(np.dot(np.arange(d), grid.sum(axis=1)))
    n2 = float(np.dot(np.arange(d), grid.sum(axis=0)))
    return (n1, n2)

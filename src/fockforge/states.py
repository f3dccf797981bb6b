"""State families on truncated Fock spaces and the fidelity metric."""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.special import betaln, binom, gammaln

from .config import PERELOMOV_AMPLITUDE_BOUND
from .fock import (
    Cutoff,
    CutoffWarning,
    Ket,
    Operator,
    PolarParam,
    _expm_array,
    annihilation,
    dagger,
    tail_warning,
)
from .lie import SpinJ, SpinK, sector_operator


def vacuum(cutoff: Cutoff, modes: int = 1) -> Ket:
    amps = np.zeros(cutoff.dim ** modes, dtype=complex)
    amps[0] = 1.0
    return Ket(amps, modes, cutoff, normalized=True)


def number_state(n: int, cutoff: Cutoff) -> Ket:
    """Occupation eigenstate |n>, equal to (a†)^n/sqrt(n!) acting on vacuum."""
    if not 0 <= n <= cutoff.n_max:
        raise ValueError(f"occupation {n} outside [0, {cutoff.n_max}]")
    amps = np.zeros(cutoff.dim, dtype=complex)
    amps[n] = 1.0
    return Ket(amps, 1, cutoff, normalized=True)


def displacement(alpha: PolarParam, cutoff: Cutoff) -> Operator:
    """Unitary exp(alpha a† - conj(alpha) a) on the sector kernel's Heisenberg-Weyl
    chain, which rejects unresolvable phases; warns when the tail rule fails."""
    tail_warning(alpha.modulus, cutoff, context="displacement")
    return sector_operator("hw", alpha, cutoff, modes=1)


def coherent_with_deficit(alpha: PolarParam, cutoff: Cutoff) -> tuple[Ket, float]:
    """Displaced vacuum, renormalized, plus the recorded truncation deficit.

    The truncated displacement stays exactly unitary, so the lost amplitude
    shows up as distortion rather than norm loss; the deficit is therefore
    measured on the closed-form expansion as the norm shortfall of its
    restriction to the cutoff.
    """
    # the closed form goes first: it rejects an amplitude too large to square
    deficit = abs(1.0 - coherent_series(alpha, cutoff).norm)
    tail_warning(alpha.modulus, cutoff, context="displacement")
    # dense on purpose: perfbench keeps each protocol output, so faster states raise its peak RSS
    a = annihilation(cutoff)
    gen = alpha.value * dagger(a) - alpha.conj * a
    raw = Ket(_expm_array(gen.entries)[:, 0], 1, cutoff)
    return raw.normalize(), deficit


def coherent(alpha: PolarParam, cutoff: Cutoff) -> Ket:
    return coherent_with_deficit(alpha, cutoff)[0]


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
    log_mag = -0.5 * mean + n * math.log(alpha.modulus) - 0.5 * gammaln(n + 1)
    amps = np.exp(log_mag) * np.exp(1j * n * alpha.phase)
    return Ket(amps, 1, cutoff, normalized=False)


def squeeze(z: PolarParam, cutoff: Cutoff) -> Operator:
    """Unitary exp((z (a†)^2 - conj(z) a^2) / 2), the su(1,1) boost
    exp(z K+ - conj(z) K-) of the quadratic realization K+ = (a†)^2/2,
    assembled from its even and odd parity chains; z = 0 is the exact identity.
    """
    return sector_operator("su11", z, cutoff, modes=1)


def phase_factors(t: float, cutoff: Cutoff) -> np.ndarray:
    """Diagonal of exp(i t N): e^{i t n} for n = 0 ... n_max."""
    return np.exp(1j * t * np.arange(cutoff.dim))


def phase_rotation(t: float, cutoff: Cutoff) -> Operator:
    """Diagonal unitary exp(i t N), built exactly entry by entry."""
    return Operator(np.diag(phase_factors(t, cutoff)), 1, cutoff)


def perelomov_su2(z: PolarParam, spin: SpinJ) -> Ket:
    """exp(z J+ - conj(z) J-) applied to the lowest-weight state, in closed form:
    sqrt(C(2J, n)) cos^(2J-n)|z| sin^n|z| e^{i n phase(z)}; exactly unit norm.
    The tan|z| form would flip sign past |z| = pi/2 and is infinite there."""
    n = np.arange(spin.dim)
    r = z.modulus
    # real magnitudes times phases, so that z = 0 gives the exact lowest weight
    mags = np.sqrt(binom(spin.two_j, n)) * math.cos(r) ** (spin.two_j - n) * math.sin(r) ** n
    return Ket(mags * np.exp(1j * z.phase * n), 1, Cutoff(spin.two_j), normalized=True)


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
        # Gamma(2K+n) / (n! Gamma(2K)) = 1 / ((2K+n) B(2K, n+1)); betaln keeps its
        # digits at n ~ 1e16, where a difference of gammaln values has none left
        log_binom = -math.log(two_k + n) - betaln(two_k, n + 1)
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
    n = np.arange(spin.cutoff.dim)
    r = z.modulus
    mags = np.sqrt(binom(two_k - 1 + n, n)) * math.tanh(r) ** n / math.cosh(r) ** two_k
    return Ket(mags * np.exp(1j * z.phase * n), 1, spin.cutoff, normalized=False)


def squeezed_coherent(beta: PolarParam, alpha: PolarParam, cutoff: Cutoff) -> Ket:
    """S(beta) D(alpha) |0>, renormalized after truncation."""
    displaced = displacement(alpha, cutoff).apply(vacuum(cutoff))
    return squeeze(beta, cutoff).apply(displaced).normalize()


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

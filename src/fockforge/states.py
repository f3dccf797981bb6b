"""State families on truncated Fock spaces and the fidelity metric."""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.special import binom, gammaln

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


def su11_adequate_cutoff(z_abs: float, bound: float = PERELOMOV_AMPLITUDE_BOUND) -> int:
    """Smallest truncation with tanh(|z|)^n_max below the amplitude bound."""
    if z_abs == 0.0:
        return 1
    rate = math.tanh(z_abs)
    return max(1, math.ceil(math.log(bound) / math.log(rate)))


def perelomov_su11(z: PolarParam, spin: SpinK) -> Ket:
    """exp(z K+ - conj(z) K-) applied to |K,0>, in closed form:
    sqrt(Gamma(2K+n) / (n! Gamma(2K))) sech^(2K)|z| tanh^n|z| e^{i n phase(z)},
    the untruncated amplitudes restricted to the spin's cutoff (not renormalized).

    Amplitudes decay like tanh(|z|)^n; warns when the cutoff leaves the
    amplitude at the boundary above the adequacy bound.
    """
    if z.modulus > 0:
        needed = su11_adequate_cutoff(z.modulus)
        if spin.cutoff.n_max < needed:
            warnings.warn(
                f"cutoff inadequate for su(1,1) state: n_max={spin.cutoff.n_max} "
                f"< {needed} required for |z|={z.modulus:.4g}",
                CutoffWarning,
                stacklevel=2,
            )
    n = np.arange(spin.cutoff.dim)
    two_k = float(spin.two_k)
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

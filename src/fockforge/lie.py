"""Finite spin-J su(2) and truncated spin-K su(1,1) representations.

Includes the two-mode (Schwinger boson) realizations and the single-mode
quadratic realization of su(1,1), all as dense matrices on truncated spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import _guard_cosh
from .fock import Cutoff, Operator, PolarParam, annihilation, dagger, expm, identity, number, tensor


@dataclass(frozen=True)
class SpinJ:
    """su(2) spin label stored as 2J, so half-integral spins stay exact."""

    two_j: int

    def __post_init__(self):
        if not isinstance(self.two_j, int) or self.two_j < 1:
            raise ValueError("two_j must be a positive integer")

    @property
    def j(self) -> Fraction:
        return Fraction(self.two_j, 2)

    @property
    def dim(self) -> int:
        return self.two_j + 1


@dataclass(frozen=True)
class SpinK:
    """su(1,1) spin label (positive rational, stored as 2K) plus a truncation."""

    two_k: Fraction
    cutoff: Cutoff

    def __post_init__(self):
        object.__setattr__(self, "two_k", Fraction(self.two_k))
        if self.two_k <= 0:
            raise ValueError("two_k must be positive")

    @property
    def k(self) -> Fraction:
        return self.two_k / 2


@dataclass(frozen=True)
class LieTriple:
    """Raising/lowering/diagonal generator triple with minus = dagger(plus)."""

    plus: Operator
    minus: Operator
    third: Operator
    algebra: str

    def __post_init__(self):
        if self.algebra not in ("su2", "su11"):
            raise ValueError("algebra must be 'su2' or 'su11'")
        gap = np.max(np.abs(self.minus.entries - self.plus.entries.conj().T))
        if gap > 1e-12:
            raise ValueError("minus is not the dagger of plus")


def su2_generators(spin: SpinJ) -> LieTriple:
    """Spin-J matrices: J+|n> = sqrt((n+1)(2J-n))|n+1>, J3|n> = (-J+n)|n>."""
    two_j = spin.two_j
    d = spin.dim
    jp = np.zeros((d, d), dtype=complex)
    for n in range(d - 1):
        jp[n + 1, n] = math.sqrt((n + 1) * (two_j - n))
    j3 = np.diag(np.arange(d) - two_j / 2).astype(complex)
    cut = Cutoff(two_j)
    plus = Operator(jp, 1, cut)
    return LieTriple(plus, dagger(plus), Operator(j3, 1, cut), "su2")


def su11_generators(spin: SpinK) -> LieTriple:
    """Truncated spin-K matrices: K+|n> = sqrt((n+1)(2K+n))|n+1>, K3|n> = (K+n)|n>."""
    two_k = float(spin.two_k)
    d = spin.cutoff.dim
    kp = np.zeros((d, d), dtype=complex)
    for n in range(d - 1):
        kp[n + 1, n] = math.sqrt((n + 1) * (two_k + n))
    k3 = np.diag(two_k / 2 + np.arange(d)).astype(complex)
    plus = Operator(kp, 1, spin.cutoff)
    return LieTriple(plus, dagger(plus), Operator(k3, 1, spin.cutoff), "su11")


def schwinger_su2(cutoff: Cutoff) -> LieTriple:
    """Two-mode boson realization J+ = a1†a2, J3 = (N1 - N2)/2."""
    a = annihilation(cutoff)
    ad = dagger(a)
    n_op = number(cutoff)
    eye = identity(cutoff)
    plus = tensor(ad, a)
    third = 0.5 * (tensor(n_op, eye) - tensor(eye, n_op))
    return LieTriple(plus, dagger(plus), third, "su2")


def schwinger_su11(cutoff: Cutoff) -> LieTriple:
    """Two-mode boson realization K+ = a1†a2†, K3 = (N1 + N2 + 1)/2."""
    a = annihilation(cutoff)
    ad = dagger(a)
    n_op = number(cutoff)
    eye = identity(cutoff)
    plus = tensor(ad, ad)
    third = 0.5 * (tensor(n_op, eye) + tensor(eye, n_op) + identity(cutoff, modes=2))
    return LieTriple(plus, dagger(plus), third, "su11")


def beamsplitter_UJ(kappa: PolarParam, cutoff: Cutoff) -> Operator:
    """Two-mode unitary exp(kappa a1†a2 - conj(kappa) a2†a1), the su(2)
    rotation exp(kappa J+ - conj(kappa) J-) of the Schwinger realization.

    Preserves total occupation exactly and fixes the two-mode vacuum.
    """
    a = annihilation(cutoff)
    ad = dagger(a)
    gen = kappa.value * tensor(ad, a) - kappa.conj * tensor(a, ad)
    return expm(gen)


def two_mode_squeezer_UK(kappa: PolarParam, cutoff: Cutoff) -> Operator:
    """Two-mode unitary exp(kappa a1†a2† - conj(kappa) a2a1), the su(1,1)
    boost exp(kappa K+ - conj(kappa) K-) of the Schwinger realization; creates
    and destroys photon pairs, preserving the occupation difference."""
    _guard_cosh(kappa.modulus, "kappa")
    a = annihilation(cutoff)
    ad = dagger(a)
    gen = kappa.value * tensor(ad, ad) - kappa.conj * tensor(a, a)
    return expm(gen)


def single_mode_su11(cutoff: Cutoff) -> LieTriple:
    """Quadratic realization K+ = a†a†/2, K3 = (a†a + 1/2)/2.

    Acts with spin 1/4 on the even occupation subspace and 3/4 on the odd one;
    one ladder step moves the occupation by two, so safe margins for this
    triple count in pairs of Fock levels.
    """
    a = annihilation(cutoff)
    ad = dagger(a)
    plus = 0.5 * (ad @ ad)
    third = 0.5 * (number(cutoff) + 0.5 * identity(cutoff))
    return LieTriple(plus, dagger(plus), third, "su11")


def pochhammer(a: float, n: int) -> float:
    """Rising factorial a(a+1)...(a+n-1) by forward recurrence.

    Above n = 120 the recurrence would overflow long before the log-space
    route does, so it switches to exp(lgamma(a+n) - lgamma(a)).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    a = float(a)
    if n > 120:
        if a <= 0:
            raise ValueError("log-space route requires a > 0")
        try:
            return math.exp(math.lgamma(a + n) - math.lgamma(a))
        except OverflowError:
            return math.inf
    out = 1.0
    for i in range(n):
        out *= a + i
    return out

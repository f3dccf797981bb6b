"""Dense second routes the tests compare the package against.

No command needs these: the package conjugates on safe rows chain by chain,
builds coherent states on the Heisenberg-Weyl chain and applies the two-mode
squeezer sector by sector.  Here they are the plain dense forms of the same
objects.
"""

import numpy as np

from fockforge import Cutoff, Ket, Operator, PolarParam, displacement, squeeze, vacuum
from fockforge.fock import safe_indices
from fockforge.lie import sector_operator

# Frobenius bound on U†U - I for an operator conjugate_by accepts as unitary
UNITARITY_TOL = 1e-10


def conjugate_by(u: Operator, a: Operator) -> Operator:
    """U A U† for unitary U; rejects U that fails UNITARITY_TOL."""
    u._check_compatible(a)
    defect = np.linalg.norm(u.entries.conj().T @ u.entries - np.eye(u.dim), "fro")
    if defect > UNITARITY_TOL:
        raise ValueError(f"conjugating operator is not unitary (defect {defect:.2e})")
    return Operator(u.entries @ a.entries @ u.entries.conj().T, u.modes, u.cutoff)


def safe_projector(cutoff: Cutoff, margin: int, modes: int = 1) -> Operator:
    """Orthogonal projector onto the safe subspace (see safe_indices)."""
    dim = cutoff.dim ** modes
    diag = np.zeros(dim)
    diag[safe_indices(cutoff, margin, modes)] = 1.0
    return Operator(np.diag(diag).astype(complex), modes, cutoff)


def residual(a: Operator, b: Operator, margin: int) -> float:
    """Frobenius norm of P (A - B) P with P the safe projector at ``margin``.

    Computed by slicing the safe block directly, which is identical to the
    projected norm for a 0/1 diagonal projector.
    """
    a._check_compatible(b)
    keep = safe_indices(a.cutoff, margin, a.modes)
    block = (a.entries - b.entries)[np.ix_(keep, keep)]
    return float(np.linalg.norm(block, "fro"))


def number_state(n: int, cutoff: Cutoff) -> Ket:
    """Occupation eigenstate |n>, equal to (a†)^n/sqrt(n!) acting on vacuum."""
    if not 0 <= n <= cutoff.n_max:
        raise ValueError(f"occupation {n} outside [0, {cutoff.n_max}]")
    amps = np.zeros(cutoff.dim, dtype=complex)
    amps[n] = 1.0
    return Ket(amps, 1, cutoff, normalized=True)


def squeezed_coherent(beta: PolarParam, alpha: PolarParam, cutoff: Cutoff) -> Ket:
    """S(beta) D(alpha) |0>, renormalized after truncation."""
    displaced = displacement(alpha, cutoff).apply(vacuum(cutoff))
    return squeeze(beta, cutoff).apply(displaced).normalize()


def two_mode_squeezer_UK(kappa: PolarParam, cutoff: Cutoff) -> Operator:
    """Two-mode unitary exp(kappa a1†a2† - conj(kappa) a2a1), the su(1,1)
    boost exp(kappa K+ - conj(kappa) K-) of the Schwinger realization,
    assembled from its fixed-(n1 - n2) sectors; creates and destroys photon
    pairs, preserving the occupation difference.  Guarded by the cosh bound."""
    return sector_operator("su11", kappa, cutoff)

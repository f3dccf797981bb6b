"""Dense second routes the tests compare the package against.

No command needs these: the package conjugates on safe rows chain by chain,
builds coherent states on the Heisenberg-Weyl chain and applies the two-mode
squeezer sector by sector.  Here they are the plain dense forms of the same
objects, and ``assembled_operator`` writes the sector kernel's blocks into the
whole matrix without ``safe_block``.  The ladder operators, the number
operator, the identity and the Kronecker product build the Schwinger and
single-mode generators as the paper writes them (a1†a2, a1†a2†, a†a†/2), the
route that the package's generators, scattered from its chains, are compared to.
"""

import numpy as np

from fockforge import Cutoff, Ket, Operator, PolarParam, displacement, squeeze, vacuum
from fockforge.fock import ladder_weights, safe_indices
from fockforge.lie import MODES, sector_blocks, sector_operator


def annihilation(cutoff: Cutoff) -> Operator:
    """Single-mode lowering operator: entry (n-1, n) = sqrt(n)."""
    a = np.diag(ladder_weights(cutoff), k=1).astype(complex)
    return Operator(a, 1, cutoff)


def dagger(op: Operator) -> Operator:
    """Conjugate transpose."""
    return Operator(op.entries.conj().T.copy(), op.modes, op.cutoff)


def number(cutoff: Cutoff) -> Operator:
    """Occupation-number operator diag(0, 1, ..., n_max)."""
    return Operator(np.diag(np.arange(cutoff.dim, dtype=float)).astype(complex), 1, cutoff)


def identity(cutoff: Cutoff, modes: int = 1) -> Operator:
    return Operator(np.eye(cutoff.dim ** modes, dtype=complex), modes, cutoff)


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product with the first factor major: (i,j) -> i*dim + j."""
    if a.cutoff != b.cutoff:
        raise ValueError("tensor factors must share a cutoff")
    if a.modes != 1 or b.modes != 1:
        raise ValueError("tensor is defined for single-mode factors only")
    return Operator(np.kron(a.entries, b.entries), 2, a.cutoff)


# Frobenius bound on U†U - I for an operator conjugate_by accepts as unitary
UNITARITY_TOL = 1e-10


def assembled_operator(realization: str, kappa: PolarParam, cutoff: Cutoff) -> Operator:
    """Dense exp(kappa X+ - conj(kappa) X-), each chain's whole block from
    ``sector_blocks`` written at its own indices, one chain after another."""
    modes = MODES[realization]
    out = np.zeros((cutoff.dim ** modes,) * 2, dtype=complex)
    for block in sector_blocks(realization, kappa, cutoff):
        out[np.ix_(block.index, block.index)] = block.matrix()
    return Operator(out, modes, cutoff)


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
    return Ket(amps, 1, cutoff)


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

"""Finite spin-J su(2) and truncated spin-K su(1,1) representations.

Includes the two-mode (Schwinger boson) realizations and the single-mode
quadratic realization of su(1,1), all as dense matrices on truncated spaces,
and the sector kernel that exponentiates these realizations one conserved
chain at a time, whole, on a ket, or on the rows of a safe block.  The
kernel also carries the Heisenberg-Weyl chain X+ = a†, whose exponential is
the displacement D(alpha) = exp(alpha a† - conj(alpha) a).  Inside
``solve_each_chain_once`` every distinct chain is diagonalized once.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import DEFAULT_TOLERANCES, _guard_cosh
from .fock import Cutoff, Ket, Operator, PolarParam, annihilation, dagger, identity, number, tensor


@dataclass(frozen=True)
class SpinJ:
    """su(2) spin label stored as 2J, so half-integral spins stay exact."""

    two_j: int

    def __post_init__(self):
        if not isinstance(self.two_j, int) or self.two_j < 1:
            raise ValueError("two_j must be a positive integer")

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

    def closure_residual(self, keep: np.ndarray) -> float:
        """Worst Frobenius residual on the kept indices of the three brackets
        [X3, X+] = X+, [X3, X-] = -X- and [X+, X-] = 2 X3 (su2) or -2 X3 (su11)."""
        plus, minus, third = self.plus.entries, self.minus.entries, self.third.entries
        sign = 1.0 if self.algebra == "su2" else -1.0
        rels = (
            third @ plus - plus @ third - plus,
            third @ minus - minus @ third + minus,
            plus @ minus - minus @ plus - sign * 2.0 * third,
        )
        return max(float(np.linalg.norm(r[np.ix_(keep, keep)], "fro")) for r in rels)


def _chain_triple(
    ladder: np.ndarray, diagonal: np.ndarray, cutoff: Cutoff, algebra: str
) -> LieTriple:
    """Triple of one abstract chain: X+|n> = ladder[n]|n+1>, X3 = diag(diagonal)."""
    plus = Operator(np.diag(ladder, k=-1).astype(complex), 1, cutoff)
    third = Operator(np.diag(diagonal).astype(complex), 1, cutoff)
    return LieTriple(plus, dagger(plus), third, algebra)


def su2_generators(spin: SpinJ) -> LieTriple:
    """Spin-J matrices: J+|n> = sqrt((n+1)(2J-n))|n+1>, J3|n> = (-J+n)|n>."""
    two_j = spin.two_j
    n = np.arange(spin.dim)
    ladder = np.sqrt((n[:-1] + 1) * (two_j - n[:-1]))
    return _chain_triple(ladder, n - two_j / 2, Cutoff(two_j), "su2")


def su11_generators(spin: SpinK) -> LieTriple:
    """Truncated spin-K matrices: K+|n> = sqrt((n+1)(2K+n))|n+1>, K3|n> = (K+n)|n>."""
    two_k = float(spin.two_k)
    n = np.arange(spin.cutoff.dim)
    ladder = np.sqrt((n[:-1] + 1) * (two_k + n[:-1]))
    return _chain_triple(ladder, two_k / 2 + n, spin.cutoff, "su11")


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


@dataclass(frozen=True)
class SectorBlock:
    """exp(r(e^{i phi} X+ - e^{-i phi} X-)) on one conserved chain of a
    realization, kept factored as P W e^{-i r mu} W^T P^dagger.

    ``index`` holds the chain's flat indices into the one- or two-mode space,
    in chain order.  S = W mu W^T is the real symmetric tridiagonal matrix of
    the ladder coefficients and P = diag(e^{i k (phi + pi/2)}), k the chain
    position, so that P^dagger (e^{i phi} X+ - e^{-i phi} X-) P = -i S.
    """

    index: np.ndarray
    phase: np.ndarray
    vectors: np.ndarray
    spectrum: np.ndarray

    def matrix(self, keep: np.ndarray | slice = slice(None)) -> np.ndarray:
        """The block as a dense matrix, or only its [keep, keep] sub-block,
        ``keep`` counting chain positions."""
        phase, vectors = self.phase[keep], self.vectors[keep]
        left = phase[:, None] * vectors * self.spectrum
        return left @ (vectors.T * phase.conj())

    def apply(self, v: np.ndarray) -> np.ndarray:
        w = self.vectors.T @ (self.phase.conj() * v)
        return self.phase * (self.vectors @ (self.spectrum * w))


def sector_chains(
    algebra: str, cutoff: Cutoff, modes: int = 2
) -> Iterator[tuple[np.ndarray, ...]]:
    """Conserved chains of a realization at this cutoff.

    Yields the chain's occupations, one array per mode, then ``ladder``, whose
    entry k is the X+ coefficient from chain position k to k+1.

    Two modes (Schwinger realizations):
      su2:  sectors N = n1 + n2 = 0 ... 2 n_max, ladder sqrt((n1+1) n2); a
            sector with N > n_max is the truncated chain n1 in [N - n_max, n_max].
      su11: sectors D = n1 - n2 = -n_max ... n_max, ladder sqrt((n1+1)(n2+1)).
    One mode:
      hw:   the Heisenberg-Weyl chain X+ = a†, one chain n = 0 ... n_max with
            ladder sqrt(n+1); its exponential is the displacement.
      su11: the quadratic realization K+ = a†a†/2, parity chains
            n = p, p+2, ... <= n_max, ladder sqrt((n+1)(n+2))/2.
    """
    n = cutoff.n_max
    if modes == 1:
        if algebra == "hw":
            occ = np.arange(n + 1)
            yield occ, np.sqrt(occ[:-1] + 1.0)
            return
        if algebra != "su11":
            raise ValueError("the single-mode realizations are 'hw' and 'su11'")
        for parity in (0, 1):
            occ = np.arange(parity, n + 1, 2)
            yield occ, 0.5 * np.sqrt((occ[:-1] + 1.0) * (occ[:-1] + 2.0))
    elif modes != 2:
        raise ValueError("modes must be 1 or 2")
    elif algebra == "su2":
        for total in range(2 * n + 1):
            n1 = np.arange(max(0, total - n), min(total, n) + 1)
            n2 = total - n1
            yield n1, n2, np.sqrt((n1[:-1] + 1.0) * n2[:-1])
    elif algebra == "su11":
        for diff in range(-n, n + 1):
            n1 = np.arange(max(0, diff), n + min(0, diff) + 1)
            n2 = n1 - diff
            yield n1, n2, np.sqrt((n1[:-1] + 1.0) * (n2[:-1] + 1.0))
    else:
        raise ValueError("the two-mode realizations are 'su2' and 'su11'")


# ladder bytes -> read-only (mu, W) of that chain; None outside solve_each_chain_once
_chain_solves: ContextVar[dict[bytes, tuple[np.ndarray, np.ndarray]] | None] = ContextVar(
    "chain_solves", default=None
)


@contextmanager
def solve_each_chain_once() -> Iterator[None]:
    """Within this block, sector_blocks diagonalizes each distinct chain once
    and shares its read-only (mu, W) between calls; on exit they are dropped.
    A nested block shares the outer one's solves."""
    outer = _chain_solves.get()
    token = _chain_solves.set({} if outer is None else outer)
    try:
        yield
    finally:
        _chain_solves.reset(token)


def eigh_tridiagonal(diagonal: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors (columns) of the real
    symmetric tridiagonal matrix with this diagonal and off-diagonal, from a
    dense ``numpy.linalg.eigh``: a chain has at most n_max + 1 positions."""
    return np.linalg.eigh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))


def _chain_eigensystem(ladder: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, W) of the zero-diagonal symmetric tridiagonal matrix of ``ladder``."""
    solves, key = _chain_solves.get(), ladder.tobytes()
    if solves is not None and key in solves:
        return solves[key]
    mu, w = eigh_tridiagonal(np.zeros(ladder.size + 1), ladder)
    if solves is not None:
        mu.flags.writeable = w.flags.writeable = False
        solves[key] = mu, w
    return mu, w


def sector_blocks(
    algebra: str,
    kappa: PolarParam,
    cutoff: Cutoff,
    modes: int = 2,
    meets: np.ndarray | None = None,
) -> list[SectorBlock]:
    """The blocks of exp(kappa X+ - conj(kappa) X-), one per conserved chain,
    or only the chains through the flat indices ``meets``; two-mode su(1,1)
    parameters must pass the cosh guard.  kappa = 0 gives exact identity
    blocks, with no eigensolve.  A chain's phases e^{-i |kappa| mu} carry an
    error of about |kappa| max|mu| eps, eps the machine epsilon; past the
    identity-residual tolerance this raises ValueError, since the block would
    be finite and unitary but meaningless."""
    if algebra == "su11" and modes == 2:
        _guard_cosh(kappa.modulus, "kappa")
    turn = kappa.phase + math.pi / 2
    shape = (cutoff.dim,) * modes
    if meets is not None:
        hit = np.zeros(cutoff.dim ** modes, dtype=bool)
        hit[meets] = True
    blocks = []
    for *occ, ladder in sector_chains(algebra, cutoff, modes):
        index = np.ravel_multi_index(tuple(occ), shape)
        if meets is not None and not hit[index].any():
            continue
        size = ladder.size + 1
        if kappa.modulus == 0.0:
            ones = np.ones(size, dtype=complex)
            blocks.append(SectorBlock(index, ones, np.eye(size), ones))
            continue
        mu, w = _chain_eigensystem(ladder)
        # mu comes back ascending, so its largest modulus is max(-mu[0], mu[-1])
        phase_error = kappa.modulus * max(-mu[0], mu[-1]) * np.finfo(float).eps
        if phase_error > DEFAULT_TOLERANCES.identity_residual:
            raise ValueError(
                f"{algebra} parameter |kappa| = {kappa.modulus:.4g} is too large: "
                f"a float cannot resolve the chain phases at n_max={cutoff.n_max}"
            )
        phase = np.exp(1j * turn * np.arange(size))
        blocks.append(SectorBlock(index, phase, w, np.exp(-1j * kappa.modulus * mu)))
    return blocks


def sector_operator(algebra: str, kappa: PolarParam, cutoff: Cutoff, modes: int = 2) -> Operator:
    """Dense exp(kappa X+ - conj(kappa) X-) assembled from its sector blocks."""
    dim = cutoff.dim ** modes
    out = np.zeros((dim, dim), dtype=complex)
    for block in sector_blocks(algebra, kappa, cutoff, modes):
        out[np.ix_(block.index, block.index)] = block.matrix()
    return Operator(out, modes, cutoff)


def safe_rows(
    algebra: str, kappa: PolarParam, cutoff: Cutoff, keep: np.ndarray, modes: int = 2
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rows ``keep`` of the one- or two-mode exp(kappa X+ - conj(kappa) X-),
    chain by chain, from the chains that meet ``keep`` only.

    Each entry is ``(at, index, rows)``: ``index`` the chain's flat indices in
    chain order, ``at`` those of them in ``keep``, and ``rows`` the dense
    |at| x |index| rows of the chain's block there.  Every other entry of the
    rows vanishes.  On a safe block (complete sectors n1 + n2 <= cap) the su2
    chains through ``keep`` lie inside it; the su11 chains through it run on
    up to the cutoff.
    """
    inside = np.zeros(cutoff.dim ** modes, dtype=bool)
    inside[keep] = True
    out = []
    for block in sector_blocks(algebra, kappa, cutoff, modes, meets=keep):
        hit = inside[block.index]
        left = block.phase[hit, None] * block.vectors[hit] * block.spectrum
        rows = left @ (block.vectors.T * block.phase.conj())
        out.append((block.index[hit], block.index, rows))
    return out


def apply_sectors(algebra: str, kappa: PolarParam, ket: Ket) -> Ket:
    """exp(kappa X+ - conj(kappa) X-) applied to a two-mode ket chain by chain,
    without forming the d^2 x d^2 matrix."""
    if ket.modes != 2:
        raise ValueError("apply_sectors acts on two-mode kets")
    amps = ket.amplitudes
    out = np.empty_like(amps)
    for block in sector_blocks(algebra, kappa, ket.cutoff):
        out[block.index] = block.apply(amps[block.index])
    return Ket(out, 2, ket.cutoff)


def beamsplitter_UJ(kappa: PolarParam, cutoff: Cutoff) -> Operator:
    """Two-mode unitary exp(kappa a1†a2 - conj(kappa) a2†a1), the su(2)
    rotation exp(kappa J+ - conj(kappa) J-) of the Schwinger realization,
    assembled from its total-occupation sectors.

    Preserves total occupation exactly and fixes the two-mode vacuum.
    """
    return sector_operator("su2", kappa, cutoff)


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

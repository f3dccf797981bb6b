"""Finite spin-J su(2) and truncated spin-K su(1,1) representations.

Includes the two-mode (Schwinger boson) realizations and the single-mode
quadratic realization of su(1,1), all as dense matrices on truncated spaces,
and the sector kernel that exponentiates four realizations one conserved
chain at a time, on a safe block's rows (``safe_rows``, ``safe_block``, and
at every row the whole ``sector_operator``, which no command builds) or on a
ket or a stack of columns (``apply_sectors``, ``sector_product``): "hw", the
Heisenberg-Weyl X+ = a†, whose exponential is the displacement; "squeeze",
K+ = a†a†/2; and Schwinger's "su2", J+ = a1†a2, and "su11", K+ = a1†a2†.
Inside ``solve_each_chain_once`` every distinct chain is diagonalized once.
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


def real_times(real: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``real @ z`` for a real matrix and a complex vector or (n, k) column
    stack, as one float64 product on z's float view (n, 2k): numpy would
    otherwise cast ``real`` to complex on every call."""
    z = np.ascontiguousarray(z, dtype=complex)
    pairs = real @ z.view(float).reshape(z.shape[0], -1)
    return pairs.view(complex).reshape(real.shape[:1] + z.shape[1:])


@dataclass(frozen=True)
class SectorBlock:
    """exp(r(e^{i phi} X+ - e^{-i phi} X-)) on one conserved chain of a
    realization, kept factored as P W e^{-i r mu} W^T P^dagger.

    ``index`` holds the chain's flat indices into the one- or two-mode space,
    in chain order.  S = W mu W^T is the real symmetric tridiagonal matrix of
    the ladder coefficients and P = diag(e^{i k (phi + pi/2)}), k the chain
    position, so that P^dagger (e^{i phi} X+ - e^{-i phi} X-) P = -i S.
    W (``vectors``) stays real: ``apply`` multiplies it into complex columns
    through ``real_times``, and only ``matrix`` forms complex products.
    """

    index: np.ndarray
    phase: np.ndarray
    vectors: np.ndarray
    spectrum: np.ndarray

    def matrix(self, rows=slice(None)) -> np.ndarray:
        """Rows ``rows`` of the block as a dense matrix, counting chain
        positions; by default the whole block."""
        # complex, not real_times: a real GEMM need not give a row the same
        # bits when another set of rows is asked for, and matrix(rows) must
        # be matrix()[rows] bit for bit, as the dense-route tests assume
        left = self.phase[rows, None] * self.vectors[rows] * self.spectrum
        return left @ (self.vectors.T * self.phase.conj())

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The block times a chain vector, or times each column of a
        (chain, k) stack."""
        phase, spectrum = self.phase, self.spectrum
        if v.ndim > 1:  # every column of the stack takes the same factors
            phase, spectrum = phase[:, None], spectrum[:, None]
        w = real_times(self.vectors.T, phase.conj() * v)
        return phase * real_times(self.vectors, spectrum * w)


# each realization of the sector kernel and its number of modes
MODES = {"hw": 1, "squeeze": 1, "su2": 2, "su11": 2}


def _modes(realization: str) -> int:
    if realization not in MODES:
        raise ValueError(f"unknown realization {realization!r}: expected one of {', '.join(MODES)}")
    return MODES[realization]


def sector_chains(realization: str, cutoff: Cutoff) -> Iterator[tuple[np.ndarray, ...]]:
    """Conserved chains of a realization at this cutoff.

    Yields the chain's occupations, one array per mode, then ``ladder``, whose
    entry k is the X+ coefficient from chain position k to k+1.

      hw:      the Heisenberg-Weyl chain X+ = a†, one chain n = 0 ... n_max
               with ladder sqrt(n+1); its exponential is the displacement.
      squeeze: the single-mode su(1,1) K+ = a†a†/2, parity chains
               n = p, p+2, ... <= n_max, ladder sqrt((n+1)(n+2))/2.
      su2:     J+ = a1†a2, sectors N = n1 + n2 = 0 ... 2 n_max, ladder
               sqrt((n1+1) n2); a sector with N > n_max is the truncated chain
               n1 in [N - n_max, n_max].
      su11:    K+ = a1†a2†, sectors D = n1 - n2 = -n_max ... n_max, ladder
               sqrt((n1+1)(n2+1)).
    """
    _modes(realization)
    n = cutoff.n_max
    if realization == "hw":
        occ = np.arange(n + 1)
        yield occ, np.sqrt(occ[:-1] + 1.0)
    elif realization == "squeeze":
        for parity in (0, 1):
            occ = np.arange(parity, n + 1, 2)
            yield occ, 0.5 * np.sqrt((occ[:-1] + 1.0) * (occ[:-1] + 2.0))
    elif realization == "su2":
        for total in range(2 * n + 1):
            n1 = np.arange(max(0, total - n), min(total, n) + 1)
            n2 = total - n1
            yield n1, n2, np.sqrt((n1[:-1] + 1.0) * n2[:-1])
    else:
        for diff in range(-n, n + 1):
            n1 = np.arange(max(0, diff), n + min(0, diff) + 1)
            n2 = n1 - diff
            yield n1, n2, np.sqrt((n1[:-1] + 1.0) * (n2[:-1] + 1.0))


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


def eigh_tridiagonal(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors (columns) of the real
    symmetric tridiagonal matrix with a zero diagonal and this off-diagonal,
    from a dense ``numpy.linalg.eigh``: a chain has at most n_max + 1 positions."""
    return np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))


def _chain_eigensystem(ladder: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, W) of the zero-diagonal symmetric tridiagonal matrix of ``ladder``."""
    solves, key = _chain_solves.get(), ladder.tobytes()
    if solves is not None and key in solves:
        return solves[key]
    mu, w = eigh_tridiagonal(ladder)
    if solves is not None:
        mu.flags.writeable = w.flags.writeable = False
        solves[key] = mu, w
    return mu, w


# machine epsilon, read by sector_blocks' phase-error bound
_EPS = np.finfo(float).eps


def sector_blocks(
    realization: str, kappa: PolarParam, cutoff: Cutoff, meets: np.ndarray | None = None
) -> list[SectorBlock]:
    """The blocks of exp(kappa X+ - conj(kappa) X-), one per conserved chain,
    or only the chains through a flat index that the boolean mask ``meets``
    sets; two-mode su(1,1) parameters must pass the cosh guard.  kappa = 0
    gives exact identity blocks, with no eigensolve.  A chain's phases
    e^{-i |kappa| mu} carry an error of about |kappa| max|mu| eps, eps the
    machine epsilon; past the identity-residual tolerance this raises
    ValueError, since the block would be finite and unitary but meaningless."""
    if realization == "su11":
        _guard_cosh(kappa.modulus, "kappa")
    turn = kappa.phase + math.pi / 2
    blocks = []
    for *occ, ladder in sector_chains(realization, cutoff):
        index = np.ravel_multi_index(tuple(occ), (cutoff.dim,) * len(occ))
        if meets is not None and not meets[index].any():
            continue
        size = ladder.size + 1
        if kappa.modulus == 0.0:
            ones = np.ones(size, dtype=complex)
            blocks.append(SectorBlock(index, ones, np.eye(size), ones))
            continue
        mu, w = _chain_eigensystem(ladder)
        # mu comes back ascending, so its largest modulus is max(-mu[0], mu[-1])
        phase_error = kappa.modulus * max(-mu[0], mu[-1]) * _EPS
        if phase_error > DEFAULT_TOLERANCES.identity_residual:
            raise ValueError(
                f"{realization} parameter |kappa| = {kappa.modulus:.4g} is too large: "
                f"a float cannot resolve the chain phases at n_max={cutoff.n_max}"
            )
        phase = np.exp(1j * turn * np.arange(size))
        blocks.append(SectorBlock(index, phase, w, np.exp(-1j * kappa.modulus * mu)))
    return blocks


def sector_operator(realization: str, kappa: PolarParam, cutoff: Cutoff) -> Operator:
    """Dense exp(kappa X+ - conj(kappa) X-), its ``safe_block`` at every row."""
    modes = _modes(realization)
    every = np.arange(cutoff.dim ** modes)
    return Operator(safe_block(realization, kappa, cutoff, every), modes, cutoff)


def safe_rows(
    realization: str, kappa: PolarParam, cutoff: Cutoff, keep: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rows ``keep`` of exp(kappa X+ - conj(kappa) X-), chain by chain, from
    the chains that meet ``keep`` only.

    Each entry is ``(hit, index, rows)``: ``index`` the chain's flat indices in
    chain order, ``hit`` the mask of the chain positions in ``keep``, and
    ``rows`` the dense rows of the chain's block at ``index[hit]``, one column
    per chain position.  Every other entry of the rows vanishes.  On a safe
    block (complete sectors n1 + n2 <= cap) the su2 chains through ``keep``
    lie inside it; the su11 chains through it run on up to the cutoff.

    The entries keep ``sector_chains``' order.  For ``keep`` a two-mode
    ``safe_indices`` block, the chains that meet it therefore carry every label
    from the first to the last in ascending order: su2 N = 0 ... cap and su11
    D = -cap ... cap.
    """
    inside = np.zeros(cutoff.dim ** _modes(realization), dtype=bool)
    inside[keep] = True
    out = []
    for block in sector_blocks(realization, kappa, cutoff, meets=inside):
        hit = inside[block.index]
        out.append((hit, block.index, block.matrix(hit)))
    return out


def safe_block(
    realization: str,
    kappa: PolarParam,
    cutoff: Cutoff,
    keep: np.ndarray,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Rows ``keep`` of exp(kappa X+ - conj(kappa) X-) as one dense array,
    at the flat columns ``cols`` when they are given and at every column
    otherwise, in the order of ``keep`` and ``cols``; built from ``safe_rows``,
    so only the chains that meet ``keep`` are exponentiated."""
    size = cutoff.dim ** _modes(realization)
    cols = np.arange(size) if cols is None else cols
    row_of = np.full(size, -1)
    row_of[keep] = np.arange(keep.size)
    # every chain is written whole: its positions outside ``cols`` land in a
    # spare last column, which is sliced off
    col_of = np.full(size, cols.size)
    col_of[cols] = np.arange(cols.size)
    out = np.zeros((keep.size, cols.size + 1), dtype=complex)
    for hit, index, rows in safe_rows(realization, kappa, cutoff, keep):
        out[np.ix_(row_of[index[hit]], col_of[index])] = rows
    return out[:, :-1]


def sector_product(
    realization: str, kappa: PolarParam, cutoff: Cutoff, columns: np.ndarray
) -> np.ndarray:
    """exp(kappa X+ - conj(kappa) X-) @ ``columns``, chain by chain, without
    forming the whole matrix; ``columns`` is one vector or a stack of columns
    with one row per flat index of the realization's space."""
    size = cutoff.dim ** _modes(realization)
    if columns.shape[0] != size:
        raise ValueError(
            f"realization {realization!r} at n_max={cutoff.n_max} acts on {size} rows, "
            f"not on {columns.shape[0]}"
        )
    out = np.empty(columns.shape, dtype=complex)
    for block in sector_blocks(realization, kappa, cutoff):
        out[block.index] = block.apply(columns[block.index])
    return out


def apply_sectors(realization: str, kappa: PolarParam, ket: Ket) -> Ket:
    """exp(kappa X+ - conj(kappa) X-) applied to a ket, the one-column case of
    ``sector_product``; the realization's number of modes must be the ket's."""
    modes = _modes(realization)
    if ket.modes != modes:
        raise ValueError(
            f"realization {realization!r} acts on {modes}-mode kets, not on a {ket.modes}-mode ket"
        )
    return Ket(sector_product(realization, kappa, ket.cutoff, ket.amplitudes), modes, ket.cutoff)


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

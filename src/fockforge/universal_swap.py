"""The universal tensor-factor swap as a permutation, its CNOT factorization
at qubit dimension, and a linearity witness for the no-cloning theorem."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .fock import Ket
from .report import Report, make_report

# A state with two or more nonzero basis amplitudes must miss its clone by at
# least this distance under the linear extension of basis cloning.
WITNESS_BOUND = 0.4


@dataclass(frozen=True)
class PermutationOperator:
    """Permutation matrix on an n (x) n product space, stored as an index map.

    ``perm[row]`` is the column of the single unit entry in that row, so the
    action on a vector is ``out[i] = v[perm[i]]``.
    """

    n: int
    perm: np.ndarray

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.intp).reshape(-1)
        perm.setflags(write=False)
        object.__setattr__(self, "perm", perm)
        if self.n < 2:
            raise ValueError("per-factor dimension must be at least 2")
        if perm.shape[0] != self.n * self.n:
            raise ValueError("index map must have n^2 entries")
        if not np.array_equal(np.sort(perm), np.arange(self.n * self.n)):
            raise ValueError("index map is not a permutation")

    @property
    def dim(self) -> int:
        return self.n * self.n

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.dim, self.dim))
        dense[np.arange(self.dim), self.perm] = 1.0
        return dense

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec)
        if vec.shape[0] != self.dim:
            raise ValueError(f"vector length {vec.shape[0]} != {self.dim}")
        return vec[self.perm]

    def compose(self, other: "PermutationOperator") -> "PermutationOperator":
        """Matrix product self @ other as permutation operators."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return PermutationOperator(self.n, other.perm[self.perm])

    @property
    def is_involution(self) -> bool:
        return bool(np.array_equal(self.perm[self.perm], np.arange(self.dim)))


def swap_matrix(n: int) -> PermutationOperator:
    """Tensor-factor exchange on C^n (x) C^n: row (i,j) maps from column (j,i),
    composite index (i,j) -> i*n + j."""
    if n < 2:
        raise ValueError("swap requires per-factor dimension >= 2")
    i, j = np.divmod(np.arange(n * n), n)
    return PermutationOperator(n, j * n + i)


def apply_swap(a: Ket, b: Ket) -> Ket:
    """Exchange the factors of a product vector: U(a (x) b) = b (x) a.

    Pure coordinate permutation of the product amplitudes; introduces no
    arithmetic error beyond forming the products themselves.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.modes != 1 or b.modes != 1:
        raise ValueError("apply_swap expects single-mode kets")
    joint = np.kron(a.amplitudes, b.amplitudes)
    swapped = swap_matrix(a.dim).apply(joint)
    return Ket(swapped, 2, a.cutoff)


def cnot_factorization() -> tuple[PermutationOperator, PermutationOperator, PermutationOperator]:
    """The qubit swap as an ordered product of three controlled-NOT gates;
    the outer factors coincide."""
    outer = PermutationOperator(2, np.array([0, 1, 3, 2]))
    middle = PermutationOperator(2, np.array([0, 3, 2, 1]))
    return (outer, middle, outer)


def no_cloning_witness(h: Ket, tolerance: float | None = None) -> Report:
    """Linearity contradiction for a hypothetical cloner.

    Extend basis cloning C(e_k (x) e_0) = e_k (x) e_k linearly and compare
    C(h (x) e_0) with h (x) h.  A basis vector clones exactly; any state with
    two or more nonzero amplitudes misses by more than WITNESS_BOUND.  The
    scalar argument is also evaluated: cloning 2h directly gives 4 (h (x) h)
    while linearity forces 2 C(h (x) e_0), a mismatch of norm exactly 2 for
    normalized h on the defining set.
    """
    tol = DEFAULT_TOLERANCES.identity_residual if tolerance is None else tolerance
    if h.modes != 1:
        raise ValueError("the witness is defined for single-mode states")
    norm = h.norm
    if norm == 0.0:
        raise ValueError("cannot clone the zero vector")
    hn = h.amplitudes / norm
    n = hn.shape[0]

    linear_clone = np.zeros(n * n, dtype=complex)
    linear_clone[np.arange(n) * n + np.arange(n)] = hn
    target = np.kron(hn, hn)
    distance = float(np.linalg.norm(linear_clone - target))
    scalar_mismatch = float(np.linalg.norm(2 * linear_clone - 4 * target))

    support = int(np.count_nonzero(np.abs(hn) > 1e-12))
    if support >= 2:
        residuals = {
            "witness_gap": max(0.0, WITNESS_BOUND - distance),
            "scalar_mismatch": scalar_mismatch,
            "clone_distance": distance,
        }
        unasserted = ("scalar_mismatch", "clone_distance")
    else:
        residuals = {
            "clone_discrepancy": distance,
            "scalar_mismatch_error": abs(scalar_mismatch - 2.0),
            "scalar_mismatch": scalar_mismatch,
        }
        unasserted = ("scalar_mismatch",)
    return make_report(
        "no_cloning_witness",
        (),
        h.cutoff,
        0,
        residuals,
        {},
        tol,
        unasserted=unasserted,
    )

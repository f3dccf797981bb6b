"""Truncated bosonic Fock spaces: domain types and dense operator kernels.

A single mode truncated at occupation ``n_max`` is represented on the
(n_max+1)-dimensional space spanned by the occupation states; two-mode
operators live on the Kronecker product with the first factor major.  All
values are immutable after construction and every function is pure.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .config import TAIL_BOUND


class CutoffWarning(UserWarning):
    """A requested amplitude is too large for the chosen truncation level."""


# a ket holds n_max + 1 complex amplitudes and no array holds more than
# sys.maxsize bytes, so no larger cutoff can be built
MAX_NMAX = sys.maxsize // np.dtype(complex).itemsize - 1


@dataclass(frozen=True)
class Cutoff:
    """Fock truncation level; the retained space has dimension n_max + 1."""

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, int) or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")
        if self.n_max > MAX_NMAX:
            raise ValueError(f"n_max must be at most {MAX_NMAX}, got {self.n_max}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class PolarParam:
    """Complex protocol parameter stored together with its polar form.

    Zero modulus forces phase 0 by convention; the phase is kept in (-pi, pi].
    """

    value: complex
    modulus: float
    phase: float

    def __post_init__(self):
        if self.modulus < 0:
            raise ValueError("modulus must be non-negative")
        if not (-math.pi < self.phase <= math.pi + 1e-15):
            raise ValueError(f"phase {self.phase} outside (-pi, pi]")
        if self.modulus == 0.0 and self.phase != 0.0:
            raise ValueError("zero modulus forces phase 0")
        recon = self.modulus * cmath.exp(1j * self.phase)
        scale = max(1.0, self.modulus)
        if abs(self.value - recon) > 1e-14 * scale:
            raise ValueError("value inconsistent with (modulus, phase)")

    @classmethod
    def from_value(cls, z: complex) -> "PolarParam":
        z = complex(z)
        m = abs(z)
        if m == 0.0:
            return cls(0j, 0.0, 0.0)
        # math.atan2 rounds an underflowing angle to 0, where cmath.phase raises
        ph = math.atan2(z.imag, z.real)
        if ph <= -math.pi:  # map -pi to +pi
            ph = math.pi
        return cls(z, m, ph)

    @classmethod
    def from_polar(cls, modulus: float, phase: float) -> "PolarParam":
        if modulus == 0.0:
            return cls(0j, 0.0, 0.0)
        # reduce to (-pi, pi]
        ph = math.remainder(phase, 2 * math.pi)
        if ph <= -math.pi:
            ph = math.pi
        return cls(modulus * cmath.exp(1j * ph), float(modulus), ph)

    @classmethod
    def parse(cls, text: str) -> "PolarParam":
        """Parse ``re,im`` (Cartesian) or ``mod@phase`` (polar) notation;
        rejects non-finite numbers and a Cartesian modulus that overflows."""
        text = text.strip()
        sep = "@" if "@" in text else ","
        parts = [float(p) for p in text.split(sep, 1)]
        if not all(math.isfinite(p) for p in parts):
            raise ValueError(f"parameter {text!r} has a non-finite number")
        if sep == "@":
            return cls.from_polar(*parts)
        try:
            return cls.from_value(complex(*parts))
        except OverflowError:
            raise ValueError(f"parameter {text!r} has a non-finite modulus") from None

    @property
    def conj(self) -> complex:
        return self.value.conjugate()


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=complex)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix on a truncated one- or two-mode Fock space.

    The constructor takes ownership of ``entries`` and write-protects it.
    """

    entries: np.ndarray
    modes: int
    cutoff: Cutoff

    def __post_init__(self):
        object.__setattr__(self, "entries", _freeze(self.entries))
        if self.modes not in (1, 2):
            raise ValueError("modes must be 1 or 2")
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"entries must be square, got shape {e.shape}")
        expected = self.cutoff.dim ** self.modes
        if e.shape[0] != expected:
            raise ValueError(
                f"dim {e.shape[0]} inconsistent with cutoff/modes (expected {expected})"
            )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def _like(self, entries: np.ndarray) -> "Operator":
        return Operator(entries, self.modes, self.cutoff)

    def _check_compatible(self, other: "Operator"):
        if not isinstance(other, Operator):
            raise TypeError("expected an Operator")
        if self.modes != other.modes or self.cutoff != other.cutoff:
            raise ValueError("operators live on different spaces")

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_compatible(other)
        return self._like(self.entries @ other.entries)

    def __add__(self, other: "Operator") -> "Operator":
        self._check_compatible(other)
        return self._like(self.entries + other.entries)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_compatible(other)
        return self._like(self.entries - other.entries)

    def __mul__(self, scalar) -> "Operator":
        return self._like(self.entries * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return self._like(-self.entries)

    def apply(self, ket: "Ket") -> "Ket":
        """Matrix-vector application; the result keeps the input's norm flag off."""
        if ket.modes != self.modes or ket.cutoff != self.cutoff:
            raise ValueError("operator and ket live on different spaces")
        return Ket(self.entries @ ket.amplitudes, self.modes, self.cutoff, normalized=False)


@dataclass(frozen=True)
class Ket:
    """Complex amplitude vector on a truncated (tensor-product) Fock space."""

    amplitudes: np.ndarray
    modes: int
    cutoff: Cutoff
    normalized: bool = False

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if self.modes not in (1, 2):
            raise ValueError("modes must be 1 or 2")
        expected = self.cutoff.dim ** self.modes
        if amps.shape[0] != expected:
            raise ValueError(f"dim {amps.shape[0]} inconsistent with cutoff/modes")
        if self.normalized and abs(np.linalg.norm(amps) - 1.0) > 1e-12:
            raise ValueError("normalized flag set but norm deviates from 1 beyond 1e-12")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "Ket":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Ket(self.amplitudes / n, self.modes, self.cutoff, normalized=True)


# ---------------------------------------------------------------------------
# constructors


def ladder_weights(cutoff: Cutoff) -> np.ndarray:
    """sqrt(1), ..., sqrt(n_max): the weight sqrt(n) with which the lowering
    operator takes occupation n to n - 1."""
    return np.sqrt(np.arange(1, cutoff.dim, dtype=float))


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


def tensor_ket(a: Ket, b: Ket) -> Ket:
    """Kronecker product of single-mode kets, first factor major."""
    if a.cutoff != b.cutoff:
        raise ValueError("tensor factors must share a cutoff")
    if a.modes != 1 or b.modes != 1:
        raise ValueError("tensor_ket is defined for single-mode factors only")
    return Ket(
        np.kron(a.amplitudes, b.amplitudes),
        2,
        a.cutoff,
        normalized=a.normalized and b.normalized,
    )


# ---------------------------------------------------------------------------
# matrix exponential


# Higham's [13/13] Pade coefficients b_k / b_0 (SIAM J. Matrix Anal. Appl. 26,
# 1179 (2005)): with b_0 = 1 a zero generator solves I x = I exactly.  _THETA13
# is the 1-norm up to which [13/13] alone is accurate to the machine epsilon.
_PADE13 = tuple(
    b / 64764752532480000.0
    for b in (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
        129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
        1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
    )
)
_THETA13 = 5.371920351148152


def _expm_array(g: np.ndarray) -> np.ndarray:
    """Matrix exponential of a dense array by [13/13] Pade approximation with
    scaling and squaring (Higham 2005); raises on non-finite entries in the
    generator or in its exponential.

    No command calls it: ``fockforge.lie`` exponentiates the displacement, the
    coherent states, the squeezes and the two-mode unitaries chain by chain.
    It is the tests' unsplit dense route, kept here, and bound in ``states``,
    for the traced benchmark, which wraps it by name.
    """
    if not np.all(np.isfinite(g)):
        raise ValueError("generator has non-finite entries")
    norm = np.linalg.norm(g, 1)
    squarings = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = g / 2.0**squarings
    b = _PADE13
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    odd = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
    u = a @ (odd + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + eye
    out = np.linalg.solve(v - u, v + u)
    # an overflow is caught below, so numpy need not warn about it on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            out = out @ out
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix exponential overflowed to non-finite entries")
    return out


def expm(g: Operator) -> Operator:
    """Matrix exponential of an operator; raises on non-finite entries.  No
    command calls it: it is the tests' dense route (see ``_expm_array``)."""
    return Operator(_expm_array(np.asarray(g.entries)), g.modes, g.cutoff)


# ---------------------------------------------------------------------------
# truncation-aware comparison


def safe_indices(cutoff: Cutoff, margin: int, modes: int = 1) -> np.ndarray:
    """Indices of the safe subspace a margin away from the truncation boundary.

    Single mode: occupations n <= n_max - margin.  Two modes: total occupation
    n1 + n2 <= n_max - margin, which keeps only complete occupation sectors
    and is where truncated operator identities can be meaningfully compared.
    """
    if margin < 0:
        raise ValueError("margin must be non-negative")
    if margin > cutoff.n_max:
        raise ValueError(f"margin {margin} exceeds n_max {cutoff.n_max}")
    cap = cutoff.n_max - margin
    if modes == 1:
        return np.arange(cap + 1)
    if modes == 2:
        d = cutoff.dim
        flat = np.arange(d * d)
        total = flat // d + flat % d
        return np.nonzero(total <= cap)[0]
    raise ValueError("modes must be 1 or 2")


# ---------------------------------------------------------------------------
# cutoff adequacy for coherent amplitudes


# Stirling's series below keeps lgamma to 1e-14 from this argument on
_STIRLING_FROM = 16


def _stirling_series(x):
    """lgamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2), for x >= _STIRLING_FROM."""
    inv2 = 1.0 / (x * x)
    return (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 / 1680))) / x


def _log_poisson_term(lam: float, k: float) -> float:
    """log(e^-lam lam^k / k!) at a real k >= 0.  From k = _STIRLING_FROM on it is
    k log(lam / k) + (k - lam) - log(2 pi k) / 2 - _stirling_series(k), with
    log(lam / k) as a log1p near 1, which keeps its digits where
    k log(lam) - lam - lgamma(k + 1) would cancel, at large k near lam."""
    k = float(k)
    if k < _STIRLING_FROM:
        return k * math.log(lam) - lam - math.lgamma(k + 1.0)
    ratio = (lam - k) / k
    log_ratio = math.log1p(ratio) if abs(ratio) < 0.5 else math.log(lam) - math.log(k)
    return k * log_ratio + (k - lam) - 0.5 * math.log(2 * math.pi * k) - _stirling_series(k)


def poisson_tail(alpha_abs: float, n_max: int) -> float:
    """Poisson(|alpha|^2) mass above n_max: sum_{n > n_max} e^-lam lam^n / n!.

    Summed away from the mode: the terms above n_max when n_max + 1 > lam,
    else 1 minus the terms from n_max down to 0, so that the summed terms
    always fall.  The first is taken in log space and each next one is the
    last times lam / k or k / lam; the sum stops once they are below e^-45 of
    the first.  Past 65536 terms (lam above
    about 5e7, with n_max near it, a truncation far beyond any memory) each
    block of ``stride`` terms counts as ``stride`` times its middle term: the
    relative error stays below 1e-7 up to lam = 1e20.  Past lam ~ 1e28 a float
    no longer resolves the width sqrt(lam) near lam, and the tail there is
    only kept within [0, 1].
    """
    lam = alpha_abs * alpha_abs
    if lam == 0.0:
        return 0.0
    if math.isinf(lam):  # |alpha|^2 overflows a float: all the mass lies above n_max
        return 1.0
    upper = n_max + 1 > lam
    first = n_max + 1 if upper else n_max
    # each term is below the last by the ratio at ``first`` or less, and by
    # the Gaussian fall of width sqrt(lam) about the mode
    rate = abs(math.log(first) - math.log(lam)) if first else math.inf
    steps = 45.0 / rate if rate else math.inf  # rate is 0 where lam rounds to first
    width = math.ceil(min(steps, math.sqrt(90.0 * max(lam, first))) + 64)
    if not upper:
        width = min(width, n_max + 1)
    stride = math.ceil(width / 65536)
    if stride == 1:
        total = term = 1.0
        for j in range(1, width):
            term *= lam / (first + j) if upper else (first - j + 1) / lam
            total += term
            if term < 1e-20 * total:
                break
        log_sum = _log_poisson_term(lam, first) + math.log(total)
    else:
        middles = [first + (stride * j + (stride - 1) / 2) * (1 if upper else -1)
                   for j in range(math.ceil(width / stride))]
        logs = np.array([_log_poisson_term(lam, k) for k in middles if k >= 0])
        top = logs.max()
        log_sum = top + math.log(stride * np.exp(logs - top).sum())
    tail = math.exp(log_sum) if upper else -math.expm1(log_sum)
    return min(1.0, max(0.0, tail))


def adequate_cutoff(alpha_abs: float) -> int:
    """Smallest n_max whose Poisson tail for |alpha| stays below TAIL_BOUND."""
    n = max(1, math.ceil(alpha_abs * alpha_abs))
    while poisson_tail(alpha_abs, n) >= TAIL_BOUND:
        n += 1
    return n


def tail_warning(alpha_abs: float, cutoff: Cutoff, context: str) -> None:
    """Raise a CutoffWarning, naming ``context``, if the cutoff violates the tail rule."""
    tail = poisson_tail(alpha_abs, cutoff.n_max)
    if tail < TAIL_BOUND:
        return
    msg = (
        f"cutoff inadequate for {context}: "
        f"|alpha|={alpha_abs:.4g} leaves Poisson tail {tail:.2e} above n_max={cutoff.n_max}"
    )
    warnings.warn(msg, CutoffWarning, stacklevel=3)

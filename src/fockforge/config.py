"""Centralized numerical tolerances and truncation policy defaults."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle shared by every verification routine.

    identity_residual: bound on projected Frobenius residuals of operator identities.
    fidelity_deficit : bound on 1 - fidelity for state-level comparisons.
    """

    identity_residual: float = 1e-8
    fidelity_deficit: float = 1e-6


DEFAULT_TOLERANCES = Tolerances()

# Poisson-tail mass above the cutoff that a displacement amplitude may leave
# behind before a CutoffWarning is issued.
TAIL_BOUND = 1e-12

# Perelomov su(1,1) amplitudes decay like tanh(|z|)**n; require the amplitude
# at the cutoff to sit below this bound.
PERELOMOV_AMPLITUDE_BOUND = 1e-10

# Hyperbolic guard: conjugation amplification must stay within the cutoff.
COSH_GUARD = 3.0


def _guard_cosh(modulus: float, label: str):
    if math.cosh(modulus) > COSH_GUARD:
        raise ValueError(
            f"guard violated: cosh|{label}| = {math.cosh(modulus):.3f} exceeds {COSH_GUARD}"
        )


def default_margin(n_max: int) -> int:
    """Default safe-projector margin: a quarter of the cutoff, rounded up.

    Adequate for occupation-preserving conjugations, which truncate exactly;
    hyperbolic conjugation checks override it (see the formulas module).
    """
    return math.ceil(n_max / 4)

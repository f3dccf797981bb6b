"""Structured verification reports with a pinned JSON serialization."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock import Cutoff, PolarParam


@dataclass(frozen=True)
class Report:
    """Outcome of one identity or protocol verification.

    ``passed`` reflects the asserted criteria only: residual entries listed in
    ``unasserted`` are diagnostics reported for inspection (noncommutation
    witnesses, obstruction coefficients) and do not gate the verdict.
    """

    name: str
    params: tuple[PolarParam, ...]
    cutoff: Cutoff
    margin: int
    residuals: dict[str, float]
    fidelities: dict[str, float]
    tolerance: float
    unasserted: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        """JSON object with exactly the documented report fields."""
        return {
            "name": self.name,
            "params": [{"re": p.value.real, "im": p.value.imag} for p in self.params],
            "n_max": self.cutoff.n_max,
            "margin": self.margin,
            "residuals": dict(self.residuals),
            "fidelities": dict(self.fidelities),
            "tolerance": self.tolerance,
            "passed": self.passed,
        }

    def _asserted(self, entries: dict[str, float]) -> list[float]:
        return [v for k, v in entries.items() if k not in self.unasserted]

    @property
    def passed(self) -> bool:
        """Every asserted residual and fidelity deficit is within the
        tolerance; a NaN is never within it."""
        deficits = [1.0 - v for v in self._asserted(self.fidelities)]
        return all(v <= self.tolerance for v in self._asserted(self.residuals) + deficits)

    @property
    def worst_residual(self) -> float:
        return _worst(self._asserted(self.residuals))

    @property
    def worst_fidelity_deficit(self) -> float:
        return _worst([1.0 - v for v in self._asserted(self.fidelities)])


def _worst(values: list[float]) -> float:
    """The largest value, NaN when any is NaN (``max`` alone skips a NaN
    unless it comes first), 0.0 for none."""
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def make_report(
    name: str,
    params: tuple[PolarParam, ...],
    cutoff: Cutoff,
    margin: int,
    residuals: dict[str, float],
    fidelities: dict[str, float],
    tolerance: float,
    unasserted: tuple[str, ...] = (),
) -> Report:
    return Report(name, params, cutoff, margin, residuals, fidelities, tolerance, unasserted)

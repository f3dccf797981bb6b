"""Structured verification reports with a pinned JSON serialization."""

from __future__ import annotations

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
    passed: bool
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

    @property
    def worst_residual(self) -> float:
        asserted = [v for k, v in self.residuals.items() if k not in self.unasserted]
        return max(asserted, default=0.0)

    @property
    def worst_fidelity_deficit(self) -> float:
        asserted = [1.0 - v for k, v in self.fidelities.items() if k not in self.unasserted]
        return max(asserted, default=0.0)


def evaluate_passed(
    residuals: dict[str, float],
    fidelities: dict[str, float],
    tolerance: float,
    unasserted: tuple[str, ...] = (),
) -> bool:
    ok = all(v <= tolerance for k, v in residuals.items() if k not in unasserted)
    ok = ok and all(1.0 - v <= tolerance for k, v in fidelities.items() if k not in unasserted)
    return ok


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
    return Report(
        name=name,
        params=params,
        cutoff=cutoff,
        margin=margin,
        residuals=residuals,
        fidelities=fidelities,
        tolerance=tolerance,
        passed=evaluate_passed(residuals, fidelities, tolerance, unasserted),
        unasserted=unasserted,
    )

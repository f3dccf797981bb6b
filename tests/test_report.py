"""The report verdict: every asserted residual and fidelity deficit within the
tolerance, a NaN never within it, and unasserted entries ignored."""

import math

import pytest

from fockforge import Cutoff
from fockforge.report import make_report

NAN = math.nan


@pytest.mark.parametrize(
    "residuals, fidelities, unasserted, passed, worst, deficit",
    [
        ({"a": 1e-9, "b": 2e-9}, {"f": 1.0}, (), True, 2e-9, 0.0),
        ({"a": 1e-9, "b": 2e-7}, {}, (), False, 2e-7, 0.0),
        ({"a": 1e-9}, {"f": 1.0 - 1e-7}, (), False, 1e-9, 1e-7),
        ({"a": NAN, "b": 2e-9}, {}, (), False, NAN, 0.0),
        # a NaN is the worst entry wherever it sits, not only first
        ({"a": 1e-9, "b": NAN}, {}, (), False, NAN, 0.0),
        ({"a": 1e-9}, {"f": NAN}, (), False, 1e-9, NAN),
        ({"a": 1e-9}, {"f": 1.0, "g": NAN}, (), False, 1e-9, NAN),
        ({"a": 1e-9, "w": NAN}, {"f": 1.0}, ("w",), True, 1e-9, 0.0),
        ({"a": 1e-9, "w": 5.0}, {"f": 1.0, "g": NAN}, ("w", "g"), True, 1e-9, 0.0),
        ({"w": NAN}, {}, ("w",), True, 0.0, 0.0),
    ],
    ids=[
        "within",
        "residual-over",
        "deficit-over",
        "nan-first-residual",
        "nan-last-residual",
        "nan-fidelity",
        "nan-last-fidelity",
        "nan-unasserted-residual",
        "unasserted-over-and-nan-fidelity",
        "only-unasserted",
    ],
)
def test_verdict_and_worst_entries(residuals, fidelities, unasserted, passed, worst, deficit):
    rep = make_report("stand_in", (), Cutoff(4), 0, residuals, fidelities, 1e-8, unasserted)
    assert rep.passed is passed
    assert rep.to_json_dict()["passed"] is passed
    assert rep.worst_residual == pytest.approx(worst, nan_ok=True)
    assert rep.worst_fidelity_deficit == pytest.approx(deficit, nan_ok=True)

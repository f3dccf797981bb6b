"""Tests of the benchmark's own helpers: tail rule, self times, oracles."""

import cmath
import math
import statistics

import numpy as np
import pytest
from scipy.linalg import expm

from benchstats import MIN_SAMPLES, TAIL_BEYOND, blocked_tail, spread, tail_percentile, tail_value
from benchtrace import Tracer, self_times
import oracles


def test_tail_leaves_ten_beyond_and_is_the_highest_such():
    for n in range(MIN_SAMPLES, 400):
        p = tail_percentile(n)
        _, value = tail_value(range(n))  # sample value = its 0-based rank
        assert n - 1 - value >= TAIL_BEYOND
        assert n - math.ceil((p + 1) * n / 100) < TAIL_BEYOND


def test_tail_examples_and_minimum():
    assert tail_percentile(40) == 75
    assert tail_percentile(68) == 85
    assert tail_percentile(240) == 95
    assert tail_value([5.0] * 30 + [1.0] * 10) == (75, 5.0)
    with pytest.raises(ValueError):
        tail_percentile(MIN_SAMPLES - 1)


def test_blocked_tail_is_the_same_rank_whatever_the_pass_count():
    # 20 operations a pass, blocks of 2 passes: p75 of 40, the 11th slowest.
    def pass_times(scale):
        return [scale * k for k in range(20)]

    two = [pass_times(1.0), pass_times(1.0)]
    assert blocked_tail(two, 2) == (75, 14.0)
    # Five passes make two whole blocks; the fifth pass is left out.
    five = [pass_times(s) for s in (1.0, 1.0, 2.0, 2.0, 100.0)]
    assert blocked_tail(five, 2) == (75, statistics.median([14.0, 28.0]))
    with pytest.raises(ValueError):
        blocked_tail([pass_times(1.0)], 2)


def test_spread_matches_statistics_quantiles():
    s = spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (s["q1"], s["median"], s["q3"]) == (2.75, 5.5, 8.25)
    assert s["iqr_share"] == pytest.approx(1.0)


def test_self_time_subtracts_union_of_children():
    spans = [
        ["root", 0.0, 10.0, None, None, None],
        ["a", 1.0, 3.0, 0, None, None],
        ["b", 2.0, 4.0, 0, None, None],  # overlaps a: covered once
        ["c", 8.0, 12.0, 0, None, None],  # clipped to the parent's end
        ["d", 1.5, 2.5, 1, None, None],  # grandchild: counts against a only
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 2.0, 4.0, 1.0])


def test_tracer_nests_spans_under_the_open_operation():
    t = Tracer()
    root = t.begin("pass")
    op = t.begin_op("formulas.check", "check_J_rotation")
    assert t.op_name == "check_J_rotation"
    inner = t.begin("fock.expm_2mode", 625)
    t.end(inner)
    t.end_op(op)
    t.end(root)
    assert [s[3] for s in t.spans] == [None, root, op]
    assert [s[4] for s in t.spans] == [None, op, op]
    assert t.op_name is None
    assert all(s[2] >= s[1] for s in t.spans)


def _truncated_expm_column(gen, dim):
    """First dim entries of expm(gen)|0>, for gen on a space much larger than dim."""
    return expm(gen)[:dim, 0]


def test_coherent_amplitudes_match_displaced_vacuum():
    big, dim = 160, 40
    beta = cmath.rect(2.3, -0.7)
    a = np.diag(np.sqrt(np.arange(1, big)), 1)
    want = _truncated_expm_column(beta * a.T - beta.conjugate() * a, dim)
    got = oracles.coherent_amplitudes(beta, dim)
    assert np.abs(got - want).max() < 1e-12
    assert abs(math.fsum(abs(oracles.coherent_amplitudes(beta, 80)) ** 2) - 1) < 1e-12


def test_squeezed_vacuum_matches_exponentiated_generator():
    big, dim = 300, 60
    z = cmath.rect(0.7, 1.1)
    a = np.diag(np.sqrt(np.arange(1, big)), 1)
    gen = 0.5 * (z * (a.T @ a.T) - z.conjugate() * (a @ a))
    want = _truncated_expm_column(gen, dim)
    got = oracles.squeezed_vacuum(z, dim)
    assert np.abs(got - want).max() < 1e-12
    assert np.all(got[1::2] == 0)


def test_coherent_pair_layout_fidelity_and_occupations():
    dim = 50
    b1, b2 = cmath.rect(2.0, 0.3), cmath.rect(1.5, -2.0)
    pair = oracles.coherent_pair(b1, b2, dim)
    grid = pair.reshape(dim, dim)
    assert grid[3, 5] == pytest.approx(
        oracles.coherent_amplitudes(b1, dim)[3] * oracles.coherent_amplitudes(b2, dim)[5]
    )
    assert oracles.fidelity(pair, 2j * pair) == pytest.approx(1.0)
    assert oracles.fidelity(pair, oracles.coherent_pair(b2, b1, dim)) < 0.5
    n1, n2 = oracles.mean_occupations(pair, dim)
    assert n1 == pytest.approx(abs(b1) ** 2, abs=1e-9)
    assert n2 == pytest.approx(abs(b2) ** 2, abs=1e-9)

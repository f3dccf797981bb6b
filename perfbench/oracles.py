"""Closed-form states the benchmark checks fockforge's outputs against.

Built with numpy alone, so a fault in fockforge.states cannot hide itself.
Two-mode vectors use fockforge's layout: index n1 * dim + n2.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def coherent_amplitudes(beta: complex, dim: int) -> np.ndarray:
    """e^{-|beta|^2/2} beta^n / sqrt(n!) for n < dim, by the ratio beta / sqrt(n)."""
    amps = np.empty(dim, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(beta) ** 2)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * beta / math.sqrt(n)
    return amps


def coherent_pair(beta1: complex, beta2: complex, dim: int) -> np.ndarray:
    """|beta1> (x) |beta2> restricted to dim levels per mode."""
    return np.kron(coherent_amplitudes(beta1, dim), coherent_amplitudes(beta2, dim))


def squeezed_vacuum(z: complex, dim: int) -> np.ndarray:
    """exp((z a†² - conj(z) a²)/2)|0> for n < dim.

    With z = r e^{i phi} the amplitude of |2m> is
    (e^{i phi} tanh r)^m sqrt((2m)!) / (2^m m!) / sqrt(cosh r), built by the
    ratio e^{i phi} tanh r sqrt((2m - 1) / (2m)); odd occupations vanish.
    """
    r = abs(z)
    step = cmath.exp(1j * cmath.phase(z)) * math.tanh(r)
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0 / math.sqrt(math.cosh(r))
    for m in range(1, (dim + 1) // 2):
        amps[2 * m] = amps[2 * m - 2] * step * math.sqrt((2 * m - 1) / (2 * m))
    return amps


def fidelity(x: np.ndarray, y: np.ndarray) -> float:
    """|<x|y>|^2 / (|x|^2 |y|^2)."""
    overlap = np.vdot(x, y)
    return float(abs(overlap) ** 2 / (np.vdot(x, x).real * np.vdot(y, y).real))


def mean_occupations(amps: np.ndarray, dim: int) -> tuple[float, float]:
    """Mean occupation of each mode of a two-mode vector, after normalizing."""
    probs = (np.abs(amps) ** 2).reshape(dim, dim)
    probs = probs / probs.sum()
    levels = np.arange(dim)
    return float(levels @ probs.sum(axis=1)), float(levels @ probs.sum(axis=0))

"""Executable verification of the conjugation identities.

Each check reads the sector kernel (``lie``) at a truncation level, through
safe rows, safe blocks or chain-by-chain application, and builds no whole
operator; it evaluates both sides of an identity on the safe subspace and
returns a Report of residual norms.

Truncation policy.  Conjugation by an occupation-preserving rotation (the
beamsplitter family) is exact on complete total-occupation sectors, so any
margin works there.  Hyperbolic conjugations (squeeze family) leak boundary
corruption into the bulk at a rate of roughly tanh(|z|) per ladder step, so
those checks keep only a small block far below the cutoff; defaults below are
calibrated so residuals sit two orders under the default tolerance for the
documented parameter ranges.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .config import DEFAULT_TOLERANCES, _guard_cosh, default_margin
from .fock import Cutoff, Ket, PolarParam, ladder_weights, safe_indices, tail_warning
from .lie import apply_sectors, safe_block, safe_rows, sector_product
from .report import Report, make_report
from .states import coherent_closed_form, fidelity, phase_factors, vacuum

# Size of the retained low-occupation block for hyperbolic-conjugation checks.
HYPERBOLIC_SAFE_BLOCK = 12

# Calibrated default truncations (see module docstring).
J_ROTATION_CUTOFF = Cutoff(24)
K_ROTATION_CUTOFF = Cutoff(44)
SQUEEZE_CONJUGATION_CUTOFF = Cutoff(144)
SDS_CUTOFF = Cutoff(144)
SSS_CUTOFF = Cutoff(32)
SSS_MARGIN = 10
PHASE_FORMULA_CUTOFF = Cutoff(40)
UJ_INVARIANCE_CUTOFF = Cutoff(40)


def _sinc(x: float) -> float:
    """sin(x)/x with the removable singularity filled in."""
    if abs(x) < 1e-8:
        return 1.0 - x * x / 6.0
    return math.sin(x) / x


def _sinhc(x: float) -> float:
    """sinh(x)/x with the removable singularity filled in."""
    if abs(x) < 1e-8:
        return 1.0 + x * x / 6.0
    return math.sinh(x) / x


def _hyperbolic_margin(cutoff: Cutoff) -> int:
    return max(0, cutoff.n_max - HYPERBOLIC_SAFE_BLOCK)


def _restricted_conjugation(rows, a, right=None):
    """Safe block of U A U†, computed with slim matrix products.

    ``rows`` holds U's rows on the safe subspace, and ``right`` the rows on
    the right when they differ, as for one pair of chains.  Identical to
    projecting the full conjugation with the safe projector.
    """
    right = rows if right is None else right
    return rows @ a @ right.conj().T


# the two-mode ladders a1, a2 and a2† as (mode, step): a_mode lowers that
# mode's occupation by one, a_mode† raises it
A1, A2, A2DAG = (0, -1), (1, -1), (1, 1)


def _ladder_between(ladder, cutoff: Cutoff, target: np.ndarray, source: np.ndarray):
    """Entries <t|L|s> of the truncated two-mode ladder L between the flat
    indices ``target`` and ``source``."""
    mode, step = ladder
    t_occ, s_occ = np.divmod(target, cutoff.dim), np.divmod(source, cutoff.dim)
    moved = s_occ[mode] + step
    hit = (t_occ[mode][:, None] == moved) & (t_occ[1 - mode][:, None] == s_occ[1 - mode])
    return hit * np.sqrt(np.maximum(s_occ[mode], moved))


def _chain_pair_residuals(chains, cutoff: Cutoff, sides) -> list[float]:
    """Frobenius norms of the safe blocks of U L U† - sum_i w_i L_i, one per
    side (L, [(w_i, L_i), ...]), for ``chains`` U's safe rows per chain
    (``lie.safe_rows``), computed chain pair by chain pair.

    U is block-diagonal over its chains, and every ladder here lowers the
    chains' conserved label by one: a1 and a2 lower N = n1 + n2, a1 and a2†
    lower D = n1 - n2.  ``safe_rows`` lists the chains by ascending label with
    none missing, so each ladder maps a chain into the one before it, and the
    first into one that misses the safe block.  The safe block is then the sum,
    over neighbours t, s in that list, of the blocks R_t L R_s†; both sides
    vanish outside those blocks.
    """
    needed = {conjugated for conjugated, _ in sides}
    needed |= {term for _, expected in sides for _, term in expected}
    totals = [0.0] * len(sides)
    for (hit_t, index_t, rows_t), (hit_s, index_s, rows_s) in zip(chains, chains[1:]):
        safe = np.ix_(hit_t, hit_s)
        blocks = {ladder: _ladder_between(ladder, cutoff, index_t, index_s) for ladder in needed}
        for k, (conjugated, expected) in enumerate(sides):
            lhs = _restricted_conjugation(rows_t, blocks[conjugated], rows_s)
            rhs = sum(w * blocks[term][safe] for w, term in expected)
            totals[k] += float(np.linalg.norm(lhs - rhs)) ** 2
    return [math.sqrt(total) for total in totals]


def _conjugated_squeeze_pair(
    alpha: PolarParam, beta: PolarParam, t: PolarParam, cutoff: Cutoff, margin: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-mode safe indices at ``margin`` and the safe blocks of
    U(t) S1(alpha) S2(beta) U(t)† and of S1(alpha) S2(beta).

    U preserves n1 + n2, so its safe rows vanish outside the safe block and
    only the blocks of U and of the pair (a product of single-mode blocks) enter.
    """
    keep = safe_indices(cutoff, margin, modes=2)
    u = safe_block("su2", t, cutoff, keep, keep)
    # the one-mode safe indices are the occupations 0 ... cap, which the
    # two-mode safe block's occupations index directly
    single = safe_indices(cutoff, margin, modes=1)
    s1 = safe_block("squeeze", alpha, cutoff, single, single)
    s2 = safe_block("squeeze", beta, cutoff, single, single)
    i1, i2 = np.divmod(keep, cutoff.dim)
    pair = s1[np.ix_(i1, i1)] * s2[np.ix_(i2, i2)]
    return keep, _restricted_conjugation(u, pair), pair


def squeeze_pair_exponent_coefficients(
    alpha: complex, beta: complex, t: complex
) -> dict[str, complex]:
    """Coefficients of the exponent produced by beamsplitter conjugation of a
    product of single-mode squeezes S1(alpha) S2(beta).

    Keys: ``a1dag2``/``a1sq``/``a2dag2``/``a2sq`` multiply (a1†)², a1², (a2†)²,
    a2² (the 1/2 factors included); ``pair_create``/``pair_destroy`` multiply
    a1†a2† and a1a2.  The pair terms vanish exactly when beta*t equals
    alpha*conj(t), which is the invariance condition.
    """
    m = abs(t)
    c = math.cos(m)
    ts = t * _sinc(m)  # equals t*sin|t|/|t|
    a1dag2 = 0.5 * (c * c * alpha + ts * ts * beta)
    a1sq = -0.5 * (c * c * alpha.conjugate() + (ts.conjugate() ** 2) * beta.conjugate())
    a2dag2 = 0.5 * (c * c * beta + (ts.conjugate() ** 2) * alpha)
    a2sq = -0.5 * (c * c * beta.conjugate() + ts * ts * alpha.conjugate())
    ratio = _sinc(2 * m)  # sin(2|t|)/(2|t|)
    pair_create = (beta * t - alpha * t.conjugate()) * ratio
    pair_destroy = -(beta.conjugate() * t.conjugate() - alpha.conjugate() * t) * ratio
    return {
        "a1dag2": a1dag2,
        "a1sq": a1sq,
        "a2dag2": a2dag2,
        "a2sq": a2sq,
        "pair_create": pair_create,
        "pair_destroy": pair_destroy,
    }


def check_J_rotation(
    t: PolarParam,
    cutoff: Cutoff | None = None,
    margin: int | None = None,
    tolerance: float | None = None,
) -> Report:
    """Beamsplitter conjugation of the mode operators against its closed form.

    U(t) a1 U(t)^-1 = cos|t| a1 - (t sin|t|/|t|) a2 and the a2 counterpart; the
    2x2 coefficient matrix must be special unitary.
    """
    cutoff = cutoff or J_ROTATION_CUTOFF
    margin = default_margin(cutoff.n_max) if margin is None else margin
    tol = DEFAULT_TOLERANCES.identity_residual if tolerance is None else tolerance

    chains = safe_rows("su2", t, cutoff, safe_indices(cutoff, margin, modes=2))

    m = t.modulus
    c = math.cos(m)
    ts = t.value * _sinc(m)

    coeff = np.array([[c, ts.conjugate()], [-ts, c]])
    a1_res, a2_res = _chain_pair_residuals(
        chains, cutoff, [(A1, [(c, A1), (-ts, A2)]), (A2, [(c, A2), (ts.conjugate(), A1)])]
    )
    residuals = {
        "a1_conjugation": a1_res,
        "a2_conjugation": a2_res,
        "su2_unitarity": float(np.linalg.norm(coeff.conj().T @ coeff - np.eye(2), "fro")),
        "su2_determinant": float(abs(np.linalg.det(coeff) - 1.0)),
    }
    return make_report("check_J_rotation", (t,), cutoff, margin, residuals, {}, tol)


def check_K_rotation(
    t: PolarParam,
    cutoff: Cutoff | None = None,
    margin: int | None = None,
    tolerance: float | None = None,
) -> Report:
    """Two-mode squeezer conjugation against its hyperbolic closed form.

    U(t) a1 U(t)^-1 = cosh|t| a1 - (t sinh|t|/|t|) a2† and the a2† counterpart;
    the coefficient matrix satisfies cosh^2 - sinh^2 = 1.
    """
    cutoff = cutoff or K_ROTATION_CUTOFF
    margin = _hyperbolic_margin(cutoff) if margin is None else margin
    tol = DEFAULT_TOLERANCES.identity_residual if tolerance is None else tolerance
    _guard_cosh(t.modulus, "t")

    chains = safe_rows("su11", t, cutoff, safe_indices(cutoff, margin, modes=2))

    m = t.modulus
    ch = math.cosh(m)
    ts = t.value * _sinhc(m)

    a1_res, a2dag_res = _chain_pair_residuals(
        chains,
        cutoff,
        [(A1, [(ch, A1), (-ts, A2DAG)]), (A2DAG, [(ch, A2DAG), (-ts.conjugate(), A1)])],
    )
    residuals = {
        "a1_conjugation": a1_res,
        "a2dag_conjugation": a2dag_res,
        "su11_normalization": float(abs(ch * ch - math.sinh(m) ** 2 - 1.0)),
    }
    return make_report("check_K_rotation", (t,), cutoff, margin, residuals, {}, tol)


def check_squeeze_conjugation(
    epsilon: PolarParam,
    cutoff: Cutoff | None = None,
    margin: int | None = None,
    tolerance: float | None = None,
) -> Report:
    """S(eps) a S(eps)^-1 against cosh|eps| a - e^{i phase} sinh|eps| a†."""
    cutoff = cutoff or SQUEEZE_CONJUGATION_CUTOFF
    margin = _hyperbolic_margin(cutoff) if margin is None else margin
    tol = DEFAULT_TOLERANCES.identity_residual if tolerance is None else tolerance
    _guard_cosh(epsilon.modulus, "epsilon")

    # S's safe rows from its parity chains alone.  a lowers occupation n to
    # n - 1 with weight sqrt(n), so S's rows times a are those rows shifted by
    # one column, and a's safe block (occupations 0 ... cap) is a truncated at cap.
    keep = safe_indices(cutoff, margin, modes=1)
    rows = safe_block("squeeze", epsilon, cutoff, keep)
    weights = ladder_weights(cutoff)
    rows_a = np.zeros_like(rows)
    rows_a[:, 1:] = rows[:, :-1] * weights
    a_safe = np.diag(weights[: keep.size - 1], k=1).astype(complex)
    rhs = math.cosh(epsilon.modulus) * a_safe - cmath.exp(1j * epsilon.phase) * math.sinh(
        epsilon.modulus
    ) * a_safe.conj().T
    residuals = {"a_conjugation": float(np.linalg.norm(rows_a @ rows.conj().T - rhs, "fro"))}
    return make_report(
        "check_squeeze_conjugation", (epsilon,), cutoff, margin, residuals, {}, tol
    )


def check_SDS(
    epsilon: PolarParam,
    alpha: PolarParam,
    cutoff: Cutoff | None = None,
    margin: int | None = None,
    tolerance: float | None = None,
) -> Report:
    """Squeeze conjugation of a displacement.

    S(eps) D(alpha) S(eps)^-1 = D(cosh|eps| alpha + e^{i phase} sinh|eps|
    conj(alpha)); with the squeeze phase locked to twice the displacement
    phase (plus pi) this rescales alpha by e^{+|eps|} (e^{-|eps|}), checked at
    the state level against the predicted coherent state.
    """
    cutoff = cutoff or SDS_CUTOFF
    margin = _hyperbolic_margin(cutoff) if margin is None else margin
    tol = DEFAULT_TOLERANCES.identity_residual if tolerance is None else tolerance
    _guard_cosh(epsilon.modulus, "epsilon")

    amplified = math.exp(epsilon.modulus) * alpha.modulus
    tail_warning(amplified, cutoff, context="conjugated displacement")

    # Phase-locked special cases, verified on states, S(z)† being S(-z),
    # against closed-form coherent states; fidelity renormalizes.
    vac = vacuum(cutoff)
    runs = []  # (key, z, the rescaling, S(-z)|0>)
    for key, offset, scale in (
        ("scale_up_state", 0.0, math.exp(epsilon.modulus)),
        ("scale_down_state", math.pi, math.exp(-epsilon.modulus)),
    ):
        locked = PolarParam.from_polar(epsilon.modulus, 2 * alpha.phase + offset)
        inverse = PolarParam.from_polar(epsilon.modulus, locked.phase + math.pi)
        runs.append((key, locked, scale, apply_sectors("squeeze", inverse, vac).amplitudes))

    # S's safe rows, then D(alpha) times S† and both runs' S(-z)|0> stacked
    # as columns: D's one Heisenberg-Weyl chain is applied once, and no
    # whole D(alpha) is formed
    keep = safe_indices(cutoff, margin, modes=1)
    s = safe_block("squeeze", epsilon, cutoff, keep)
    columns = np.column_stack([s.conj().T] + [run[-1] for run in runs])
    ds = sector_product("hw", alpha, cutoff, columns)
    predicted = (
        math.cosh(epsilon.modulus) * alpha.value
        + cmath.exp(1j * epsilon.phase) * math.sinh(epsilon.modulus) * alpha.conj
    )
    d_pred = safe_block("hw", PolarParam.from_value(predicted), cutoff, keep, keep)
    residuals = {
        "displacement_conjugation": float(np.linalg.norm(s @ ds[:, : keep.size] - d_pred, "fro"))
    }
    fidelities = {}
    for (key, locked, scale, _), displaced in zip(runs, ds[:, keep.size :].T):
        out = apply_sectors("squeeze", locked, Ket(displaced, 1, cutoff))
        target = coherent_closed_form(PolarParam.from_value(scale * alpha.value), cutoff)
        fidelities[key] = fidelity(out, target)

    return make_report(
        "check_SDS", (epsilon, alpha), cutoff, margin, residuals, fidelities, tol
    )


def check_SSS_commute(
    epsilon: PolarParam,
    alpha: PolarParam,
    cutoff: Cutoff | None = None,
    margin: int | None = None,
    tolerance: float | None = None,
) -> Report:
    """Commutator of two squeezes.

    Squeezes with a common phase share a generator direction and commute
    exactly, truncation included; with differing phases the commutator is
    generically nonzero and is reported without being asserted.
    """
    cutoff = cutoff or SSS_CUTOFF
    margin = min(SSS_MARGIN, cutoff.n_max) if margin is None else margin
    tol = DEFAULT_TOLERANCES.identity_residual if tolerance is None else tolerance
    _guard_cosh(epsilon.modulus, "epsilon")
    _guard_cosh(alpha.modulus, "alpha")

    # both squeezes are block-diagonal on the same two parity chains, so the
    # commutator's safe block is each chain's block commutator at positions <= cap
    cap = safe_indices(cutoff, margin, modes=1)[-1]
    every = np.arange(cutoff.dim)
    norms = []
    for (_, index, b_eps), (_, _, b_alp) in zip(
        safe_rows("squeeze", epsilon, cutoff, every), safe_rows("squeeze", alpha, cutoff, every)
    ):
        safe = np.ix_(index <= cap, index <= cap)
        norms.append(np.linalg.norm((b_eps @ b_alp - b_alp @ b_eps)[safe]))
    residuals = {"commutator": math.hypot(*norms)}

    matched = (
        epsilon.modulus == 0.0
        or alpha.modulus == 0.0
        or abs(math.remainder(epsilon.phase - alpha.phase, 2 * math.pi)) <= 1e-12
    )
    unasserted = () if matched else ("commutator",)
    return make_report(
        "check_SSS_commute",
        (epsilon, alpha),
        cutoff,
        margin,
        residuals,
        {},
        tol,
        unasserted=unasserted,
    )


def check_phase_formula(
    t: float,
    alpha: PolarParam,
    cutoff: Cutoff | None = None,
    margin: int | None = None,
    tolerance: float | None = None,
) -> Report:
    """Number-operator phase rotation of a displacement: V(t) D(a) V(t)^-1 =
    D(e^{it} a), plus the state-level version and vacuum invariance.

    Diagonal conjugation commutes with truncation, so this is exact at any
    cutoff satisfying the tail rule.
    """
    cutoff = cutoff or PHASE_FORMULA_CUTOFF
    margin = default_margin(cutoff.n_max) if margin is None else margin
    tol = DEFAULT_TOLERANCES.identity_residual if tolerance is None else tolerance

    tail_warning(alpha.modulus, cutoff, context="phase-rotated displacement")

    # reduce t to (-pi, pi] once, by PolarParam's rule, for both sides: the
    # factors e^{i t n} of a raw t past about 1e15 lose the product t n
    angle = PolarParam.from_polar(1.0, t).phase
    rotated = PolarParam.from_value(cmath.exp(1j * angle) * alpha.value)
    # V = e^{itN} is diagonal, so the safe block of V D V† is D's safe block
    # with its rows and columns multiplied by the phases e^{itn}
    v = phase_factors(angle, cutoff)
    keep = safe_indices(cutoff, margin, modes=1)
    d = safe_block("hw", alpha, cutoff, keep, keep)
    d_pred = safe_block("hw", rotated, cutoff, keep, keep)

    vac = vacuum(cutoff)
    residuals = {
        "displacement_conjugation": float(
            np.linalg.norm(v[keep, None] * d * v[keep].conj() - d_pred, "fro")
        ),
        "vacuum_invariance": float(np.linalg.norm(v * vac.amplitudes - vac.amplitudes)),
    }
    # the coherent state is this displaced vacuum, renormalized; the target is
    # closed form, so that a wrong kernel cannot agree with itself
    displaced = apply_sectors("hw", alpha, vac).normalize()
    rotated_state = Ket(v * displaced.amplitudes, 1, cutoff)
    target = coherent_closed_form(rotated, cutoff)
    fidelities = {"rotated_state": fidelity(rotated_state, target)}
    return make_report(
        "check_phase_formula",
        (PolarParam.from_value(t), alpha),
        cutoff,
        margin,
        residuals,
        fidelities,
        tol,
    )


def check_UJ_squeeze_invariance(
    t: PolarParam,
    alpha: PolarParam,
    cutoff: Cutoff | None = None,
    margin: int | None = None,
    tolerance: float | None = None,
) -> Report:
    """Invariance of a squeeze pair under beamsplitter conjugation.

    With beta = alpha conj(t)/t the pair-creation term of the conjugated
    exponent cancels and U(t) S1(alpha) S2(beta) U(t)^-1 = S1(alpha) S2(beta).
    The three coefficient identities of the exponent are evaluated alongside
    the matrix-level residual.  t = 0 makes the condition degenerate and U the
    identity, so any beta is invariant; beta = alpha is taken.
    """
    cutoff = cutoff or UJ_INVARIANCE_CUTOFF
    margin = _hyperbolic_margin(cutoff) if margin is None else margin
    tol = DEFAULT_TOLERANCES.identity_residual if tolerance is None else tolerance
    _guard_cosh(alpha.modulus, "alpha")

    beta = alpha if t.modulus == 0.0 else PolarParam.from_value(alpha.value * t.conj / t.value)
    coeffs = squeeze_pair_exponent_coefficients(alpha.value, beta.value, t.value)

    _, conjugated, pair = _conjugated_squeeze_pair(alpha, beta, t, cutoff, margin)
    residuals = {
        "invariance": float(np.linalg.norm(conjugated - pair, "fro")),
        "mode1_coefficient": abs(2 * coeffs["a1dag2"] - alpha.value),
        "mode2_coefficient": abs(2 * coeffs["a2dag2"] - beta.value),
        "pair_coefficient": abs(coeffs["pair_create"]),
    }
    return make_report(
        "check_UJ_squeeze_invariance", (t, alpha), cutoff, margin, residuals, {}, tol
    )

"""Command-line harness: verification suites, single protocol runs, and
parameter sweeps with machine-readable output.

Exit codes: 0 all checks passed, 1 any check failed or a cutoff-adequacy
warning fired, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .fock import MAX_NMAX, Cutoff, CutoffWarning, Ket, PolarParam, safe_indices
from .formulas import (
    check_J_rotation,
    check_K_rotation,
    check_SDS,
    check_SSS_commute,
    check_UJ_squeeze_invariance,
    check_phase_formula,
    check_squeeze_conjugation,
)
from .lie import (
    SpinK,
    apply_sectors,
    schwinger_su2,
    schwinger_su11,
    single_mode_su11,
    solve_each_chain_once,
    su2_generators,
    su11_generators,
    SpinJ,
)
from .protocols import (
    apply_beamsplitter,
    full_swap,
    imperfect_clone,
    squeezed_swap_obstruction,
)
from .report import Report, make_report
from .states import coherent, fidelity, perelomov_su11, vacuum
from .universal_swap import cnot_factorization, no_cloning_witness, swap_matrix, apply_swap

ENV_NMAX = "FOCKFORGE_NMAX"
DEFAULT_TOL = 1e-6
DEFAULT_SEED = 7
VERIFY_DRAWS = 3


@dataclass
class RunConfig:
    """Validated CLI configuration; n_max None means per-check defaults."""

    n_max: int | None = None
    margin: int | None = None  # None means automatic per-check policy
    tolerance: float = DEFAULT_TOL
    seed: int = DEFAULT_SEED
    output_format: str = "json"
    output_path: str | None = None

    def cutoff(self) -> Cutoff | None:
        """The --nmax override, or None for the callee's own default."""
        return None if self.n_max is None else Cutoff(self.n_max)

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "margin": self.margin if self.margin is not None else "auto",
            "tolerance": self.tolerance,
            "seed": self.seed,
            "format": self.output_format,
        }


class ConfigError(ValueError):
    pass


def _out_error(path: str, reason: str) -> ConfigError:
    return ConfigError(f"cannot write --out {path!r}: {reason}")


def _build_config(args) -> RunConfig:
    n_max, source = args.nmax, "--nmax"
    if n_max is None:
        env = os.environ.get(ENV_NMAX)
        if env is not None:
            source = ENV_NMAX
            try:
                n_max = int(env)
            except ValueError:
                raise ConfigError(f"{ENV_NMAX} must be an integer, got {env!r}")
    if n_max is not None and n_max < 1:
        raise ConfigError(f"{source} must be >= 1, got {n_max}")
    if n_max is not None and n_max > MAX_NMAX:
        raise ConfigError(f"{source} must be at most {MAX_NMAX}")
    margin = None
    if args.margin is not None and args.margin != "auto":
        try:
            margin = int(args.margin)
        except ValueError:
            raise ConfigError(f"--margin must be an integer or 'auto', got {args.margin!r}")
        if margin < 0:
            raise ConfigError("--margin must be non-negative")
        if n_max is not None and margin > n_max:
            raise ConfigError(f"--margin {margin} exceeds {source} {n_max}")
    if not math.isfinite(args.tol) or args.tol <= 0:
        raise ConfigError(f"--tol must be positive and finite, got {args.tol}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    if args.out:
        # fail before any check runs; the write itself still reports the rest
        if os.path.isdir(args.out):
            raise _out_error(args.out, os.strerror(errno.EISDIR))
        if not os.path.isdir(os.path.dirname(args.out) or "."):
            raise _out_error(args.out, os.strerror(errno.ENOENT))
    return RunConfig(
        n_max=n_max,
        margin=margin,
        tolerance=args.tol,
        seed=args.seed,
        output_format=args.format,
        output_path=args.out,
    )


def _finish(config: RunConfig, body: dict, header: list[str], rows: list[list[str]],
            messages: tuple[str, ...], failed: bool) -> int:
    """Write ``body`` as JSON, or ``rows`` of string cells under ``header``
    as CSV; print each distinct warning; 1 if a check failed or warned."""
    if config.output_format == "json":
        text = _json_text(body)
    else:
        text = "".join(",".join(cells) + "\n" for cells in [header, *rows])
    if config.output_path:
        try:
            with open(config.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:  # permissions, or a path changed since the config check
            raise _out_error(config.output_path, exc.strerror)
    else:
        sys.stdout.write(text)
    for msg in dict.fromkeys(messages):
        print(f"warning: {msg}", file=sys.stderr)
    return 1 if failed or messages else 0


def _strict_json(value):
    """``value`` with each non-finite float replaced by the string "NaN",
    "Infinity" or "-Infinity", so that strict JSON parsers accept the body."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return value


def _json_text(body) -> str:
    """A report body as indented JSON with sorted keys; finite bodies are
    written exactly as ``json.dumps`` writes them."""
    return json.dumps(_strict_json(body), allow_nan=False, indent=2, sort_keys=True) + "\n"


def _run_collecting_warnings(fn):
    """Run a check; return its result and the messages of its CutoffWarnings.

    Every other warning it raised is issued again once it has returned.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", CutoffWarning)
        result = fn()
    messages = []
    for w in caught:
        if issubclass(w.category, CutoffWarning):
            messages.append(str(w.message))
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    return result, tuple(messages)


# ---------------------------------------------------------------------------
# the check table: verify-all's draws and the sweeps


_ANGLE = "angle"  # a bare angle drawn from [-pi, pi), not a PolarParam
_polar = PolarParam.from_polar


def _draw(rng, low, high):
    return float(rng.uniform(low, high))


def _draw_param(rng, low, high) -> PolarParam:
    return _polar(_draw(rng, low, high), _draw(rng, -math.pi, math.pi))


def _draws(*ranges, count=VERIFY_DRAWS):
    """draws(rng) giving ``count`` tuples, each drawn left to right: a
    PolarParam for a (low, high) modulus range, a float for _ANGLE."""

    def one(rng, r):
        return _draw(rng, -math.pi, math.pi) if r == _ANGLE else _draw_param(rng, *r)

    return lambda rng: [tuple(one(rng, r) for r in ranges) for _ in range(count)]


def _phase_locked_draws(rng):
    """Squeeze and displacement moduli that share one drawn phase."""
    out = []
    for _ in range(VERIFY_DRAWS):
        phase = _draw(rng, -math.pi, math.pi)
        out.append(tuple(_polar(_draw(rng, 0.05, 0.8), phase) for _ in range(2)))
    return out


@dataclass(frozen=True)
class Check:
    """A public check or protocol as verify-all draws it and a sweep varies it.

    The function is looked up by ``name`` at call time, so a rebinding of
    the module attribute reaches every call.
    """

    name: str
    residuals: tuple[str, ...]
    fidelities: tuple[str, ...]
    draws: Callable  # rng -> verify-all's parameter tuples, in draw order
    sweep: Callable  # swept value -> parameter tuple
    margin: bool = True  # whether the function takes margin=

    def run(self, params: tuple, config: RunConfig) -> Report:
        kwargs = {"cutoff": config.cutoff(), "tolerance": config.tolerance}
        if self.margin:
            kwargs["margin"] = config.margin
        result = globals()[self.name](*params, **kwargs)
        return getattr(result, "report", result)


FORMULA_CHECKS = (
    Check("check_J_rotation",
          ("a1_conjugation", "a2_conjugation", "su2_unitarity", "su2_determinant"), (),
          _draws((0.05, 1.0)), lambda v: (_polar(v, 0.0),)),
    Check("check_K_rotation", ("a1_conjugation", "a2dag_conjugation", "su11_normalization"), (),
          _draws((0.05, 0.5)), lambda v: (_polar(v, 0.0),)),
    Check("check_squeeze_conjugation", ("a_conjugation",), (),
          _draws((0.05, 0.8)), lambda v: (_polar(v, 0.0),)),
    Check("check_SDS", ("displacement_conjugation",), ("scale_up_state", "scale_down_state"),
          _draws((0.05, 0.8), (0.1, 1.0)), lambda v: (_polar(v, 0.0), _polar(0.5, 0.3))),
    Check("check_SSS_commute", ("commutator",), (),
          _phase_locked_draws, lambda v: (_polar(v, 0.0), _polar(0.5, 0.0))),
    Check("check_phase_formula",
          ("displacement_conjugation", "vacuum_invariance"), ("rotated_state",),
          _draws(_ANGLE, (0.1, 2.0)), lambda v: (v, _polar(1.0, 0.0))),
    Check("check_UJ_squeeze_invariance",
          ("invariance", "mode1_coefficient", "mode2_coefficient", "pair_coefficient"), (),
          _draws((0.05, 1.0), (0.05, 0.5)), lambda v: (_polar(v, 0.0), _polar(0.3, 0.0))),
)

PROTOCOL_CHECKS = (
    Check("full_swap", ("input_truncation_deficit",), ("swap",),
          _draws((0.0, 1.5), (0.0, 1.5), _ANGLE),
          lambda v: (_polar(v, 0.0), _polar(0.7, math.pi / 2), 0.0), margin=False),
    Check("imperfect_clone",
          ("marginal1_occupation", "marginal2_occupation", "input_truncation_deficit"), ("clone",),
          lambda rng: [(_polar(modulus, 0.0),) for modulus in (0.5, 1.0, 2.0)],
          lambda v: (_polar(v, 0.0),), margin=False),
    Check("apply_beamsplitter", ("energy_conservation", "input_truncation_deficit"), ("protocol",),
          _draws((0.0, 1.5), (0.0, 1.5), (0.1, 1.5), count=2),
          lambda v: (_polar(v, 0.0), _polar(0.6, 1.0), _polar(0.8, 0.2)), margin=False),
    Check("squeezed_swap_obstruction", ("exponent_match", "invariance", "cross_term_modulus"), (),
          lambda rng: [(_polar(0.3, 0.0), _polar(0.3, 0.0), kappa)
                       for kappa in (_polar(0.4, 0.0), _polar(0.5, math.pi / 2))],
          lambda v: (_polar(0.3, 0.0), _polar(0.3, 0.0), _polar(v, math.pi / 2))),
)

SWEEP_REGISTRY = {  # for perfbench: name -> (runner(value, config), residual and fidelity columns)
    c.name: (lambda value, config, c=c: c.run(c.sweep(value), config), c.residuals, c.fidelities)
    for c in FORMULA_CHECKS + PROTOCOL_CHECKS
}


def _run_draws(checks, config: RunConfig, rng) -> list:
    return [c.run(params, config) for c in checks for params in c.draws(rng)]


# ---------------------------------------------------------------------------
# verify-all suite


def _formulas_reports(config: RunConfig, rng) -> list:
    return _run_draws(FORMULA_CHECKS, config, rng)


def _protocol_reports(config: RunConfig, rng) -> list:
    return _run_draws(PROTOCOL_CHECKS, config, rng)


def _lie_reports(config: RunConfig) -> list:
    tol = config.tolerance
    cut8, cut10, cut20, cut30 = Cutoff(8), Cutoff(10), Cutoff(20), Cutoff(30)
    keep10 = safe_indices(cut10, 1, modes=2)
    closures = (  # (name, cutoff, margin, [(triple, kept indices), ...])
        ("su2_closure", cut8, 0,
         [(su2_generators(SpinJ(two_j)), np.arange(two_j + 1)) for two_j in range(1, 9)]),
        # one ladder step below the boundary
        ("su11_closure_abstract", cut30, 1,
         [(su11_generators(SpinK(Fraction(1, 2), cut30)), np.arange(cut30.dim - 1))]),
        ("su11_closure_schwinger", cut10, 1, [(schwinger_su11(cut10), keep10)]),
        # one ladder step = two occupation levels
        ("su11_closure_single_mode", cut20, 2,
         [(single_mode_su11(cut20), np.arange(cut20.dim - 2))]),
        ("su2_closure_schwinger", cut10, 1, [(schwinger_su2(cut10), keep10)]),
    )
    reports = []
    for name, cut, margin, pairs in closures:
        worst = max(triple.closure_residual(keep) for triple, keep in pairs)
        reports.append(make_report(name, (), cut, margin, {"closure": worst}, {}, tol))

    # quarter-spin correspondence: the quadratic realization on the even
    # occupations reproduces the abstract K=1/4 coherent state.
    z = PolarParam.from_polar(0.5, 0.9)
    fock_cut = Cutoff(64)
    spin = SpinK(Fraction(1, 2), Cutoff(fock_cut.n_max // 2))
    pere = perelomov_su11(z, spin)
    squeezed = apply_sectors("squeeze", z, vacuum(fock_cut))
    f = fidelity(pere, Ket(squeezed.amplitudes[0::2], 1, spin.cutoff))
    reports.append(
        make_report(
            "su11_quarter_correspondence",
            (z,),
            fock_cut,
            0,
            {},
            {"correspondence": f},
            tol,
        )
    )
    return reports


def _universal_swap_reports(config: RunConfig, rng) -> list:
    tol = config.tolerance
    reports = []

    worst = 0.0
    for n in (2, 3, 5, 16):
        u = swap_matrix(n)
        worst = max(worst, 0.0 if u.is_involution else 1.0)
    reports.append(
        make_report("swap_matrix_involution", (), Cutoff(15), 0, {"involution": worst}, {}, tol)
    )

    c1, c2, c3 = cnot_factorization()
    product = c1.compose(c2).compose(c3)
    gap = float(np.abs(product.to_dense() - swap_matrix(2).to_dense()).max())
    reports.append(
        make_report("cnot_product", (), Cutoff(1), 0, {"factorization": gap}, {}, tol)
    )

    n = 10
    cut = Cutoff(n - 1)
    worst = 0.0
    for _ in range(VERIFY_DRAWS):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out = apply_swap(Ket(a, 1, cut), Ket(b, 1, cut))
        worst = max(worst, float(np.abs(out.amplitudes - np.kron(b, a)).max()))
    reports.append(
        make_report("apply_swap_exactness", (), cut, 0, {"coordinates": worst}, {}, tol)
    )

    # permutation route against the protocol route
    a1 = PolarParam.from_polar(1.0, 0.3)
    a2 = PolarParam.from_polar(0.8, -1.1)
    protocol = full_swap(a1, a2, 0.0, config.cutoff(), tol)
    swap_cut = protocol.output.cutoff
    permuted = apply_swap(coherent(a1, swap_cut), coherent(a2, swap_cut))
    f = fidelity(permuted, protocol.output)
    reports.append(
        make_report(
            "swap_route_consistency", (a1, a2), swap_cut, 0, {}, {"route_agreement": f}, tol
        )
    )

    basis = vacuum(Cutoff(3))
    reports.append(no_cloning_witness(basis, tol))
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[1] = 1 / math.sqrt(2)
    reports.append(no_cloning_witness(Ket(amps, 1, Cutoff(3)), tol))
    return reports


def cmd_verify_all(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    reports, messages = _run_collecting_warnings(
        lambda: _formulas_reports(config, rng)
        + _protocol_reports(config, rng)
        + _lie_reports(config)
        + _universal_swap_reports(config, rng)
    )

    body = {
        "config": config.to_json_dict(),
        "reports": [r.to_json_dict() for r in reports],
    }
    header = ["name", "passed", "n_max", "margin", "worst_residual", "worst_fidelity_deficit"]
    rows = [
        [r.name, str(r.passed), str(r.cutoff.n_max), str(r.margin),
         repr(float(r.worst_residual)), repr(float(r.worst_fidelity_deficit))]
        for r in reports
    ]
    failed = [r.name for r in reports if not r.passed]
    code = _finish(config, body, header, rows, messages, bool(failed))
    for name in failed:
        print(f"failed: {name}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# single protocol commands


def _protocol_exit(protocol, config: RunConfig) -> int:
    result, messages = _run_collecting_warnings(protocol)
    body = result.to_json_dict()
    n1, n2 = body["mean_occupations"]
    header = ["protocol", "fidelity", "mean_occupation_1", "mean_occupation_2", "passed"]
    row = [result.report.name, *(repr(float(x)) for x in (result.fidelity, n1, n2)),
           str(result.report.passed)]
    return _finish(config, body, header, [row], messages, not result.report.passed)


def cmd_swap(config: RunConfig, alpha1: PolarParam, alpha2: PolarParam, delta: float) -> int:
    return _protocol_exit(
        lambda: full_swap(alpha1, alpha2, delta, config.cutoff(), config.tolerance), config
    )


def cmd_clone(config: RunConfig, alpha: PolarParam, delta: float = 0.0) -> int:
    return _protocol_exit(
        lambda: imperfect_clone(alpha, config.cutoff(), delta, config.tolerance), config
    )


# ---------------------------------------------------------------------------
# sweeps


def cmd_sweep(config: RunConfig, check_name: str, values: list[float]) -> int:
    checks = {c.name: c for c in FORMULA_CHECKS + PROTOCOL_CHECKS}
    if check_name not in checks:
        print(f"error: unknown check {check_name!r}", file=sys.stderr)
        print(f"registered: {', '.join(sorted(checks))}", file=sys.stderr)
        return 2
    check = checks[check_name]

    reports, messages = _run_collecting_warnings(
        lambda: [(value, check.run(check.sweep(value), config)) for value in values]
    )

    body = {
        "check": check_name,
        "reports": [dict(value=v, **r.to_json_dict()) for v, r in reports],
    }
    header = ["check", "value", *check.residuals, *check.fidelities, "passed"]
    rows = [
        [check_name, repr(float(v))]
        + [repr(float(r.residuals.get(k, math.nan))) for k in check.residuals]
        + [repr(float(r.fidelities.get(k, math.nan))) for k in check.fidelities]
        + [str(r.passed)]
        for v, r in reports
    ]
    return _finish(config, body, header, rows, messages, not all(r.passed for _, r in reports))


# ---------------------------------------------------------------------------
# argument parsing


def _finite_delta(delta: float) -> float:
    if not math.isfinite(delta):
        raise ConfigError(f"--delta must be finite, got {delta}")
    return delta


def _parse_values(text: str) -> list[float]:
    values = []
    for tok in (tok.strip() for tok in text.split(",")):
        if not tok:
            continue
        try:
            value = float(tok)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ConfigError(f"--values must be finite numbers, got {tok!r}")
        values.append(value)
    return values


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--nmax", type=int, default=None, help="override the truncation level")
    common.add_argument(
        "--margin", default=None, help="safe-projector margin (integer or 'auto')"
    )
    common.add_argument("--tol", type=float, default=DEFAULT_TOL, help="pass/fail tolerance")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed for draws")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write the report body to this path")

    parser = argparse.ArgumentParser(
        prog="fockforge",
        description="Numerical certification of coherent-state identities and protocols "
        "on truncated Fock spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify-all", parents=[common], help="run the full verification suite")

    p_swap = sub.add_parser("swap", parents=[common], help="swap two coherent states")
    p_swap.add_argument("--a1", required=True, help="first amplitude: re,im or mod@phase")
    p_swap.add_argument("--a2", required=True, help="second amplitude: re,im or mod@phase")
    p_swap.add_argument("--delta", type=float, default=0.0, help="beamsplitter phase")

    p_clone = sub.add_parser("clone", parents=[common], help="imperfectly clone a coherent state")
    p_clone.add_argument("--alpha", required=True, help="amplitude: re,im or mod@phase")
    p_clone.add_argument("--delta", type=float, default=0.0, help="beamsplitter phase")

    p_sweep = sub.add_parser("sweep", parents=[common], help="run a named check over a grid")
    p_sweep.add_argument("--check", required=True, help="registered check name")
    p_sweep.add_argument(
        "--values", default="", help="comma-separated values of the swept parameter: "
        "a modulus, or the angle t in radians for check_phase_formula (see README)"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        config = _build_config(args)
        # a command's checks share each chain's eigensolve, and drop them on return
        with solve_each_chain_once():
            if args.command == "verify-all":
                return cmd_verify_all(config)
            if args.command == "swap":
                return cmd_swap(
                    config,
                    PolarParam.parse(args.a1),
                    PolarParam.parse(args.a2),
                    _finite_delta(args.delta),
                )
            if args.command == "clone":
                return cmd_clone(config, PolarParam.parse(args.alpha), _finite_delta(args.delta))
            if args.command == "sweep":
                return cmd_sweep(config, args.check, _parse_values(args.values))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # exit 1 means a failed check; running out of memory is a usage error
        print("error: out of memory at this truncation; try a smaller --nmax", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())

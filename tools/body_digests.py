"""Exit code and sha256 digests of stdout and stderr for a fixed list of 60
fockforge commands, run in-process against the package in CHECKOUT/src.

    OPENBLAS_NUM_THREADS=1 python tools/body_digests.py CHECKOUT > digests.txt

Run it on two checkouts, or twice on one, and diff the outputs: equal lines
mean byte-identical report bodies, warnings and exit codes.  Bodies are
reproducible only at a fixed BLAS thread count, hence the variable.

With ``--bodies DIR`` it also writes each command's stdout and stderr to
DIR/01.out and DIR/01.err, DIR/02.out and so on, numbered in the order
printed, and the printed lines to DIR/digests.txt, so that two checkouts'
bodies can be compared value by value (tools/compare_bodies.py); the
printed lines do not change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import warnings
from pathlib import Path

SWEPT_CHECKS = (
    "check_J_rotation",
    "check_K_rotation",
    "check_squeeze_conjugation",
    "check_SDS",
    "check_SSS_commute",
    "check_phase_formula",
    "check_UJ_squeeze_invariance",
    "full_swap",
    "imperfect_clone",
    "apply_beamsplitter",
    "squeezed_swap_obstruction",
)

COMMANDS = (
    [
        ["verify-all", "--seed", "7"],
        ["verify-all", "--seed", "11"],
        ["verify-all", "--seed", "7", "--format", "csv"],
        ["verify-all", "--seed", "3", "--nmax", "30"],
        ["verify-all", "--seed", "5", "--margin", "2"],
        ["verify-all", "--seed", "7", "--tol", "1e-16"],
    ]
    + [
        ["sweep", "--check", check, "--values", "0.0,0.3,0.9", "--format", fmt]
        for fmt in ("json", "csv")
        for check in SWEPT_CHECKS
    ]
    # a small cutoff: check_J_rotation (exact on complete sectors) and
    # check_SSS_commute (common phases, its default margin capped at the
    # cutoff) pass; every other check fails, and those with a coherent
    # amplitude also warn: check_SDS, check_phase_formula, full_swap,
    # imperfect_clone and apply_beamsplitter
    + [["sweep", "--check", check, "--values", "0.2,0.7", "--nmax", "6"] for check in SWEPT_CHECKS]
    + [
        ["swap", "--a1", "1,0", "--a2", "0,1"],
        ["clone", "--alpha", "1,0"],
        ["swap", "--a1", "3,0", "--a2", "0,1", "--nmax", "10"],
        ["clone", "--alpha", "3,0", "--nmax", "10"],
        # amplitudes no float computation resolves: exit 2
        ["swap", "--a1", "1e20,0", "--a2", "0,1"],
        ["clone", "--alpha", "1e150,0", "--nmax", "10"],
        ["sweep", "--check", "check_J_rotation", "--values", "1e6,1e9,1e12", "--format", "csv"],
        # large finite angles, reduced to (-pi, pi] before any phase is formed: exit 0
        ["swap", "--a1", "1,0", "--a2", "0,1", "--delta", "1e15"],
        ["clone", "--alpha", "1,0", "--delta", "1e300"],
        ["sweep", "--check", "check_phase_formula", "--values", "1e300"],
        # the obstruction's conjugated side at a larger cutoff than the default
        ["sweep", "--check", "squeezed_swap_obstruction", "--values", "0.0,0.45,0.9", "--nmax", "60"],
        # the protocols' CSV bodies
        ["swap", "--a1", "1,0", "--a2", "0,1", "--format", "csv"],
        ["clone", "--alpha", "1,0", "--format", "csv"],
        # safe blocks other than the defaults: S's safe rows and D's blocks in
        # check_SDS, and the squeeze pair's one-mode blocks, which cut the
        # parity chains at the cap that --nmax sets
        ["sweep", "--check", "check_SDS", "--values", "0.2,0.5", "--nmax", "100", "--margin", "80"],
        ["sweep", "--check", "check_UJ_squeeze_invariance", "--values", "0.0,0.45,0.9", "--nmax", "60"],
        # a's shift along S's safe rows, at a cap and row width other than the defaults
        ["sweep", "--check", "check_squeeze_conjugation", "--values", "0.2,0.5", "--nmax", "60", "--margin", "30"],
        # D's safe blocks in check_phase_formula at a cutoff and margin other than the defaults
        ["sweep", "--check", "check_phase_formula", "--values", "0.4,2.0,3.0", "--nmax", "20", "--margin", "3"],
        # the squeezes' chain blocks in check_SSS_commute at margin 0, where every
        # chain position is inside the safe block
        ["sweep", "--check", "check_SSS_commute", "--values", "0.3,1.2", "--nmax", "12", "--margin", "0"],
        # flags a command does not read: exit 2
        ["swap", "--a1", "1,0", "--a2", "0,1", "--seed", "3"],
        ["sweep", "--check", "full_swap", "--values", "0.5", "--margin", "3"],
        # a modulus whose cosh overflows a float fails the cosh guard: exit 2
        ["sweep", "--check", "check_K_rotation", "--values", "711"],
    ]
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="repository root whose src/ is imported")
    parser.add_argument("--bodies", type=Path, metavar="DIR", help="also write each stdout and stderr here")
    args = parser.parse_args()
    if args.bodies is not None:
        args.bodies.mkdir(parents=True, exist_ok=True)

    src = (args.checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import fockforge.cli

    if Path(fockforge.cli.__file__).resolve().parent != src / "fockforge":
        sys.exit(f"imported fockforge from {fockforge.cli.__file__}, not {src}")

    lines = []
    for number, argv in enumerate(COMMANDS, 1):
        out, err = io.StringIO(), io.StringIO()
        # catch_warnings: a fresh filter state per command, as in a new process
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                code = fockforge.cli.main(argv)
        if args.bodies is not None:
            (args.bodies / f"{number:02d}.out").write_text(out.getvalue())
            (args.bodies / f"{number:02d}.err").write_text(err.getvalue())
        digests = f"stdout={_sha256(out.getvalue())} stderr={_sha256(err.getvalue())}"
        lines.append(f"exit={code} {digests}  {' '.join(argv)}")
        print(lines[-1], flush=True)
    if args.bodies is not None:
        (args.bodies / "digests.txt").write_text("".join(f"{line}\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

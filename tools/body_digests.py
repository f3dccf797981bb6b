"""Exit code and sha256 digests of stdout and stderr for a fixed list of
fockforge commands, run in-process against the package in CHECKOUT/src.

    OPENBLAS_NUM_THREADS=1 python tools/body_digests.py CHECKOUT > digests.txt

Run it on two checkouts, or twice on one, and diff the outputs: equal lines
mean byte-identical report bodies, warnings and exit codes.  Bodies are
reproducible only at a fixed BLAS thread count, hence the variable.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
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
    # inadequate cutoffs: every check warns
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
    ]
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="repository root whose src/ is imported")
    args = parser.parse_args()

    src = (args.checkout / "src").resolve()
    sys.path.insert(0, str(src))
    os.environ.pop("FOCKFORGE_NMAX", None)  # it would move every default cutoff
    import fockforge.cli

    if Path(fockforge.cli.__file__).resolve().parent != src / "fockforge":
        sys.exit(f"imported fockforge from {fockforge.cli.__file__}, not {src}")

    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        # catch_warnings: a fresh filter state per command, as in a new process
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                code = fockforge.cli.main(argv)
        digests = f"stdout={_sha256(out.getvalue())} stderr={_sha256(err.getvalue())}"
        print(f"exit={code} {digests}  {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

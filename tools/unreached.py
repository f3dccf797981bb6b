"""Print every function and method in CHECKOUT/src that no command enters.

    OPENBLAS_NUM_THREADS=1 python tools/unreached.py CHECKOUT

Runs tools/body_digests.py's commands, ``verify-all --seed 1`` to
``--seed 29`` and one command with an unwritable ``--out``, in-process under
``sys.setprofile``.  The profile is set before the package is imported, so
that calls made at import time count.  Functions are read from the source
with ``ast``, a nested one as ``outer.<locals>.inner``; lambdas are not
listed.  A call is matched to its function by the code object's file, first
line and name.

Each unreached function is printed with its reason when ALLOWED lists it.
Exit status 1 when any unreached function is not on that list.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import sys
import warnings
from pathlib import Path

_WRAPPED = "perfbench wraps it by name"
_ARITHMETIC = "Operator's algebra, the type displacement, squeeze and beamsplitter_UJ return"

# module.qualname -> why no command needs to enter it
ALLOWED = {
    "fock._expm_array": f"the tests' dense exponential; {_WRAPPED}",
    "fock.expm": f"the tests' dense exponential; {_WRAPPED}",
    "lie.beamsplitter_UJ": f"library form of the su(2) rotation; {_WRAPPED}",
    "lie.sector_operator": "the whole operator that beamsplitter_UJ, displacement and squeeze return",
    "states.squeeze": f"the paper's squeeze operator; {_WRAPPED}",
    "fock.Operator.apply": f"{_ARITHMETIC}; {_WRAPPED} as fock.apply",
    "fock.Operator.dim": _ARITHMETIC,
    "fock.Operator._like": _ARITHMETIC,
    "fock.Operator._check_compatible": _ARITHMETIC,
    "fock.Operator.__matmul__": _ARITHMETIC,
    "fock.Operator.__add__": _ARITHMETIC,
    "fock.Operator.__sub__": _ARITHMETIC,
    "fock.Operator.__mul__": _ARITHMETIC,
    "fock.Operator.__neg__": _ARITHMETIC,
    "states.displacement": "the paper's displacement operator, library API",
    "states.phase_rotation": "the paper's phase rotation, library API",
    "states.perelomov_su2": "the su(2) coherent state, library API; no report compares it yet",
    "fock.adequate_cutoff": "the Poisson tail rule, library API; no command sizes a cutoff with it yet",
}

_TOOLS = Path(__file__).resolve().parent


def commands() -> list[list[str]]:
    """body_digests.py's commands, the seeded verify-all runs and a bad --out."""
    spec = importlib.util.spec_from_file_location("body_digests", _TOOLS / "body_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    return (
        list(digests.COMMANDS)
        + [["verify-all", "--seed", str(seed)] for seed in range(1, 30)]
        + [["swap", "--a1", "1,0", "--a2", "0,1", "--out", "no-such-directory/out.json"]]
    )


def defined(package: Path) -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of every function in ``package`` -> its
    module.qualname; a decorated function's code starts at its first decorator."""
    out = {}

    def walk(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, first, child.name)] = f"{module}.{prefix}{child.name}"
                walk(child, path, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, module, f"{prefix}{child.name}.")
            else:
                walk(child, path, module, prefix)

    for file in sorted(package.glob("*.py")):
        walk(ast.parse(file.read_text(), str(file)), str(file), file.stem, "")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="repository root whose src/ is imported")
    args = parser.parse_args(argv)

    src = (args.checkout / "src").resolve()
    functions, todo = defined(src / "fockforge"), commands()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.path.insert(0, str(src))
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        import fockforge.cli

        for argv in todo:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                with warnings.catch_warnings():
                    fockforge.cli.main(argv)
    finally:
        sys.setprofile(previous)
    if Path(fockforge.cli.__file__).resolve().parent != src / "fockforge":
        sys.exit(f"imported fockforge from {fockforge.cli.__file__}, not {src}")

    reached = {functions.get((c.co_filename, c.co_firstlineno, c.co_name)) for c in entered}
    unreached = sorted(set(functions.values()) - reached)
    for name in unreached:
        print(f"{name}: {ALLOWED.get(name, 'NOT ALLOWED')}")
    refused = [name for name in unreached if name not in ALLOWED]
    print(f"{len(unreached)} of {len(functions)} functions unreached, {len(refused)} not allowed")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())

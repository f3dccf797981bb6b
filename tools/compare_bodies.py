"""Compare two ``body_digests.py --bodies`` directories value by value.

    python tools/compare_bodies.py OLD NEW

Commands are matched by their argv, as listed in each directory's
``digests.txt``.  For every command whose stdout differs it prints the
largest absolute move of a number in the body, with where it sits and its
two values; every other difference is printed as a change: an exit code, a
stderr text, a value that is not a number (a verdict ``passed``, a check
name), a body's shape, or a command that only one side ran.  JSON bodies
are compared leaf by leaf, CSV bodies cell by cell; a string that
``float`` reads ("NaN", "Infinity", "0.5") counts as a number.

Exit status 1 when anything changed, else 0: a number's move is printed
but never sets the status.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from pathlib import Path

_LINE = re.compile(r"exit=(\S+) stdout=\S+ stderr=\S+  (.*)")


def _commands(bodies: Path) -> dict[str, tuple[str, str]]:
    """argv -> (exit code, file stem) from ``bodies/digests.txt``."""
    out = {}
    for number, line in enumerate((bodies / "digests.txt").read_text().splitlines(), 1):
        exit_code, argv = _LINE.fullmatch(line).groups()
        out[argv] = exit_code, f"{number:02d}"
    return out


def _leaves(text: str) -> dict[str, object]:
    """Path -> value of every leaf of a JSON body, or of every cell of a CSV
    body as ``row/column``; an empty body has none."""
    if not text:
        return {}
    try:
        tree = json.loads(text)
    except json.JSONDecodeError:
        header, *rows = csv.reader(io.StringIO(text))
        return {f"{r}/{name}": cell for r, row in enumerate(rows) for name, cell in zip(header, row)}
    out = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for k, value in enumerate(node):
                walk(value, f"{path}[{k}]")
        else:
            out[path] = node

    walk(tree, "")
    return out


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)  # a CSV cell, or a JSON string such as "NaN"
    except (TypeError, ValueError):
        return None


def _move(old: float, new: float) -> float:
    """|new - old|, 0 for two NaNs or two equal infinities."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old)  # inf, or nan when only one side is NaN


def compare(old_dir: Path, new_dir: Path) -> tuple[list[str], bool]:
    """The printed lines, and whether anything other than a number changed."""
    old, new = _commands(old_dir), _commands(new_dir)
    lines, failed, moved = [], False, 0
    for argv in [a for a in old if a not in new] + [a for a in new if a not in old]:
        side = "OLD" if argv in old else "NEW"
        lines.append(f"only in {side}: {argv}")
        failed = True
    common = [a for a in new if a in old]
    for argv in common:
        (old_exit, old_stem), (new_exit, new_stem) = old[argv], new[argv]
        if old_exit != new_exit:
            lines.append(f"exit {old_exit} -> {new_exit}: {argv}")
            failed = True
        if (old_dir / f"{old_stem}.err").read_text() != (new_dir / f"{new_stem}.err").read_text():
            lines.append(f"stderr changed: {argv}")
            failed = True
        a = _leaves((old_dir / f"{old_stem}.out").read_text())
        b = _leaves((new_dir / f"{new_stem}.out").read_text())
        if a.keys() != b.keys():
            lines.append(f"shape changed: {argv}")
            failed = True
            continue
        worst = None
        for path in a:
            x, y = _number(a[path]), _number(b[path])
            if x is None or y is None:
                if a[path] != b[path]:
                    lines.append(f"changed {path} {a[path]!r} -> {b[path]!r}: {argv}")
                    failed = True
                continue
            size = _move(x, y)
            if size and (worst is None or not size <= worst[0]):
                worst = size, path, a[path], b[path]
        if worst is not None:
            moved += 1
            size, path, x, y = worst
            lines.append(f"moved {size:.2g} at {path} ({x!r} -> {y!r}): {argv}")
    lines.append(f"{moved} of {len(common)} common commands moved")
    return lines, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the first --bodies directory")
    parser.add_argument("new", type=Path, help="the second --bodies directory")
    args = parser.parse_args(argv)
    lines, failed = compare(args.old, args.new)
    print("\n".join(lines))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())

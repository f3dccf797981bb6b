"""tools/body_digests.py: ``--bodies DIR`` writes the bodies it digests and
leaves the printed lines as they are without it; tools/compare_bodies.py
compares two such directories value by value; tools/unreached.py lists the
functions that a list of commands never enters."""

import hashlib
import importlib.util
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _run(monkeypatch, capsys, *flags):
    tool = _tool("body_digests")
    # one command that passes and one that fails with a warning
    monkeypatch.setattr(tool, "COMMANDS", [
        ["swap", "--a1", "1,0", "--a2", "0,1"],
        ["sweep", "--check", "check_SDS", "--values", "0.7", "--nmax", "6"],
    ])
    # the tool puts src/ on the path; it comes back
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", ["body_digests.py", str(ROOT), *flags])
    assert tool.main() == 0
    return capsys.readouterr().out


def test_bodies_are_the_digested_text(monkeypatch, capsys, tmp_path):
    plain = _run(monkeypatch, capsys)
    lines = _run(monkeypatch, capsys, "--bodies", str(tmp_path / "bodies"))
    assert lines == plain
    for number, line in enumerate(lines.splitlines(), 1):
        out = (tmp_path / "bodies" / f"{number:02d}.out").read_text()
        err = (tmp_path / "bodies" / f"{number:02d}.err").read_text()
        assert out and bool(err) == (number == 2)  # only the small-cutoff sweep warns
        sha = {k: hashlib.sha256(t.encode()).hexdigest() for k, t in (("stdout", out), ("stderr", err))}
        assert f"stdout={sha['stdout']} stderr={sha['stderr']}" in line
    assert (tmp_path / "bodies" / "digests.txt").read_text() == lines


def test_compare_bodies_reports_moves_and_changes(monkeypatch, capsys, tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    _run(monkeypatch, capsys, "--bodies", str(old))
    _run(monkeypatch, capsys, "--bodies", str(new))
    compare = _tool("compare_bodies")
    assert compare.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out == "0 of 2 common commands moved\n"

    # move two numbers of the swap's JSON body, the larger by 3e-16
    body = json.loads((new / "01.out").read_text())
    report = body["report"]
    report["residuals"]["input_truncation_deficit"] += 3e-16
    report["tolerance"] *= 1.0 + 1e-12
    (new / "01.out").write_text(json.dumps(body))
    assert compare.main([str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "moved 3e-16 at report.residuals.input_truncation_deficit (0.0 -> 3e-16): "
        "swap --a1 1,0 --a2 0,1"
    )
    assert lines[-1] == "1 of 2 common commands moved"

    # a verdict, an exit code, a stderr text and a command only one side ran
    shutil.copytree(new, tmp_path / "changed")
    changed = tmp_path / "changed"
    report["passed"] = not report["passed"]
    (changed / "01.out").write_text(json.dumps(body))
    (changed / "02.err").write_text("")
    digests = (changed / "digests.txt").read_text().splitlines()
    digests[1] = digests[1].replace("exit=1", "exit=2", 1)
    digests.append(digests[0].replace("--a2 0,1", "--a2 0,2"))
    (changed / "digests.txt").write_text("".join(f"{line}\n" for line in digests))
    assert compare.main([str(old), str(changed)]) == 1
    out = capsys.readouterr().out
    assert "only in NEW: swap --a1 1,0 --a2 0,2\n" in out
    assert f"changed report.passed {not report['passed']!r} -> {report['passed']!r}: swap" in out
    assert "exit 1 -> 2: sweep --check check_SDS --values 0.7 --nmax 6\n" in out
    assert "stderr changed: sweep --check check_SDS --values 0.7 --nmax 6\n" in out


def test_unreached_lists_what_two_commands_never_enter(monkeypatch, capsys):
    tool = _tool("unreached")
    monkeypatch.setattr(tool, "commands", lambda: [
        ["swap", "--a1", "1,0", "--a2", "0,1"],
        ["sweep", "--check", "check_SDS", "--values", "0.7", "--nmax", "6"],
    ])
    monkeypatch.setattr(sys, "path", list(sys.path))
    # the package is imported afresh under the profile, as in a new process;
    # the modules the other tests imported come back
    for name in [m for m in sys.modules if m.split(".")[0] == "fockforge"]:
        monkeypatch.delitem(sys.modules, name)
    assert tool.main([str(ROOT)]) == 1
    *lines, total = capsys.readouterr().out.splitlines()
    listed = dict(line.split(": ", 1) for line in lines)
    assert listed["formulas.check_K_rotation"] == "NOT ALLOWED"  # neither command runs it
    assert listed["states.displacement"] == tool.ALLOWED["states.displacement"]
    assert "protocols.full_swap" not in listed and "formulas.check_SDS" not in listed
    assert "cli._draws" not in listed  # entered only while cli is imported
    refused = sum(reason == "NOT ALLOWED" for reason in listed.values())
    assert total.endswith(f"functions unreached, {refused} not allowed")

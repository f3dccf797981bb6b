"""tools/body_digests.py: ``--bodies DIR`` writes the bodies it digests and
leaves the printed lines as they are without it."""

import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(monkeypatch, capsys, *flags):
    spec = importlib.util.spec_from_file_location("body_digests", ROOT / "tools" / "body_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
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

"""The README's "Library use" example runs as written against the package."""

from __future__ import annotations

import re

from helpers import REPO_CONFIG

README = REPO_CONFIG.parent.parent / "README.md"


def test_library_use_snippet_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (snippet,) = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, f"{README}: Library use", "exec"), {"__name__": "__readme__"})
    waypoints, makespan_s = capsys.readouterr().out.split()
    assert int(waypoints) > 0 and float(makespan_s) > 0.0
    assert list(tmp_path.iterdir()) == []

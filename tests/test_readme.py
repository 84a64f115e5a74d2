"""The README's "Library use" example runs as written against the package,
and every module pointer in the README names something the package has."""

from __future__ import annotations

import importlib
import pkgutil
import re

import uavsurvey
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


def test_module_pointers_resolve():
    """A backticked dotted name whose first part is a submodule
    (`routing._path_rows`), or `uavsurvey.` and a submodule
    (`uavsurvey.sim.config_digest`), resolves by getattr. Instance
    attributes are written without a module (`WaypointGrid.points`)."""
    submodules = {m.name for m in pkgutil.iter_modules(uavsurvey.__path__)}
    pointers = set()
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text(encoding="utf-8")):
        module, *attributes = name.removeprefix("uavsurvey.").split(".")
        if module in submodules and attributes:
            pointers.add(name)
            obj = importlib.import_module(f"uavsurvey.{module}")
            for attribute in attributes:
                assert hasattr(obj, attribute), f"README names `{name}`, but {attribute!r} is not there"
                obj = getattr(obj, attribute)
    assert {"routing._path_rows", "uavsurvey.sim.config_digest"} <= pointers

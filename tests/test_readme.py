"""The README's "Library use" example runs as written against the package,
every refusal it quotes is the one the package raises, and every module
pointer in the README names something the package has."""

from __future__ import annotations

import importlib
import math
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


def test_quoted_refusals_are_raised():
    """Each "`expr` raises `ValueError: message`" in the README, its code
    spans joined across line breaks, raises exactly that message. ``home``
    and ``p`` stand for any GeoPoint."""
    text = re.sub(r"^```.*?^```$", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    spans = [" ".join(part.split()) for part in text.split("`")]
    # Code spans are the odd parts; a pair is a span, " raises ", then a span.
    pairs = [
        (spans[k], spans[k + 2].removeprefix("ValueError: "))
        for k in range(1, len(spans) - 2, 2)
        if spans[k + 1] == "raises" and spans[k + 2].startswith("ValueError: ")
    ]
    names = {name: getattr(uavsurvey, name) for name in uavsurvey.__all__}
    names.update(math=math, home=uavsurvey.GeoPoint(53.2762, -9.0654), p=uavsurvey.GeoPoint(53.2762, -9.0654))
    for expr, message in pairs:
        try:
            eval(expr, dict(names))
        except ValueError as exc:
            assert str(exc) == message, expr
        else:
            raise AssertionError(f"README says {expr} raises ValueError; it returned")
    assert len(pairs) >= 8

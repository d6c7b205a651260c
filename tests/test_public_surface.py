"""The public surface: every exported name resolves, and README's library
example runs as written."""
from __future__ import annotations

import re
from pathlib import Path

import skyway_delivery

ROOT = Path(__file__).resolve().parents[1]


def test_exports_resolve_and_readme_library_example_runs(monkeypatch, capsys):
    missing = [name for name in skyway_delivery.__all__
               if not hasattr(skyway_delivery, name)]
    assert missing == []
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    example = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out == "True 1645.735464897913\n"

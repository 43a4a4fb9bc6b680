"""The demos and the README's quick start run against the public API.

A name dropped from ``hurstlab.__all__`` or a changed signature that a demo
or the README still uses fails here, not for a reader.
"""

import re
import runpy
from pathlib import Path

import pytest

import hurstlab

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) >= 3


def test_every_exported_name_resolves():
    for name in hurstlab.__all__:
        assert hasattr(hurstlab, name), name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demos may write their outputs to the working directory
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md quick start", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out

"""README.md's and docs/'s ``python`` blocks run as written.

The Quickstart is the first code a reader meets, so every fenced
``python`` block of README.md and of ``docs/*.md`` is executed here, in a
scratch directory, one namespace per block.  A fragment not meant to run
is fenced as ``text``.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
FENCE = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
BLOCKS = FENCE.findall(README.read_text())
DOC_BLOCKS = {f"{path.name}:{i}": block
              for path in sorted((ROOT / "docs").glob("*.md"))
              for i, block in enumerate(FENCE.findall(path.read_text()))}


def _run(source, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, name, "exec"), {"__name__": "__readme__"})


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, tmp_path, monkeypatch):
    _run(BLOCKS[index], f"README.md python block {index}", tmp_path,
         monkeypatch)


@pytest.mark.parametrize("name", sorted(DOC_BLOCKS))
def test_docs_block_runs(name, tmp_path, monkeypatch):
    _run(DOC_BLOCKS[name], f"docs/{name}", tmp_path, monkeypatch)

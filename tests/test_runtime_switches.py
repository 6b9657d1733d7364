"""The environment switches: one "off" convention and a pinned inventory.

Every ``O2_*`` variable the package reads is a row of the README's
"Runtime switches" table, and every row is a variable the package reads:
execution modes are selected by hooks (``set_fast_kernels``,
``use_shard_tiles``, ``TrainConfig.compile_step``, ...), never by a second
spelling in the environment.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import runtime
from repro.data import cache

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


@pytest.mark.parametrize("raw", ["0", "false", "off", "no", " No ", "OFF"])
def test_env_flag_off_spellings(monkeypatch, raw):
    monkeypatch.setenv("O2_TEST_FLAG", raw)
    assert runtime.env_flag("O2_TEST_FLAG", True) is False


@pytest.mark.parametrize("raw", ["", "1", "on", "yes", "anything"])
def test_env_flag_on_spellings(monkeypatch, raw):
    monkeypatch.setenv("O2_TEST_FLAG", raw)
    assert runtime.env_flag("O2_TEST_FLAG", False) is True


def test_env_flag_unset_takes_default(monkeypatch):
    monkeypatch.delenv("O2_TEST_FLAG", raising=False)
    assert runtime.env_flag("O2_TEST_FLAG", True) is True
    assert runtime.env_flag("O2_TEST_FLAG", False) is False


@pytest.mark.parametrize("raw", runtime.FALSY)
def test_pipeline_cache_reads_the_same_off_set(monkeypatch, raw):
    monkeypatch.setenv("O2_PIPELINE_CACHE", raw)
    assert cache.cache_root() is None


def _readme_switch_rows() -> dict:
    """``{name: reading module}`` of the README "Runtime switches" table
    (the section's first table: variable, default, reading module)."""
    text = (ROOT / "README.md").read_text()
    lines = text.split("\n## Runtime switches\n", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = {}
    for line in lines[start + 2:]:  # past the header and separator rows
        if not line.startswith("|"):
            break
        name, _default, module = (
            cell.strip().strip("`") for cell in line.strip("|").split("|")
        )
        rows[name] = module
    return rows


def test_switch_inventory_matches_readme_table():
    sources = {
        path: path.read_text() for path in sorted(SRC.rglob("*.py"))
    }
    named = set()
    for text in sources.values():
        named.update(re.findall(r"O2_[A-Z_]+", text))
    rows = _readme_switch_rows()
    assert named == set(rows), (sorted(named), sorted(rows))
    assert len(rows) == 4
    # Each variable is read (a quoted name) by exactly the module its row
    # names, and by no other.
    for name, module in rows.items():
        readers = {
            ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
            for path, text in sources.items()
            if f'"{name}"' in text
        }
        assert readers == {module}, (name, readers)

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    """The benchmark resolves the program's files from the checkout root."""
    monkeypatch.chdir(ROOT)

import json
from pathlib import Path

import pytest

from greenlight import nsga2
from greenlight.core import IntersectionConfig, QueueState

ASSETS = Path(__file__).resolve().parents[1] / "src" / "greenlight" / "assets"


@pytest.fixture
def assets_dir() -> Path:
    return ASSETS


@pytest.fixture
def palashi_cfg() -> IntersectionConfig:
    return IntersectionConfig.from_dict(json.loads((ASSETS / "palashi5.json").read_text()))


@pytest.fixture
def two_link_cfg() -> IntersectionConfig:
    return IntersectionConfig(
        num_links=2, min_green_s=10, max_green_s=30, inter_green_s=3
    )


@pytest.fixture
def sample_queue() -> QueueState:
    return QueueState.from_dict(json.loads((ASSETS / "queue_sample.json").read_text()))


@pytest.fixture
def evolutions(monkeypatch):
    """Count the runs that evolve a front: each replays a draw script."""
    count = [0]
    original = nsga2._draw_script

    def counted(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(nsga2, "_draw_script", counted)
    return count

"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps these
program attributes by name; a rename must fail here, not in the benchmark."""

import pytest

from greenlight import cli, nsga2, objectives, simulator
from greenlight.core import QueueState
from greenlight.pipeline import Aggregator, SyntheticDetector

HOOKS = [
    (objectives, "evaluate"),
    (nsga2, "run"),
    (nsga2, "fast_non_dominated_sort"),
    (nsga2, "crowding_distance"),
    (nsga2, "tournament_select"),
    (nsga2, "crossover"),
    (nsga2, "mutate"),
    (nsga2, "_update_archive"),
    (nsga2, "select_operating_point"),
    (simulator, "simulate"),
    (simulator.FixedTimeController, "next_plan"),
    (simulator.AdaptiveController, "next_plan"),
    (cli, "dump_json"),
    (cli, "_write_timeseries"),
    (Aggregator, "collect"),
    (SyntheticDetector, "detect"),
]


@pytest.mark.parametrize("owner, name", HOOKS,
                         ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in HOOKS])
def test_traced_attribute_exists(owner, name):
    assert callable(getattr(owner, name))


def test_run_calls_operators_through_the_module(monkeypatch, two_link_cfg):
    # A wrapper installed on the module must see every operator call.
    calls = {"tournament_select": 0, "crossover": 0, "mutate": 0}
    for name in calls:
        original = getattr(nsga2, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(nsga2, name, counted)
    params = nsga2.OptimizerParams(population_size=8, generations=3)
    nsga2.run(QueueState((5, 2), (1, 0)), two_link_cfg, params)
    assert calls == {"tournament_select": 8 * 3, "crossover": 4 * 3,
                     "mutate": 8 * 3}

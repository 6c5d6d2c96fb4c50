"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps these
program attributes by name; a rename must fail here, not in the benchmark."""

import json

import pytest

from greenlight import cli, nsga2, objectives, simulator
from greenlight.core import QueueState
from greenlight.pipeline import (
    Aggregator,
    PipelineConfig,
    SyntheticDetector,
    run_pipeline,
)

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
    (Aggregator, "submit"),
    (Aggregator, "collect"),
    (SyntheticDetector, "detect"),
]


@pytest.mark.parametrize("owner, name", HOOKS,
                         ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in HOOKS])
def test_traced_attribute_exists(owner, name):
    assert callable(getattr(owner, name))


def test_run_calls_operators_through_the_module(monkeypatch, two_link_cfg):
    # A wrapper installed on the module must see every operator call. Once
    # the draw script exists, its pairs hold crossover and mutation folded
    # into getters, so a run calls only the tournaments.
    params = nsga2.OptimizerParams(population_size=8, generations=3)
    nsga2._draw_script(params, 2, two_link_cfg.min_green_s,
                       two_link_cfg.max_green_s)
    calls = {"tournament_select": 0, "crossover": 0, "mutate": 0}
    for name in calls:
        original = getattr(nsga2, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(nsga2, name, counted)
    nsga2.run(QueueState((5, 2), (1, 0)), two_link_cfg, params)
    assert calls == {"tournament_select": 8 * 3, "crossover": 0, "mutate": 0}


def test_run_sorts_and_crowds_through_the_module(monkeypatch, two_link_cfg):
    # The sort and crowding wrappers (nsga2.sort, nsga2.crowding) see the
    # initial sort and one survival sort per generation but the last (whose
    # offspring nothing selects from), and one crowding call per population
    # sorted, over all its listed fronts. The front is a staircase pass, not
    # a sort.
    calls = {"fast_non_dominated_sort": 0, "crowding_distance": 0}
    for name in calls:
        original = getattr(nsga2, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(nsga2, name, counted)
    G = 5
    params = nsga2.OptimizerParams(population_size=8, generations=G)
    nsga2.run(QueueState((5, 2), (1, 0)), two_link_cfg, params, memo=None)
    assert calls["fast_non_dominated_sort"] == G
    assert calls["crowding_distance"] == G


def test_run_takes_its_front_once_through_the_module(monkeypatch,
                                                     two_link_cfg):
    # The archive wrapper (nsga2.archive) sees one call per evolved run, on
    # every genome the run evaluated, and none when the front memo answers.
    caches, update = [], nsga2._update_archive
    scored, evaluator = [], objectives.genome_evaluator

    def recording(points, shift=None):
        caches.append(points)
        return update(points, shift)

    def scoring(*args):
        evaluate = evaluator(*args)
        packed_all = evaluate.packed_all
        evaluate.packed_all = lambda gs: scored.extend(gs) or packed_all(gs)
        return evaluate

    monkeypatch.setattr(nsga2, "_update_archive", recording)
    monkeypatch.setattr(objectives, "genome_evaluator", scoring)
    params = nsga2.OptimizerParams(population_size=8, generations=5)
    queue, memo = QueueState((5, 2), (1, 0)), {}
    front = nsga2.run(queue, two_link_cfg, params, memo=memo)
    assert len(caches) == 1
    assert len(scored) == 8 * (5 + 1)
    assert caches[0].keys() == set(scored)
    script = nsga2._draw_script(params, 2, two_link_cfg.min_green_s,
                                two_link_cfg.max_green_s)
    assert scored[:8] == list(script.initial)
    again = nsga2.run(queue, two_link_cfg, params, memo=memo)
    assert len(caches) == 1
    assert [(i.genome, i.objectives) for i in again] == [
        (i.genome, i.objectives) for i in front]
    nsga2.run(queue, two_link_cfg, params)
    assert len(caches) == 2


@pytest.mark.parametrize("command", ["optimize", "simulate", "pipeline"])
def test_module_wrappers_see_every_plan(monkeypatch, assets_dir, tmp_path,
                                        command):
    # The benchmark replaces nsga2.run to measure front quality, reading
    # the optimizer setting from its third argument, and wraps
    # select_operating_point for its selection span. A command that got its
    # plans past the module would leave both silently empty.
    calls = {"run": [], "select_operating_point": []}
    for name in calls:
        original = getattr(nsga2, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(nsga2, name, counted)
    out = str(tmp_path / "o")
    if command == "optimize":
        assert cli.main(["optimize", "--config", str(assets_dir / "palashi5.json"),
                         "--queue", str(assets_dir / "queue_sample.json"),
                         "--out", out]) == 0
    elif command == "simulate":
        raw = json.loads((assets_dir / "scenario_asymmetric.json").read_text())
        raw["intersection"] = str(assets_dir / "palashi5.json")
        raw["horizon_s"] = 300
        raw["controllers"] = [c for c in raw["controllers"]
                              if c["type"] == "adaptive"]
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(raw))
        assert cli.main(["simulate", "--scenario", str(scenario), "--seed", "1",
                         "--out", out]) == 0
    else:
        raw = json.loads((assets_dir / "pipeline_demo.json").read_text())
        raw["intersection"] = str(assets_dir / "palashi5.json")
        run_pipeline(PipelineConfig.from_dict(dict(raw, timing="sim")), 3)
    assert len(calls["run"]) == len(calls["select_operating_point"]) > 0
    assert all(isinstance(args[2], nsga2.OptimizerParams)
               for args in calls["run"])


def test_class_wrappers_see_every_submit_and_collect(monkeypatch):
    # The pipeline_real workload measures plan age by wrapping
    # Aggregator.submit and .collect on the class before run_pipeline, so
    # the pipeline must look both up on the class after that.
    calls = {"submit": 0, "collect": 0, "detect": 0}
    for owner, name in ((Aggregator, "submit"), (Aggregator, "collect"),
                        (SyntheticDetector, "detect")):
        original = getattr(owner, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    cfg = PipelineConfig.from_dict({
        "intersection": {"num_links": 2, "min_green_s": 5, "max_green_s": 30},
        "cameras": [{"fps": 50, "motorized_in": m, "extract_delay_ms": 2}
                    for m in (9, 3)],
        "detector": {"delay_ms": 30},
        "window_ms": 400,
        "optimizer": {"population_size": 12, "generations": 8},
        "timing": "real",
    })
    result = run_pipeline(cfg, 3)
    assert calls["collect"] == len(result.cycles) + result.skipped_cycles
    # Every detection that did not fail was submitted; the workers have
    # been joined, so none is in flight.
    errors = sum(s.detector_errors for s in result.camera_status)
    assert calls["submit"] == calls["detect"] - errors > 0

"""Field tables, the generic loader and dumper, and the bundled schemas."""

import copy
import dataclasses
import json
import math
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlight.cli import OptimizeConfig
from greenlight.core import (
    REAL,
    ConfigError,
    DetectionRecord,
    IntersectionConfig,
    ListOf,
    QueueState,
    SignalPlan,
    table,
)
from greenlight.nsga2 import OptimizerParams
from greenlight.pipeline import PipelineConfig
from greenlight.simulator import Scenario

ASSETS = Path(__file__).resolve().parents[1] / "src" / "greenlight" / "assets"


def asset(name):
    return json.loads((ASSETS / name).read_text())


def scenario_base():
    raw = asset("scenario_asymmetric.json")
    raw["options"].update(
        emergency_events=[{"time_s": 30, "link": 3}],
        blackouts=[[50, 80], [120.25, 130.75]],
        initial_motorized=[1, 2, 3, 4, 5],
    )
    return raw


def pipeline_base():
    raw = asset("pipeline_demo.json")
    raw["cameras"][4] = {"type": "replay", "path": "detections_sample.ndjson",
                         "fps": 20}
    raw["detector"]["miss_rate"] = 0.1
    raw.update(weights=[0.7, 0.3], guidance_pad_s=2)
    return raw


# Every bundled section, with the loader that reads it. The scenario and
# pipeline name their intersection by a path relative to the assets.
BASES = {
    "intersection": (asset("palashi5.json"), IntersectionConfig.from_dict),
    "queue": (asset("queue_sample.json"), QueueState.from_dict),
    "scenario": (scenario_base(),
                 lambda d: Scenario.from_dict(d, base_dir=ASSETS)),
    "pipeline": (pipeline_base(),
                 lambda d: PipelineConfig.from_dict(d, base_dir=ASSETS)),
    "optimize": ({"intersection": asset("palashi5.json"),
                  "optimizer": {"population_size": 40, "generations": 40,
                                "crossover_prob": 0.9, "mutation_prob": None},
                  "policy": "knee", "weights": [0.7, 0.3],
                  "guidance_pad_s": 2}, OptimizeConfig.from_dict),
    "detection record": (
        json.loads((ASSETS / "detections_sample.ndjson").read_text().splitlines()[0]),
        DetectionRecord.from_dict),
    "plan": ({"phases": [[0, 30], [1, 20]], "inter_green_s": 3,
              "guidance_pad_s": 1, "cycle_length_s": 60}, SignalPlan.from_dict),
}

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=12),
    st.sampled_from([math.nan, math.inf, -math.inf, 2**63, -(10**30), 10**400,
                     "palashi5.json", "", ".."]),
)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def containers(doc, path=()):
    """Paths of every object and list in ``doc``, itself included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from containers(value, path + (key,))


def mutate(doc, data):
    """Drop a key or item, add one, or swap a value for arbitrary JSON, in
    an object or list anywhere in ``doc``."""
    node = reduce(getitem, data.draw(st.sampled_from(list(containers(doc)))), doc)
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    op = data.draw(st.sampled_from(["drop", "add", "swap"] if keys else ["add"]))
    if op == "drop":
        del node[data.draw(st.sampled_from(keys))]
    elif op == "swap":
        node[data.draw(st.sampled_from(keys))] = data.draw(json_values)
    elif isinstance(node, dict):
        node[data.draw(st.text(max_size=8))] = data.draw(json_values)
    else:
        node.append(data.draw(json_values))


# Values that are wrong for some field: not numbers, not finite, beyond
# any float, fractional, negative, of the wrong container, unreadable paths.
AWKWARD = [None, True, "x", "", "a\x00b", -1, 1.5, 2**63, 10**400, math.nan,
           math.inf, -math.inf, [], [[1]], {}, {"a": {}}]


def keys(doc):
    """Paths of every key and list item in ``doc``."""
    for path in containers(doc):
        node = reduce(getitem, path, doc)
        for key in (list(node) if isinstance(node, dict) else range(len(node))):
            yield path + (key,)


class TestFuzzedSections:
    """A mutated section either loads or raises ``ConfigError``, never
    another exception. Only loaders run: nothing is simulated or optimized
    on fuzzed sizes."""

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_bundled_section_loads(self, name):
        doc, load = BASES[name]
        load(copy.deepcopy(doc))

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_each_key_dropped_or_swapped(self, name):
        doc, load = BASES[name]
        for path in list(keys(doc)):
            for value in [KeyError] + AWKWARD:
                mutated = copy.deepcopy(doc)
                node = reduce(getitem, path[:-1], mutated)
                if value is KeyError:
                    del node[path[-1]]
                else:
                    node[path[-1]] = copy.deepcopy(value)
                try:
                    load(mutated)
                except ConfigError:
                    pass
                except Exception as exc:
                    pytest.fail(f"{path} = {value!r}: {exc!r}")

    @pytest.mark.parametrize("name", sorted(BASES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_section_loads_or_raises_config_error(self, name, data):
        doc, load = BASES[name]
        doc = copy.deepcopy(doc)
        for _ in range(data.draw(st.integers(1, 3))):
            mutate(doc, data)
        try:
            load(doc)
        except ConfigError:
            pass

    @pytest.mark.parametrize("name", sorted(BASES))
    @settings(max_examples=50, deadline=None)
    @given(value=json_values)
    def test_any_json_value_loads_or_raises_config_error(self, name, value):
        try:
            BASES[name][1](value)
        except ConfigError:
            pass


SCHEMA_TYPES = {int: "integer", float: "number", REAL: "number", str: "string"}


@pytest.mark.parametrize("schema, cls", [
    ("intersection_config.schema.json", IntersectionConfig),
    ("detection_record.schema.json", DetectionRecord),
])
def test_schema_agrees_with_field_table(schema, cls):
    schema = asset(schema)
    specs = table(cls)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    assert schema["type"] == "object"
    assert schema["additionalProperties"] is False
    assert list(schema["properties"]) == list(specs)
    assert schema["required"] == [key for key, s in specs.items() if s.required]
    for key, spec in specs.items():
        prop = schema["properties"][key]
        if isinstance(spec.kind, ListOf):
            assert prop["type"] == "array"
            assert prop["items"] == {"type": SCHEMA_TYPES[spec.kind.kind]}
        else:
            assert prop["type"] == SCHEMA_TYPES[spec.kind]
        assert prop.get("minimum") == spec.low
        assert prop.get("exclusiveMinimum") == spec.above
        assert prop.get("maximum") == spec.high
        if "default" in prop:
            assert prop["default"] == defaults[key]
        else:  # required, or a default made from other fields (link names)
            assert spec.required or defaults[key] == ()


class TestNoCoercion:
    @pytest.mark.parametrize("queue, message", [
        ({"motorized": [1.5, "3"], "non_motorized": [0, 0]},
         "motorized must be an integer, got 1.5"),
        ({"motorized": [1, "3"], "non_motorized": [0, 0]},
         "motorized must be a number, got '3'"),
        ({"motorized": "34", "non_motorized": [0, 0]},
         "motorized must be a list of integers, got '34'"),
        ({"motorized": [1, 3], "non_motorized": [0, True]},
         "non_motorized must be a number, got True"),
        ({"motorized": None, "non_motorized": [0, 0]},
         "motorized must be a list of integers, got None"),
    ])
    def test_queue_counts(self, queue, message):
        with pytest.raises(ConfigError, match=message.replace("[", r"\[")):
            QueueState.from_dict(queue)

    def test_fractional_detection_count(self):
        with pytest.raises(ConfigError, match="motorized_in must be an integer, got 2.7"):
            DetectionRecord.from_dict(
                {"camera_id": 0, "frame_ts_ms": 0, "motorized_in": 2.7})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400])
    def test_non_finite_sat_flow(self, value):
        with pytest.raises(ConfigError, match="sat_flow_motorized must be a finite number"):
            IntersectionConfig.from_dict({"num_links": 2, "sat_flow_motorized": value})

    def test_huge_link_count_rejected_before_naming_links(self):
        with pytest.raises(ConfigError, match=r"num_links must be in \[2, 100\]"):
            IntersectionConfig(num_links=10**18)

    def test_integral_floats_become_ints(self):
        cfg = IntersectionConfig.from_dict({"num_links": 2.0, "min_green_s": 5.0})
        assert (cfg.num_links, cfg.min_green_s) == (2, 5)
        assert type(cfg.num_links) is int and type(cfg.min_green_s) is int


class TestDump:
    def test_round_trip_of_every_field(self):
        params = OptimizerParams(population_size=8, mutation_prob=1)
        assert params.to_dict() == dataclasses.asdict(params)
        assert OptimizerParams.from_dict(params.to_dict()) == params

    def test_plan_adds_cycle_length(self):
        plan = SignalPlan(phases=((1, 20), (0, 30)), inter_green_s=3)
        assert plan.to_dict() == {"phases": [[1, 20], [0, 30]], "inter_green_s": 3,
                                  "guidance_pad_s": 0, "cycle_length_s": 56}

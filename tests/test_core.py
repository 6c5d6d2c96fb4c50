import json
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenlight.core import (
    ConfigError,
    DetectionRecord,
    IntersectionConfig,
    ObjectiveVector,
    QueueState,
    Section,
    SignalPlan,
    dump,
    load_intersection_config,
    validate_plan,
)


class TestLoadIntersectionConfig:
    def test_palashi_five_links(self, assets_dir):
        cfg = load_intersection_config(assets_dir / "palashi5.json")
        assert cfg.num_links == 5
        assert cfg.link_names == (
            "Fuller Rd", "Bakshibazar", "Azimpur", "Nilkhet", "Dhakeshwari",
        )

    def test_min_green_above_max_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"num_links": 3, "min_green_s": 30, "max_green_s": 10}))
        with pytest.raises(ConfigError, match="max_green_s"):
            load_intersection_config(p)

    def test_minimal_two_link_config(self, tmp_path):
        p = tmp_path / "min.json"
        p.write_text(json.dumps({"num_links": 2}))
        cfg = load_intersection_config(p)
        assert cfg.num_links == 2
        assert cfg.link_names == ("link-0", "link-1")

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed"):
            load_intersection_config(p)

    @pytest.mark.parametrize("field,value", [
        ("num_links", 1),
        ("inter_green_s", -1),
        ("sat_flow_motorized", 0),
        ("sat_flow_non_motorized", -0.5),
        ("min_green_s", 0),
    ])
    def test_invariants_enforced(self, field, value):
        kwargs = {"num_links": 3, field: value}
        with pytest.raises(ConfigError, match=field):
            IntersectionConfig(**kwargs)


class TestValidatePlan:
    def test_valid_plan(self, two_link_cfg):
        cfg = IntersectionConfig(num_links=3, min_green_s=10, max_green_s=30)
        plan = SignalPlan(phases=((0, 15), (1, 20), (2, 10)), inter_green_s=3)
        assert validate_plan(plan, cfg) == []

    def test_unserved_link_reported(self):
        cfg = IntersectionConfig(num_links=3, min_green_s=10, max_green_s=30)
        plan = SignalPlan(phases=((0, 15), (1, 20)), inter_green_s=3)
        assert any("link 2 unserved" in v for v in validate_plan(plan, cfg))

    def test_green_bound_reported(self, two_link_cfg):
        plan = SignalPlan(
            phases=((0, two_link_cfg.max_green_s + 1), (1, 15)), inter_green_s=3
        )
        assert any("green bound" in v for v in validate_plan(plan, two_link_cfg))

    def test_duplicate_link_reported(self):
        cfg = IntersectionConfig(num_links=2, min_green_s=10, max_green_s=30)
        plan = SignalPlan(phases=((0, 15), (0, 15)))
        violations = validate_plan(plan, cfg)
        assert any("served 2 times" in v for v in violations)
        assert any("unserved" in v for v in violations)


class TestInvariants:
    def test_queue_state_rejects_negative(self):
        with pytest.raises(ConfigError):
            QueueState(motorized=(1, -2), non_motorized=(0, 0))

    def test_queue_state_rejects_length_mismatch(self):
        with pytest.raises(ConfigError):
            QueueState(motorized=(1, 2), non_motorized=(0,))

    def test_detection_record_rejects_negative(self):
        with pytest.raises(ConfigError):
            DetectionRecord(camera_id=0, frame_ts_ms=0, motorized_in=-1)

    def test_cycle_length(self):
        plan = SignalPlan(phases=((0, 10), (1, 20)), inter_green_s=3,
                          guidance_pad_s=4)
        assert plan.cycle_length_s == 10 + 20 + 2 * 2 * 4 + 2 * 3

    def test_mismatched_cycle_length_refused(self):
        plan = {"phases": [[1, 20], [0, 30]], "inter_green_s": 3}
        assert SignalPlan.from_dict({**plan, "cycle_length_s": 56}).cycle_length_s == 56
        with pytest.raises(ConfigError) as exc:
            SignalPlan.from_dict({**plan, "cycle_length_s": 57})
        assert str(exc.value) == "cycle_length_s must be 56 for these phases, got 57"

    @pytest.mark.parametrize("f1, f2, message", [
        (-1, 0, "f1 must be >= 0, got -1"),
        (0, -0.5, "f2 must be >= 0, got -0.5"),
        (float("nan"), 0, "f1 must be a finite number, got nan"),
    ])
    def test_objective_vector_rejects(self, f1, f2, message):
        with pytest.raises(ConfigError) as exc:
            ObjectiveVector(f1, f2)
        assert str(exc.value) == message


# Round-trip serialization: serialize(deserialize(x)) == x.

queue_states = st.integers(1, 6).flatmap(
    lambda L: st.builds(
        QueueState,
        motorized=st.tuples(*[st.integers(0, 500)] * L),
        non_motorized=st.tuples(*[st.integers(0, 500)] * L),
        timestamp_ms=st.integers(0, 10**9),
    )
)

signal_plans = st.integers(1, 6).flatmap(
    lambda L: st.builds(
        SignalPlan,
        phases=st.permutations(range(L)).flatmap(
            lambda order: st.tuples(
                *[st.tuples(st.just(l), st.integers(1, 120)) for l in order]
            )
        ),
        inter_green_s=st.integers(0, 10),
        guidance_pad_s=st.integers(0, 8),
    )
)


@given(queue_states)
def test_queue_state_round_trip(q):
    assert QueueState.from_dict(json.loads(json.dumps(q.to_dict()))) == q


@given(signal_plans)
def test_signal_plan_round_trip(p):
    assert SignalPlan.from_dict(json.loads(json.dumps(p.to_dict()))) == p


@dataclass(frozen=True)
class PlanHolder(Section):
    plan: SignalPlan
    plans: tuple[SignalPlan, ...] = ()


@given(signal_plans)
def test_dump_writes_nested_section_by_its_to_dict(p):
    # A plan inside a section keeps its derived cycle length.
    d = dump(PlanHolder(p, (p, p)))
    assert d == {"plan": p.to_dict(), "plans": [p.to_dict()] * 2}
    assert d["plan"]["cycle_length_s"] == p.cycle_length_s


@given(st.builds(
    DetectionRecord,
    camera_id=st.integers(0, 5),
    frame_ts_ms=st.integers(0, 10**9),
    motorized_in=st.integers(0, 200),
    motorized_out=st.integers(0, 200),
    non_motorized_in=st.integers(0, 200),
    non_motorized_out=st.integers(0, 200),
))
def test_detection_record_round_trip(r):
    assert DetectionRecord.from_dict(json.loads(json.dumps(r.to_dict()))) == r


@given(st.builds(ObjectiveVector, f1=st.integers(0, 10**6),
                 f2=st.floats(0, 1e6)))
def test_objective_vector_round_trip(v):
    assert ObjectiveVector.from_dict(json.loads(json.dumps(v.to_dict()))) == v


def test_intersection_config_round_trip(palashi_cfg):
    d = json.loads(json.dumps(palashi_cfg.to_dict()))
    assert IntersectionConfig.from_dict(d) == palashi_cfg


@given(signal_plans)
def test_accepted_plans_satisfy_invariants(plan):
    cfg = IntersectionConfig(
        num_links=max(2, plan.num_links), min_green_s=1, max_green_s=120,
        inter_green_s=plan.inter_green_s,
    )
    violations = validate_plan(plan, cfg)
    if not violations:
        served = sorted(l for l, _ in plan.phases)
        assert served == list(range(cfg.num_links))
        assert all(
            cfg.min_green_s <= g <= cfg.max_green_s for _, g in plan.phases
        )
        assert plan.cycle_length_s > 0

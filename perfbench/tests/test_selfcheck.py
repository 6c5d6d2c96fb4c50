"""Self-check: inputs follow the seed; counts and quality repeat exactly.

pipeline_real's frame and call counts follow wall-clock thread timing, so
for it only the plans and the front quality are checked for repeats.
"""

import pytest

import run
import workloads
from spans import Tracer

ALL = ["compare_asymmetric", "pipeline_real"]


@pytest.mark.parametrize("name", ALL)
def test_inputs_follow_the_seed(name):
    assert workloads.make_inputs(name, 3) == workloads.make_inputs(name, 3)
    assert workloads.make_inputs(name, 3) != workloads.make_inputs(name, 4)


def one_pass(name, seed, out):
    """One untraced pass with quality, one traced pass (seconds=0 makes
    each exactly one pass); what must repeat."""
    out.mkdir()
    inputs = workloads.make_inputs(name, seed)
    inputs["seeds"] = inputs["seeds"][:5]  # a short pass keeps the test quick
    workloads.setup_files(name, inputs, out)
    runner = workloads.RUNNERS[name]
    plain = runner(inputs, 0, 1, out, quality=True)
    tracer, counts = Tracer(), {"lookups": 0, "front_points": 0, "sim_seconds": 0}
    run.install_tracing(tracer, counts)
    try:
        traced = runner(inputs, 0, 1, out, quality=False, tracer=tracer)
    finally:
        tracer.uninstall()
    assert not plain.errors and not traced.errors
    assert plain.failed == traced.failed == 0
    assert plain.digest == traced.digest
    return {
        "calls": dict(tracer.calls),
        "counts": counts,
        "artifact_bytes": traced.layer.get("artifact_bytes"),
        "hv_ratio": plain.hv_ratio,
        "recall": plain.recall,
        "details": {k: v for k, v in plain.details.items()
                    if k not in ("compare_wall_s", "host_speed")},
        "digest": plain.digest,
    }


def test_counts_and_quality_repeat_at_a_fixed_seed(tmp_path):
    name = "compare_asymmetric"
    first = one_pass(name, 5, tmp_path / "a")
    second = one_pass(name, 5, tmp_path / "b")
    assert first == second
    assert first["hv_ratio"] > 0 and first["recall"] > 0


def test_pipeline_plans_and_quality_repeat_at_a_fixed_seed(tmp_path):
    inputs = workloads.make_inputs("pipeline_real", 5)
    runs = [workloads.run_pipeline_real(inputs, 0, 3, tmp_path, quality=True)
            for _ in range(2)]
    for o in runs:
        assert not o.errors and o.failed == 0
    first, second = ((o.digest, o.hv_ratio, o.recall, o.details) for o in runs)
    assert first == second
    assert first[1] > 0 and first[2] > 0


def test_a_cycle_failing_a_check_is_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "validate_plan", lambda plan, cfg: ["injected"])
    inputs = workloads.make_inputs("pipeline_real", 5)
    o = workloads.run_pipeline_real(inputs, 0, 3, tmp_path, quality=False)
    assert o.failed == o.attempted == 3
    assert len(o.errors) == 3

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from greenlight.cli import main
from greenlight.core import (
    IntersectionConfig,
    SignalPlan,
    canonical_json,
    validate_plan,
)


def read_json(path: Path):
    return json.loads(path.read_text())


class TestOptimizeCommand:
    def run_optimize(self, assets_dir, out, extra=()):
        return main([
            "optimize",
            "--config", str(assets_dir / "palashi5.json"),
            "--queue", str(assets_dir / "queue_sample.json"),
            "--seed", "7", "--out", str(out), *extra,
        ])

    def test_writes_front_and_valid_plan(self, assets_dir, tmp_path, capsys):
        assert self.run_optimize(assets_dir, tmp_path / "o") == 0
        front = read_json(tmp_path / "o" / "pareto_front.json")
        assert len(front) >= 1
        plan = SignalPlan.from_dict(read_json(tmp_path / "o" / "selected_plan.json"))
        cfg = IntersectionConfig.from_dict(
            read_json(assets_dir / "palashi5.json"))
        assert validate_plan(plan, cfg) == []
        assert "f1=" in capsys.readouterr().out
        manifest = read_json(tmp_path / "o" / "manifest.json")
        assert manifest["command"] == "optimize"
        assert manifest["seeds"] == [7]

    def test_malformed_queue_rejected(self, assets_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = main([
            "optimize", "--config", str(assets_dir / "palashi5.json"),
            "--queue", str(bad), "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "malformed" in capsys.readouterr().err

    def test_seeded_runs_byte_identical(self, assets_dir, tmp_path):
        self.run_optimize(assets_dir, tmp_path / "a")
        self.run_optimize(assets_dir, tmp_path / "b")
        for name in ("pareto_front.json", "selected_plan.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name).read_bytes()

    def optimize_with(self, assets_dir, tmp_path, optimizer, policy=None):
        raw = {"intersection": read_json(assets_dir / "palashi5.json"),
               "optimizer": optimizer}
        if policy is not None:
            raw["policy"] = policy
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        return main([
            "optimize", "--config", str(config),
            "--queue", str(assets_dir / "queue_sample.json"),
            "--out", str(tmp_path / "o"),
        ])

    @pytest.mark.parametrize("optimizer, message", [
        ({"mutation_prob": "0.1"}, "mutation_prob must be a number"),
        ({"population_size": 10.7}, "population_size must be an integer"),
    ])
    def test_mistyped_optimizer_exits_1(self, assets_dir, tmp_path, capsys,
                                        optimizer, message):
        assert self.optimize_with(assets_dir, tmp_path, optimizer) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_optimizer_key_exits_1(self, assets_dir, tmp_path, capsys):
        code = self.optimize_with(assets_dir, tmp_path, {"populaton_size": 10})
        assert code == 1
        assert "unknown optimizer key 'populaton_size'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: dict(raw, min_gren_s=40),
         "unknown intersection key 'min_gren_s'"),
        (lambda raw: {"intersection": [5]},
         "intersection must be a JSON object"),
    ])
    def test_bad_intersection_exits_1(self, assets_dir, tmp_path, capsys,
                                      edit, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(edit(read_json(assets_dir / "palashi5.json"))))
        code = main(["optimize", "--config", str(config),
                     "--queue", str(assets_dir / "queue_sample.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("optimizer, policy, digest", [
        ({"population_size": 20.0, "generations": 5, "crossover_prob": 1,
          "mutation_prob": 1, "tournament_size": 3, "rng_seed": 4}, "min_f1",
         "53c9fd59c1a06eb0d03f8ec0516dfe687890668b70842420359c68bf8782a12c"),
        ({"population_size": 8, "generations": 3, "crossover_prob": 0.5,
          "mutation_prob": None}, None,
         "adde157bf8eed5396fe0ee1f2ac020587965805faf3e1117f379f3bd10b14beb"),
    ])
    def test_valid_optimizer_manifest_unchanged(self, assets_dir, tmp_path,
                                                optimizer, policy, digest):
        # Digests of the manifest without its timestamps, recorded with the
        # lenient int()/float() parser that strict parsing replaced.
        assert self.optimize_with(assets_dir, tmp_path, optimizer, policy) == 0
        manifest = read_json(tmp_path / "o" / "manifest.json")
        del manifest["started_at"], manifest["finished_at"]
        assert sha256(canonical_json(manifest).encode()) == digest

    def test_weighted_manifest_records_weights(self, assets_dir, tmp_path):
        # Two weightings pick different plans, so their manifests differ.
        configs = []
        for i, weights in enumerate(["0.9,0.1", "0.1,0.9"]):
            out = tmp_path / f"w{i}"
            assert self.run_optimize(assets_dir, out, [
                "--policy", "weighted", "--weights", weights]) == 0
            configs.append(read_json(out / "manifest.json")["config"])
        assert configs[0] != configs[1]
        assert [c["weights"] for c in configs] == [[0.9, 0.1], [0.1, 0.9]]
        del configs[0]["weights"], configs[1]["weights"]
        assert configs[0] == configs[1]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenArtifacts:
    """Artifact digests recorded with the O(n^2) sort, per-plan evaluation
    and per-generation archive rescan that the sweep sort, residual table
    and one front taken from the point cache replaced; the optimizer must
    reproduce them byte for byte."""

    @pytest.mark.parametrize("extra, front, plan", [
        (["--seed", "0"],
         "1cf7009ff20737b222de4b7615ce50ceaa8fde2b6bd549011c3b0b109865b449",
         "540b8af725e2a14f9f56f0c9ae7ffa85d72e9c96aa2621019c80214b87923bd7"),
        (["--seed", "7"],
         "ad8e6b04426ee8ab6a079785a1aff67b9b5bf70dffb445af5dfda9bdb36498c6",
         "3b05112345b4ec535493d53aac24ba7b2773e7ad33a46d498883c25df64d5ae4"),
        (["--seed", "0", "--pad", "2"],
         "35424e2ee6fbb86e818ad77a3a1087cf8a14318d7dce0b72b6b93fea28847411",
         "6e9f18baee703edec20d397db669f3cf1913b6e67fc476bb44900c6a36da3cb2"),
    ])
    def test_optimize(self, assets_dir, tmp_path, extra, front, plan):
        out = tmp_path / "o"
        assert main(["optimize",
                     "--config", str(assets_dir / "palashi5.json"),
                     "--queue", str(assets_dir / "queue_sample.json"),
                     "--out", str(out), *extra]) == 0
        assert sha256((out / "pareto_front.json").read_bytes()) == front
        assert sha256((out / "selected_plan.json").read_bytes()) == plan

    def test_simulate_compare(self, assets_dir, tmp_path):
        out = tmp_path / "cmp"
        assert main(["simulate",
                     "--scenario", str(assets_dir / "scenario_asymmetric.json"),
                     "--compare", "--seed", "1", "--out", str(out)]) == 0
        assert sha256((out / "comparison.json").read_bytes()) == (
            "c923f064da5c4580504bc9224f35baf2279268c00129052e9c6ab0a8343f21d5")

    @pytest.mark.parametrize("first, metrics, timeseries", [
        ("fixed_equal",
         "011baa2f680f07fe32244d5a3d33d48f6b1a499d286977257172df662cac6f20",
         "fb89348045c13f39cbb04c41121c054e1180383ef5e58fbebdeaa2f4e713cd15"),
        ("adaptive",
         "a8c7d515bfdc9b487cf0a57f9c785b388b5390e14983078d692e9e927e18d89f",
         "5147bacd4dca585483c1f08f1c97be1911b4a7690ec3322e0000d451840d7de9"),
    ])
    def test_simulate_single(self, assets_dir, tmp_path, first, metrics,
                             timeseries):
        # Digests recorded with per-second scalar Poisson draws, a per-second
        # blackout scan and an optimizer drawing from its rng on every run.
        # Blackouts overlap, end on fractional seconds, start before 0 and
        # run past the horizon; emergencies reorder cycles; noise is on.
        raw = read_json(assets_dir / "scenario_asymmetric.json")
        raw["intersection"] = str(assets_dir / "palashi5.json")
        raw["horizon_s"] = 400
        raw["options"] = {
            "observation_noise_p": 0.8, "sensing_latency_s": 3,
            "guidance_pad_s": 1, "noise_seed": 5,
            "emergency_events": [{"time_s": 30, "link": 3},
                                 {"time_s": 95, "link": 0},
                                 {"time_s": 260, "link": 4}],
            "blackouts": [[50, 80], [70, 95.5], [120.25, 130.75], [-5, 2],
                          [390, 1000]],
        }
        raw["controllers"][1]["optimizer"] = {
            "population_size": 12, "generations": 8, "rng_seed": 3,
        }
        if first == "adaptive":
            raw["controllers"].reverse()
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(raw))
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(scenario), "--seed", "4",
                     "--out", str(out)]) == 0
        assert sha256((out / "metrics.json").read_bytes()) == metrics
        assert sha256((out / "timeseries.csv").read_bytes()) == timeseries

    @pytest.mark.parametrize("seed, plans, ledger", [
        ("0",
         "72693afc934aae0c086af4a0feb580d7eaf8c08c0644e5919b52473531e9fdbf",
         "0ca8c4739b2c9fd355e40b15d48120e09cdcb4d5ac4ccaf0e88c2edb80aa5f30"),
        ("5",
         "a3fedfddb93140502aa358a680a01525dee1e27e3ad103ffa82811e5f808c4e7",
         "e2606aba30146478d8051dab4a1d619abccbb6d5d2cec8ff1c957ce4ea65ebd1"),
    ])
    def test_pipeline_sim(self, assets_dir, tmp_path, seed, plans, ledger):
        # Digests recorded with every cycle running the optimizer afresh.
        # The bundled cameras see constant scenes, so cycles 1-3 repeat
        # cycle 0's queue with a later timestamp.
        out = tmp_path / "p"
        assert main(["pipeline",
                     "--config", str(assets_dir / "pipeline_demo.json"),
                     "--timing", "sim", "--cycles", "4", "--seed", seed,
                     "--out", str(out)]) == 0
        assert sha256((out / "plans.ndjson").read_bytes()) == plans
        assert sha256((out / "latency_ledger.ndjson").read_bytes()) == ledger

    def test_pipeline_sim_varying_queues(self, assets_dir, tmp_path):
        # Detector misses make every cycle's queue differ.
        raw = read_json(assets_dir / "pipeline_demo.json")
        raw["intersection"] = str(assets_dir / "palashi5.json")
        raw["detector"]["miss_rate"] = 0.3
        raw["optimizer"] = {"population_size": 20, "generations": 10,
                            "rng_seed": 2}
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "p"
        assert main(["pipeline", "--config", str(config), "--timing", "sim",
                     "--cycles", "8", "--seed", "3", "--out", str(out)]) == 0
        assert sha256((out / "plans.ndjson").read_bytes()) == (
            "9efb5d15301c7263c6dd13b71be51b1a7f4cc3c96ab07d9bdab09f097349cc8d")
        assert sha256((out / "latency_ledger.ndjson").read_bytes()) == (
            "77ec2dc463e73bee28399924c58558638d8e574ee190726fe90cb436a025ad3a")


@pytest.fixture
def quick_scenario(assets_dir, tmp_path):
    raw = read_json(assets_dir / "scenario_asymmetric.json")
    raw["intersection"] = str(assets_dir / "palashi5.json")
    raw["horizon_s"] = 300
    raw["seeds"] = [1, 2]
    raw["controllers"][1]["optimizer"] = {
        "population_size": 12, "generations": 8, "rng_seed": 0,
    }
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(raw))
    return p


class TestSimulateCommand:
    def test_metrics_have_five_link_rows(self, quick_scenario, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(quick_scenario),
                     "--out", str(out)]) == 0
        metrics = read_json(out / "metrics.json")
        assert len(metrics["max_waiting_per_link"]) == 5
        assert len(metrics["avg_waiting_per_link"]) == 5
        header = (out / "timeseries.csv").read_text().splitlines()[0]
        assert header.split(",")[:2] == ["t", "queue_link_0"]

    def test_zero_horizon_rejected(self, quick_scenario, tmp_path, capsys):
        raw = read_json(quick_scenario)
        raw["horizon_s"] = 0
        bad = tmp_path / "bad_scenario.json"
        bad.write_text(json.dumps(raw))
        assert main(["simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "x")]) == 1
        assert "horizon" in capsys.readouterr().err

    def simulate_with(self, quick_scenario, tmp_path, edit, compare=False):
        raw = read_json(quick_scenario)
        edit(raw)
        bad = tmp_path / "bad_scenario.json"
        bad.write_text(json.dumps(raw))
        return main(["simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "x")]
                    + (["--compare"] if compare else []))

    @pytest.mark.parametrize("compare", [False, True])
    def test_unknown_optimizer_key_exits_1(self, quick_scenario, tmp_path,
                                           capsys, compare):
        def edit(raw):
            raw["controllers"][1]["optimizer"]["populaton_size"] = 10
            raw["controllers"].reverse()  # adaptive runs without --compare

        assert self.simulate_with(quick_scenario, tmp_path, edit, compare) == 1
        assert "unknown optimizer key 'populaton_size'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["demand"].pop("motorized_rates"),
         "demand needs 'motorized_rates'"),
        (lambda raw: raw["controllers"][0].pop("greens"),
         "fixed controller needs 'greens'"),
        (lambda raw: raw.setdefault("options", {}).update(
            emergency_events=[{"time_s": 10}]),
         "emergency event needs 'time_s' and 'link'"),
        (lambda raw: raw.setdefault("options", {}).update(
            blackouts=[["a", 5]]),
         "blackout must be"),
        (lambda raw: raw.setdefault("options", {}).update(
            emergency_events=[{"time_s": 10, "link": 9}]),
         "emergency events must name a link in [0, 5)"),
        (lambda raw: raw.setdefault("options", {}).update(
            sensing_latency_s=-3),
         "sensing_latency_s must be >= 0"),
        (lambda raw: raw.setdefault("options", {}).update(
            observation_noise_p=2.0),
         "observation_noise_p must be in [0, 1]"),
        (lambda raw: raw.setdefault("options", {}).update(
            blackouts=[[30, 10]]),
         "start <= end"),
        (lambda raw: raw["demand"].update(motorized_rates=["a"] * 5),
         "arrival rates must be numbers >= 0"),
        (lambda raw: raw["controllers"][0].update(greens=[30, 30]),
         "one green per link"),
        (lambda raw: raw["controllers"][0].update(order=[0, 0, 1, 2, 3]),
         "order must list every link once"),
        (lambda raw: raw.update(options=[]), "options must be a JSON object"),
        (lambda raw: raw.setdefault("options", {}).update(blackouts=5),
         "blackouts must be a list"),
    ])
    def test_bad_scenario_exits_1(self, quick_scenario, tmp_path, capsys,
                                  edit, message):
        assert self.simulate_with(quick_scenario, tmp_path, edit,
                                  compare=True) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "x").exists()

    def test_unknown_options_key_exits_1(self, quick_scenario, tmp_path,
                                         capsys):
        # Typos of blackouts and sensing_latency_s.
        def edit(raw):
            raw["options"] = {"blackout": [[0, 60]], "sensing_latency": 5}

        assert self.simulate_with(quick_scenario, tmp_path, edit) == 1
        assert "unknown options key 'blackout'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_failed_single_run_leaves_no_output_dir(self, quick_scenario,
                                                    tmp_path, capsys):
        def edit(raw):
            raw["options"] = {"emergency_events": [{"time_s": 10, "link": 9}]}

        assert self.simulate_with(quick_scenario, tmp_path, edit) == 1
        assert "emergency events must name a link" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("compare", [False, True])
    def test_demand_for_too_few_links_exits_1(self, quick_scenario, tmp_path,
                                              capsys, compare):
        def edit(raw):
            for key in ("motorized_rates", "non_motorized_rates"):
                raw["demand"][key] = raw["demand"][key][:3]

        assert self.simulate_with(quick_scenario, tmp_path, edit, compare) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "demand rates must cover every link" in err
        assert not (tmp_path / "x").exists()

    def test_same_seed_identical_csv(self, quick_scenario, tmp_path):
        for name in ("a", "b"):
            assert main(["simulate", "--scenario", str(quick_scenario),
                         "--seed", "9", "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a" / "timeseries.csv").read_bytes() == (
            tmp_path / "b" / "timeseries.csv").read_bytes()

    def test_compare_writes_paired_report(self, quick_scenario, tmp_path):
        out = tmp_path / "cmp"
        assert main(["simulate", "--scenario", str(quick_scenario),
                     "--compare", "--out", str(out)]) == 0
        report = read_json(out / "comparison.json")
        assert set(report["controllers"]) == {"fixed_equal", "adaptive"}
        assert "vs_fixed_equal" in report["controllers"]["adaptive"]


@pytest.fixture
def pipeline_cfg_path(assets_dir, tmp_path):
    raw = read_json(assets_dir / "pipeline_demo.json")
    raw["intersection"] = str(assets_dir / "palashi5.json")
    raw["optimizer"] = {"population_size": 12, "generations": 8, "rng_seed": 0}
    p = tmp_path / "pipeline.json"
    p.write_text(json.dumps(raw))
    return p


def with_camera0(raw, camera):
    return dict(raw, cameras=[camera] + raw["cameras"][1:])


class TestPipelineCommand:
    def test_ledger_satisfies_cycle_identity(self, pipeline_cfg_path, tmp_path):
        out = tmp_path / "p"
        assert main(["pipeline", "--config", str(pipeline_cfg_path),
                     "--cycles", "3", "--timing", "sim", "--report",
                     "--out", str(out)]) == 0
        lines = (out / "latency_ledger.ndjson").read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            entry = json.loads(line)
            ext = entry["extraction_samples_ms"]
            inf = entry["inference_samples_ms"]
            assert entry["t_extraction_ms"] == pytest.approx(sum(ext) / len(ext))
            assert entry["t_inference_ms"] == pytest.approx(sum(inf) / len(inf))
            assert entry["t_latency_ms"] == pytest.approx(
                entry["t_extraction_ms"] + entry["t_inference_ms"]
                + entry["t_optimization_ms"])
        report = read_json(out / "latency_report.json")
        per_cycle = [json.loads(l)["t_latency_ms"] for l in lines]
        assert report["t_latency_ms"] == pytest.approx(
            sum(per_cycle) / len(per_cycle))

    def test_empty_replay_times_out(self, assets_dir, tmp_path, capsys):
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        cfg = {
            "intersection": str(assets_dir / "palashi5.json"),
            "cameras": [{"type": "replay", "path": str(empty)}
                        for _ in range(5)],
            "window_ms": 50,
            "optimizer": {"population_size": 12, "generations": 5},
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code = main(["pipeline", "--config", str(p), "--cycles", "2",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: dict(raw, windw_ms=100), "unknown pipeline key 'windw_ms'"),
        (lambda raw: [raw], "pipeline must be a JSON object"),
        (lambda raw: with_camera0(raw, 5), "camera 0 must be a JSON object, got 5"),
        (lambda raw: dict(raw, window_ms=None), "window_ms must be a number, got None"),
        (lambda raw: with_camera0(raw, {"type": "replay"}),
         "camera 0: a replay camera needs a 'path' string"),
        (lambda raw: dict(raw, max_stale_windows=2.7),
         "max_stale_windows must be an integer, got 2.7"),
        (lambda raw: with_camera0(raw, dict(raw["cameras"][0], n_frames="5")),
         "camera 0: n_frames must be a number, got '5'"),
        (lambda raw: with_camera0(raw, {"motorised_in": 3}),
         "unknown camera 0 key 'motorised_in'"),
        (lambda raw: dict(raw, detector={"delay": 5}), "unknown detector key 'delay'"),
        (lambda raw: with_camera0(raw, dict(raw["cameras"][0], motorized_in=-3)),
         "camera 0: motorized_in must be in [0, 100000], got -3"),
        (lambda raw: with_camera0(raw, {"type": "thermal"}),
         "camera 0: unknown type 'thermal'"),
        (lambda raw: with_camera0(raw, {"type": "replay", "path": "x", "fps": 0}),
         "camera 0: fps must be >= 0.01, got 0"),
        (lambda raw: dict(raw, cameras={"0": {}}),
         "pipeline config needs a non-empty 'cameras' list"),
        (lambda raw: dict(raw, detector=dict(raw["detector"], jitter_ms=True)),
         "jitter_ms must be a number, got True"),
    ])
    def test_bad_pipeline_config_exits_1(self, pipeline_cfg_path, tmp_path,
                                         capsys, edit, message):
        pipeline_cfg_path.write_text(json.dumps(edit(read_json(pipeline_cfg_path))))
        code = main(["pipeline", "--config", str(pipeline_cfg_path),
                     "--timing", "sim", "--out", str(tmp_path / "p")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_zero_cycles_exits_1(self, pipeline_cfg_path, tmp_path, capsys):
        out = tmp_path / "p"
        assert main(["pipeline", "--config", str(pipeline_cfg_path),
                     "--cycles", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cycles must be >= 1" in err
        assert not out.exists()

    def test_manifest_holds_the_config_that_ran(self, assets_dir, tmp_path):
        from greenlight.pipeline import PipelineConfig
        shutil.copy(assets_dir / "detections_sample.ndjson", tmp_path)
        raw = read_json(assets_dir / "pipeline_demo.json")
        raw.update(
            intersection=str(assets_dir / "palashi5.json"),
            optimizer={"population_size": 12, "generations": 6, "rng_seed": 3,
                       "mutation_prob": 0.3},
            max_stale_windows=1, time_scale=0.5, guidance_pad_s=2,
            nominal_optimization_ms=120.0, timing="real")
        raw["cameras"][0] = {"type": "replay", "path": "detections_sample.ndjson"}
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "p"
        assert main(["pipeline", "--config", str(config), "--timing", "sim",
                     "--cycles", "3", "--seed", "4", "--out", str(out)]) == 0

        recorded = read_json(out / "manifest.json")["config"]["pipeline"]
        ran = PipelineConfig.load(config)
        ran.timing, ran.seed = "sim", 4
        ran.optimizer = dataclasses.replace(ran.optimizer, rng_seed=4)
        assert PipelineConfig.from_dict(recorded) == ran
        # The recorded config alone reruns the same plans and ledger.
        config.write_text(json.dumps(recorded))
        again = tmp_path / "again"
        assert main(["pipeline", "--config", str(config), "--cycles", "3",
                     "--out", str(again)]) == 0
        for name in ("plans.ndjson", "latency_ledger.ndjson"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_plans_pass_validation(self, pipeline_cfg_path, tmp_path, assets_dir):
        out = tmp_path / "p2"
        assert main(["pipeline", "--config", str(pipeline_cfg_path),
                     "--cycles", "2", "--timing", "sim",
                     "--out", str(out)]) == 0
        cfg = IntersectionConfig.from_dict(read_json(assets_dir / "palashi5.json"))
        for line in (out / "plans.ndjson").read_text().splitlines():
            plan = SignalPlan.from_dict(json.loads(line)["plan"])
            assert validate_plan(plan, cfg) == []


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_file_is_validation_error(self, tmp_path, capsys):
        assert main(["optimize", "--config", str(tmp_path / "nope.json"),
                     "--queue", str(tmp_path / "nope2.json"),
                     "--out", str(tmp_path / "o")]) == 1


ASSETS_DIR = Path(__file__).resolve().parents[1] / "src" / "greenlight" / "assets"


class TestColdStart:
    """Only a simulation loads numpy, so ``optimize`` and ``pipeline`` start
    without paying for it. Each check runs in a fresh interpreter, because
    this one has numpy loaded already."""

    def loads_numpy(self, tmp_path, code: str) -> bool:
        paths = [str(ASSETS_DIR.parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        code += "\nimport sys\nprint('numpy' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1] == "True"

    def main_loads_numpy(self, tmp_path, argv: list[str]) -> bool:
        code = f"from greenlight.cli import main\nassert main({argv!r}) == 0"
        return self.loads_numpy(tmp_path, code)

    def test_imports_and_pipeline_config_load_skip_numpy(self, tmp_path):
        code = ("import greenlight.cli, greenlight.simulator, greenlight.pipeline\n"
                "greenlight.pipeline.PipelineConfig.load("
                f"{str(ASSETS_DIR / 'pipeline_demo.json')!r})")
        assert not self.loads_numpy(tmp_path, code)

    def test_optimize_skips_numpy(self, tmp_path):
        assert not self.main_loads_numpy(tmp_path, [
            "optimize", "--config", str(ASSETS_DIR / "palashi5.json"),
            "--queue", str(ASSETS_DIR / "queue_sample.json"), "--seed", "7",
            "--out", str(tmp_path / "o")])

    def test_pipeline_skips_numpy(self, tmp_path):
        assert not self.main_loads_numpy(tmp_path, [
            "pipeline", "--config", str(ASSETS_DIR / "pipeline_demo.json"),
            "--timing", "sim", "--cycles", "2", "--out", str(tmp_path / "p")])

    def test_simulate_loads_numpy(self, quick_scenario, tmp_path):
        assert self.main_loads_numpy(tmp_path, [
            "simulate", "--scenario", str(quick_scenario),
            "--out", str(tmp_path / "s")])


class TestLoadTimeChecks:
    """Numbers, policies and weights are checked when a config loads: a bad
    value exits 1, runs nothing and leaves no output directory."""

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        from greenlight import simulator
        calls = []
        real = simulator.simulate
        monkeypatch.setattr(simulator, "simulate",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        yield calls
        assert calls == []

    @pytest.mark.parametrize("compare", [False, True])
    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw.update(seeds="12"), "seeds must be a list of integers"),
        (lambda raw: raw.update(seeds=[]), "seeds must list at least one seed"),
        (lambda raw: raw.update(seeds=[1, 2.5]), "seeds must be an integer, got 2.5"),
        (lambda raw: raw.update(seeds=[-1]), "seeds must be >= 0"),
        (lambda raw: raw.update(horizon_s=900.7), "horizon_s must be an integer"),
        (lambda raw: raw.update(horizon_s="900"), "horizon_s must be a number"),
        (lambda raw: raw["options"].update(sensing_latency_s=2.7),
         "sensing_latency_s must be an integer, got 2.7"),
        (lambda raw: raw["options"].update(observation_noise_p="0.5"),
         "observation_noise_p must be a number, got '0.5'"),
        (lambda raw: raw["options"].update(initial_motorized=[1.5, 0, 0, 0, 0]),
         "initial_motorized must be an integer, got 1.5"),
        (lambda raw: raw["options"].update(initial_non_motorized=[0, -2, 0, 0, 0]),
         "initial_non_motorized must be >= 0"),
        (lambda raw: raw["options"].update(initial_motorized=3),
         "initial_motorized must be a list of integers"),
        (lambda raw: raw["options"].update(
            emergency_events=[{"time_s": 10.5, "link": 1}]),
         "time_s must be an integer, got 10.5"),
        (lambda raw: raw["options"].update(
            emergency_events=[{"time_s": 10, "link": "1"}]),
         "link must be a number, got '1'"),
        (lambda raw: raw["options"].update(guidance_pad_s=1.5),
         "guidance_pad_s must be an integer, got 1.5"),
        (lambda raw: raw["options"].update(guidance_pad_s=-1),
         "guidance_pad_s must be >= 0"),
        (lambda raw: raw["options"].update(noise_seed="3"),
         "noise_seed must be a number, got '3'"),
        (lambda raw: raw["demand"].update(rng_seed=1.5),
         "rng_seed must be an integer, got 1.5"),
        (lambda raw: raw["controllers"][1].update(policy="kne"),
         "policy must be one of knee, weighted, min_f1, min_f2, got 'kne'"),
        (lambda raw: raw["controllers"][1].update(weights=["a", 1]),
         "weights must be two numbers"),
        (lambda raw: raw["controllers"][1].update(weights=[1]),
         "weights must be two numbers"),
        (lambda raw: raw.update(intersection=dict(
            read_json(ASSETS_DIR / "palashi5.json"), sat_flow_motorized="0.5")),
         "sat_flow_motorized must be a number, got '0.5'"),
        (lambda raw: raw.update(intersection=dict(
            read_json(ASSETS_DIR / "palashi5.json"), min_green_s=10.5)),
         "min_green_s must be an integer, got 10.5"),
        (lambda raw: raw.update(intersection=dict(
            read_json(ASSETS_DIR / "palashi5.json"), num_links="5")),
         "num_links must be a number, got '5'"),
        (lambda raw: raw.update(intersection=dict(
            read_json(ASSETS_DIR / "palashi5.json"), link_names="abcde")),
         "link_names must be a list of strings"),
    ])
    def test_bad_scenario_number_exits_1(self, quick_scenario, tmp_path, capsys,
                                         no_simulation, edit, message, compare):
        raw = read_json(quick_scenario)
        raw.setdefault("options", {})
        edit(raw)
        bad = tmp_path / "bad_scenario.json"
        bad.write_text(json.dumps(raw))
        assert main(["simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "x")]
                    + (["--compare"] if compare else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "x").exists()

    def test_integral_float_numbers_load(self, quick_scenario, tmp_path):
        raw = read_json(quick_scenario)
        raw.update(horizon_s=300.0, seeds=[1.0])
        raw["options"].update(sensing_latency_s=2.0, initial_motorized=[3.0] * 5)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(raw))
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(out)]) == 0
        metrics = read_json(out / "metrics.json")
        assert metrics["time_horizon_s"] == 300
        assert isinstance(metrics["throughput_total"], int)

    @pytest.mark.parametrize("config, message", [
        ({"policy": "kne"}, "policy must be one of"),
        ({"intersection": {"num_links": 2, "min_green_s": 10.5}},
         "min_green_s must be an integer, got 10.5"),
        ({"intersection": {"num_links": 2, "sat_flow_motorized": "0.5"}},
         "sat_flow_motorized must be a number, got '0.5'"),
    ])
    def test_bad_optimize_config_exits_1(self, assets_dir, tmp_path, capsys,
                                         config, message):
        raw = {"intersection": read_json(assets_dir / "palashi5.json")}
        if "intersection" in config:
            raw["intersection"] = config["intersection"]
        raw.update({k: v for k, v in config.items() if k != "intersection"})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["optimize", "--config", str(path),
                     "--queue", str(assets_dir / "queue_sample.json"),
                     "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("timing", ["sim", "real"])
    def test_bad_pipeline_policy_starts_nothing(self, pipeline_cfg_path, tmp_path,
                                                capsys, monkeypatch, timing):
        import greenlight.cli
        started = []
        monkeypatch.setattr(greenlight.cli, "run_pipeline",
                            lambda *a, **k: started.append(a))
        raw = read_json(pipeline_cfg_path)
        raw["policy"] = "kne"
        pipeline_cfg_path.write_text(json.dumps(raw))
        assert main(["pipeline", "--config", str(pipeline_cfg_path),
                     "--timing", timing, "--out", str(tmp_path / "p")]) == 1
        assert "policy must be one of" in capsys.readouterr().err
        assert started == []
        assert not (tmp_path / "p").exists()


PALASHI = read_json(ASSETS_DIR / "palashi5.json")


class TestConfigFiles:
    """One reader for every config file: a file that cannot be read is a
    validation error (exit 1) for every command."""

    @pytest.mark.parametrize("command", ["optimize", "optimize-queue", "simulate",
                                         "simulate-intersection", "pipeline",
                                         "pipeline-intersection"])
    def test_missing_file_exits_1(self, tmp_path, capsys, command):
        missing = str(tmp_path / "nope.json")
        config = tmp_path / "config.json"
        if command.endswith("-intersection"):
            raw = read_json(ASSETS_DIR / ("scenario_asymmetric.json" if command.startswith(
                "simulate") else "pipeline_demo.json"))
            raw["intersection"] = "nope.json"
            config.write_text(json.dumps(raw))
        argv = {
            "optimize": ["optimize", "--config", missing,
                         "--queue", str(ASSETS_DIR / "queue_sample.json")],
            "optimize-queue": ["optimize", "--config", str(ASSETS_DIR / "palashi5.json"),
                               "--queue", missing],
            "simulate": ["simulate", "--scenario", missing],
            "simulate-intersection": ["simulate", "--scenario", str(config)],
            "pipeline": ["pipeline", "--config", missing, "--timing", "sim"],
            "pipeline-intersection": ["pipeline", "--config", str(config),
                                      "--timing", "sim"],
        }[command]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.json: no such file" in err
        assert not (tmp_path / "o").exists()

    def test_relative_paths_taken_from_config_dir(self, tmp_path, monkeypatch):
        # The intersection and every replay log named by bare file name are
        # read from the config file's directory, not the working directory.
        from greenlight.pipeline import PipelineConfig
        probe = tmp_path / "probe"
        probe.mkdir()
        for name in ("palashi5.json", "detections_sample.ndjson"):
            shutil.copy(ASSETS_DIR / name, probe / name)
        raw = read_json(ASSETS_DIR / "pipeline_demo.json")
        raw["intersection"] = "palashi5.json"
        raw["cameras"] = [{"type": "replay", "path": "detections_sample.ndjson"}] * 5
        config = probe / "pipeline.json"
        config.write_text(json.dumps(raw))
        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        assert main(["pipeline", "--config", str(config), "--timing", "sim",
                     "--cycles", "2", "--out", str(tmp_path / "o")]) == 0
        log = str(probe / "detections_sample.ndjson")
        assert {c["path"] for c in PipelineConfig.load(config).cameras} == {log}
        # Without a config file there is no base: the path stays as written.
        assert {c["path"] for c in PipelineConfig.from_dict(
            dict(raw, intersection=str(probe / "palashi5.json"))).cameras} == {
            "detections_sample.ndjson"}


class TestRejectedInputs:
    """Inputs that used to run something else in silence, coerce a value or
    end in a traceback: each exits 1 with a ``ConfigError`` message, runs
    nothing and leaves no output directory."""

    @pytest.mark.parametrize("command, target, edit, message", [
        ("simulate", "config", lambda raw: raw.update(seed=[3, 4]),
         "unknown scenario key 'seed'"),
        ("simulate", "config", lambda raw: raw["demand"].update(rng_sed=3),
         "unknown demand key 'rng_sed'"),
        # Arrivals are drawn from the scenario's seeds or --seed.
        ("simulate", "config", lambda raw: raw["demand"].update(rng_seed=5),
         "demand.rng_seed is not used: simulate draws arrivals from the "
         "scenario's seeds or --seed"),
        ("simulate", "config", lambda raw: raw["controllers"][1].update(polcy="min_f1"),
         "unknown controller 1 key 'polcy'"),
        ("simulate", "config", lambda raw: raw["controllers"][0].update(gren=[30] * 5),
         "unknown controller 0 key 'gren'"),
        ("simulate", "config", lambda raw: raw["controllers"][0].update(name=3),
         "controller 0: name must be a string, got 3"),
        ("simulate", "config", lambda raw: raw.update(controllers={"a": 1}),
         "controllers must be a list of objects, got {'a': 1}"),
        ("simulate", "config", lambda raw: raw.update(controllers=[1, 2]),
         "controller 0 must be a JSON object, got 1"),
        ("simulate", "config", lambda raw: raw["controllers"][0].update(type="manual"),
         "controller 0: unknown type 'manual'"),
        ("simulate", "config", lambda raw: raw["controllers"][0].update(greens=["30"] * 5),
         "controller 0: greens must be a number, got '30'"),
        ("simulate", "config", lambda raw: raw["controllers"][0].update(greens=[10.5] * 5),
         "controller 0: greens must be an integer, got 10.5"),
        ("simulate", "config", lambda raw: raw["controllers"].append(
            dict(raw["controllers"][0], greens=[20] * 5)),
         "duplicate controller name 'fixed_equal'"),
        ("simulate", "config", lambda raw: raw.update(controllers=[
            {"type": "fixed", "greens": [30] * 5},  # named controller_0 by default
            {"type": "fixed", "greens": [20] * 5, "name": "controller_0"}]),
         "duplicate controller name 'controller_0'"),
        ("simulate", "config", lambda raw: raw.update(intersection=dict(
            PALASHI, sat_flow_motorized=float("inf"))),
         "sat_flow_motorized must be a finite number, got inf"),
        ("simulate", "config", lambda raw: raw["demand"].update(
            motorized_rates=[float("nan")] * 5),
         "arrival rates must be numbers >= 0"),
        ("simulate", "config", lambda raw: raw["options"].update(blackouts=[[0, float("inf")]]),
         "blackout must be [start, end] numbers with start <= end"),
        ("simulate", "config", lambda raw: raw["controllers"][1].update(weights=[-1, 0]),
         "weights must be >= 0, got -1"),
        ("simulate", "config", lambda raw: raw["controllers"][1].update(weights=[0, 0.0]),
         "weights must not both be 0, got [0, 0.0]"),
        # Each of ~5 (horizon, L, 2) arrays would be allocated before a step.
        ("simulate", "config", lambda raw: raw.update(horizon_s=10**12),
         "horizon_s must be in [1, 86400], got 1000000000000"),
        # The draw script and the point cache grow as population x generations.
        ("simulate", "config", lambda raw: raw["controllers"][1]["optimizer"].update(
            population_size=10**6),
         "controller 1: population_size must be in [4, 1000], got 1000000"),
        ("simulate", "config", lambda raw: raw["controllers"][1]["optimizer"].update(
            generations=1001),
         "controller 1: generations must be in [1, 1000], got 1001"),
        # random.Random(-n) draws what random.Random(n) draws.
        ("simulate", "config", lambda raw: raw["controllers"][1]["optimizer"].update(
            rng_seed=-1),
         "controller 1: rng_seed must be >= 0, got -1"),
        # --seed replaces the scenario's seeds; demand.rng_seed is refused.
        ("simulate", "argv", lambda argv: argv.extend(["--seed", "-1"]),
         "--seed must be >= 0, got -1"),
        ("optimize", "config", lambda raw: raw.update(polcy="min_f1"),
         "unknown optimize config key 'polcy'"),
        ("optimize", "config", lambda raw: raw.update(optimizer=None),
         "optimizer must be a JSON object, got None"),
        ("optimize", "config", lambda raw: raw["optimizer"].update(mutation_prob=float("nan")),
         "mutation_prob must be a finite number, got nan"),
        ("optimize", "config", lambda raw: raw["optimizer"].update(population_size=10**6),
         "population_size must be in [4, 1000], got 1000000"),
        ("optimize", "config", lambda raw: raw["optimizer"].update(generations=1001),
         "generations must be in [1, 1000], got 1001"),
        ("optimize", "config", lambda raw: raw["optimizer"].update(rng_seed=-1),
         "rng_seed must be >= 0, got -1"),
        ("optimize", "argv", lambda argv: argv.extend(["--seed", "-1"]),
         "--seed must be >= 0, got -1"),
        ("optimize", "config", lambda raw: raw["intersection"].update(max_green_s=3601),
         "max_green_s must be in [1, 3600]"),
        ("optimize", "queue", lambda q: q.update(motorized=None),
         "motorized must be a list of integers, got None"),
        ("optimize", "queue", lambda q: q.update(motorized=[1.5, "3", 0, 0, 0]),
         "motorized must be an integer, got 1.5"),
        ("optimize", "queue", lambda q: q.update(motorized="34"),
         "motorized must be a list of integers, got '34'"),
        ("optimize", "queue", lambda q: q.update(timestamp_ms=True),
         "timestamp_ms must be a number, got True"),
        ("optimize", "queue", lambda q: q.update(motorized=[1] * 4, non_motorized=[0] * 4),
         "queue covers 4 links, config has 5"),
        ("optimize", "queue", lambda q: q.update(motorized=[1] * 6, non_motorized=[0] * 6),
         "queue covers 6 links, config has 5"),
    ])
    def test_exits_1(self, quick_scenario, tmp_path, capsys, monkeypatch,
                     command, target, edit, message):
        from greenlight import nsga2, simulator
        ran = []
        monkeypatch.setattr(simulator, "simulate", lambda *a, **k: ran.append(a))
        monkeypatch.setattr(nsga2, "run", lambda *a, **k: ran.append(a))
        queue = read_json(ASSETS_DIR / "queue_sample.json")
        if command == "simulate":
            raw = read_json(quick_scenario)
            raw.setdefault("options", {})
        else:
            raw = {"intersection": dict(PALASHI), "optimizer": {"generations": 5}}
        config, queue_path = tmp_path / "config.json", tmp_path / "queue.json"
        out = str(tmp_path / "o")
        if command == "simulate":
            argv = ["simulate", "--scenario", str(config), "--compare", "--out", out]
        else:
            argv = ["optimize", "--config", str(config), "--queue", str(queue_path),
                    "--out", out]
        edit({"queue": queue, "config": raw, "argv": argv}[target])
        config.write_text(json.dumps(raw))
        queue_path.write_text(json.dumps(queue))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert ran == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["initial_motorized", "initial_non_motorized"])
    def test_empty_initial_queue_exits_1(self, quick_scenario, tmp_path, capsys,
                                         key):
        # An empty list is a queue for no link, not the all-zero default;
        # simulate rejects it before its first step.
        raw = read_json(quick_scenario)
        raw.setdefault("options", {})[key] = []
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "initial queues must have one entry per link" in err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--pad", "-2"], "guidance_pad_s must be >= 0, got -2"),
        (["--policy", "weighted", "--weights=-1,0"],
         "weights must be >= 0, got -1.0"),
        (["--policy", "weighted", "--weights=0,0"],
         "weights must not both be 0, got [0.0, 0.0]"),
    ])
    def test_bad_planner_flags_exit_1(self, tmp_path, capsys, monkeypatch,
                                      extra, message):
        from greenlight import nsga2
        ran = []
        monkeypatch.setattr(nsga2, "run", lambda *a, **k: ran.append(a))
        out = tmp_path / "o"
        assert main(["optimize", "--config", str(ASSETS_DIR / "palashi5.json"),
                     "--queue", str(ASSETS_DIR / "queue_sample.json"), *extra,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert ran == []
        assert not out.exists()

    @pytest.mark.parametrize("weights", ["nan,1", "inf,1", "abc,1", "1", ""])
    def test_bad_weights_exit_1(self, tmp_path, capsys, monkeypatch, weights):
        from greenlight import nsga2
        ran = []
        monkeypatch.setattr(nsga2, "run", lambda *a, **k: ran.append(a))
        out = tmp_path / "o"
        assert main(["optimize", "--config", str(ASSETS_DIR / "palashi5.json"),
                     "--queue", str(ASSETS_DIR / "queue_sample.json"),
                     "--policy", "weighted", "--weights", weights,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and (
            f"--weights expects two comma-separated finite numbers, got '{weights}'"
            in err)
        assert ran == []
        assert not out.exists()

    @pytest.mark.parametrize("timing, edit, message", [
        # Past about 1e300 ms the sim clock overflows to inf at cycle 2 or 3,
        # and a real wait overflows the platform's time_t.
        ("sim", lambda raw: raw.update(nominal_optimization_ms=1e308),
         "nominal_optimization_ms must be in [0, 3600000], got 1e+308"),
        ("sim", lambda raw: raw["detector"].update(delay_ms=1e308),
         "delay_ms must be in [0, 3600000], got 1e+308"),
        ("sim", lambda raw: raw["detector"].update(jitter_ms=1e308),
         "jitter_ms must be in [0, 3600000], got 1e+308"),
        ("sim", lambda raw: raw["cameras"][0].update(extract_delay_ms=1e308),
         "extract_delay_ms must be in [0, 3600000], got 1e+308"),
        ("sim", lambda raw: raw["cameras"][2].update(jitter_ms=3600001),
         "jitter_ms must be in [0, 3600000], got 3600001"),
        ("real", lambda raw: raw.update(window_ms=1e300),
         "window_ms must be in [0, 3600000], got 1e+300"),
        # The longest pacing sleep, (1000/fps + extract_delay_ms + jitter_ms)
        # x time_scale, must stay one time.sleep takes: fps 1e-300 made every
        # camera's first sleep overflow the platform's time_t.
        ("real", lambda raw: raw.update(time_scale=1e300),
         "time_scale must be <= 100, got 1e+300"),
        ("real", lambda raw: raw["cameras"][0].update(fps=1e-300),
         "camera 0: fps must be >= 0.01, got 1e-300"),
        ("real", lambda raw: raw["cameras"].__setitem__(1, {
            "type": "replay", "fps": 0.005,
            "path": str(ASSETS_DIR / "detections_sample.ndjson")}),
         "camera 1: fps must be >= 0.01, got 0.005"),
        # Detection thins a count one vehicle at a time: 10**12 would hang it.
        ("sim", lambda raw: raw["cameras"][3].update(motorized_in=1e12),
         "camera 3: motorized_in must be in [0, 100000], got 1000000000000"),
        ("real", lambda raw: raw["cameras"][2].update(non_motorized_out=100001),
         "camera 2: non_motorized_out must be in [0, 100000], got 100001"),
        # random.Random(-n) draws what random.Random(n) draws. An edit that
        # returns a list gives extra command-line arguments.
        ("sim", lambda raw: raw.update(seed=-1), "seed must be >= 0, got -1"),
        ("real", lambda raw: raw["optimizer"].update(rng_seed=-1),
         "rng_seed must be >= 0, got -1"),
        ("sim", lambda raw: ["--seed", "-1"], "--seed must be >= 0, got -1"),
    ])
    def test_pipeline_setting_out_of_range_exits_1(
            self, tmp_path, capsys, monkeypatch, timing, edit, message):
        import threading

        from greenlight import nsga2
        started, ran = [], []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread.name))
        monkeypatch.setattr(nsga2, "run", lambda *a, **k: ran.append(a))
        raw = read_json(ASSETS_DIR / "pipeline_demo.json")
        raw["intersection"] = str(ASSETS_DIR / "palashi5.json")
        extra = edit(raw) or []
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(config), "--timing", timing,
                     "--cycles", "4", *extra, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert started == [] and ran == []
        assert not out.exists()

    @pytest.mark.parametrize("timing", ["sim", "real"])
    def test_missing_replay_log_exits_1(self, tmp_path, capsys, monkeypatch,
                                        timing):
        import threading
        started = []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread.name))
        raw = read_json(ASSETS_DIR / "pipeline_demo.json")
        raw["intersection"] = str(ASSETS_DIR / "palashi5.json")
        # A replay log is opened from the config file's directory.
        raw["cameras"] = [{"type": "replay", "path": "no_such_log.ndjson"}] * 5
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(config), "--timing", timing,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and (
            "replay log 'no_such_log.ndjson' is not a readable file" in err)
        assert started == []
        assert not out.exists()

    def test_zero_time_scale_exits_1(self, pipeline_cfg_path, tmp_path, capsys,
                                     monkeypatch):
        # At 0 a synthetic camera captures without sleeping, so real timing
        # would spin; the scale must be positive.
        import threading
        started = []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread.name))
        raw = read_json(pipeline_cfg_path)
        raw["time_scale"] = 0
        pipeline_cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(pipeline_cfg_path),
                     "--timing", "real", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "time_scale must be > 0, got 0.0" in err
        assert started == []
        assert not out.exists()

    def test_false_rate_above_ceiling_exits_1(self, pipeline_cfg_path, tmp_path,
                                              capsys, monkeypatch):
        # Past ~745 the Poisson draw of false counts is wrong for any rate.
        import greenlight.cli
        ran = []
        monkeypatch.setattr(greenlight.cli, "run_pipeline",
                            lambda *a, **k: ran.append(a))
        raw = read_json(pipeline_cfg_path)
        raw["detector"]["false_rate"] = 1000
        pipeline_cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(pipeline_cfg_path),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and (
            "false_rate must be in [0, 700], got 1000" in err)
        assert ran == []
        assert not out.exists()

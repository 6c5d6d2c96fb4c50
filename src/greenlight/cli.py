"""Command-line entry point.

Subcommands: ``optimize`` (one queue snapshot -> Pareto front + plan),
``simulate`` (scenario -> metrics + time series, optional controller
comparison), ``pipeline`` (threaded or simulated stream pipeline ->
emitted plans + latency ledger).

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 interrupted.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from . import __version__, nsga2, simulator
from .core import (
    ConfigError,
    IntersectionConfig,
    QueueState,
    canonical_json,
    dump_json,
    is_number,
    read_json,
)
from .pipeline import AllCamerasStale, PipelineConfig, run_pipeline

log = logging.getLogger("greenlight")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_INTERRUPTED = 3


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_manifest(
    out: Path, command: str, config_snapshot: dict, seeds: list[int],
    artifacts: list[str], started_at: str,
) -> None:
    manifest = {
        "command": command,
        "config": config_snapshot,
        "seeds": seeds,
        "artifacts": sorted(artifacts),
        "tool_version": __version__,
        "started_at": started_at,
        "finished_at": _utcnow(),
    }
    dump_json(manifest, out / "manifest.json")


class OptimizeConfig(nsga2.Planner):
    """An ``optimize`` config: the intersection with the planner's
    settings."""

    NAME = "optimize config"


def _parse_weights(s: str) -> tuple[float, float]:
    """Two comma-separated finite numbers, as a controller's ``weights``."""
    try:
        weights = tuple(float(part) for part in s.split(","))
    except ValueError:
        weights = ()
    if len(weights) != 2 or not all(map(is_number, weights)):
        raise ConfigError(
            f"--weights expects two comma-separated finite numbers, got {s!r}")
    return weights


def _seed_flag(args: argparse.Namespace) -> Optional[int]:
    """``--seed``, checked before any run: it takes the floor of the seeds
    it replaces."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    return args.seed


def cmd_optimize(args: argparse.Namespace) -> int:
    started = _utcnow()
    seed = _seed_flag(args)
    weights = None if args.weights is None else _parse_weights(args.weights)
    raw = read_json(args.config)
    if isinstance(raw, dict) and "intersection" in raw:
        planner = OptimizeConfig.from_dict(raw)
    else:
        planner = OptimizeConfig(IntersectionConfig.from_dict(raw))
    # The flags given win over the config file.
    flags = {"policy": args.policy, "weights": weights,
             "guidance_pad_s": args.pad}
    if seed is not None:
        flags["optimizer"] = dataclasses.replace(planner.optimizer,
                                                 rng_seed=seed)
    planner = dataclasses.replace(
        planner, **{k: v for k, v in flags.items() if v is not None})
    cfg = planner.intersection
    queue = QueueState.from_dict(read_json(args.queue))
    if queue.num_links != cfg.num_links:
        raise ConfigError(
            f"queue covers {queue.num_links} links, config has {cfg.num_links}"
        )
    front, plan, chosen = planner(queue)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_json([ind.to_dict() for ind in front], out / "pareto_front.json")
    dump_json(plan.to_dict(), out / "selected_plan.json")
    config = {**planner.to_dict(), "queue": queue.to_dict()}
    if planner.policy != "weighted":  # the one policy that reads them
        del config["weights"]
    _write_manifest(
        out, "optimize", config,
        [planner.optimizer.rng_seed],
        ["pareto_front.json", "selected_plan.json"],
        started,
    )
    print(
        f"selected plan greens={list(plan.greens)} "
        f"f1={chosen.objectives.f1} f2={chosen.objectives.f2} "
        f"({len(front)} front members)"
    )
    return EXIT_OK


def _write_timeseries(path: Path, trace: simulator.SimTrace, L: int) -> None:
    states = simulator.PHASE_STATES
    rows = zip(trace.queues.tolist(), trace.active_link.tolist(),
               trace.phase.tolist())
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t"] + [f"queue_link_{i}" for i in range(L)]
            + ["active_link", "phase_state"]
        )
        writer.writerows(
            [t, *queues, link, states[phase]]
            for t, (queues, link, phase) in enumerate(rows)
        )


def cmd_simulate(args: argparse.Namespace) -> int:
    started = _utcnow()
    raw = read_json(args.scenario)
    scenario = simulator.Scenario.from_dict(raw, base_dir=Path(args.scenario).parent)
    cfg, demand, options = scenario.intersection, scenario.demand, scenario.options
    horizon = scenario.horizon_s
    seeds = list(scenario.seeds)
    seed = _seed_flag(args)
    if seed is not None:
        seeds = [seed]
    controllers = {}
    for spec in scenario.controllers:
        rest = {k: v for k, v in spec.items() if k not in ("type", "name")}
        controllers[spec["name"]] = simulator.CONTROLLERS[spec["type"]](
            intersection=cfg, guidance_pad_s=options.guidance_pad_s, **rest)

    # The output directory is made only once the run has succeeded, so a
    # scenario that fails validation leaves nothing behind.
    out = Path(args.out)
    artifacts: list[str] = []

    if args.compare:
        report = simulator.compare_controllers(
            cfg, demand, controllers, horizon, seeds, options
        )
        out.mkdir(parents=True, exist_ok=True)
        dump_json(report, out / "comparison.json")
        artifacts.append("comparison.json")
        base = next(iter(controllers))
        print(f"compared {len(controllers)} controllers over {len(seeds)} seeds "
              f"(baseline: {base})")
    else:
        name = next(iter(controllers))
        metrics, trace = simulator.simulate(
            cfg, dataclasses.replace(demand, rng_seed=seeds[0]), controllers[name],
            horizon, options
        )
        out.mkdir(parents=True, exist_ok=True)
        dump_json(metrics.to_dict(), out / "metrics.json")
        _write_timeseries(out / "timeseries.csv", trace, cfg.num_links)
        artifacts += ["metrics.json", "timeseries.csv"]
        print(
            f"{name}: overall_avg={metrics.overall_avg:.3f} "
            f"overall_max={metrics.overall_max} "
            f"throughput={metrics.throughput_total}"
        )

    _write_manifest(
        out, "simulate",
        {"scenario": raw, "intersection": cfg.to_dict()},
        seeds, artifacts, started,
    )
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    started = _utcnow()
    seed = _seed_flag(args)
    cfg = PipelineConfig.load(args.config)
    if args.timing:
        cfg.timing = args.timing
    if seed is not None:
        cfg.seed = seed
        cfg.optimizer = dataclasses.replace(cfg.optimizer, rng_seed=seed)

    result = run_pipeline(cfg, args.cycles)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    with (out / "plans.ndjson").open("w") as plans, \
            (out / "latency_ledger.ndjson").open("w") as ledger:
        for c in result.cycles:
            line = c.to_dict()
            ledger.write(canonical_json(line.pop("latency")) + "\n")
            plans.write(canonical_json(line) + "\n")
    artifacts = ["plans.ndjson", "latency_ledger.ndjson"]
    report = result.latency_report()
    if args.report:
        dump_json(report, out / "latency_report.json")
        artifacts.append("latency_report.json")

    _write_manifest(
        out, "pipeline",
        {"pipeline": cfg.to_dict()},
        [cfg.seed], artifacts, started,
    )
    print(
        f"{len(result.cycles)} cycles, T_latency={report['t_latency_ms']:.1f} ms, "
        f"{result.skipped_cycles} skipped"
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as validation errors do, not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="greenlight",
        description="Adaptive traffic-signal optimization, simulation, and "
                    "stream-pipeline tooling.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="optimize one queue snapshot")
    p_opt.add_argument("--config", required=True,
                       help="intersection config JSON, or an object with "
                            "'intersection' and any of 'optimizer', "
                            "'policy', 'weights' and 'guidance_pad_s'; "
                            "flags given win")
    p_opt.add_argument("--queue", required=True, help="QueueState JSON")
    p_opt.add_argument("--seed", type=int, default=None)
    p_opt.add_argument("--out", default="out_optimize")
    p_opt.add_argument("--policy", default=None,
                       choices=nsga2.POLICIES)
    p_opt.add_argument("--weights", default=None,
                       help="w1,w2 for the weighted policy")
    p_opt.add_argument("--pad", type=int, default=None,
                       help="guidance padding seconds around each green "
                            "(default: the config's guidance_pad_s, or 0)")
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser("simulate", help="run a simulation scenario")
    p_sim.add_argument("--scenario", required=True, help="scenario JSON")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default="out_simulate")
    p_sim.add_argument("--compare", action="store_true",
                       help="run every controller on paired seeds")
    p_sim.set_defaults(func=cmd_simulate)

    p_pipe = sub.add_parser("pipeline", help="run the stream pipeline")
    p_pipe.add_argument("--config", required=True, help="pipeline config JSON")
    p_pipe.add_argument("--cycles", type=int, default=5)
    p_pipe.add_argument("--seed", type=int, default=None)
    p_pipe.add_argument("--out", default="out_pipeline")
    p_pipe.add_argument("--report", action="store_true",
                        help="write the latency summary report")
    p_pipe.add_argument("--timing", default=None, choices=["real", "sim"])
    p_pipe.set_defaults(func=cmd_pipeline)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except (AllCamerasStale, OSError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

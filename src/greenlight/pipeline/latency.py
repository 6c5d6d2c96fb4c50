"""End-to-end latency ledger.

Per cycle i: T_extraction_i and T_inference_i are means of the per-frame
stage samples observed during the cycle, T_latency_i adds the optimizer
time, and the run-level T_latency is the mean over cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


@dataclass
class CycleLatency:
    cycle_id: int
    extraction_samples: list[float]
    inference_samples: list[float]
    optimization_ms: float

    @property
    def t_extraction_ms(self) -> float:
        return _mean(self.extraction_samples)

    @property
    def t_inference_ms(self) -> float:
        return _mean(self.inference_samples)

    @property
    def t_latency_ms(self) -> float:
        return self.t_extraction_ms + self.t_inference_ms + self.optimization_ms

    def to_dict(self) -> dict:
        return {
            "cycle_id": self.cycle_id,
            "extraction_samples_ms": self.extraction_samples,
            "inference_samples_ms": self.inference_samples,
            "t_extraction_ms": self.t_extraction_ms,
            "t_inference_ms": self.t_inference_ms,
            "t_optimization_ms": self.optimization_ms,
            "t_latency_ms": self.t_latency_ms,
        }


@dataclass
class LatencyBreakdown:
    cycles: list[CycleLatency] = field(default_factory=list)

    @property
    def t_latency_ms(self) -> float:
        return _mean([c.t_latency_ms for c in self.cycles])

    def summary(self) -> dict:
        return {
            "num_cycles": len(self.cycles),
            "t_latency_ms": self.t_latency_ms,
            "per_cycle_t_latency_ms": [c.t_latency_ms for c in self.cycles],
            "mean_t_extraction_ms": _mean([c.t_extraction_ms for c in self.cycles]),
            "mean_t_inference_ms": _mean([c.t_inference_ms for c in self.cycles]),
            "mean_t_optimization_ms": _mean(
                [c.optimization_ms for c in self.cycles]
            ),
        }

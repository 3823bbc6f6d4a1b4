"""Inference throughput measurement.

Inputs are pre-generated (generation excluded from timing). One
InferencePlan runs every batch; its set-up and the first batch are reported
separately as cold start and excluded from steady-state stats.
All derived columns are computed from the recorded counters, so the report's
internal identities hold exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalidValue, fits_one_array
from .nn.model import InferencePlan, ModelParams

CSV_HEADER = "model,seq_len,batch,cold_start_s,total_s,n_preds,preds_per_s,batch_mean_ms"


@dataclass
class ThroughputReport:
    model: str
    seq_len: int
    batch_size: int
    cold_start_s: float
    total_time_s: float
    n_preds: int
    throughput_preds_per_s: float
    batch_mean_ms: float

    def csv_row(self) -> str:
        return (f"{self.model},{self.seq_len},{self.batch_size},"
                f"{self.cold_start_s:.6f},{self.total_time_s:.6f},"
                f"{self.n_preds},{self.throughput_preds_per_s:.2f},"
                f"{self.batch_mean_ms:.4f}")


def bench_inference(params: ModelParams, seq_len: int, batch_size: int = 64,
                    n_preds_target: int = 2048,
                    model_name: str = "model") -> ThroughputReport:
    """Time steady-state batched inference on synthetic standardized inputs."""
    input_dim = params.config.input_dim
    if not fits_one_array(batch_size * seq_len * input_dim, 8):
        raise ConfigInvalidValue(
            f"bench input of batch {batch_size} x seq_len {seq_len} x input_dim "
            f"{input_dim} float64 values is past the largest array numpy can index")
    n_batches = max(2, -(-int(n_preds_target) // batch_size) + 1)
    rng = np.random.default_rng(0)
    # a few distinct batches cycled; allocation happens before the clock starts
    pool = [rng.standard_normal((batch_size, seq_len, input_dim))
            for _ in range(min(4, n_batches))]

    t0 = time.perf_counter()
    plan = InferencePlan(params, pool[0].shape)
    plan.run(pool[0])
    cold_start_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    steady = n_batches - 1
    for b in range(steady):
        plan.run(pool[b % len(pool)])
    total_time_s = time.perf_counter() - t1

    n_preds = steady * batch_size
    throughput = n_preds / total_time_s
    batch_mean_ms = 1000.0 * batch_size / throughput
    return ThroughputReport(model_name, int(seq_len), int(batch_size),
                            cold_start_s, total_time_s, n_preds,
                            throughput, batch_mean_ms)

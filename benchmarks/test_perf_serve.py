"""Capacity benchmark for the HEAD inference service (BENCH_serve.json).

Sweeps the batcher's ``batch_window`` -- the central latency/throughput
dial -- under a fixed seeded open-loop load and records, per setting:
p50/p99 answered latency, sustained answered req/s, shed rate, mean
batch occupancy, and the process's minor page faults per answered
request while the load ran (``getrusage``; a process that sets up once
and then serves shows its allocator's page churn here).  Results land
in ``BENCH_serve.json`` at the repo root with git/config provenance
stamps.

``REPRO_BENCH_SERVE_PROFILE=smoke`` shrinks duration and offered rate
for CI.  The run is structural, not gated on absolute numbers: shared
runners make latency targets meaningless, but the shape (every request
resolved, all windows measured) must hold everywhere.
"""

import asyncio
import os
import resource

import numpy as np
import pytest

from _bench_io import write_bench
from repro.core.config import HEADConfig
from repro.core.head import HEAD
from repro.serve import (BatchInferenceEngine, BatcherConfig, ClientConfig,
                         InferenceServer, LoadProfile, ServeClient,
                         ServerConfig, make_graph_pool, run_load)

pytestmark = pytest.mark.perf

#: Micro-batch window settings swept (seconds).  0 disables coalescing
#: beyond what is already queued -- the latency-optimal baseline.
WINDOWS = [0.0, 0.002, 0.008]

PROFILES = {
    "full": {"duration": 4.0, "rate": 400.0, "burst_rate": 400.0},
    "smoke": {"duration": 1.0, "rate": 150.0, "burst_rate": 150.0},
}


async def _measure(engine, window: float, profile: dict, pool) -> dict:
    server = InferenceServer(engine, ServerConfig(
        batcher=BatcherConfig(max_batch=32, batch_window=window, capacity=256),
        handler_timeout=5.0))
    await server.start()
    client = ServeClient(server, ClientConfig(timeout=2.0, max_attempts=2),
                         seed=11)
    load = LoadProfile(duration=profile["duration"], rate=profile["rate"],
                       burst_rate=profile["burst_rate"], burst_every=0.5,
                       burst_length=0.1, deadline_budget=0.5, seed=7)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    report = await run_load(client, load, pool)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    await server.stop()
    health = server.health_report()
    return {
        "batch_window_ms": window * 1e3,
        "offered": report.offered,
        "answered": report.answered,
        "shed": report.shed,
        "shed_rate": report.shed / max(report.offered, 1),
        "sustained_req_per_s": report.answered / profile["duration"],
        "p50_latency_ms": report.latency_quantile(0.50) * 1e3,
        "p99_latency_ms": report.latency_quantile(0.99) * 1e3,
        "batch_occupancy": health.batch_occupancy,
        "minor_faults_per_request": faults / max(report.answered, 1),
        "rejected": health.rejected_total,
        "shed_expired": health.shed_expired_total,
        "verdicts": report.verdict_counts(),
    }


def test_serve_capacity_sweep():
    profile_name = os.environ.get("REPRO_BENCH_SERVE_PROFILE", "full")
    profile = PROFILES[profile_name]
    cfg = HEADConfig()
    head = HEAD(cfg, rng=np.random.default_rng(0))
    engine = BatchInferenceEngine.from_head(head)
    pool = make_graph_pool(16, seed=1, history_steps=cfg.history_steps)

    async def sweep():
        results = []
        for window in WINDOWS:
            results.append(await _measure(engine, window, profile, pool))
        return results

    sweep_results = asyncio.run(sweep())

    workload = {"scenario": "seeded_poisson_bursty", "profile": profile_name,
                **profile, "windows_ms": [w * 1e3 for w in WINDOWS],
                "max_batch": 32, "capacity": 256, "load_seed": 7,
                "pool_seed": 1, "client_seed": 11}
    path = write_bench("serve", {"workload": workload,
                                 "sweep": sweep_results},
                       config=workload)

    for result in sweep_results:
        assert result["answered"] > 0
        assert result["answered"] + result["shed"] <= result["offered"]
    assert len(sweep_results) == len(WINDOWS) >= 3
    best = min(sweep_results, key=lambda r: r["p99_latency_ms"])
    print(f"\nBENCH_serve: best p99 {best['p99_latency_ms']:.1f}ms at "
          f"window {best['batch_window_ms']:.0f}ms, sustained "
          f"{best['sustained_req_per_s']:.0f} req/s -> {path.name}")

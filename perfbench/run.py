"""HEAD end-to-end benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload eval-drive --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the system up several times (``setup_s`` is the
median), runs the workload untraced for ``--seconds`` and prints the
end-to-end metrics:

* ``setup_s`` -- CPU seconds from the end of the imports (reported as
  ``setup.import_s`` in the traced run) to the first timed unit,
  including the workload's warm-up; median of the set-ups;
* ``throughput_per_s`` -- completed units per CPU second, the median
  over consecutive slices of the run (an episode, a request round, or
  50 training steps);
* ``latency_ms_p50`` -- median CPU time one unit takes (for a request:
  the process CPU time that passes while it is in flight);
* ``peak_rss_mb`` -- the process's maximum resident set size.

Times are taken on the process CPU clock (``workloads.cpu_clock``): the
load is one CPU-bound process, so on a dedicated core they equal wall
times, while on a shared host they leave out the time other tenants
hold the core.  Other tenants also slow the core itself, by up to 2x
for minutes at a time, so the three timings are reported on a reference
core: each run times a fixed kernel that runs no program code
(``workloads.reference_kernel``) between slices and scales its times by
``REFERENCE_KERNEL_S / median kernel time``.  The unscaled figures and
the scale go to stderr; the traced run reports the kernel time as
``host.kernel_ms``.

Every correctness check that fails is printed to stderr, makes the
result ``"correct": false`` and the exit code 1.  The last line of
stdout is always the result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

#: Set-ups per run; ``setup_s`` reports their median so a first-call
#: stall does not decide the figure.
SETUP_REPEATS = 5

WORKLOAD_NAMES = ("eval-drive", "reset-paper", "train-online", "serve-fleet")


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(setup_s: float, phase, scale: float) -> dict:
    """The user-facing figures, in CPU time on the reference core.

    ``setup_s`` comes already scaled; ``scale`` applies to the phase.
    """
    return {
        "setup_s": metric(setup_s, "s"),
        "throughput_per_s": metric(statistics.median(phase.rates) / scale,
                                   "1/s"),
        "latency_ms_p50": metric(
            statistics.median(phase.latencies_s) * 1e3 * scale, "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(tracer, phase, traced, probes_before, probes_after,
                      import_s: float, kernel_s: float,
                      waits_ms: list[float]) -> dict:
    metrics = {}
    for layer, entry in tracer.layer_stats().items():
        metrics[f"{layer}.calls"] = metric(entry.calls, "count")
        metrics[f"{layer}.self_ms"] = metric(entry.self_ns / 1e6, "ms")
        metrics[f"{layer}.us_per_call"] = metric(
            entry.outer_ns / 1e3 / entry.calls if entry.calls else 0.0, "us")

    def delta(key: str) -> float:
        return probes_after.get(key, 0) - probes_before.get(key, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    counters = tracer.counters
    metrics["perception.phantom_cache.hit_ratio"] = metric(
        ratio(delta("phantom.hits"),
              delta("phantom.hits") + delta("phantom.misses")), "ratio")
    metrics["faults.guard.degraded_ratio"] = metric(
        ratio(delta("guard.degraded_frames"), delta("guard.frames")), "ratio")
    metrics["decision.learn.update_ratio"] = metric(
        ratio(counters.get("decision.learn.updates", 0),
              counters.get("decision.learn.attempts", 0)), "ratio")
    metrics["serve.batch_size_mean"] = metric(
        ratio(counters.get("serve.requests", 0),
              counters.get("serve.batches", 0)), "count")
    metrics["serve.wait_ms_p50"] = metric(
        statistics.median(waits_ms) if waits_ms else 0.0, "ms")
    latencies = phase.latencies_s
    metrics["run.latency_ms_p99"] = metric(
        (statistics.quantiles(latencies, n=100)[98] if len(latencies) > 1
         else latencies[0]) * 1e3, "ms")
    metrics["run.failed_share"] = metric(
        ratio(phase.failed, phase.attempted), "ratio")
    metrics["run.unattributed_ms"] = metric(
        (traced.wall_s * 1e9 - tracer.root_ns()) / 1e6, "ms")
    # Both phases in reference-core time, as the end-to-end figures are.
    metrics["run.trace_overhead_pct"] = metric(
        (traced.cpu_s / statistics.median(traced.kernel_s)
         / (phase.cpu_s / statistics.median(phase.kernel_s)) - 1.0) * 100.0,
        "%")
    metrics["run.traced_units"] = metric(traced.units, "count")
    metrics["setup.import_s"] = metric(import_s, "s")
    metrics["host.kernel_ms"] = metric(kernel_s * 1e3, "ms")
    return metrics


def probes(state) -> dict:
    """Program-side counters read before and after the traced phase."""
    import repro.perception.phantom as phantom

    values = {}
    cache = getattr(phantom, "PHANTOM_CACHE", None)
    if cache is not None:
        stats = cache.stats()
        values["phantom.hits"] = stats["hits"]
        values["phantom.misses"] = stats["misses"]
    guard = getattr(state.head, "guard", None)
    if guard is not None:
        values["guard.frames"] = guard.stats.frames
        values["guard.degraded_frames"] = guard.stats.degraded_frames
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2

    # The load is this one process: BLAS must not add threads of its own
    # on a small shared host, where they only add scheduling noise.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(SOURCE))
    began = time.process_time()
    import workloads                         # imports repro and its layers
    import_s = time.process_time() - began
    import repro
    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        print(f"perfbench: repro imported from {repro.__file__}, "
              f"not {SOURCE}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    failures: list[str] = []
    setup_times, warm, kernel_samples = [], [], []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        workloads.clear_process_caches()
        workloads.calibrate(kernel_samples)
        started = workloads.cpu_clock()
        state = workload.setup()
        setup_times.append(workloads.cpu_clock() - started)
        warm.append(state.warm_digest)
    if len(set(warm)) != 1 or not warm[0]:
        failures.append(f"{args.workload}: warm-up digests differ across "
                        f"set-ups: {[digest[:12] for digest in warm]}")

    phase = workload.run(state, seconds=args.seconds)
    failures += phase.failures
    failures += workload.verify(state, phase)
    if not phase.rates:
        failures.append(f"{args.workload}: no unit completed")
    # Set-up and the timed phase are scaled by the kernel times sampled
    # around each of them, since the host can change speed in between.
    setup_scale = workloads.REFERENCE_KERNEL_S / statistics.median(kernel_samples)
    kernel_s = statistics.median(phase.kernel_s)
    scale = workloads.REFERENCE_KERNEL_S / kernel_s
    if phase.rates:
        print(f"perfbench: reference kernel {kernel_s * 1e3:.4f} ms, scale "
              f"{scale:.4f} (set-up {setup_scale:.4f}); unscaled: setup "
              f"{statistics.median(setup_times):.4f} s, throughput "
              f"{statistics.median(phase.rates):.4f}/s, latency p50 "
              f"{statistics.median(phase.latencies_s) * 1e3:.4f} ms",
              file=sys.stderr)

    if args.trace:
        from layers import LAYERS
        from spans import Tracer

        state = None
        gc.collect()
        workloads.clear_process_caches()
        state = workload.setup()
        tracer = Tracer(LAYERS,
                        run_id=f"{args.workload}-seed{args.seed}-traced")
        before = probes(state)
        with tracer:
            traced = workload.run(state, blocks=phase.blocks, tracer=tracer)
        after = probes(state)
        failures += traced.failures
        if tracer.missing:
            print(f"perfbench: untimed targets: {tracer.missing}",
                  file=sys.stderr)
        if not phase.digests or traced.digests != phase.digests:
            failures.append(f"{args.workload}: traced digest differs from "
                            f"untraced ({len(traced.digests)} vs "
                            f"{len(phase.digests)} units)")
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer_metrics(tracer, phase, traced, before, after,
                                    import_s, kernel_s,
                                    state.extra.get("waits_ms", []))
    elif phase.rates:
        metrics = end_to_end_metrics(
            statistics.median(setup_times) * setup_scale, phase, scale)
    else:
        metrics = {}

    for failure in dict.fromkeys(failures):
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures,
                      "attempted": max(phase.attempted, 1),
                      "failed": phase.failed,
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

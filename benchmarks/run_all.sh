#!/bin/bash
# Final deliverable runs (artifacts must be cached first).
#
#   bash benchmarks/run_all.sh          tier-1 tests, then every benchmark
#   bash benchmarks/run_all.sh --perf   only the micro-ledgers: rewrites
#                                       BENCH_{sim,fleet,nn,serve,train}.json
set -euo pipefail
set -x
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
if [[ "${1:-}" == "--perf" ]]; then
    python -m pytest -q -s benchmarks/test_perf_sim.py benchmarks/test_perf_fleet.py \
        benchmarks/test_perf_nn.py benchmarks/test_perf_serve.py \
        benchmarks/test_perf_train.py
    exit
fi
python -m pytest tests/ 2>&1 | tee test_output.txt
python -m pytest benchmarks/ --benchmark-only -s 2>&1 | tee bench_output.txt

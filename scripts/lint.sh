#!/usr/bin/env bash
# Run reprolint exactly the way the CI gate does: per-file and
# whole-program rules over the default paths (or the files/directories
# given as arguments); exits 1 on any finding.  See
# docs/static_analysis.md for the rule catalogue and suppression
# syntax.
set -euo pipefail

cd "$(dirname "$0")/.."

PYTHONPATH=src exec python -m repro.cli lint "$@"

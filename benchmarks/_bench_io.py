"""Shared helpers for the ``BENCH_*.json`` microbenchmark artifacts.

Every perf benchmark in this suite reports through :func:`write_bench`
so the artifacts land in one place (the repo root) with one naming
scheme, and measures through :func:`best_of` / :func:`interleaved_best`
so the methodology is uniform:

- **best-of-N**, not mean-of-N: the minimum over repeats estimates the
  noise-free cost on shared hardware, where the mean is polluted by
  scheduler spikes that have nothing to do with the code under test;
- **interleaved** A/B runs: alternating the contenders inside each
  repeat exposes both to the same slow phases of the machine, so a
  background load burst cannot systematically favor one side.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent

__all__ = ["REPO_ROOT", "bench_path", "write_bench", "best_of",
           "interleaved_best", "git_sha", "git_dirty", "config_hash"]


def bench_path(name: str) -> Path:
    """Repo-root path of the ``BENCH_<name>.json`` artifact."""
    return REPO_ROOT / f"BENCH_{name}.json"


def _git(root: Path, *args: str) -> str | None:
    """``git <args>`` stdout in ``root``, or ``None`` outside a usable checkout."""
    try:
        result = subprocess.run(["git", *args], cwd=root, capture_output=True,
                                text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout if result.returncode == 0 else None


def git_sha(root: Path = REPO_ROOT) -> str | None:
    """The checked-out commit, or ``None`` outside a usable git checkout."""
    sha = (_git(root, "rev-parse", "HEAD") or "").strip()
    return sha or None


def git_dirty(root: Path = REPO_ROOT) -> bool | None:
    """Whether tracked files differ from the checked-out commit.

    ``None`` outside a usable git checkout.  Untracked files do not
    count: they cannot change what the tracked code measures.
    """
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return None if status is None else bool(status.strip())


def config_hash(config: dict | None) -> str | None:
    """Short stable digest of the benchmark's workload configuration.

    Hashes the canonical (sorted-keys) JSON encoding, so two artifacts
    are comparable iff their hashes match regardless of dict ordering.
    ``None`` config -> ``None`` (a benchmark without a declared
    workload is explicitly unstamped, not hashed-as-empty).
    """
    if config is None:
        return None
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def write_bench(name: str, payload: dict, config: dict | None = None) -> Path:
    """Write a benchmark result artifact and return its path.

    Every artifact is stamped with provenance: the git commit it was
    produced at (``git_sha``, null outside a checkout), whether tracked
    files differed from that commit (``git_dirty``, null outside a
    checkout) and a digest of the workload configuration
    (``config_hash``, null when the caller declares none) -- so a
    ``BENCH_*.json`` number can always be traced to the exact code and
    workload that produced it, and a number measured on an uncommitted
    tree cannot pass for the commit's.
    """
    path = bench_path(name)
    stamped = dict(payload)
    stamped.setdefault("provenance", {})
    stamped["provenance"] = {"git_sha": git_sha(), "git_dirty": git_dirty(),
                             "config_hash": config_hash(config),
                             **stamped["provenance"]}
    path.write_text(json.dumps(stamped, indent=2) + "\n")
    return path


def best_of(fn: Callable[[], object], repeats: int, inner: int = 1) -> float:
    """Best-of-``repeats`` seconds per call of ``fn`` (``inner`` calls/rep)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def interleaved_best(fns: dict[str, Callable[[], object]], repeats: int,
                     inner: int = 1,
                     samples: dict[str, list[float]] | None = None,
                     seconds_of: Callable[[object], float] | None = None,
                     ) -> dict[str, float]:
    """Best-of-``repeats`` per-call seconds for each contender.

    All contenders run inside every repeat, back to back, so machine
    noise hits them symmetrically.  ``samples``, when given, receives
    every repeat's per-call seconds under the contender's name, so a
    ledger can report the spread next to the best.  ``seconds_of`` maps
    a contender's return value to the seconds to count (a run that
    times its own loop, leaving out set-up; with ``inner=1``); by
    default the whole call is timed.
    """
    best = {name: float("inf") for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            start = time.perf_counter()
            for _ in range(inner):
                result = fn()
            seconds = ((time.perf_counter() - start) / inner
                       if seconds_of is None else seconds_of(result))
            best[name] = min(best[name], seconds)
            if samples is not None:
                samples.setdefault(name, []).append(seconds)
    return best

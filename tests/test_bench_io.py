"""Provenance stamps of the ``BENCH_*.json`` writer (``benchmarks/_bench_io.py``)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def bench_io():
    spec = importlib.util.spec_from_file_location("_bench_io", BENCH_DIR / "_bench_io.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["_bench_io"] = module
    spec.loader.exec_module(module)
    return module


def git(root: Path, *args: str) -> None:
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                    *args], cwd=root, check=True, capture_output=True)


def test_an_edited_tracked_file_marks_the_tree_dirty(bench_io, tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / "code.py").write_text("x = 1\n")
    git(tmp_path, "add", "code.py")
    git(tmp_path, "commit", "-q", "-m", "first")
    (tmp_path / "notes.txt").write_text("untracked\n")
    assert bench_io.git_dirty(tmp_path) is False
    assert len(bench_io.git_sha(tmp_path)) == 40

    (tmp_path / "code.py").write_text("x = 2\n")
    assert bench_io.git_dirty(tmp_path) is True


def test_outside_a_checkout_both_stamps_are_null(bench_io, tmp_path):
    assert bench_io.git_dirty(tmp_path) is None
    assert bench_io.git_sha(tmp_path) is None

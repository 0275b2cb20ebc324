"""The acceptance gate: the repository's own tree lints clean.

This is the same check CI runs (``python -m repro.cli lint`` over the
default paths); keeping it in the tier-1 suite means a rule violation
-- per-file *or* whole-program -- fails locally before it ever reaches
CI.
"""

from pathlib import Path

from repro.analysis.driver import lint_project

REPO = Path(__file__).resolve().parents[2]

PROJECT_PATHS = [REPO / name
                 for name in ("src", "tests", "examples", "scripts",
                              "benchmarks")
                 if (REPO / name).is_dir()]


def test_whole_project_lints_clean_under_v2():
    report = lint_project(PROJECT_PATHS)
    assert report.findings == [], "\n".join(
        finding.render() for finding in report.findings)
    assert report.files_total > 100  # the walk really covered the tree

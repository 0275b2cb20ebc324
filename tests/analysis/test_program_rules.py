"""Whole-program rule packs against the marker-tagged fixture corpus.

Each file under ``fixtures/program/`` tags expected findings with
trailing ``# expect: <rule-id>`` comments; the corpus is linted *as one
program* (that is the point -- the multi-file taint case needs the
helper, consumer, and sink files resolved together) and findings are
asserted per file as exact (line, rule) multisets.
"""

import re
from pathlib import Path

import pytest

from repro.analysis.driver import lint_project
from repro.analysis.linting import lint_source
from repro.analysis.program import (PROGRAM_RULES, build_program,
                                    lint_program, program_rule, ProgramRule)

CORPUS = Path(__file__).parent / "fixtures" / "program"

_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<rules>[a-z-][\w,\s-]*)")


def corpus_files() -> list[Path]:
    return sorted(CORPUS.glob("*.py"))


def expected_findings(path: Path) -> list[tuple[int, str]]:
    expected = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match:
            for rule_id in match.group("rules").split(","):
                expected.append((lineno, rule_id.strip()))
    return sorted(expected)


@pytest.fixture(scope="module")
def corpus_findings() -> dict[str, list[tuple[int, str]]]:
    findings = lint_program(build_program(corpus_files()))
    by_file: dict[str, list[tuple[int, str]]] = {
        path.name: [] for path in corpus_files()}
    for finding in findings:
        by_file[Path(finding.path).name].append((finding.line, finding.rule))
    return {name: sorted(rows) for name, rows in by_file.items()}


@pytest.mark.parametrize("name", [path.name for path in corpus_files()
                                  if "clean" not in path.name
                                  and "expect" in path.read_text()])
def test_fixture_findings_match_markers(name, corpus_findings):
    expected = expected_findings(CORPUS / name)
    assert expected, f"fixture {name} has no # expect: markers"
    assert corpus_findings[name] == expected


@pytest.mark.parametrize("name", ["prog_clean.py", "prog_taint_helper.py",
                                  "prog_taint_sink.py"])
def test_clean_fixtures_have_no_findings(name, corpus_findings):
    assert corpus_findings[name] == []


def test_multi_file_taint_needs_the_whole_program():
    # Linted alone, the consumer cannot see that make_stream returns a
    # raw generator -- the finding only exists at program scope.
    alone = lint_program(build_program([CORPUS / "prog_taint_consumer.py"]))
    assert alone == []
    together = lint_program(build_program(
        [CORPUS / "prog_taint_consumer.py", CORPUS / "prog_taint_helper.py",
         CORPUS / "prog_taint_sink.py"]))
    assert sorted((f.line, f.rule) for f in together) == [
        (9, "rng-taint"), (13, "rng-taint")]


def test_program_rule_registry_is_complete():
    assert set(PROGRAM_RULES) == {
        "blocking-call-in-async", "lock-held-across-await",
        "coroutine-shared-mutable-global", "nondeterministic-iteration",
        "rng-taint", "cross-process-rng", "quadratic-neighbor-scan",
    }
    for rule_id, rule in PROGRAM_RULES.items():
        assert rule.id == rule_id
        assert rule.summary


def test_program_rule_decorator_rejects_bad_ids():
    with pytest.raises(ValueError):
        @program_rule
        class NoId(ProgramRule):
            id = ""

    with pytest.raises(ValueError):
        @program_rule
        class Duplicate(ProgramRule):
            id = "rng-taint"


def test_suppressions_cover_program_findings(tmp_path):
    source = (
        "import time\n"
        "async def f():\n"
        "    time.sleep(1)  # reprolint: disable=blocking-call-in-async\n")
    path = tmp_path / "m.py"
    path.write_text(source)
    assert lint_program(build_program([path])) == []
    # The per-file pass must also recognize the program rule id instead
    # of flagging the suppression comment as naming an unknown rule.
    assert [f.rule for f in lint_source(source)] == []


def test_directory_walk_excludes_tests_and_fixtures():
    program = build_program([Path(__file__).resolve().parents[2] / "tests"])
    assert program.files == []


@pytest.mark.parametrize("ancestor", ["neutral", "benchmarks", "fixtures"])
def test_directory_walk_ignores_directories_above_the_walked_path(tmp_path, ancestor):
    """Only the directories a walk goes through exclude a file, not the
    ones above the path it was given."""
    walked = tmp_path / ancestor / "demo" / "examples"
    walked.mkdir(parents=True)
    source = CORPUS / "prog_blocking_async.py"
    (walked / source.name).write_text(source.read_text())
    expected = [f for f in lint_program(build_program([source]))
                if f.rule == "blocking-call-in-async"]
    report = lint_project([walked])
    assert report.files_total == 1
    assert expected and len([f for f in report.findings
                             if f.rule == "blocking-call-in-async"]) == len(expected)


def test_blocking_message_names_the_async_entry():
    findings = lint_program(build_program([CORPUS / "prog_blocking_async.py"]))
    transitive = [f for f in findings if f.line == 20]
    assert len(transitive) == 1
    assert "sync function reachable from coroutine context" in transitive[0].message
    assert "sync_helper" in transitive[0].message

"""reprolint framework + rule tests against the fixture corpus.

Fixture files under ``fixtures/`` tag expected findings with trailing
``# expect: <rule-id>[,<rule-id>...]`` comments; each test asserts the
exact (line, rule) multiset.  Fixtures that cannot carry markers
(syntax errors, lines already holding a reprolint directive) have their
expectations hand-coded below.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    RULES, Rule, iter_python_files, lint_file, lint_paths, lint_source, rule,
)
from repro.analysis.driver import lint_project

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]

_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<rules>[a-z-][\w,\s-]*)")

MARKER_FIXTURES = [
    "bad_unseeded_rng.py",
    "bad_rng_fallback.py",
    "bad_float_eq.py",
    "bad_mutable_default.py",
    "bad_bare_except.py",
    "bad_missing_no_grad.py",
    "bad_tape_contract.py",
    "bad_unsupervised_task.py",
    "suppressed.py",
]


def expected_findings(path: Path) -> list[tuple[int, str]]:
    expected = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match:
            for rule_id in match.group("rules").split(","):
                expected.append((lineno, rule_id.strip()))
    return sorted(expected)


def actual_findings(path: Path) -> list[tuple[int, str]]:
    return sorted((finding.line, finding.rule) for finding in lint_file(path))


@pytest.mark.parametrize("name", MARKER_FIXTURES)
def test_fixture_findings_match_markers(name):
    path = FIXTURES / name
    expected = expected_findings(path)
    assert expected, f"fixture {name} has no # expect: markers"
    assert actual_findings(path) == expected


def test_syntax_error_fixture():
    findings = lint_file(FIXTURES / "syntax_error.py")
    assert [finding.rule for finding in findings] == ["syntax-error"]
    assert findings[0].line == 3


def test_malformed_suppressions_are_findings():
    path = FIXTURES / "malformed_suppression.py"
    assert actual_findings(path) == [
        (9, "bad-suppression"),   # unknown verb
        (10, "bad-suppression"),  # missing rule list
        (11, "bad-suppression"),  # unknown rule
        (12, "bad-suppression"),  # unknown rule alongside a valid one ...
    ]
    # ... but the valid half of line 12 still suppresses unseeded-rng.
    assert ("unseeded-rng" not in
            {finding.rule for finding in lint_file(path)})


def test_good_fixture_is_clean():
    assert actual_findings(FIXTURES / "good_clean.py") == []


def test_docstring_mention_is_not_a_directive():
    # good_clean.py's docstring spells out the literal directive syntax;
    # only real COMMENT tokens may parse as suppressions.
    source = FIXTURES.joinpath("good_clean.py").read_text()
    assert "# reprolint: disable=" in source  # the mention is really there
    assert all(finding.rule != "bad-suppression"
               for finding in lint_file(FIXTURES / "good_clean.py"))


def test_directory_walk_skips_fixtures():
    walked = list(iter_python_files([FIXTURES.parent]))
    assert all("fixtures" not in path.parts for path in walked)
    assert any(path.name == "test_reprolint.py" for path in walked)


def test_explicit_file_paths_bypass_exclusion():
    target = FIXTURES / "bad_bare_except.py"
    assert [path for path in iter_python_files([target])] == [target]


def test_lint_paths_deduplicates():
    target = FIXTURES / "bad_bare_except.py"
    findings = lint_paths([target, target])
    assert [finding.rule for finding in findings] == ["bare-except"]


def test_finding_render_format():
    finding = lint_file(FIXTURES / "bad_bare_except.py")[0]
    assert finding.render() == (
        f"{FIXTURES / 'bad_bare_except.py'}:7:4: [bare-except] "
        "bare except catches KeyboardInterrupt and SystemExit; "
        "name the exception type (or use `except Exception`)")


def test_rule_registry_is_complete():
    assert set(RULES) == {
        "unseeded-rng", "rng-fallback", "naked-float-eq", "mutable-default",
        "bare-except", "missing-no-grad", "tape-op-contract",
        "unsupervised-task",
    }
    for rule_id, lint_rule in RULES.items():
        assert lint_rule.id == rule_id
        assert lint_rule.summary


def test_rule_decorator_rejects_bad_ids():
    with pytest.raises(ValueError):
        @rule
        class NoId(Rule):
            id = ""

    with pytest.raises(ValueError):
        @rule
        class BadCase(Rule):
            id = "Not-Kebab"

    with pytest.raises(ValueError):
        @rule
        class Duplicate(Rule):
            id = "bare-except"


def test_lint_source_rule_subset():
    source = "def f(x=[]):\n    return x == 0.1\n"
    only_defaults = lint_source(source, rules=[RULES["mutable-default"]])
    assert [finding.rule for finding in only_defaults] == ["mutable-default"]


def _run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", *argv],
        capture_output=True, text=True, env=env, cwd=REPO)


def test_cli_exit_codes():
    bad = _run_cli(str(FIXTURES / "bad_bare_except.py"))
    assert bad.returncode == 1  # any finding fails the run
    assert "[bare-except]" in bad.stdout
    assert _run_cli(str(FIXTURES / "good_clean.py")).returncode == 0


def test_cli_list_rules():
    result = _run_cli("--list-rules")
    assert result.returncode == 0
    for rule_id in RULES:
        assert rule_id in result.stdout


def test_lint_project_parses_each_file_once(tmp_path, monkeypatch):
    # One read, one parse and one suppression scan per file feed both
    # passes: the program pass reuses the per-file trees.
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("def f():\n    return 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("def test_f():\n    pass\n")
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(Path(filename).name)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    report = lint_project([tmp_path])
    assert report.findings == []
    assert report.files_total == 2
    assert sorted(parsed) == ["mod.py", "test_mod.py"]

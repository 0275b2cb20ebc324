"""The lint driver: one walk, one parse per file, both passes.

:func:`lint_project` is the one entry point the CLI and the repo-clean
test use.  It walks the paths once (:func:`iter_program_files`, which
also decides program eligibility), reads, parses and scans the
suppressions of each file once into a
:class:`~repro.analysis.linting.LintContext`, runs the per-file rules on
it, and builds the whole-program call graph
(:mod:`repro.analysis.program`) from those same contexts for the
eligible files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .linting import Finding, LintContext, lint_context, parse_file
from .program import iter_program_files, lint_program, program_from

__all__ = ["LintReport", "lint_project"]


@dataclass
class LintReport:
    """Findings of both passes, sorted, plus the number of files linted."""

    findings: list[Finding]
    files_total: int


def lint_project(paths: Iterable[str | Path]) -> LintReport:
    """Lint ``paths`` with the per-file and the whole-program pass."""
    findings: list[Finding] = []
    program_files: list[LintContext] = []
    files_total = 0
    for path, eligible in iter_program_files(paths):
        files_total += 1
        ctx = parse_file(path)
        findings.extend(lint_context(ctx))
        if eligible and isinstance(ctx, LintContext):
            program_files.append(ctx)
    findings.extend(lint_program(program_from(program_files)))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintReport(findings=findings, files_total=files_total)

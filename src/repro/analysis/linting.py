"""reprolint: a tiny AST lint framework with repo-specific rules.

The framework is deliberately small: a rule registry, per-file parsing,
and comment-based suppressions.  Rules live in
:mod:`repro.analysis.rules`; each one encodes an invariant of *this*
codebase (seeded RNG streams, tape hygiene, ``no_grad`` discipline)
rather than generic style.

Suppression syntax (checked -- malformed comments are themselves
findings):

* ``code  # reprolint: disable=rule-a,rule-b`` silences the named rules
  on that line;
* ``# reprolint: disable-file=rule-a`` anywhere in a file silences the
  named rules for the whole file.

Directory walks skip ``fixtures`` directories and ``__pycache__``: the
lint test corpus under ``tests/analysis/fixtures`` is deliberately
broken and is linted by passing the files explicitly.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = ["Finding", "LintContext", "Rule", "RULES", "EXTRA_RULE_IDS",
           "rule", "iter_python_files", "walk_python_files", "parse_source",
           "parse_file", "lint_context", "lint_file", "lint_paths", "lint_source"]

#: Directory names skipped by recursive walks (not by explicit paths).
EXCLUDED_DIRS = frozenset({"fixtures", "__pycache__", ".git"})

#: Rule ids registered outside the per-file registry (the whole-program
#: pass in :mod:`repro.analysis.program` adds its ids here) so that
#: suppression comments naming them are not flagged as unknown.
EXTRA_RULE_IDS: set[str] = set()

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*(?P<verb>[\w-]+)\s*(?:=\s*(?P<rules>[\w,\s-]*))?")
_RULE_ID_RE = re.compile(r"^[a-z][a-z0-9]*(-[a-z0-9]+)*$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclass
class _Suppressions:
    """Parsed suppression comments for one file."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    whole_file: set[str] = field(default_factory=set)
    malformed: list[tuple[int, str]] = field(default_factory=list)

    def covers(self, finding: Finding) -> bool:
        if finding.rule in self.whole_file:
            return True
        return finding.rule in self.by_line.get(finding.line, ())


class LintContext:
    """Everything a rule needs to inspect one file.

    Built once per file and shared by the per-file rules and the
    whole-program pass: the tree, the suppression comments and the
    parent map are each computed once.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.suppressions = _parse_suppressions(source,
                                                set(RULES) | EXTRA_RULE_IDS)
        self._parents: dict[ast.AST, ast.AST] | None = None

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        return Finding(rule_id, self.path, getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0), message)

    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child -> parent map over the whole tree (built lazily once)."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        parents = self.parents()
        while node in parents:
            node = parents[node]
            yield node


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id` (kebab-case, stable -- it is the public
    suppression handle) and :attr:`summary`, and implement :meth:`run`
    yielding :class:`Finding` objects.  Register with the :func:`rule`
    decorator.
    """

    id: str = ""
    summary: str = ""

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        raise NotImplementedError


#: Registry of rule id -> rule instance, in registration order.
RULES: dict[str, Rule] = {}


def rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator registering a :class:`Rule` subclass."""
    if not cls.id or not _RULE_ID_RE.match(cls.id):
        raise ValueError(f"rule class {cls.__name__} needs a kebab-case id")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    RULES[cls.id] = cls()
    return cls


def _iter_comments(source: str) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, text)`` for real comment tokens only.

    Tokenizing (rather than scanning raw lines) keeps ``reprolint:``
    examples inside strings and docstrings from being parsed as live
    suppressions.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return  # unparseable files are reported via syntax-error instead


def _parse_suppressions(source: str, known_rules: Iterable[str]) -> _Suppressions:
    known = set(known_rules)
    result = _Suppressions()
    for lineno, comment in _iter_comments(source):
        if "reprolint" not in comment:
            continue
        match = _SUPPRESS_RE.search(comment)
        if match is None:
            continue
        verb = match.group("verb")
        names = [name.strip() for name in (match.group("rules") or "").split(",")
                 if name.strip()]
        if verb not in ("disable", "disable-file"):
            result.malformed.append(
                (lineno, f"unknown reprolint directive {verb!r}"))
            continue
        if not names:
            result.malformed.append(
                (lineno, f"'{verb}' needs an explicit rule list "
                         f"(e.g. '# reprolint: {verb}=unseeded-rng')"))
            continue
        unknown = [name for name in names if name not in known]
        if unknown:
            result.malformed.append(
                (lineno, f"suppression names unknown rule(s): {', '.join(unknown)}"))
            names = [name for name in names if name in known]
        target = result.whole_file if verb == "disable-file" else \
            result.by_line.setdefault(lineno, set())
        target.update(names)
    return result


def parse_source(source: str, path: str = "<string>") -> LintContext | Finding:
    """Parse ``source`` into a :class:`LintContext`.

    A syntax error comes back as a single ``syntax-error`` finding so a
    broken file fails the lint run instead of being skipped silently.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return Finding("syntax-error", path, error.lineno or 1,
                       (error.offset or 1) - 1, f"file does not parse: {error.msg}")
    return LintContext(path, source, tree)


def parse_file(path: str | Path) -> LintContext | Finding:
    """Read and parse one file on disk (see :func:`parse_source`)."""
    return parse_source(Path(path).read_text(encoding="utf-8"), str(path))


def lint_context(ctx: LintContext | Finding,
                 rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Run the per-file rules on one parsed file; sorted by line.

    A ``syntax-error`` finding from :func:`parse_source` passes through
    as the file's only finding.
    """
    if isinstance(ctx, Finding):
        return [ctx]
    active = list(RULES.values()) if rules is None else list(rules)
    findings: list[Finding] = [
        Finding("bad-suppression", ctx.path, lineno, 0, message)
        for lineno, message in ctx.suppressions.malformed
    ]
    for lint_rule in active:
        for finding in lint_rule.run(ctx):
            if not ctx.suppressions.covers(finding):
                findings.append(finding)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def lint_source(source: str, path: str = "<string>",
                rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Lint python ``source``; returns surviving findings sorted by line."""
    return lint_context(parse_source(source, path), rules)


def lint_file(path: str | Path, rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Lint one file on disk."""
    return lint_context(parse_file(path), rules)


def walk_python_files(paths: Iterable[str | Path]
                      ) -> Iterator[tuple[Path, frozenset[str]]]:
    """Expand files/directories into python files, each once, with the
    names of the directories it was walked through.

    Those names are the walked directory's own and the ones between it
    and the file (none for a file named explicitly); the directories
    above a walked path never count.  Explicit file arguments are always
    yielded (that is how the fixture corpus gets linted by its tests);
    directory walks skip :data:`EXCLUDED_DIRS` and are sorted for
    deterministic output.
    """
    seen: set[Path] = set()
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            candidates: list[tuple[Path, frozenset[str]]] = []
            for candidate in sorted(entry.rglob("*.py")):
                dirs = frozenset((entry.name, *candidate.relative_to(entry).parts[:-1]))
                if not EXCLUDED_DIRS.intersection(dirs):
                    candidates.append((candidate, dirs))
        elif entry.suffix == ".py":
            candidates = [(entry, frozenset())]
        else:
            candidates = []
        for candidate, dirs in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate, dirs


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """The python files :func:`walk_python_files` yields, without their directories."""
    for path, _ in walk_python_files(paths):
        yield path


def lint_paths(paths: Iterable[str | Path],
               rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Run the per-file rules on every python file reachable from ``paths``."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, rules))
    return findings


# Importing the rule catalogue registers every rule; done last so the
# decorator above is defined.  (Rules import nothing back from here at
# call time, only at module import.)  The program pass is imported for
# the same reason: registering its rule ids into EXTRA_RULE_IDS keeps
# suppression comments naming them from being flagged as unknown.
from . import rules as _rules  # noqa: E402  (registration side effect)
from . import program as _program  # noqa: E402  (registration side effect)

del _rules, _program

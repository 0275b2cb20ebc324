"""Static and runtime analysis enforcing the repo's correctness invariants.

Two halves:

* **reprolint**, an ``ast``-walking lint framework whose rules encode
  invariants no off-the-shelf linter knows about (seeded RNG streams,
  autograd-tape hygiene, ``no_grad`` around target networks).
  :mod:`~repro.analysis.linting` + :mod:`~repro.analysis.rules` hold the
  per-file rules, :mod:`~repro.analysis.program` +
  :mod:`~repro.analysis.callgraph` the whole-program rules, and
  :func:`repro.analysis.driver.lint_project` runs both over one parse
  of each file.  Run it with ``python -m repro.cli lint [paths]`` (or
  ``scripts/lint.sh``); it exits 1 on any finding.
* :mod:`repro.analysis.sanitize` -- an opt-in **runtime sanitizer** that
  instruments the autograd tape and the simulation engine with
  finiteness/dtype/shape checks.  Activate with ``REPRO_SANITIZE=1``;
  when the variable is unset nothing is patched and the hot paths run
  untouched.

See ``docs/static_analysis.md`` for the rule catalogue and the
suppression syntax.
"""

from .linting import (Finding, LintContext, Rule, RULES, iter_python_files,
                      lint_file, lint_paths, lint_source, rule)
from .sanitize import (SanitizerError, install, install_if_enabled,
                       is_active, uninstall)

__all__ = [
    "Finding", "LintContext", "Rule", "RULES", "iter_python_files",
    "lint_file", "lint_paths", "lint_source", "rule",
    "SanitizerError", "install", "install_if_enabled", "is_active",
    "uninstall",
]

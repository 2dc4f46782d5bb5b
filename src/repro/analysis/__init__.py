"""Static pipeline analysis: a rule-based linter over benchmark pipelines.

``repro.analysis`` machine-checks the invariants that keep the paper's
porting story trustworthy: no data races between concurrently-schedulable
stages (Section V-A overlap), no memory-space violations or stale mirrors
around the limited-copy port (Section III-D), and no drift between a
benchmark's declared Table II flags and what its pipeline structure
actually supports.  See docs/LINTING.md for the rule catalogue.
"""

from repro.analysis.diagnostics import (
    RULES,
    Diagnostic,
    LintReport,
    Rule,
    Severity,
)
from repro.analysis.happens import HappensBefore
from repro.analysis.linter import (
    LintError,
    assert_lint_clean,
    lint_benchmark,
    lint_pipeline,
    lint_pipeline_memoized,
    lint_registry,
    limited_copy_form,
)
from repro.analysis.memo import (
    LintMemo,
    default_memo,
    pipeline_content_hash,
    reset_default_memo,
)
from repro.analysis.report import (
    LINT_SCHEMA,
    render_json,
    render_text,
    report_to_dict,
)
from repro.analysis.spec_rules import DerivedFlags, derive_flags

__all__ = [
    "Diagnostic",
    "DerivedFlags",
    "HappensBefore",
    "LINT_SCHEMA",
    "LintError",
    "LintMemo",
    "LintReport",
    "RULES",
    "Rule",
    "Severity",
    "assert_lint_clean",
    "default_memo",
    "derive_flags",
    "lint_benchmark",
    "lint_pipeline",
    "lint_pipeline_memoized",
    "lint_registry",
    "limited_copy_form",
    "pipeline_content_hash",
    "render_json",
    "render_text",
    "report_to_dict",
    "reset_default_memo",
]

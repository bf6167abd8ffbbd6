"""Static analysis: spec/plan verification and repo determinism lints.

Two halves behind one report (CLI: ``repro analyze [--strict] [--json]``):

* the **spec/plan verifier** — schema/type inference over the relalg IR
  (:mod:`repro.analysis.inference`), cross-dialect consistency checks
  and plan lints for every registered spec
  (:mod:`repro.analysis.speccheck`), and the delta-lowerability
  diagnostics — the real lowering's own refusals, rule and operator
  path included (:mod:`repro.analysis.lowerability`);
* the **repo lint** — an AST pass banning wall-clock, global-RNG and
  set-ordering hazards in the deterministic core and blocking calls in
  serve coroutines (:mod:`repro.analysis.repolint`).

:func:`run_analysis` is the aggregate entry the CLI and
:mod:`repro.api` call; the rule catalogue lives in
:mod:`repro.analysis.diagnostics` and is documented in
``docs/analysis.md``.  Imports run one way: analysis → backends →
relalg; nothing below imports this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostics import RULES, Diagnostic
from repro.analysis.inference import (
    TABLE2_TYPES,
    Inference,
    TypedSchema,
    infer_plan,
)
from repro.analysis.lowerability import (
    LoweringPrediction,
    explain_refusal,
    predict_delta_lowerability,
    predict_plan_lowerability,
)
from repro.analysis.repolint import lint_repo, lint_source
from repro.analysis.speccheck import check_registry, check_spec
from repro.backends import backend_names, supported_backends
from repro.protocols.spec import SPEC_REGISTRY

__all__ = [
    "Diagnostic",
    "RULES",
    "TABLE2_TYPES",
    "Inference",
    "TypedSchema",
    "LoweringPrediction",
    "AnalysisReport",
    "infer_plan",
    "predict_plan_lowerability",
    "predict_delta_lowerability",
    "explain_refusal",
    "check_spec",
    "check_registry",
    "lint_repo",
    "lint_source",
    "run_analysis",
]


@dataclass(slots=True)
class AnalysisReport:
    """Every finding of one full analysis run, plus the support matrix."""

    findings: list[Diagnostic] = field(default_factory=list)
    #: spec -> backend -> the backend's ``supports()`` answer (spec half).
    matrix: dict[str, dict[str, bool]] = field(default_factory=dict)

    @property
    def errors(self) -> list[Diagnostic]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [f for f in self.findings if f.severity == "warning"]

    def ok(self, strict: bool = False) -> bool:
        if self.errors:
            return False
        return not (strict and self.warnings)

    def as_dict(self) -> dict:
        return {
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "findings": [f.as_dict() for f in self.findings],
            "matrix": self.matrix,
        }


def run_analysis(specs: bool = True, repo: bool = True) -> AnalysisReport:
    """Run the selected analysis halves and aggregate their findings.

    The spec half also records the spec × backend support matrix: what
    each live backend's ``supports()`` answers, which for
    ``compiled-delta`` is the trial lowering the D1xx rules describe.
    """
    report = AnalysisReport()
    if specs:
        import repro.protocols  # noqa: F401  (registers the specs)

        report.findings.extend(check_registry())
        for spec_name in sorted(SPEC_REGISTRY):
            supported = supported_backends(SPEC_REGISTRY[spec_name])
            report.matrix[spec_name] = {
                name: name in supported for name in backend_names()
            }
    if repo:
        report.findings.extend(lint_repo())
    return report

"""Structured diagnostics shared by every analysis pass.

A :class:`Diagnostic` is one finding: a stable rule id (catalogued in
:data:`RULES`), a severity, the subject it is about (a spec name, a
``spec/dialect`` pair, or a repo-relative file path), an optional
location (``file:line`` for repo lints, an operator path for plan
passes) and a human message.  The CLI renders findings grouped by rule
and the ``--json`` artifact serializes them verbatim, so rule ids — not
message text — are the stable interface (see ``docs/analysis.md``).

Severity semantics: ``error`` findings always fail ``repro analyze``;
``warning`` findings fail only under ``--strict``; ``info`` entries
(the D1xx lowerability refusal reasons) never fail — they *explain*
why the delta lowering refused a plan rather than flag a defect, and
surface inside refusal messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Diagnostic",
    "RULES",
    "ERROR",
    "WARNING",
    "INFO",
    "severity_of",
]

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: rule id -> (severity, one-line title).  The catalogue of record;
#: docs/analysis.md mirrors it and tests assert full rule coverage.
RULES: dict[str, tuple[str, str]] = {
    # -- spec/plan verifier (S0xx) ---------------------------------------
    "S001": (ERROR, "dialect projection differs from the Table 2 columns"),
    "S002": (ERROR, "datalog dialect does not derive qualified/5"),
    "S003": (ERROR, "operation literals inconsistent with the LockModel"),
    "S004": (ERROR, "schema error in a spec dialect"),
    "S005": (ERROR, "statically ill-typed expression in a spec dialect"),
    # -- delta lowerability (D1xx; info = refusal explanations) ----------
    "D101": (INFO, "LIMIT is order-dependent and has no delta lowering"),
    "D102": (INFO, "join shape has no delta lowering (keys/predicate)"),
    "D103": (INFO, "operator has no delta lowering"),
    "D104": (INFO, "unknown aggregate function"),
    "D105": (INFO, "set operation arity mismatch"),
    "D106": (INFO, "plan does not build/resolve against the Table 2 schema"),
    # -- plan lints (P2xx) -----------------------------------------------
    "P201": (WARNING, "declared CTE is never referenced"),
    "P202": (WARNING, "dead filter (constant or self-comparing predicate)"),
    "P203": (WARNING, "inner join has no equality key (nested loop)"),
    # -- repo determinism/concurrency lints (R3xx) -----------------------
    "R301": (ERROR, "wall-clock read in the deterministic core"),
    "R302": (ERROR, "global RNG use in the deterministic core"),
    "R303": (ERROR, "iteration over an unordered set in the deterministic core"),
    "R304": (ERROR, "blocking call inside a serve/ coroutine"),
    "R305": (WARNING, "module has no docstring"),
    "R306": (WARNING, "package __init__ re-exports without __all__"),
}


def severity_of(rule: str) -> str:
    return RULES[rule][0]


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One analysis finding, ready for rendering or JSON export."""

    rule: str
    subject: str
    message: str
    #: ``file:line`` for repo lints; an ``a > b > c`` operator path for
    #: plan/lowerability passes; empty when neither applies.
    location: str = ""
    severity: str = field(default="")

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown analysis rule id {self.rule!r}")
        if not self.severity:
            object.__setattr__(self, "severity", severity_of(self.rule))

    def render(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        return f"{self.rule} {self.subject}: {self.message}{where}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
            "location": self.location,
        }

"""Experiment harness: one module per paper table/figure + ablations.

Experiment ids (see DESIGN.md section 4):

=====  ==========================================================
E1     Table 1 — related-approach feature matrix
E2     Table 2 — request/history/rte schema
E3/E4  Figure 2 + Section 4.2.2 — native scheduler overhead sweep
E5     Section 4.3.2 — declarative scheduling overhead
E6     Section 4.4 — native-vs-declarative crossover
E7     trigger-policy ablation (Section 3.3's open question)
E8     declarative-language-backend ablation
E9     productivity: declarative vs imperative spec sizes
E10    SLA + adaptive consistency under load (Section 5)
E11    incremental view maintenance vs recomputation (RQ 4)
E12    external MPL admission control (EQMS premise, refs [20][21])
=====  ==========================================================

Each module exposes a ``run_*`` function returning a rendered report
string (and structured results); ``benchmarks/`` wires them into
pytest-benchmark.
"""

from repro.bench.table1 import run_table1
from repro.bench.table2 import run_table2
from repro.bench.figure2 import run_figure2, Figure2Point
from repro.bench.declarative_overhead import (
    run_declarative_overhead,
    OverheadPoint,
    paper_snapshot,
)
from repro.bench.crossover import run_crossover
from repro.bench.triggers_ablation import run_trigger_ablation
from repro.bench.language_ablation import run_language_ablation
from repro.bench.productivity import run_productivity
from repro.bench.sla_adaptive import run_sla_bench, run_adaptive_bench
from repro.bench.incremental_ablation import run_incremental_ablation, drive_steps
from repro.bench.mpl_ablation import run_mpl_ablation
from repro.bench.scheduler_step import (
    run_scheduler_step_bench,
    render_scheduler_step_report,
)
from repro.bench.matrix import run_backend_matrix

__all__ = [
    "run_table1",
    "run_table2",
    "run_figure2",
    "Figure2Point",
    "run_declarative_overhead",
    "OverheadPoint",
    "paper_snapshot",
    "run_crossover",
    "run_trigger_ablation",
    "run_language_ablation",
    "run_productivity",
    "run_sla_bench",
    "run_adaptive_bench",
    "run_incremental_ablation",
    "drive_steps",
    "run_mpl_ablation",
    "run_scheduler_step_bench",
    "render_scheduler_step_report",
    "run_backend_matrix",
]

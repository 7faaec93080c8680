"""One-command regeneration report: every paper artefact in one document.

``python -m repro report [path]`` runs the full experiment registry and
writes a markdown document with every regenerated table, per-experiment
wall time, and the environment header — the artefact to attach to a
reproduction claim.  ``quick=True`` selects a reduced-parameter subset
for smoke runs.
"""

from __future__ import annotations

import platform
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.reporting.experiments import EXPERIMENTS, ExperimentResult

#: Experiment order for the report (paper order).
REPORT_ORDER: Sequence[str] = (
    "fig1", "fig2_3", "fig4_6",
    "tables1_3",
    "table4", "table5", "table6", "table7",
    "table8", "table9", "table10", "table11",
    "blockarray", "advection_opt", "pointwise",
    "sp2",
)

#: Fast subset (seconds, not minutes) for smoke verification.
QUICK_ORDER: Sequence[str] = ("fig2_3", "fig4_6", "blockarray", "pointwise")


def generate_report(
    idents: Optional[Sequence[str]] = None,
    quick: bool = False,
) -> str:
    """Run the selected experiments and return the markdown report."""
    if idents is None:
        idents = QUICK_ORDER if quick else REPORT_ORDER
    unknown = [i for i in idents if i not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")

    lines: List[str] = [
        "# Regeneration report — Lou & Farrara (SC'96)",
        "",
        f"Python {platform.python_version()} on {platform.machine()} / "
        f"{platform.system()}.",
        "All timings in virtual seconds per simulated day unless a table "
        "says otherwise; see EXPERIMENTS.md for the paper-vs-measured "
        "discussion.",
        "",
    ]
    total_start = time.time()
    for ident in idents:
        start = time.time()
        result: ExperimentResult = EXPERIMENTS[ident]()
        elapsed = time.time() - start
        lines.append(f"## {ident} — {result.title}")
        lines.append("")
        lines.append("```")
        lines.append(result.render())
        lines.append("```")
        lines.append("")
        lines.append(f"_regenerated in {elapsed:.1f}s_")
        lines.append("")
    lines.append(
        f"_total regeneration time: {time.time() - total_start:.1f}s for "
        f"{len(idents)} experiments_"
    )
    lines.append("")
    return "\n".join(lines)


def write_report(
    path,
    idents: Optional[Sequence[str]] = None,
    quick: bool = False,
) -> Path:
    """Generate and write the report; returns the path."""
    text = generate_report(idents, quick=quick)
    path = Path(path)
    path.write_text(text)
    return path

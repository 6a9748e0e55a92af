"""Structured verification outcomes and their line-oriented file format.

A Report records one verifier run: what was checked, the cardinalities of
the two compared sides, and witness coordinates from the symmetric
difference; it passed exactly when there is no witness.  A ReportFile
bundles a sweep.  The persisted format is one JSON record per line: a header
echoing the configuration, one record per report, and a summary trailer.
Only the sweep as a whole is timed, and that total is kept in memory, so the
file bytes are reproducible across runs and worker counts for a fixed
configuration and tool version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .supports import Support

TOOL = "quiverdias"


@dataclass(frozen=True)
class Witness:
    """One disagreement: which comparison failed and where."""

    check: str
    where: tuple[int, ...]
    detail: str = ""


@dataclass
class Report:
    verifier: str
    params: dict
    left_size: int
    right_size: int
    witnesses: list[Witness]

    @property
    def passed(self) -> bool:
        return not self.witnesses


def compare_supports(check: str, left: Support, right: Support) -> list[Witness]:
    """Witnesses for the symmetric difference of two supports.

    Witnesses come in lexicographic order of their points.  A shape
    mismatch is reported as a single witness rather than raising, so
    verifiers always produce a report.
    """
    if left.shape != right.shape:
        return [Witness(check, (), f"shape mismatch: {left.shape} vs {right.shape}")]
    differ = left.mask ^ right.mask
    if not differ.any():
        return []
    return [
        Witness(check, tuple(p), "left only" if on_left else "right only")
        for p, on_left in zip((np.argwhere(differ) + 1).tolist(), left.mask[differ].tolist())
    ]


@dataclass
class ReportFile:
    tool: str
    version: str
    config: dict
    reports: list[Report]
    total: int
    passed: int
    failed: int
    total_elapsed_s: float

    @classmethod
    def from_reports(cls, config: dict, reports: list[Report], total_elapsed_s: float) -> "ReportFile":
        passed = sum(1 for r in reports if r.passed)
        return cls(
            tool=TOOL,
            version=__version__,
            config=dict(config),
            reports=list(reports),
            total=len(reports),
            passed=passed,
            failed=len(reports) - passed,
            total_elapsed_s=total_elapsed_s,
        )

    @property
    def all_passed(self) -> bool:
        return self.failed == 0


def report_record(report: Report) -> dict:
    return {
        "record": "report",
        "verifier": report.verifier,
        "params": report.params,
        "passed": report.passed,
        "left": report.left_size,
        "right": report.right_size,
        "witnesses": [
            {"check": w.check, "where": list(w.where), "detail": w.detail}
            for w in report.witnesses
        ],
    }


def render_report_file(rf: ReportFile) -> str:
    """The persisted line-delimited form; deterministic for a fixed config."""
    lines = [
        json.dumps(
            {"record": "header", "tool": rf.tool, "version": rf.version, "config": rf.config},
            sort_keys=True,
        )
    ]
    lines += [json.dumps(report_record(r), sort_keys=True) for r in rf.reports]
    lines.append(
        json.dumps(
            {"record": "summary", "total": rf.total, "passed": rf.passed, "failed": rf.failed},
            sort_keys=True,
        )
    )
    return "\n".join(lines) + "\n"


def write_report_file(rf: ReportFile, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(render_report_file(rf))
    return path


def read_report_file(path: str | Path) -> list[dict]:
    """Parse a report file back into its records (for tooling and tests)."""
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]

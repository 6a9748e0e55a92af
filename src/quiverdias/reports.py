"""Structured verification outcomes and their line-oriented file format.

A Report records one verifier run: what was checked, the cardinalities of
the two compared sides, and witness coordinates from the symmetric
difference; it passed exactly when there is no witness.  The persisted
format is one JSON record per line: a header echoing the configuration, one
record per report, and a summary trailer.  A sweep is written as its reports
arrive, and the file holds no timing, so its bytes are reproducible across
runs and worker counts for a fixed configuration and tool version.
"""

from __future__ import annotations

import io
import json
import os
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

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


def write_reports(config: dict, reports: Iterable[Report], out: TextIO) -> tuple[int, list[Report]]:
    """Write the header, a line per report as it arrives, and the summary
    tallied on the way; returns the report count and the failed reports."""

    def line(record: dict) -> None:
        out.write(json.dumps(record, sort_keys=True) + "\n")

    line({"record": "header", "tool": TOOL, "version": __version__, "config": config})
    total, failed = 0, []
    for report in reports:
        line(report_record(report))
        total += 1
        if not report.passed:
            failed.append(report)
    line({"record": "summary", "total": total, "passed": total - len(failed), "failed": len(failed)})
    return total, failed


def render_report_file(config: dict, reports: Iterable[Report]) -> str:
    """The persisted form as one string; deterministic for a fixed config."""
    out = io.StringIO()
    write_reports(config, reports, out)
    return out.getvalue()


def write_report_file(
    config: dict, reports: Iterable[Report], path: str | Path
) -> tuple[int, list[Report]]:
    """Stream the reports into ``<path>.part`` and rename it to path on
    success; on any failure remove it, so a crash leaves neither a half
    report nor a clobbered older one."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w") as out:
            result = write_reports(config, reports, out)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    os.replace(part, path)
    return result


def read_report_file(path: str | Path) -> list[dict]:
    """Parse a report file back into its records (for tooling and tests)."""
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]

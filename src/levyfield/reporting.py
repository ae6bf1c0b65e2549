"""CSV emission helpers, the common Monte Carlo summary record and its
mean / standard-error reduction."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# multiplier on propagated standard errors in statistical-slack bounds; the
# one threshold of every Monte Carlo gate
SLACK_SIGMAS = 4.0


def fmt(value) -> str:
    """Format a cell: floats at 17 significant digits (round-trip safe)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])


@dataclass
class EstimatorSummary:
    """Result of one ensemble estimator run.

    studentized = (estimate - target) / stderr by studentize (0 or inf for
    a zero standard error), left as None when there is no target.
    """

    name: str
    n: int
    estimate: float
    target: float | None = None
    stderr: float = 0.0
    studentized: float | None = None
    passed: bool | None = None

    HEADER = ["name", "n", "estimate", "target", "stderr", "studentized"]

    def csv_row(self):
        return [self.name, self.n, self.estimate, self.target,
                self.stderr, self.studentized]


def studentize(estimate: float, target: float, stderr: float) -> float:
    if stderr > 0.0:
        return (estimate - target) / stderr
    return 0.0 if estimate == target else float("inf")


def summarize(name: str, values,
              target: float | None = None) -> EstimatorSummary:
    """Mean / standard-error reduction of per-realization values.

    With a target, the studentized discrepancy is attached and the pass flag
    requires |studentized| <= SLACK_SIGMAS and a positive standard error:
    values with no spread (a single value, or all equal, as when no
    realization has an atom) carry no evidence, so they never pass.
    """
    values = np.asarray(values, dtype=float).ravel()
    n = values.size
    est = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    if target is None:
        return EstimatorSummary(name=name, n=n, estimate=est, stderr=se)
    stud = studentize(est, target, se)
    return EstimatorSummary(name=name, n=n, estimate=est, target=target,
                            stderr=se, studentized=stud,
                            passed=se > 0.0 and abs(stud) <= SLACK_SIGMAS)


def write_summaries(path, summaries) -> None:
    write_csv(path, EstimatorSummary.HEADER, [s.csv_row() for s in summaries])


@dataclass
class CheckRow:
    """One row of a pathwise-identity verification report."""

    check: str
    params: str
    lhs: float
    rhs: float
    residual_or_z: float
    passed: bool | None

    HEADER = ["check", "params", "lhs", "rhs", "residual_or_z", "pass"]

    def csv_row(self):
        return [self.check, self.params, self.lhs, self.rhs,
                self.residual_or_z, self.passed]


def write_check_rows(path, rows) -> None:
    write_csv(path, CheckRow.HEADER, [r.csv_row() for r in rows])

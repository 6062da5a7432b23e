"""Verdicts and their deterministic renderings.

A :class:`Verdict` is one claim's outcome: PASS/FAIL against the
claimed relation, or ERROR when the claim could not be evaluated at
all (a scenario failed to simulate, a metric path did not resolve).
``measured`` is the claim's scalar statistic, ``expected`` the claimed
relation, and ``margin`` the slack inside the bound (positive = safe,
negative = violated) -- so regressions show *how far* a claim moved,
not just that it flipped.

All three renderings are byte-deterministic: floats print through
``repr``-exact JSON or a fixed ``%.6g`` table format, and row order
follows the suite's claim order.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from repro.enums import Enum
from repro.experiments.report import format_table
from repro.records import record


class Status(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    ERROR = "ERROR"


@record
@dataclass(frozen=True)
class Verdict:
    """One claim's measured-vs-expected outcome."""

    claim: str
    status: Status
    #: The claim's scalar statistic (None when evaluation errored).
    measured: float | None
    #: Human-readable claimed relation, e.g. ``"hmean(ratio) >= 2"``.
    expected: str
    #: Slack inside the bound; positive means the claim holds with
    #: room, negative by how much it is violated.
    margin: float | None = None
    #: Worst-case context (offending scenario/pair) or error text.
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status is Status.PASS


@dataclass(frozen=True)
class SuiteReport:
    """Every verdict of one suite run, in claim order."""

    suite: str
    verdicts: tuple[Verdict, ...]
    #: ``(scenario name, fingerprint)`` in suite order.
    fingerprints: tuple[tuple[str, str], ...] = ()
    n_cells: int = 0
    cached: int = 0

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def counts(self) -> dict[str, int]:
        out = {status.value: 0 for status in Status}
        for verdict in self.verdicts:
            out[verdict.status.value] += 1
        return out

    def verdict(self, claim: str) -> Verdict:
        for verdict in self.verdicts:
            if verdict.claim == claim:
                return verdict
        raise KeyError(f"no verdict for claim {claim!r}")

    def summary(self) -> str:
        counts = self.counts
        return (f"{self.suite}: {len(self.verdicts)} claims: "
                f"{counts['PASS']} PASS, {counts['FAIL']} FAIL, "
                f"{counts['ERROR']} ERROR "
                f"({self.n_cells} cells, {self.cached} cached)")

    def scalars(self) -> dict:
        """Golden-snapshot image: status + statistic per claim."""
        out: dict = {}
        for verdict in self.verdicts:
            out[f"{verdict.claim}.status"] = verdict.status.value
            out[f"{verdict.claim}.measured"] = verdict.measured
        return out


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    return format(value, ".6g")


def render_text(report: SuiteReport) -> str:
    """The verdict table plus a one-line summary."""
    rows = [[v.claim, v.status.value, _fmt(v.measured), v.expected,
             _fmt(v.margin), v.detail]
            for v in report.verdicts]
    table = format_table(
        ["claim", "status", "measured", "expected", "margin",
         "detail"],
        rows, title=f"claims: {report.suite}")
    return f"{table}\n{report.summary()}"


def render_csv(report: SuiteReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["claim", "status", "measured", "expected",
                     "margin", "detail"])
    for v in report.verdicts:
        writer.writerow([
            v.claim, v.status.value,
            "" if v.measured is None else repr(v.measured),
            v.expected,
            "" if v.margin is None else repr(v.margin),
            v.detail])
    return out.getvalue()


def render_json(report: SuiteReport) -> str:
    """Byte-deterministic JSON: no wall-clock, no cache-hit counts."""
    payload = {
        "suite": report.suite,
        "counts": report.counts,
        "scenarios": {name: fingerprint
                      for name, fingerprint in report.fingerprints},
        "verdicts": [v.to_dict() for v in report.verdicts],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

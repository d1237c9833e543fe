"""Per-instance run statistics and their CSV form.

Counter columns are exact and deterministic for a fixed seed; the *_s
columns are wall-clock readings from the monotonic timer (microsecond
resolution, rounded to 6 decimals at construction so emitted and parsed
values compare equal) and are excluded from determinism comparisons.
"""

from __future__ import annotations

import csv
import io
import statistics
from dataclasses import dataclass

CSV_COLUMNS = (
    "strategy",
    "problem",
    "instance",
    "verdict",
    "cti_count",
    "obligations",
    "sat_calls",
    "sat_time_s",
    "copy_attempts",
    "copied",
    "copy_rate",
    "incr_prep_s",
    "total_s",
    "seed",
)

# columns aggregated by the benchmark harness
METRIC_COLUMNS = (
    "cti_count",
    "obligations",
    "sat_calls",
    "sat_time_s",
    "copy_attempts",
    "copied",
    "copy_rate",
    "incr_prep_s",
    "total_s",
)

@dataclass
class RunStats:
    """One engine run on one instance of a family."""

    instance_label: str
    verdict_kind: str  # "invariant" | "trace"
    cti_count: int = 0
    obligations_handled: int = 0
    sat_calls: int = 0
    sat_time: float = 0.0
    copy_attempts: int = 0
    copied_clauses: int = 0
    incr_prep_time: float = 0.0
    total_time: float = 0.0
    strategy: str = ""
    problem: str = ""
    seed: int = 0

    def __post_init__(self):
        self.sat_time = round(self.sat_time, 6)
        self.incr_prep_time = round(self.incr_prep_time, 6)
        self.total_time = round(self.total_time, 6)

    @property
    def copy_rate(self) -> float:
        return round(self.copied_clauses / max(self.copy_attempts, 1), 6)

    def as_record(self) -> dict:
        """Field values keyed by CSV column name, floats already rounded."""
        return {
            "strategy": self.strategy,
            "problem": self.problem,
            "instance": self.instance_label,
            "verdict": self.verdict_kind,
            "cti_count": self.cti_count,
            "obligations": self.obligations_handled,
            "sat_calls": self.sat_calls,
            "sat_time_s": self.sat_time,
            "copy_attempts": self.copy_attempts,
            "copied": self.copied_clauses,
            "copy_rate": self.copy_rate,
            "incr_prep_s": self.incr_prep_time,
            "total_s": self.total_time,
            "seed": self.seed,
        }


def _from_record(rec: dict) -> RunStats:
    return RunStats(
        instance_label=rec["instance"],
        verdict_kind=rec["verdict"],
        cti_count=int(rec["cti_count"]),
        obligations_handled=int(rec["obligations"]),
        sat_calls=int(rec["sat_calls"]),
        sat_time=float(rec["sat_time_s"]),
        copy_attempts=int(rec["copy_attempts"]),
        copied_clauses=int(rec["copied"]),
        incr_prep_time=float(rec["incr_prep_s"]),
        total_time=float(rec["total_s"]),
        strategy=rec["strategy"],
        problem=rec["problem"],
        seed=int(rec["seed"]),
    )


def emit_csv(rows: list[RunStats]) -> str:
    out = io.StringIO()
    w = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    w.writeheader()
    for r in rows:
        rec = r.as_record()
        for col in ("sat_time_s", "copy_rate", "incr_prep_s", "total_s"):
            rec[col] = f"{rec[col]:.6f}"
        w.writerow(rec)
    return out.getvalue()


def parse_csv(text: str) -> list[RunStats]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is not None and tuple(reader.fieldnames) != CSV_COLUMNS:
        raise ValueError(f"unexpected stats columns: {reader.fieldnames}")
    rows = []
    for rec in reader:
        if None in rec or None in rec.values():  # a field too many or too few
            raise ValueError(f"stats line {reader.line_num}: not the header's field count")
        rows.append(_from_record(rec))
    return rows


def aggregate(rows: list[RunStats]) -> list[dict]:
    """Mean and population stddev of every metric column, grouped by
    (problem, strategy, instance). Group order follows first appearance."""
    groups: dict[tuple[str, str, str], list[RunStats]] = {}
    for r in rows:
        groups.setdefault((r.problem, r.strategy, r.instance_label), []).append(r)
    out = []
    for (problem, strategy, instance), members in groups.items():
        rec: dict = {
            "problem": problem,
            "strategy": strategy,
            "instance": instance,
            "runs": len(members),
        }
        records = [m.as_record() for m in members]
        for col in METRIC_COLUMNS:
            vals = [float(rec2[col]) for rec2 in records]
            rec[f"{col}_mean"] = round(statistics.mean(vals), 6)
            rec[f"{col}_std"] = round(statistics.pstdev(vals), 6)
        out.append(rec)
    return out


def emit_aggregate_csv(records: list[dict]) -> str:
    cols = ["problem", "strategy", "instance", "runs"]
    for col in METRIC_COLUMNS:
        cols.extend((f"{col}_mean", f"{col}_std"))
    out = io.StringIO()
    w = csv.DictWriter(out, fieldnames=cols, lineterminator="\n")
    w.writeheader()
    for rec in records:
        row = dict(rec)
        for c in cols[4:]:
            row[c] = f"{row[c]:.6f}"
        w.writerow(row)
    return out.getvalue()

"""Per-instance run statistics and their CSV form.

Counter columns are exact and deterministic for a fixed seed; the *_s
columns are wall-clock readings from the monotonic timer (microsecond
resolution, rounded to 6 decimals at construction so emitted and parsed
values compare equal) and are excluded from determinism comparisons.

`COLUMNS` is the one schema: the CSV header, the metric columns the
benchmark harness aggregates, the record form, the parser and the float
format all derive from it. The engine's counters are declared once, as
`EngineCounters` fields, which `RunStats` extends: a new counter is one
field there, its increment in the engine and one row of `COLUMNS`.
"""

from __future__ import annotations

import csv
import io
import statistics
from dataclasses import dataclass, fields

# (CSV column, RunStats attribute, type), in CSV order; float columns are
# rounded at construction and written with 6 decimals
COLUMNS = (
    ("strategy", "strategy", str),
    ("problem", "problem", str),
    ("instance", "instance_label", str),
    ("verdict", "verdict_kind", str),
    ("cti_count", "cti_count", int),
    ("obligations", "obligations_handled", int),
    ("join_tries", "join_tries", int),
    ("join_wins", "join_wins", int),
    ("drop_tries", "drop_tries", int),
    ("drop_wins", "drop_wins", int),
    ("drop_starved", "drop_starved", int),
    ("push_tries", "push_tries", int),
    ("push_skips", "push_skips", int),
    ("sat_calls", "sat_calls", int),
    ("sat_time_s", "sat_time", float),
    ("copy_attempts", "copy_attempts", int),
    ("copied", "copied_clauses", int),
    ("copy_rate", "copy_rate", float),
    ("incr_prep_s", "incr_prep_time", float),
    ("total_s", "total_time", float),
    ("seed", "seed", int),
)

CSV_COLUMNS = tuple(col for col, _, _ in COLUMNS)

# columns aggregated by the benchmark harness: every number but the seed,
# which names a run rather than measuring it
METRIC_COLUMNS = tuple(col for col, attr, kind in COLUMNS if kind is not str and attr != "seed")


@dataclass(kw_only=True)
class EngineCounters:
    """Work counted by one engine context, cumulative over its life; a
    stats row holds the difference across one instance."""

    cti_count: int = 0  # bad states found at the frontier
    obligations_handled: int = 0  # proof obligations popped from the queue
    join_tries: int = 0  # queries on a joined cube in `_down`
    join_wins: int = 0  # of them, the ones that blocked
    drop_tries: int = 0  # literal drops `generalize` tried
    drop_wins: int = 0  # of them, the ones that kept a shorter cube
    drop_starved: int = 0  # generalizations begun with no drop credit
    push_tries: int = 0  # pushes `propagate` considered
    push_skips: int = 0  # of them, the ones skipped as already failed (`Frames.push_failed`)


@dataclass
class RunStats(EngineCounters):
    """One engine run on one instance of a family."""

    instance_label: str
    verdict_kind: str  # "invariant" | "trace"
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
        for attr in _ROUNDED:
            setattr(self, attr, round(float(getattr(self, attr)), 6))

    @property
    def copy_rate(self) -> float:
        return round(self.copied_clauses / max(self.copy_attempts, 1), 6)

    def as_record(self) -> dict:
        """Field values keyed by CSV column name, floats already rounded."""
        return {col: getattr(self, attr) for col, attr, _ in COLUMNS}


_FIELDS = {f.name for f in fields(RunStats)}  # every column but the derived copy_rate
_ROUNDED = tuple(attr for _, attr, kind in COLUMNS if kind is float and attr in _FIELDS)


def _from_record(rec: dict) -> RunStats:
    return RunStats(**{attr: kind(rec[col]) for col, attr, kind in COLUMNS if attr in _FIELDS})


def csv_text(header, rows) -> str:
    """One CSV document: floats with 6 decimals, None as an empty field,
    and any field holding a comma or quote quoted."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([f"{v:.6f}" if isinstance(v, float) else v for v in row])
    return out.getvalue()


def emit_csv(rows: list[RunStats]) -> str:
    return csv_text(CSV_COLUMNS, (r.as_record().values() for r in rows))


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
    return csv_text(cols, ([rec[c] for c in cols] for rec in records))

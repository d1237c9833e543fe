"""Stats rows: schema, formatting, the CSV round-trip, aggregation."""

import math

from ipdr.stats import (
    CSV_COLUMNS,
    RunStats,
    aggregate,
    emit_aggregate_csv,
    emit_csv,
    parse_csv,
)


def sample_row(**kw):
    base = dict(
        instance_label="3",
        verdict_kind="invariant",
        cti_count=4,
        obligations_handled=11,
        join_tries=9,
        join_wins=1,
        drop_tries=25,
        drop_wins=8,
        drop_starved=3,
        push_tries=14,
        push_skips=5,
        sat_calls=120,
        sat_time=0.0123456789,
        copy_attempts=6,
        copied_clauses=3,
        incr_prep_time=0.002,
        total_time=0.5,
        strategy="relax",
        problem="chain3",
        seed=7,
    )
    base.update(kw)
    return RunStats(**base)


def test_csv_header_is_stable():
    text = emit_csv([sample_row()])
    header = text.splitlines()[0]
    assert header == (
        "strategy,problem,instance,verdict,cti_count,obligations,"
        "join_tries,join_wins,drop_tries,drop_wins,drop_starved,push_tries,push_skips,sat_calls,sat_time_s,copy_attempts,copied,copy_rate,incr_prep_s,total_s,seed"
    )
    assert tuple(header.split(",")) == CSV_COLUMNS


def test_csv_floats_have_six_decimals():
    line = emit_csv([sample_row()]).splitlines()[1]
    cells = line.split(",")
    cell = lambda col: cells[CSV_COLUMNS.index(col)]
    assert cell("sat_time_s") == "0.012346"  # rounded at construction
    assert cell("copy_rate") == "0.500000"  # 3/6
    assert cell("total_s") == "0.500000"


def test_copy_rate_guards_zero_attempts():
    assert sample_row(copy_attempts=0, copied_clauses=0).copy_rate == 0.0
    assert sample_row(copy_attempts=8, copied_clauses=2).copy_rate == 0.25


def test_csv_round_trip_is_identity():
    rows = [sample_row(), sample_row(seed=11, total_time=2.25)]
    assert parse_csv(emit_csv(rows)) == rows


def test_csv_rejects_foreign_header():
    try:
        parse_csv("a,b,c\n1,2,3\n")
    except ValueError as e:
        assert "columns" in str(e)
    else:
        assert False, "expected a schema error"


def test_aggregate_means_and_spread():
    rows = [
        sample_row(sat_calls=100, total_time=1.0, seed=0),
        sample_row(sat_calls=104, total_time=3.0, seed=1),
    ]
    (rec,) = aggregate(rows)
    assert rec["problem"] == "chain3" and rec["strategy"] == "relax"
    assert rec["runs"] == 2
    assert rec["sat_calls_mean"] == 102.0
    assert rec["sat_calls_std"] == 2.0
    assert rec["total_s_mean"] == 2.0
    assert math.isclose(rec["total_s_std"], 1.0)
    text = emit_aggregate_csv([rec])
    assert text.splitlines()[0].startswith("problem,strategy,instance,runs,")
    assert "102.000000" in text


def test_aggregate_groups_by_problem_strategy_instance():
    rows = [
        sample_row(),
        sample_row(strategy="naive"),
        sample_row(instance_label="4"),
    ]
    recs = aggregate(rows)
    keys = [(r["problem"], r["strategy"], r["instance"]) for r in recs]
    assert keys == [("chain3", "relax", "3"), ("chain3", "naive", "3"), ("chain3", "relax", "4")]

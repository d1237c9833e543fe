"""Exit codes, JSON shapes, and validator behavior of the command line."""

import contextlib
import csv
import io
import json
import tracemalloc
from pathlib import Path
from xml.dom import minidom

import pytest
from hypothesis import given, settings, strategies as st

from ipdr.cli import main
from ipdr.engine import PdrConfig
from ipdr.incremental import ipdr_relax, naive_driver
from ipdr.pebbling import encode_pebbling, load_dag
from ipdr.stats import CSV_COLUMNS, RunStats, emit_csv, parse_csv
from ipdr.system import parse_explicit_family

from oracles import pebbling_successors

CHAIN2_DAG = """\
node a
node b
edge a b
output b
"""

CHAIN3_DAG = """\
node a
node b
node c
edge a b
edge b c
output c
"""

RELAXING_SYS = """\
var a
var b
init 00
edge 00 01
group 1 01 10
group 2 10 11
bad 11
direction relaxing
"""

CONSTRAINING_SYS = RELAXING_SYS.replace("relaxing", "constraining")

SINGLE_SAFE_SYS = """\
var a
init 0
edge 0 0
bad 1
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture
def chain3(tmp_path):
    p = tmp_path / "chain3.dag"
    p.write_text(CHAIN3_DAG)
    return str(p)


# --- solve -------------------------------------------------------------------------


def test_solve_relaxing_family_violated(capsys, tmp_path):
    f = tmp_path / "fam.sys"
    f.write_text(RELAXING_SYS)
    code, doc = run(capsys, "solve", str(f))
    assert code == 1
    assert doc["result"] == "violated"
    assert doc["instance"] == "2"
    assert doc["trace"]["states"] == ["00", "01", "10", "11"]
    assert [r["verdict"] for r in doc["stats"]] == [
        "invariant", "invariant", "trace",
    ]


def test_solve_constraining_family_holds(capsys, tmp_path):
    f = tmp_path / "fam.sys"
    f.write_text(CONSTRAINING_SYS)
    code, doc = run(capsys, "solve", str(f))
    assert code == 0
    assert doc["result"] == "holds"
    assert doc["instance"] == "1"
    assert doc["invariant"]["clauses"]
    assert [r["verdict"] for r in doc["stats"]] == ["trace", "invariant"]


def test_solve_single_system_defaults_to_naive(capsys, tmp_path):
    f = tmp_path / "one.sys"
    f.write_text(SINGLE_SAFE_SYS)
    code, doc = run(capsys, "solve", str(f))
    assert code == 0
    assert doc["problem"]["kind"] == "system"
    assert doc["problem"]["strategy"] == "naive"


def test_solve_malformed_file(capsys, tmp_path):
    f = tmp_path / "bad.sys"
    f.write_text("var a\nfrobnicate 00\n")
    code, doc = run(capsys, "solve", str(f))
    assert code == 2
    assert doc is None


@pytest.mark.parametrize("init", ["00", "0"])
def test_solve_rejects_a_duplicate_variable(capsys, tmp_path, init):
    # a repeated name is refused by name, whether or not the state bits
    # match the doubled width
    f = tmp_path / "dup.sys"
    f.write_text(f"var a\nvar a\ninit {init}\nedge 00 11\nbad 11\n")
    code = main(["solve", str(f)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "line 2: duplicate variable 'a'" in captured.err


def test_solve_rejects_binary(capsys, tmp_path):
    f = tmp_path / "fam.sys"
    f.write_text(RELAXING_SYS)
    code, _ = run(capsys, "solve", str(f), "--strategy", "binary")
    assert code == 2


def test_solve_output_file_matches_stdout(capsys, tmp_path):
    f = tmp_path / "fam.sys"
    f.write_text(RELAXING_SYS)
    out = tmp_path / "verdict.json"
    _, doc = run(capsys, "solve", str(f), "--output", str(out))
    assert json.loads(out.read_text()) == doc


# --- pebble ------------------------------------------------------------------------


def test_pebble_binary_chain3(capsys, chain3):
    code, doc = run(capsys, "pebble", chain3, "--pebbles", "1..3")
    assert code == 0
    assert doc["result"] == "optimum"
    assert doc["optimum"] == 3
    assert doc["impossibility_level"] == 2
    assert doc["trace_instance"] == "p3"
    assert doc["invariant_instance"] == "p2"
    assert doc["schedule"]["max_pebbles"] == 3


def test_pebble_schedule_obeys_game_rule(capsys, chain3):
    _, doc = run(capsys, "pebble", chain3)
    preds = {"a": set(), "b": {"a"}, "c": {"b"}}
    cfg = frozenset()
    for step in doc["schedule"]["steps"]:
        flips = set(step["place"]) | set(step["remove"])
        nxt = (cfg | set(step["place"])) - set(step["remove"])
        assert frozenset(nxt) in pebbling_successors(
            ("a", "b", "c"), preds, doc["optimum"]
        )(cfg), step
        cfg = frozenset(nxt)
    assert "c" in cfg


def test_pebble_constrain_sweep(capsys, tmp_path):
    p = tmp_path / "chain2.dag"
    p.write_text(CHAIN2_DAG)
    code, doc = run(capsys, "pebble", str(p), "--strategy", "constrain")
    assert code == 0
    assert doc["optimum"] == 2
    assert doc["impossibility_level"] == 1
    assert doc["trace_instance"] == "p2"
    # descending sweep: violated at 2, then proved impossible at 1
    assert [(r["instance"], r["verdict"]) for r in doc["stats"]] == [
        ("p2", "trace"), ("p1", "invariant"),
    ]


@pytest.mark.parametrize("strategy", ["relax", "naive"])
def test_pebble_linear_sweeps(capsys, chain3, strategy):
    code, doc = run(capsys, "pebble", chain3, "--strategy", strategy)
    assert code == 0
    assert doc["optimum"] == 3
    assert doc["impossibility_level"] == 2
    assert doc["schedule"]["max_pebbles"] == 3


def test_pebble_range_below_optimum(capsys, chain3):
    code, doc = run(capsys, "pebble", chain3, "--pebbles", "1..2")
    assert code == 1
    assert doc["result"] == "no-strategy"
    assert doc["optimum"] is None
    assert doc["impossibility_level"] == 2
    assert "schedule" not in doc


def test_pebble_bad_range(capsys, chain3):
    code, _ = run(capsys, "pebble", chain3, "--pebbles", "2..x")
    assert code == 2


def test_a_huge_span_is_refused_before_it_is_listed(capsys, tmp_path, chain3):
    # listing a span of two million numbers takes hundreds of MB; its ends
    # are checked first
    span = [1, 2_000_000]
    pebbles = tmp_path / "pebbles.json"
    pebbles.write_text(json.dumps({
        "problem": {"kind": "pebbling", "source": chain3, "pebbles": span},
        "trace": {"states": ["000"]},
    }))
    switches = tmp_path / "switches.json"
    switches.write_text(json.dumps({
        "problem": {"kind": "peterson", "procs": 2, "switches": span},
        "trace": {"states": ["0"]},
    }))
    for argv in (
        ["pebble", chain3, "--pebbles", "1..2000000"],
        ["peterson", "--procs", "2", "--switches", "1..2000000"],
        ["validate", str(pebbles)],
        ["validate", str(switches)],
    ):
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2, argv
        assert peak < 4_000_000, (argv, peak)
    assert "must lie in [1, 3]" in capsys.readouterr().err


def test_pebble_frontier_cap_is_unknown(capsys, chain3):
    code, doc = run(capsys, "pebble", chain3, "--max-k", "1", "--pebbles", "3")
    assert code == 2
    assert doc["result"] == "unknown"


def _without_timings(doc):
    if isinstance(doc, dict):
        return {k: _without_timings(v) for k, v in doc.items() if not k.endswith("_s")}
    if isinstance(doc, list):
        return [_without_timings(v) for v in doc]
    return doc


@pytest.mark.parametrize("strategy", ["relax", "constrain", "binary", "naive"])
def test_pebble_debug_invariants_prints_the_plain_document(capsys, strategy):
    dag = str(Path(__file__).parent.parent / "benchmarks" / "diamond.dag")
    _, plain = run(capsys, "pebble", dag, "--strategy", strategy)
    _, checked = run(capsys, "pebble", dag, "--strategy", strategy, "--debug-invariants")
    assert _without_timings(checked) == _without_timings(plain)


# --- peterson ----------------------------------------------------------------------


def test_peterson_two_procs_safe(capsys):
    code, doc = run(capsys, "peterson", "--procs", "2", "--switches", "3")
    assert code == 0
    assert doc["result"] == "holds"
    assert doc["instance"] == "l3"
    assert len(doc["stats"]) == 4  # bounds 0..3


def test_peterson_broken_lock_traces(capsys):
    code, doc = run(
        capsys, "peterson", "--procs", "2", "--switches", "3",
        "--remove-wait-condition",
    )
    assert code == 1
    assert doc["result"] == "violated"
    assert doc["instance"] == "l1"
    last = doc["interleaving"][-1]
    crits = [k for k, v in last.items()
             if k.startswith("p") and str(v).startswith("crit")]
    assert len(crits) >= 2
    assert last["switches"] == 1


def test_peterson_one_proc_is_usage_error(capsys):
    code, doc = run(capsys, "peterson", "--procs", "1", "--switches", "2")
    assert code == 2
    assert doc is None


def test_peterson_rejects_constrain(capsys):
    code, _ = run(capsys, "peterson", "--procs", "2", "--switches", "1",
                  "--strategy", "constrain")
    assert code == 2


# --- validate ----------------------------------------------------------------------


def _emit_verdict(capsys, tmp_path, *argv):
    out = tmp_path / "verdict.json"
    code, doc = run(capsys, *argv, "--output", str(out))
    return code, doc, out


def test_validate_trace_roundtrip(capsys, tmp_path):
    f = tmp_path / "fam.sys"
    f.write_text(RELAXING_SYS)
    _, _, out = _emit_verdict(capsys, tmp_path, "solve", str(f))
    code, doc = run(capsys, "validate", str(out))
    assert code == 0
    assert doc["valid"] is True
    assert set(doc["checks"]) == {"trace-initial", "trace-steps", "trace-final"}


def test_validate_invariant_roundtrip(capsys, tmp_path):
    f = tmp_path / "fam.sys"
    f.write_text(CONSTRAINING_SYS)
    _, _, out = _emit_verdict(capsys, tmp_path, "solve", str(f))
    code, doc = run(capsys, "validate", str(out))
    assert code == 0
    assert doc["valid"] is True
    assert set(doc["checks"]) == {
        "invariant-initiation", "invariant-consecution", "invariant-safety",
    }


def test_validate_pebble_verdict_checks_both(capsys, tmp_path, chain3):
    _, _, out = _emit_verdict(capsys, tmp_path, "pebble", chain3)
    code, doc = run(capsys, "validate", str(out))
    assert code == 0
    assert len(doc["checks"]) == 6


def test_validate_catches_corrupted_trace(capsys, tmp_path):
    f = tmp_path / "fam.sys"
    f.write_text(RELAXING_SYS)
    _, _, out = _emit_verdict(capsys, tmp_path, "solve", str(f))
    doc = json.loads(out.read_text())
    doc["trace"]["states"][2] = doc["trace"]["states"][0]
    out.write_text(json.dumps(doc))
    code, res = run(capsys, "validate", str(out))
    assert code == 1
    assert res["checks"]["trace-steps"] is False


def test_validate_catches_weakened_invariant(capsys, tmp_path):
    f = tmp_path / "fam.sys"
    f.write_text(CONSTRAINING_SYS)
    _, _, out = _emit_verdict(capsys, tmp_path, "solve", str(f))
    doc = json.loads(out.read_text())
    assert doc["invariant"]["clauses"], "need clauses to corrupt"
    doc["invariant"]["clauses"] = doc["invariant"]["clauses"][:-1]
    out.write_text(json.dumps(doc))
    code, res = run(capsys, "validate", str(out))
    assert code == 1
    assert not all(res["checks"].values())


def test_validate_catches_forged_final_state(capsys, tmp_path):
    f = tmp_path / "fam.sys"
    f.write_text(RELAXING_SYS)
    _, _, out = _emit_verdict(capsys, tmp_path, "solve", str(f))
    doc = json.loads(out.read_text())
    doc["trace"]["states"][-1] = "10"  # not a property violation
    out.write_text(json.dumps(doc))
    code, res = run(capsys, "validate", str(out))
    assert code == 1
    assert res["checks"]["trace-final"] is False


TWO_INIT_SYS = """\
var a
var b
init 00
init 01
edge 01 11
bad 11
"""


def test_validate_trace_from_one_of_several_initial_states(capsys, tmp_path):
    # several init lines make `init` a Tseitin root over auxiliary
    # variables; the head must be checked against it by SAT, not by
    # evaluating the clauses over the state bits alone
    f = tmp_path / "two_init.sys"
    f.write_text(TWO_INIT_SYS)
    code, doc, out = _emit_verdict(capsys, tmp_path, "solve", str(f))
    assert code == 1
    assert doc["trace"]["states"] == ["01", "11"]
    code, res = run(capsys, "validate", str(out))
    assert code == 0
    assert res["valid"] is True


@pytest.mark.parametrize("states", [["011", "1101"], ["0", "11"]])
def test_validate_rejects_states_of_the_wrong_width(capsys, tmp_path, states):
    f = tmp_path / "one_init.sys"
    f.write_text(TWO_INIT_SYS.replace("init 00\n", ""))
    _, _, out = _emit_verdict(capsys, tmp_path, "solve", str(f))
    doc = json.loads(out.read_text())
    assert doc["trace"]["states"] == ["01", "11"]
    doc["trace"]["states"] = states
    out.write_text(json.dumps(doc))
    code = main(["validate", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "bits, expected 2" in captured.err


def test_validate_malformed_json(capsys, tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    code, doc = run(capsys, "validate", str(p))
    assert code == 2
    assert doc is None


def test_validate_missing_payload(capsys, tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"problem": {"kind": "system", "source": "x"}}))
    code, _ = run(capsys, "validate", str(p))
    assert code == 2


def test_validate_rejects_a_fractional_process_count(capsys, tmp_path):
    _, _, out = _emit_verdict(capsys, tmp_path, "peterson", "--procs", "2", "--switches", "1")
    doc = json.loads(out.read_text())
    doc["problem"]["procs"] = 2.5
    out.write_text(json.dumps(doc))
    code = main(["validate", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "process count" in captured.err


# --- bench and plot ----------------------------------------------------------------


@pytest.fixture
def suite(tmp_path):
    d = tmp_path / "suite"
    d.mkdir()
    (d / "chain2.dag").write_text(CHAIN2_DAG)
    (d / "fam.sys").write_text(RELAXING_SYS)
    return d


def test_bench_matrix_and_aggregate(capsys, tmp_path, suite):
    stats = tmp_path / "stats.csv"
    code, doc = run(
        capsys, "bench", str(suite), "--strategies", "naive,relax",
        "--seeds", "0,1,2", "--stats", str(stats),
    )
    assert code == 0
    assert doc["failures"] == 0
    lines = stats.read_text().splitlines()
    # chain2 sweeps p1,p2 and fam sweeps 0,1,2: (2+3) instances x 2 x 3
    assert len(lines) == 1 + 30
    agg = (tmp_path / "stats_aggregate.csv").read_text().splitlines()
    assert agg[0].startswith("problem,strategy,instance,runs")
    assert len(agg) == 1 + 10  # 5 instances x 2 strategies
    assert all(",3," in row for row in agg[1:])  # three runs per group


def test_bench_determinism_across_runs(capsys, tmp_path, suite):
    csvs = []
    for name in ("a.csv", "b.csv"):
        stats = tmp_path / name
        run(capsys, "bench", str(suite), "--strategies", "relax",
            "--seeds", "7", "--stats", str(stats))
        csvs.append([
            line.split(",")[:7] for line in stats.read_text().splitlines()
        ])
    assert csvs[0] == csvs[1]  # counter columns identical, timings excluded


def test_bench_empty_suite(capsys, tmp_path):
    d = tmp_path / "nothing"
    d.mkdir()
    code, _ = run(capsys, "bench", str(d))
    assert code == 2


def test_plot_writes_chart_per_problem(capsys, tmp_path, suite):
    stats = tmp_path / "stats.csv"
    run(capsys, "bench", str(suite), "--strategies", "naive,relax",
        "--seeds", "0,1", "--stats", str(stats))
    out = tmp_path / "plots"
    code, doc = run(capsys, "plot", str(stats), "--metric", "sat_calls",
                    "--out", str(out))
    assert code == 0
    assert len(doc["written"]) == 4  # csv + svg for each of two problems
    pivot = (out / "chain2_sat_calls.csv").read_text().splitlines()
    assert pivot[0] == "instance,naive,relax"
    assert pivot[1].startswith("p1,")
    svg = (out / "chain2_sat_calls.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_plot_missing_file(capsys, tmp_path):
    code, _ = run(capsys, "plot", str(tmp_path / "none.csv"))
    assert code == 2


def test_plot_rejects_a_row_with_missing_fields(capsys, tmp_path):
    stats = tmp_path / "stats.csv"
    stats.write_text(",".join(CSV_COLUMNS) + "\nnaive,x,p1,invariant,0,0\n")
    code = main(["plot", str(stats), "--out", str(tmp_path / "plots")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "line 2" in captured.err


@pytest.mark.parametrize("where", ["missing", "file"])
def test_bench_suite_that_is_not_a_directory(capsys, tmp_path, where):
    path = tmp_path / "suite"
    if where == "file":
        path.write_text(CHAIN2_DAG)
    code = main(["bench", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_bench_rejects_an_empty_strategy_list(capsys, tmp_path, suite):
    stats = tmp_path / "stats.csv"
    code = main(["bench", str(suite), "--strategies", ",", "--stats", str(stats)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert not stats.exists()


def test_bench_bad_seed_list(capsys, suite):
    code = main(["bench", str(suite), "--seeds", "abc"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_plot_refuses_a_problem_name_with_a_path_separator(capsys, tmp_path):
    stats = tmp_path / "runs.csv"
    row = RunStats("p1", "invariant", strategy="naive", problem="../escaped")
    stats.write_text(emit_csv([row]))
    code = main(["plot", str(stats), "--out", str(tmp_path / "plots")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert [p.name for p in tmp_path.rglob("*")] == ["runs.csv"]  # nothing written


def test_plot_output_parses_when_names_hold_special_characters(capsys, tmp_path):
    stats = tmp_path / "runs.csv"
    stats.write_text(emit_csv([
        RunStats(inst, "invariant", sat_calls=calls + i, strategy=strategy, problem="a&b")
        for i, inst in enumerate(("p<2>", "p3"))
        for strategy, calls in (("a,b", 3), ("naive", 5))
    ]))
    out = tmp_path / "plots"
    code, _ = run(capsys, "plot", str(stats), "--metric", "sat_calls", "--out", str(out))
    assert code == 0
    svg = minidom.parse(str(out / "a&b_sat_calls.svg"))
    texts = {t.firstChild.data for t in svg.getElementsByTagName("text")}
    assert {"a&b: sat_calls by instance", "p<2>", "a,b"} <= texts
    with open(out / "a&b_sat_calls.csv", newline="") as f:
        assert list(csv.reader(f)) == [
            ["instance", "a,b", "naive"],
            ["p<2>", "3.000000", "5.000000"],
            ["p3", "4.000000", "6.000000"],
        ]


def test_plot_rejects_an_unknown_metric(capsys, tmp_path, suite):
    stats = tmp_path / "stats.csv"
    run(capsys, "bench", str(suite), "--strategies", "naive", "--stats", str(stats))
    with pytest.raises(SystemExit) as exc:
        main(["plot", str(stats), "--metric", "foo", "--out", str(tmp_path / "p")])
    assert exc.value.code == 2
    assert "invalid choice: 'foo'" in capsys.readouterr().err


def test_validate_rejects_boolean_literals(capsys, tmp_path):
    # JSON true decodes to a Python bool, which is an int; it must not be
    # read as literal 1
    f = tmp_path / "fam.sys"
    f.write_text(CONSTRAINING_SYS)
    _, _, out = _emit_verdict(capsys, tmp_path, "solve", str(f))
    doc = json.loads(out.read_text())
    doc["invariant"]["clauses"] = [[True]]
    out.write_text(json.dumps(doc))
    code = main(["validate", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "literals must be integers" in captured.err


@pytest.mark.parametrize("flag", ["--output", "--stats"])
def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path, chain3, flag):
    code = main(["pebble", chain3, flag, str(tmp_path / "no" / "such" / "file")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "v.json", "--output", "out.json"],
        ["validate", "v.json", "--strategy", "relax"],
        ["plot", "runs.csv", "--stats", "s.csv"],
        ["plot", "runs.csv", "--max-k", "3"],
        ["bench", "suite", "--strategy", "naive"],
    ],
    ids=["validate-output", "validate-strategy", "plot-stats", "plot-max-k",
         "bench-strategy"],
)
def test_subcommands_refuse_flags_they_do_not_use(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _counter_records(rows):
    return [
        {k: v for k, v in r.as_record().items() if not k.endswith("_s")}
        for r in rows
    ]


def test_bench_rows_equal_runs_on_freshly_loaded_inputs(capsys, tmp_path, suite):
    # one loaded family serves every cell of its input; the rows must be
    # those of a fresh parse and encoding per cell
    stats = tmp_path / "stats.csv"
    code, _ = run(capsys, "bench", str(suite), "--strategies", "naive,relax",
                  "--seeds", "0,1", "--stats", str(stats))
    assert code == 0
    want = []
    for path in sorted(suite.iterdir()):
        for driver in (naive_driver, ipdr_relax):
            for seed in (0, 1):
                if path.suffix == ".sys":
                    family = parse_explicit_family(path.read_text())
                else:
                    dag = load_dag(str(path))
                    family = encode_pebbling(dag, list(range(1, len(dag.nodes) + 1)))
                rows = list(driver(family, PdrConfig(seed=seed)).per_instance_stats)
                for r in rows:
                    r.problem = path.stem
                want += rows
    assert _counter_records(parse_csv(stats.read_text())) == _counter_records(want)


def test_bench_malformed_input_fails_each_cell(capsys, tmp_path, suite):
    (suite / "bad.dag").write_text("node a\nedge a zz\n")
    stats = tmp_path / "stats.csv"
    code = main(["bench", str(suite), "--strategies", "naive,relax",
                 "--seeds", "0,1", "--stats", str(stats)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["failures"] == 4
    failed = [l for l in captured.err.splitlines() if "bad.dag" in l]
    assert len(failed) == 4
    assert len({l.split(": ", 1)[1].split(": ", 1)[1] for l in failed}) == 1
    rows = parse_csv(stats.read_text())
    assert [r.verdict_kind for r in rows if r.problem == "bad"] == ["error"] * 4


# --- arbitrary input files ---------------------------------------------------------

TOY_TFC = """\
.v a,b,c
.o c
BEGIN
t1 a
t2 a,b
t2 b,c
END
"""

_SAMPLES = {".sys": RELAXING_SYS, ".dag": CHAIN3_DAG, ".tfc": TOY_TFC}


def _edit(line):
    # mostly keep the line; otherwise drop it or put arbitrary text there
    return st.integers(0, 7).flatmap(
        lambda k: st.just(line) if k < 6
        else st.just("") if k == 6
        else st.text(max_size=6)
    )


def _input_text(suffix):
    """A well-formed sample with some lines dropped or replaced by arbitrary
    text, or arbitrary text alone, so that both malformed and runnable
    inputs come up."""
    edited = st.tuples(*map(_edit, _SAMPLES[suffix].splitlines())).map("\n".join)
    return st.integers(0, 3).flatmap(
        lambda k: edited if k else st.text(max_size=40)
    )


@pytest.mark.parametrize("suffix", [".sys", ".dag", ".tfc"])
def test_arbitrary_input_files_exit_with_a_code(tmp_path_factory, suffix):
    # every input file either runs to a verdict or is refused with exit 2;
    # nothing escapes main as an exception
    path = tmp_path_factory.mktemp("fuzz") / f"input{suffix}"
    command = "solve" if suffix == ".sys" else "pebble"

    @settings(max_examples=100, deadline=None)
    @given(text=_input_text(suffix))
    def check(text):
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(path), "--max-k", "3"])
        assert code in (0, 1, 2)

    check()

"""Command-line surface: solve systems and families, optimize pebble
budgets, verify the switch-bounded lock, re-validate emitted verdicts,
run benchmark matrices, and plot stats CSVs.

Every subcommand prints one JSON document to stdout and exits 0 on the
good verdict (holds / optimum found / safe / valid), 1 on the bad one
(violated / nothing in range / invalid), 2 on errors, usage problems, or
an unknown verdict after a timeout or frontier cap. The validator runs
all of its checks through fresh solver contexts so an engine bug cannot
certify its own output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

from .certify import check_invariant, check_trace
from .cnf import Clause
from .engine import (
    BudgetExceeded,
    Invariant,
    PdrConfig,
    Trace,
    UsageError,
)
from .incremental import (
    IpdrOutcome,
    OptimizationResult,
    ipdr_binary,
    ipdr_constrain,
    ipdr_relax,
    naive_driver,
)
from .pebbling import (Dag, check_budgets, decode_pebbling_trace, encode_pebbling,
                       load_dag)
from .peterson import check_switch_bounds, describe_state, encode_peterson
from .solver import SolverTimeout
from .stats import (METRIC_COLUMNS, RunStats, aggregate, csv_text, emit_aggregate_csv,
                    emit_csv, parse_csv)
from .system import Instance, InstanceFamily, State, parse_explicit_family

STRATEGIES = ("naive", "constrain", "relax", "binary")


# --- emission ----------------------------------------------------------------------


def _trace_doc(trace: Trace) -> dict:
    return {"states": [s.bits for s in trace.states]}


def _invariant_doc(inv: Invariant) -> dict:
    return {"level": inv.level, "clauses": [list(c.lits) for c in inv.clauses]}


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as e:
        raise UsageError(e) from e


def _emit(doc: dict, args) -> None:
    """Write the document to --output, if given, and then print it, so that
    a write error leaves stdout empty."""
    text = json.dumps(doc, indent=2)
    if args.output:
        _write(Path(args.output), text + "\n")
    print(text)


def _outcome_doc(outcome: IpdrOutcome, problem: dict) -> dict:
    """Result, problem, final instance and the invariant or trace of a sweep."""
    holds = isinstance(outcome.verdict, Invariant)
    doc: dict = {
        "result": "holds" if holds else "violated",
        "problem": problem,
        "instance": outcome.final_parameter,
    }
    if holds:
        doc["invariant"] = _invariant_doc(outcome.verdict)
    else:
        doc["trace"] = _trace_doc(outcome.verdict)
    return doc


def _family(problem: dict, dag: Dag | None = None) -> InstanceFamily:
    """The family a verdict document's `problem` names; `dag` is the
    pebbling source when the caller has loaded it already."""
    kind = problem["kind"]
    if kind in ("system", "family"):
        return parse_explicit_family(Path(problem["source"]).read_text())
    if kind == "pebbling":
        dag = dag or load_dag(problem["source"])
        lo, hi = problem["pebbles"]
        check_budgets(dag, lo, hi)
        return encode_pebbling(dag, list(range(lo, hi + 1)))
    if kind == "peterson":
        lo, hi = problem["switches"]
        check_switch_bounds(problem["procs"], lo, hi)
        return encode_peterson(
            problem["procs"],
            list(range(lo, hi + 1)),
            remove_wait_condition=problem.get("remove_wait_condition", False),
        )
    raise ValueError(f"unknown problem kind {kind!r}")


def _drive(
    family: InstanceFamily, strategy: str, pdr: PdrConfig
) -> IpdrOutcome | OptimizationResult:
    """Run one strategy; constrain and relax first reorder the family to
    the direction their repair needs."""
    if strategy == "binary":
        return ipdr_binary(family, pdr)
    if strategy == "naive":
        return naive_driver(family, pdr)
    family = family.oriented("constraining" if strategy == "constrain" else "relaxing")
    return (ipdr_constrain if strategy == "constrain" else ipdr_relax)(family, pdr)


def _pdr(args, seed: int) -> PdrConfig:
    return PdrConfig(
        seed=seed,
        max_k=args.max_k,
        timeout_s=args.timeout_s,
        debug_invariants=args.debug_invariants,
    )


def _run(args, problem: dict, family: InstanceFamily, name: str, report) -> int:
    """Run problem["strategy"] and emit `report(result, problem)` with the
    stats rows of `name`; a frontier cap or timeout emits `unknown`."""
    try:
        result = _drive(family, problem["strategy"], _pdr(args, args.seed))
    except (BudgetExceeded, SolverTimeout) as e:
        _emit({"result": "unknown", "problem": problem, "error": str(e)}, args)
        return 2
    doc = report(result, problem)
    rows = list(result.per_instance_stats)
    for r in rows:
        r.problem = name
    if args.stats:
        _write(Path(args.stats), emit_csv(rows))
    doc["stats"] = [r.as_record() for r in rows]
    _emit(doc, args)
    return 0 if doc["result"] in ("holds", "optimum") else 1


# --- solve -------------------------------------------------------------------------


def cmd_solve(args) -> int:
    path = Path(args.input)
    problem = {"kind": "family", "source": str(path)}
    try:
        family = _family(problem)
    except (OSError, ValueError) as e:
        raise UsageError(e) from e
    single = len(family.instances) == 1
    strategy = args.strategy or (
        "naive" if single
        else "constrain" if family.direction == "constraining"
        else "relax"
    )
    if strategy == "binary":
        raise UsageError("strategy 'binary' does not produce a sweep verdict")
    problem.update(
        kind="system" if single else "family",
        direction=family.direction,
        strategy=strategy,
    )
    return _run(args, problem, family, path.stem, _outcome_doc)


# --- pebble ------------------------------------------------------------------------


def _parse_span(text: str, what: str) -> tuple[int, int]:
    parts = text.split("..")
    try:
        if len(parts) <= 2:
            return int(parts[0]), int(parts[-1])
    except ValueError:
        pass
    raise UsageError(f"bad {what} range {text!r}; expected N or LO..HI")


def cmd_pebble(args) -> int:
    try:
        dag = load_dag(args.input)
    except (OSError, ValueError) as e:
        raise UsageError(e) from e
    lo, hi = (
        _parse_span(args.pebbles, "pebble")
        if args.pebbles
        else (1, len(dag.nodes))
    )
    problem = {
        "kind": "pebbling",
        "source": args.input,
        "pebbles": [lo, hi],
        "strategy": args.strategy or "binary",
    }
    family = _family(problem, dag)
    params = {inst.label: inst.param for inst in family.instances}

    def report(result, problem: dict) -> dict:
        # the optimum is the least budget with a trace, the impossibility
        # level the greatest with an invariant
        if isinstance(result, OptimizationResult):
            trace, invariant = result.witness_trace, result.impossibility_invariant
        else:
            trace = result.last_trace
            invariant = result.verdict if isinstance(result.verdict, Invariant) else None
        rows = result.per_instance_stats
        traced = [r.instance_label for r in rows if r.verdict_kind == "trace"]
        held = [r.instance_label for r in rows if r.verdict_kind == "invariant"]
        trace_label = min(traced, key=params.__getitem__, default=None)
        invariant_label = max(held, key=params.__getitem__, default=None)
        optimum = params.get(trace_label)
        doc: dict = {
            "problem": problem,
            "result": "optimum" if optimum is not None else "no-strategy",
            "optimum": optimum,
            "impossibility_level": params.get(invariant_label),
        }
        if trace is not None:
            schedule = decode_pebbling_trace(trace, dag)
            doc["schedule"] = {
                "steps": [
                    {"place": list(s.placed), "remove": list(s.removed)}
                    for s in schedule.steps
                ],
                "max_pebbles": schedule.max_pebbles,
            }
            doc["trace"] = _trace_doc(trace)
            doc["trace_instance"] = trace_label
        if invariant is not None:
            doc["invariant"] = _invariant_doc(invariant)
            doc["invariant_instance"] = invariant_label
        return doc

    return _run(args, problem, family, Path(args.input).stem, report)


# --- peterson ----------------------------------------------------------------------


def cmd_peterson(args) -> int:
    strategy = args.strategy or "relax"
    if strategy not in ("relax", "naive"):
        raise UsageError(f"peterson sweeps bounds; strategy {strategy!r} is not a sweep")
    lo, hi = _parse_span(args.switches, "switch")
    if ".." not in args.switches:
        lo = 0
    problem = {
        "kind": "peterson",
        "procs": args.procs,
        "switches": [lo, hi],
        "strategy": strategy,
        "remove_wait_condition": args.remove_wait_condition,
    }
    family = _family(problem)

    def report(outcome: IpdrOutcome, problem: dict) -> dict:
        doc = _outcome_doc(outcome, problem)
        if isinstance(outcome.verdict, Trace):
            doc["interleaving"] = [
                describe_state(family.system, s) for s in outcome.verdict.states
            ]
        return doc

    return _run(args, problem, family, f"peterson{args.procs}", report)


# --- validate ----------------------------------------------------------------------


def _instance_by_label(family: InstanceFamily, label: str) -> Instance:
    for inst in family.instances:
        if inst.label == label:
            return inst
    raise ValueError(f"no instance labeled {label!r}")


def cmd_validate(args) -> int:
    try:
        doc = json.loads(Path(args.verdict).read_text())
        family = _family(doc["problem"])
        if "trace" not in doc and "invariant" not in doc:
            raise ValueError("verdict carries neither a trace nor an invariant")
        checks: dict[str, bool] = {}
        if "trace" in doc:
            label = doc.get("trace_instance") or doc["instance"]
            states = [State.from_bits(b) for b in doc["trace"]["states"]]
            checks.update(check_trace(_instance_by_label(family, label), states))
        if "invariant" in doc:
            label = doc.get("invariant_instance") or doc["instance"]
            lits = doc["invariant"]["clauses"]
            # JSON true and false are Python ints too
            if any(type(lit) is not int for c in lits for lit in c):
                raise ValueError("invariant literals must be integers")
            clauses = [Clause(c) for c in lits]
            checks.update(
                check_invariant(_instance_by_label(family, label), clauses)
            )
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise UsageError(e) from e
    valid = all(checks.values())
    print(json.dumps({"valid": valid, "checks": checks}, indent=2))
    return 0 if valid else 1


# --- bench -------------------------------------------------------------------------


def cmd_bench(args) -> int:
    suite = Path(args.suite)
    try:
        inputs = sorted(
            p for p in suite.iterdir() if p.suffix in (".dag", ".tfc", ".sys")
        )
        seeds = [int(s) for s in args.seeds.split(",")]
    except (OSError, ValueError) as e:
        raise UsageError(e) from e
    if not inputs:
        raise UsageError(f"no .dag/.tfc/.sys inputs in {suite}")
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        raise UsageError("no strategies to run")
    for s in strategies:
        if s not in STRATEGIES:
            raise UsageError(f"unknown strategy {s!r}")
    rows: list[RunStats] = []
    failures = 0
    for path in inputs:
        # families are immutable: one parse and encoding serves every cell,
        # and an input that fails to load fails each of its cells
        family = error = None
        try:
            if path.suffix == ".sys":
                family = _family({"kind": "family", "source": str(path)})
            else:
                dag = load_dag(str(path))
                family = _family({"kind": "pebbling", "pebbles": [1, len(dag.nodes)]}, dag)
        except Exception as e:
            error = e
        for strategy, seed in itertools.product(strategies, seeds):
            got = None
            if family is not None:
                try:
                    got = list(_drive(family, strategy, _pdr(args, seed)).per_instance_stats)
                except Exception as e:  # record the cell, keep the matrix going
                    error = e
            if got is None:
                failures += 1
                print(f"cell failed: {path.name} {strategy} seed={seed}: {error}",
                      file=sys.stderr)
                got = [
                    RunStats(
                        instance_label="-",
                        verdict_kind="error",
                        strategy=strategy,
                        seed=seed,
                    )
                ]
            for r in got:
                r.problem = path.stem
            rows.extend(got)
    stats_path = Path(args.stats or "bench_stats.csv")
    _write(stats_path, emit_csv(rows))
    agg_path = stats_path.with_name(stats_path.stem + "_aggregate.csv")
    _write(agg_path, emit_aggregate_csv(aggregate(rows)))
    _emit(
        {
            "rows": len(rows),
            "failures": failures,
            "stats": str(stats_path),
            "aggregate": str(agg_path),
        },
        args,
    )
    return 0 if failures == 0 else 1


# --- plot --------------------------------------------------------------------------

_PALETTE = ("#4363d8", "#e6194b", "#3cb44b", "#f58231", "#911eb4", "#46f0f0")


def _svg_chart(title: str, series: dict[str, list[tuple[int, float]]],
               labels: list[str], metric: str) -> str:
    # imported here: it loads urllib.request, which costs every other
    # subcommand about 55 ms and 7 MB at start-up
    from xml.sax.saxutils import escape

    width, height = 720, 420
    ml, mr, mt, mb = 60, 20, 36, 56
    px = width - ml - mr
    py = height - mt - mb
    top = max((v for pts in series.values() for _, v in pts), default=1.0) or 1.0
    nx = max(len(labels) - 1, 1)

    def sx(i: int) -> float:
        return ml + px * i / nx

    def sy(v: float) -> float:
        return mt + py * (1 - v / top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">'
        f"{escape(title)}</text>",
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + py}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt + py}" x2="{ml + px}" y2="{mt + py}"'
        ' stroke="black"/>',
        f'<text x="{ml - 8}" y="{mt + 4}" text-anchor="end">{top:g}</text>',
        f'<text x="{ml - 8}" y="{mt + py}" text-anchor="end">0</text>',
        f'<text x="{width / 2}" y="{height - 8}" text-anchor="middle">instance'
        "</text>",
        f'<text x="16" y="{mt - 10}">{metric}</text>',
    ]
    for i, lab in enumerate(labels):
        parts.append(
            f'<text x="{sx(i):.1f}" y="{mt + py + 16}" text-anchor="middle">'
            f"{escape(lab)}</text>"
        )
    for si, (name, pts) in enumerate(series.items()):
        color = _PALETTE[si % len(_PALETTE)]
        coords = " ".join(f"{sx(i):.1f},{sy(v):.1f}" for i, v in pts)
        if coords:
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}"'
                ' stroke-width="2"/>'
            )
        for i, v in pts:
            parts.append(
                f'<circle cx="{sx(i):.1f}" cy="{sy(v):.1f}" r="3" fill="{color}"/>'
            )
        ly = mt + 16 * si
        parts.append(
            f'<rect x="{ml + px - 150}" y="{ly - 9}" width="10" height="10"'
            f' fill="{color}"/>'
        )
        parts.append(f'<text x="{ml + px - 134}" y="{ly}">{escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_plot(args) -> int:
    try:
        rows = parse_csv(Path(args.stats_csv).read_text())
    except (OSError, ValueError) as e:
        raise UsageError(e) from e
    if not rows:
        raise UsageError("stats file has no rows")
    problems = list(dict.fromkeys(r.problem for r in rows))
    for problem in problems:
        if any(sep and sep in problem for sep in (os.sep, os.altsep)):
            raise UsageError(f"problem name {problem!r} contains a path separator")
    metric = args.metric
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise UsageError(e) from e
    written = []
    for problem in problems:
        mine = [r for r in rows if r.problem == problem]
        labels = list(dict.fromkeys(r.instance_label for r in mine))
        series: dict[str, list[tuple[int, float]]] = {}
        for rec in aggregate(mine):
            series.setdefault(rec["strategy"], []).append(
                (labels.index(rec["instance"]), rec[f"{metric}_mean"])
            )
        for pts in series.values():
            pts.sort()
        by_index = [dict(pts) for pts in series.values()]
        pivot = ([lab, *(c.get(i) for c in by_index)] for i, lab in enumerate(labels))
        csv_path = outdir / f"{problem}_{metric}.csv"
        _write(csv_path, csv_text(["instance", *series], pivot))
        svg_path = outdir / f"{problem}_{metric}.svg"
        _write(
            svg_path,
            _svg_chart(f"{problem}: {metric} by instance", series, labels, metric),
        )
        written += [str(csv_path), str(svg_path)]
    print(json.dumps({"written": written}, indent=2))
    return 0


# --- entry point -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # flags of every subcommand that runs PDR; validate and plot take none
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--timeout", type=float, default=None, dest="timeout_s",
                        help="wall-clock budget in seconds per instance")
    engine.add_argument("--max-k", type=int, default=None, dest="max_k",
                        help="frontier cap before giving up")
    engine.add_argument("--debug-invariants", action="store_true",
                        dest="debug_invariants")
    engine.add_argument("--stats", default=None, help="write per-instance CSV here")
    engine.add_argument("--output", default=None, help="also write the JSON here")
    # bench takes lists of these instead
    common = argparse.ArgumentParser(add_help=False, parents=[engine])
    common.add_argument("--strategy", choices=STRATEGIES, default=None)
    common.add_argument("--seed", type=int, default=0)

    p = argparse.ArgumentParser(prog="ipdr")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", parents=[common],
                       help="check a system or family file")
    s.add_argument("input")
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("pebble", parents=[common],
                       help="find the minimum pebble budget of a dag")
    s.add_argument("input")
    s.add_argument("--pebbles", default=None, help="budget range LO..HI")
    s.set_defaults(func=cmd_pebble)

    s = sub.add_parser("peterson", parents=[common],
                       help="verify the switch-bounded lock")
    s.add_argument("--procs", type=int, required=True)
    s.add_argument("--switches", required=True,
                   help="sweep bounds 0..L (or LO..HI)")
    s.add_argument("--remove-wait-condition", action="store_true",
                   help="break the lock on purpose (soundness harness)")
    s.set_defaults(func=cmd_peterson)

    s = sub.add_parser("validate",
                       help="re-check an emitted verdict from scratch")
    s.add_argument("verdict", help="verdict JSON written by another subcommand")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser("bench", parents=[engine],
                       help="run an input x strategy x seed matrix")
    s.add_argument("suite", help="directory of .dag/.tfc/.sys inputs")
    s.add_argument("--seeds", default="0", help="comma-separated seed list")
    s.add_argument("--strategies", default="naive,constrain,relax,binary")
    s.set_defaults(func=cmd_bench)

    s = sub.add_parser("plot",
                       help="emit per-problem charts from a stats CSV")
    s.add_argument("stats_csv")
    s.add_argument("--metric", default="total_s", choices=METRIC_COLUMNS)
    s.add_argument("--out", default="plots")
    s.set_defaults(func=cmd_plot)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

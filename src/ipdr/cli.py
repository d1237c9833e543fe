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
import json
import sys
from dataclasses import dataclass, replace
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
    ipdr_binary,
    ipdr_constrain,
    ipdr_relax,
    naive_driver,
)
from .pebbling import decode_pebbling_trace, encode_pebbling, load_dag
from .peterson import describe_state, encode_peterson
from .solver import SolverTimeout
from .stats import RunStats, aggregate, emit_aggregate_csv, emit_csv, parse_csv
from .system import Instance, InstanceFamily, State, parse_explicit_family

STRATEGIES = ("naive", "constrain", "relax", "binary")


@dataclass
class RunConfig:
    strategy: str
    pdr: PdrConfig
    stats_path: str | None = None
    output_path: str | None = None


def _config(args, default_strategy: str) -> RunConfig:
    return RunConfig(
        strategy=args.strategy or default_strategy,
        pdr=PdrConfig(
            seed=args.seed,
            max_k=args.max_k,
            timeout_s=args.timeout_s,
            debug_invariants=args.debug_invariants,
        ),
        stats_path=args.stats,
        output_path=args.output,
    )


# --- emission ----------------------------------------------------------------------


def _trace_doc(trace: Trace) -> dict:
    return {"states": [s.bits for s in trace.states]}


def _invariant_doc(inv: Invariant) -> dict:
    return {"level": inv.level, "clauses": [list(c.lits) for c in inv.clauses]}


def _emit(doc: dict, cfg: RunConfig) -> None:
    text = json.dumps(doc, indent=2)
    print(text)
    if cfg.output_path:
        Path(cfg.output_path).write_text(text + "\n")


def _emit_stats(rows, cfg: RunConfig, problem: str) -> list[dict]:
    for r in rows:
        r.problem = problem
    if cfg.stats_path:
        Path(cfg.stats_path).write_text(emit_csv(list(rows)))
    return [r.as_record() for r in rows]


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


def _oriented(family: InstanceFamily, direction: str) -> InstanceFamily:
    if family.direction == direction:
        return family
    return InstanceFamily(
        family.system, tuple(reversed(family.instances)), direction
    )


def _sweep(family: InstanceFamily, cfg: RunConfig) -> IpdrOutcome:
    if cfg.strategy == "relax":
        return ipdr_relax(_oriented(family, "relaxing"), cfg.pdr)
    if cfg.strategy == "constrain":
        return ipdr_constrain(_oriented(family, "constraining"), cfg.pdr)
    if cfg.strategy == "naive":
        return naive_driver(family, cfg.pdr)
    raise UsageError(f"strategy {cfg.strategy!r} does not produce a sweep verdict")


# --- solve -------------------------------------------------------------------------


def cmd_solve(args) -> int:
    cfg = _config(args, default_strategy="")
    path = Path(args.input)
    try:
        family = parse_explicit_family(path.read_text())
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    single = len(family.instances) == 1
    if not cfg.strategy:
        cfg.strategy = "naive" if single else (
            "constrain" if family.direction == "constraining" else "relax"
        )
    problem = {
        "kind": "system" if single else "family",
        "source": str(path),
        "direction": family.direction,
        "strategy": cfg.strategy,
    }
    try:
        outcome = _sweep(family, cfg)
    except (BudgetExceeded, SolverTimeout) as e:
        _emit({"result": "unknown", "problem": problem, "error": str(e)}, cfg)
        return 2
    doc = _outcome_doc(outcome, problem)
    doc["stats"] = _emit_stats(outcome.per_instance_stats, cfg, path.stem)
    _emit(doc, cfg)
    return 0 if doc["result"] == "holds" else 1


# --- pebble ------------------------------------------------------------------------


def _parse_span(text: str, what: str) -> tuple[int, int]:
    parts = text.split("..")
    try:
        if len(parts) == 1:
            v = int(parts[0])
            return v, v
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise UsageError(f"bad {what} range {text!r}; expected N or LO..HI")


def _label_param(label: str) -> int:
    return int(label.lstrip("pl"))


def cmd_pebble(args) -> int:
    cfg = _config(args, default_strategy="binary")
    try:
        dag = load_dag(args.input)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    lo, hi = (
        _parse_span(args.pebbles, "pebble")
        if args.pebbles
        else (1, len(dag.nodes))
    )
    budgets = list(range(lo, hi + 1))
    problem = {
        "kind": "pebbling",
        "source": args.input,
        "pebbles": [lo, hi],
        "strategy": cfg.strategy,
    }
    doc: dict = {"problem": problem}
    optimum = None
    trace = invariant = None
    trace_label = invariant_label = None
    try:
        if cfg.strategy == "binary":
            res = ipdr_binary(encode_pebbling(dag, budgets), cfg.pdr)
            rows = list(res.per_instance_stats)
            optimum = res.optimum
            trace, invariant = res.witness_trace, res.impossibility_invariant
            if optimum is not None:
                trace_label = f"p{optimum}"
                if invariant is not None:
                    invariant_label = f"p{optimum - 1}"
            elif invariant is not None:
                invariant_label = f"p{hi}"
        else:
            direction = "constraining" if cfg.strategy == "constrain" else "relaxing"
            outcome = _sweep(encode_pebbling(dag, budgets, direction), cfg)
            rows = list(outcome.per_instance_stats)
            trace_rows = [r for r in rows if r.verdict_kind == "trace"]
            if trace_rows:
                optimum = min(_label_param(r.instance_label) for r in trace_rows)
                trace = outcome.last_trace
                trace_label = f"p{optimum}"
            if isinstance(outcome.verdict, Invariant):
                invariant = outcome.verdict
                invariant_label = outcome.final_parameter
            else:
                inv_rows = [r for r in rows if r.verdict_kind == "invariant"]
                if inv_rows:
                    invariant_label = inv_rows[-1].instance_label
    except (BudgetExceeded, SolverTimeout) as e:
        doc.update({"result": "unknown", "error": str(e)})
        _emit(doc, cfg)
        return 2
    doc["result"] = "optimum" if optimum is not None else "no-strategy"
    doc["optimum"] = optimum
    doc["impossibility_level"] = (
        _label_param(invariant_label) if invariant_label else None
    )
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
    doc["stats"] = _emit_stats(rows, cfg, Path(args.input).stem)
    _emit(doc, cfg)
    return 0 if optimum is not None else 1


# --- peterson ----------------------------------------------------------------------


def cmd_peterson(args) -> int:
    cfg = _config(args, default_strategy="relax")
    if cfg.strategy not in ("relax", "naive"):
        print(
            f"error: peterson verification sweeps bounds; strategy"
            f" {cfg.strategy!r} is not a sweep",
            file=sys.stderr,
        )
        return 2
    lo, hi = _parse_span(args.switches, "switch")
    if ".." not in args.switches:
        lo = 0
    bounds = list(range(lo, hi + 1))
    problem = {
        "kind": "peterson",
        "procs": args.procs,
        "switches": [lo, hi],
        "strategy": cfg.strategy,
        "remove_wait_condition": args.remove_wait_condition,
    }
    family = encode_peterson(
        args.procs, bounds, remove_wait_condition=args.remove_wait_condition
    )
    try:
        outcome = _sweep(family, cfg)
    except (BudgetExceeded, SolverTimeout) as e:
        _emit({"result": "unknown", "problem": problem, "error": str(e)}, cfg)
        return 2
    doc = _outcome_doc(outcome, problem)
    if isinstance(outcome.verdict, Trace):
        doc["interleaving"] = [
            describe_state(family.system, s) for s in outcome.verdict.states
        ]
    doc["stats"] = _emit_stats(
        outcome.per_instance_stats, cfg, f"peterson{args.procs}"
    )
    _emit(doc, cfg)
    return 0 if doc["result"] == "holds" else 1


# --- validate ----------------------------------------------------------------------


def _rebuild_family(problem: dict) -> InstanceFamily:
    kind = problem["kind"]
    if kind in ("system", "family"):
        return parse_explicit_family(Path(problem["source"]).read_text())
    if kind == "pebbling":
        lo, hi = problem["pebbles"]
        return encode_pebbling(load_dag(problem["source"]), list(range(lo, hi + 1)))
    if kind == "peterson":
        lo, hi = problem["switches"]
        return encode_peterson(
            problem["procs"],
            list(range(lo, hi + 1)),
            remove_wait_condition=problem.get("remove_wait_condition", False),
        )
    raise ValueError(f"unknown problem kind {kind!r}")


def _instance_by_label(family: InstanceFamily, label: str) -> Instance:
    for inst in family.instances:
        if inst.label == label:
            return inst
    raise ValueError(f"no instance labeled {label!r}")


def cmd_validate(args) -> int:
    try:
        doc = json.loads(Path(args.verdict).read_text())
        family = _rebuild_family(doc["problem"])
        checks: dict[str, bool] = {}
        checked = False
        if "trace" in doc:
            label = doc.get("trace_instance") or doc["instance"]
            states = [State.from_bits(b) for b in doc["trace"]["states"]]
            checks.update(check_trace(_instance_by_label(family, label), states))
            checked = True
        if "invariant" in doc:
            label = doc.get("invariant_instance") or doc["instance"]
            clauses = [Clause(lits) for lits in doc["invariant"]["clauses"]]
            checks.update(
                check_invariant(_instance_by_label(family, label), clauses)
            )
            checked = True
        if not checked:
            raise ValueError("verdict carries neither a trace nor an invariant")
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    valid = all(checks.values())
    print(json.dumps({"valid": valid, "checks": checks}, indent=2))
    return 0 if valid else 1


# --- bench -------------------------------------------------------------------------


def _bench_family(path: Path, strategy: str) -> InstanceFamily:
    if path.suffix in (".dag", ".tfc"):
        dag = load_dag(str(path))
        direction = "constraining" if strategy == "constrain" else "relaxing"
        return encode_pebbling(dag, list(range(1, len(dag.nodes) + 1)), direction)
    return parse_explicit_family(path.read_text())


def cmd_bench(args) -> int:
    cfg = _config(args, default_strategy="")
    suite = Path(args.suite)
    inputs = sorted(
        p for p in suite.iterdir() if p.suffix in (".dag", ".tfc", ".sys")
    )
    if not inputs:
        print(f"error: no .dag/.tfc/.sys inputs in {suite}", file=sys.stderr)
        return 2
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    for s in strategies:
        if s not in STRATEGIES:
            print(f"error: unknown strategy {s!r}", file=sys.stderr)
            return 2
    seeds = [int(s) for s in args.seeds.split(",")]
    rows: list[RunStats] = []
    failures = 0
    for path in inputs:
        for strategy in strategies:
            for seed in seeds:
                cell = RunConfig(strategy, replace(cfg.pdr, seed=seed))
                try:
                    family = _bench_family(path, strategy)
                    if strategy == "binary":
                        got = list(ipdr_binary(family, cell.pdr).per_instance_stats)
                    else:
                        got = list(_sweep(family, cell).per_instance_stats)
                except Exception as e:  # record the cell, keep the matrix going
                    failures += 1
                    print(f"cell failed: {path.name} {strategy} seed={seed}: {e}",
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
    stats_path = Path(cfg.stats_path or "bench_stats.csv")
    stats_path.write_text(emit_csv(rows))
    agg_path = stats_path.with_name(stats_path.stem + "_aggregate.csv")
    agg_path.write_text(emit_aggregate_csv(aggregate(rows)))
    _emit(
        {
            "rows": len(rows),
            "failures": failures,
            "stats": str(stats_path),
            "aggregate": str(agg_path),
        },
        cfg,
    )
    return 0 if failures == 0 else 1


# --- plot --------------------------------------------------------------------------

_PALETTE = ("#4363d8", "#e6194b", "#3cb44b", "#f58231", "#911eb4", "#46f0f0")


def _svg_chart(title: str, series: dict[str, list[tuple[int, float]]],
               labels: list[str], metric: str) -> str:
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
        f"{title}</text>",
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
            f"{lab}</text>"
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
        parts.append(f'<text x="{ml + px - 134}" y="{ly}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_plot(args) -> int:
    try:
        rows = parse_csv(Path(args.stats_csv).read_text())
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if not rows:
        print("error: stats file has no rows", file=sys.stderr)
        return 2
    metric = args.metric
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for problem in dict.fromkeys(r.problem for r in rows):
        mine = [r for r in rows if r.problem == problem]
        labels = list(dict.fromkeys(r.instance_label for r in mine))
        agg = aggregate(mine)
        series: dict[str, list[tuple[int, float]]] = {}
        for rec in agg:
            series.setdefault(rec["strategy"], []).append(
                (labels.index(rec["instance"]), rec[f"{metric}_mean"])
            )
        for pts in series.values():
            pts.sort()
        csv_path = outdir / f"{problem}_{metric}.csv"
        with csv_path.open("w") as fh:
            strategies = list(series)
            fh.write(",".join(["instance"] + strategies) + "\n")
            for i, lab in enumerate(labels):
                cells = [lab]
                for s in strategies:
                    val = dict(series[s]).get(i)
                    cells.append("" if val is None else f"{val:.6f}")
                fh.write(",".join(cells) + "\n")
        svg_path = outdir / f"{problem}_{metric}.svg"
        svg_path.write_text(
            _svg_chart(f"{problem}: {metric} by instance", series, labels, metric)
        )
        written += [str(csv_path), str(svg_path)]
    print(json.dumps({"written": written}, indent=2))
    return 0


# --- entry point -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--strategy", choices=STRATEGIES, default=None)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--timeout", type=float, default=None, dest="timeout_s",
                        help="wall-clock budget in seconds per instance")
    common.add_argument("--max-k", type=int, default=None, dest="max_k",
                        help="frontier cap before giving up")
    common.add_argument("--debug-invariants", action="store_true",
                        dest="debug_invariants")
    common.add_argument("--stats", default=None, help="write per-instance CSV here")
    common.add_argument("--output", default=None, help="also write the JSON here")

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

    s = sub.add_parser("validate", parents=[common],
                       help="re-check an emitted verdict from scratch")
    s.add_argument("verdict", help="verdict JSON written by another subcommand")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser("bench", parents=[common],
                       help="run an input x strategy x seed matrix")
    s.add_argument("suite", help="directory of .dag/.tfc/.sys inputs")
    s.add_argument("--seeds", default="0", help="comma-separated seed list")
    s.add_argument("--strategies", default="naive,constrain,relax,binary")
    s.set_defaults(func=cmd_bench)

    s = sub.add_parser("plot", parents=[common],
                       help="emit per-problem charts from a stats CSV")
    s.add_argument("stats_csv")
    s.add_argument("--metric", default="total_s")
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
    except (BudgetExceeded, SolverTimeout) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

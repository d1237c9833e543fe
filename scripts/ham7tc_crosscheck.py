#!/usr/bin/env python3
"""Budgeted probe of the shipped 7-wire circuit, reported next to the
reference numbers for this benchmark.

The published netlist has a strategy at 10 pebbles, is impossible at 9,
and its strategy takes 25..26 flips. The shipped circuit is a stand-in
with the same wire and gate counts, not that netlist, and its boundary
lies one lower: a strategy at 9 pebbles and none at 8 (proving 8
impossible takes a fresh engine minutes). The report prints both
boundaries side by side, then what this run established.

Each budget gets its own fresh engine run under a per-probe deadline, so
the report distinguishes "proved", "strategy found", and "gave up". The
point of the report is the side-by-side, not a gate."""

import argparse
import time

from ipdr.engine import BudgetExceeded, Invariant, PdrConfig, pdr_init, pdr_main
from ipdr.pebbling import decode_pebbling_trace, encode_pebbling, load_dag
from ipdr.solver import SolverTimeout

REF_BOUNDARY = 10
REF_IMPOSSIBLE = 9
REF_LENGTH = (25, 26)
STANDIN_BOUNDARY = 9
STANDIN_IMPOSSIBLE = 8


def probe(dag, p: int, budget: float, seed: int):
    fam = encode_pebbling(dag, [p])
    t0 = time.perf_counter()
    try:
        verdict = pdr_main(
            pdr_init(fam.instances[0], PdrConfig(seed=seed, timeout_s=budget))
        )
    except (SolverTimeout, BudgetExceeded):
        return "unknown", None, time.perf_counter() - t0
    dt = time.perf_counter() - t0
    if isinstance(verdict, Invariant):
        return "impossible", None, dt
    schedule = decode_pebbling_trace(verdict, dag)
    return "strategy", schedule, dt


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--circuit", default="benchmarks/ham7tc.tfc")
    ap.add_argument("--budget", type=float, default=45.0,
                    help="seconds per probe")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    dag = load_dag(args.circuit)
    n = len(dag.nodes)
    print(f"{args.circuit}: {n} gates, probing budgets {n}..1,"
          f" {args.budget:.0f}s each")
    best_strategy = None  # (p, length)
    best_impossible = None
    for p in range(n, 0, -1):
        kind, schedule, dt = probe(dag, p, args.budget, args.seed)
        if kind == "strategy":
            best_strategy = (p, len(schedule.steps))
            print(f"  p={p}: strategy, {len(schedule.steps)} flips,"
                  f" peak {schedule.max_pebbles} ({dt:.1f}s)")
        elif kind == "impossible":
            best_impossible = p
            print(f"  p={p}: impossible ({dt:.1f}s)")
            break
        else:
            print(f"  p={p}: gave up after {dt:.1f}s")
            break
    print()
    print(f"reference: strategy at {REF_BOUNDARY}, impossible at"
          f" {REF_IMPOSSIBLE}, length {REF_LENGTH[0]}..{REF_LENGTH[1]}")
    print(f"stand-in:  strategy at {STANDIN_BOUNDARY}, impossible at"
          f" {STANDIN_IMPOSSIBLE}")
    if best_strategy:
        p, length = best_strategy
        print(f"this run:  strategy at {p} with {length} flips", end="")
        print(f", impossible at {best_impossible}" if best_impossible
              else ", impossibility not established in budget")
    else:
        print("this run:  nothing established in budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Budgeted probe of the shipped 7-wire circuit against the reference
numbers for this benchmark (strategy at 10 pebbles, impossibility at 9,
strategy length 25..26).

Each budget gets its own fresh engine run under a per-probe deadline, so
the report distinguishes "proved", "strategy found", and "gave up". The
shipped circuit is a stand-in with the same wire and gate counts, not the
published netlist, so the boundary may land elsewhere; the point of the
report is the side-by-side, not a gate."""

import argparse
import time

from ipdr.engine import BudgetExceeded, Invariant, PdrConfig, pdr_init, pdr_main
from ipdr.pebbling import decode_pebbling_trace, encode_pebbling, load_dag
from ipdr.solver import SolverTimeout

REF_BOUNDARY = 10
REF_IMPOSSIBLE = 9
REF_LENGTH = (25, 26)


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

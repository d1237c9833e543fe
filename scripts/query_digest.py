#!/usr/bin/env python3
"""Fingerprint of one round of a perfbench workload: the solver counters and
a SHA-1 over every frame-solver query answer, in call order.

    python3 scripts/query_digest.py --workload dags --seed 0

Run it from a source checkout; it imports `ipdr` from the checkout's `src/`
and the workload definitions from `perfbench/workloads.py`, and runs each
sweep of the workload once with the configuration perfbench uses. A change
meant to keep the search ("same answers, cheaper") must leave the digest,
the solves, the conflicts and the decisions as they are; the propagations
may fall when the change removes work that decides nothing. One line per
sweep, in run order, comes first: its name, solves, conflicts, its join
wins over join tries, its literal drop wins over drop tries and its
skipped pushes over the pushes propagation considered (summed from the
sweep's stats rows) and a SHA-1 over that sweep's query answers alone, so
a change meant to move one driver's search can show that the other sweeps
kept theirs. The totals follow.

Each query of `SingleContextSolver` adds one record (kind, level or None,
its arguments, its answer). The kinds are the levelled `rel_ind`,
`step_holds` and `bad_cube_at`, and the unlevelled `sat_init`,
`sat_init_bad`, `sat_step` and `sat_cube_bad`. The frame checker of
`certify` is not a frame-solver query: a `debug_invariants` run has the
same records as a plain one. An answer is read the way the engine reads it:
the verdict and the returned cube of `rel_ind` and `bad_cube_at`, the bool
of the yes/no queries, and for `sat_init`/`sat_init_bad` the verdict with
the model's state cube or the core. The counters add up every solver made
during the round, the propagations of `solve` and of level-0 units in
`add_clause` alike.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

from ipdr import engine, incremental, pebbling, peterson, solver  # noqa: E402
from ipdr.cnf import Clause, Cube  # noqa: E402

LEVELLED = ("rel_ind", "step_holds", "bad_cube_at")
UNLEVELLED = ("sat_init", "sat_init_bad", "sat_step", "sat_cube_bad")


def _answer(fs, result):
    if isinstance(result, solver.SatResult):
        if result.sat:
            return True, solver.model_cube(result, fs.system.state_vars).lits
        return False, tuple(sorted(result.core))
    if isinstance(result, tuple):  # rel_ind: (blocked, cube)
        return result[0], result[1].lits
    if isinstance(result, Cube):
        return result.lits
    return result


def _arg(a):
    return a.lits if isinstance(a, (Cube, Clause)) else a


class Digest:
    def __init__(self):
        self.sha = hashlib.sha1()
        self.sweep_sha = hashlib.sha1()  # the running sweep's answers only
        self.queries = 0
        self.solves = self.conflicts = self.decisions = self.propagations = 0
        self._patched: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def install(self) -> None:
        fs_cls = engine.SingleContextSolver
        for kind in LEVELLED + UNLEVELLED:
            self._patch(fs_cls, kind, lambda orig, kind=kind: self._query(kind, orig))
        self._patch(solver.Solver, "solve", self._solve)
        self._patch(solver.Solver, "add_clause", self._add_clause)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _query(self, kind, orig):
        levelled = kind in LEVELLED

        def wrapper(fs, *args, **kwargs):
            result = orig(fs, *args, **kwargs)
            level = args[0] if levelled else None
            rest = args[1:] if levelled else args
            record = (kind, level, tuple(_arg(a) for a in rest),
                      tuple(sorted(kwargs.items())), _answer(fs, result))
            data = repr(record).encode()
            self.sha.update(data)
            self.sweep_sha.update(data)
            self.queries += 1
            return result

        return wrapper

    def _solve(self, orig):
        def wrapper(s, *args, **kwargs):
            p0, c0, d0 = s.n_propagations, s.n_conflicts, s.n_decisions
            try:
                return orig(s, *args, **kwargs)
            finally:
                self.solves += 1
                self.propagations += s.n_propagations - p0
                self.conflicts += s.n_conflicts - c0
                self.decisions += s.n_decisions - d0

        return wrapper

    def _add_clause(self, orig):
        def wrapper(s, *args, **kwargs):
            p0 = s.n_propagations
            try:
                return orig(s, *args, **kwargs)
            finally:
                self.propagations += s.n_propagations - p0

        return wrapper


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    lib = SimpleNamespace(incremental=incremental, pebbling=pebbling, peterson=peterson)
    wl = workloads.setup(args.workload, args.seed, lib, ROOT)
    cfg = engine.PdrConfig(seed=wl.pdr_seed, timeout_s=workloads.ENGINE_TIMEOUT_S)
    print(f"workload     {args.workload} seed {args.seed}")
    digest = Digest()
    digest.install()
    try:
        for sweep in wl.sweeps:
            solves, conflicts = digest.solves, digest.conflicts
            digest.sweep_sha = hashlib.sha1()
            rows = sweep.run(cfg).per_instance_stats
            join = f"{sum(r.join_wins for r in rows)}/{sum(r.join_tries for r in rows)}"
            drop = f"{sum(r.drop_wins for r in rows)}/{sum(r.drop_tries for r in rows)}"
            push = f"{sum(r.push_skips for r in rows)}/{sum(r.push_tries for r in rows)}"
            print(f"sweep        {sweep.name:<20} solves {digest.solves - solves:>6}  "
                  f"conflicts {digest.conflicts - conflicts:>5}  "
                  f"join {join:>9}  drop {drop:>9}  push {push:>9} "
                  f"{digest.sweep_sha.hexdigest()}")
    finally:
        digest.uninstall()
    print(f"solves       {digest.solves}")
    print(f"conflicts    {digest.conflicts}")
    print(f"decisions    {digest.decisions}")
    print(f"propagations {digest.propagations}")
    print(f"queries      {digest.queries}")
    print(f"digest       {digest.sha.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

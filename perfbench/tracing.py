"""Spans and counters recorded from outside the program.

`Tracer.install` replaces the public entry points of each `ipdr` layer with
wrappers that record one span per call (name, start, end, parent span,
sweep id) and a few counters read off the arguments and results. Spans stay
in memory until `write_spans`; `layer_metrics` reduces them to the per-layer
metrics named in BENCHMARK.json. `uninstall` puts the original callables
back, so an untraced run in the same process measures the plain program.

Only work done while a sweep is active (`Tracer.sweep` set) counts toward
the solver and engine metrics; set-up and `ipdr validate` spans are kept
for their own layers.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter
from time import perf_counter

QUERY_KINDS = (
    "rel_ind",
    "step_holds",
    "sat_init",
    "bad_cube_at",
    "sat_step",
    "sat_init_bad",
    "sat_cube_bad",
)
ENGINE_PHASES = ("pdr_init", "pdr_main", "generalize", "propagate", "add_blocked", "extract_trace")
DRIVERS = ("ipdr_relax", "ipdr_constrain", "ipdr_binary", "naive_driver")
LAYERS = ("bench", "solver", "engine", "incremental", "pebbling", "peterson", "cli")

_TRUE = 1

# Time metrics that are structurally zero on some workload (a layer the
# workload never reaches) stay out of the result line, which must not carry
# a time that reads the same on every run; they are in the layer table.
TABLE_ONLY = (
    "engine.q.sat_step.s",
    "engine.q.sat_init_bad.s",
    "engine.q.sat_cube_bad.s",
    "engine.extract_trace.s",
    "incremental.relax.s",
    "incremental.constrain.s",
    "incremental.trace_valid_in.s",
    "pebbling.load_dag.s",
    "pebbling.encode_pebbling.s",
    "peterson.encode_peterson.s",
    "layer.pebbling.self_s",
    "layer.peterson.self_s",
    "cli.validate.s",
    "layer.cli.self_s",
)


def share(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        # spans[i] = (name, start, end, parent index or -1, sweep id or None)
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.sweep: str | None = None
        self.counts: Counter = Counter()
        # solver and frame state read at each verdict
        self.verdict_snaps: list[dict] = []

    # -- spans

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, name: str, t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, t0, t1, parent, self.sweep)

    def _wrap(self, name: str, targets: list[tuple[object, str]], before=None, after=None) -> None:
        owner, attr = targets[0]
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            idx = tracer.open(name)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx, name, t0)
            if after is not None and tracer.sweep is not None:
                after(args, result, state)
            return result

        for owner, attr in targets:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{attr} is not the same callable in every namespace")
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def install(self, lib) -> None:
        """Wrap every traced entry point of the loaded `ipdr` modules."""
        engine, inc, solver = lib.engine, lib.incremental, lib.solver
        self._wrap_solver(solver.Solver)
        fs = engine.SingleContextSolver
        for kind in QUERY_KINDS:
            self._wrap(f"engine.q.{kind}", [(fs, kind)], after=self._query_after(kind))
        for phase in ENGINE_PHASES:
            targets = [(engine, phase)]
            if hasattr(inc, phase):  # imported by name into ipdr.incremental
                targets.append((inc, phase))
            after = self._verdict_snap if phase == "pdr_main" else None
            self._wrap(f"engine.{phase}", targets, after=after)
        self._wrap("incremental.relax", [(inc, "relax")], after=self._relax_after)
        self._wrap("incremental.constrain", [(inc, "constrain")])
        self._wrap("incremental.trace_valid_in", [(inc, "trace_valid_in")], after=self._replay_after)
        for driver in DRIVERS:
            self._wrap(f"incremental.{driver}", [(inc, driver)])
        self._wrap("pebbling.load_dag", [(lib.pebbling, "load_dag")])
        self._wrap("pebbling.encode_pebbling", [(lib.pebbling, "encode_pebbling")])
        self._wrap("peterson.encode_peterson", [(lib.peterson, "encode_peterson")])
        self._wrap("cli.validate", [(lib.cli, "cmd_validate")])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- hooks

    def _wrap_solver(self, cls) -> None:
        counts = self.counts
        tracer = self
        init = cls.__init__

        @functools.wraps(init)
        def counted_init(solver, *args, **kwargs):
            init(solver, *args, **kwargs)
            if tracer.sweep is not None:
                counts["solver.contexts"] += 1

        self._patched.append((cls, "__init__", init))
        cls.__init__ = counted_init

        def before(args):
            s = args[0]
            return s.n_propagations, s.n_conflicts

        def after(args, result, state):
            s = args[0]
            counts["solver.propagations"] += s.n_propagations - state[0]
            counts["solver.conflicts"] += s.n_conflicts - state[1]

        self._wrap("solver.solve", [(cls, "solve")], before=before, after=after)

    def _query_after(self, kind: str):
        counts = self.counts
        if kind == "rel_ind":
            def after(args, result, state):
                counts["rel_ind.blocked"] += bool(result[0])
        elif kind == "step_holds":
            def after(args, result, state):
                counts["step_holds.holds"] += bool(result)
        else:
            after = None
        return after

    def _relax_after(self, args, result, state) -> None:
        attempts, copied = result
        self.counts["relax.attempts"] += attempts
        self.counts["relax.copied"] += copied

    def _replay_after(self, args, result, state) -> None:
        self.counts["trace_valid_in.hits"] += bool(result)

    def _verdict_snap(self, args, result, state) -> None:
        ctx = args[0]
        s = getattr(ctx.fs, "solver", None)
        if s is None:
            return
        assigns = s.assigns
        dead = 0
        for c in s.clauses:
            for l in c:
                if (assigns[l] if l > 0 else -assigns[-l]) == _TRUE:
                    dead += 1
                    break
        frames = ctx.frames
        self.verdict_snaps.append(
            {
                "clauses": len(s.clauses),
                "dead": dead,
                "nvars": s.nvars,
                "fixed": len(s.trail),  # after a solve only level-0 literals remain
                "learnts": len(s.learnts),
                "frame_clauses": sum(len(d) for d in frames.deltas[1:]),
                "k": frames.k,
            }
        )

    # -- reduction

    def self_times(self) -> list[float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for sp in spans:
            if sp is not None and sp[3] >= 0:
                child[sp[3]] += sp[2] - sp[1]
        return [sp[2] - sp[1] - child[i] for i, sp in enumerate(spans)]

    def layer_table(self) -> list[tuple[str, int, float, float]]:
        """(span name, calls, total s, self s), largest self time first."""
        selfs = self.self_times()
        rows: dict[str, list] = {}
        for sp, st in zip(self.spans, selfs):
            r = rows.setdefault(sp[0], [0, 0.0, 0.0])
            r[0] += 1
            r[1] += sp[2] - sp[1]
            r[2] += st
        return sorted(((n, *r) for n, r in rows.items()), key=lambda r: -r[3])

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the spans recorded during sweeps, plus the
        encoder and `ipdr validate` spans recorded outside them."""
        spans = self.spans
        selfs = self.self_times()
        n = len(spans)
        calls: Counter = Counter()
        total: Counter = Counter()
        layer_self: Counter = Counter()
        solve_ms: list[float] = []
        outer_generalize = 0.0
        for i in range(n):
            name, t0, t1, parent, sweep = spans[i]
            layer_self[name.split(".", 1)[0]] += selfs[i]
            if sweep is None and not name.startswith(("pebbling.", "peterson.", "cli.")):
                continue
            calls[name] += 1
            total[name] += t1 - t0
            if name == "solver.solve":
                solve_ms.append((t1 - t0) * 1e3)
            elif name == "engine.generalize":
                p = parent
                while p >= 0 and spans[p][0] != "engine.generalize":
                    p = spans[p][3]
                if p < 0:  # time of nested CTG generalization is counted once
                    outer_generalize += t1 - t0
        c = self.counts
        snaps = self.verdict_snaps
        m: dict[str, tuple[float, str]] = {}
        m["solver.solves"] = (calls["solver.solve"], "count")
        m["solver.propagations"] = (c["solver.propagations"], "count")
        m["solver.conflicts"] = (c["solver.conflicts"], "count")
        m["solver.solve_s"] = (total["solver.solve"], "s")
        if len(solve_ms) >= 2:
            q = statistics.quantiles(solve_ms, n=100, method="inclusive")
            p50, p99 = statistics.median(solve_ms), q[98]
        else:
            p50 = p99 = solve_ms[0] if solve_ms else 0.0
        m["solver.solve_ms.p50"] = (p50, "ms")
        m["solver.solve_ms.p99"] = (p99, "ms")
        m["solver.dead_clause_share"] = (
            share(sum(s["dead"] for s in snaps), sum(s["clauses"] for s in snaps)), "share")
        m["solver.fixed_var_share"] = (
            share(sum(s["fixed"] for s in snaps), sum(s["nvars"] for s in snaps)), "share")
        m["solver.learnts"] = (share(sum(s["learnts"] for s in snaps), len(snaps)), "count")
        m["solver.contexts"] = (c["solver.contexts"], "count")
        for kind in QUERY_KINDS:
            m[f"engine.q.{kind}.calls"] = (calls[f"engine.q.{kind}"], "count")
            m[f"engine.q.{kind}.s"] = (total[f"engine.q.{kind}"], "s")
        m["engine.q.rel_ind.blocked_share"] = (
            share(c["rel_ind.blocked"], calls["engine.q.rel_ind"]), "share")
        m["engine.q.step_holds.holds_share"] = (
            share(c["step_holds.holds"], calls["engine.q.step_holds"]), "share")
        for phase in ("pdr_init", "pdr_main", "propagate", "extract_trace"):
            m[f"engine.{phase}.s"] = (total[f"engine.{phase}"], "s")
        m["engine.generalize.s"] = (outer_generalize, "s")
        m["engine.add_blocked.calls"] = (calls["engine.add_blocked"], "count")
        m["engine.frame_clauses"] = (share(sum(s["frame_clauses"] for s in snaps), len(snaps)), "count")
        m["engine.frontier_k"] = (share(sum(s["k"] for s in snaps), len(snaps)), "count")
        m["incremental.relax.s"] = (total["incremental.relax"], "s")
        m["incremental.relax.attempts"] = (c["relax.attempts"], "count")
        m["incremental.relax.copied"] = (c["relax.copied"], "count")
        m["incremental.relax.copy_share"] = (share(c["relax.copied"], c["relax.attempts"]), "share")
        m["incremental.constrain.s"] = (total["incremental.constrain"], "s")
        m["incremental.trace_valid_in.s"] = (total["incremental.trace_valid_in"], "s")
        m["incremental.trace_valid_in.hit_share"] = (
            share(c["trace_valid_in.hits"], calls["incremental.trace_valid_in"]), "share")
        m["incremental.repair.s"] = (total["incremental.relax"] + total["incremental.constrain"], "s")
        m["pebbling.load_dag.s"] = (total["pebbling.load_dag"], "s")
        m["pebbling.encode_pebbling.s"] = (total["pebbling.encode_pebbling"], "s")
        m["peterson.encode_peterson.s"] = (total["peterson.encode_peterson"], "s")
        m["encode.s"] = (
            m["pebbling.load_dag.s"][0] + m["pebbling.encode_pebbling.s"][0]
            + m["peterson.encode_peterson.s"][0], "s")
        m["cli.validate.s"] = (total["cli.validate"], "s")
        for layer in LAYERS:
            m[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
        return m

    def write_spans(self, path) -> None:
        base = min((sp[1] for sp in self.spans), default=0.0)
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, sweep) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0 - base,
                                     "end": t1 - base, "parent": parent, "sweep": sweep}))
                fh.write("\n")

"""Engine-state reuse across a family of instances.

A context that just finished one instance is repaired rather than discarded:
when the next instance is more constrained the frames stay sound as they are
(every stored clause over-approximates a reachable set that only shrinks),
so repair is a rebind plus one propagation pass; when it is more relaxed,
each stored clause is re-established from scratch against the new semantics
before being copied into a new frame generation. The linear drivers sweep a
family in order; the binary driver bisects between the unprobed ends of
the family, keeps the context of its most recent invariant probe and
relaxes the next probe up from it.

All four drivers share one per-instance step, `_visit`: replay the
witness it is given (the constraining sweep's last trace, or the trace at
the binary search's upper bound) and skip the instance where it still
holds; otherwise start a fresh engine or repair the given context, check
it when `debug_invariants` is on, run PDR and record the stats row. It
calls the replay, engine and repair entry points through this module's
globals, so a wrapper set on the module sees every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .certify import check_trace
from .engine import (
    Invariant,
    InvariantViolation,
    PdrConfig,
    PdrCtx,
    Trace,
    UsageError,
    Verdict,
    pdr_init,
    pdr_main,
    propagate,
    validate_ctx,
)
from .stats import RunStats
from .system import Instance, InstanceFamily, State

__all__ = [
    "IpdrOutcome",
    "OptimizationResult",
    "constrain",
    "relax",
    "trace_valid_in",
    "ipdr_constrain",
    "ipdr_relax",
    "ipdr_binary",
    "naive_driver",
]


@dataclass(frozen=True)
class IpdrOutcome:
    """Final verdict of a family sweep plus one stats row per instance
    visited (skipped instances get a row with zeroed engine counters).
    `last_trace` keeps the most recent counterexample even when the sweep
    ends on an invariant, so a constraining sweep still yields a witness
    for the last violated instance."""

    verdict: Verdict
    final_parameter: str
    per_instance_stats: tuple[RunStats, ...]
    last_trace: Trace | None = None


@dataclass(frozen=True)
class OptimizationResult:
    """Boundary found by binary search: the least parameter whose instance
    admits a counterexample. No impossibility invariant exists when the
    optimum is the family minimum; no optimum exists when even the most
    relaxed instance is safe (the invariant is reported as evidence)."""

    optimum: int | None
    witness_trace: Trace | None
    impossibility_invariant: Invariant | None
    per_instance_stats: tuple[RunStats, ...] = ()


# --- context repair ---------------------------------------------------------------


def constrain(ctx: PdrCtx, nxt: Instance) -> None:
    """Repair a context for a more constrained instance. Frame clauses stay
    sound unchanged, so the repair is: rebind the assumptions and the initial
    constraint, drop pending obligations (their counterexamples need not
    survive the shrink), and run one propagation pass so clause positions
    reflect the new step relation. The frontier is preserved; a frontier
    violation left by a previous trace verdict is legitimate resumption
    state, not a defect."""
    ctx.rebind(nxt)
    ctx.queue.clear()
    propagate(ctx)


def relax(ctx: PdrCtx, nxt: Instance) -> tuple[int, int]:
    """Repair a context for a more relaxed instance and return the copy
    counters (attempts, copied).

    Nothing learned under the old semantics is trusted: every stored clause
    is re-established against the new instance before reuse. A clause is
    attempted once at its first target; it must exclude no new initial state
    and pass consecution against the clauses confirmed so far (a subset of
    the final frame, so the certificate is if anything stronger). A clause
    re-proved after every step from frame i is stored at i+1, climbing one
    target per pass up to one past its old level; a first-target failure
    drops it, a later failure leaves it at the last level it passed. The
    frames restart in place (`Frames.reset`) at frontier 0, with the
    survivors preloaded dormant above it.
    """
    if ctx.queue:
        raise UsageError("relax requires a settled context with no obligations")
    if ctx.instance is not nxt:
        ctx.rebind(nxt)
    frames, fs = ctx.frames, ctx.fs
    old, k_old = frames.deltas, frames.k
    frames.reset()
    if k_old < 2:
        return 0, 0  # no frame below the frontier to copy from
    # (clause, the highest target it may climb to), in old frame order
    live = [(c, min(j + 1, k_old)) for j in range(1, len(old)) for c in old[j]
            if not fs.sat_init(c.negate()).sat]
    for t in range(2, k_old + 1):
        batch, live = [p for p in live if p[1] >= t], []
        for c, cap in batch:
            if fs.step_holds(t - 1, c, with_prop=False):
                if t > 2:
                    del frames.deltas[t - 1][c]  # it passed target t-1 and sits there
                frames.add(c, t)
                live.append((c, cap))
    # the reset left the frames empty, so they hold exactly the copies
    return sum(map(len, old[1:])), sum(map(len, frames.deltas))


def trace_valid_in(trace: Trace, inst: Instance) -> bool:
    """Replay a counterexample against another instance on a fresh solver:
    the head must be an initial state, every consecutive pair one step, and
    the tail a property violation. A length-0 trace is valid exactly when
    its single state is initial and violates the property."""
    return all(check_trace(inst, trace.states).values())


# --- the per-instance step -------------------------------------------------------


def _visit(
    ctx: PdrCtx | None,
    inst: Instance,
    cfg: PdrConfig,
    strategy: str,
    witness: Trace | None = None,
) -> tuple[PdrCtx | None, Verdict, RunStats]:
    """Run one instance and return (context, verdict, stats row).

    A `witness` from a more relaxed instance is replayed first: where it
    stays valid it is the verdict, the context comes back untouched, and
    the row has zeroed engine counters with the replay cost as its
    preparation time. Otherwise, with no context a fresh engine is started;
    with one, the context is repaired for `inst` by `constrain` when
    `strategy` is "constrain" and by `relax` otherwise ("relax" or
    "binary"). A relaxed instance is first rebound and its initial states
    checked against the property; a violation is returned as a length-0
    trace with no context, since the stale frames were never repaired and
    must not be reused. The row counts the engine work from before the
    repair (after a fresh start) and the preparation time from the start
    of the call. The instance's budget `timeout_s` also runs from there, so
    the replay, the repair and the run share it."""
    t0 = time.perf_counter()
    if witness is not None and trace_valid_in(witness, inst):
        dt = time.perf_counter() - t0
        row = RunStats(
            instance_label=inst.label,
            verdict_kind="trace",
            incr_prep_time=dt,
            total_time=dt,
            strategy=strategy,
            seed=cfg.seed,
        )
        return ctx, witness, row
    attempts = copied = 0
    verdict: Verdict | None = None
    fresh = ctx is None
    if fresh:
        ctx = pdr_init(inst, cfg)
    if cfg.timeout_s is not None:
        ctx.fs.deadline = t0 + cfg.timeout_s
    before = (ctx.counters.cti, ctx.counters.obligations, ctx.fs.sat_calls, ctx.fs.sat_time_s)
    prep = 0.0
    if not fresh:
        relaxing = strategy != "constrain"
        if relaxing:
            ctx.rebind(inst)
            r = ctx.fs.sat_init_bad()
            if r.sat:
                verdict = Trace((State.from_cube(ctx.system, r.cube(ctx.system.state_vars)),))
            else:
                attempts, copied = relax(ctx, inst)
        else:
            constrain(ctx, inst)
        if verdict is None and cfg.debug_invariants:
            bad = validate_ctx(ctx, frontier_clear=relaxing)
            if bad:
                raise InvariantViolation("; ".join(bad))
        prep = time.perf_counter() - t0
    kept: PdrCtx | None = None
    if verdict is None:
        verdict, kept = pdr_main(ctx), ctx
    row = RunStats(
        instance_label=inst.label,
        verdict_kind="invariant" if isinstance(verdict, Invariant) else "trace",
        cti_count=ctx.counters.cti - before[0],
        obligations_handled=ctx.counters.obligations - before[1],
        sat_calls=ctx.fs.sat_calls - before[2],
        sat_time=ctx.fs.sat_time_s - before[3],
        copy_attempts=attempts,
        copied_clauses=copied,
        incr_prep_time=prep,
        total_time=time.perf_counter() - t0,
        strategy=strategy,
        seed=cfg.seed,
    )
    return kept, verdict, row


# --- linear drivers ---------------------------------------------------------------


def _sweep(family: InstanceFamily, cfg: PdrConfig, strategy: str) -> IpdrOutcome:
    """Visit the family in order, reusing one context by `strategy`
    ("constrain" or "relax"; "naive" starts a fresh engine per instance),
    and stop at the first invariant of a constraining family or the first
    trace of a relaxing one. A constraining sweep hands its last trace to
    `_visit`, which skips every later instance where it still replays."""
    stop = Invariant if family.direction == "constraining" else Trace
    rows: list[RunStats] = []
    ctx: PdrCtx | None = None
    verdict: Verdict | None = None
    last_trace: Trace | None = None
    for inst in family.instances:
        witness = last_trace if strategy == "constrain" else None
        ctx, verdict, row = _visit(ctx, inst, cfg, strategy, witness)
        rows.append(row)
        if strategy == "naive":
            ctx = None  # drop the naive engine before the next one starts
        if isinstance(verdict, Trace):
            last_trace = verdict
        if isinstance(verdict, stop):
            break
    assert verdict is not None
    return IpdrOutcome(verdict, inst.label, tuple(rows), last_trace)


def ipdr_constrain(family: InstanceFamily, config: PdrConfig | None = None) -> IpdrOutcome:
    """Sweep a constraining family with one reused context, stopping at the
    first invariant and skipping instances where the last trace replays."""
    if family.direction != "constraining":
        raise UsageError("ipdr_constrain needs a constraining family")
    return _sweep(family, config or PdrConfig(), "constrain")


def ipdr_relax(family: InstanceFamily, config: PdrConfig | None = None) -> IpdrOutcome:
    """Sweep a relaxing family with one reused context, stopping at the
    first trace. A relaxed instance whose initial states already violate
    the property yields a length-0 trace without touching the frames."""
    if family.direction != "relaxing":
        raise UsageError("ipdr_relax needs a relaxing family")
    return _sweep(family, config or PdrConfig(), "relax")


def naive_driver(family: InstanceFamily, config: PdrConfig | None = None) -> IpdrOutcome:
    """Reference sweep: a fresh engine per instance, same order and the same
    stopping rule as the incremental driver it is compared against (first
    invariant for a constraining family, first trace for a relaxing one),
    and no trace replay shortcut."""
    return _sweep(family, config or PdrConfig(), "naive")


# --- binary search ----------------------------------------------------------------


def ipdr_binary(family: InstanceFamily, config: PdrConfig | None = None) -> OptimizationResult:
    """Find the least parameter whose instance admits a counterexample.

    The family must carry strictly increasing integer parameters in its
    relaxing order. The search bisects between two unprobed ends, -1 and
    len(instances), so a family where every instance is safe takes
    ceil(log2(n + 1)) probes and reports the top instance's invariant.
    Each probe first replays the trace of the current upper bound, which
    comes from a more relaxed instance; where it replays, the probe is a
    trace with no engine work. Only the context of the most recent
    invariant probe is cached, and it always sits at the current lower
    bound, so a probe relaxes up from it when there is one and starts a
    fresh engine otherwise. A trace probe's context is dropped:
    constraining down from a budget where the property fails costs more
    than it saves. At most one cached engine state is alive."""
    cfg = config or PdrConfig()
    insts = family.oriented("relaxing").instances
    params = [i.param for i in insts]
    if any(p is None for p in params):
        raise UsageError("binary search needs integer instance parameters")
    if any(b <= a for a, b in zip(params, params[1:])):
        raise UsageError("binary search needs strictly increasing parameters")
    rows: list[RunStats] = []
    cached: PdrCtx | None = None
    verdicts: dict[int, Verdict] = {}
    a, b = -1, len(insts)
    while b - a > 1:
        mid = (a + b) // 2
        ctx, verdict, row = _visit(cached, insts[mid], cfg, "binary", verdicts.get(b))
        rows.append(row)
        verdicts[mid] = verdict
        if isinstance(verdict, Invariant):
            cached, a = ctx, mid
        else:
            cached, b = None, mid
    witness = verdicts.get(b)
    blocker = verdicts.get(a)
    optimum = insts[b].param if b < len(insts) else None
    return OptimizationResult(optimum, witness, blocker, tuple(rows))

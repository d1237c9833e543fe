"""Property directed reachability over clause-encoded transition systems.

Frames are delta encoded (`Frames`): deltas[i] holds exactly the clauses
whose highest frame is i, so the clause set of frame F_i is the union of
deltas[j] for j >= i. Level 0 is the initial constraint and has no delta;
deltas normally run 1..k+1 for frontier k, but levels above k+1 may hold
preloaded clauses after a frame repair (they are dormant until the frontier
reaches them). A clause sits in at most one delta.

Propagation asks each push at most once per state of its frame: `Frames`
stamps a level whenever its frame gains a clause and remembers the pushes
that failed, and `propagate` skips a push that failed against the frame's
current stamp (IC3's clause pushing, Bradley, VMCAI 2011; triggered clause
pushing, Suda, 2013). On pebbling almost every push fails, and most of
them would fail again against an unchanged frame.

All SAT work goes through one frame solver: a single incremental context
serves every frame, frame clauses sit behind per-level activation literals,
and retired clauses are never retracted, they just stop being assumed. Once
a unit fixes their literal false (a one-shot query guard after its query,
an old binding's initial literal, a frame generation two resets back) the
solver drops them as satisfied at level 0, which leaves the models of the
clause set unchanged.

When the initial condition is one unit per state variable (a single initial
state s0, as both encoders emit), initiation queries are answered without
search, and every query first sets the saved phase of each state variable
to its value in s0, so the search returns states close to the initial one.
The certificate checks in `certify` keep answering initiation with the
solver.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field, replace

from .certify import Frames, Skeleton, load_frames, replay
from .cnf import Clause, Cube
from .solver import SatResult, SolverTimeout, model_cube
from .stats import EngineCounters
from .system import Instance, State, TransitionSystem


class EngineError(Exception):
    """Internal inconsistency: a result failed its own certificate check."""


class InvariantViolation(EngineError):
    """A frame or obligation invariant failed during a debug sweep."""


class BudgetExceeded(Exception):
    """The frontier cap was reached without a verdict."""


class UsageError(Exception):
    """Caller error: arguments outside what the interface supports."""


# generalization joins a candidate cube whose query fails with the state it
# returns (shrinks it to the literals they share) and queries it again.
# Joins are speculative, and a context makes one only while its join tries
# stay below CREDIT times one more than its join wins (joined cubes that
# block). Each win earns CREDIT more tries, and a context that wins none of
# its first CREDIT stops for good, across repairs too: with no credit left,
# a drop that fails its first query fails without joining. On pebbling
# almost no join blocks, while filter-lock contexts keep winning.
#
# The literal drops of `generalize` run under the same rule with a ledger
# of their own, kept per instance binding, since drop wins grow as a
# pebbling budget tightens (5% of ham7tc's drops at 23 pebbles, about 30%
# at 10 to 13). Without credit `generalize` returns the cube it has, the
# repaired blocking core, which is already a valid lemma. A fresh engine's
# first drops fail at every budget, since its low frames are weak, so a
# binding out of credit still probes: the 1st, 2nd, 4th, 8th, ...
# generalization it begins with no credit tries its drops, and a probe's
# win buys CREDIT more tries.
CREDIT = 16


def _credit_left(tries: int, wins: int) -> bool:
    return tries < CREDIT * (wins + 1)


def has_credit(counters: EngineCounters) -> bool:
    """Room for one more join try."""
    return _credit_left(counters.join_tries, counters.join_wins)


def has_drop_credit(ctx: PdrCtx) -> bool:
    """Room for one more literal drop under the context's instance binding."""
    c, b = ctx.counters, ctx.bound_counters
    return _credit_left(c.drop_tries - b.drop_tries, c.drop_wins - b.drop_wins)


def _drop_probe(ctx: PdrCtx) -> bool:
    """Count a generalization begun with no drop credit, and say whether it
    is a probe that tries its drops anyway: the 1st, 2nd, 4th, 8th, ... of
    the binding."""
    ctx.counters.drop_starved += 1
    n = ctx.counters.drop_starved - ctx.bound_counters.drop_starved
    return n & (n - 1) == 0


@dataclass
class PdrConfig:
    """Engine settings. `timeout_s` is a wall-clock budget per instance: a
    driver gives the repair of a reused context and the run that follows
    one budget, and `pdr_main` on a context without a deadline starts one."""

    seed: int = 0
    max_k: int | None = None
    timeout_s: float | None = None
    debug_invariants: bool = False


@dataclass(frozen=True)
class Invariant:
    """Inductive strengthening: clauses of F_level, closed under the step
    relation and implying the property."""

    level: int
    clauses: tuple[Clause, ...]


@dataclass(frozen=True)
class Trace:
    """Counterexample execution from an initial state to a property
    violation; length 0 means a bad initial state."""

    states: tuple[State, ...]

    def __len__(self) -> int:
        return len(self.states) - 1


Verdict = Invariant | Trace


@dataclass(order=True)
class Obligation:
    level: int
    order: int
    cube: Cube = field(compare=False)
    parent: "Obligation | None" = field(compare=False, default=None)


# --- frame solver -------------------------------------------------------------------


def init_cube(system: TransitionSystem) -> frozenset[int] | None:
    """The initial state s0 as a cube, when every clause of the initial
    condition is a unit and the units assign each state variable exactly
    once; otherwise None (for example an initial condition over several
    states, whose clause names an OR gate's literal)."""
    if not all(len(c) == 1 for c in system.init):
        return None
    lits = [c.lits[0] for c in system.init]
    if sorted(abs(l) for l in lits) != sorted(system.state_vars):
        return None
    return frozenset(lits)


class SingleContextSolver(Skeleton):
    """The query layer shared by the engine and the incremental drivers: one
    incremental solver for everything, on the skeleton `certify` loads,
    frames included. Temporary clauses (the negation of a cube in a
    relative-induction query) ride behind one-shot guard literals that are
    permanently falsified after the query. The solver then drops such a
    clause as satisfied at level 0 (see `Solver.simplify`); the models of
    the clause set do not change.
    Clauses behind an earlier binding's initial literal (`bind_instance`)
    or an earlier frame generation's activation literals (`Frames.reset`)
    go the same way once their literal is fixed false.

    When the initial condition is a full cube s0 (see `init_cube`), two
    things change, and they only work together. `sat_init` answers a cube
    that contradicts s0 as UNSAT without the solver, and one that s0
    contains by the one cached check of I and gamma per binding. And before
    every query the saved phase of each state variable is set to its value
    in s0. A solver-backed initiation query leaves those phases behind as a
    side effect; without them `rel_ind` returns predecessors far from the
    initial state, and with the shortcut alone the ham7tc sweeps took a
    hundred times longer."""

    def __init__(self, system: TransitionSystem, config: PdrConfig):
        super().__init__(system, config.seed)
        self._s0 = init_cube(system)
        self._init_result: SatResult | None = None  # SAT(I and gamma), per binding

    def bind_instance(self, inst: Instance) -> None:
        super().bind_instance(inst)
        self._init_result = None

    def _solve(self, assumptions: list[int]) -> SatResult:
        if self._s0 is not None:
            self.solver.set_phases(self._s0)
        return super()._solve(assumptions)

    def sat_init(self, cube: Cube) -> SatResult:
        """SAT(I and cube). When I is the cube s0, a cube that contradicts
        s0 is UNSAT without search, and a cube inside s0 gets this binding's
        cached SAT(I and gamma); any other cube goes to the solver."""
        s0 = self._s0
        if s0 is None:
            return super().sat_init(cube)
        inside = True
        for l in cube:
            if -l in s0:
                return SatResult(False, None, frozenset((self.init_act, l)))
            if l not in s0:
                inside = False
        if not inside:
            return super().sat_init(cube)
        if self._init_result is None:
            self._init_result = super().sat_init(Cube(()))
        return self._init_result

    def rel_ind(self, level: int, cube: Cube) -> tuple[bool, Cube]:
        """Relative induction: SAT(F_level and P and not cube and step and
        cube'). Returns (True, core subcube) when blocked, else (False,
        predecessor state cube)."""
        sys_ = self.system
        primed = sys_.primed
        lits = cube.lits
        g = self.solver.fresh_var()
        self.solver.add_clause([-g, *[-l for l in lits]])
        assumptions = [*self._base(level), self.prop_act, self.step_act, g, *self.gamma]
        assumptions += [primed[l] for l in lits]
        r = self._solve(assumptions)
        self.solver.add_clause([-g])
        if r.sat:
            return False, model_cube(r, sys_.state_vars)
        core = r.core
        kept = tuple([l for l in lits if primed[l] in core])
        return True, Cube._canonical_tuple(kept) if kept else cube


# --- engine state -------------------------------------------------------------------


class PdrCtx:
    """Resumable engine state: frames, the obligation queue, and the solver
    context. The same object is rebound across a family's instances."""

    def __init__(self, instance: Instance, config: PdrConfig | None = None):
        self.config = config or PdrConfig()
        self.system = instance.system
        self.instance = instance
        self.fs = SingleContextSolver(self.system, self.config)
        self.fs.bind_instance(instance)
        self.frames = self.fs.frames
        self.queue: list[Obligation] = []
        self._order = 0
        self.counters = EngineCounters()
        self.bound_counters = EngineCounters()  # `counters` at the last binding

    def push(self, level: int, cube: Cube, parent: Obligation | None) -> None:
        self._order += 1
        heapq.heappush(self.queue, Obligation(level, self._order, cube, parent))

    def rebind(self, instance: Instance) -> None:
        if instance.system is not self.system:
            raise ValueError("rebinding requires the shared family system")
        self.instance = instance
        self.fs.bind_instance(instance)
        self.bound_counters = replace(self.counters)


# --- main loop ----------------------------------------------------------------------


def _check_deadline(fs: SingleContextSolver) -> None:
    if fs.deadline is not None and time.perf_counter() > fs.deadline:
        raise SolverTimeout("engine deadline exceeded")


def pdr_init(instance: Instance, config: PdrConfig | None = None) -> PdrCtx:
    """Fresh engine state for an instance: frontier 0, no clauses, no
    obligations."""
    return PdrCtx(instance, config)


def pdr_main(ctx: PdrCtx) -> Verdict:
    """Run to a verdict from whatever state the context is in. A context
    with frontier 0 (fresh or just repaired) first checks its initial states
    against the property. A context with no deadline yet gets `timeout_s`
    from now; the drivers set one per instance before repairing."""
    fs, frames, cfg = ctx.fs, ctx.frames, ctx.config
    if cfg.timeout_s is not None and fs.deadline is None:
        fs.deadline = time.perf_counter() + cfg.timeout_s
    _check_deadline(fs)
    if frames.k == 0:
        s0 = fs.bad_cube_at(0)
        if s0 is not None:
            return Trace((State.from_cube(ctx.system, s0),))
        if cfg.max_k is not None and cfg.max_k < 1:
            raise BudgetExceeded(f"frontier cap {cfg.max_k} reached")
        frames.k = 1
        frames.ensure_level(2)
    while True:
        _check_deadline(fs)
        trace = _process_queue(ctx)
        if trace is not None:
            return trace
        s = fs.bad_cube_at(frames.k)
        if s is not None:
            ctx.counters.cti_count += 1
            ctx.push(frames.k, s, None)
            continue
        inv_level = propagate(ctx)
        if cfg.debug_invariants:
            violations = validate_ctx(ctx)
            if violations:
                raise InvariantViolation("; ".join(violations))
        if inv_level is not None:
            clauses = tuple(
                sorted(frames.frame_clauses(inv_level), key=lambda c: (len(c), c.lits))
            )
            return Invariant(inv_level, clauses)
        if cfg.max_k is not None and frames.k + 1 > cfg.max_k:
            raise BudgetExceeded(f"frontier cap {cfg.max_k} reached")
        frames.k += 1
        frames.ensure_level(frames.k + 1)


def _process_queue(ctx: PdrCtx) -> Trace | None:
    fs, frames = ctx.fs, ctx.frames
    while ctx.queue:
        _check_deadline(fs)
        ob = heapq.heappop(ctx.queue)
        ctx.counters.obligations_handled += 1
        s, lvl = ob.cube, ob.level
        if _subsumed(frames, {-l for l in s.lits}, lvl + 1):
            if lvl + 1 <= frames.k:
                ctx.push(lvl + 1, s, ob.parent)
            continue
        blocked, payload = fs.rel_ind(lvl, s)
        if blocked:
            q = generalize(ctx, lvl + 1, s, seed=payload)
            add_blocked(ctx, q.negate(), lvl + 1)
            if lvl + 1 <= frames.k:
                ctx.push(lvl + 1, s, ob.parent)
        elif lvl == 0:
            return extract_trace(ctx, payload, ob)
        elif fs.sat_init(payload).sat:
            # the predecessor is itself initial; enqueueing it would let a
            # later blocking step exclude an initial state
            return extract_trace(ctx, payload, ob)
        else:
            ctx.push(lvl - 1, payload, ob)
            heapq.heappush(ctx.queue, ob)  # retry once the predecessor falls
    return None


# --- blocking and generalization ------------------------------------------------------


def _repair_init(ctx: PdrCtx, sub: Cube, full: Cube) -> Cube:
    """Grow sub within full until it excludes every initial state. Terminates
    because full itself does."""
    lits = list(sub.lits)
    have = set(lits)
    while True:
        r = ctx.fs.sat_init(Cube(lits))
        if not r.sat:
            return Cube(lits)
        grown = False
        for l in full.lits:
            if l not in have and not r.value(l):
                lits.append(l)
                have.add(l)
                grown = True
                break
        if not grown:
            raise EngineError("initial-state repair failed to make progress")


def generalize(ctx: PdrCtx, level: int, cube: Cube, seed: Cube | None = None) -> Cube:
    """Shrink a blocked cube to a strong subcube that is still excluded by
    the initial states and still inductive relative to F_{level-1}, while
    the context has credit for literal drops (`has_drop_credit`). Files
    no frame clause."""
    q = cube
    if seed is not None and len(seed.lits) < len(cube.lits):
        q = _repair_init(ctx, seed, cube)
    counters = ctx.counters
    probe = not has_drop_credit(ctx) and _drop_probe(ctx)
    for lit in cube.lits:
        current = set(q.lits)
        if lit not in current or len(q.lits) <= 1:
            continue
        if not (probe or has_drop_credit(ctx)):
            break
        counters.drop_tries += 1
        cand = Cube._canonical_tuple(tuple([l for l in q.lits if l != lit]))
        shrunk = _down(ctx, cand, level)
        if shrunk is not None:
            counters.drop_wins += 1
            q = shrunk
    return q


def _down(ctx: PdrCtx, q: Cube, level: int) -> Cube | None:
    """Query a candidate subcube; while it fails and the context has credit
    (`has_credit`), join it with the returned state and query again. The
    blocked cube, repaired to exclude the initial states, or None."""
    fs, counters = ctx.fs, ctx.counters
    joined = False
    while q.lits and not fs.sat_init(q).sat:
        blocked, payload = fs.rel_ind(level - 1, q)
        if joined:
            counters.join_tries += 1
            counters.join_wins += blocked
        if blocked:
            sub = payload if payload.lits else q
            return _repair_init(ctx, sub, q)
        if not has_credit(counters):
            return None
        joined = True
        keep = set(payload.lits)
        q = Cube._canonical_tuple(tuple([l for l in q.lits if l in keep]))
    return None


def _subsumed(frames: Frames, lits: set[int], level: int) -> bool:
    """Some clause of F_level has all of its literals in `lits`: it subsumes
    the clause `lits`, or, with `lits` a cube's negation, it excludes every
    state of the (possibly partial) cube."""
    for delta in frames.deltas[level:]:
        for d in delta:
            for l in d.lits:  # most clauses fail on their first literal
                if l not in lits:
                    break
            else:
                return True
    return False


def add_blocked(ctx: PdrCtx, clause: Clause, target: int) -> None:
    """Record a blocking clause at min(target, k+1). A clause subsumed by a
    stronger one at or above the level is skipped; clauses it subsumes at or
    below the level are erased (their solver entries are implied, so they
    merely stop being tracked)."""
    frames = ctx.frames
    lvl = min(target, frames.k + 1)
    frames.ensure_level(lvl)
    # subsumption is a literal subset (`_subsumed` above the level, issubset
    # below); the new clause's set is built once for both. The clause itself,
    # if it sits below, is left for `Frames.add` to move up
    lits = set(clause.lits)
    if _subsumed(frames, lits, lvl):
        return
    n = len(lits)
    for delta in frames.deltas[1 : lvl + 1]:
        for d in [x for x in delta if n <= len(x.lits) and lits.issubset(x.lits) and x != clause]:
            del delta[d]
    frames.add(clause, lvl)


def propagate(ctx: PdrCtx) -> int | None:
    """Push clauses outward: a clause of delta_i moves to delta_{i+1} when it
    holds after every step from F_i. A push that failed is not asked again
    while F_i keeps the stamp it failed against (`Frames.push_failed`): the
    frame, the step relation and the query are the same, so the answer is
    too. Returns the lowest level at or below the frontier whose delta
    emptied, i.e. a level whose frame is closed under the step relation, or
    None."""
    frames, fs, counters = ctx.frames, ctx.fs, ctx.counters
    for i in range(1, frames.k):
        for c in list(frames.deltas[i]):
            if c not in frames.deltas[i]:
                continue  # erased by subsumption while moving a predecessor
            counters.push_tries += 1
            if frames.push_failed(c, i):
                counters.push_skips += 1
            elif fs.step_holds(i, c):
                add_blocked(ctx, c, i + 1)  # moves c up unless a clause above subsumes it
            else:
                frames.note_failed_push(c, i)
    for i in range(1, frames.k + 1):
        if not frames.deltas[i]:
            return i
    return None


# --- traces and validation -------------------------------------------------------------


def extract_trace(ctx: PdrCtx, init_cube: Cube, ob: Obligation) -> Trace:
    """Assemble the counterexample from the obligation chain and replay every
    step against the raw step relation before reporting it."""
    cubes = [init_cube]
    cur: Obligation | None = ob
    while cur is not None:
        cubes.append(cur.cube)
        cur = cur.parent
    failed = [name for name, ok in replay(ctx.fs, cubes).items() if not ok]
    if failed:
        raise EngineError(f"extracted trace fails {', '.join(failed)}")
    return Trace(tuple(State.from_cube(ctx.system, c) for c in cubes))


def validate_ctx(ctx: PdrCtx, frontier_clear: bool = True) -> list[str]:
    """Check the frame and obligation well-formedness properties, returning
    one entry per violation; an empty list means the state is sound to
    resume from. Every SAT check runs on a fresh frame checker
    (`certify.load_frames`), never on `ctx.fs`, so checking moves no search.

    Frame checks: a clause sits in at most one delta; every stored clause
    excludes the initial states (so the frames nest above the initial
    frame); every frame at or below the frontier excludes property
    violations; and consecution holds, i.e. a step from frame i cannot
    leave a clause of frame i+1, for i below the frontier. Obligation
    checks: the level lies in [0, k] (arithmetic); the parent chain ends at
    a property violation (walked syntactically, the root checked by one SAT
    query); and the cube is excluded from its own frame under the property.
    Memo check: every failed push that `propagate` would still skip
    (`Frames.push_failed`) still fails.
    Pass frontier_clear=False for a context captured mid-run, where an
    unhandled frontier violation is the normal resumption entry point
    rather than a defect.
    """
    frames = ctx.frames
    chk = load_frames(ctx.instance, frames.deltas, ctx.fs.deadline)
    out: list[str] = []
    for ob in ctx.queue:
        if not (0 <= ob.level <= frames.k):
            out.append(f"obligation-level: {ob.level} outside [0, {frames.k}]")
        root = ob
        while root.parent is not None:
            root = root.parent
        if not chk.sat_cube_bad(root.cube):
            out.append("obligation-chain: chain root does not violate the property")
        if ob.level == 0:
            excluded = not chk.sat_init(ob.cube).sat
        else:
            excluded = chk.excludes(ob.level, ob.cube)
        if not excluded:
            out.append(f"obligation-cube: cube not excluded at level {ob.level}")
    seen: set[Clause] = set()
    for j in range(1, frames.max_level + 1):
        for c in frames.deltas[j]:
            if c in seen:
                out.append(f"one-delta: a level {j} clause also sits in a lower delta")
            seen.add(c)
            if chk.sat_init(c.negate()).sat:
                out.append(f"init-containment: level {j} clause blocks an initial state")
    top = frames.k if frontier_clear else frames.k - 1
    for i in range(0, top + 1):
        if chk.bad_cube_at(i) is not None:
            out.append(f"frame-safety: frame {i} admits a property violation")
    for i in range(0, frames.k):
        for c in frames.frame_clauses(i + 1):
            if not chk.step_holds(i, c, with_prop=False):
                out.append(f"consecution: a step from frame {i} leaves a frame {i + 1} clause")
    for c, (i, _) in frames.failed_pushes.items():
        if frames.push_failed(c, i) and chk.step_holds(i, c):
            out.append(f"push-memo: a push out of level {i} recorded as failed holds")
    return out

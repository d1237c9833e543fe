"""Incremental CDCL SAT solver with assumptions and unsat cores.

The solving discipline is monotone: no added clause is ever retracted, and
per-query constraints enter only as assumption literals. Clauses that a
level-0 literal satisfies are dropped from the database, which leaves the
models of the clause set unchanged. An Unsat answer carries a core that is
a subset of the assumptions. Results are deterministic given the same
clause set, assumptions, and seed.

Solver internals are MiniSat-shaped: two watched literals, first-UIP clause
learning with local minimization, EVSIDS variable activity, phase saving,
Luby restarts (MiniSat's `luby`; a restart also checks the deadline),
activity-based learnt-clause reduction, and level-0 removal of satisfied
clauses (`simplifyDB`).

Nearly all of a model-checking run is spent in `_propagate`, so the hot
paths are written for the interpreter. `_propagate` is the one loop that
extends the trail during a search: when its queue empties it pushes the
next assumption or, once every assumption is in, makes the next decision,
and goes on propagating in the same call. It returns only on a conflict, a
false assumption or a full assignment, so a query of a few dozen literals
costs a handful of calls instead of one per assumption and decision;
`_solve` keeps conflict analysis, backjumping, learning, reduction and
restarts. `_propagate` assigns literals inline instead of calling
`_unchecked_enqueue`; it walks each watch list once with `for`,
compacting it in place, and looks at the single candidate of a ternary
clause without a loop; `_cancel_until`, `_analyze` and `_analyze_final`
take a literal's variable inline. Each variable's heap key, the tuple
(-activity, v), is built once per change of its activity and kept in
`_key`, so a push builds no tuple. A SAT answer clears the decision heap
instead of popping it empty: once every variable is assigned, every heap
entry is stale, so the pops would leave the same empty heap, which
`_cancel_until(0)` then refills. None of this may move the search, which
depends on two things the code does not show:

- the order of the `heapq` calls: the decision heap is not kept sifted
  (see `fresh_var`), so the order of pushes and pops picks the decisions.
  For the same reason `_cancel_until` must push every variable it
  unassigns, even one whose entry is still live: without the duplicate
  pushes the heap layout changes, and with it the decisions;
- the position of each literal in a clause: `clause[0]` is the literal a
  reason clause implies (`_analyze` reads it) and the watch search visits
  `clause[2:]` in order.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cnf import (
    Clause,
    Cube,
    FAnd,
    FNot,
    FOr,
    Formula,
    FVar,
    var_of,
)

TRUE = 1
FALSE = -1
UNDEF = 0


class SolverTimeout(Exception):
    """Raised when a solve call exceeds its deadline."""


class SatResult:
    __slots__ = ("sat", "_assigns", "core")

    def __init__(self, sat: bool, assigns: list[int] | None, core: frozenset[int] | None):
        self.sat = sat
        self._assigns = assigns  # index by var, values TRUE/FALSE
        self.core = core  # subset of the assumptions passed to solve

    def __bool__(self) -> bool:
        return self.sat

    def value(self, lit: int) -> bool:
        if not self.sat:
            raise ValueError("no model: result is unsat")
        a = self._assigns[var_of(lit)]
        if a == UNDEF:
            raise ValueError(f"variable {var_of(lit)} unassigned in model")
        return (a == TRUE) == (lit > 0)

    def cube(self, variables: Iterable[int]) -> Cube:
        return model_cube(self, variables)


def model_cube(result: SatResult, variables: Iterable[int]) -> Cube:
    """Total cube over the given distinct variables, read off the model."""
    if not result.sat:
        raise ValueError("no model: result is unsat")
    assigns = result._assigns
    vs = sorted(variables)  # linear on sorted input, as the encoders' state variables are
    # TRUE is 1 and FALSE is -1, so v * value is the literal; an unassigned
    # variable gives 0
    lits = tuple([v * assigns[v] for v in vs])
    if 0 in lits:
        raise ValueError(f"variable {vs[lits.index(0)]} unassigned in model")
    return Cube._canonical_tuple(lits)


class VarPool:
    """Allocates variable ids for building systems away from any solver."""

    __slots__ = ("n",)

    def __init__(self, n: int = 0):
        self.n = n

    def fresh_var(self) -> int:
        self.n += 1
        return self.n

    def fresh_vars(self, count: int) -> list[int]:
        return [self.fresh_var() for _ in range(count)]


class Solver:
    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        self.nvars = 0
        self.ok = True
        # per-variable state, index 0 unused
        self.assigns: list[int] = [UNDEF]
        self.level: list[int] = [0]
        self.reason: list[list[int] | None] = [None]
        self.activity: list[float] = [0.0]
        self.phase: list[bool] = [False]
        self._seen = bytearray(1)
        # watches indexed by literal: 2*v for v, 2*v+1 for -v
        self.watches: list[list[list[int]]] = [[], []]
        self.clauses: list[list[int]] = []
        self.learnts: list[list[int]] = []
        self._learnt_meta: dict[int, list] = {}  # id(clause) -> [activity, seq]
        self._learnt_seq = 0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.cla_inc = 1.0
        self.cla_decay = 0.999
        # the decision heap holds `_key[v]`, which is (-activity[v], v) and is
        # replaced whenever activity[v] changes
        self._heap: list[tuple[float, int]] = []
        self._key: list[tuple[float, int]] = [(0.0, 0)]
        self.max_learnts = 4000.0
        # level-0 simplification (MiniSat's simpDB_assigns / simpDB_props):
        # the trail length at the last pass, and the propagation count at
        # which the next pass is due
        self._simp_assigns = -1
        self._simp_due = 0
        # counters
        self.n_solves = 0
        self.n_conflicts = 0
        self.n_propagations = 0
        self.n_decisions = 0
        self.solve_time_s = 0.0
        self._true_lit: int | None = None

    # --- variables and clauses ----------------------------------------------

    def fresh_var(self) -> int:
        self.nvars += 1
        v = self.nvars
        self.assigns.append(UNDEF)
        self.level.append(0)
        self.reason.append(None)
        jitter = self._rng.random() * 1e-9
        self.activity.append(jitter)
        key = (-jitter, v)
        self._key.append(key)
        self.phase.append(False)
        self._seen.append(0)
        self.watches.append([])
        self.watches.append([])
        # Appended without a sift, so the heap order can break (after 200
        # fresh variables, 82 parent/child pairs are out of order), and the
        # decision order depends on it. A `heappush` here raised the lock3
        # relax sweep from 4,708 to 7,313 SAT calls; the measurement is under
        # "Measured and parked" in ROADMAP.md.
        self._heap.append(key)
        return v

    def set_phases(self, lits: Iterable[int]) -> None:
        """Set the saved phase of each literal's variable to the literal's
        sign, so the next decision on it picks that value. Phases steer the
        search only; no answer's satisfiability depends on them."""
        phase = self.phase
        for lit in lits:
            phase[abs(lit)] = lit > 0

    def fresh_vars(self, count: int) -> list[int]:
        return [self.fresh_var() for _ in range(count)]

    def true_lit(self) -> int:
        """A literal constrained true; handy for constant subformulas."""
        if self._true_lit is None:
            v = self.fresh_var()
            self.add_clause([v])
            self._true_lit = v
        return self._true_lit

    def _lit_idx(self, lit: int) -> int:
        return 2 * lit if lit > 0 else -2 * lit + 1

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; it is never retracted. Returns False iff the clause set became
        unsatisfiable outright. Clauses may only be added at decision level
        zero (between solve calls). A clause satisfied at level 0 is not
        stored, and `simplify` later drops stored clauses that become so;
        neither changes the models of the clause set."""
        assert not self.trail_lim, "clauses may only be added between solves"
        if not self.ok:
            return False
        assigns = self.assigns
        nvars = self.nvars
        simplified: list[int] = []
        here: set[int] = set()  # the literals kept so far
        for lit in lits:
            lit = int(lit)
            v = lit if lit > 0 else -lit
            if not 0 < v <= nvars:
                raise ValueError(f"literal {lit} uses an unallocated variable")
            if lit in here:
                continue
            if -lit in here:
                return True  # tautology: x and -x together
            val = assigns[v] if lit > 0 else -assigns[v]
            if val == TRUE:
                return True  # satisfied forever at level 0
            if val == FALSE:
                continue  # falsified forever, drop literal
            here.add(lit)
            simplified.append(lit)
        if not simplified:
            self.ok = False
            return False
        if len(simplified) == 1:
            self._unchecked_enqueue(simplified[0], None)
            if self._propagate() is not None:
                self.ok = False
                return False
            return True
        clause = simplified
        self.clauses.append(clause)
        self._watch(clause)
        return True

    def retire(self, lits: Iterable[int]) -> None:
        """Fix each literal false for good: an activation literal whose
        clauses no query will assume again. Those clauses are then satisfied
        at level 0, `simplify` drops them, and the search stops deciding the
        literals."""
        for lit in lits:
            self.add_clause([-lit])

    def _watch(self, clause: list[int]) -> None:
        self.watches[self._lit_idx(clause[0])].append(clause)
        self.watches[self._lit_idx(clause[1])].append(clause)

    def _detach(self, dropped: Iterable[list[int]]) -> set[int]:
        """Remove the dropped clauses from the two watch lists each sits in,
        one filter pass per list; the other watchers keep their order.
        Returns the ids of the dropped clauses."""
        removed: set[int] = set()
        dirty: set[int] = set()
        for c in dropped:
            removed.add(id(c))
            dirty.add(self._lit_idx(c[0]))
            dirty.add(self._lit_idx(c[1]))
        watches = self.watches
        for i in dirty:
            watches[i] = [c for c in watches[i] if id(c) not in removed]
        return removed

    # --- trail ---------------------------------------------------------------

    def _unchecked_enqueue(self, lit: int, reason: list[int] | None) -> None:
        v = var_of(lit)
        self.assigns[v] = TRUE if lit > 0 else FALSE
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        assigns = self.assigns
        phase = self.phase
        reason = self.reason
        heap = self._heap
        key = self._key
        push = heapq.heappush
        trail = self.trail
        for lit in reversed(trail[bound:]):
            if lit > 0:
                v = lit
                phase[v] = True
            else:
                v = -lit
                phase[v] = False
            assigns[v] = UNDEF
            reason[v] = None
            push(heap, key[v])
        del trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = bound
        if len(heap) > 4 * self.nvars + 64:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        # in place: `_solve` holds the list for the whole search
        key = self._key
        assigns = self.assigns
        self._heap[:] = [key[v] for v in range(1, self.nvars + 1) if assigns[v] == UNDEF]
        heapq.heapify(self._heap)

    # --- activity --------------------------------------------------------------

    def _var_bump(self, v: int) -> None:
        activity = self.activity
        act = activity[v] + self.var_inc
        activity[v] = act
        if act > 1e100:
            nvars = self.nvars
            for i in range(1, nvars + 1):
                activity[i] *= 1e-100
            self.var_inc *= 1e-100
            self._key[1:] = [(-activity[i], i) for i in range(1, nvars + 1)]
            self._rebuild_heap()
            return
        key = self._key[v] = (-act, v)
        if self.assigns[v] == UNDEF:
            heapq.heappush(self._heap, key)

    def _var_decay_apply(self) -> None:
        self.var_inc /= self.var_decay

    def _cla_bump(self, clause: list[int]) -> None:
        meta = self._learnt_meta.get(id(clause))
        if meta is None:
            return
        meta[0] += self.cla_inc
        if meta[0] > 1e20:
            for m in self._learnt_meta.values():
                m[0] *= 1e-20
            self.cla_inc *= 1e-20

    # --- propagation -----------------------------------------------------------

    def _propagate(
        self, assumptions: list[int] | None = None, deadline: float | None = None
    ) -> list[int] | int | None:
        """Extend the trail: returns a conflicting clause, a false assumption
        or None.

        Called bare, it propagates until the queue is empty and returns None;
        it never pushes or decides, at any level. Given the assumptions of a
        `solve` call, it refills an empty queue and goes on in the same call:
        first with the next assumption (an already-true one opens an empty
        level, a false one is returned for `_analyze_final`), then, once
        every assumption is in, with the next decision. It returns None only
        when every variable is assigned.

        The hot loop of the solver, so the enqueue of `_unchecked_enqueue`
        is inlined and every list is a local. Each watch list is walked
        once with `for` and compacted in place: a clause that keeps its
        watch is written back at `j`, one that moves is left behind.
        Literal positions matter: the false watch goes to position 1, so
        that `clause[0]` is the implied literal `_analyze` reads. Values
        are written as 1 and -1 (TRUE and FALSE): a constant loads faster
        than a global."""
        assigns = self.assigns
        level = self.level
        reason = self.reason
        watches = self.watches
        trail = self.trail
        trail_lim = self.trail_lim
        push_trail = trail.append
        dl = len(trail_lim)
        qhead = qhead0 = self.qhead
        n_trail = len(trail)
        failed = None
        while True:
            while qhead < n_trail:
                neg_p = -trail[qhead]
                qhead += 1
                wl = watches[2 * neg_p if neg_p > 0 else -2 * neg_p + 1]
                j = 0
                for clause in wl:
                    # make sure the false literal sits at position 1
                    first = clause[0]
                    if first == neg_p:
                        first = clause[1]
                        clause[0] = first
                        clause[1] = neg_p
                    val = assigns[first] if first > 0 else -assigns[-first]
                    if val == 1:
                        wl[j] = clause
                        j += 1
                        continue
                    # look for a new watch; ternary clauses have one candidate
                    n = len(clause)
                    if n == 3:
                        lk = clause[2]
                        if (assigns[lk] if lk > 0 else -assigns[-lk]) != -1:
                            clause[1] = lk
                            clause[2] = neg_p
                            watches[2 * lk if lk > 0 else -2 * lk + 1].append(clause)
                            continue
                    elif n > 3:
                        for k in range(2, n):
                            lk = clause[k]
                            if (assigns[lk] if lk > 0 else -assigns[-lk]) != -1:
                                clause[1] = lk
                                clause[k] = neg_p
                                watches[2 * lk if lk > 0 else -2 * lk + 1].append(clause)
                                break
                        else:
                            k = 0
                        if k:
                            continue
                    # unit or conflict
                    if val == -1:
                        # keep the rest of the watch list: drop only the slots
                        # of the clauses that moved, between j and this clause
                        # (a clause sits in a watch list at most once)
                        i = j
                        while wl[i] is not clause:
                            i += 1
                        del wl[j:i]
                        self.qhead = qhead
                        self.n_propagations += qhead - qhead0
                        return clause
                    wl[j] = clause
                    j += 1
                    if first > 0:
                        assigns[first] = 1
                        level[first] = dl
                        reason[first] = clause
                    else:
                        assigns[-first] = -1
                        level[-first] = dl
                        reason[-first] = clause
                    push_trail(first)
                    n_trail += 1
                del wl[j:]
            if assumptions is None:
                break
            if dl < len(assumptions):
                # the next assumption; an already-true one opens an empty
                # level, so the next pass of the loop pushes the one after
                p = assumptions[dl]
                v = p if p > 0 else -p
                val = assigns[v] if p > 0 else -assigns[v]
                if val == -1:
                    failed = p
                    break
                trail_lim.append(n_trail)
                dl += 1
                if val == 0:
                    assigns[v] = 1 if p > 0 else -1
                    level[v] = dl
                    reason[v] = None
                    push_trail(p)
                    n_trail += 1
                continue
            if n_trail == self.nvars:
                # every variable is assigned, so every heap entry is stale:
                # popping them all would leave this same empty heap
                self._heap.clear()
                break
            # check the deadline before the pop, so that a timeout leaves
            # every unassigned variable its heap entry
            n_decisions = self.n_decisions + 1
            if deadline is not None and n_decisions % 1024 == 0:
                if time.perf_counter() > deadline:
                    self.qhead = qhead
                    self.n_propagations += qhead - qhead0
                    raise SolverTimeout()
            self.n_decisions = n_decisions
            # every unassigned variable has an entry with its current key
            heap = self._heap
            activity = self.activity
            while True:
                negact, v = heapq.heappop(heap)
                if assigns[v] == 0 and -negact == activity[v]:
                    break
            trail_lim.append(n_trail)
            dl += 1
            if self.phase[v]:
                assigns[v] = 1
                push_trail(v)
            else:
                assigns[v] = -1
                push_trail(-v)
            level[v] = dl
            reason[v] = None
            n_trail += 1
        self.qhead = qhead
        self.n_propagations += qhead - qhead0
        return failed

    # --- conflict analysis -------------------------------------------------------

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        learnt: list[int] = [0]
        seen = self._seen
        level = self.level
        reason = self.reason
        trail = self.trail
        cur_level = len(self.trail_lim)
        path_c = 0
        p: int | None = None
        idx = len(trail) - 1
        c: list[int] | None = confl
        while True:
            assert c is not None
            self._cla_bump(c)
            start = 0 if p is None else 1
            for q in c[start:]:
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    self._var_bump(v)
                    if level[v] >= cur_level:
                        path_c += 1
                    else:
                        learnt.append(q)
            p = trail[idx]
            while not seen[p if p > 0 else -p]:
                idx -= 1
                p = trail[idx]
            idx -= 1
            v = p if p > 0 else -p
            c = reason[v]
            seen[v] = 0
            path_c -= 1
            if path_c == 0:
                break
        learnt[0] = -p
        # local minimization: drop literals whose whole reason is already seen
        tail = [q if q > 0 else -q for q in learnt[1:]]
        for v in tail:
            seen[v] = 1
        kept = [learnt[0]]
        for q, v in zip(learnt[1:], tail):
            r = reason[v]
            if r is None:
                kept.append(q)
                continue
            for other in r[1:]:
                ov = other if other > 0 else -other
                if not seen[ov] and level[ov] > 0:
                    kept.append(q)
                    break
        for v in tail:
            seen[v] = 0
        learnt = kept
        if len(learnt) == 1:
            bt = 0
        else:
            # move the highest-level tail literal to position 1
            max_i = 1
            q = learnt[1]
            max_lvl = level[q if q > 0 else -q]
            for i in range(2, len(learnt)):
                q = learnt[i]
                lv = level[q if q > 0 else -q]
                if lv > max_lvl:
                    max_i = i
                    max_lvl = lv
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt = max_lvl
        return learnt, bt

    def _analyze_final(self, failed: int) -> frozenset[int]:
        """Core of assumption literals implying the failure of `failed`."""
        core = {failed}
        if not self.trail_lim:
            return frozenset(core)
        seen = self._seen
        level = self.level
        reason = self.reason
        fv = failed if failed > 0 else -failed
        seen[fv] = 1
        for lit in reversed(self.trail[self.trail_lim[0]:]):
            v = lit if lit > 0 else -lit
            if not seen[v]:
                continue
            r = reason[v]
            if r is None:
                # a decision below the failed assumption: an assumption itself
                core.add(lit)
            else:
                for q in r[1:]:
                    qv = q if q > 0 else -q
                    if level[qv] > 0:
                        seen[qv] = 1
            seen[v] = 0
        seen[fv] = 0
        return frozenset(core)

    # --- learnt clause management --------------------------------------------

    def _record_learnt(self, clause: list[int]) -> None:
        if len(clause) > 1:
            self.learnts.append(clause)
            self._learnt_seq += 1
            self._learnt_meta[id(clause)] = [self.cla_inc, self._learnt_seq]
            self._watch(clause)
        self._unchecked_enqueue(clause[0], clause if len(clause) > 1 else None)

    def _reduce_db(self) -> None:
        locked: set[int] = set()
        for v in range(1, self.nvars + 1):
            r = self.reason[v]
            if r is not None:
                locked.add(id(r))
        meta = self._learnt_meta
        candidates = [c for c in self.learnts if len(c) > 2 and id(c) not in locked]
        candidates.sort(key=lambda c: (meta[id(c)][0], -meta[id(c)][1]))
        drop = self._detach(candidates[: len(candidates) // 2])
        for i in drop:
            del meta[i]
        self.learnts = [c for c in self.learnts if id(c) not in drop]

    def simplify(self) -> None:
        """Remove every problem and learnt clause that a level-0 literal
        satisfies, as MiniSat's `simplifyDB` does. Such a clause can never
        become unit, conflict, or be the reason of a level>0 literal, so
        removing it changes no trail, model, core or counter; it only stops
        propagation from visiting it. Each removed clause leaves the two
        watch lists it sits in; the other watchers keep their order. FALSE
        literals stay in the surviving clauses, so the watch search visits
        the same literals in the same order as before. A no-op when no
        literal was fixed since the last pass.

        Level-0 variables may keep a `reason` that points to a removed
        clause. Nothing reads it: `_analyze`, its minimization and
        `_analyze_final` only follow reasons of level>0 variables, and
        `_reduce_db` only drops clauses that are still in `learnts`."""
        assert not self.trail_lim, "simplify runs at decision level 0"
        if not self.ok or len(self.trail) == self._simp_assigns:
            return
        # the literals fixed since the last pass: `add_clause` stores no
        # clause satisfied at level 0 and a learnt holds no level-0 literal,
        # so no stored clause holds a literal fixed before that pass
        true_lits = set(self.trail[max(self._simp_assigns, 0):])
        dropped: list[list[int]] = []

        def keep(db: list[list[int]]) -> list[list[int]]:
            kept = []
            for c in db:
                if true_lits.isdisjoint(c):
                    kept.append(c)
                else:
                    dropped.append(c)
            return kept

        self.clauses = keep(self.clauses)
        learnts = keep(self.learnts)
        removed = self._detach(dropped)
        if len(learnts) < len(self.learnts):
            meta = self._learnt_meta
            for c in self.learnts:
                if id(c) in removed:
                    del meta[id(c)]
            self.learnts = learnts
        self._simp_assigns = len(self.trail)
        db_lits = sum(map(len, self.clauses)) + sum(map(len, self.learnts))
        self._simp_due = self.n_propagations + db_lits

    # --- main search -----------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        deadline: float | None = None,
    ) -> SatResult:
        t0 = time.perf_counter()
        self.n_solves += 1
        try:
            return self._solve(list(assumptions), deadline)
        finally:
            self._cancel_until(0)
            self.solve_time_s += time.perf_counter() - t0

    def _solve(self, assumptions: list[int], deadline: float | None) -> SatResult:
        nvars = self.nvars
        if assumptions and (
            min(assumptions) < -nvars or max(assumptions) > nvars or 0 in assumptions
        ):
            for lit in assumptions:
                if not 0 < (lit if lit > 0 else -lit) <= nvars:
                    raise ValueError(f"assumption {lit} uses an unallocated variable")
        if not self.ok:
            return SatResult(False, None, frozenset())
        if self.qhead < len(self.trail) and self._propagate() is not None:
            self.ok = False
            return SatResult(False, None, frozenset())
        # MiniSat's budget: simplify again once the propagations since the
        # last pass reach the literal count of the clause database
        if self.n_propagations >= self._simp_due:
            self.simplify()
        propagate = self._propagate
        conflicts_here = 0
        restart_idx = 1
        restart_budget = 100  # 100 * _luby(1)
        while True:
            confl = propagate(assumptions, deadline)
            if confl is None:
                return SatResult(True, list(self.assigns), None)
            if confl.__class__ is int:
                return SatResult(False, None, self._analyze_final(confl))
            self.n_conflicts += 1
            conflicts_here += 1
            if deadline is not None and conflicts_here % 256 == 0:
                if time.perf_counter() > deadline:
                    raise SolverTimeout()
            if not self.trail_lim:
                self.ok = False
                return SatResult(False, None, frozenset())
            learnt, bt = self._analyze(confl)
            # never backjump into the middle of unfinished assumption
            # pushing: `_propagate` re-pushes what got popped
            self._cancel_until(bt)
            self._record_learnt(learnt)
            self._var_decay_apply()
            self.cla_inc /= self.cla_decay
            if len(self.learnts) >= self.max_learnts:
                self._reduce_db()
                self.max_learnts *= 1.3
            if conflicts_here >= restart_budget:
                # `conflicts_here` restarts from 0, so check the deadline
                # here too: the % 256 check above may never come round
                if deadline is not None and time.perf_counter() > deadline:
                    raise SolverTimeout()
                conflicts_here = 0
                restart_idx += 1
                restart_budget = 100 * _luby(restart_idx)
                self._cancel_until(0)


def _luby(i: int) -> int:
    """The i-th term (from 1) of the Luby restart sequence
    1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..., as MiniSat's `luby` computes it."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


# --- Tseitin encoding ---------------------------------------------------------


def tseitin_clauses(alloc, formula: Formula) -> tuple[int, list[Clause]]:
    """Encode `formula` into defining clauses over fresh variables from
    `alloc` (anything with fresh_var). Returns (root literal, clauses).

    Plain variables and negations pass through without fresh variables. For
    every total assignment of the original variables there is exactly one
    extension to the fresh variables satisfying the clauses, and it assigns
    the root literal the truth value of the formula.
    """
    out: list[Clause] = []
    cache: dict[Formula, int] = {}

    def emit(lits: list[int]) -> None:
        seen: set[int] = set(lits)
        if any(-l in seen for l in seen):
            return  # tautological defining clause constrains nothing
        out.append(Clause(lits))

    def enc(f: Formula) -> int:
        if f in cache:
            return cache[f]
        lit = _enc(f)
        cache[f] = lit
        return lit

    def _enc(f: Formula) -> int:
        match f:
            case FVar(lit):
                return lit
            case FNot(child):
                return -enc(child)
            case FAnd(children):
                if not children:
                    z = alloc.fresh_var()
                    out.append(Clause([z]))
                    return z
                lits = [enc(c) for c in children]
                if len(lits) == 1:
                    return lits[0]
                z = alloc.fresh_var()
                for l in lits:
                    emit([-z, l])
                emit([z] + [-l for l in lits])
                return z
            case FOr(children):
                if not children:
                    z = alloc.fresh_var()
                    out.append(Clause([-z]))
                    return z
                lits = [enc(c) for c in children]
                if len(lits) == 1:
                    return lits[0]
                z = alloc.fresh_var()
                for l in lits:
                    emit([z, -l])
                emit([-z] + lits)
                return z
        raise TypeError(f"not a formula: {f!r}")

    root = enc(formula)
    return root, out


# --- totalizer -------------------------------------------------------------------


@dataclass(frozen=True)
class CountingLadder:
    """Unary counting outputs over a fixed literal list: outputs[j-1] is
    forced true once j of the counted literals are true, and is otherwise
    free. Bounds are imposed per query by assuming output negations;
    nothing is asserted here."""

    counted: tuple[int, ...]
    outputs: tuple[int, ...]

    def at_most_assumptions(self, bound: int) -> tuple[int, ...]:
        """Assumption literals imposing count <= bound (release-style: all
        outputs above the bound are negated). Under them the clauses are
        satisfiable exactly when at most `bound` literals are true."""
        if bound < 0:
            raise ValueError("bound must be >= 0")
        return tuple(-o for o in self.outputs[bound:])


def totalizer_clauses(alloc, lits: Sequence[int]) -> tuple[CountingLadder, list[Clause]]:
    """Totalizer (Bailleux & Boufkhad, CP 2003) with the upward direction
    only: outputs[j-1] is forced true once j counted literals are true. A
    leaf is a counted literal; a node splits its literals at ceil(n/2) and
    sums its children's unary outputs a and b into r by the clauses
    a_i & b_j -> r_{i+j}, with a_0 = b_0 = true. Bounds are only ever
    imposed by assuming outputs false, and against a false output only the
    upward clauses prune, so the downward half (r_{i+j+1} -> a_{i+1} |
    b_{j+1}), which would make the outputs functionally determined, is
    left out (the one-polarity argument of Plaisted & Greenbaum, JSC 1986).
    The clauses are total: every assignment of the counted literals extends
    to the outputs (all true, say). O(n log n) auxiliary variables, where a
    sequential counter takes n(n+1)/2. The counted literals must be over
    distinct variables."""
    out: list[Clause] = []

    def node(part: Sequence[int]) -> list[int]:
        if len(part) == 1:
            return [part[0]]
        half = (len(part) + 1) // 2
        a = node(part[:half])
        b = node(part[half:])
        r = [alloc.fresh_var() for _ in range(len(part))]
        for i in range(len(a) + 1):
            for j in range(len(b) + 1):
                if i + j >= 1:
                    up = [-a[i - 1]] if i else []
                    if j:
                        up.append(-b[j - 1])
                    up.append(r[i + j - 1])
                    out.append(Clause(up))
        return r

    outputs = node(lits) if lits else []
    return CountingLadder(tuple(lits), tuple(outputs)), out

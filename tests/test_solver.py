"""Solver, Tseitin, and totalizer tests against brute-force oracles."""

import contextlib
import heapq
import signal
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import ipdr.certify
from ipdr.cnf import Cube, FAnd, FNot, FOr, FVar, var_of
from ipdr.incremental import ipdr_constrain, ipdr_relax
from ipdr.pebbling import encode_pebbling, load_dag
from ipdr.peterson import encode_peterson
from ipdr.solver import (
    FALSE,
    TRUE,
    UNDEF,
    SatResult,
    Solver,
    SolverTimeout,
    VarPool,
    _luby,
    totalizer_clauses,
    model_cube,
    tseitin_clauses,
)

from oracles import NoSimplify, cnf_satisfiable, all_assignments, clause_true, count_true, eval_formula


def make_solver(nvars, clauses, seed=0):
    s = Solver(seed=seed)
    s.fresh_vars(nvars)
    for c in clauses:
        s.add_clause(c)
    return s


# --- basic behaviour ---------------------------------------------------------


def test_unit_contradiction_empty_core():
    s = Solver()
    x = s.fresh_var()
    s.add_clause([x])
    s.add_clause([-x])
    r = s.solve([])
    assert not r.sat
    assert r.core == frozenset()


def test_assumption_core_is_subset():
    s = Solver()
    x, y = s.fresh_vars(2)
    s.add_clause([-x, y])
    r = s.solve([x, -y])
    assert not r.sat
    assert r.core <= {x, -y}
    # the core itself must be unsatisfiable together with the clauses
    assert not s.solve(sorted(r.core)).sat


def test_sat_model_is_total():
    s = Solver()
    x, y, z = s.fresh_vars(3)
    s.add_clause([x, y])
    r = s.solve([-x])
    assert r.sat
    assert r.value(y) is True
    assert r.value(-x) is True
    cube = model_cube(r, [x, y, z])
    assert len(cube) == 3


def test_unallocated_variable_rejected():
    s = Solver()
    s.fresh_var()
    with pytest.raises(ValueError):
        s.add_clause([2])
    with pytest.raises(ValueError):
        s.solve([5])


@pytest.mark.parametrize("bad", [0, 4, -4])
def test_out_of_range_assumption_named_in_the_error(bad):
    s = Solver()
    s.fresh_vars(3)
    with pytest.raises(ValueError, match=f"assumption {bad} "):
        s.solve([1, -2, bad, 3])


def test_model_cube_rejects_an_unassigned_variable():
    r = SatResult(True, [UNDEF, TRUE, UNDEF, FALSE], None)
    assert model_cube(r, [3, 1]) == Cube([1, -3])
    with pytest.raises(ValueError, match="variable 2 unassigned"):
        model_cube(r, [1, 2, 3])


def test_canonical_subcube_is_an_ordinary_cube():
    cube = Cube([5, -3, 1, 7])
    sub = Cube._canonical_tuple(tuple(l for l in cube.lits if l != 5))
    assert sub == Cube([7, 1, -3]) and hash(sub) == hash(Cube([1, -3, 7]))
    assert sub.lits == (1, -3, 7) and {sub: 1}[Cube([-3, 7, 1])] == 1


def test_contradictory_assumptions():
    s = Solver()
    x = s.fresh_var()
    s.add_clause([x, -x])  # tautology, dropped
    r = s.solve([x, -x])
    assert not r.sat
    assert r.core <= {x, -x} and len(r.core) >= 1


def test_incremental_reuse_after_unsat_assumptions():
    s = Solver()
    x, y = s.fresh_vars(2)
    s.add_clause([x, y])
    assert not s.solve([-x, -y]).sat
    assert s.solve([-x]).sat
    s.add_clause([-y])
    assert s.solve([]).sat
    assert not s.solve([-x]).sat


# --- oracle equivalence on random CNFs ----------------------------------------


cnf_strategy = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(
                st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v])),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=12,
        ),
    )
)


@settings(max_examples=120, deadline=None)
@given(cnf_strategy, st.integers(0, 3))
def test_solver_matches_bruteforce(cnf, seed):
    n, clauses = cnf
    clauses = [c for c in clauses if not _tautological(c)]
    expected = cnf_satisfiable(n, clauses)
    s = make_solver(n, clauses, seed=seed)
    r = s.solve([])
    assert r.sat == (expected is not None)
    if r.sat:
        asg = {v: r.value(v) for v in range(1, n + 1)}
        assert all(clause_true(c, asg) for c in clauses)


def _tautological(c):
    lits = set(c)
    return any(-l in lits for l in lits)


@settings(max_examples=80, deadline=None)
@given(cnf_strategy, st.data())
def test_solver_with_assumptions_matches_bruteforce(cnf, data):
    n, clauses = cnf
    clauses = [c for c in clauses if not _tautological(c)]
    k = data.draw(st.integers(0, n))
    chosen = data.draw(st.permutations(range(1, n + 1)))[:k]
    signs = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    assumptions = [v if b else -v for v, b in zip(chosen, signs)]
    fixed = {v: b for v, b in zip(chosen, signs)}
    expected = cnf_satisfiable(n, clauses, fixed=fixed)
    s = make_solver(n, clauses)
    r = s.solve(assumptions)
    assert r.sat == (expected is not None)
    if not r.sat:
        assert r.core <= set(assumptions)
        # core is sound: assuming just the core is still unsat
        assert not s.solve(sorted(r.core)).sat
    else:
        for a in assumptions:
            assert r.value(a) is True


def test_determinism_same_seed():
    n = 6
    clauses = [[1, 2, -3], [-1, 4], [3, -4, 5], [-2, -5, 6], [-6, 1], [2, 3, 4]]
    runs = []
    for _ in range(2):
        s = make_solver(n, clauses, seed=7)
        r = s.solve([])
        runs.append((r.sat, tuple(r._assigns), s.n_conflicts, s.n_propagations))
    assert runs[0] == runs[1]


def test_monotone_under_more_assumptions():
    # unsat stays unsat when assumptions are extended
    s = Solver()
    x, y, z = s.fresh_vars(3)
    s.add_clause([x, y])
    s.add_clause([-y, z])
    base = [-x, -z]
    assert not s.solve(base).sat
    assert not s.solve(base + [y]).sat


# --- level-0 simplification ----------------------------------------------------


def _watch_ids(s):
    return [[id(c) for c in wl] for wl in s.watches]


def test_simplify_drops_retired_guard_clauses_and_keeps_watch_order():
    s = Solver()
    # pigeonhole 4 into 3 behind guard g, interleaved with unguarded clauses
    # over the same literals so that watch lists mix dropped and kept clauses
    p = [s.fresh_vars(3) for _ in range(4)]
    y = s.fresh_var()
    g = s.fresh_var()
    for i in range(4):
        s.add_clause([p[i][0], p[(i + 1) % 4][1], y])
        s.add_clause([-g, *p[i]])
        s.add_clause([p[i][0], p[(i + 2) % 4][2], -y])
    for j in range(3):
        for i in range(4):
            for k in range(i + 1, 4):
                s.add_clause([-g, -p[i][j], -p[k][j]])
    assert not s.solve([g]).sat
    s.add_clause([-g])  # retire the guard
    guarded = [c for c in s.clauses if -g in c]
    satisfied_learnts = [c for c in s.learnts if -g in c]
    assert guarded and satisfied_learnts
    before = _watch_ids(s)

    s.simplify()

    gone = {id(c) for c in guarded + satisfied_learnts}
    assert all(-g not in c for c in s.clauses + s.learnts)
    assert not gone & {cid for wl in _watch_ids(s) for cid in wl}
    assert set(s._learnt_meta) == {id(c) for c in s.learnts}
    assert len(s.clauses) == 8
    # every survivor is watched exactly by its first two literals, and every
    # watch list is the old one with the dropped clauses filtered out
    kept = {id(c) for c in s.clauses + s.learnts}
    after = _watch_ids(s)
    assert after == [[cid for cid in wl if cid in kept] for wl in before]
    for c in s.clauses + s.learnts:
        homes = [i for i, wl in enumerate(after) for cid in wl if cid == id(c)]
        assert sorted(homes) == sorted([s._lit_idx(c[0]), s._lit_idx(c[1])])


def test_simplify_is_a_no_op_without_new_level_0_literals():
    s = Solver()
    x, y, g = s.fresh_vars(3)
    s.add_clause([-g, x, y])
    s.simplify()
    assert len(s.clauses) == 1
    s.add_clause([-g])
    s.simplify()
    assert s.clauses == []
    s.add_clause([x, y])
    clauses = s.clauses
    s.simplify()  # nothing fixed since the last pass: no sweep at all
    assert s.clauses is clauses and clauses == [[x, y]]


@st.composite
def incremental_scripts(draw):
    """Random incremental use: plain units and 3-clauses, guarded 3-clauses,
    guards retired by a unit, and solves under the live guards plus random
    assumptions. Dense enough that about a third of the scripts learn
    clauses."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(5, 9))

    def lits(k):
        return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)]

    ops = []
    for _ in range(draw(st.integers(1, 80))):
        r = rng.random()
        if r < 0.04:
            ops.append(("add", lits(1)))
        elif r < 0.15:
            ops.append(("add", lits(3)))
        elif r < 0.6:
            ops.append(("guarded", lits(3)))
        elif r < 0.75:
            ops.append(("retire", rng.randrange(100)))
        else:
            assumed = lits(rng.randint(0, 2))
            if assumed and rng.random() < 0.3:
                assumed.append(assumed[0])  # already true when pushed again
            ops.append(("solve", assumed))
    return n, ops


def _run_script(cls, n, ops):
    s = cls(seed=0)
    s.fresh_vars(n)
    guards: list[int] = []
    out = []
    for kind, arg in ops:
        if kind == "add":
            out.append(s.add_clause(arg))
        elif kind == "guarded":
            guards.append(s.fresh_var())
            out.append(s.add_clause([-guards[-1], *arg]))
        elif kind == "retire" and guards:
            out.append(s.add_clause([-guards.pop(arg % len(guards))]))
        elif kind == "solve":
            r = s.solve([*guards, *arg])
            model = [r.value(v) for v in range(1, s.nvars + 1)] if r.sat else None
            out.append((r.sat, model, r.core))
        out.append((s.n_propagations, s.n_conflicts, s.n_decisions))
    return out, s


def _solve_answers(out):
    """The (sat, model, core) records of a `_run_script` output."""
    return [r for r in out if isinstance(r, tuple) and isinstance(r[0], bool)]


class SimplifyChecked(Solver):
    """Checks after every `simplify` pass that no stored clause or learnt
    holds a literal true at level 0, which is when the pass is exact."""

    def simplify(self) -> None:
        super().simplify()
        assigns = self.assigns
        for c in self.clauses + self.learnts:
            assert all((assigns[l] if l > 0 else -assigns[-l]) != TRUE for l in c), c


@settings(max_examples=120, deadline=None)
@given(incremental_scripts())
def test_simplify_changes_no_answer_and_no_counter(script):
    n, ops = script
    with_simplify, s = _run_script(SimplifyChecked, n, ops)
    without, ref = _run_script(NoSimplify, n, ops)
    assert with_simplify == without
    assert len(s.clauses) <= len(ref.clauses)


# --- the propagation hot loop against a plain reference ----------------------------


class ReferenceSolver(Solver):
    """The solver with a plain `_propagate`, `_cancel_until`, `_solve`,
    `_var_bump`, `_rebuild_heap` and `_reduce_db`: a `while` loop over each
    watch list, one `_unchecked_enqueue` call per assigned literal, `var_of`
    on each literal, a fresh (-activity, v) tuple for each heap entry, a
    decision step that pops the heap until a live entry comes up or the heap
    is empty, so a SAT answer drains the heap, and a reduction that scans
    both watch lists of each dropped clause for it. Its `_solve` keeps
    propagation, assumption pushes and decisions apart, as MiniSat does,
    where `Solver._propagate` pushes and decides itself. It ignores
    deadlines. The fast versions in `Solver` must make exactly the same
    search: the same trail, decisions, watch-list order, literal positions
    and heap."""

    def _unwatch(self, clause):
        for lit in (clause[0], clause[1]):
            wl = self.watches[self._lit_idx(lit)]
            for i, c in enumerate(wl):
                if c is clause:
                    wl.pop(i)
                    break

    def _reduce_db(self):
        locked = set()
        for v in range(1, self.nvars + 1):
            r = self.reason[v]
            if r is not None:
                locked.add(id(r))
        meta = self._learnt_meta
        candidates = [c for c in self.learnts if len(c) > 2 and id(c) not in locked]
        candidates.sort(key=lambda c: (meta[id(c)][0], -meta[id(c)][1]))
        drop = set()
        for c in candidates[: len(candidates) // 2]:
            drop.add(id(c))
            self._unwatch(c)
            del meta[id(c)]
        self.learnts = [c for c in self.learnts if id(c) not in drop]

    def _propagate(self):
        assigns = self.assigns
        watches = self.watches
        trail = self.trail
        confl = None
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            self.n_propagations += 1
            neg_p = -p
            wl = watches[2 * neg_p if neg_p > 0 else -2 * neg_p + 1]
            i = 0
            j = 0
            n = len(wl)
            while i < n:
                clause = wl[i]
                i += 1
                if clause[0] == neg_p:
                    clause[0] = clause[1]
                    clause[1] = neg_p
                first = clause[0]
                val = assigns[first] if first > 0 else -assigns[-first]
                if val == TRUE:
                    wl[j] = clause
                    j += 1
                    continue
                found = False
                for k in range(2, len(clause)):
                    lk = clause[k]
                    vk = assigns[lk] if lk > 0 else -assigns[-lk]
                    if vk != FALSE:
                        clause[1] = lk
                        clause[k] = neg_p
                        watches[2 * lk if lk > 0 else -2 * lk + 1].append(clause)
                        found = True
                        break
                if found:
                    continue
                wl[j] = clause
                j += 1
                if val == FALSE:
                    while i < n:
                        wl[j] = wl[i]
                        j += 1
                        i += 1
                    confl = clause
                    break
                self._unchecked_enqueue(first, clause)
            del wl[j:]
            if confl is not None:
                return confl
        return None

    def _cancel_until(self, lvl):
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        for i in range(len(self.trail) - 1, bound - 1, -1):
            lit = self.trail[i]
            v = var_of(lit)
            self.phase[v] = lit > 0
            self.assigns[v] = UNDEF
            self.reason[v] = None
            heapq.heappush(self._heap, (-self.activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = bound
        if len(self._heap) > 4 * self.nvars + 64:
            self._rebuild_heap()

    def _rebuild_heap(self):
        self._heap[:] = [
            (-self.activity[v], v) for v in range(1, self.nvars + 1) if self.assigns[v] == UNDEF
        ]
        heapq.heapify(self._heap)

    def _var_bump(self, v):
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for i in range(1, self.nvars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_heap()
        elif self.assigns[v] == UNDEF:
            heapq.heappush(self._heap, (-self.activity[v], v))

    def _solve(self, assumptions, deadline):
        for lit in assumptions:
            if not 0 < var_of(lit) <= self.nvars:
                raise ValueError(f"assumption {lit} uses an unallocated variable")
        if not self.ok:
            return SatResult(False, None, frozenset())
        if self._propagate() is not None:
            self.ok = False
            return SatResult(False, None, frozenset())
        if self.n_propagations >= self._simp_due:
            self.simplify()
        conflicts_here = 0
        restart_idx = 1
        while True:
            confl = self._propagate()
            if confl is not None:
                self.n_conflicts += 1
                conflicts_here += 1
                if not self.trail_lim:
                    self.ok = False
                    return SatResult(False, None, frozenset())
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                self._record_learnt(learnt)
                self._var_decay_apply()
                self.cla_inc /= self.cla_decay
                if len(self.learnts) >= self.max_learnts:
                    self._reduce_db()
                    self.max_learnts *= 1.3
                if conflicts_here >= 100 * _luby(restart_idx):
                    conflicts_here = 0
                    restart_idx += 1
                    self._cancel_until(0)
                continue
            if len(self.trail_lim) < len(assumptions):
                p = assumptions[len(self.trail_lim)]
                val = self.assigns[var_of(p)] * (1 if p > 0 else -1)
                if val == FALSE:
                    return SatResult(False, None, self._analyze_final(p))
                self.trail_lim.append(len(self.trail))
                if val == UNDEF:
                    self._unchecked_enqueue(p, None)
                continue
            v = 0
            while self._heap:
                negact, cand = heapq.heappop(self._heap)
                if self.assigns[cand] == UNDEF and -negact == self.activity[cand]:
                    v = cand
                    break
            if v == 0:
                return SatResult(True, list(self.assigns), None)
            self.n_decisions += 1
            self.trail_lim.append(len(self.trail))
            self._unchecked_enqueue(v if self.phase[v] else -v, None)


def _watch_state(s):
    return [[list(c) for c in wl] for wl in s.watches]


@settings(max_examples=120, deadline=None)
@given(incremental_scripts())
def test_propagation_makes_the_reference_search(script):
    n, ops = script
    fast, s = _run_script(Solver, n, ops)
    plain, ref = _run_script(ReferenceSolver, n, ops)
    assert fast == plain
    assert _watch_state(s) == _watch_state(ref)
    assert s._heap == ref._heap
    assert s._key == [(-a, v) for v, a in enumerate(s.activity)]


def test_already_true_assumptions_make_the_reference_search():
    # 2 is implied by 1, 3 is fixed at level 0, and 1 and 3 come twice
    ops = [
        ("add", [-1, 2]),
        ("add", [3]),
        ("guarded", [-2, 4, 5]),
        ("solve", [1, 2, 3, 1, -4]),
        ("solve", [3, 3, -5, 1]),
        ("solve", [3, 1, 2, -4, -5]),
    ]
    fast, s = _run_script(Solver, 6, ops)
    plain, ref = _run_script(ReferenceSolver, 6, ops)
    assert fast == plain
    assert [sat for sat, _, _ in _solve_answers(fast)] == [True, True, False]
    assert _watch_state(s) == _watch_state(ref) and s._heap == ref._heap


def test_assumption_falsified_by_earlier_assumptions_makes_the_reference_search():
    # 1 implies 2 and 2 implies -3, so pushing 3 after 1 finds it false;
    # 4 sits between them and is no part of the core
    ops = [("add", [-1, 2]), ("add", [-2, -3]), ("solve", [1, 4, 3]), ("solve", [4, 3])]
    fast, s = _run_script(Solver, 5, ops)
    plain, ref = _run_script(ReferenceSolver, 5, ops)
    assert fast == plain
    assert [(sat, core) for sat, _, core in _solve_answers(fast)] == [
        (False, frozenset({1, 3})), (True, None)]
    assert _watch_state(s) == _watch_state(ref) and s._heap == ref._heap


def test_conflict_on_an_assumption_level_makes_the_reference_search():
    # assuming 4 and then 1 implies 2 and 3, which falsify the last clause:
    # the conflict comes while the level of assumption 1 propagates, the
    # learnt clause (-1, -4) backjumps to the level of 4 and makes 1 false
    ops = [
        ("add", [-1, 2]),
        ("add", [-1, 3]),
        ("add", [-2, -3, -4]),
        ("solve", [4, 1]),
        ("solve", [4]),
        ("solve", [1]),
    ]
    fast, s = _run_script(Solver, 5, ops)
    plain, ref = _run_script(ReferenceSolver, 5, ops)
    assert fast == plain
    assert [(sat, core) for sat, _, core in _solve_answers(fast)] == [
        (False, frozenset({1, 4})), (True, None), (True, None)]
    assert s.n_conflicts == ref.n_conflicts == 1
    assert s.learnts == ref.learnts and [sorted(c) for c in s.learnts] == [[-4, -1]]
    assert _watch_state(s) == _watch_state(ref) and s._heap == ref._heap


def _free_chain(n):
    """A satisfiable formula that the all-false saved phases satisfy as it
    is decided: n decisions and no propagation or conflict."""
    s = Solver(seed=0)
    xs = s.fresh_vars(n)
    for a, b in zip(xs, xs[1:]):
        s.add_clause([-a, -b])
    return s


def test_decision_deadline_fires_without_conflicts():
    s = _free_chain(1100)
    with time_limit(30), pytest.raises(SolverTimeout):
        s.solve(deadline=time.perf_counter() - 1.0)
    assert s.n_conflicts == 0


def test_solver_answers_after_a_decision_timeout():
    s = _free_chain(1100)
    with pytest.raises(SolverTimeout):
        s.solve(deadline=time.perf_counter() - 1.0)
    assert s.n_decisions == 1023  # the 1024th decision is where it stopped
    with time_limit(30):
        r = s.solve()
    assert r.sat and not any(r.value(v) for v in range(1, 1101))
    assert s.n_decisions == 1023 + 1100


def _moved_watch_conflict(cls):
    """A solver whose next `_propagate` assigns x false and then walks the
    watch list of x: the first two clauses move their watch to a free
    literal, the third has both other literals false and conflicts, and a
    fourth comes after it."""
    s = cls(seed=0)
    x, u, w, a, y1, z1, y2, z2, y4, z4 = s.fresh_vars(10)
    s.add_clause([x, y1, z1])
    s.add_clause([x, y2, z2])
    s.add_clause([x, u, w])
    s.add_clause([x, y4, z4])
    s.add_clause([-a, -x])
    s.add_clause([-a, -u])
    for lit in (-w, a):  # two decision levels, as two assumptions make them
        s.trail_lim.append(len(s.trail))
        s._unchecked_enqueue(lit, None)
    return s


def test_conflict_after_moved_watches_keeps_the_rest_of_the_watch_list():
    s = _moved_watch_conflict(Solver)
    ref = _moved_watch_conflict(ReferenceSolver)
    confl = s._propagate()
    ref_confl = ref._propagate()
    assert confl is s.clauses[2] and ref_confl is ref.clauses[2]
    assert confl == ref_confl == [2, 1, 3]  # u, x, w: x swapped to position 1
    # both moved clauses left the watch list of x; the one after the
    # conflict stayed
    assert [list(c) for c in s.watches[s._lit_idx(1)]] == [[2, 1, 3], [1, 9, 10]]
    assert s.trail == ref.trail == [-3, 4, -1, -2]
    assert (s.qhead, s.n_propagations) == (ref.qhead, ref.n_propagations)
    assert _watch_state(s) == _watch_state(ref)


class ReductionChecked:
    """Checks at each `_reduce_db` that no clause it drops is the reason of
    an assigned variable or still sits in a watch list."""

    reductions = 0
    dropped = 0

    def _reduce_db(self):
        reasons = {id(r) for r in self.reason if r is not None}
        before = {id(c) for c in self.learnts}
        super()._reduce_db()
        dropped = before - {id(c) for c in self.learnts}
        assert not dropped & reasons
        assert not dropped & {id(c) for wl in self.watches for c in wl}
        self.reductions += 1
        self.dropped += len(dropped)


class ReducingSolver(ReductionChecked, Solver):
    pass


class ReducingReference(ReductionChecked, ReferenceSolver):
    pass


def _reduced_pigeonhole(cls):
    """PHP(6,5) with one activation literal per pigeon and a learnt-clause
    limit of 20, so that `_reduce_db` runs many times in one search."""
    s = cls(seed=0)
    s.max_learnts = 20
    p = [s.fresh_vars(5) for _ in range(6)]
    acts = s.fresh_vars(6)
    for act, row in zip(acts, p):
        s.add_clause([-act, *row])
    for j in range(5):
        for a in range(6):
            for b in range(a + 1, 6):
                s.add_clause([-p[a][j], -p[b][j]])
    out = []
    for assumptions in (acts, acts[:5], acts[1:]):
        r = s.solve(assumptions)
        model = [r.value(v) for v in range(1, s.nvars + 1)] if r.sat else None
        out.append((r.sat, model, r.core, s.n_propagations, s.n_conflicts))
    return out, s


def test_learnt_clause_reduction_makes_the_reference_search():
    fast, s = _reduced_pigeonhole(ReducingSolver)
    plain, ref = _reduced_pigeonhole(ReducingReference)
    assert [sat for sat, *_ in fast] == [False, True, True]
    assert fast == plain
    assert s.reductions == ref.reductions > 0 and s.dropped == ref.dropped > 0
    assert s.learnts == ref.learnts
    assert _watch_state(s) == _watch_state(ref)
    assert s._heap == ref._heap


def test_propagation_leaves_the_sweeps_unchanged(monkeypatch):
    diamond = load_dag(str(Path(__file__).parent.parent / "benchmarks" / "diamond.dag"))

    def sweeps(cls):
        made = []

        class Recording(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(ipdr.certify, "Solver", Recording)
        outs = [
            ipdr_relax(encode_peterson(2, [0, 1, 2])),
            ipdr_constrain(encode_pebbling(diamond, [1, 2, 3, 4], "constraining")),
        ]
        rows = [
            ([(r.instance_label, r.verdict_kind, r.sat_calls) for r in o.per_instance_stats],
             o.verdict)
            for o in outs
        ]
        return rows, [(s.n_solves, s.n_propagations, s.n_conflicts) for s in made]

    fast = sweeps(Solver)
    plain = sweeps(ReferenceSolver)
    assert sum(c for _, _, c in plain[1]) > 0
    assert fast == plain


# --- restarts ------------------------------------------------------------------------


@contextlib.contextmanager
def time_limit(seconds):
    """Fail with TimeoutError instead of hanging past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def pigeonhole(pigeons, holes):
    s = Solver()
    p = [s.fresh_vars(holes) for _ in range(pigeons)]
    for row in p:
        s.add_clause(row)
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                s.add_clause([-p[a][j], -p[b][j]])
    return s


def test_luby_sequence():
    with time_limit(5):
        prefix = [_luby(i) for i in range(1, 32)]
    assert prefix == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
                      1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 16]


def test_search_goes_on_past_the_first_restart():
    s = pigeonhole(6, 5)
    with time_limit(30):
        r = s.solve()
    assert not r.sat
    assert s.n_conflicts > 100  # the first restart comes at conflict 100


def test_restart_checks_the_deadline():
    s = pigeonhole(8, 7)
    with time_limit(30), pytest.raises(SolverTimeout):
        s.solve(deadline=time.perf_counter() - 1.0)
    # the first deadline check that comes round is the one at the first
    # restart; the per-256-conflict and per-1024-decision ones come later
    assert s.n_conflicts == 100


# --- Tseitin -------------------------------------------------------------------


def add_clauses(s, clauses):
    for c in clauses:
        s.add_clause(c.lits)


def test_tseitin_passthrough():
    s = Solver()
    x = s.fresh_var()
    assert tseitin_clauses(s, FVar(x)) == (x, [])
    assert tseitin_clauses(s, FNot(FVar(x))) == (-x, [])
    assert tseitin_clauses(s, FNot(FNot(FVar(x)))) == (x, [])
    assert s.nvars == 1


def test_tseitin_example_conjunction():
    # root of (x1 and not x2) is satisfiable together with the defining
    # clauses exactly when x1=1, x2=0
    s = Solver()
    x1, x2 = s.fresh_vars(2)
    root, clauses = tseitin_clauses(s, FAnd(FVar(x1), FNot(FVar(x2))))
    add_clauses(s, clauses)
    r = s.solve([root])
    assert r.sat and r.value(x1) and not r.value(x2)
    assert not s.solve([root, x2]).sat
    assert not s.solve([root, -x1]).sat


formula_strategy = st.deferred(
    lambda: st.one_of(
        st.integers(1, 4).flatmap(lambda v: st.sampled_from([FVar(v), FVar(-v)])),
        st.builds(FNot, formula_strategy),
        st.lists(formula_strategy, min_size=0, max_size=3).map(lambda cs: FAnd(*cs)),
        st.lists(formula_strategy, min_size=0, max_size=3).map(lambda cs: FOr(*cs)),
    )
)


@settings(max_examples=60, deadline=None)
@given(formula_strategy)
def test_tseitin_exactly_one_extension_and_root_semantics(f):
    pool = VarPool(4)
    root, clauses = tseitin_clauses(pool, f)
    base_vars = [1, 2, 3, 4]
    aux_vars = list(range(5, pool.n + 1))
    assume(len(aux_vars) <= 8)  # enumeration is 2^(4+aux)
    for asg in all_assignments(base_vars):
        extensions = []
        for aux_asg in all_assignments(aux_vars):
            full = {**asg, **aux_asg}
            if all(clause_true(c, full) for c in clauses):
                extensions.append(full)
        assert len(extensions) == 1
        full = extensions[0]
        want = eval_formula(f, asg)
        got = full[abs(root)] == (root > 0)
        assert got == want


# --- totalizer -------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ladder_outputs_follow_counts(n):
    pool = VarPool(n)
    lits = list(range(1, n + 1))
    counter, clauses = totalizer_clauses(pool, lits)
    assert len(counter.outputs) == n
    aux_vars = list(range(n + 1, pool.n + 1))
    for asg in all_assignments(lits):
        exts = []
        for aux_asg in all_assignments(aux_vars):
            full = {**asg, **aux_asg}
            if all(clause_true(c, full) for c in clauses):
                exts.append(full)
        # total: every assignment of the counted literals extends
        assert exts
        c = count_true(lits, asg)
        # each output is forced true once its count is reached
        for full in exts:
            assert all(full[o] for o in counter.outputs[:c])
        # the bound p holds by assumption exactly when the count is <= p
        for p in range(n + 1):
            fits = any(not any(full[o] for o in counter.outputs[p:]) for full in exts)
            assert fits == (c <= p)


def test_totalizer_size_is_n_log_n():
    # a sequential counter takes 276 aux variables here
    pool = VarPool(23)
    counter, clauses = totalizer_clauses(pool, list(range(1, 24)))
    assert pool.n - 23 == 106
    assert len(clauses) == 359
    assert len(counter.outputs) == 23


def ladder(s, lits):
    counter, clauses = totalizer_clauses(s, lits)
    add_clauses(s, clauses)
    return counter


def test_ladder_bound_by_assumption():
    s = Solver()
    lits = s.fresh_vars(4)
    counter = ladder(s, lits)
    # one encoding serves every bound in the family
    for p in range(0, 5):
        assumptions = list(counter.at_most_assumptions(p))
        r = s.solve(assumptions + lits[: min(p, 4)])
        assert r.sat  # exactly p trues is fine
        if p < 4:
            r2 = s.solve(assumptions + lits[: p + 1])
            assert not r2.sat  # p+1 trues violates the bound


def test_ladder_negative_literals_counted():
    s = Solver()
    x, y = s.fresh_vars(2)
    counter = ladder(s, [x, -y])
    r = s.solve(list(counter.at_most_assumptions(0)))
    assert r.sat and not r.value(x) and r.value(y)


# --- stress: bigger random instances against a simple DPLL ------------------------


def _dpll(clauses, assignment):
    # tiny reference DPLL for instances too big to enumerate
    clauses = [c for c in clauses]
    changed = True
    while changed:
        changed = False
        out = []
        for c in clauses:
            c2 = []
            sat_c = False
            for l in c:
                v = abs(l)
                if v in assignment:
                    if assignment[v] == (l > 0):
                        sat_c = True
                        break
                else:
                    c2.append(l)
            if sat_c:
                continue
            if not c2:
                return None
            if len(c2) == 1:
                v = abs(c2[0])
                assignment = {**assignment, v: c2[0] > 0}
                changed = True
            else:
                out.append(c2)
        clauses = out
    if not clauses:
        return assignment
    v = abs(clauses[0][0])
    for b in (True, False):
        r = _dpll(clauses, {**assignment, v: b})
        if r is not None:
            return r
    return None


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_solver_matches_dpll_on_3cnf(seed):
    import random as _random

    rng = _random.Random(seed)
    n = 12
    m = rng.randint(20, 50)
    clauses = []
    for _ in range(m):
        c = rng.sample(range(1, n + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in c])
    expected = _dpll(clauses, {}) is not None
    s = make_solver(n, clauses, seed=seed % 5)
    assert s.solve([]).sat == expected


def test_heap_rebuild_keeps_the_list_the_search_holds():
    """`_solve` binds the decision heap once per search; a rebuild (a long
    backjump or an activity rescale) must refill that list, not replace it."""
    s = make_solver(4, [[1, 2], [-1, 3]])
    heap = s._heap
    s._var_bump(2)
    s._rebuild_heap()
    assert s._heap is heap
    assert sorted(v for _, v in heap) == [1, 2, 3, 4]
    assert heap[0] == (-s.activity[2], 2)


def test_activity_rescale_refreshes_every_heap_key():
    s = make_solver(4, [[1, 2], [-1, 3]])
    heap = s._heap
    s.var_inc = 2e100
    s._var_bump(3)
    assert s.activity[3] < 3.0 and s.var_inc < 3.0  # scaled by 1e-100
    assert s._key == [(-a, v) for v, a in enumerate(s.activity)]
    assert s._heap is heap and heap[0] == s._key[3]
    assert sorted(heap) == sorted(s._key[1:])

"""Independent oracles used to freeze expected test values.

The brute-force oracles enumerate exhaustively and never call the solver or
the engine under test. The explicit-state oracle enumerates an encoded
system's states and steps by model enumeration on the CDCL solver, which
`test_solver.py` checks against `cnf_satisfiable`; it never calls the
engine, and it loads the system plainly, not through `certify.Skeleton`.
`NoSimplify` is the reference solver that level-0 simplification must
match answer for answer.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

from ipdr.cnf import FAnd, FNot, FOr, FVar, var_of, is_positive
from ipdr.solver import Solver
from ipdr.system import (Instance, State, TransitionSystem, build_explicit_family,
                         effective_init, effective_trans)


class NoSimplify(Solver):
    """The same solver without level-0 clause removal, as a reference."""

    def simplify(self) -> None:
        pass


def all_assignments(variables: list[int]):
    for bits in product([False, True], repeat=len(variables)):
        yield dict(zip(variables, bits))


def clause_true(clause, assignment) -> bool:
    return any(assignment[var_of(l)] == is_positive(l) for l in clause)


def cnf_satisfiable(nvars: int, clauses: list[list[int]], fixed: dict[int, bool] | None = None):
    """Exhaustive SAT check; returns a satisfying assignment or None."""
    variables = list(range(1, nvars + 1))
    for asg in all_assignments(variables):
        if fixed is not None and any(asg[v] != b for v, b in fixed.items()):
            continue
        if all(clause_true(c, asg) for c in clauses):
            return asg
    return None


def count_true(lits, assignment) -> int:
    return sum(1 for l in lits if assignment[var_of(l)] == is_positive(l))


def eval_formula(f, assignment) -> bool:
    """Truth value of a formula AST under a total assignment."""
    match f:
        case FVar(lit):
            return assignment[var_of(lit)] == is_positive(lit)
        case FNot(child):
            return not eval_formula(child, assignment)
        case FAnd(children):
            return all(eval_formula(c, assignment) for c in children)
        case FOr(children):
            return any(eval_formula(c, assignment) for c in children)
    raise TypeError(f"not a formula: {f!r}")


def bfs_reachable(init_states, successors):
    """Generic BFS; successors is a callable state -> iterable of states."""
    seen = set(init_states)
    frontier = list(init_states)
    while frontier:
        nxt = []
        for s in frontier:
            for t in successors(s):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def bfs_shortest_path(init_states, successors, is_goal):
    """Shortest path from any init state to a goal state; returns the list
    of states or None."""
    parents = {s: None for s in init_states}
    frontier = list(init_states)
    for s in frontier:
        if is_goal(s):
            return [s]
    while frontier:
        nxt = []
        for s in frontier:
            for t in successors(s):
                if t in parents:
                    continue
                parents[t] = s
                if is_goal(t):
                    path = [t]
                    while path[-1] is not None and parents[path[-1]] is not None:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                nxt.append(t)
        frontier = nxt
    return None


# --- explicit-state oracle ---------------------------------------------------------


_ORACLE_MAX_VARS = 16


def build_explicit(var_names, init_states, edges, bad_states=()) -> Instance:
    """A system from an explicit edge list over bit-vector states: the one
    instance of a family with no guarded groups. Duplicate edges are
    allowed. The property is the conjunction of the bad states' negations."""
    fam = build_explicit_family(var_names, init_states, list(dict.fromkeys(edges)), [], bad_states)
    return replace(fam.instances[0], label="explicit", param=None)


def oracle_solver(inst: Instance, clauses) -> Solver:
    """A fresh solver over the system's own variables with its definitional
    clauses and `clauses` asserted plainly."""
    sys_ = inst.system
    solver = Solver()
    solver.fresh_vars(sys_.nvars)
    for c in (*sys_.defs, *clauses):
        solver.add_clause(c.lits)
    return solver


def enumerate_init_states(inst: Instance) -> list[State]:
    """Every initial state, in bit order, by repeated models with blocking
    clauses."""
    sys_ = inst.system
    solver = oracle_solver(inst, effective_init(inst))
    out = []
    while True:
        r = solver.solve([])
        if not r.sat:
            break
        cube = r.cube(sys_.state_vars)
        out.append(State.from_cube(sys_, cube))
        solver.add_clause([-l for l in cube])
    return sorted(out, key=lambda s: s.bits)


def successors(solver: Solver, inst: Instance, state: State) -> list[State]:
    """One-step successors in bit order, by repeated models with per-source
    blocking clauses behind a one-shot guard (the context stays monotone)."""
    sys_ = inst.system
    g = solver.fresh_var()
    src = sys_.state_cube(state)
    out = []
    while True:
        r = solver.solve(list(src.lits) + [g])
        if not r.sat:
            break
        nxt = r.cube(sys_.primed_vars)
        asg = nxt.as_assignment()
        out.append(State(tuple(asg[v] for v in sys_.primed_vars)))
        solver.add_clause([-g] + [-l for l in nxt])
    solver.add_clause([-g])
    return sorted(out, key=lambda s: s.bits)


def _explicit_graph(inst: Instance):
    """The initial states and the successor function of the encoded
    semantics, for the generic BFS. Only for small vocabularies."""
    if len(inst.system.state_vars) > _ORACLE_MAX_VARS:
        raise ValueError(f"explicit oracle capped at {_ORACLE_MAX_VARS} state variables")
    solver = oracle_solver(inst, effective_trans(inst))
    return enumerate_init_states(inst), lambda s: successors(solver, inst, s)


def explicit_reachable(inst: Instance) -> frozenset[State]:
    """Every reachable state of the encoded semantics."""
    return frozenset(bfs_reachable(*_explicit_graph(inst)))


def state_satisfies(sys_: TransitionSystem, state: State, clauses) -> bool:
    asg = dict(zip(sys_.state_vars, state.values))
    return all(clause_true(c, asg) for c in clauses)


def holds_invariant_explicit(inst: Instance) -> tuple[bool, list[State] | None]:
    """BFS safety check of the encoded semantics; on violation returns a
    shortest trace (length 0 is a bad initial state)."""
    sys_ = inst.system
    inits, succ = _explicit_graph(inst)
    path = bfs_shortest_path(inits, succ, lambda s: not state_satisfies(sys_, s, sys_.prop))
    return path is None, path


# --- reversible pebbling game -----------------------------------------------------


def pebbling_successors(nodes, preds, budget):
    """Successor function for the reversible pebbling game. A configuration
    is a frozenset of pebbled nodes; any subset of nodes whose predecessors
    are all pebbled and stay pebbled may flip at once, subject to the budget
    on the resulting configuration."""

    def succ(cfg):
        flippable = [
            v
            for v in nodes
            if all(u in cfg for u in preds[v])
        ]
        out = []
        for mask in range(1, 1 << len(flippable)):
            flip = {flippable[i] for i in range(len(flippable)) if mask >> i & 1}
            # a flipping predecessor is not pebbled on both sides
            if any(u in flip for v in flip for u in preds[v]):
                continue
            nxt = cfg ^ flip
            if len(nxt) <= budget:
                out.append(frozenset(nxt))
        return out

    return succ


def pebbling_game_strategy(dag, budget):
    """Shortest pebbling strategy (list of configurations, starting empty)
    under the budget, or None when the goal is unreachable."""
    preds = {v: [u for u, w in dag.edges if w == v] for v in dag.nodes}
    goal = frozenset(dag.outputs)
    succ = pebbling_successors(dag.nodes, preds, budget)
    return bfs_shortest_path([frozenset()], succ, lambda c: c == goal)


def pebbling_min_budget(dag):
    """Smallest budget that can pebble the dag, with a shortest strategy at
    that budget; (None, None) when even |V| pebbles cannot."""
    for p in range(1, len(dag.nodes) + 1):
        path = pebbling_game_strategy(dag, p)
        if path is not None:
            return p, path
    return None, None


# --- switch-bounded filter lock -----------------------------------------------------


def peterson_reachable(n, bound, remove_wait_condition=False):
    """Explicit product of n filter-lock processes with an active register
    and a switch budget. States are (pcs, levels, lasts, active, switches);
    a pc is ("set", l), ("wait", l) or ("crit",). Process 0 runs first and a
    step by anyone else while the budget is spent is impossible."""

    def replaced(t, idx, val):
        return t[:idx] + (val,) + t[idx + 1 :]

    def succ(state):
        pcs, levels, lasts, active, switches = state
        out = []
        for q in range(n):
            c = switches + (1 if q != active else 0)
            if c > bound:
                continue
            pc, npcs, nlevels, nlasts = pcs[q], pcs, levels, lasts
            if pc[0] == "set":
                l = pc[1]
                npcs = replaced(pcs, q, ("wait", l))
                nlevels = replaced(levels, q, l)
                nlasts = replaced(lasts, l - 1, q)
            elif pc[0] == "wait":
                l = pc[1]
                open_ = lasts[l - 1] != q or all(
                    levels[k] < l for k in range(n) if k != q
                )
                if not (open_ or remove_wait_condition):
                    continue
                npcs = replaced(pcs, q, ("crit",) if l == n - 1 else ("set", l + 1))
            else:
                npcs = replaced(pcs, q, ("set", 1))
                nlevels = replaced(levels, q, 0)
            out.append((npcs, nlevels, nlasts, q, c))
        return out

    init = ((("set", 1),) * n, (0,) * n, (0,) * (n - 1), 0, 0)
    return bfs_reachable([init], succ)


def peterson_safe(n, bound, remove_wait_condition=False):
    """True iff no reachable product state has two critical processes."""
    return not any(
        sum(1 for pc in pcs if pc[0] == "crit") >= 2
        for (pcs, *_rest) in peterson_reachable(n, bound, remove_wait_condition)
    )

"""Loading a transition system into a solver, and the certificate checks.

`Skeleton` is the one place a system's clauses enter a solver for PDR or
for checking: the frame solver builds on it, and `check_trace` and
`check_invariant` each run on a fresh one, so an engine bug cannot certify
its own output. (The explicit-state oracle in `system` loads systems its
own way on purpose, as an independent reference.)
"""

from __future__ import annotations

from typing import Sequence

from .cnf import Clause, Cube, FAnd, FOr, FVar
from .solver import SatResult, Solver, tseitin_clauses
from .system import Instance, State, TransitionSystem, full_assumptions


def _assert_neg_prop(solver: Solver, prop: tuple[Clause, ...]) -> int:
    """Define a literal equivalent to the property's negation."""
    if not prop:
        return -solver.true_lit()
    f = FOr(*[FAnd(*[FVar(-l) for l in c]) for c in prop])
    root, clauses = tseitin_clauses(solver, f)
    for c in clauses:
        solver.add_clause(c.lits)
    return root


class Skeleton:
    """One incremental solver with a system loaded. Definitional clauses are
    asserted plainly; the step relation sits behind a step literal, so
    initial-state queries are not distorted by deadlock states; the
    property behind a property literal; and the initial constraint behind a
    fresh literal per instance binding.

    Nothing asserted is ever retracted. Instances differ only by the
    assumption literals `gamma` passed to every query. A new binding fixes
    the previous binding's initial literal false, so the solver drops the
    clauses behind it (`Solver.simplify`) and stops deciding it.
    """

    def __init__(self, system: TransitionSystem, seed: int = 0):
        self.system = system
        s = Solver(seed=seed)
        self.solver = s
        while s.nvars < system.nvars:
            s.fresh_var()
        for c in system.defs:
            s.add_clause(c.lits)
        self.step_act = s.fresh_var()
        for c in system.trans:
            s.add_clause([-self.step_act, *c.lits])
        self.prop_act = s.fresh_var()
        for c in system.prop:
            s.add_clause([-self.prop_act, *c.lits])
        self.neg_prop = _assert_neg_prop(s, system.prop)
        self.init_act: int | None = None
        self.gamma: tuple[int, ...] = ()
        self.deadline: float | None = None

    def bind_instance(self, inst: Instance) -> None:
        self.gamma = full_assumptions(inst)
        if self.init_act is not None:
            self.solver.retire((self.init_act,))
        self.init_act = self.solver.fresh_var()
        for c in self.system.init:
            self.solver.add_clause([-self.init_act, *c.lits])

    def _solve(self, assumptions: list[int]) -> SatResult:
        return self.solver.solve(assumptions, deadline=self.deadline)

    def sat_init(self, cube: Cube) -> SatResult:
        """SAT(I and cube)."""
        return self._solve([self.init_act, *self.gamma, *cube.lits])

    def sat_init_bad(self) -> SatResult:
        """SAT(I and not P)."""
        return self._solve([self.init_act, self.neg_prop, *self.gamma])

    def sat_cube_bad(self, cube: Cube) -> bool:
        """SAT(cube and not P) with no frames or step relation."""
        return self._solve([self.neg_prop, *self.gamma, *cube.lits]).sat

    def sat_step(self, pre: Cube, post: Cube) -> bool:
        """SAT(pre and step and post'), no frames, no property."""
        primed = self.system.primed
        assumptions = [self.step_act, *self.gamma, *pre.lits]
        assumptions += [primed[l] for l in post.lits]
        return self._solve(assumptions).sat


def replay(sk: Skeleton, cubes: Sequence[Cube]) -> dict[str, bool]:
    """Replay a counterexample on a bound skeleton: the head must be
    initial, every consecutive pair one step (stopping at the first that is
    not), and the tail a property violation."""
    initial = sk.sat_init(cubes[0]).sat
    steps = all(sk.sat_step(pre, post) for pre, post in zip(cubes, cubes[1:]))
    return {
        "trace-initial": initial,
        "trace-steps": steps,
        "trace-final": sk.sat_cube_bad(cubes[-1]),
    }


def _loaded(inst: Instance) -> Skeleton:
    sk = Skeleton(inst.system)
    sk.bind_instance(inst)
    return sk


def check_trace(inst: Instance, states: Sequence[State]) -> dict[str, bool]:
    """Certify a counterexample of `inst` on a fresh solver. A length-0
    trace is valid exactly when its single state is initial and violates
    the property; an empty one fails every check. Raises ValueError on a
    state whose width is not the system's."""
    sys_ = inst.system
    n = len(sys_.state_vars)
    for st in states:
        if len(st.values) != n:
            raise ValueError(f"trace state {st.bits!r} has {len(st.values)} bits, expected {n}")
    if not states:
        return dict.fromkeys(("trace-initial", "trace-steps", "trace-final"), False)
    return replay(_loaded(inst), [sys_.state_cube(st) for st in states])


def check_invariant(inst: Instance, clauses: Sequence[Clause]) -> dict[str, bool]:
    """Certify an inductive invariant of `inst` on a fresh solver, one query
    per clause for initiation and consecution and one for safety. The
    clause set sits behind an activation literal. It is inductive exactly
    when each of its clauses holds after a step from the whole set. Raises
    ValueError on a literal that is not over a state variable."""
    sys_ = inst.system
    for c in clauses:
        for l in c:
            if not sys_.is_state_lit(l):
                raise ValueError(f"invariant literal {l} is not over a state variable")
    sk = _loaded(inst)
    inv_act = sk.solver.fresh_var()
    for c in clauses:
        sk.solver.add_clause([-inv_act, *c.lits])
    base = [inv_act, *sk.gamma]
    primed = sys_.primed
    return {
        "invariant-initiation": not any(sk.sat_init(c.negate()).sat for c in clauses),
        "invariant-consecution": not any(
            sk._solve([*base, sk.step_act, *[primed[-l] for l in c.lits]]).sat
            for c in clauses
        ),
        "invariant-safety": not sk._solve([*base, sk.neg_prop]).sat,
    }

"""Loading a transition system into a solver, the certificate checks, and
the refinement check.

`Skeleton` is the one place a system's clauses enter a solver for PDR, for
checking and for refinement, and `Frames` the one place frame clauses do.
The engine's frame solver builds on it; `check_trace`, the frame checker
(`load_frames`) and `check_refines` each run on a fresh one, so an engine
bug cannot certify its own output. `check_invariant` and the engine's debug
sweep (`engine.validate_ctx`) both use the frame checker, so a checked run
searches exactly as an unchecked one. Nothing else in the library loads a
system; the explicit-state oracle the tests compare against
(`tests/oracles.py`) loads its own way, as an independent reference."""

from __future__ import annotations

from typing import Iterable, Sequence

from .cnf import Clause, Cube, FAnd, FOr, FVar
from .solver import SatResult, Solver, model_cube, tseitin_clauses
from .system import (Instance, State, TransitionSystem, effective_init,
                     effective_trans, full_assumptions)


def _assert_negation(solver: Solver, clauses: Sequence[Clause]) -> int:
    """Define a literal equivalent to the negation of a clause conjunction
    (false for the empty one)."""
    if not clauses:
        return -solver.true_lit()
    f = FOr(*[FAnd(*[FVar(-l) for l in c]) for c in clauses])
    root, defs = tseitin_clauses(solver, f)
    for c in defs:
        solver.add_clause(c.lits)
    return root


class Frames:
    """The delta levels and their activation literals: the one owner of
    "clause c sits at level i behind literal acts[i]". deltas[0] is unused
    and level 1 always exists; insertion-ordered dicts keep iteration
    deterministic across processes. acts (index 0 allocated, unused) is
    empty in a new generation until the first `ensure_level`. Frame clauses
    are never retracted: `reset` starts a new generation whose fresh
    literals leave the old clauses unassumed, and fixes false the literals
    of the generation before the one it retires, so the solver drops those
    clauses (`Solver.simplify`) and stops deciding the literals. The
    generation it retires stays live until the next reset: its literals'
    saved phases steer the first instance of the new generation, and fixing
    them at once moved the lock3 relax sweep from 4,708 to 6,058 SAT
    calls."""

    def __init__(self, solver: Solver):
        self.solver = solver
        self.acts: list[int] = []
        self._retired: list[int] = []  # the last generation's literals, still live
        self.reset()

    def reset(self) -> None:
        self.solver.retire(self._retired)
        self._retired = self.acts
        self.k = 0
        self.deltas: list[dict[Clause, None]] = [{}, {}]
        self.acts = []

    @property
    def max_level(self) -> int:
        return len(self.deltas) - 1

    def ensure_level(self, level: int) -> None:
        """Make levels up to `level` ready to hold clauses and be assumed."""
        while len(self.deltas) <= level:
            self.deltas.append({})
        while len(self.acts) <= level:
            self.acts.append(self.solver.fresh_var())

    def add(self, clause: Clause, level: int) -> None:
        """File a clause in deltas[level] and assert it behind acts[level].
        The caller removes it from any other level. No clause reaches one
        level of a generation twice: `engine.add_blocked` skips a clause
        already at or above its target, `engine.propagate` only moves
        clauses up, and `incremental.relax` places each clause at
        increasing levels."""
        self.ensure_level(level)
        self.deltas[level][clause] = None
        self.solver.add_clause([-self.acts[level], *clause.lits])

    def frame_clauses(self, i: int) -> list[Clause]:
        out: list[Clause] = []
        for j in range(max(i, 1), len(self.deltas)):
            out.extend(self.deltas[j])
        return out


class Skeleton:
    """One incremental solver with a system loaded. Definitional clauses are
    asserted plainly; the step relation sits behind a step literal, so
    initial-state queries are not distorted by deadlock states; the
    property behind a property literal; and the initial constraint behind a
    fresh literal per instance binding. Frame clauses sit in `frames`,
    F_i being the clauses of levels >= i and F_0 the initial constraint.

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
        self.neg_prop = _assert_negation(s, system.prop)
        self.init_act: int | None = None
        self.gamma: tuple[int, ...] = ()
        self.deadline: float | None = None
        self.frames = Frames(s)

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

    def _base(self, level: int) -> list[int]:
        """Assumptions selecting F_level; level 0 is the initial constraint."""
        return [self.init_act] if level == 0 else self.frames.acts[level:]

    def bad_cube_at(self, level: int) -> Cube | None:
        """Model of F_level and not P, as a total state cube."""
        r = self._solve([*self._base(level), self.neg_prop, *self.gamma])
        return model_cube(r, self.system.state_vars) if r.sat else None

    def step_holds(self, level: int, clause: Clause, with_prop: bool = True) -> bool:
        """UNSAT(F_level [and P] and step and not clause')."""
        primed = self.system.primed
        assumptions = [*self._base(level), self.step_act, *self.gamma]
        if with_prop:
            assumptions.append(self.prop_act)
        assumptions += [primed[-l] for l in clause.lits]
        return not self._solve(assumptions).sat

    def excludes(self, level: int, cube: Cube) -> bool:
        """UNSAT(F_level and P and cube), no step relation."""
        return not self._solve([*self._base(level), self.prop_act, *self.gamma, *cube.lits]).sat


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


def load_frames(inst: Instance, deltas: Sequence[Iterable[Clause]],
                deadline: float | None = None) -> Skeleton:
    """The frame checker: a fresh solver bound to `inst` with deltas[j]
    filed at level j for j >= 1 (deltas[0] is unused), whose queries
    honour `deadline`."""
    chk = Skeleton(inst.system)
    chk.bind_instance(inst)
    chk.deadline = deadline
    for j in range(1, len(deltas)):
        for c in deltas[j]:
            chk.frames.add(c, j)
    return chk


def check_invariant(inst: Instance, clauses: Sequence[Clause]) -> dict[str, bool]:
    """Certify an inductive invariant of `inst` as the one level of a frame
    checker: one query per clause for initiation and consecution, one for
    safety. It is inductive exactly when each of its clauses holds after a
    step from the whole set. Raises ValueError on a literal that is not
    over a state variable."""
    sys_ = inst.system
    for c in clauses:
        for l in c:
            if not sys_.is_state_lit(l):
                raise ValueError(f"invariant literal {l} is not over a state variable")
    chk = load_frames(inst, [(), clauses])
    return {
        "invariant-initiation": not any(chk.sat_init(c.negate()).sat for c in clauses),
        "invariant-consecution": all(chk.step_holds(1, c, with_prop=False) for c in clauses),
        "invariant-safety": chk.bad_cube_at(1) is None,
    }


def check_refines(inst1: Instance, inst2: Instance) -> bool:
    """Whether instance 1 refines instance 2: its initial states satisfy
    I2 and its steps satisfy T2, where I2 and T2 are instance 2's
    guard-reduced initial and step constraints (`effective_init`,
    `effective_trans`; T2 includes its counter bounds). Instance 1 is seen
    as PDR's queries see it, under its assumptions `gamma`. One skeleton
    bound to instance 1 asks UNSAT(I1 and not I2) and UNSAT(T1 and not T2),
    each negation one Tseitin literal.

    Both instances must share one system, as a family's members do; raises
    ValueError otherwise. A True answer is always right: the auxiliary
    values that admit a state or step in instance 1 admit it in instance 2.
    A False answer is exact when the auxiliary values are functionally
    determined by the states, as for explicit systems and the filter lock,
    or when T2 is a subset of T1 whenever refinement holds, as for pebbling
    budgets: the smaller budget assumes a superset of the larger one's
    totalizer outputs."""
    if inst1.system is not inst2.system:
        raise ValueError("refinement is checked between instances of one system")
    sk = _loaded(inst1)
    not_init = _assert_negation(sk.solver, effective_init(inst2))
    not_step = _assert_negation(sk.solver, effective_trans(inst2))
    return not (sk._solve([sk.init_act, *sk.gamma, not_init]).sat
                or sk._solve([sk.step_act, *sk.gamma, not_step]).sat)

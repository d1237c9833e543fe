"""Symbolic transition systems as clause sets over current/next-state
variables, instance families sharing one encoding, the guard reduction
that gives each instance its own initial and step clauses, and explicit
systems built from edge lists and their text format.

A system's clauses split three ways: `defs` are definitional (Tseitin and
counter variables) and total: every assignment of the other variables
extends to the auxiliary ones, so asserting them removes no state and no
step. They need not be functionally determined; the pebble-budget
totalizer is not. `init`/`trans`/`prop` are constraints. Instances of a
family never change the clause set; they select behaviour purely through
assumption literals (selector guards and counter bounds), so one
incremental solver context serves a whole family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .cnf import Clause, Cube, FAnd, FOr, FVar, var_of
from .solver import VarPool, tseitin_clauses


class TransitionSystem:
    def __init__(
        self,
        var_names: Sequence[str],
        state_vars: Sequence[int],
        primed_vars: Sequence[int],
        nvars: int,
        init: Iterable[Clause],
        trans: Iterable[Clause],
        prop: Iterable[Clause],
        defs: Iterable[Clause] = (),
        guards: Iterable[int] = (),
    ):
        if len(state_vars) != len(primed_vars) or len(var_names) != len(state_vars):
            raise ValueError("state/primed/name lists must align")
        self.var_names = tuple(var_names)
        self.state_vars = tuple(state_vars)
        self.primed_vars = tuple(primed_vars)
        self.nvars = nvars
        self.init = tuple(init)
        self.trans = tuple(trans)
        self.prop = tuple(prop)
        self.defs = tuple(defs)
        self.guards = frozenset(guards)
        # every state literal to its primed literal, for the query hot paths
        self.primed: dict[int, int] = {}
        for v, pv in zip(self.state_vars, self.primed_vars):
            self.primed[v] = pv
            self.primed[-v] = -pv
        overlap = set(self.state_vars) & set(self.primed_vars)
        if overlap:
            raise ValueError(f"variables both current and primed: {overlap}")

    # --- priming -------------------------------------------------------------

    def prime_lit(self, lit: int) -> int:
        try:
            return self.primed[lit]
        except KeyError:
            raise ValueError(f"variable {var_of(lit)} is not a state variable") from None

    def is_state_lit(self, lit: int) -> bool:
        return lit in self.primed

    def state_cube(self, state: "State") -> Cube:
        return Cube(
            v if b else -v for v, b in zip(self.state_vars, state.values)
        )


@dataclass(frozen=True)
class State:
    """Total assignment to the state variables, in declaration order."""

    values: tuple[bool, ...]

    @property
    def bits(self) -> str:
        return "".join("1" if b else "0" for b in self.values)

    @staticmethod
    def from_bits(bits: str) -> "State":
        if any(c not in "01" for c in bits):
            raise ValueError(f"bad state bits {bits!r}")
        return State(tuple(c == "1" for c in bits))

    @staticmethod
    def from_cube(system: TransitionSystem, cube: Cube) -> "State":
        asg = cube.as_assignment()
        try:
            return State(tuple(asg[v] for v in system.state_vars))
        except KeyError as e:
            raise ValueError(f"cube is not total over state variables: {e}")

    def __str__(self) -> str:
        return self.bits


@dataclass(frozen=True)
class Instance:
    """One member of a family: the shared system plus assumption literals
    that activate this member's initial states and step relation."""

    system: TransitionSystem
    label: str
    assumptions: tuple[int, ...] = ()
    param: int | None = None

    def __post_init__(self):
        sv = set(self.system.state_vars) | set(self.system.primed_vars)
        for lit in self.assumptions:
            if var_of(lit) in sv:
                raise ValueError(
                    f"instance assumption {lit} names a state variable"
                )


@dataclass(frozen=True)
class InstanceFamily:
    """Instances in processing order. For a constraining family each next
    instance refines the previous one; for a relaxing family each previous
    instance refines the next."""

    system: TransitionSystem
    instances: tuple[Instance, ...]
    direction: str  # "constraining" | "relaxing"

    def __post_init__(self):
        if self.direction not in ("constraining", "relaxing"):
            raise ValueError(f"bad direction {self.direction!r}")
        if not self.instances:
            raise ValueError("family is empty")
        for inst in self.instances:
            if inst.system is not self.system:
                raise ValueError("family instances must share one system")

    def oriented(self, direction: str) -> "InstanceFamily":
        """This family listed in `direction`: itself, or its instances
        reversed."""
        if direction == self.direction:
            return self
        return InstanceFamily(self.system, self.instances[::-1], direction)


# --- guard reduction -----------------------------------------------------------


def _guard_assignment(system: TransitionSystem, inst: Instance) -> dict[int, bool]:
    """Guards assumed positively are on; every other guard is off."""
    gamma = {g: False for g in system.guards}
    for lit in inst.assumptions:
        v = var_of(lit)
        if v in system.guards:
            gamma[v] = lit > 0
    return gamma


def full_assumptions(inst: Instance) -> tuple[int, ...]:
    """Assumption literals for symbolic queries: the instance's own literals
    plus negative defaults for every guard it leaves unmentioned, matching
    the guard reduction of `effective_init` and `effective_trans`."""
    mentioned = {var_of(l) for l in inst.assumptions}
    defaults = tuple(
        -g for g in sorted(inst.system.guards) if g not in mentioned
    )
    return tuple(inst.assumptions) + defaults


def _reduce(clauses: Iterable[Clause], gamma: dict[int, bool]) -> list[Clause]:
    """Drop satisfied clauses and falsified guard literals."""
    out = []
    for c in clauses:
        lits = []
        satisfied = False
        for l in c:
            v = var_of(l)
            if v in gamma:
                if gamma[v] == (l > 0):
                    satisfied = True
                    break
            else:
                lits.append(l)
        if satisfied:
            continue
        out.append(Clause(lits))
    return out


def effective_init(inst: Instance) -> list[Clause]:
    return _reduce(inst.system.init, _guard_assignment(inst.system, inst))


def effective_trans(inst: Instance) -> list[Clause]:
    """Guard-reduced step constraints plus unit clauses for the non-guard
    assumption literals (counter bounds constrain the step relation)."""
    sys_ = inst.system
    gamma = _guard_assignment(sys_, inst)
    out = _reduce(sys_.trans, gamma)
    for lit in inst.assumptions:
        if var_of(lit) not in sys_.guards:
            out.append(Clause([lit]))
    return out


# --- explicit construction and text format -------------------------------------------


def build_explicit_family(
    var_names: Sequence[str],
    init_states: Sequence[str],
    edges: Sequence[tuple[str, str]],
    groups: Sequence[Sequence[tuple[str, str]]],
    bad_states: Sequence[str] = (),
    direction: str = "constraining",
) -> InstanceFamily:
    """Explicit-state family: `edges` are always on, each group of extra
    edges sits behind one guard variable. Instance j enables the first j
    groups, so enabling order is relaxing and disabling order constraining;
    `direction` picks which way the family is listed. Each edge var gets a
    definitional equivalence with its cube, and the guard appears only in a
    plain (guard or not-edge) clause so the guard reduction stays exact."""
    n = len(var_names)
    if n == 0:
        raise ValueError("need at least one state variable")
    all_edges = list(edges) + [e for g in groups for e in g]
    for bits in list(init_states) + [b for e in all_edges for b in e] + list(bad_states):
        if len(bits) != n or any(c not in "01" for c in bits):
            raise ValueError(f"bad state bits {bits!r}")
    if not init_states:
        raise ValueError("need at least one initial state")
    if len(set(all_edges)) != len(all_edges):
        raise ValueError("an edge may appear in at most one group")
    pool = VarPool()
    xs = pool.fresh_vars(n)
    xps = pool.fresh_vars(n)

    def cube_of(bits: str, primed: bool) -> list[int]:
        base = xps if primed else xs
        return [v if c == "1" else -v for v, c in zip(base, bits)]

    defs: list[Clause] = []
    uniq_inits = sorted(set(init_states))
    if len(uniq_inits) == 1:
        init_clauses = [Clause([l]) for l in cube_of(uniq_inits[0], False)]
    else:
        f = FOr(*[FAnd(*[FVar(l) for l in cube_of(b, False)]) for b in uniq_inits])
        root, tcl = tseitin_clauses(pool, f)
        defs.extend(tcl)
        init_clauses = [Clause([root])]

    def edge_var(s: str, t: str) -> int:
        ev = pool.fresh_var()
        lits = cube_of(s, False) + cube_of(t, True)
        for l in lits:
            defs.append(Clause([-ev, l]))
        defs.append(Clause([ev, *(-l for l in lits)]))
        return ev

    base_vars = [edge_var(s, t) for s, t in sorted(set(edges))]
    group_vars = [[edge_var(s, t) for s, t in sorted(set(g))] for g in groups]
    every = base_vars + [ev for g in group_vars for ev in g]
    trans_clauses: list[Clause]
    if not every:
        fv = pool.fresh_var()
        defs.append(Clause([-fv]))
        trans_clauses = [Clause([fv])]
    else:
        rv = pool.fresh_var()
        defs.append(Clause([-rv, *every]))
        for ev in every:
            defs.append(Clause([rv, -ev]))
        trans_clauses = [Clause([rv])]
    guards = [pool.fresh_var() for _ in groups]
    for g, evs in zip(guards, group_vars):
        for ev in evs:
            trans_clauses.append(Clause([g, -ev]))
    prop_clauses = [
        Clause([-l for l in cube_of(b, False)]) for b in sorted(set(bad_states))
    ]
    system = TransitionSystem(
        var_names=var_names,
        state_vars=xs,
        primed_vars=xps,
        nvars=pool.n,
        init=init_clauses,
        trans=trans_clauses,
        prop=prop_clauses,
        defs=defs,
        guards=guards,
    )
    members = tuple(
        Instance(
            system=system,
            label=str(j),
            assumptions=tuple(g if i < j else -g for i, g in enumerate(guards)),
            param=j,
        )
        for j in range(len(groups) + 1)
    )
    return InstanceFamily(system, members, "relaxing").oriented(direction)


def parse_explicit_family(text: str) -> InstanceFamily:
    """Text format: `var <name>` lines declare variables in order, then
    `init <bits>`, `edge <bits> <bits>`, `bad <bits>` lines; `#` comments.
    `group <k> <bits> <bits>` puts an edge in guard group k (1-based, so
    instance j enables groups 1..j) and `direction constraining|relaxing`
    sets the family order; without groups the family has one instance."""
    names: list[str] = []
    inits: list[str] = []
    edges: list[tuple[str, str]] = []
    grouped: dict[int, list[tuple[str, str]]] = {}
    bads: list[str] = []
    direction = "constraining"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        try:
            if kind == "var":
                (name,) = args
                if name in names:
                    raise ValueError(f"duplicate variable {name!r}")
                names.append(name)
            elif kind == "init":
                (bits,) = args
                inits.append(bits)
            elif kind == "edge":
                src, dst = args
                edges.append((src, dst))
            elif kind == "group":
                idx, src, dst = args
                grouped.setdefault(int(idx), []).append((src, dst))
            elif kind == "bad":
                (bits,) = args
                bads.append(bits)
            elif kind == "direction":
                (direction,) = args
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    if grouped and sorted(grouped) != list(range(1, len(grouped) + 1)):
        raise ValueError(f"group indices must be 1..{len(grouped)}: {sorted(grouped)}")
    groups = [grouped[i] for i in sorted(grouped)]
    return build_explicit_family(names, inits, edges, groups, bads, direction)

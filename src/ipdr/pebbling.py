"""Reversible pebbling of a dependency DAG as a transition-system family.

One boolean per node: pebbled or not. Flipping a node in either direction
requires every predecessor pebbled both before and after the step, any set
of nodes compatible with that rule may flip simultaneously, and the board
starts empty. The pebble budget is a totalizer over the next-state
variables, whose j-th unary output is forced true once j nodes are pebbled
(the upward half only; see `totalizer_clauses`). It is imposed per
instance by assuming the outputs above the budget false, so the initial
condition is shared by every family member and only the step relation
varies. A counterexample to "the goal configuration is never reached" is a
pebbling strategy; an invariant is an impossibility certificate for the
budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import Clause
from .engine import EngineError, Trace, UsageError
from .solver import VarPool, totalizer_clauses
from .system import Instance, InstanceFamily, TransitionSystem


@dataclass(frozen=True)
class Dag:
    """Dependency graph: edge (u, v) makes u a prerequisite of v."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        declared = set(self.nodes)
        if len(declared) != len(self.nodes):
            raise ValueError("duplicate node names")
        for u, v in self.edges:
            if u not in declared or v not in declared:
                raise ValueError(f"edge ({u}, {v}) names an undeclared node")
        if not self.outputs:
            raise ValueError("a dag needs at least one output")
        for o in self.outputs:
            if o not in declared:
                raise ValueError(f"output {o} is not a declared node")
        _, cyclic = _topo_order(self.nodes, self.edges)
        if cyclic is not None:
            raise ValueError(f"dependency cycle through node {cyclic}")

    def predecessors(self, v: str) -> tuple[str, ...]:
        return tuple(u for u, w in self.edges if w == v)


def _topo_order(nodes, edges):
    """Kahn's algorithm preserving declaration order; returns (order, None)
    or (partial, some node on a cycle)."""
    indeg = {v: 0 for v in nodes}
    for _, v in edges:
        indeg[v] += 1
    order = [v for v in nodes if indeg[v] == 0]
    for v in order:
        for a, b in edges:
            if a == v:
                indeg[b] -= 1
                if indeg[b] == 0:
                    order.append(b)
    if len(order) != len(nodes):
        stuck = next(v for v in nodes if v not in set(order))
        return order, stuck
    return order, None


def parse_dag(text: str) -> Dag:
    """`node <id>`, `edge <pred> <succ>`, `output <id>` lines; `#` comments."""
    nodes: list[str] = []
    edges: list[tuple[str, str]] = []
    outputs: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        try:
            if kind == "node":
                (name,) = args
                nodes.append(name)
            elif kind == "edge":
                u, v = args
                edges.append((u, v))
            elif kind == "output":
                (name,) = args
                outputs.append(name)
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    try:
        return Dag(tuple(nodes), tuple(edges), tuple(outputs))
    except ValueError as e:
        raise ValueError(str(e)) from None


def parse_tfc(text: str) -> Dag:
    """Dependency skeleton of a reversible circuit in the .tfc subset.

    Headers `.v`, `.i`, `.o` list wire names (comma separated); every other
    non-comment line is a gate whose last operand is the written wire and
    whose operands are all read. Gate semantics are ignored: gate g becomes
    a node depending on the gate that last wrote each wire g touches, and
    the dag outputs are the last writers of the `.o` wires."""
    wires: list[str] = []
    out_wires: list[str] = []
    gates: list[tuple[str, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split(None, 1)
            key = parts[0].lower()
            rest = parts[1] if len(parts) > 1 else ""
            names = [w.strip() for w in rest.split(",") if w.strip()]
            if key == ".v":
                wires.extend(names)
            elif key == ".o":
                out_wires.extend(names)
            elif key in (".i", ".c", ".ol"):
                pass  # inputs and constants do not affect the dependency dag
            else:
                raise ValueError(f"line {lineno}: unknown header {key!r}")
            continue
        if line.lower() in ("begin", "end"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: malformed gate {line!r}")
        name, operand_text = parts
        operands = [w.strip() for w in operand_text.split(",") if w.strip()]
        if not operands:
            raise ValueError(f"line {lineno}: gate {name!r} has no operands")
        for w in operands:
            if wires and w not in wires:
                raise ValueError(f"line {lineno}: gate touches unknown wire {w!r}")
        gates.append((f"g{len(gates) + 1}", operands))
    nodes = [g for g, _ in gates]
    edges: list[tuple[str, str]] = []
    last_writer: dict[str, str] = {}
    for g, operands in gates:
        for w in operands:
            prod = last_writer.get(w)
            if prod is not None and (prod, g) not in edges:
                edges.append((prod, g))
        last_writer[operands[-1]] = g
    if not out_wires:
        out_wires = list(wires)
    outputs = []
    for w in out_wires:
        prod = last_writer.get(w)
        if prod is not None and prod not in outputs:
            outputs.append(prod)
    if not outputs:
        raise ValueError("no circuit output is written by any gate")
    return Dag(tuple(nodes), tuple(edges), tuple(outputs))


def load_dag(path: str) -> Dag:
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".tfc"):
        return parse_tfc(text)
    return parse_dag(text)


def check_budgets(dag: Dag, lo: int, hi: int) -> None:
    """Raise UsageError unless the budgets lo..hi lie in [1, number of
    nodes]; a caller checks a span's ends before it lists the span."""
    n = len(dag.nodes)
    if lo < 1 or hi > n:
        raise UsageError(f"pebble budgets must lie in [1, {n}]")


def encode_pebbling(
    dag: Dag, p_values: list[int], direction: str = "relaxing"
) -> InstanceFamily:
    """Family over pebble budgets. Instance parameter p assumes the
    totalizer outputs above p away; raising p releases assumptions, so
    ascending budgets relax."""
    ps = sorted(set(p_values))
    if not ps:
        raise UsageError("need at least one pebble budget")
    check_budgets(dag, ps[0], ps[-1])
    pool = VarPool()
    cur = {v: pool.fresh_var() for v in dag.nodes}
    nxt = {v: pool.fresh_var() for v in dag.nodes}
    init = [Clause([-cur[v]]) for v in dag.nodes]
    trans: list[Clause] = []
    for v in dag.nodes:
        for u in dag.predecessors(v):
            # a flip of v in either direction needs u pebbled on both sides
            trans.append(Clause([cur[v], -nxt[v], cur[u]]))
            trans.append(Clause([cur[v], -nxt[v], nxt[u]]))
            trans.append(Clause([-cur[v], nxt[v], cur[u]]))
            trans.append(Clause([-cur[v], nxt[v], nxt[u]]))
    budget, defs = totalizer_clauses(pool, [nxt[v] for v in dag.nodes])
    goal_missing = [-cur[v] for v in dag.outputs]
    goal_excess = [cur[v] for v in dag.nodes if v not in dag.outputs]
    prop = [Clause(goal_missing + goal_excess)]
    system = TransitionSystem(
        var_names=dag.nodes,
        state_vars=tuple(cur[v] for v in dag.nodes),
        primed_vars=tuple(nxt[v] for v in dag.nodes),
        nvars=pool.n,
        init=init,
        trans=trans,
        prop=prop,
        defs=defs,
    )
    members = tuple(
        Instance(
            system=system,
            label=f"p{p}",
            assumptions=budget.at_most_assumptions(p),
            param=p,
        )
        for p in ps
    )
    return InstanceFamily(system, members, "relaxing").oriented(direction)


# --- strategy decoding ------------------------------------------------------------


@dataclass(frozen=True)
class PebbleStep:
    placed: tuple[str, ...]
    removed: tuple[str, ...]


@dataclass(frozen=True)
class PebbleSchedule:
    steps: tuple[PebbleStep, ...]
    max_pebbles: int


def decode_pebbling_trace(trace: Trace, dag: Dag) -> PebbleSchedule:
    """Turn an engine counterexample into a move schedule. Every step diff
    is re-validated against the pebbling rule so a decoding of an unsound
    trace fails loudly; stuttering steps are dropped."""
    configs = []
    for st in trace.states:
        cfg = frozenset(v for v, bit in zip(dag.nodes, st.values) if bit)
        configs.append(cfg)
    if configs and configs[0]:
        raise EngineError("pebbling trace does not start from the empty board")
    steps: list[PebbleStep] = []
    peak = max((len(c) for c in configs), default=0)
    for pre, post in zip(configs, configs[1:]):
        flipped = pre ^ post
        for v in sorted(flipped):
            for u in dag.predecessors(v):
                if u not in pre or u not in post:
                    raise EngineError(
                        f"step flips {v} without predecessor {u} pebbled on both sides"
                    )
        if not flipped:
            continue
        steps.append(
            PebbleStep(
                placed=tuple(sorted(post - pre)),
                removed=tuple(sorted(pre - post)),
            )
        )
    return PebbleSchedule(steps=tuple(steps), max_pebbles=peak)

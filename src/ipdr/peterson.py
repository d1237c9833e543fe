"""Context-switch-bounded filter-lock mutual exclusion as an instance family.

Each of n processes climbs levels 1..n-1 to enter its critical section: at
level l it writes the level into its own register and itself into the shared
last-to-enter register for l, then waits until it is no longer the last to
enter or every other process sits below l. One process moves per step, named
by the active register; a unary switch counter accumulates active-register
changes. The counter bits are state, and per-bound instances assume alias
variables for the counter's next-state bits away, so raising the bound
releases one assumption and bound families are relaxing by construction.
When the counter would pass the largest bound in the family the switching
step is disabled outright rather than wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import Clause, VarPool, and_gate, or_gate
from .engine import UsageError
from .system import Instance, InstanceFamily, TransitionSystem

_MAX_STATE_VARS = 120


@dataclass(frozen=True)
class _Reg:
    """Little-endian register over current/next variable pairs."""

    label: str
    cur: tuple[int, ...]
    nxt: tuple[int, ...]

    def cur_is(self, val: int) -> list[int]:
        return [b if (val >> i) & 1 else -b for i, b in enumerate(self.cur)]

    def nxt_is(self, val: int) -> list[int]:
        return [b if (val >> i) & 1 else -b for i, b in enumerate(self.nxt)]


def _implied(guards: list[int], lits: list[int]) -> list[Clause]:
    neg = [-g for g in guards]
    return [Clause(neg + [l]) for l in lits]


def _framed(guards: list[int], reg: _Reg) -> list[Clause]:
    neg = [-g for g in guards]
    out = []
    for c, x in zip(reg.cur, reg.nxt):
        out.append(Clause(neg + [-x, c]))
        out.append(Clause(neg + [x, -c]))
    return out


def check_switch_bounds(n: int, lo: int, hi: int) -> tuple[int, int]:
    """Check an n-process lock with switch bounds lo..hi against the state
    budget, before the span is listed, and return the widths of its pc and
    process-id registers. Raises UsageError on a bad process count, a
    negative bound or a state vector over the budget."""
    if type(n) is not int:
        raise UsageError(f"process count must be an integer, not {n!r}")
    if n < 2:
        raise UsageError("need at least two processes")
    if lo < 0:
        raise UsageError("switch bounds must be nonnegative")
    npc = 2 * n - 1  # pc values: set(l)=2l-2, wait(l)=2l-1, crit=2n-2
    b_pc = max(1, (npc - 1).bit_length())
    b_id = max(1, (n - 1).bit_length())
    nstate = n * (b_pc + b_id) + (n - 1) * b_id + b_id + hi
    if nstate > _MAX_STATE_VARS:
        raise UsageError(
            f"{n} processes with bound {hi} need {nstate} state variables"
            f" (budget {_MAX_STATE_VARS})"
        )
    return b_pc, b_id


def encode_peterson(
    n_processes: int,
    switch_bounds: list[int],
    *,
    remove_wait_condition: bool = False,
) -> InstanceFamily:
    """Family over context-switch bounds, listed relaxing (bounds
    ascending). `remove_wait_condition` drops the level-wait spin (a
    deliberately broken lock) so the harness can confirm that violations
    are found and reported."""
    n = n_processes
    bounds = sorted(set(int(b) for b in switch_bounds))
    if not bounds:
        raise UsageError("need at least one switch bound")
    b_pc, b_id = check_switch_bounds(n, bounds[0], bounds[-1])
    cap = bounds[-1]
    npc = 2 * n - 1

    def set_pc(l: int) -> int:
        return 2 * l - 2

    def wait_pc(l: int) -> int:
        return 2 * l - 1

    crit_pc = 2 * n - 2

    regs: list[tuple[str, int]] = []
    for i in range(n):
        regs.append((f"pc{i}", b_pc))
        regs.append((f"lv{i}", b_id))
    for l in range(1, n):
        regs.append((f"last{l}", b_id))
    regs.append(("act", b_id))
    for j in range(1, cap + 1):
        regs.append((f"sw{j}", 1))

    names: list[str] = []
    for label, width in regs:
        names += [f"{label}.{b}" for b in range(width)] if width > 1 else [label]
    total = sum(width for _, width in regs)
    pool = VarPool()
    cur_ids = pool.fresh_vars(total)
    nxt_ids = pool.fresh_vars(total)
    reg_map: dict[str, _Reg] = {}
    off = 0
    for label, width in regs:
        reg_map[label] = _Reg(
            label, tuple(cur_ids[off : off + width]), tuple(nxt_ids[off : off + width])
        )
        off += width
    pc = [reg_map[f"pc{i}"] for i in range(n)]
    lv = [reg_map[f"lv{i}"] for i in range(n)]
    last = {l: reg_map[f"last{l}"] for l in range(1, n)}
    act = reg_map["act"]
    unary = [reg_map[f"sw{j}"] for j in range(1, cap + 1)]

    defs: list[Clause] = []

    def conj(lits: list[int]) -> int:
        return and_gate(pool, lits, defs)

    def disj(lits: list[int]) -> int:
        return or_gate(pool, lits, defs)

    moves = [conj(act.nxt_is(i)) for i in range(n)]
    at = [[conj(pc[i].cur_is(v)) for v in range(1 << b_pc)] for i in range(n)]
    below = {}
    for k in range(n):
        eq = [conj(lv[k].cur_is(v)) for v in range(n - 1)]
        for l in range(1, n):
            below[k, l] = disj(eq[:l])
    may_pass = {}
    for i in range(n):
        for l in range(1, n):
            overtaken = -conj(last[l].cur_is(i))
            others_below = conj([below[k, l] for k in range(n) if k != i])
            may_pass[i, l] = disj([overtaken, others_below])
    switched = disj(
        [conj([disj([c, x]), disj([-c, -x])]) for c, x in zip(act.cur, act.nxt)]
    )
    # alias the next-state counter bits so bound instances can assume them
    alias = []
    for reg in unary:
        a = pool.fresh_var()
        defs.append(Clause([-a, reg.nxt[0]]))
        defs.append(Clause([a, -reg.nxt[0]]))
        alias.append(a)

    init: list[Clause] = []
    for i in range(n):
        init += [Clause([l]) for l in pc[i].cur_is(set_pc(1))]
        init += [Clause([l]) for l in lv[i].cur_is(0)]
    for l in range(1, n):
        init += [Clause([x]) for x in last[l].cur_is(0)]
    init += [Clause([l]) for l in act.cur_is(0)]
    init += [Clause([-reg.cur[0]]) for reg in unary]

    trans: list[Clause] = [
        Clause([-l for l in act.nxt_is(v)]) for v in range(n, 1 << b_id)
    ]
    for i in range(n):
        mi = moves[i]
        for k in range(n):
            if k != i:
                trans += _framed([mi], pc[k]) + _framed([mi], lv[k])
        for l in range(1, n):
            trans += _framed([mi, -at[i][set_pc(l)]], last[l])
        for l in range(1, n):
            g = [mi, at[i][set_pc(l)]]
            trans += _implied(g, pc[i].nxt_is(wait_pc(l)))
            trans += _implied(g, lv[i].nxt_is(l))
            trans += _implied(g, last[l].nxt_is(i))
            g = [mi, at[i][wait_pc(l)]]
            if not remove_wait_condition:
                trans.append(Clause([-mi, -at[i][wait_pc(l)], may_pass[i, l]]))
            onward = crit_pc if l == n - 1 else set_pc(l + 1)
            trans += _implied(g, pc[i].nxt_is(onward))
            trans += _framed(g, lv[i])
        g = [mi, at[i][crit_pc]]
        trans += _implied(g, pc[i].nxt_is(set_pc(1)))
        trans += _implied(g, lv[i].nxt_is(0))
        for v in range(npc, 1 << b_pc):
            trans.append(Clause([-mi, -at[i][v]]))
    for j in range(1, cap + 1):
        uc, un = unary[j - 1].cur[0], unary[j - 1].nxt[0]
        trans.append(Clause([un, -uc]))
        trans.append(Clause([-un, uc, switched]))
        if j == 1:
            trans.append(Clause([un, -switched]))
        else:
            prev = unary[j - 2].cur[0]
            trans.append(Clause([-un, uc, prev]))
            trans.append(Clause([un, -switched, -prev]))
    if cap:
        trans.append(Clause([-switched, -unary[cap - 1].cur[0]]))
    else:
        trans.append(Clause([-switched]))

    prop = [
        Clause(
            [-l for l in pc[i].cur_is(crit_pc)]
            + [-l for l in pc[j].cur_is(crit_pc)]
        )
        for i in range(n)
        for j in range(i + 1, n)
    ]

    system = TransitionSystem(
        var_names=tuple(names),
        state_vars=tuple(cur_ids),
        primed_vars=tuple(nxt_ids),
        nvars=pool.n,
        init=init,
        trans=trans,
        prop=prop,
        defs=defs,
    )
    members = tuple(
        Instance(
            system=system,
            label=f"l{b}",
            assumptions=tuple(-alias[j] for j in range(b, cap)),
            param=b,
        )
        for b in bounds
    )
    return InstanceFamily(system, members, "relaxing")


def describe_state(system: TransitionSystem, state) -> dict:
    """Readable register view of an encoded protocol state, reconstructed
    from the variable names."""
    bits = dict(zip(system.var_names, state.values))

    def reg(label: str) -> int:
        if label in bits:
            return int(bits[label])
        val = idx = 0
        while f"{label}.{idx}" in bits:
            val |= int(bits[f"{label}.{idx}"]) << idx
            idx += 1
        return val

    n = 0
    while f"pc{n}" in bits or f"pc{n}.0" in bits:
        n += 1
    crit = 2 * n - 2
    out: dict = {}
    for i in range(n):
        v = reg(f"pc{i}")
        if v == crit:
            where = "crit"
        elif v > crit:
            where = f"pc{v}"
        elif v % 2 == 0:
            where = f"set({v // 2 + 1})"
        else:
            where = f"wait({(v + 1) // 2})"
        out[f"p{i}"] = f"{where} level={reg(f'lv{i}')}"
    out["last"] = [reg(f"last{l}") for l in range(1, n)]
    out["active"] = reg("act")
    switches = 0
    while bits.get(f"sw{switches + 1}", False):
        switches += 1
    out["switches"] = switches
    return out

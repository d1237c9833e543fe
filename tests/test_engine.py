"""Engine behaviour against independent oracles.

Every invariant the engine emits is re-validated here by exhaustive
enumeration over the explicit edge relation (initiation, consecution,
property implication), and every trace is replayed against the raw edge
list. Neither check shares code with the engine.
"""

import importlib.util
import itertools
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ipdr import engine
from ipdr.certify import Skeleton
from ipdr.cnf import Clause, Cube
from ipdr.engine import (
    CREDIT,
    BudgetExceeded,
    Frames,
    Invariant,
    InvariantViolation,
    PdrConfig,
    PdrCtx,
    SingleContextSolver,
    Trace,
    _drop_probe,
    add_blocked,
    generalize,
    has_drop_credit,
    init_cube,
    pdr_main,
    propagate,
    validate_ctx,
)
from ipdr.incremental import _visit, ipdr_binary, ipdr_constrain, ipdr_relax
from ipdr.pebbling import encode_pebbling, load_dag
from ipdr.peterson import encode_peterson
from ipdr.solver import FALSE, UNDEF, Solver, SolverTimeout
from ipdr.system import Instance, TransitionSystem

from oracles import build_explicit, holds_invariant_explicit


def run_pdr(names, inits, edges, bads, **cfg):
    inst = build_explicit(names, inits, edges, bads)
    ctx = PdrCtx(inst, PdrConfig(**cfg))
    return ctx, pdr_main(ctx)


def clause_holds_in(state_bits, clause, state_vars):
    pos = {v: c == "1" for v, c in zip(state_vars, state_bits)}
    return any(pos[abs(l)] == (l > 0) for l in clause)


def assert_invariant_valid(inst, invariant, inits, edges, bads):
    """Exhaustive validation of an inductive strengthening."""
    sys_ = inst.system
    n = len(sys_.state_vars)
    states = ["".join(bs) for bs in itertools.product("01", repeat=n)]
    sat_inv = {
        s
        for s in states
        if all(clause_holds_in(s, c, sys_.state_vars) for c in invariant.clauses)
    }
    # initiation
    for s in inits:
        assert s in sat_inv, f"initial state {s} outside the invariant"
    # consecution over the raw edge relation
    for a, b in edges:
        if a in sat_inv:
            assert b in sat_inv, f"invariant not closed under edge {a}->{b}"
    # property implication
    for s in sat_inv:
        assert s not in set(bads), f"invariant admits bad state {s}"


def assert_trace_valid(trace, inits, edges, bads):
    bits = [s.bits for s in trace.states]
    assert bits[0] in set(inits)
    assert bits[-1] in set(bads)
    edge_set = set(edges)
    for a, b in zip(bits, bits[1:]):
        assert (a, b) in edge_set


CHAIN_EDGES = [("00", "01"), ("01", "10")]


def test_safe_chain_yields_invariant():
    inits, bads = ["00"], ["11"]
    inst = build_explicit(["x1", "x2"], inits, CHAIN_EDGES, bads)
    ctx = PdrCtx(inst, PdrConfig())
    v = pdr_main(ctx)
    assert isinstance(v, Invariant)
    assert_invariant_valid(inst, v, inits, CHAIN_EDGES, bads)


def test_reachable_end_of_chain_yields_exact_trace():
    # 10 is reachable in two steps; the chain is deterministic so the
    # counterexample is forced
    ctx, v = run_pdr(["x1", "x2"], ["00"], CHAIN_EDGES, ["10"])
    assert isinstance(v, Trace)
    assert [s.bits for s in v.states] == ["00", "01", "10"]
    assert len(v) == 2


def test_bad_initial_state_is_length_zero_trace():
    ctx, v = run_pdr(["a"], ["1"], [("1", "0")], ["1"])
    assert isinstance(v, Trace)
    assert len(v) == 0 and v.states[0].bits == "1"


def test_one_step_violation():
    edges = CHAIN_EDGES + [("00", "11"), ("01", "00")]
    ctx, v = run_pdr(["x1", "x2"], ["00"], edges, ["11"])
    assert isinstance(v, Trace)
    assert_trace_valid(v, ["00"], edges, ["11"])
    assert len(v) == 1  # the engine walks frontiers outward, so shortest here


def test_unreachable_branch_learns_both_exclusions():
    # 01 has no predecessor and 10 only the unreachable 01, so the run must
    # block the two states separately; the final frames exclude exactly them
    edges = [("00", "11"), ("01", "10")]
    inits, bads = ["00"], ["10"]
    inst = build_explicit(["x1", "x2"], inits, edges, bads)
    ctx = PdrCtx(inst, PdrConfig(debug_invariants=True))
    v = pdr_main(ctx)
    assert isinstance(v, Invariant)
    assert_invariant_valid(inst, v, inits, edges, bads)
    sat_inv = {
        s
        for s in ["00", "01", "10", "11"]
        if all(clause_holds_in(s, c, inst.system.state_vars) for c in v.clauses)
    }
    assert sat_inv == {"00", "11"}


def test_trivial_property_is_immediate_invariant():
    ctx, v = run_pdr(["a", "b"], ["00"], [("00", "01")], [])
    assert isinstance(v, Invariant)
    assert v.clauses == ()


def test_deep_trace_found_at_small_frontier():
    # four-state loopless chain: the violation needs three steps but
    # obligations reach back from the first frontier
    edges = [("00", "01"), ("01", "10"), ("10", "11")]
    ctx, v = run_pdr(["x1", "x2"], ["00"], edges, ["11"])
    assert isinstance(v, Trace)
    assert [s.bits for s in v.states] == ["00", "01", "10", "11"]


def test_budget_raises_when_frontier_capped():
    # max_k = 0 forbids opening the first frontier, which any safe system
    # with a non-trivial property needs
    with pytest.raises(BudgetExceeded):
        run_pdr(["x1", "x2"], ["00"], CHAIN_EDGES, ["11"], max_k=0)
    ctx, v = run_pdr(["x1", "x2"], ["00"], CHAIN_EDGES, ["11"], max_k=3)
    assert isinstance(v, Invariant)


def test_budget_respects_deeper_need():
    # only 000 is reachable, but excluding the bad state's unreachable
    # predecessor 111 leaves a clause pinned at level 1 (its re-queued
    # obligation is subsumed away before it can be re-blocked higher), so
    # no delta empties at the first frontier
    names = ["v0", "v1", "v2"]
    inits, bads = ["000"], ["010"]
    edges = [("000", "000"), ("111", "001"), ("111", "010")]
    with pytest.raises(BudgetExceeded):
        run_pdr(names, inits, edges, bads, max_k=1)
    inst = build_explicit(names, inits, edges, bads)
    ctx = PdrCtx(inst, PdrConfig(max_k=2, debug_invariants=True))
    v = pdr_main(ctx)
    assert isinstance(v, Invariant)
    assert_invariant_valid(inst, v, inits, edges, bads)


def test_expired_deadline_raises():
    edges = [("00", "01"), ("01", "00")]
    with pytest.raises(SolverTimeout):
        run_pdr(["x1", "x2"], ["00"], edges, ["10", "11"], timeout_s=0.0)


def test_debug_invariant_sweep_clean():
    for bads in (["11"], ["10"], []):
        inst = build_explicit(["x1", "x2"], ["00"], CHAIN_EDGES, bads)
        ctx = PdrCtx(inst, PdrConfig(debug_invariants=True))
        pdr_main(ctx)  # must not raise InvariantViolation


def test_validator_catches_planted_corruption():
    inst = build_explicit(["x1", "x2"], ["00"], CHAIN_EDGES, ["11"])
    ctx = PdrCtx(inst, PdrConfig())
    v = pdr_main(ctx)
    assert isinstance(v, Invariant)
    assert validate_ctx(ctx) == []
    # plant a clause that excludes the initial state
    bogus = Clause([inst.system.state_vars[0], inst.system.state_vars[1]])
    ctx.frames.deltas[1][bogus] = None
    assert any(v.startswith("init-containment") for v in validate_ctx(ctx))


def test_validator_catches_a_clause_in_two_deltas():
    inst = build_explicit(["x1", "x2"], ["00"], CHAIN_EDGES, ["11"])
    ctx = PdrCtx(inst, PdrConfig())
    pdr_main(ctx)
    frames = ctx.frames
    level, clause = next((j, c) for j in range(1, frames.max_level + 1) for c in frames.deltas[j])
    frames.deltas[2 if level == 1 else 1][clause] = None
    assert any(v.startswith("one-delta") for v in validate_ctx(ctx))


def test_validator_catches_out_of_range_obligation():
    inst = build_explicit(["x1", "x2"], ["00"], CHAIN_EDGES, ["11"])
    ctx = PdrCtx(inst, PdrConfig())
    pdr_main(ctx)
    bad_cube = Cube(list(inst.system.state_vars))  # the 11 state
    ctx.push(ctx.frames.k + 1, bad_cube, None)
    assert any(v.startswith("obligation-level") for v in validate_ctx(ctx))


def test_debug_mode_raises_on_corrupted_resume():
    inst = build_explicit(["x1", "x2"], ["00"], CHAIN_EDGES, ["11"])
    ctx = PdrCtx(inst, PdrConfig(debug_invariants=True))
    pdr_main(ctx)
    bogus = Clause([inst.system.state_vars[0], inst.system.state_vars[1]])
    ctx.frames.add(bogus, 1)
    with pytest.raises(InvariantViolation):
        pdr_main(ctx)


def _chain3_ctx():
    """A context at frontier 2 on the chain 000 -> 001 -> 010 -> 011, with
    011 bad: c = (-x2 | x3) at level 1, whose push fails (001 -> 010), and
    not-011 at level 2. Also returns d = (-x1), which holds everywhere."""
    edges = [("000", "001"), ("001", "010"), ("010", "011")]
    inst = build_explicit(["x1", "x2", "x3"], ["000"], edges, ["011"])
    x1, x2, x3 = inst.system.state_vars
    ctx = PdrCtx(inst, PdrConfig())
    ctx.frames.k = 2
    ctx.frames.ensure_level(3)
    c = Clause([-x2, x3])
    add_blocked(ctx, c, 1)
    add_blocked(ctx, Clause([x1, -x2, -x3]), 2)
    return ctx, c, Clause([-x1])


def _asked_pushes(monkeypatch):
    """The (level, clause) of every `step_holds` query from now on."""
    asked = []
    step_holds = SingleContextSolver.step_holds

    def spy(self, level, clause, with_prop=True):
        asked.append((level, clause))
        return step_holds(self, level, clause, with_prop)

    monkeypatch.setattr(SingleContextSolver, "step_holds", spy)
    return asked


def test_a_failed_push_is_not_asked_again_against_the_same_frame(monkeypatch):
    ctx, c, _ = _chain3_ctx()
    asked = _asked_pushes(monkeypatch)
    propagate(ctx)
    propagate(ctx)
    assert asked == [(1, c)]
    assert (ctx.counters.push_tries, ctx.counters.push_skips) == (2, 1)


@pytest.mark.parametrize("level", [1, 2])
def test_a_new_clause_at_or_above_the_level_asks_a_failed_push_again(monkeypatch, level):
    ctx, c, d = _chain3_ctx()
    asked = _asked_pushes(monkeypatch)
    propagate(ctx)
    add_blocked(ctx, d, level)
    propagate(ctx)
    assert asked.count((1, c)) == 2


def test_a_push_into_the_next_level_keeps_the_failed_push_below(monkeypatch):
    ctx, c, d = _chain3_ctx()
    add_blocked(ctx, d, 1)
    asked = _asked_pushes(monkeypatch)
    propagate(ctx)  # c fails, then d moves up to level 2
    assert d in ctx.frames.deltas[2]
    propagate(ctx)
    assert asked == [(1, c), (1, d)]


@pytest.mark.parametrize("clear", ["rebind", "reset"])
def test_rebinding_or_resetting_forgets_the_failed_pushes(monkeypatch, clear):
    ctx, c, _ = _chain3_ctx()
    propagate(ctx)
    assert ctx.frames.push_failed(c, 1)
    asked = _asked_pushes(monkeypatch)
    if clear == "rebind":
        ctx.rebind(ctx.instance)
        assert not ctx.frames.failed_pushes
        propagate(ctx)
        assert asked == [(1, c)]
    else:
        ctx.frames.reset()
        assert not ctx.frames.failed_pushes


def test_validator_catches_a_stale_failed_push():
    ctx, _, _ = _chain3_ctx()
    propagate(ctx)
    assert validate_ctx(ctx) == []
    not_011 = next(iter(ctx.frames.deltas[2]))
    ctx.frames.note_failed_push(not_011, 1)  # its push out of level 1 holds
    assert any(v.startswith("push-memo") for v in validate_ctx(ctx))


def test_determinism_same_seed_same_counters():
    edges = [("000", "001"), ("001", "010"), ("010", "011"), ("000", "100")]
    runs = []
    for _ in range(2):
        inst = build_explicit(["a", "b", "c"], ["000"], edges, ["011"])
        ctx = PdrCtx(inst, PdrConfig(seed=7))
        v = pdr_main(ctx)
        runs.append(
            (
                type(v).__name__,
                [s.bits for s in v.states] if isinstance(v, Trace) else v.clauses,
                ctx.counters,
                ctx.fs.solver.n_solves,
            )
        )
    assert runs[0] == runs[1]


# --- random equivalence against the explicit oracle ---------------------------


@st.composite
def system_params(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    states = ["".join(bs) for bs in itertools.product("01", repeat=n)]
    inits = draw(st.lists(st.sampled_from(states), min_size=1, max_size=2))
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(states), st.sampled_from(states)),
            min_size=0,
            max_size=10,
        )
    )
    bads = draw(st.lists(st.sampled_from(states), min_size=0, max_size=2))
    return n, inits, edges, bads


@settings(max_examples=80, deadline=None)
@given(system_params())
def test_verdict_matches_explicit_oracle(params):
    n, inits, edges, bads = params
    names = [f"v{i}" for i in range(n)]
    inst = build_explicit(names, inits, edges, bads)
    ctx = PdrCtx(inst, PdrConfig(debug_invariants=True))
    v = pdr_main(ctx)
    ok, _ = holds_invariant_explicit(inst)
    if isinstance(v, Invariant):
        assert ok
        assert_invariant_valid(inst, v, inits, edges, bads)
    else:
        assert not ok
        assert_trace_valid(v, inits, edges, bads)


# --- initiation without search and the phase policy -----------------------------------


def _guarded_init_family():
    """Two state bits, both initially true, and a guard g whose definition
    forces x1 false: I and gamma is UNSAT when g is assumed, SAT otherwise."""
    x1, x2, p1, p2, g = 1, 2, 3, 4, 5
    system = TransitionSystem(
        var_names=["x1", "x2"],
        state_vars=[x1, x2],
        primed_vars=[p1, p2],
        nvars=5,
        init=[Clause([x1]), Clause([x2])],
        trans=[Clause([-x1, p1]), Clause([x1, -p1]), Clause([-x2, p2]), Clause([x2, -p2])],
        prop=[Clause([-x1, -x2])],
        defs=[Clause([-g, -x1])],
        guards=[g],
    )
    return [Instance(system, "g", (g,)), Instance(system, "not-g", (-g,))]


@lru_cache(maxsize=None)
def _differential_family(name):
    if name == "lock2":
        return encode_peterson(2, [0, 1, 2]).instances
    if name == "diamond":
        diamond = load_dag(str(Path(__file__).parent.parent / "benchmarks" / "diamond.dag"))
        return encode_pebbling(diamond, [1, 2, 3, 4]).instances
    return tuple(_guarded_init_family())


@lru_cache(maxsize=None)
def _frame_solver(name):
    instances = _differential_family(name)
    fs = SingleContextSolver(instances[0].system, PdrConfig())
    fs.bind_instance(instances[0])
    return fs


@lru_cache(maxsize=None)
def _reference(name, index):
    inst = _differential_family(name)[index]
    sk = Skeleton(inst.system)
    sk.bind_instance(inst)
    return sk


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["lock2", "diamond", "guarded"]), st.data())
def test_sat_init_agrees_with_the_certificate_skeleton(name, data):
    instances = _differential_family(name)
    system = instances[0].system
    assert init_cube(system) is not None
    index = data.draw(st.integers(0, len(instances) - 1))
    fs = _frame_solver(name)
    fs.bind_instance(instances[index])  # a fresh binding must drop the cached answer
    picked = data.draw(st.lists(st.sampled_from(system.state_vars), unique=True))
    signs = data.draw(st.lists(st.booleans(), min_size=len(picked), max_size=len(picked)))
    cube = Cube(v if pos else -v for v, pos in zip(picked, signs))
    got = fs.sat_init(cube)
    want = _reference(name, index).sat_init(cube)
    assert got.sat == want.sat
    if want.sat:
        assert all(got.value(v) == want.value(v) for v in system.state_vars)


def test_rebinding_drops_the_cached_initial_answer():
    unsat, sat = _guarded_init_family()
    fs = SingleContextSolver(unsat.system, PdrConfig())
    fs.bind_instance(unsat)
    assert not fs.sat_init(Cube([1])).sat
    fs.bind_instance(sat)
    assert fs.sat_init(Cube([1])).sat


def test_several_initial_states_fall_back_to_the_solver():
    inst = build_explicit(["x1", "x2"], ["00", "01"], CHAIN_EDGES, ["11"])
    assert init_cube(inst.system) is None
    ctx = PdrCtx(inst, PdrConfig())
    fs = ctx.fs
    x1, x2 = inst.system.state_vars
    for cube in [Cube([x1]), Cube([-x1]), Cube([-x1, x2]), Cube([-x1, -x2])]:
        before = fs.solver.n_solves
        fs.sat_init(cube)
        assert fs.solver.n_solves == before + 1
    phased = []
    fs.solver.set_phases = phased.append
    assert isinstance(pdr_main(ctx), Invariant)
    assert phased == []


def test_unconstrained_state_variables_take_their_initial_values():
    """The search decides state variables toward s0, whatever phases the
    previous query saved."""
    x1, x2, x3 = 1, 2, 3
    system = TransitionSystem(
        var_names=["x1", "x2", "x3"],
        state_vars=[x1, x2, x3],
        primed_vars=[4, 5, 6],
        nvars=6,
        init=[Clause([-x1]), Clause([-x2]), Clause([-x3])],
        trans=[],
        prop=[Clause([-x1])],
    )
    fs = SingleContextSolver(system, PdrConfig())
    fs.bind_instance(Instance(system, "only"))
    fs.frames.ensure_level(2)
    assert fs.sat_cube_bad(Cube([x1, x2, x3]))  # saves x2 and x3 as true
    assert fs.bad_cube_at(1) == Cube([x1, -x2, -x3])


# --- join credit --------------------------------------------------------------------


def _fresh_run(inst):
    ctx = PdrCtx(inst, PdrConfig())
    pdr_main(ctx)
    return ctx.counters


def test_a_context_whose_joins_never_win_stops_trying_them():
    # with no win, the first CREDIT join tries are the last
    dag = load_dag(str(Path(__file__).parent.parent / "benchmarks" / "ham7tc.tfc"))
    counters = _fresh_run(encode_pebbling(dag, [23]).instances[0])
    assert (counters.join_tries, counters.join_wins) == (CREDIT, 0)


def test_a_context_whose_joins_win_keeps_trying_them():
    # the filter lock's join wins buy it more tries (bound 0 makes only 11)
    counters = _fresh_run(encode_peterson(3, [1]).instances[0])
    assert counters.join_wins > 0
    assert counters.join_tries > CREDIT
    assert counters.join_tries <= CREDIT * (counters.join_wins + 1)


def test_generalize_files_no_frame_clause(monkeypatch):
    # generalization only queries; the caller files the one lemma it returns
    ctx = PdrCtx(encode_peterson(3, [1]).instances[0], PdrConfig())
    frames = ctx.frames
    calls = []

    def snapshot():
        return [list(d) for d in frames.deltas], list(frames.stamps)

    def checked(*args, **kwargs):
        before = snapshot()
        out = generalize(*args, **kwargs)
        calls.append(before == snapshot())
        return out

    monkeypatch.setattr(engine, "generalize", checked)
    pdr_main(ctx)
    assert len(calls) > 100
    assert all(calls)


# --- drop credit -------------------------------------------------------------------


def _ham7tc(*budgets):
    dag = load_dag(str(Path(__file__).parent.parent / "benchmarks" / "ham7tc.tfc"))
    return encode_pebbling(dag, list(budgets), "constraining").instances


def test_an_instance_whose_drops_never_win_stops_dropping():
    # no drop wins at 23 pebbles: past the first CREDIT drops only the
    # probes try any, the 1st, 2nd, 4th, ... generalization begun with no
    # credit; constraining to 16 pebbles is a new binding with a new ledger
    p23, p16 = _ham7tc(23, 16)
    ctx, verdict, row = _visit(None, p23, PdrConfig(), "constrain")
    assert isinstance(verdict, Trace)
    assert row.drop_wins == 0
    assert row.drop_starved > 100
    probes = row.drop_starved.bit_length()
    assert CREDIT < row.drop_tries <= CREDIT + probes * len(p23.system.state_vars)
    _, _, row = _visit(ctx, p16, PdrConfig(), "constrain")
    assert row.drop_tries > 0


def test_a_starved_instance_drops_again_once_a_probe_wins():
    # 12 pebbles starts like 23, whose early drops all fail, but its later
    # drops win; a probe's win buys the binding CREDIT more tries
    ctx = PdrCtx(_ham7tc(12)[0], PdrConfig())
    assert isinstance(pdr_main(ctx), Trace)
    c = ctx.counters
    assert 0 < c.drop_starved < 100
    assert c.drop_wins > 10 * CREDIT
    assert c.drop_tries <= CREDIT * (c.drop_wins + 1) + c.drop_starved * len(ctx.system.state_vars)


def test_drop_probes_back_off_and_restart_at_a_binding():
    p23, p16 = _ham7tc(23, 16)
    ctx = PdrCtx(p23, PdrConfig())
    ctx.counters.drop_tries = CREDIT  # no credit left
    assert not has_drop_credit(ctx)
    expect = [n & (n - 1) == 0 for n in range(1, 18)]
    assert [_drop_probe(ctx) for _ in expect] == expect
    ctx.rebind(p16)
    assert has_drop_credit(ctx)
    ctx.counters.drop_tries += CREDIT
    assert [_drop_probe(ctx) for _ in range(4)] == [True, True, False, True]


def test_an_instance_whose_drops_win_keeps_dropping():
    counters = _fresh_run(encode_peterson(3, [0]).instances[0])
    assert counters.drop_tries > CREDIT
    assert counters.drop_wins > 0
    assert counters.drop_starved == 0
    assert counters.drop_tries <= CREDIT * (counters.drop_wins + 1)


def test_an_instance_out_of_drop_credit_keeps_its_frames_valid():
    # once drops stop, a lemma is a repaired blocking core or a probe's
    # shrunk cube; the debug sweep checks the frames at every
    # propagation, and once more here
    ctx = PdrCtx(_ham7tc(23)[0], PdrConfig(debug_invariants=True))
    assert isinstance(pdr_main(ctx), Trace)
    assert ctx.counters.drop_wins == 0 and ctx.counters.drop_starved > 0
    assert validate_ctx(ctx, frontier_clear=False) == []


# --- retired activation literals ------------------------------------------------------

@lru_cache(maxsize=None)
def _load_query_digest():
    path = Path(__file__).parent.parent / "scripts" / "query_digest.py"
    spec = importlib.util.spec_from_file_location("query_digest", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _query_digest(run):
    """The query count and the SHA-1 over every frame-solver query answer
    of `run()`, as `scripts/query_digest.py` pins a search."""
    digest = _load_query_digest().Digest()
    digest.install()
    try:
        run()
    finally:
        digest.uninstall()
    return digest.queries, digest.sha.hexdigest()


def _bench_dag(stem):
    return load_dag(str(Path(__file__).parent.parent / "benchmarks" / f"{stem}.dag"))


def _sweep(name):
    """One sweep of a small family, by "<family>/<strategy>"."""
    stem, strategy = name.split("/")
    if stem == "lock2":
        return lambda: ipdr_relax(encode_peterson(2, [0, 1, 2]))
    dag = _bench_dag(stem)
    budgets = list(range(1, len(dag.nodes) + 1))
    if strategy == "constrain":
        return lambda: ipdr_constrain(encode_pebbling(dag, budgets, "constraining"))
    drive = ipdr_relax if strategy == "relax" else ipdr_binary
    return lambda: drive(encode_pebbling(dag, budgets))


@pytest.mark.parametrize("name", [
    "lock2/relax",
    *(f"{stem}/{strategy}" for stem in ("diamond", "chain3") for strategy in ("relax", "constrain", "binary")),
])
def test_retiring_dead_activation_literals_changes_no_answer(monkeypatch, name):
    retire = Solver.retire
    retired = []

    def spy(self, lits):
        lits = list(lits)
        retired.extend(lits)
        retire(self, lits)

    monkeypatch.setattr(Solver, "retire", spy)
    with_retirement = _query_digest(_sweep(name))
    assert retired  # every sweep rebinds at least once
    monkeypatch.setattr(Solver, "retire", lambda self, lits: None)
    without = _query_digest(_sweep(name))
    assert with_retirement[0] > 0 and with_retirement == without


def test_rebinding_retires_the_old_initial_literal():
    a, b = _guarded_init_family()
    fs = SingleContextSolver(a.system, PdrConfig())
    fs.bind_instance(a)
    old = fs.init_act
    assert fs.sat_init(Cube([1, 2])).sat is False  # a query under the old binding
    s = fs.solver
    assert any(old in map(abs, c) for c in s.clauses)
    fs.bind_instance(b)
    assert s.assigns[old] == FALSE and s.level[old] == 0
    s.simplify()
    assert not any(old in map(abs, c) for c in s.clauses + s.learnts)
    assert fs.sat_init(Cube([1, 2])).sat


def test_frames_reset_retires_the_generation_before_the_last():
    s = Solver()
    frames = Frames(s)
    frames.ensure_level(3)
    first = list(frames.acts)
    frames.reset()
    assert all(s.assigns[a] == UNDEF for a in first)
    frames.ensure_level(3)
    second = list(frames.acts)
    frames.reset()
    assert all(s.assigns[a] == FALSE and s.level[a] == 0 for a in first)
    assert all(s.assigns[a] == UNDEF for a in second)

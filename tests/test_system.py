"""Transition-system construction, refinement, and the explicit oracle.

The two-bit pair used throughout: a constrained system stepping 00 -> 01 ->
10, and a relaxed one that adds 00 -> 11 and 01 -> 00. Expected values were
computed by hand off the edge lists and are cross-checked here against an
independent pure-Python BFS that never touches the SAT encoding.
"""

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ipdr.certify import check_refines
from ipdr.cnf import Clause, Cube
from ipdr.solver import VarPool
from ipdr.system import (
    Instance,
    InstanceFamily,
    State,
    TransitionSystem,
    build_explicit_family,
    effective_trans,
    parse_explicit_family,
)

from oracles import (bfs_reachable, bfs_shortest_path, build_explicit, enumerate_init_states,
                     explicit_reachable, holds_invariant_explicit, oracle_solver, successors)


BENCHMARKS = Path(__file__).parent.parent / "benchmarks"
CONSTRAINED_EDGES = [("00", "01"), ("01", "10")]
RELAXED_EDGES = CONSTRAINED_EDGES + [("00", "11"), ("01", "00")]


def constrained_two_bit() -> Instance:
    return build_explicit(["x1", "x2"], ["00"], CONSTRAINED_EDGES, ["11"])


def relaxed_two_bit() -> Instance:
    return build_explicit(["x1", "x2"], ["00"], RELAXED_EDGES, ["11"])


def edge_groups(edges, *extras):
    """`edges` and each list of extra edges as one guard group, without
    repeats: every edge stays in the first list it appears in."""
    seen = dict.fromkeys(edges)
    groups = []
    for extra in extras:
        group = [e for e in dict.fromkeys(extra) if e not in seen]
        seen.update(dict.fromkeys(group))
        groups.append(group)
    return list(dict.fromkeys(edges)), groups


def edge_successors(edges):
    table = {}
    for s, t in edges:
        table.setdefault(s, set()).add(t)
    return lambda s: sorted(table.get(s, ()))


# --- two-bit examples -------------------------------------------------------


def test_constrained_reachable():
    reach = explicit_reachable(constrained_two_bit())
    assert {s.bits for s in reach} == {"00", "01", "10"}


def test_relaxed_reachable():
    reach = explicit_reachable(relaxed_two_bit())
    assert {s.bits for s in reach} == {"00", "01", "10", "11"}


def test_constrained_holds_invariant():
    ok, trace = holds_invariant_explicit(constrained_two_bit())
    assert ok and trace is None


def test_relaxed_violates_in_one_step():
    ok, trace = holds_invariant_explicit(relaxed_two_bit())
    assert not ok
    assert [s.bits for s in trace] == ["00", "11"]


def test_refinement_on_two_bit_pair():
    # the relaxed edges sit in one guard group over the constrained ones
    base, groups = edge_groups(CONSTRAINED_EDGES, RELAXED_EDGES)
    fam = build_explicit_family(["x1", "x2"], ["00"], base, groups, ["11"], "relaxing")
    small, large = fam.instances
    assert check_refines(small, large)
    assert not check_refines(large, small)
    assert check_refines(small, small)
    assert check_refines(large, large)
    # each shipped family is a refinement chain in its listed direction
    for name in ("twobit_constrained.sys", "twobit_relaxed.sys"):
        fam = parse_explicit_family((BENCHMARKS / name).read_text())
        insts = fam.oriented("relaxing").instances
        assert len(insts) == 3
        assert all(check_refines(a, b) for a, b in zip(insts, insts[1:]))
        assert not any(check_refines(b, a) for a, b in zip(insts, insts[1:]))


def test_refinement_needs_one_system():
    with pytest.raises(ValueError, match="one system"):
        check_refines(constrained_two_bit(), relaxed_two_bit())


# --- construction details ---------------------------------------------------


def test_single_init_state_needs_no_tseitin():
    inst = constrained_two_bit()
    sys_ = inst.system
    # one initial state comes out as unit clauses over the state vars
    assert all(len(c) == 1 for c in sys_.init)
    assert {abs(c.lits[0]) for c in sys_.init} == set(sys_.state_vars)


def test_multiple_init_states_enumerate():
    inst = build_explicit(["a", "b"], ["00", "10"], [("00", "01")], [])
    inits = enumerate_init_states(inst)
    assert [s.bits for s in inits] == ["00", "10"]


def test_empty_edge_relation_has_no_successors():
    inst = build_explicit(["a", "b"], ["01"], [], [])
    assert {s.bits for s in explicit_reachable(inst)} == {"01"}


def test_bad_initial_state_gives_length_zero_trace():
    inst = build_explicit(["a"], ["1"], [("1", "0")], ["1"])
    ok, trace = holds_invariant_explicit(inst)
    assert not ok
    assert [s.bits for s in trace] == ["1"]


def test_prime_unprime_roundtrip():
    sys_ = constrained_two_bit().system
    cube = Cube([sys_.state_vars[0], -sys_.state_vars[1]])
    primed = Cube(sys_.prime_lit(l) for l in cube)
    assert primed == Cube([sys_.primed_vars[0], -sys_.primed_vars[1]])
    unprime = {pl: l for l, pl in sys_.primed.items()}
    assert Cube(unprime[l] for l in primed) == cube
    with pytest.raises(ValueError):
        sys_.prime_lit(sys_.primed_vars[0])


def test_state_bits_roundtrip():
    s = State.from_bits("0110")
    assert s.bits == "0110" and str(s) == "0110"
    with pytest.raises(ValueError):
        State.from_bits("01x0")


def test_instance_assumptions_must_avoid_state_vars():
    inst = constrained_two_bit()
    with pytest.raises(ValueError):
        Instance(inst.system, "bad", (inst.system.state_vars[0],))


def test_family_direction_validated():
    inst = constrained_two_bit()
    with pytest.raises(ValueError):
        InstanceFamily(inst.system, (inst,), "sideways")
    fam = InstanceFamily(inst.system, (inst,), "constraining")
    assert fam.instances[0] is inst


# --- text format --------------------------------------------------------------


EXAMPLE_TEXT = """\
# two-bit counter, constrained variant
var x1
var x2
init 00
edge 00 01
edge 01 10
bad 11
"""


def test_parse_explicit_roundtrip():
    (inst,) = parse_explicit_family(EXAMPLE_TEXT).instances
    assert inst.system.var_names == ("x1", "x2")
    assert {s.bits for s in explicit_reachable(inst)} == {"00", "01", "10"}
    ok, trace = holds_invariant_explicit(inst)
    assert ok and trace is None


@pytest.mark.parametrize(
    "text",
    [
        "var a\ninit 00\n",  # width mismatch
        "var a\ninit 1\nedge 1\n",  # edge arity
        "var a\nfrob 1\n",  # unknown directive
        "init 0\n",  # no variables
        "var a\nedge 0 1\n",  # no initial state
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_explicit_family(text)


# --- guarded clauses and assumptions -----------------------------------------


def guarded_toggle() -> tuple[TransitionSystem, int]:
    """One state bit. Base relation holds x constant; a guard enables the
    toggling step instead."""
    pool = VarPool()
    x = pool.fresh_var()
    xp = pool.fresh_var()
    g = pool.fresh_var()
    trans = [
        # guard off: x' = x
        Clause([g, -x, xp]),
        Clause([g, x, -xp]),
        # guard on: x' = not x
        Clause([-g, -x, -xp]),
        Clause([-g, x, xp]),
    ]
    sys_ = TransitionSystem(
        var_names=["x"],
        state_vars=[x],
        primed_vars=[xp],
        nvars=pool.n,
        init=[Clause([-x])],
        trans=trans,
        prop=[Clause([-x])],
        guards=[g],
    )
    return sys_, g


def test_guard_selects_step_relation():
    sys_, g = guarded_toggle()
    frozen = Instance(sys_, "frozen", ())
    toggling = Instance(sys_, "toggling", (g,))
    assert {s.bits for s in explicit_reachable(frozen)} == {"0"}
    assert {s.bits for s in explicit_reachable(toggling)} == {"0", "1"}
    ok, _ = holds_invariant_explicit(frozen)
    assert ok
    ok, trace = holds_invariant_explicit(toggling)
    assert not ok and [s.bits for s in trace] == ["0", "1"]


def test_effective_trans_reduces_guards():
    sys_, g = guarded_toggle()
    toggling = Instance(sys_, "toggling", (g,))
    reduced = effective_trans(toggling)
    # clauses carrying the positive guard literal are satisfied and dropped;
    # the others lose their negated guard literal
    assert all(g not in c and -g not in c for c in reduced)
    assert len(reduced) == 2


def test_non_guard_assumption_becomes_step_constraint():
    sys_, g = guarded_toggle()
    # rebuild without declaring g as a guard: the assumption then lands as a
    # unit step constraint instead of reducing clauses syntactically
    plain = TransitionSystem(
        var_names=sys_.var_names,
        state_vars=sys_.state_vars,
        primed_vars=sys_.primed_vars,
        nvars=sys_.nvars,
        init=sys_.init,
        trans=sys_.trans,
        prop=sys_.prop,
    )
    inst = Instance(plain, "forced", (g,))
    assert Clause([g]) in effective_trans(inst)
    # semantics match the guarded reading: only the toggle branch remains
    assert {s.bits for s in explicit_reachable(inst)} == {"0", "1"}


# --- properties against the pure BFS oracle ----------------------------------


def bits_strategy(n):
    return st.text(alphabet="01", min_size=n, max_size=n)


@st.composite
def explicit_system_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    states = ["".join(bs) for bs in itertools.product("01", repeat=n)]
    inits = draw(st.lists(st.sampled_from(states), min_size=1, max_size=2))
    n_edges = draw(st.integers(min_value=0, max_value=10))
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(states), st.sampled_from(states)),
            min_size=n_edges,
            max_size=n_edges,
        )
    )
    bads = draw(st.lists(st.sampled_from(states), min_size=0, max_size=2))
    return n, inits, edges, bads


@settings(max_examples=60, deadline=None)
@given(explicit_system_strategy())
def test_reachable_matches_pure_bfs(params):
    n, inits, edges, bads = params
    inst = build_explicit([f"v{i}" for i in range(n)], inits, edges, bads)
    got = {s.bits for s in explicit_reachable(inst)}
    want = bfs_reachable(set(inits), edge_successors(edges))
    assert got == want


@settings(max_examples=60, deadline=None)
@given(explicit_system_strategy())
def test_invariant_check_matches_pure_bfs(params):
    n, inits, edges, bads = params
    inst = build_explicit([f"v{i}" for i in range(n)], inits, edges, bads)
    ok, trace = holds_invariant_explicit(inst)
    bad_set = set(bads)
    want = bfs_shortest_path(set(inits), edge_successors(edges), lambda s: s in bad_set)
    if want is None:
        assert ok and trace is None
    else:
        assert not ok
        bits = [s.bits for s in trace]
        # a shortest trace: right length, valid steps, bad endpoint only
        assert len(bits) == len(want)
        assert bits[0] in set(inits) and bits[-1] in bad_set
        edge_set = set(edges)
        for a, b in zip(bits, bits[1:]):
            assert (a, b) in edge_set


@settings(max_examples=40, deadline=None)
@given(explicit_system_strategy(), st.data())
def test_adding_edges_is_refined_by(params, data):
    n, inits, edges, bads = params
    states = ["".join(bs) for bs in itertools.product("01", repeat=n)]
    extra = data.draw(
        st.lists(
            st.tuples(st.sampled_from(states), st.sampled_from(states)),
            min_size=0,
            max_size=4,
        )
    )
    base, groups = edge_groups(edges, extra)
    names = [f"v{i}" for i in range(n)]
    fam = build_explicit_family(names, inits, base, groups, bads, "relaxing")
    small, large = fam.instances
    assert check_refines(small, large)
    # every edge of the group is new, so the reverse holds exactly when the
    # group is empty
    assert check_refines(large, small) == (not groups[0])


@settings(max_examples=25, deadline=None)
@given(explicit_system_strategy(), st.data())
def test_refinement_transitive_on_chains(params, data):
    n, inits, edges, bads = params
    states = ["".join(bs) for bs in itertools.product("01", repeat=n)]
    pair_lists = st.lists(
        st.tuples(st.sampled_from(states), st.sampled_from(states)),
        min_size=0,
        max_size=3,
    )
    mid_extra = data.draw(pair_lists)
    top_extra = data.draw(pair_lists)
    base, groups = edge_groups(edges, mid_extra, top_extra)
    names = [f"v{i}" for i in range(n)]
    fam = build_explicit_family(names, inits, base, groups, bads, "relaxing")
    bottom, middle, top = fam.instances
    assert check_refines(bottom, middle)
    assert check_refines(middle, top)
    assert check_refines(bottom, top)


def test_successors_reusable_context():
    inst = relaxed_two_bit()
    solver = oracle_solver(inst, effective_trans(inst))
    s00 = State.from_bits("00")
    s01 = State.from_bits("01")
    # interleaved queries against one context must not cross-contaminate
    assert {t.bits for t in successors(solver, inst, s00)} == {"01", "11"}
    assert {t.bits for t in successors(solver, inst, s01)} == {"00", "10"}
    assert {t.bits for t in successors(solver, inst, s00)} == {"01", "11"}

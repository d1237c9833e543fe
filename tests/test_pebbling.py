"""Pebbling encoder, dependency-dag parsing, and game-oracle agreement."""

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ipdr.certify import check_refines
from ipdr.engine import EngineError, Invariant, PdrConfig, Trace, UsageError
from ipdr.incremental import ipdr_binary, ipdr_constrain, ipdr_relax, naive_driver
from ipdr.pebbling import (
    Dag,
    decode_pebbling_trace,
    encode_pebbling,
    load_dag,
    parse_dag,
    parse_tfc,
)
from ipdr.system import State, effective_trans

from oracles import (enumerate_init_states, explicit_reachable, oracle_solver,
                     pebbling_game_strategy, pebbling_min_budget, successors)

DEBUG = PdrConfig(debug_invariants=True)

CHAIN2 = Dag(("a", "b"), (("a", "b"),), ("b",))
CHAIN3 = Dag(("a", "b", "c"), (("a", "b"), ("b", "c")), ("c",))
DIAMOND = Dag(
    ("a", "b", "c", "d"),
    (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")),
    ("d",),
)


def config_of(dag, state):
    return frozenset(v for v, bit in zip(dag.nodes, state.values) if bit)


def trace_from_path(dag, path):
    return Trace(tuple(State(tuple(v in cfg for v in dag.nodes)) for cfg in path))


# --- dag validation and parsing ----------------------------------------------------


def test_dag_rejects_cycle_naming_a_node():
    with pytest.raises(ValueError, match="cycle.*a"):
        Dag(("a", "b"), (("a", "b"), ("b", "a")), ("a",))


def test_dag_rejects_self_edge():
    with pytest.raises(ValueError, match="cycle"):
        Dag(("a",), (("a", "a"),), ("a",))


def test_dag_rejects_undeclared_endpoint():
    with pytest.raises(ValueError, match="undeclared"):
        Dag(("a",), (("a", "b"),), ("a",))


def test_dag_rejects_empty_outputs():
    with pytest.raises(ValueError, match="output"):
        Dag(("a",), (), ())


def test_dag_rejects_unknown_output():
    with pytest.raises(ValueError, match="not a declared node"):
        Dag(("a",), (), ("b",))


def test_dag_rejects_duplicate_nodes():
    with pytest.raises(ValueError, match="duplicate"):
        Dag(("a", "a"), (), ("a",))


def test_parse_dag_chain2():
    text = "# two-node chain\nnode a\nnode b\nedge a b\noutput b\n"
    dag = parse_dag(text)
    assert dag.nodes == ("a", "b")
    assert dag.edges == (("a", "b"),)
    assert dag.outputs == ("b",)


def test_parse_dag_unknown_directive_has_line_number():
    with pytest.raises(ValueError, match="line 2"):
        parse_dag("node a\nvertex b\noutput a")


def test_parse_dag_bad_arity_has_line_number():
    with pytest.raises(ValueError, match="line 3"):
        parse_dag("node a\nnode b\nedge a\noutput b")


def test_parse_tfc_three_gates_is_chain3():
    text = """.v a,b,c
.i a,b
.o c
BEGIN
t2 a,b
t2 b,c
t1 c
END
"""
    dag = parse_tfc(text)
    assert dag.nodes == ("g1", "g2", "g3")
    assert dag.edges == (("g1", "g2"), ("g2", "g3"))
    assert dag.outputs == ("g3",)


def test_parse_tfc_rejects_unknown_wire():
    text = ".v a,b\n.o b\nt2 a,q\n"
    with pytest.raises(ValueError, match="line 3.*unknown wire"):
        parse_tfc(text)


def test_parse_tfc_rejects_unknown_header():
    with pytest.raises(ValueError, match="unknown header"):
        parse_tfc(".q a\n")


def test_parse_tfc_rejects_unwritten_outputs():
    with pytest.raises(ValueError, match="no circuit output"):
        parse_tfc(".v a,b\n.o b\n")


def test_parse_tfc_shared_producer_edge_not_duplicated():
    # g2 reads a and b, both last written by g1
    text = ".v a,b\n.o b\nt2 b,a\nt2 a,b\n"
    dag = parse_tfc(text)
    assert dag.nodes == ("g1", "g2")
    assert dag.edges == (("g1", "g2"),)


# --- encoding structure -------------------------------------------------------------


def test_budget_out_of_range_is_usage_error():
    with pytest.raises(UsageError):
        encode_pebbling(CHAIN3, [0, 1])
    with pytest.raises(UsageError):
        encode_pebbling(CHAIN3, [4])
    with pytest.raises(UsageError):
        encode_pebbling(CHAIN3, [])


def test_initial_state_is_empty_board_for_every_budget():
    fam = encode_pebbling(CHAIN3, [1, 2, 3])
    for inst in fam.instances:
        assert [s.bits for s in enumerate_init_states(inst)] == ["000"]


def test_raising_the_budget_releases_assumptions():
    fam = encode_pebbling(CHAIN3, [1, 2, 3])
    a1, a2, a3 = (set(i.assumptions) for i in fam.instances)
    assert a1 > a2 > a3 == set()
    assert [i.param for i in fam.instances] == [1, 2, 3]
    assert [i.label for i in fam.instances] == ["p1", "p2", "p3"]


def test_constraining_direction_lists_budgets_descending():
    fam = encode_pebbling(CHAIN3, [1, 2, 3], direction="constraining")
    assert [i.param for i in fam.instances] == [3, 2, 1]


def test_budget_instances_form_a_refinement_chain():
    fam = encode_pebbling(CHAIN3, [1, 2, 3])
    p1, p2, p3 = fam.instances
    assert check_refines(p1, p2)
    assert check_refines(p2, p3)
    assert not check_refines(p2, p1)
    # every shipped dag over every budget, listed relaxing
    for name in ("diamond.dag", "chain3.dag", "toy3.tfc"):
        dag = load_dag(str(Path(__file__).parent.parent / "benchmarks" / name))
        insts = encode_pebbling(dag, list(range(1, len(dag.nodes) + 1))).instances
        assert all(check_refines(a, b) for a, b in zip(insts, insts[1:]))


def test_refinement_matches_step_set_inclusion_on_diamond():
    # the budget totalizer leaves its outputs free below the count, so
    # check_refines is compared with the explicit step sets of every budget
    dag = load_dag(str(Path(__file__).parent.parent / "benchmarks" / "diamond.dag"))
    fam = encode_pebbling(dag, [1, 2, 3, 4])
    states = [State(bits) for bits in itertools.product((False, True), repeat=4)]
    steps = {}
    for inst in fam.instances:
        solver = oracle_solver(inst, effective_trans(inst))
        steps[inst.param] = {(s, t) for s in states for t in successors(solver, inst, s)}
    assert steps[1] < steps[2] < steps[3] < steps[4]
    # every budget shares the empty board, so refinement is step inclusion
    assert len({tuple(enumerate_init_states(i)) for i in fam.instances}) == 1
    for a, b in itertools.product(fam.instances, repeat=2):
        assert check_refines(a, b) == (steps[a.param] <= steps[b.param])


def test_budget_bounds_the_reachable_configurations():
    fam = encode_pebbling(CHAIN2, [1, 2])
    reached = [{s.bits for s in explicit_reachable(i)} for i in fam.instances]
    assert reached[0] == {"00", "10"}
    assert reached[1] == {"00", "10", "11", "01"}


# --- verdicts on fixed dags ---------------------------------------------------------


def test_single_output_node_pebbled_in_one_step():
    dag = Dag(("a",), (), ("a",))
    fam = encode_pebbling(dag, [1])
    out = naive_driver(fam, DEBUG)
    assert isinstance(out.verdict, Trace)
    assert len(out.verdict) == 1
    sched = decode_pebbling_trace(out.verdict, dag)
    assert [(s.placed, s.removed) for s in sched.steps] == [(("a",), ())]
    assert sched.max_pebbles == 1


def test_chain2_oracle_minimum_and_shortest_strategy():
    p, path = pebbling_min_budget(CHAIN2)
    assert p == 2
    assert path == [
        frozenset(),
        frozenset({"a"}),
        frozenset({"a", "b"}),
        frozenset({"b"}),
    ]


def test_chain2_optimal_trace_decodes_to_place_place_remove():
    path = pebbling_game_strategy(CHAIN2, 2)
    sched = decode_pebbling_trace(trace_from_path(CHAIN2, path), CHAIN2)
    assert [(s.placed, s.removed) for s in sched.steps] == [
        (("a",), ()),
        (("b",), ()),
        ((), ("a",)),
    ]
    assert sched.max_pebbles == 2


def test_chain2_engine_finds_the_boundary():
    res = ipdr_binary(encode_pebbling(CHAIN2, [1, 2]), DEBUG)
    assert res.optimum == 2
    assert isinstance(res.witness_trace, Trace)
    assert isinstance(res.impossibility_invariant, Invariant)
    sched = decode_pebbling_trace(res.witness_trace, CHAIN2)
    assert sched.max_pebbles <= 2
    assert config_of(CHAIN2, res.witness_trace.states[-1]) == {"b"}


def test_chain3_minimum_needs_three_pebbles():
    p, path = pebbling_min_budget(CHAIN3)
    assert p == 3
    assert len(path) - 1 == 5
    res = ipdr_binary(encode_pebbling(CHAIN3, [1, 2, 3]), DEBUG)
    assert res.optimum == 3
    sched = decode_pebbling_trace(res.witness_trace, CHAIN3)
    assert len(sched.steps) >= 5
    assert config_of(CHAIN3, res.witness_trace.states[-1]) == {"c"}


def test_diamond_minimum_needs_four_pebbles():
    # flipping d holds b and c, and removing either needs a back on the board
    p, _ = pebbling_min_budget(DIAMOND)
    assert p == 4
    res = ipdr_binary(encode_pebbling(DIAMOND, [1, 2, 3, 4]), DEBUG)
    assert res.optimum == 4


def min_budget_by(strategy, dag):
    ps = list(range(1, len(dag.nodes) + 1))
    if strategy == "binary":
        return ipdr_binary(encode_pebbling(dag, ps), DEBUG).optimum
    if strategy == "relax":
        out = ipdr_relax(encode_pebbling(dag, ps), DEBUG)
    elif strategy == "constrain":
        out = ipdr_constrain(encode_pebbling(dag, ps, "constraining"), DEBUG)
        if isinstance(out.verdict, Invariant):
            return int(out.final_parameter[1:]) + 1
    else:
        out = naive_driver(encode_pebbling(dag, ps), DEBUG)
    assert isinstance(out.verdict, Trace)
    return int(out.final_parameter[1:])


@pytest.mark.parametrize("strategy", ["relax", "constrain", "binary", "naive"])
@pytest.mark.parametrize("dag", [CHAIN2, CHAIN3, DIAMOND], ids=lambda d: d.outputs[0])
def test_every_strategy_matches_the_game_oracle(strategy, dag):
    assert min_budget_by(strategy, dag) == pebbling_min_budget(dag)[0]


# --- decoding -----------------------------------------------------------------------


def test_decode_rejects_nonempty_start():
    trace = trace_from_path(CHAIN2, [frozenset({"a"}), frozenset({"a", "b"})])
    with pytest.raises(EngineError, match="empty board"):
        decode_pebbling_trace(trace, CHAIN2)


def test_decode_rejects_rule_violation():
    trace = trace_from_path(CHAIN2, [frozenset(), frozenset({"b"})])
    with pytest.raises(EngineError, match="predecessor"):
        decode_pebbling_trace(trace, CHAIN2)


def test_decode_drops_stutter_steps():
    path = [frozenset(), frozenset(), frozenset({"a"}), frozenset({"a"})]
    sched = decode_pebbling_trace(trace_from_path(CHAIN2, path), CHAIN2)
    assert [(s.placed, s.removed) for s in sched.steps] == [(("a",), ())]


# --- random dags against the oracle -------------------------------------------------


@st.composite
def random_dag(draw):
    n = draw(st.integers(2, 5))
    names = tuple(f"n{i}" for i in range(n))
    edges = []
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()):
                edges.append((names[i], names[j]))
    outputs = draw(
        st.sets(st.sampled_from(names), min_size=1).map(sorted).map(tuple)
    )
    return Dag(names, tuple(edges), outputs)


@settings(max_examples=15, deadline=None)
@given(dag=random_dag())
def test_random_dag_boundary_matches_oracle(dag):
    p_min, _ = pebbling_min_budget(dag)
    res = ipdr_binary(encode_pebbling(dag, list(range(1, len(dag.nodes) + 1))), DEBUG)
    assert res.optimum == p_min
    sched = decode_pebbling_trace(res.witness_trace, dag)
    assert sched.max_pebbles <= p_min
    assert config_of(dag, res.witness_trace.states[-1]) == set(dag.outputs)


@settings(max_examples=15, deadline=None)
@given(dag=random_dag())
def test_oracle_reachability_is_monotone_in_the_budget(dag):
    feasible = [
        pebbling_game_strategy(dag, p) is not None
        for p in range(1, len(dag.nodes) + 1)
    ]
    assert feasible == sorted(feasible)
    assert feasible[-1]

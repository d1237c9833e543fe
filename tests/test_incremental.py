"""Incremental drivers against the naive baseline and the explicit oracle."""

from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ipdr.certify
from ipdr.certify import Skeleton, check_invariant, check_trace, load_frames
from ipdr.cnf import Clause
from ipdr.engine import (
    Invariant,
    PdrConfig,
    Trace,
    UsageError,
    pdr_init,
    pdr_main,
    validate_ctx,
)
from ipdr.incremental import (
    _visit,
    constrain,
    ipdr_binary,
    ipdr_constrain,
    ipdr_relax,
    naive_driver,
    relax,
    trace_valid_in,
)
from ipdr.pebbling import encode_pebbling, load_dag
from ipdr.peterson import encode_peterson
from ipdr.solver import Solver
from ipdr.stats import EngineCounters
from ipdr.system import (
    Instance,
    InstanceFamily,
    State,
    TransitionSystem,
    build_explicit_family,
)

from oracles import NoSimplify, holds_invariant_explicit

DEBUG = PdrConfig(debug_invariants=True)


def chain_family(direction):
    """11 reachable only when both groups are on; group 1 alone is harmless."""
    return build_explicit_family(
        ["a", "b"],
        ["00"],
        [("00", "01")],
        [[("01", "10")], [("10", "11")]],
        ["11"],
        direction=direction,
    )


def skip_family():
    """Constraining family whose counterexample survives dropping group 2:
    the trace uses only base edges and group 1."""
    return build_explicit_family(
        ["a", "b"],
        ["00"],
        [("00", "01"), ("01", "10")],
        [[("10", "11")], [("00", "00")]],
        ["11"],
        direction="constraining",
    )


def deep_family():
    """The base instance converges at frontier 2 with two clauses below it.
    Group 1 re-reaches one of the blocked states without making the bad
    state reachable, so the first relaxation copies one clause of two;
    group 2 opens a path to the bad state."""
    return build_explicit_family(
        ["a", "b", "c"],
        ["000"],
        [("000", "000"), ("000", "001"), ("101", "001"), ("101", "010"), ("111", "011")],
        [[("011", "010")], [("010", "001"), ("001", "011")]],
        ["011"],
        direction="relaxing",
    )


def two_paths_family():
    """Constraining family with a different counterexample per unsafe
    instance: group 2 adds a one-step path to the bad state, group 1 a
    two-step one, so the trace of instance 2 does not replay in 1."""
    return build_explicit_family(
        ["a", "b"],
        ["00"],
        [],
        [[("00", "01"), ("01", "11")], [("00", "11")]],
        ["11"],
        direction="constraining",
    )


def three_paths_family():
    """Constraining family where instance j adds a path of 4 - j steps to
    the bad state, so no trace replays in the next instance and a
    constraining sweep runs all four on one context."""
    return build_explicit_family(
        ["a", "b", "c"],
        ["000"],
        [],
        [
            [("000", "001"), ("001", "011"), ("011", "111")],
            [("000", "100"), ("100", "111")],
            [("000", "111")],
        ],
        ["111"],
        direction="constraining",
    )


def all_safe_family():
    return build_explicit_family(
        ["a", "b"],
        ["00"],
        [("00", "01")],
        [[("01", "10")], [("10", "01")]],
        ["11"],
        direction="relaxing",
    )


def guarded_init_family(levels=2):
    """Relaxation that widens the initial states: the guard admits x=1,
    which itself violates the property."""
    sys_ = TransitionSystem(
        var_names=["x"],
        state_vars=(1,),
        primed_vars=(2,),
        nvars=2 + levels,
        init=(Clause([-1, 3]),),
        trans=(Clause([-1, 2]), Clause([1, -2])),
        prop=(Clause([-1]),),
        guards=tuple(range(3, 3 + levels)),
    )
    members = tuple(
        Instance(
            system=sys_,
            label=str(j),
            assumptions=tuple(g if i < j else -g for i, g in enumerate(sys_.guards)),
            param=j,
        )
        for j in range(levels + 1)
    )
    return InstanceFamily(system=sys_, instances=members, direction="relaxing")


def verdict_kinds(outcome):
    return [(r.instance_label, r.verdict_kind) for r in outcome.per_instance_stats]


# --- repair operations --------------------------------------------------------------


def test_constrain_keeps_frontier_and_clears_queue():
    fam = chain_family("constraining")
    first, second = fam.instances[0], fam.instances[1]
    ctx = pdr_init(first, DEBUG)
    verdict = pdr_main(ctx)
    assert isinstance(verdict, Trace)
    k_before = ctx.frames.k
    constrain(ctx, second)
    assert ctx.frames.k == k_before
    assert ctx.queue == []
    assert ctx.instance is second
    assert validate_ctx(ctx, frontier_clear=False) == []
    assert isinstance(pdr_main(ctx), Invariant)


def test_relax_restarts_frontier_with_preloaded_clauses():
    fam = deep_family()
    ctx = pdr_init(fam.instances[0], DEBUG)
    verdict = pdr_main(ctx)
    assert isinstance(verdict, Invariant)
    assert ctx.frames.k == 2
    ctx.rebind(fam.instances[1])
    attempts, copied = relax(ctx, fam.instances[1])
    assert ctx.frames.k == 0
    assert (attempts, copied) == (2, 1)
    assert validate_ctx(ctx) == []
    assert isinstance(pdr_main(ctx), Invariant)


def test_relax_copies_pass_posthoc_reverification():
    """Every copied clause must satisfy both copy conditions against the
    finished frame sequence, not just the prefix it was checked under."""
    fam = deep_family()
    ctx = pdr_init(fam.instances[0], PdrConfig())
    pdr_main(ctx)
    ctx.rebind(fam.instances[1])
    _, copied = relax(ctx, fam.instances[1])
    chk = load_frames(fam.instances[1], ctx.frames.deltas)
    total = 0
    for level in range(2, ctx.frames.max_level + 1):
        for c in ctx.frames.deltas[level]:
            total += 1
            assert not chk.sat_init(c.negate()).sat
            assert chk.step_holds(level - 1, c, with_prop=False)
    assert total == copied > 0


def test_relax_with_shallow_frames_copies_nothing():
    fam = chain_family("relaxing")
    ctx = pdr_init(fam.instances[0], PdrConfig())
    assert isinstance(pdr_main(ctx), Invariant)
    assert ctx.frames.k == 1
    ctx.rebind(fam.instances[1])
    assert relax(ctx, fam.instances[1]) == (0, 0)


def test_relax_rejects_pending_obligations():
    fam = chain_family("relaxing")
    ctx = pdr_init(fam.instances[0], PdrConfig())
    pdr_main(ctx)
    ctx.push(1, ctx.system.state_cube(State.from_bits("01")), None)
    with pytest.raises(UsageError):
        relax(ctx, fam.instances[1])


# --- trace replay -----------------------------------------------------------------


def test_trace_replay_checks_every_leg():
    fam = skip_family()
    most, middle, least = fam.instances
    ctx = pdr_init(most, PdrConfig())
    trace = pdr_main(ctx)
    assert isinstance(trace, Trace)
    assert trace_valid_in(trace, most)
    assert trace_valid_in(trace, middle)  # group 2 is not on the path
    assert not trace_valid_in(trace, least)  # group 1 carried 10 -> 11
    # one skeleton rebound from instance to instance gives the same answers
    sk = Skeleton(fam.system)
    for inst in (least, most, middle, least, most):
        assert trace_valid_in(trace, inst, lambda: sk) == trace_valid_in(trace, inst)


def test_trace_replay_length_zero():
    fam = build_explicit_family(
        ["a"], ["0", "1"], [("0", "0")], [], ["1"], direction="constraining"
    )
    (inst,) = fam.instances
    ctx = pdr_init(inst, PdrConfig())
    trace = pdr_main(ctx)
    assert isinstance(trace, Trace) and len(trace.states) == 1
    assert trace_valid_in(trace, inst)
    # an empty trace fails the checks, on a driver's skeleton too
    sk = Skeleton(fam.system)
    assert not trace_valid_in(Trace(()), inst, lambda: sk)


# --- linear drivers ---------------------------------------------------------------


def test_constrain_driver_stops_at_first_invariant():
    out = ipdr_constrain(chain_family("constraining"), DEBUG)
    assert verdict_kinds(out) == [("2", "trace"), ("1", "invariant")]
    assert out.final_parameter == "1"
    assert isinstance(out.verdict, Invariant)


def test_constrain_driver_skips_replayable_instances():
    out = ipdr_constrain(skip_family(), DEBUG)
    assert verdict_kinds(out) == [("2", "trace"), ("1", "trace"), ("0", "invariant")]
    skipped = out.per_instance_stats[1]
    assert skipped.sat_calls == 0 and skipped.cti_count == 0
    assert skipped.obligations_handled == 0
    ran = out.per_instance_stats[2]
    assert ran.sat_calls > 0


def test_relax_driver_stops_at_first_trace():
    out = ipdr_relax(chain_family("relaxing"), DEBUG)
    assert verdict_kinds(out) == [("0", "invariant"), ("1", "invariant"), ("2", "trace")]
    assert out.final_parameter == "2"
    assert isinstance(out.verdict, Trace)
    assert [s.bits for s in out.verdict.states] == ["00", "01", "10", "11"]


def test_relax_driver_copy_counters():
    out = ipdr_relax(deep_family(), DEBUG)
    rows = [(r.instance_label, r.verdict_kind, r.copy_attempts, r.copied_clauses)
            for r in out.per_instance_stats]
    assert rows == [("0", "invariant", 0, 0), ("1", "invariant", 2, 1), ("2", "trace", 0, 0)]


def test_relax_driver_reports_initial_violation_without_repair():
    out = ipdr_relax(guarded_init_family(1), DEBUG)
    assert verdict_kinds(out) == [("0", "invariant"), ("1", "trace")]
    assert len(out.verdict.states) == 1
    row = out.per_instance_stats[1]
    assert row.copy_attempts == 0 and row.cti_count == 0


@pytest.mark.parametrize(
    "driver, make, expect",
    [
        (ipdr_constrain, two_paths_family, "previous"),
        (naive_driver, two_paths_family, "previous"),
        (ipdr_relax, lambda: chain_family("relaxing"), "verdict"),
        (ipdr_relax, all_safe_family, None),
    ],
    ids=["constrain-ends-on-invariant", "naive-constraining", "relax-ends-on-trace",
         "relax-runs-out"],
)
def test_last_trace_is_the_most_recent_counterexample(driver, make, expect):
    fam = make()
    out = driver(fam, DEBUG)
    if expect is None:
        assert isinstance(out.verdict, Invariant) and out.last_trace is None
    elif expect == "verdict":
        assert isinstance(out.verdict, Trace) and out.last_trace is out.verdict
    else:  # the two-step trace of instance 1, not the one-step trace of 2
        assert verdict_kinds(out) == [("2", "trace"), ("1", "trace"), ("0", "invariant")]
        assert [s.bits for s in out.last_trace.states] == ["00", "01", "11"]


@pytest.mark.parametrize(
    "driver, make",
    [
        (ipdr_constrain, three_paths_family),
        (ipdr_relax, all_safe_family),
        (naive_driver, three_paths_family),
    ],
    ids=["constrain", "relax", "naive"],
)
def test_timeout_is_a_budget_per_instance(monkeypatch, driver, make):
    """Each run takes 0.9 of the budget on a fake clock, so the sweep only
    finishes when every instance gets a budget of its own."""
    import time

    import ipdr.incremental as inc

    budget = 600.0
    real = time.perf_counter
    jump = [0.0]
    monkeypatch.setattr(time, "perf_counter", lambda: real() + jump[0])
    original = inc.pdr_main

    def run_then_jump(ctx):
        try:
            return original(ctx)
        finally:
            jump[0] += 0.9 * budget

    monkeypatch.setattr(inc, "pdr_main", run_then_jump)
    fam = make()
    out = driver(fam, PdrConfig(timeout_s=budget))
    assert len(out.per_instance_stats) == len(fam.instances)


def test_driver_direction_is_checked():
    with pytest.raises(UsageError):
        ipdr_constrain(chain_family("relaxing"))
    with pytest.raises(UsageError):
        ipdr_relax(chain_family("constraining"))


def test_naive_matches_constrain_driver_rows():
    fam = skip_family()
    inc = ipdr_constrain(fam, PdrConfig())
    ref = naive_driver(fam, PdrConfig())
    assert verdict_kinds(inc) == verdict_kinds(ref)
    assert inc.final_parameter == ref.final_parameter
    for row in ref.per_instance_stats:
        assert row.copy_attempts == 0 and row.copied_clauses == 0
        assert row.strategy == "naive"


def test_naive_matches_relax_driver_rows():
    fam = deep_family()
    inc = ipdr_relax(fam, PdrConfig())
    ref = naive_driver(fam, PdrConfig())
    assert verdict_kinds(inc) == verdict_kinds(ref)
    assert inc.final_parameter == ref.final_parameter


def test_constrain_reuse_changes_sat_call_totals():
    """Reuse must leave a visible mark on the call counters; on this family
    the naive baseline re-derives every frame from scratch."""
    fam = build_explicit_family(
        ["a", "b", "c"],
        ["000"],
        [("000", "001"), ("001", "010"), ("010", "011")],
        [[("011", "100")], [("100", "101")], [("101", "110")]],
        ["110"],
        direction="constraining",
    )
    inc = ipdr_constrain(fam, PdrConfig())
    ref = naive_driver(fam, PdrConfig())
    assert verdict_kinds(inc) == verdict_kinds(ref)
    calls = lambda o: sum(r.sat_calls for r in o.per_instance_stats)
    assert calls(inc) != calls(ref)


# --- binary search ----------------------------------------------------------------


def test_binary_agrees_with_linear_boundary():
    fam = chain_family("relaxing")
    res = ipdr_binary(fam, DEBUG)
    lin = ipdr_relax(fam, PdrConfig())
    assert res.optimum == int(lin.final_parameter) == 2
    assert [s.bits for s in res.witness_trace.states] == [
        s.bits for s in lin.verdict.states
    ]
    assert isinstance(res.impossibility_invariant, Invariant)


def test_binary_accepts_constraining_order():
    res = ipdr_binary(chain_family("constraining"), DEBUG)
    assert res.optimum == 2


def test_binary_all_safe_reports_no_optimum():
    fam = all_safe_family()
    res = ipdr_binary(fam, DEBUG)
    assert res.optimum is None and res.witness_trace is None
    assert isinstance(res.impossibility_invariant, Invariant)
    # bisection from the unprobed ends: ceil(log2(3 + 1)) probes, the last
    # one at the most relaxed instance, whose invariant is the blocker
    assert [r.instance_label for r in res.per_instance_stats] == ["1", "2"]
    top = fam.instances[-1]
    assert all(check_invariant(top, res.impossibility_invariant.clauses).values())


def test_binary_all_violated_reports_family_minimum():
    fam = build_explicit_family(
        ["a", "b"],
        ["00"],
        [("00", "11")],
        [[("01", "10")]],
        ["11"],
        direction="relaxing",
    )
    res = ipdr_binary(fam, DEBUG)
    assert res.optimum == 0
    assert res.impossibility_invariant is None


def test_binary_probes_initial_violation_at_midpoint(monkeypatch):
    """The probe after an invariant reuses its context, rebinding first; the
    relaxed initial states already violate the property, so the probe must
    answer at depth 0 without repairing the stale frames."""
    import ipdr.incremental as inc

    def relax_spy(ctx, nxt):
        raise AssertionError(f"repaired the frames of {ctx.instance.label} for {nxt.label}")

    monkeypatch.setattr(inc, "relax", relax_spy)
    fam = guarded_init_family(1)
    res = ipdr_binary(fam, DEBUG)
    assert res.optimum == 1
    assert len(res.witness_trace.states) == 1
    assert isinstance(res.impossibility_invariant, Invariant)
    rows = res.per_instance_stats
    assert [r.instance_label for r in rows] == ["0", "1"]
    assert [r.verdict_kind for r in rows] == ["invariant", "trace"]
    assert rows[1].sat_calls > 0 and rows[1].cti_count == 0  # asked, not replayed


def test_binary_relaxes_from_the_last_invariant_only(monkeypatch):
    """Binary search caches only the context of its most recent invariant
    probe: the probe after an invariant relaxes up from it, every other
    probe starts a fresh engine, a probe where the upper bound's trace
    replays does no engine work at all, and nothing is ever constrained
    down. On `guarded_init_family(4)` the fresh probe at 2 answers at depth
    0, the probe at 0 starts fresh after it, and the length-0 trace of 2
    replays at 1."""
    import ipdr.incremental as inc

    events, origin, replayed = [], {}, []
    init, original_relax, original_replay = inc.pdr_init, inc.relax, inc.trace_valid_in

    def init_spy(inst, cfg):
        ctx = init(inst, cfg)
        origin[id(ctx)] = inst.label
        events.append(("fresh", inst.label))
        return ctx

    def relax_spy(ctx, nxt):
        events.append(("relax", origin[id(ctx)], nxt.label))
        origin[id(ctx)] = nxt.label
        return original_relax(ctx, nxt)

    def constrain_spy(ctx, nxt):
        raise AssertionError(f"constrained down from {ctx.instance.label} to {nxt.label}")

    def replay_spy(trace, inst, replayer):
        valid = original_replay(trace, inst, replayer)
        if valid:
            replayed.append(inst.label)
        return valid

    monkeypatch.setattr(inc, "pdr_init", init_spy)
    monkeypatch.setattr(inc, "relax", relax_spy)
    monkeypatch.setattr(inc, "constrain", constrain_spy)
    monkeypatch.setattr(inc, "trace_valid_in", replay_spy)
    bench = Path(__file__).parent.parent / "benchmarks"
    families = [("guarded", guarded_init_family(4))]
    for stem in ("diamond", "chain3"):
        dag = load_dag(str(bench / f"{stem}.dag"))
        families.append((stem, encode_pebbling(dag, list(range(1, len(dag.nodes) + 1)))))
    relaxed = 0
    for name, fam in families:
        events.clear()
        replayed.clear()
        res = ipdr_binary(fam, DEBUG)
        rows = res.per_instance_stats
        by_target = {e[-1]: e for e in events}
        assert len(by_target) == len(events)
        for prev, row in zip((None,) + rows, rows):
            label, event = row.instance_label, by_target.get(row.instance_label)
            if label in replayed:  # a replayed row has no engine event
                assert event is None and row.verdict_kind == "trace", name
                assert row.sat_calls == row.cti_count == 0, name
            elif prev is None or prev.verdict_kind == "trace":
                assert event == ("fresh", label), name
            elif event is None:  # the depth-0 answer repairs nothing
                assert row.verdict_kind == "trace" and row.cti_count == 0, name
            else:
                assert event == ("relax", prev.instance_label, label), name
                relaxed += 1
        if name == "guarded":
            assert [r.instance_label for r in rows] == ["2", "0", "1"]
            assert events == [("fresh", "2"), ("fresh", "0")]
            assert replayed == ["1"]
            assert res.optimum == 1
    assert relaxed > 0


def test_binary_replays_its_witness_below_a_trace():
    """A probe below a trace first replays that trace; where it is still a
    counterexample the probe is answered with it and does no engine work,
    and the witness reported is certified at the optimum."""
    fam = guarded_init_family(4)
    res = ipdr_binary(fam, DEBUG)
    assert res.optimum == 1
    rows = {r.instance_label: r for r in res.per_instance_stats}
    skipped = rows["1"]
    assert skipped.verdict_kind == "trace"
    assert (skipped.sat_calls, skipped.cti_count, skipped.obligations_handled,
            skipped.copy_attempts, skipped.copied_clauses) == (0, 0, 0, 0, 0)
    assert skipped.strategy == "binary"
    optimum = next(i for i in fam.instances if i.param == res.optimum)
    assert all(check_trace(optimum, res.witness_trace.states).values())


def test_binary_requires_parameters():
    fam = chain_family("relaxing")
    stripped = InstanceFamily(
        system=fam.system,
        instances=tuple(
            Instance(system=i.system, label=i.label, assumptions=i.assumptions)
            for i in fam.instances
        ),
        direction="relaxing",
    )
    with pytest.raises(UsageError):
        ipdr_binary(stripped)


def test_binary_single_instance_family():
    fam = chain_family("relaxing")
    only = InstanceFamily(
        system=fam.system, instances=(fam.instances[2],), direction="relaxing"
    )
    res = ipdr_binary(only, DEBUG)
    assert res.optimum == 2
    assert res.impossibility_invariant is None


# --- determinism ------------------------------------------------------------------


COUNTERS = (*(f.name for f in fields(EngineCounters)), "sat_calls", "copy_attempts", "copied_clauses")


def counter_columns(outcome):
    return [
        (r.instance_label, r.verdict_kind, *(getattr(r, a) for a in COUNTERS))
        for r in outcome.per_instance_stats
    ]


def test_drivers_are_deterministic():
    fam = deep_family()
    for driver in (ipdr_relax, naive_driver):
        a = driver(fam, PdrConfig(seed=3))
        b = driver(fam, PdrConfig(seed=3))
        assert counter_columns(a) == counter_columns(b)
    cfam = skip_family()
    a = ipdr_constrain(cfam, PdrConfig(seed=3))
    b = ipdr_constrain(cfam, PdrConfig(seed=3))
    assert counter_columns(a) == counter_columns(b)


def test_a_reused_contexts_rows_add_up_to_its_counters():
    # each row is the difference of the context's counters across one
    # visit, so the rows of one reused context sum to its totals
    diamond = load_dag(str(Path(__file__).parent.parent / "benchmarks" / "diamond.dag"))
    for strategy, fam in (("relax", encode_peterson(2, [0, 1, 2])),
                          ("constrain", encode_pebbling(diamond, [1, 2, 3, 4], "constraining"))):
        ctx, rows = None, []
        for inst in fam.instances:
            ctx, _, row = _visit(ctx, inst, PdrConfig(), strategy)
            rows.append(row)
        for f in fields(EngineCounters):
            assert sum(getattr(r, f.name) for r in rows) == getattr(ctx.counters, f.name), f.name
        assert sum(r.sat_calls for r in rows) == ctx.fs.solver.n_solves
        assert len(rows) > 1 and sum(r.push_tries for r in rows) > 0


DRIVERS = {"relax": ipdr_relax, "constrain": ipdr_constrain,
           "binary": ipdr_binary, "naive": naive_driver}


@pytest.mark.parametrize("problem", ["lock2", "diamond"])
@pytest.mark.parametrize("strategy", DRIVERS)
def test_debug_invariants_leave_the_search_unchanged(strategy, problem):
    # the debug sweep checks the frames on a solver of its own, so every
    # row, SAT calls included, and every verdict match the unchecked run
    direction = "constraining" if strategy == "constrain" else "relaxing"
    if problem == "lock2":
        fam = encode_peterson(2, [0, 1, 2]).oriented(direction)
    else:
        diamond = load_dag(str(Path(__file__).parent.parent / "benchmarks" / "diamond.dag"))
        fam = encode_pebbling(diamond, [1, 2, 3, 4], direction)
    plain = DRIVERS[strategy](fam, PdrConfig())
    checked = DRIVERS[strategy](fam, DEBUG)
    assert counter_columns(checked) == counter_columns(plain)
    assert replace(checked, per_instance_stats=()) == replace(plain, per_instance_stats=())


# --- randomized cross-checks ------------------------------------------------------


@st.composite
def random_family(draw, direction):
    n = draw(st.integers(2, 3))
    states = [format(i, f"0{n}b") for i in range(2**n)]
    pairs = [(s, t) for s in states for t in states]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True))
    n_groups = draw(st.integers(1, 2))
    slots = draw(
        st.lists(st.integers(0, n_groups), min_size=len(edges), max_size=len(edges))
    )
    base = [e for e, s in zip(edges, slots) if s == 0]
    groups = [
        [e for e, s in zip(edges, slots) if s == g] for g in range(1, n_groups + 1)
    ]
    groups = [g for g in groups if g]
    if not groups:
        groups = [[edges[0]]]
        base = base[1:]
    inits = draw(st.lists(st.sampled_from(states), min_size=1, max_size=2, unique=True))
    bads = draw(st.lists(st.sampled_from(states), min_size=1, max_size=2, unique=True))
    return build_explicit_family(
        [f"x{i}" for i in range(n)], inits, base, groups, bads, direction=direction
    )


@settings(max_examples=20, deadline=None)
@given(random_family("constraining"))
def test_random_constrain_matches_naive_and_oracle(fam):
    cfg = PdrConfig(debug_invariants=True)
    inc = ipdr_constrain(fam, cfg)
    ref = naive_driver(fam, PdrConfig())
    assert verdict_kinds(inc) == verdict_kinds(ref)
    by_label = {i.label: i for i in fam.instances}
    for row in inc.per_instance_stats:
        holds, _ = holds_invariant_explicit(by_label[row.instance_label])
        assert row.verdict_kind == ("invariant" if holds else "trace")


@settings(max_examples=20, deadline=None)
@given(random_family("relaxing"))
def test_random_relax_matches_naive_and_oracle(fam):
    cfg = PdrConfig(debug_invariants=True)
    inc = ipdr_relax(fam, cfg)
    ref = naive_driver(fam, PdrConfig())
    assert verdict_kinds(inc) == verdict_kinds(ref)
    by_label = {i.label: i for i in fam.instances}
    for row in inc.per_instance_stats:
        holds, _ = holds_invariant_explicit(by_label[row.instance_label])
        assert row.verdict_kind == ("invariant" if holds else "trace")


@settings(max_examples=15, deadline=None)
@given(random_family("relaxing"))
def test_random_binary_matches_linear_scan(fam):
    res = ipdr_binary(fam, PdrConfig(debug_invariants=True))
    lin = naive_driver(fam, PdrConfig())
    if isinstance(lin.verdict, Trace):
        assert res.optimum == int(lin.final_parameter)
        assert res.witness_trace is not None
        if res.optimum > fam.instances[0].param:
            assert isinstance(res.impossibility_invariant, Invariant)
        else:
            assert res.impossibility_invariant is None
    else:
        assert res.optimum is None


def test_level_0_simplification_leaves_the_sweeps_unchanged(monkeypatch):
    dropped = []

    class Counting(Solver):
        def simplify(self) -> None:
            before = len(self.clauses) + len(self.learnts)
            super().simplify()
            dropped.append(before - len(self.clauses) - len(self.learnts))

    diamond = load_dag(str(Path(__file__).parent.parent / "benchmarks" / "diamond.dag"))

    def sweeps():
        outs = [
            ipdr_relax(encode_peterson(2, [0, 1, 2])),
            ipdr_constrain(encode_pebbling(diamond, [1, 2, 3, 4], "constraining")),
        ]
        return [
            ([(r.instance_label, r.verdict_kind, r.sat_calls) for r in o.per_instance_stats],
             o.verdict)
            for o in outs
        ]

    monkeypatch.setattr(ipdr.certify, "Solver", Counting)
    simplified = sweeps()
    monkeypatch.setattr(ipdr.certify, "Solver", NoSimplify)
    reference = sweeps()
    assert sum(dropped) > 0
    assert all(isinstance(verdict, Invariant) for _, verdict in reference)
    assert simplified == reference

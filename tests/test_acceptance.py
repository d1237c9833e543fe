"""One test per headline requirement. Each prints a short report and
passes or fails on its own pytest line; the cross-check against the
published circuit numbers is informative and never gates."""

import importlib.util
import random
import time
from dataclasses import fields
from pathlib import Path

from ipdr.certify import check_invariant, load_frames
from ipdr.engine import (
    Invariant,
    PdrConfig,
    Trace,
    pdr_init,
    pdr_main,
)
import ipdr.incremental as inc
from ipdr.incremental import (
    ipdr_binary,
    ipdr_constrain,
    ipdr_relax,
    naive_driver,
    relax,
    trace_valid_in,
)
from ipdr.pebbling import Dag, decode_pebbling_trace, encode_pebbling, load_dag
from ipdr.peterson import encode_peterson
from ipdr.stats import EngineCounters
from ipdr.system import build_explicit_family

from oracles import build_explicit, holds_invariant_explicit, pebbling_min_budget, peterson_safe


# --- corpus ------------------------------------------------------------------------


def random_instance(rng):
    n = rng.choice([2, 2, 3, 3, 3, 4, 4, 5, 6, 7])
    states = [format(v, f"0{n}b") for v in range(2**n)]
    edges = list({(rng.choice(states), rng.choice(states))
                  for _ in range(rng.randint(1, min(40, 3 * 2**n)))})
    inits = rng.sample(states, rng.randint(1, 2))
    bads = rng.sample(states, rng.randint(1, 3))
    return build_explicit([f"x{j}" for j in range(n)], inits, edges, bads)


def random_family(rng, direction):
    n = rng.randint(2, 3)
    states = [format(v, f"0{n}b") for v in range(2**n)]
    edges = list({(rng.choice(states), rng.choice(states))
                  for _ in range(rng.randint(2, 9))})
    n_groups = rng.randint(1, 3)
    slots = [rng.randint(0, n_groups) for _ in edges]
    base = [e for e, s in zip(edges, slots) if s == 0]
    groups = [[e for e, s in zip(edges, slots) if s == g]
              for g in range(1, n_groups + 1)]
    groups = [g for g in groups if g]
    if not groups:
        groups = [[edges[0]]]
        base = base[1:]
    inits = rng.sample(states, rng.randint(1, 2))
    bads = rng.sample(states, rng.randint(1, 2))
    return build_explicit_family(
        [f"x{j}" for j in range(n)], inits, base, groups, bads,
        direction=direction,
    )


def chain(n):
    nodes = tuple(f"n{i}" for i in range(1, n + 1))
    return Dag(nodes, tuple(zip(nodes, nodes[1:])), (nodes[-1],))


def random_dag(rng):
    n = rng.randint(4, 8)
    nodes = tuple(f"v{i}" for i in range(n))
    edges = tuple(
        (nodes[i], nodes[j])
        for i in range(n) for j in range(i + 1, n)
        if rng.random() < 0.35
    )
    with_in = {t for _, t in edges}
    sinks = [v for v in nodes if v not in {s for s, _ in edges}
             and v in with_in] or [nodes[-1]]
    return Dag(nodes, edges, tuple(sinks))


DIAMOND = Dag(("a", "b", "c", "d"),
              (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")), ("d",))
TREE7 = Dag(
    tuple(f"t{i}" for i in range(1, 8)),
    (("t4", "t2"), ("t5", "t2"), ("t6", "t3"), ("t7", "t3"),
     ("t2", "t1"), ("t3", "t1")),
    ("t1",),
)


def pebbling_corpus():
    rng = random.Random(11)
    dags = [chain(2), chain(3), chain(4), chain(5), DIAMOND, TREE7]
    while len(dags) < 22:
        dags.append(random_dag(rng))
    return dags


def sweep_optimum(strategy, dag, config):
    """Minimum budget according to one strategy, or None if none exists."""
    budgets = range(1, len(dag.nodes) + 1)
    if strategy == "binary":
        return ipdr_binary(encode_pebbling(dag, budgets), config).optimum
    direction = "constraining" if strategy == "constrain" else "relaxing"
    family = encode_pebbling(dag, budgets, direction)
    driver = {"constrain": ipdr_constrain, "relax": ipdr_relax,
              "naive": naive_driver}[strategy]
    outcome = driver(family, config)
    found = [int(r.instance_label[1:]) for r in outcome.per_instance_stats
             if r.verdict_kind == "trace"]
    return min(found) if found else None


# --- 1: verdicts match the explicit-state oracle -----------------------------------


def test_verdicts_match_explicit_oracle_on_500_random_systems():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    invariants = traces = 0
    for i in range(600):
        inst = random_instance(rng)
        verdict = pdr_main(pdr_init(inst, PdrConfig(seed=i)))
        holds, _ = holds_invariant_explicit(inst)
        assert isinstance(verdict, Invariant) == holds, f"case {i}"
        if isinstance(verdict, Trace):
            assert trace_valid_in(verdict, inst), f"case {i}: trace replay"
            traces += 1
        else:
            checks = check_invariant(inst, verdict.clauses)
            assert all(checks.values()), f"case {i}: {checks}"
            invariants += 1
    dt = time.perf_counter() - t0
    print(f"\n600 random systems: {invariants} invariants, {traces} traces,"
          f" all matching the explicit oracle, {dt:.1f}s")


# --- 2: internal frame and queue invariants hold across the corpus -----------------


def test_debug_invariant_sweep_has_zero_violations():
    rng = random.Random(7)
    cfg = PdrConfig(debug_invariants=True)
    runs = 0
    for _ in range(25):
        ipdr_constrain(random_family(rng, "constraining"), cfg)
        ipdr_relax(random_family(rng, "relaxing"), cfg)
        runs += 2
    for dag in (chain(2), chain(3), chain(4), DIAMOND, TREE7):
        budgets = range(1, len(dag.nodes) + 1)
        ipdr_relax(encode_pebbling(dag, budgets), cfg)
        ipdr_constrain(encode_pebbling(dag, budgets, "constraining"), cfg)
        naive_driver(encode_pebbling(dag, budgets), cfg)
        runs += 3
    ipdr_relax(encode_peterson(2, [0, 1, 2]), cfg)
    ipdr_constrain(encode_peterson(2, [0, 1, 2]).oriented("constraining"), cfg)
    runs += 2
    print(f"\n{runs} driver runs with per-boundary validation, no violations")


# --- 3: all four strategies find the oracle pebbling optimum -----------------------


def test_pebbling_optimum_matches_game_oracle_on_20_dags():
    checked = 0
    for dag in pebbling_corpus():
        want, _ = pebbling_min_budget(dag)
        for strategy in ("naive", "constrain", "relax", "binary"):
            got = sweep_optimum(strategy, dag, PdrConfig(seed=1))
            assert got == want, (dag.nodes, strategy, got, want)
        if want is not None:
            res = ipdr_binary(
                encode_pebbling(dag, range(1, len(dag.nodes) + 1)),
                PdrConfig(seed=1),
            )
            schedule = decode_pebbling_trace(res.witness_trace, dag)
            assert schedule.max_pebbles <= want
            final = set()
            for s in schedule.steps:
                final = (final | set(s.placed)) - set(s.removed)
            assert final == set(dag.outputs)
        checked += 1
    print(f"\n{checked} dags x 4 strategies agree with the game oracle")


# --- 4: incremental drivers agree with naive and reuse is sound and live -----------


def _reverify_frames(ctx, inst):
    """Every stored clause excludes no initial state and holds after a step
    from the frame below it, on a fresh frame checker."""
    chk = load_frames(inst, ctx.frames.deltas)
    checked = 0
    for j in range(1, ctx.frames.max_level + 1):
        for c in ctx.frames.deltas[j]:
            assert not chk.sat_init(c.negate()).sat, f"level {j}: excludes an initial state"
            assert chk.step_holds(j - 1, c, with_prop=False), f"level {j}: not inductive"
            checked += 1
    return checked


def test_strategy_agreement_reuse_soundness_and_liveness():
    rng = random.Random(40)
    fams = [random_family(rng, "constraining") for _ in range(12)]
    fams += [random_family(rng, "relaxing") for _ in range(12)]
    for dag in (chain(3), chain(4), DIAMOND):
        budgets = range(1, len(dag.nodes) + 1)
        fams.append(encode_pebbling(dag, budgets, "constraining"))
        fams.append(encode_pebbling(dag, budgets))
    agreement = 0
    for fam in fams:
        driver = ipdr_constrain if fam.direction == "constraining" else ipdr_relax
        inc = driver(fam, PdrConfig(seed=3))
        ref = naive_driver(fam, PdrConfig(seed=3))
        assert (
            [(r.instance_label, r.verdict_kind) for r in inc.per_instance_stats]
            == [(r.instance_label, r.verdict_kind) for r in ref.per_instance_stats]
        ), fam.direction
        agreement += 1

    # copied clauses re-verified against both reuse conditions; the first
    # family converges at frontier 2 so its relaxation must copy something
    deep = build_explicit_family(
        ["a", "b", "c"],
        ["000"],
        [("000", "000"), ("000", "001"), ("101", "001"), ("101", "010"),
         ("111", "011")],
        [[("011", "010")], [("010", "001"), ("001", "011")]],
        ["011"],
        direction="relaxing",
    )
    reverified = 0
    relax_fams = [deep, encode_pebbling(chain(4), range(1, 5)),
                  encode_pebbling(TREE7, range(1, 8)),
                  encode_peterson(2, [0, 1, 2, 3])]
    relax_fams += [random_family(random.Random(s), "relaxing") for s in (50, 51)]
    for fam in relax_fams:
        ctx = None
        for inst in fam.instances:
            if ctx is None:
                ctx = pdr_init(inst, PdrConfig(seed=0))
            else:
                if ctx.queue or ctx.fs.sat_init_bad().sat:
                    break
                _, copied = relax(ctx, inst)
                if copied:
                    reverified += _reverify_frames(ctx, inst)
            if isinstance(pdr_main(ctx), Trace):
                break
    assert reverified > 0, "no clause was ever copied; reuse check is vacuous"

    # constraining reuse visibly changes solver effort on deeper families
    diffs = []
    for dag in (chain(4), chain(5), TREE7):
        fam = encode_pebbling(dag, range(1, len(dag.nodes) + 1), "constraining")
        inc = sum(r.sat_calls for r in
                  ipdr_constrain(fam, PdrConfig(seed=1)).per_instance_stats)
        ref = sum(r.sat_calls for r in
                  naive_driver(fam, PdrConfig(seed=1)).per_instance_stats)
        diffs.append(inc - ref)
        assert inc != ref, (dag.nodes, inc, ref)
    print(f"\n{agreement} families agree with naive; {reverified} copied"
          f" clauses re-verified; constrain-naive call deltas {diffs}")


# --- 5: the lock is safe under context-switch bounds -------------------------------


def test_peterson_safe_for_two_and_three_processes():
    out2 = ipdr_relax(encode_peterson(2, range(0, 11)), PdrConfig(seed=0))
    assert isinstance(out2.verdict, Invariant)
    assert len(out2.per_instance_stats) == 11
    assert all(r.verdict_kind == "invariant" for r in out2.per_instance_stats)
    for bound in range(0, 4):
        assert peterson_safe(2, bound), f"product oracle disagrees at {bound}"
    fam3 = encode_peterson(3, [0, 1, 2])
    out3 = ipdr_relax(fam3, PdrConfig(seed=0))
    assert isinstance(out3.verdict, Invariant)
    assert [r.verdict_kind for r in out3.per_instance_stats] == ["invariant"] * 3
    checks = check_invariant(fam3.instances[-1], out3.verdict.clauses)
    assert all(checks.values()), checks
    print("\nn=2 safe through bound 10 (oracle-checked to 3);"
          " n=3 safe through bound 2")


# --- 6: side-by-side with the published circuit numbers (informative) --------------


def load_crosscheck_script():
    path = Path(__file__).parent.parent / "scripts" / "ham7tc_crosscheck.py"
    spec = importlib.util.spec_from_file_location("ham7tc_crosscheck", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_seven_wire_circuit_crosscheck_report():
    script = load_crosscheck_script()
    dag = load_dag("benchmarks/ham7tc.tfc")
    assert len(dag.nodes) == 23
    found = []
    for p, budget in ((23, 15.0), (14, 30.0), (12, 10.0)):
        kind, schedule, _ = script.probe(dag, p, budget, seed=0)
        if schedule is not None:
            assert schedule.max_pebbles <= p
        found.append((p, kind, schedule and len(schedule.steps)))
    lo, hi = script.REF_LENGTH
    print(f"\nreference circuit: strategy at {script.REF_BOUNDARY},"
          f" impossible at {script.REF_IMPOSSIBLE}, length {lo}..{hi}")
    for p, kind, length in found:
        extra = f" with {length} flips" if length else ""
        print(f"this circuit:  p={p}: {kind}{extra}")
    strategies = [f for f in found if f[1] == "strategy"]
    assert strategies, "no budget admitted a strategy within the probe budget"


def test_ham7tc_constraining_sweep_down_to_10(monkeypatch):
    # one constraining context from 23 pebbles down to 10, with no deadline;
    # a budget where the last trace replays gets that trace back
    dag = load_dag("benchmarks/ham7tc.tfc")
    visit = inc._visit
    verdicts = []

    def record(ctx, inst, *args):
        got = visit(ctx, inst, *args)
        verdicts.append((inst.param, got[1]))
        return got

    monkeypatch.setattr(inc, "_visit", record)
    t0 = time.perf_counter()
    out = ipdr_constrain(encode_pebbling(dag, list(range(10, 24)), "constraining"),
                         PdrConfig(seed=0))
    dt = time.perf_counter() - t0
    assert [p for p, _ in verdicts] == list(range(23, 9, -1))
    for p, verdict in verdicts:
        assert isinstance(verdict, Trace), f"p={p}"
        assert decode_pebbling_trace(verdict, dag).max_pebbles <= p, f"p={p}"
    calls = sum(r.sat_calls for r in out.per_instance_stats)
    print(f"\nham7tc 23->10 constraining: {calls} SAT calls, {dt:.1f} s")


# --- 7: identical runs produce identical counters ----------------------------------


COUNTERS = (*(f.name for f in fields(EngineCounters)), "sat_calls", "copy_attempts", "copied_clauses")


def _counters(rows):
    return [(r.instance_label, r.verdict_kind, *(getattr(r, a) for a in COUNTERS)) for r in rows]


def test_determinism_of_verdicts_and_counters():
    fam = encode_pebbling(DIAMOND, range(1, 5))
    a = ipdr_relax(fam, PdrConfig(seed=5))
    b = ipdr_relax(encode_pebbling(DIAMOND, range(1, 5)), PdrConfig(seed=5))
    assert _counters(a.per_instance_stats) == _counters(b.per_instance_stats)
    assert type(a.verdict) is type(b.verdict)
    assert a.verdict.states == b.verdict.states

    p = ipdr_relax(encode_peterson(2, [0, 1, 2]), PdrConfig(seed=2))
    q = ipdr_relax(encode_peterson(2, [0, 1, 2]), PdrConfig(seed=2))
    assert _counters(p.per_instance_stats) == _counters(q.per_instance_stats)
    assert p.verdict.clauses == q.verdict.clauses

    rng1, rng2 = random.Random(9), random.Random(9)
    f1 = random_family(rng1, "constraining")
    f2 = random_family(rng2, "constraining")
    x = ipdr_constrain(f1, PdrConfig(seed=9))
    y = ipdr_constrain(f2, PdrConfig(seed=9))
    assert _counters(x.per_instance_stats) == _counters(y.per_instance_stats)
    print("\nthree setups, two runs each: identical verdicts and counters")

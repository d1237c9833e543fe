"""Switch-bounded filter lock against the explicit product oracle."""

import pytest

from ipdr.certify import check_refines
from ipdr.engine import Invariant, PdrConfig, Trace, UsageError
from ipdr.incremental import ipdr_constrain, ipdr_relax, naive_driver, trace_valid_in
from ipdr.peterson import encode_peterson

from oracles import holds_invariant_explicit, peterson_reachable, peterson_safe, state_satisfies

DEBUG = PdrConfig(debug_invariants=True)


def test_rejects_single_process():
    with pytest.raises(UsageError, match="two processes"):
        encode_peterson(1, [0])


def test_rejects_empty_and_negative_bounds():
    with pytest.raises(UsageError):
        encode_peterson(2, [])
    with pytest.raises(UsageError, match="nonnegative"):
        encode_peterson(2, [-1, 0])


def test_rejects_oversized_encoding():
    with pytest.raises(UsageError, match="budget"):
        encode_peterson(12, [40])


def test_lock_flag_is_keyword_only():
    # a positional flag would be any truthy value, such as a stale direction
    # argument, and would silently encode the broken lock
    with pytest.raises(TypeError):
        encode_peterson(2, [0, 1, 2], "constraining")


def test_bound_instances_release_assumptions():
    fam = encode_peterson(2, [0, 1, 2])
    a0, a1, a2 = (set(i.assumptions) for i in fam.instances)
    assert a0 > a1 > a2 == set()
    assert [i.param for i in fam.instances] == [0, 1, 2]
    assert [i.label for i in fam.instances] == ["l0", "l1", "l2"]
    rev = encode_peterson(2, [0, 1, 2]).oriented("constraining")
    assert [i.param for i in rev.instances] == [2, 1, 0]


def test_bound_instances_form_a_refinement_chain():
    fam = encode_peterson(2, [0, 1, 2])
    l0, l1, l2 = fam.instances
    assert check_refines(l0, l1)
    assert check_refines(l1, l2)
    assert not check_refines(l1, l0)
    # listed constraining, each bound refines the one before it
    insts = encode_peterson(2, [0, 1, 2, 3]).oriented("constraining").instances
    assert all(check_refines(b, a) for a, b in zip(insts, insts[1:]))


def test_zero_bound_runs_one_process_forever():
    for (pcs, _lv, _last, active, switches) in peterson_reachable(2, 0):
        assert switches == 0
        assert active == 0
        assert pcs[1] == ("set", 1)


def test_two_processes_safe_and_oracles_agree_through_bound_three():
    fam = encode_peterson(2, [0, 1, 2, 3])
    out = ipdr_relax(fam, DEBUG)
    assert isinstance(out.verdict, Invariant)
    assert out.final_parameter == "l3"
    assert len(out.per_instance_stats) == 4
    for inst in fam.instances:
        assert holds_invariant_explicit(inst) == (True, None)
        assert peterson_safe(2, inst.param)


def test_two_processes_safe_through_bound_ten():
    out = ipdr_relax(encode_peterson(2, list(range(11))))
    assert isinstance(out.verdict, Invariant)
    assert out.final_parameter == "l10"
    assert len(out.per_instance_stats) == 11


def test_three_processes_safe_at_low_bounds():
    out = ipdr_relax(encode_peterson(3, [0, 1]))
    assert isinstance(out.verdict, Invariant)
    assert out.final_parameter == "l1"
    assert peterson_safe(3, 0) and peterson_safe(3, 1)


def test_constraining_sweep_stops_at_the_first_invariant():
    out = ipdr_constrain(encode_peterson(2, [0, 1, 2]).oriented("constraining"), DEBUG)
    assert isinstance(out.verdict, Invariant)
    assert out.final_parameter == "l2"
    assert len(out.per_instance_stats) == 1


def test_removed_wait_condition_breaks_the_lock_at_one_switch():
    fam = encode_peterson(2, [0, 1, 2], remove_wait_condition=True)
    out = ipdr_relax(fam, DEBUG)
    assert isinstance(out.verdict, Trace)
    assert out.final_parameter == "l1"
    assert len(out.verdict) == 4
    assert trace_valid_in(out.verdict, fam.instances[1])
    assert not state_satisfies(fam.system, out.verdict.states[-1], fam.system.prop)
    assert peterson_safe(2, 0, remove_wait_condition=True)
    assert not peterson_safe(2, 1, remove_wait_condition=True)


def test_naive_driver_agrees_on_the_broken_lock():
    fam = encode_peterson(2, [0, 1], remove_wait_condition=True)
    out = naive_driver(fam, DEBUG)
    assert isinstance(out.verdict, Trace)
    assert out.final_parameter == "l1"
    row0, row1 = out.per_instance_stats
    assert row0.verdict_kind == "invariant"
    assert row1.verdict_kind == "trace"

"""The certificate checks on a fresh solver: each of the three invariant
checks fails on its own defect, and traces are replayed by SAT."""

import pytest

from ipdr.certify import check_invariant, check_trace
from ipdr.cnf import Clause
from ipdr.system import State, build_explicit

# 00 -> 01 -> 01 is the reachable part; the unreachable 10 steps to the bad 11
EDGES = [("00", "01"), ("01", "01"), ("10", "11")]


@pytest.fixture
def inst():
    return build_explicit(["a", "b"], ["00"], EDGES, ["11"])


def clauses(inst, *sets):
    a, b = inst.system.state_vars
    named = {"a": a, "b": b}
    return [Clause([(-1 if n.startswith("-") else 1) * named[n.lstrip("-")] for n in c])
            for c in sets]


def failing(checks):
    return sorted(k for k, ok in checks.items() if not ok)


def test_inductive_invariant_passes_all_three(inst):
    checks = check_invariant(inst, clauses(inst, ["-a", "-b"], ["-a"]))
    assert failing(checks) == []


def test_blocking_an_initial_state_fails_only_initiation(inst):
    # {01} is closed under the step relation and safe, but excludes 00
    checks = check_invariant(inst, clauses(inst, ["-a"], ["b"]))
    assert failing(checks) == ["invariant-initiation"]


def test_dropping_a_clause_needed_for_induction_fails_only_consecution(inst):
    # without not-a the set admits 10, whose successor 11 leaves it
    checks = check_invariant(inst, clauses(inst, ["-a", "-b"]))
    assert failing(checks) == ["invariant-consecution"]


def test_empty_set_fails_only_safety(inst):
    assert failing(check_invariant(inst, [])) == ["invariant-safety"]


def test_invariant_over_a_non_state_variable_is_rejected(inst):
    with pytest.raises(ValueError, match="not over a state variable"):
        check_invariant(inst, [Clause([inst.system.nvars])])


def states(*bits):
    return [State.from_bits(b) for b in bits]


def test_trace_replay(inst):
    bad = build_explicit(["a", "b"], ["00"], EDGES + [("01", "11")], ["11"])
    assert failing(check_trace(bad, states("00", "01", "11"))) == []
    assert failing(check_trace(bad, states("01", "11"))) == ["trace-initial"]
    assert failing(check_trace(bad, states("00", "11"))) == ["trace-steps"]
    assert failing(check_trace(bad, states("00", "01"))) == ["trace-final"]
    assert failing(check_trace(inst, [])) == [
        "trace-final", "trace-initial", "trace-steps",
    ]


def test_trace_state_of_the_wrong_width_is_rejected(inst):
    with pytest.raises(ValueError, match="expected 2"):
        check_trace(inst, states("00", "011"))

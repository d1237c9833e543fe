"""Checks of the benchmark itself: the correctness gate must count a bad
verdict as a failure, and the deterministic counters must repeat exactly
between two runs with the same seed.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def diamond():
    """The dags workload cut down to diamond.dag, with its sweeps run."""
    _, lib, wl = run.timed_setup("dags", 0)
    wl.sweeps = [s for s in wl.sweeps if s.fam.name == "diamond"]
    wl.families = [f for f in wl.families if f.name == "diamond"]
    cfg = lib.engine.PdrConfig(seed=0, timeout_s=60)
    return lib, wl, [run.run_sweep(s, cfg, lib) for s in wl.sweeps]


def _rerun(r, verdicts=None):
    out = r.out if verdicts is None else workloads.SweepOut(r.out.rows, verdicts, r.out.optimum)
    return run.SweepRun(r.sweep, r.wall_s, out)


def _binary(runs):
    return next(r for r in runs if r.sweep.name == "diamond/binary")


def test_gate_accepts_the_real_verdicts(diamond):
    lib, wl, runs = diamond
    fresh = [_rerun(r) for r in runs]
    run.gate(wl, fresh, lib, "test-accept", passes_wanted=False)
    assert [r.errors for r in fresh] == [[] for _ in fresh]
    line = run.result_line(fresh, {})
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 5


def test_gate_counts_a_flipped_trace_bit_and_a_rejected_invariant(diamond):
    lib, wl, runs = diamond
    b = _binary(runs)
    (t_label, trace), (i_label, inv) = b.out.verdicts
    assert isinstance(trace, lib.engine.Trace) and isinstance(inv, lib.engine.Invariant)
    states = list(trace.states)
    bits = states[0].bits
    states[0] = lib.system.State.from_bits(("1" if bits[0] == "0" else "0") + bits[1:])
    bad_trace = _rerun(b, [(t_label, lib.engine.Trace(tuple(states)))])
    # no clauses at all: initiation and consecution hold, safety does not
    bad_inv = _rerun(b, [(i_label, lib.engine.Invariant(inv.level, ()))])
    run.gate(wl, [bad_trace, bad_inv], lib, "test-reject", passes_wanted=False)
    assert any("ipdr validate rejects" in e for e in bad_trace.errors)
    assert any("ipdr validate rejects" in e for e in bad_inv.errors)
    line = run.result_line([bad_trace, bad_inv], {})
    assert not line["correct"] and line["failed"] == 2


def test_gate_counts_a_wrong_optimum(diamond):
    lib, wl, runs = diamond
    r = _rerun(_binary(runs))
    r.out.optimum = 3
    run.gate(wl, [r], lib, "test-optimum", passes_wanted=False)
    assert any("oracle says 4" in e for e in r.errors)


def test_clause_by_clause_check_agrees_with_ipdr_validate(tmp_path):
    """On the 2-process lock, where `ipdr validate` is fast, the check used
    for the lock3 invariants accepts and rejects exactly what it does."""
    lib = run.load_library()
    family = lib.peterson.encode_peterson(2, [0, 1])
    inv = lib.incremental.naive_driver(family, lib.engine.PdrConfig(seed=0)).verdict
    assert isinstance(inv, lib.engine.Invariant)
    fam = workloads.Family("lock2", family, {"kind": "peterson", "procs": 2, "switches": [0, 1]})
    inst = workloads.instance(fam, "l1")
    variants = [inv.clauses, ()] + [inv.clauses[:i] + inv.clauses[i + 1:] for i in range(4)]
    verdicts = []
    for i, clauses in enumerate(variants):
        doc = workloads.verdict_doc(fam, "l1", lib.engine.Invariant(inv.level, clauses), lib)
        path = tmp_path / f"v{i}.json"
        path.write_text(json.dumps(doc))
        by_validate = run.validate_doc(lib, path) is None
        by_clause = run.check_invariant_by_clause(lib, inst, clauses) is None
        assert by_validate == by_clause, i
        verdicts.append(by_clause)
    assert verdicts[0] and not verdicts[1]


def _traced_counters(seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "dags", "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    detail = json.loads((HERE / "out" / f"result-dags-s{seed}-t1.json").read_text())
    counters = {k: metrics[k]["value"] for k in ("solver.propagations", "solver.conflicts")}
    counters.update({k: v["value"] for k, v in metrics.items()
                     if k.startswith("engine.q.") and k.endswith(".calls")})
    counters.update({k: detail["rounds"][0][k] for k in ("incr_sat_calls", "naive_sat_calls")})
    return counters


def test_counters_repeat_between_same_seed_runs():
    first, second = _traced_counters(3), _traced_counters(3)
    assert len(first) == 11
    assert first == second


def test_host_clock_leaves_its_samples_out_and_scales_by_the_host_speed():
    with hostclock.HostClock() as hc:
        t0 = time.process_time()
        while time.process_time() - t0 < 0.35:
            pass
    assert len(hc.samples) >= 2 * hostclock.EDGE_SAMPLES + 2  # the timer's between the edges
    assert hc.paused_s > 0
    assert 0.3 < hc.wall_s < 0.35 + 0.1
    ref = hostclock.REF_NOMINAL_S
    assert hostclock.normalise(3.0, [ref * 1.5] * 4) == pytest.approx(2.0)
    assert hostclock.normalise(3.0, [ref, ref * 2]) == pytest.approx(2.25)

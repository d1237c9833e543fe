#!/usr/bin/env python3
"""Family-sweep benchmark: incremental ipdr strategies against the naive
baseline, with every verdict checked.

    python3 perfbench/run.py --workload lock3 --seed 0 --seconds 20 --trace 0

Run it from anywhere inside a source checkout of the repository; it imports
`ipdr` from the checkout's `src/`. With `--trace 0` it reports the end-to-end
metrics, with `--trace 1` the per-layer metrics of a traced run. Progress
goes to stderr; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Spans, the layer table and
the verdict documents go to `perfbench/out/`. The exit code is 0 when every
sweep was correct, 1 when one failed and 2 when the checkout is incomplete.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.util
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REQUIRED = ("src/ipdr/__init__.py", "tests/oracles.py", "benchmarks/ham7tc.tfc")
RUN_LIMIT_S = 170  # a run must end within 180 s, failed or not
# set-up probes are spread over the run, one per this many seconds of sweeps,
# so that setup_s samples the host's speed over the same minutes as incr_s
# rather than in the first second of the run
SETUP_PROBE_EVERY_S = 3.0
SETUP_MIN_SAMPLES = 9
VALIDATE_MIN_PASSES = 5
VALIDATE_MIN_S = 2.0


class RunExpired(Exception):
    """The whole-run time limit passed."""


def _expire(signum, frame):
    raise RunExpired(f"run exceeded {RUN_LIMIT_S} s")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# --- set-up ------------------------------------------------------------------------


def load_library() -> SimpleNamespace:
    sys.path.insert(0, str(ROOT / "src"))
    import ipdr.cli
    import ipdr.engine
    import ipdr.incremental
    import ipdr.pebbling
    import ipdr.peterson
    import ipdr.solver
    import ipdr.system

    return SimpleNamespace(
        cli=ipdr.cli,
        engine=ipdr.engine,
        incremental=ipdr.incremental,
        pebbling=ipdr.pebbling,
        peterson=ipdr.peterson,
        solver=ipdr.solver,
        system=ipdr.system,
    )


def timed_setup(name: str, seed: int):
    """Import ipdr, read the inputs, generate the DAGs and encode every
    family; returns (host clock of the set-up, library, workload)."""
    with hostclock.HostClock() as hc:
        lib = load_library()
        wl = workloads.setup(name, seed, lib, ROOT)
    return hc, lib, wl


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """One set-up in a fresh interpreter, so the import is paid again;
    returns its (normalised, wall) seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["setup_wall_s"])


# --- sweeps ------------------------------------------------------------------------


class SweepRun:
    def __init__(self, sweep, wall_s: float, out=None, error: str | None = None,
                 cpu_s: float = 0.0, norm_s: float | None = None):
        self.sweep = sweep
        self.wall_s = wall_s
        self.norm_s = wall_s if norm_s is None else norm_s  # host-normalised seconds
        self.cpu_s = cpu_s
        self.out = out
        self.errors = [error] if error else []


def run_sweep(sweep, cfg, lib, tracer=None, sweep_id: str | None = None) -> SweepRun:
    if tracer is not None:
        tracer.sweep = sweep_id
        idx = tracer.open("bench.sweep")
    t0, c0 = time.perf_counter(), time.process_time()
    hc = hostclock.HostClock()
    out = error = None
    try:
        with hc:
            result = sweep.run(cfg)
        out = workloads.collect(sweep, result, lib)
    except RunExpired:
        raise
    except Exception as e:  # a sweep that raises counts as failed, the rest go on
        error = f"{type(e).__name__}: {e}"
    finally:
        if tracer is not None:
            tracer.close(idx, "bench.sweep", t0)
            tracer.sweep = None
    return SweepRun(sweep, hc.wall_s, out, error, cpu_s=time.process_time() - c0 - hc.paused_s,
                    norm_s=hc.norm_s)


def sweep_record(run: SweepRun) -> dict:
    rows = run.out.rows if run.out else ()
    return {"sweep": run.sweep.name, "group": run.sweep.group, "wall_s": run.wall_s,
            "norm_s": run.norm_s, "sat_calls": sum(r.sat_calls for r in rows),
            "instances": len(rows)}


def round_metrics(runs: list[SweepRun]) -> dict[str, float]:
    """Sums over the round's sweeps by group. A sweep a round lists twice
    counts with the mean of its two runs."""
    by_sweep: dict[str, list[SweepRun]] = {}
    for r in runs:
        by_sweep.setdefault(r.sweep.name, []).append(r)

    def total(group: str, value) -> float:
        return sum(statistics.mean(value(r) for r in rs)
                   for rs in by_sweep.values() if rs[0].sweep.group == group)

    def norm(r):
        return r.norm_s

    def wall(r):
        return r.wall_s

    def cpu(r):
        return r.cpu_s

    def calls(r):
        return sum(row.sat_calls for row in r.out.rows) if r.out else 0

    incr_s, naive_s = total("incr", norm), total("naive", norm)
    return {
        "incr_s": incr_s,
        "naive_s": naive_s,
        "incr_over_naive": incr_s / naive_s,
        "incr_sat_calls": total("incr", calls),
        "naive_sat_calls": total("naive", calls),
        "incr_wall_s": total("incr", wall),
        "naive_wall_s": total("naive", wall),
        "incr_cpu_s": total("incr", cpu),
        "naive_cpu_s": total("naive", cpu),
    }


# --- correctness gate --------------------------------------------------------------


def load_oracles():
    spec = importlib.util.spec_from_file_location("ipdr_oracles", ROOT / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def validate_doc(lib, path: Path) -> str | None:
    """Run `ipdr validate` on one verdict document; None when it is valid."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = lib.cli.main(["validate", str(path)])
    if rc == 0 and json.loads(buf.getvalue())["valid"] is True:
        return None
    return f"ipdr validate rejects {path.name} (exit {rc}): {buf.getvalue().strip()[:300]}"


def check_invariant_by_clause(lib, inst, clauses) -> str | None:
    """The initiation, consecution and safety checks of `ipdr validate`, on
    fresh solvers, asked one clause at a time: an invariant is inductive
    exactly when every one of its clauses holds after a step from it. Used
    where the single consecution query of `ipdr validate` does not finish
    within a run."""
    sys_ = inst.system
    gamma = list(lib.system.full_assumptions(inst))

    def loaded(*clause_sets):
        s = lib.solver.Solver()
        while s.nvars < sys_.nvars:
            s.fresh_var()
        for cs in clause_sets:
            for c in cs:
                s.add_clause(c.lits)
        return s

    s = loaded(sys_.defs, sys_.init)
    if any(s.solve(gamma + [-l for l in c]).sat for c in clauses):
        return "invariant-initiation fails"
    s = loaded(sys_.defs, sys_.trans, clauses)
    if any(s.solve(gamma + [-sys_.prime_lit(l) for l in c]).sat for c in clauses):
        return "invariant-consecution fails"
    s = loaded(sys_.defs, clauses)
    if any(s.solve(gamma + [-l for l in p]).sat for p in sys_.prop):
        return "invariant-safety fails"
    return None


def gate(wl, runs: list[SweepRun], lib, tag: str, passes_wanted: bool) -> list[float]:
    """Check every sweep against the known answers and every verdict it
    returned as a certificate: through `ipdr validate`, or clause by clause
    for families marked so. Errors are attached to the runs. Returns the
    wall time of each full pass of certificate checks; with `passes_wanted`
    the passes repeat for at least VALIDATE_MIN_S, because one pass takes
    tens of milliseconds and a garbage collection can double it."""
    oracle = workloads.oracle_optima(wl, load_oracles()) if wl.name == "dags" else {}
    vdir = OUT / f"verdicts-{tag}"
    vdir.mkdir(parents=True, exist_ok=True)
    for old in vdir.iterdir():
        old.unlink()
    sources: dict[str, str] = {}
    for fam in wl.families:
        if fam.dag_text is not None:
            p = vdir / f"{fam.name}.dag"
            p.write_text(fam.dag_text)
            sources[fam.name] = str(p)
    checks: dict[str, tuple] = {}  # document text -> (check, runs that returned it)
    for run in runs:
        if run.out is None:
            continue
        run.errors += workloads.check_answer(wl, run.sweep, run.out, lib, oracle)
        fam = run.sweep.fam
        for label, verdict in run.out.verdicts:
            doc = workloads.verdict_doc(fam, label, verdict, lib, sources.get(fam.name))
            text = json.dumps(doc, sort_keys=True)
            if text not in checks:
                p = vdir / f"v{len(checks):03d}.json"
                p.write_text(text + "\n")
                if fam.clausewise and isinstance(verdict, lib.engine.Invariant):
                    inst = workloads.instance(fam, label)
                    check = functools.partial(check_invariant_by_clause, lib, inst, verdict.clauses)
                else:
                    check = functools.partial(validate_doc, lib, p)
                checks[text] = (check, [])
            checks[text][1].append(run)
    pass_times: list[float] = []
    while True:
        t0 = time.perf_counter()
        results = [(check(), owners) for check, owners in checks.values()]
        pass_times.append(time.perf_counter() - t0)
        if len(pass_times) == 1:
            for err, owners in results:
                for run in owners if err else ():
                    run.errors.append(err)
        if not passes_wanted:
            break
        if len(pass_times) >= VALIDATE_MIN_PASSES and sum(pass_times) >= VALIDATE_MIN_S:
            break
    return pass_times


# --- main --------------------------------------------------------------------------


def result_line(runs: list[SweepRun], metrics: dict) -> dict:
    failed = sum(1 for r in runs if r.errors)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def untraced(args) -> tuple[list[SweepRun], dict, dict]:
    setup_hc, lib, wl = timed_setup(args.workload, args.seed)
    setup_samples = [(setup_hc.norm_s, setup_hc.wall_s)]
    cfg = lib.engine.PdrConfig(seed=wl.pdr_seed, timeout_s=workloads.ENGINE_TIMEOUT_S)
    runs: list[SweepRun] = []
    per_round: list[dict] = []
    swept_s = 0.0
    t_start = time.perf_counter()
    while True:
        this = []
        for s in wl.sweeps:
            this.append(run_sweep(s, cfg, lib))
            swept_s += this[-1].wall_s
            while len(setup_samples) < 1 + swept_s / SETUP_PROBE_EVERY_S:
                setup_samples.append(setup_probe(args.workload, args.seed))
        runs += this
        per_round.append(round_metrics(this))
        log(f"round {len(per_round)}: " + json.dumps(per_round[-1]))
        if time.perf_counter() - t_start >= args.seconds:
            break
    while len(setup_samples) < SETUP_MIN_SAMPLES:
        setup_samples.append(setup_probe(args.workload, args.seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pass_times = gate(wl, runs, lib, f"{args.workload}-s{args.seed}", passes_wanted=False)
    med = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    metrics = {
        "incr_s": (med["incr_s"], "s"),
        "naive_s": (med["naive_s"], "s"),
        "incr_over_naive": (med["incr_over_naive"], "ratio"),
        "incr_sat_calls": (med["incr_sat_calls"], "count"),
        "naive_sat_calls": (med["naive_sat_calls"], "count"),
        "setup_s": (statistics.median(n for n, _ in setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {"rounds": per_round, "setup_samples": [n for n, _ in setup_samples],
              "setup_wall_samples": [w for _, w in setup_samples], "validate_passes": pass_times,
              "sweeps": [sweep_record(r) for r in runs[:len(wl.sweeps)]]}
    return runs, metrics, detail


def once(sweeps) -> list:
    """Each sweep of a round once, in order of first appearance."""
    return list({s.name: s for s in sweeps}.values())


def traced(args) -> tuple[list[SweepRun], dict, dict]:
    _, lib, wl = timed_setup(args.workload, args.seed)
    cfg = lib.engine.PdrConfig(seed=wl.pdr_seed, timeout_s=workloads.ENGINE_TIMEOUT_S)
    plain = [run_sweep(s, cfg, lib) for s in once(wl.sweeps) if s.group == "incr"]
    untraced_incr_s = sum(r.norm_s for r in plain)
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        wl = workloads.setup(args.workload, args.seed, lib, ROOT)
        runs = [run_sweep(s, cfg, lib, tracer, f"r1/{s.name}") for s in once(wl.sweeps)]
        pass_times = gate(wl, plain + runs, lib, f"{args.workload}-s{args.seed}-traced",
                          passes_wanted=True)
    finally:
        tracer.uninstall()
    traced_incr_s = round_metrics(runs)["incr_s"]
    full = tracer.layer_metrics()
    rows = [row for r in runs if r.out for row in r.out.rows]
    full["engine.cti"] = (sum(r.cti_count for r in rows), "count")
    full["engine.obligations"] = (sum(r.obligations_handled for r in rows), "count")
    full["incremental.prep_s"] = (sum(r.incr_prep_time for r in rows), "s")
    full["incremental.binary.probes"] = (
        sum(len(r.out.rows) for r in runs if r.out and r.sweep.name.endswith("/binary")), "count")
    full["validate_s"] = (statistics.mean(pass_times), "s")
    full["trace.overhead_s"] = (traced_incr_s - untraced_incr_s, "s")
    full["trace.overhead_share"] = ((traced_incr_s - untraced_incr_s) / untraced_incr_s, "share")
    tag = f"{args.workload}-s{args.seed}"
    tracer.write_spans(OUT / f"spans-{tag}.jsonl")
    table = ["span                                 calls      total_s       self_s"]
    table += [f"{n:<34} {c:>8} {t:>12.4f} {s:>12.4f}" for n, c, t, s in tracer.layer_table()]
    table.append("")
    table += [f"{k:<40} {v:.6g} {u}" for k, (v, u) in sorted(full.items())]
    (OUT / f"layers-{tag}.txt").write_text("\n".join(table) + "\n")
    log("\n".join(table))
    metrics = {k: v for k, v in full.items() if k not in tracing.TABLE_ONLY}
    detail = {"rounds": [round_metrics(runs)], "untraced_incr_s": untraced_incr_s, "all": full,
              "sweeps": [sweep_record(r) for r in runs]}
    return plain + runs, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="repeat rounds of sweeps until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        log(f"error: not a source checkout of ipdr: missing {', '.join(missing)} under {ROOT}")
        return 2
    if args.setup_probe:
        hc = timed_setup(args.workload, args.seed)[0]
        print(json.dumps({"setup_s": hc.norm_s, "setup_wall_s": hc.wall_s}))
        return 0
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _expire)
    signal.alarm(RUN_LIMIT_S)
    try:
        runs, metrics, detail = (traced if args.trace else untraced)(args)
    except RunExpired as e:
        log(f"error: {e}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        signal.alarm(0)
    line = result_line(runs, metrics)
    failures = {r.sweep.name: r.errors for r in runs if r.errors}
    for name, errs in failures.items():
        log(f"FAILED {name}: {'; '.join(errs)}")
    detail.update(failed_share=line["failed"] / line["attempted"], failures=failures, result=line)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

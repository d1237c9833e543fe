"""The three workloads: their inputs, their sweeps and their known answers.

A workload is a list of sweeps. Each sweep runs one public driver of
`ipdr.incremental` over one encoded family and is either incremental
(`ipdr_relax`, `ipdr_constrain`, `ipdr_binary`) or the naive baseline
(`naive_driver`). Drivers and encoders are looked up on their modules at
call time, so the wrappers of a traced run see every call.

- lock3: the 3-process filter lock, bounds 0..2, relax against naive.
- ham7tc: `benchmarks/ham7tc.tfc`, budgets 23 down to 15, constrain against
  naive in the same order.
- dags: diamond, chain3 and seven fixed 10-node DAGs, each over budgets
  1..n, by binary, relax, constrain and naive in both orders, with the
  workload seed as the solver seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("lock3", "ham7tc", "dags")

# lock3 and ham7tc run with this solver seed whatever the workload seed: the
# solver seed alone moves lock3's wall time by up to 2.7x (relax 17.5..25.9 s,
# naive 9.5..19.0 s over seeds 0..2), which would swamp any change to the
# code under test.
FIXED_PDR_SEED = 0
# guards a hang; the slowest single engine context takes about 20 s
ENGINE_TIMEOUT_S = 90.0

# The 10-node DAGs of the dags workload: (edges, outputs) over nodes 0..9.
# Each was drawn once by a seeded random generator (edge probability 0.3,
# sinks as outputs) and kept when its cost moved little with the solver seed.
# A fresh draw per seed moved incr_s by 4.8..9.2 s over five seeds, far
# beyond what a regression bound can absorb, so the shapes are fixed and the
# seed acts on this workload through the solver seed only.
DAG_SHAPES = (
    (((0, 3), (0, 6), (0, 9), (1, 8), (2, 3), (2, 4), (2, 6), (2, 9), (3, 5), (3, 7),
      (3, 8), (5, 6), (5, 7), (5, 8), (5, 9), (6, 9), (7, 8), (7, 9), (8, 9)), (4, 9)),
    (((0, 1), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (1, 3), (1, 4), (1, 7), (2, 7),
      (3, 9), (5, 8), (6, 8)), (4, 7, 8, 9)),
    (((0, 2), (0, 7), (0, 8), (1, 2), (1, 6), (1, 7), (2, 7), (3, 6), (3, 7), (3, 9),
      (4, 5), (4, 8), (4, 9), (7, 9)), (5, 6, 8, 9)),
    (((0, 1), (0, 4), (1, 3), (1, 5), (2, 3), (2, 4), (2, 8), (3, 9), (4, 5), (7, 9)),
     (5, 8, 9)),
    (((0, 7), (0, 8), (1, 7), (2, 3), (2, 7), (2, 8), (4, 5), (4, 6), (4, 9), (6, 7),
      (6, 9), (8, 9)), (3, 5, 7, 9)),
    (((0, 1), (0, 2), (0, 4), (0, 6), (1, 3), (1, 6), (1, 9), (3, 6), (3, 7), (4, 5),
      (4, 6), (4, 9), (6, 8), (6, 9)), (2, 5, 7, 8, 9)),
    (((0, 1), (0, 2), (0, 4), (0, 6), (1, 2), (1, 5), (1, 6), (1, 8), (2, 3), (2, 7),
      (2, 8), (3, 4), (3, 7), (4, 7)), (5, 6, 7, 8)),
)


@dataclass
class Family:
    """One encoded family and what `ipdr validate` needs to rebuild it."""

    name: str
    family: object
    problem: dict
    dag: object | None = None  # pebbling families only
    dag_text: str | None = None  # generated DAGs, written out for the validator
    # check invariants clause by clause: `ipdr validate` does not finish on
    # the lock3 invariants (151 clauses) in 600 s
    clausewise: bool = False


@dataclass
class Sweep:
    group: str  # "incr" | "naive"
    name: str
    fam: Family
    run: Callable  # PdrConfig -> driver result


@dataclass
class SweepOut:
    """What one sweep produced: per-instance stats rows, the verdicts it
    returned as (instance label, verdict), and for pebbling the optimum."""

    rows: tuple
    verdicts: list
    optimum: int | None = None
    final_kind: str = ""
    final_label: str = ""


@dataclass
class Workload:
    name: str
    pdr_seed: int
    sweeps: list[Sweep]
    families: list[Family] = field(default_factory=list)


# --- set-up ------------------------------------------------------------------------


def _shape_dag(shape):
    edges, outputs = shape
    nodes = tuple(f"v{i}" for i in range(10))
    return nodes, tuple((nodes[a], nodes[b]) for a, b in edges), tuple(nodes[o] for o in outputs)


def _dag_text(nodes, edges, outputs) -> str:
    lines = [f"node {v}" for v in nodes]
    lines += [f"edge {a} {b}" for a, b in edges]
    lines += [f"output {o}" for o in outputs]
    return "\n".join(lines) + "\n"


def setup(name: str, seed: int, lib, root) -> Workload:
    """Read the inputs, generate the DAGs and encode every family."""
    inc, peb = lib.incremental, lib.pebbling
    if name == "lock3":
        fam = Family("lock3", lib.peterson.encode_peterson(3, [0, 1, 2]),
                     {"kind": "peterson", "procs": 3, "switches": [0, 2]}, clausewise=True)
        sweeps = [
            Sweep("incr", "lock3/relax", fam, lambda cfg: inc.ipdr_relax(fam.family, cfg)),
            Sweep("naive", "lock3/naive", fam, lambda cfg: inc.naive_driver(fam.family, cfg)),
        ]
        return Workload(name, FIXED_PDR_SEED, sweeps, [fam])
    if name == "ham7tc":
        path = str(root / "benchmarks" / "ham7tc.tfc")
        dag = peb.load_dag(path)
        fam = Family("ham7tc", peb.encode_pebbling(dag, list(range(15, 24)), "constraining"),
                     {"kind": "pebbling", "source": path, "pebbles": [15, 23]}, dag)
        constrain = Sweep("incr", "ham7tc/constrain", fam,
                          lambda cfg: inc.ipdr_constrain(fam.family, cfg))
        naive = Sweep("naive", "ham7tc/naive", fam, lambda cfg: inc.naive_driver(fam.family, cfg))
        # the 5 s constrain sweep runs before and after the 30 s naive one, so
        # a drift in machine speed during the round cancels out of the ratio
        sweeps = [constrain, naive, constrain]
        return Workload(name, FIXED_PDR_SEED, sweeps, [fam])
    if name == "dags":
        dags = [(stem, str(root / "benchmarks" / f"{stem}.dag"), None)
                for stem in ("diamond", "chain3")]
        for i, shape in enumerate(DAG_SHAPES):
            dags.append((f"g{i}", None, _shape_dag(shape)))
        sweeps: list[Sweep] = []
        families: list[Family] = []
        for stem, path, parts in dags:
            if parts is None:
                dag, text = peb.load_dag(path), None
            else:
                dag, text = peb.Dag(*parts), _dag_text(*parts)
            budgets = list(range(1, len(dag.nodes) + 1))
            problem = {"kind": "pebbling", "source": path, "pebbles": [1, budgets[-1]]}
            up = Family(stem, peb.encode_pebbling(dag, budgets), problem, dag, text)
            down = Family(stem, peb.encode_pebbling(dag, budgets, "constraining"), problem, dag, text)
            families.append(up)
            sweeps += [
                Sweep("incr", f"{stem}/binary", up, lambda cfg, f=up: inc.ipdr_binary(f.family, cfg)),
                Sweep("incr", f"{stem}/relax", up, lambda cfg, f=up: inc.ipdr_relax(f.family, cfg)),
                Sweep("incr", f"{stem}/constrain", down,
                      lambda cfg, f=down: inc.ipdr_constrain(f.family, cfg)),
                Sweep("naive", f"{stem}/naive-up", up, lambda cfg, f=up: inc.naive_driver(f.family, cfg)),
                Sweep("naive", f"{stem}/naive-down", down,
                      lambda cfg, f=down: inc.naive_driver(f.family, cfg)),
            ]
        return Workload(name, seed, sweeps, families)
    raise ValueError(f"unknown workload {name!r}")


# --- results -----------------------------------------------------------------------


def instance(fam: Family, label: str):
    for inst in fam.family.instances:
        if inst.label == label:
            return inst
    raise ValueError(f"no instance {label!r} in {fam.name}")


def _param(fam: Family, label: str) -> int | None:
    return instance(fam, label).param


def collect(sweep: Sweep, result, lib) -> SweepOut:
    """Normalise a linear outcome or a binary-search result."""
    fam = sweep.fam
    if isinstance(result, lib.incremental.OptimizationResult):
        verdicts = []
        opt = result.optimum
        if result.witness_trace is not None:
            verdicts.append((f"p{opt}", result.witness_trace))
        if result.impossibility_invariant is not None:
            inv_label = f"p{opt - 1}" if opt is not None else fam.family.instances[-1].label
            verdicts.append((inv_label, result.impossibility_invariant))
        return SweepOut(result.per_instance_stats, verdicts, opt)
    rows = result.per_instance_stats
    kind = "invariant" if isinstance(result.verdict, lib.engine.Invariant) else "trace"
    verdicts = [(result.final_parameter, result.verdict)]
    if result.last_trace is not None and result.last_trace is not result.verdict:
        label = next(r.instance_label for r in reversed(rows) if r.verdict_kind == "trace")
        verdicts.append((label, result.last_trace))
    opt = None
    if fam.dag is not None:
        traced = [_param(fam, r.instance_label) for r in rows if r.verdict_kind == "trace"]
        opt = min(traced) if traced else None
    return SweepOut(rows, verdicts, opt, kind, result.final_parameter)


def verdict_doc(fam: Family, label: str, verdict, lib, source: str | None = None) -> dict:
    """A verdict document in the format `ipdr validate` reads."""
    problem = dict(fam.problem)
    if source is not None:
        problem["source"] = source
    if isinstance(verdict, lib.engine.Invariant):
        return {"problem": problem, "invariant_instance": label,
                "invariant": {"level": verdict.level,
                              "clauses": [list(c.lits) for c in verdict.clauses]}}
    return {"problem": problem, "trace_instance": label,
            "trace": {"states": [s.bits for s in verdict.states]}}


# --- known answers -----------------------------------------------------------------


def check_answer(wl: Workload, sweep: Sweep, out: SweepOut, lib, oracle: dict) -> list[str]:
    """Workload-specific checks of one sweep's verdicts against the known
    answers; returns one message per problem found."""
    errs: list[str] = []
    fam = sweep.fam
    if wl.name == "lock3":
        if out.final_kind != "invariant" or out.final_label != "l2":
            errs.append(f"expected an invariant at l2, got a {out.final_kind} at {out.final_label}")
        if any(r.verdict_kind != "invariant" for r in out.rows):
            errs.append("some bound did not hold")
    elif wl.name == "ham7tc":
        if len(out.rows) != 9 or any(r.verdict_kind != "trace" for r in out.rows):
            errs.append("not every budget 15..23 yielded a trace")
        if out.final_kind != "trace" or out.final_label != "p15":
            errs.append(f"expected a trace at p15, got a {out.final_kind} at {out.final_label}")
    elif wl.name == "dags":
        want = oracle[fam.name]
        if out.optimum != want:
            errs.append(f"optimum {out.optimum}, oracle says {want}")
    if fam.dag is not None:
        outputs = set(fam.dag.outputs)
        for label, v in out.verdicts:
            if not isinstance(v, lib.engine.Trace):
                continue
            budget = _param(fam, label)
            try:
                sched = lib.pebbling.decode_pebbling_trace(v, fam.dag)
            except lib.engine.EngineError as e:
                errs.append(f"{label}: schedule does not decode: {e}")
                continue
            if sched.max_pebbles > budget:
                errs.append(f"{label}: schedule peaks at {sched.max_pebbles} pebbles")
            last = {n for n, bit in zip(fam.dag.nodes, v.states[-1].values) if bit}
            if last != outputs:
                errs.append(f"{label}: schedule does not end with exactly the outputs pebbled")
    return errs


def oracle_optima(wl: Workload, oracles) -> dict:
    """Minimum budget of every DAG of the dags workload, by exhaustive game
    search (tests/oracles.py), which never calls the solver."""
    if wl.name != "dags":
        return {}
    return {f.name: oracles.pebbling_min_budget(f.dag)[0] for f in wl.families}

"""The in-process workloads: ``paper-cells`` and ``spmd-4core``.

Both build their inputs from the workload seed, record the kernels'
traces into a fresh trace store, map them back (the cells simulate from
the mmap-loaded store entries), and then time the simulations in
interleaved passes.

Seed 0 gives the paper's named inputs at bench scale: the generator
calls below use the same parameters and fixed seeds as
``repro.graphs.datasets`` and ``repro.sparse.datasets``.  Any other seed
regenerates inputs of the same class and size.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from harness import Context, Op, Outcome, Setup, peak_rss_mb, repeat_setup, set_up, timed_passes
from layers import Spans, model_counters

from repro.config import SystemConfig
from repro.experiments.runner import ExperimentRunner
from repro.graphs.generators import community_graph, uniform_random
from repro.graphs.partition import partition_bfs
from repro.prefetchers import make_prefetcher
from repro.sim.engine import SimulationEngine
from repro.sim.multicore import MulticoreEngine
from repro.sparse.generators import kkt_system
from repro.trace.binfmt import MappedTrace
from repro.trace.store import TraceStore, trace_key
from repro.workloads import HyperAnfWorkload, PageRankWorkload, SpCGWorkload
from repro.workloads.spmd import build_spmd_traces

BENCH_VERTICES = 16384  # repro.graphs.datasets, bench scale
BENCH_ROWS = 12288  # repro.sparse.datasets, bench scale
ITERATIONS = 3  # one record iteration, two replays (ExperimentRunner default)
WINDOW = 16

#: (app, input, prefetcher): one cell per app, one per prefetcher class.
PAPER_CELLS = (
    ("pagerank", "urand", "baseline"),
    ("hyperanf", "amazon", "misb"),
    ("spcg", "nlpkkt80", "rnr"),
)
SPMD_CORES = 4
SPMD_RUNS = ("none", "rnr-combined")
SETUP_ROUNDS = 7
MIN_RNR_ACCURACY = 0.95  # paper: 97.18 %


def make_input(name: str, seed: int):
    """A bench-scale input of the named class; seed 0 is the named input."""
    shift = 1000 * seed
    if name == "urand":
        return uniform_random(BENCH_VERTICES, avg_degree=4, seed=11 + shift)
    if name == "amazon":
        return community_graph(
            BENCH_VERTICES,
            num_communities=BENCH_VERTICES // 1024,
            avg_degree=6,
            intra_fraction=0.85,
            seed=12 + shift,
        )
    if name == "nlpkkt80":
        primal = (BENCH_ROWS * 2) // 3
        return kkt_system(primal, BENCH_ROWS - primal, nnz_per_row=6, seed=22 + shift)
    raise ValueError(f"no generator for input {name!r}")


_WORKLOADS = {"pagerank": PageRankWorkload, "hyperanf": HyperAnfWorkload, "spcg": SpCGWorkload}


class SeededRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` whose workloads run on given inputs."""

    def __init__(self, inputs: dict, **kwargs):
        super().__init__(**kwargs)
        self.inputs = inputs
        self.built: Dict[Tuple, object] = {}

    def workload(self, app, input_name, window_size=None):
        window = window_size if window_size is not None else self.window_size
        key = (app, input_name, window)
        if key not in self.built:
            self.built[key] = _WORKLOADS[app](self.inputs[input_name], self.iterations, window)
        return self.built[key]


def _trace_facts(trace) -> dict:
    return {
        "entries": len(trace),
        "instructions": trace.instructions,
        "refs": trace.num_loads + trace.num_stores,
    }


def _check_single(stats, facts: dict) -> List[str]:
    """Properties every single-core simulation must have."""
    problems = []
    if stats.instructions != facts["instructions"]:
        problems.append(f"instructions {stats.instructions} != trace's {facts['instructions']}")
    phase_sum = sum(p.instructions for p in stats.phases)
    if stats.instructions != phase_sum:
        problems.append(f"instructions {stats.instructions} != phase sum {phase_sum}")
    if stats.l1d.demand_accesses != facts["refs"]:
        problems.append(f"L1D accesses {stats.l1d.demand_accesses} != trace refs {facts['refs']}")
    if stats.l2.demand_accesses != stats.l1d.demand_misses:
        problems.append("L2 demand accesses != L1D demand misses")
    if stats.llc.demand_accesses != stats.l2.demand_misses:
        problems.append("LLC demand accesses != L2 demand misses")
    if stats.prefetch.useful > stats.prefetch.issued:
        problems.append("more useful prefetches than issued")
    return problems


def _check_cell(prefetcher: str, facts: dict):
    def check(stats) -> List[str]:
        problems = _check_single(stats, facts)
        if prefetcher == "baseline" and stats.prefetch.issued:
            problems.append(f"baseline issued {stats.prefetch.issued} prefetches")
        if prefetcher == "rnr" and stats.prefetch.accuracy < MIN_RNR_ACCURACY:
            problems.append(f"RnR accuracy {stats.prefetch.accuracy:.4f} < {MIN_RNR_ACCURACY}")
        return problems

    return check


def _cell_sim(config, prefetcher: str, trace, engine=None):
    def run():
        pf = None if prefetcher == "baseline" else make_prefetcher(prefetcher)
        return SimulationEngine(config, pf, engine=engine).run(trace)

    return run


# ----------------------------------------------------------------------
# paper-cells
# ----------------------------------------------------------------------
def _paper_setup(seed: int) -> Setup:
    """Generate the inputs and record the cells' traces into a store; map
    them back.  Loads to {(app, input, rnr): MappedTrace}."""
    needed = sorted({(app, inp, pf in ("rnr", "rnr-combined")) for app, inp, pf in PAPER_CELLS})

    def build(store_dir):
        inputs = {inp: make_input(inp, seed) for _app, inp, _rnr in needed}
        builder = SeededRunner(inputs, scale="bench", seed=seed, cache_dir=None, trace_store=store_dir)
        for key in needed:
            builder.trace(*key)

    def load(store_dir):
        loader = ExperimentRunner(scale="bench", seed=seed, cache_dir=None, trace_store=store_dir)
        traces = {key: loader.trace(*key) for key in needed}
        if not all(isinstance(t, MappedTrace) for t in traces.values()):
            raise RuntimeError("trace store did not serve the recorded traces")
        return traces

    return Setup(build, load)


def _paper_ops(traces, config) -> List[Op]:
    ops = []
    for app, inp, pf in PAPER_CELLS:
        trace = traces[(app, inp, pf in ("rnr", "rnr-combined"))]
        facts = _trace_facts(trace)
        ops.append(
            Op(f"{app}/{inp}/{pf}", _cell_sim(config, pf, trace), _check_cell(pf, facts), facts["entries"])
        )
    return ops


def paper_cells(ctx: Context) -> Outcome:
    config = SystemConfig.experiment()
    setup = _paper_setup(ctx.seed)
    if ctx.traced:
        return _traced(ctx, setup, lambda traces: _paper_ops(traces, config))
    setup_s, traces = repeat_setup(ctx, SETUP_ROUNDS, setup)
    ops = _paper_ops(traces, config)
    mean_s, first, attempted, failed, problems = timed_passes(ctx, ops)
    # Untimed: the straight reference loops must give the same statistics.
    for op, (app, inp, pf) in zip(ops, PAPER_CELLS):
        trace = traces[(app, inp, pf in ("rnr", "rnr-combined"))]
        with ctx.spans.span("check.straight", op=op.name):
            straight = _cell_sim(config, pf, trace, engine="straight")()
        if straight.as_dict() != first[op.name].as_dict():
            failed += 1
            problems.append(f"{op.name}: straight engine gives different statistics")
    return _outcome(ctx, ops, mean_s, setup_s, attempted, failed, problems)


def _outcome(ctx: Context, ops, mean_s, setup_s, attempted, failed, problems) -> Outcome:
    factor = ctx.speed.factor
    run_s = sum(mean_s.values()) * factor
    entries = sum(op.entries for op in ops)
    return Outcome(
        metrics={
            "setup_s": setup_s,
            "run_s": run_s,
            "entries_per_s": entries / run_s,
            "peak_rss_mb": peak_rss_mb(),
        },
        attempted=attempted,
        failed=failed,
        problems=problems,
    )


# ----------------------------------------------------------------------
# spmd-4core
# ----------------------------------------------------------------------
def _spmd_keys(seed: int, rnr: bool) -> List[str]:
    return [
        trace_key(
            app="pagerank-spmd",
            input_name="amazon",
            scale=f"bench-core{part}of{SPMD_CORES}",
            iterations=ITERATIONS,
            seed=seed,
            window=WINDOW,
            rnr=rnr,
        )
        for part in range(SPMD_CORES)
    ]


def _spmd_setup(seed: int) -> Setup:
    """Partition the amazon-class graph four ways and record one PageRank
    trace per core, with and without RnR annotations, into a store; map
    them back.  Loads to {rnr: [MappedTrace] * 4}."""

    def build(store_dir):
        store = TraceStore(store_dir)
        graph = make_input("amazon", seed)
        assignment = partition_bfs(graph, SPMD_CORES)
        for rnr in (False, True):
            built = build_spmd_traces(
                graph, SPMD_CORES, iterations=ITERATIONS, window_size=WINDOW, rnr=rnr, assignment=assignment
            )
            for key, trace in zip(_spmd_keys(seed, rnr), built):
                store.put(key, trace)

    def load(store_dir):
        store = TraceStore(store_dir)
        traces = {rnr: [store.get(key) for key in _spmd_keys(seed, rnr)] for rnr in (False, True)}
        if not all(isinstance(t, MappedTrace) for ts in traces.values() for t in ts):
            raise RuntimeError("trace store did not serve the recorded traces")
        return traces

    return Setup(build, load)


def _spmd_run(config, prefetcher: str, traces, engine=None):
    def run():
        pfs = None if prefetcher == "none" else [make_prefetcher(prefetcher) for _ in range(SPMD_CORES)]
        multicore = MulticoreEngine(config, prefetchers=pfs, engine=engine)
        per_core = multicore.run(traces)
        return list(per_core) + [multicore.aggregate()]

    return run


def _check_spmd(prefetcher: str, facts: List[dict]):
    def check(out) -> List[str]:
        *per_core, total = out
        problems = []
        for core, (stats, fact) in enumerate(zip(per_core, facts)):
            problems.extend(f"core {core}: {p}" for p in _check_single(stats, fact))
        for name, get in (
            ("instructions", lambda s: s.instructions),
            ("L1D misses", lambda s: s.l1d.demand_misses),
            ("L2 misses", lambda s: s.l2.demand_misses),
            ("LLC misses", lambda s: s.llc.demand_misses),
            ("prefetches", lambda s: s.prefetch.issued),
            ("DRAM lines", lambda s: s.traffic.total),
        ):
            if sum(get(s) for s in per_core) != get(total):
                problems.append(f"per-core {name} do not sum to the aggregate")
        if total.cycles != max(s.cycles for s in per_core):
            problems.append("aggregate cycles != slowest core")
        if prefetcher == "none" and total.prefetch.issued:
            problems.append(f"no-prefetcher run issued {total.prefetch.issued} prefetches")
        return problems

    return check


def _spmd_ops(traces, config) -> List[Op]:
    ops = []
    for pf in SPMD_RUNS:
        core_traces = traces[pf != "none"]
        facts = [_trace_facts(t) for t in core_traces]
        ops.append(
            Op(pf, _spmd_run(config, pf, core_traces), _check_spmd(pf, facts), sum(f["entries"] for f in facts))
        )
    return ops


def spmd_4core(ctx: Context) -> Outcome:
    config = SystemConfig.experiment(cores=SPMD_CORES)
    setup = _spmd_setup(ctx.seed)
    if ctx.traced:
        return _traced(ctx, setup, lambda traces: _spmd_ops(traces, config))
    setup_s, traces = repeat_setup(ctx, SETUP_ROUNDS, setup)
    ops = _spmd_ops(traces, config)
    mean_s, first, attempted, failed, problems = timed_passes(ctx, ops)
    base, combined = first["none"][-1], first["rnr-combined"][-1]
    if not combined.l2.demand_misses < base.l2.demand_misses:
        failed += 1
        problems.append("rnr-combined: no fewer L2 demand misses than the no-prefetcher run")
    with ctx.spans.span("check.straight", op="none"):
        straight = _spmd_run(config, "none", traces[False], engine="straight")()
    if [s.as_dict() for s in straight] != [s.as_dict() for s in first["none"]]:
        failed += 1
        problems.append("none: straight engine gives different statistics")
    return _outcome(ctx, ops, mean_s, setup_s, attempted, failed, problems)


# ----------------------------------------------------------------------
# traced mode (shared)
# ----------------------------------------------------------------------
def _traced(ctx: Context, setup: Setup, make_ops) -> Outcome:
    """One untraced and one profiled set-up and pass; per-layer metrics."""
    _seconds, build_s, load_s, traces = set_up(ctx, setup, "untraced")
    ops = make_ops(traces)
    untraced = _one_pass(ctx, ops)
    with ctx.profiler.on():
        traces = set_up(ctx, setup, "traced", in_child=False)[3]
        ops = make_ops(traces)
    traced = _one_pass(ctx, ops, ctx.profiler)
    all_stats = []
    for out in untraced["outputs"]:
        all_stats.extend(out[-1:] if isinstance(out, list) else [out])
    problems = untraced["problems"] + traced["problems"]
    metrics = {
        "trace.build_s": build_s,
        "trace.load_s": load_s,
        "tracing.overhead_s": traced["run_s"] - untraced["run_s"],
    }
    metrics.update(model_counters(all_stats))
    return Outcome(
        metrics=metrics,
        attempted=2 * len(ops),
        failed=untraced["failed"] + traced["failed"],
        problems=problems,
    )


def _one_pass(ctx: Context, ops: List[Op], profiler=None) -> dict:
    outputs, problems = [], []
    run_s = 0.0
    failed = 0
    for op in ops:
        with ctx.spans.span("simulate", op=op.name, traced=profiler is not None) as span:
            if profiler is None:
                out = op.run()
            else:
                with profiler.on():
                    out = op.run()
        run_s += Spans.duration(span)
        found = op.check(out)
        if found:
            failed += 1
            problems.extend(f"{op.name}: {p}" for p in found)
        outputs.append(out)
    return {"outputs": outputs, "run_s": run_s, "failed": failed, "problems": problems}

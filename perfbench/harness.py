"""Pieces shared by the workloads: the run context, the outcome, repeated
set-up, timing in interleaved passes, and the host-speed reference."""

from __future__ import annotations

import gc
import multiprocessing
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from layers import Profiler, Spans


#: Seconds :meth:`HostSpeed.sample`'s loop takes on the host the bounds
#: were set on (README); reported times are scaled to that host speed.
REFERENCE_S = 0.1


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int):
        self.tag = tag
        self.dirty = False


class HostSpeed:
    """A fixed pure-Python loop timed beside the workload.

    This host's speed drifts by up to 1.6x over seconds to minutes.  The
    loop (a two-level LRU cache model over a fixed address stream, the
    same kind of dict and object work as the simulator, but none of its
    code) is timed before every set-up and every simulation, and
    :attr:`factor` scales the times of that part of the run to the speed
    at which it takes :data:`REFERENCE_S`.  Over 40 s windows this halved
    the spread of both workloads (README).  The median sample counts, so
    a single preempted sample does not move the factor.  A change to the
    program cannot move it.
    """

    def __init__(self) -> None:
        rng = random.Random(7)
        self._addrs = [rng.randrange(1 << 22) if i % 3 else (i * 64) & 0xFFFFF for i in range(60000)]
        self.samples: List[float] = []

    def sample(self) -> None:
        l1 = [dict() for _ in range(64)]
        l2 = [dict() for _ in range(1024)]
        began = time.perf_counter()
        for addr in self._addrs:
            line = addr >> 6
            lines = l1[line & 63]
            if line in lines:
                lines[line] = lines.pop(line)
                continue
            if len(lines) >= 8:
                del lines[next(iter(lines))]
            lines[line] = _Line(line)
            lines = l2[line & 1023]
            if line in lines:
                lines[line] = lines.pop(line)
                continue
            if len(lines) >= 16:
                del lines[next(iter(lines))]
            lines[line] = _Line(line)
        self.samples.append(time.perf_counter() - began)

    @property
    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)


@dataclass
class Context:
    seed: int
    seconds: float
    traced: bool
    work_dir: Path
    spans: Spans = field(default_factory=Spans)
    #: Host speed during set-up and during the timed part.
    setup_speed: HostSpeed = field(default_factory=HostSpeed)
    speed: HostSpeed = field(default_factory=HostSpeed)
    profiler: Optional[Profiler] = None

    def fresh_dir(self, name: str) -> Path:
        path = self.work_dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set of this process (or its reaped children), MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Setup:
    """A workload's set-up: ``build`` records the traces into a store
    directory, ``load`` maps them back and returns what the timed part
    reads."""

    build: Callable[[Path], None]
    load: Callable[[Path], object]


def _in_child(fn: Callable[[Path], None], arg: Path) -> None:
    # Forked, not spawned: the child needs no fresh interpreter and
    # imports (that is not set-up work), and this process has no threads.
    proc = multiprocessing.get_context("fork").Process(target=fn, args=(arg,))
    proc.start()
    proc.join()
    if proc.exitcode != 0:
        raise RuntimeError(f"set-up build exited with {proc.exitcode}")


def set_up(ctx: Context, setup: Setup, name: str, in_child: bool = True):
    """One set-up into a fresh directory: (seconds, build s, load s, result).

    The build runs in a forked child so that its memory stays out of
    this process's peak: ``peak_rss_mb`` is the simulating process's.
    """
    target = ctx.fresh_dir(name)
    with ctx.spans.span("setup", dir=name) as whole:
        with ctx.spans.span("trace.build") as build:
            if in_child:
                _in_child(setup.build, target)
            else:
                setup.build(target)
        with ctx.spans.span("trace.load") as load:
            result = setup.load(target)
    return Spans.duration(whole), Spans.duration(build), Spans.duration(load), result


def repeat_setup(ctx: Context, times: int, setup: Setup):
    """Set up ``times`` times, each into a fresh directory.

    Returns the median wall time, scaled by the host speed sampled
    before each set-up and after the last, and the last set-up's result
    (the one the timed part uses); earlier results are dropped before
    the next set-up starts.
    """
    durations = []
    result = None
    for i in range(times):
        result = None
        gc.collect()
        ctx.setup_speed.sample()
        seconds, _build, _load, result = set_up(ctx, setup, f"setup{i}")
        durations.append(seconds)
    ctx.setup_speed.sample()
    return statistics.median(durations) * ctx.setup_speed.factor, result


@dataclass
class Op:
    """One timed operation of a pass: a simulation and its output check."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]
    entries: int


def timed_passes(
    ctx: Context, ops: Sequence[Op], min_passes: int = 2
) -> Tuple[Dict[str, float], Dict[str, object], int, int, List[str]]:
    """Interleaved passes over ``ops`` for ``ctx.seconds``; mean per op.

    Every pass runs every op once, starting one op later than the pass
    before, so no op always runs first.  Passes run while the timed part
    ends nearer ``ctx.seconds`` with one more pass than without it (at
    least ``min_passes`` run).  An op fails if its check finds a problem
    or its output differs from its first pass.

    The mean, not the best pass, is what counts: this host's speed drifts
    over seconds, and over 26 passes of two bench cells the mean of k
    consecutive passes spread less than their best (README).

    Returns (mean seconds per op, first output per op, attempted, failed,
    problems).
    """
    times: Dict[str, List[float]] = {op.name: [] for op in ops}
    first: Dict[str, object] = {}
    attempted = failed = 0
    problems: List[str] = []
    start = time.perf_counter()
    last = 0.0
    passes = 0
    while passes < min_passes or time.perf_counter() - start + last / 2 < ctx.seconds:
        began = time.perf_counter()
        shift = passes % len(ops)
        for op in list(ops[shift:]) + list(ops[:shift]):
            gc.collect()
            ctx.speed.sample()
            with ctx.spans.span("simulate", op=op.name, round=passes) as span:
                out = op.run()
            times[op.name].append(Spans.duration(span))
            attempted += 1
            found = op.check(out)
            if op.name not in first:
                first[op.name] = out
            elif _fingerprint(out) != _fingerprint(first[op.name]):
                found.append("output differs from the first pass")
            if found:
                failed += 1
                problems.extend(f"{op.name}: {p}" for p in found)
        last = time.perf_counter() - began
        passes += 1
    means = {name: statistics.fmean(ts) for name, ts in times.items()}
    return means, first, attempted, failed, problems


def _fingerprint(out) -> object:
    stats = out if isinstance(out, (list, tuple)) else [out]
    return [s.as_dict() for s in stats]

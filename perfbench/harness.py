"""The closed-loop driver shared by every workload.

One client in one process, no threads: the harness takes the next
operation only after the previous one has returned.  Each operation is
timed on the wall clock with ``perf_counter``; its answer is checked
after the clock stops, so checking costs no measured time.  Between
operations the process moves from core to core (see :class:`CoreRotation`).
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.spark.errors import SparkError
from repro.vertica.errors import VerticaError

from perfbench.trace import OP_SPAN, Tracer

#: errors the program raises on purpose: they count as failed operations;
#: anything else is a crash of the benchmark
PROGRAM_ERRORS = (VerticaError, SparkError)


@dataclass
class Op:
    """One operation of a workload's stream.

    ``run`` does the work and returns its answer; ``check`` returns True
    when the answer is right.  ``group`` is ``read``, ``write`` or
    ``other``; ``rows`` counts the rows it moves, for throughput.
    ``before`` runs untimed just ahead of ``run`` (sampling, bookkeeping).
    """

    kind: str
    group: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    rows: int = 0
    text: str = ""
    before: Optional[Callable[[], None]] = None


@dataclass
class Sample:
    kind: str
    group: str
    seconds: float
    rows: int
    ok: bool


@dataclass
class Phase:
    """Every sample of one measured phase, plus the reasons ops failed."""

    unit: int = 1
    samples: List[Sample] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: peak resident set (MB) once ``rss_units`` units were done
    rss_mb: float = 0.0

    def units(self) -> List[List[Sample]]:
        """The samples cut into whole units (a cut-short stream keeps its tail)."""
        chunks = [self.samples[i:i + self.unit]
                  for i in range(0, len(self.samples), self.unit)]
        if len(chunks) > 1 and len(chunks[-1]) < self.unit:
            chunks.pop()
        return chunks

    @property
    def busy_s(self) -> float:
        return sum(s.seconds for s in self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CoreRotation:
    """Moves this process to the next core it may run on, every ``PERIOD_S``.

    On a shared host each core's speed swings by up to twofold over
    seconds, and the swings of two cores are independent of each other:
    a fixed loop timed for a second at a time on each of two cores read
    42-84 iterations on either, and their sum spread half as much as
    either alone.  A run that stays on one core measures that core's
    luck; one that takes turns on every core averages over them.  The
    move happens between operations, off the clock, a few times a second.
    Where affinity cannot be set, or only one core is allowed, it does
    nothing.
    """

    PERIOD_S = 0.5

    def __init__(self):
        try:
            self.allowed = os.sched_getaffinity(0)
        except (AttributeError, OSError):
            self.allowed = set()
        self.cores = sorted(self.allowed)
        self.index = 0
        self.due = perf_counter() + self.PERIOD_S

    def step(self) -> None:
        """Move to the next core now."""
        if len(self.cores) < 2:
            return
        self.index = (self.index + 1) % len(self.cores)
        try:
            os.sched_setaffinity(0, {self.cores[self.index]})
        except OSError:
            self.cores = []
        self.due = perf_counter() + self.PERIOD_S

    def tick(self) -> None:
        """Move to the next core if ``PERIOD_S`` is up."""
        if perf_counter() >= self.due:
            self.step()

    def restore(self) -> None:
        if self.allowed:
            try:
                os.sched_setaffinity(0, self.allowed)
            except OSError:
                pass


def measure(ops: Iterator[Op], seconds: float, unit: int = 1,
            tracer: Optional[Tracer] = None, rss_units: int = 0) -> Phase:
    """Run ops until ``seconds`` of measured time, ending on a whole unit.

    A workload whose stream is built of repeating units (a save followed
    by its loads) passes ``unit`` so every phase holds whole units and
    the mix of operation kinds stays the same from run to run.  The peak
    resident set is read after ``rss_units`` units (or at the end, if
    fewer ran), so it reflects the same work however fast the program
    is: memory that grows with every unit would otherwise read higher
    on a faster program.
    """
    phase = Phase(unit)
    cores = CoreRotation()
    try:
        _run_phase(phase, ops, seconds, tracer, rss_units, cores)
    finally:
        cores.restore()
    if not phase.rss_mb:
        phase.rss_mb = peak_rss_mb()
    return phase


def _run_phase(phase: Phase, ops: Iterator[Op], seconds: float,
               tracer: Optional[Tracer], rss_units: int,
               cores: CoreRotation) -> None:
    unit = phase.unit
    busy = 0.0
    while busy < seconds or len(phase.samples) % unit:
        op = next(ops, None)
        if op is None:
            break
        cores.tick()
        if op.before is not None:
            op.before()
        error: Optional[BaseException] = None
        result: Any = None
        start = perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                result = tracer.call(OP_SPAN, op.run)
        except PROGRAM_ERRORS as exc:
            error = exc
        elapsed = perf_counter() - start
        busy += elapsed
        ok = error is None and bool(op.check(result))
        if not ok:
            reason = f"{type(error).__name__}: {error}" if error else "wrong answer"
            phase.failures.append(f"{op.kind} {op.text[:120]!r}: {reason}")
        phase.samples.append(Sample(op.kind, op.group, elapsed, op.rows, ok))
        if not phase.rss_mb and len(phase.samples) == rss_units * unit:
            phase.rss_mb = peak_rss_mb()


# ---------------------------------------------------------------- statistics
def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


@dataclass
class Timing:
    """A latency percentile with the samples it rests on.

    ``count`` samples in all, ``beyond`` of them above the percentile.
    """

    value_ms: float
    count: int
    beyond: int

    @property
    def supported(self) -> bool:
        """At least ten samples lie beyond the percentile."""
        return self.beyond >= 10


def timing(seconds: List[float], q: float) -> Timing:
    """The percentile of the pooled samples."""
    return Timing(percentile(seconds, q) * 1e3, len(seconds),
                  int(len(seconds) * (100.0 - q) / 100.0))


def multiset_digest(rows: Iterable[Any]) -> str:
    """Order-independent digest of a bag of rows."""
    encoded = sorted(repr(tuple(row)) for row in rows)
    return hashlib.sha256("\n".join(encoded).encode("utf-8")).hexdigest()


def summarize(phase: Phase) -> Dict[str, Any]:
    """End-to-end figures of one phase: throughput, latency, errors.

    Every figure pools the whole phase.  The machine's speed swings by
    up to twofold over seconds to minutes (other tenants share its
    cores), so a figure taken over the whole run averages over those
    swings, where a median over units picks whichever speed held for
    most of the run and flips when that changes.
    """
    seconds = [s.seconds for s in phase.samples]
    attempted = len(seconds)
    busy = sum(seconds)
    return {
        "ops_per_s": attempted / busy if busy else 0.0,
        "latency_p50": timing(seconds, 50),
        "latency_p95": timing(seconds, 95),
        "error_rate": phase.failed / attempted if attempted else 0.0,
        "attempted": attempted,
        "failed": phase.failed,
    }


def rows_per_s(phase: Phase, kinds: Iterable[str]) -> float:
    """Rows moved per second of the named kinds' measured time."""
    wanted = set(kinds)
    chosen = [s for s in phase.samples if s.kind in wanted]
    busy = sum(s.seconds for s in chosen)
    return sum(s.rows for s in chosen) / busy if busy else 0.0


def group_timing(phase: Phase, group: str, q: float) -> Timing:
    return timing([s.seconds for s in phase.samples if s.group == group], q)

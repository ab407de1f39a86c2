"""Traced runs: spans and counts recorded around calls into each layer.

The tracer wraps the public entry points of each layer from outside the
program: it rebinds a class attribute or a module-level name, and puts the
original back when the traced phase ends.  Names bound by import in other
modules (``encode_rows`` in ``connector.s2v``, ``decode_rows`` in
``vertica.copyload``, ...) are rebound at the importing module, because
that is the name the caller looks up.

Every span records its name, start, end and parent; spans stay in memory
and are written out once, when the run ends.  A layer's self time is its
spans' busy time minus the busy time of their direct children.  Spans of
the single client thread never overlap, so the children's coverage of a
span is the sum of their busy times.  A span around a generator (the
storage scan) is busy only while the generator runs, not while its
consumer works between rows.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: root spans opened by the harness around each operation; their self
#: time is the time no layer span claims (``unattributed_ms``)
OP_SPAN = "op"

#: per-layer self-time metric name for each span name
SELF_METRICS = {
    "vertica.sql.parse": "vertica.sql.parse_self_ms",
    "vertica.plan.optimize": "vertica.plan.optimize_self_ms",
    "vertica.plan.execute": "vertica.plan.execute_self_ms",
    "vertica.scan": "vertica.scan.self_ms",
    "cache.result.lookup": "cache.result.lookup_self_ms",
    "cache.result.store": "cache.result.store_self_ms",
    "vertica.dml.insert": "vertica.dml.insert_self_ms",
    "vertica.dml.update": "vertica.dml.update_self_ms",
    "vertica.dml.delete": "vertica.dml.delete_self_ms",
    "vertica.txn.commit": "vertica.txn.commit_self_ms",
    "vertica.tuplemover.mergeout": "vertica.tuplemover.mergeout_self_ms",
    "vertica.copyload": "vertica.copyload.self_ms",
    "avrolite.encode": "avrolite.encode_self_ms",
    "avrolite.decode": "avrolite.decode_self_ms",
    "hdfs.columnar.encode": "hdfs.columnar.encode_self_ms",
    "hdfs.columnar.decode": "hdfs.columnar.decode_self_ms",
    "sim.kernel": "sim.kernel.self_ms",
}


class Span:
    """One timed call: ``busy`` differs from ``end - start`` for generators."""

    __slots__ = ("name", "start", "end", "parent", "busy")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.busy = 0.0


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Seconds of self time per span name: busy minus direct children's busy."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.busy
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span.name] += span.busy - covered[index]
    return dict(totals)


class Tracer:
    """In-memory span recorder plus counters, one per traced phase."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- spans -----------------------------------------------------------------
    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        span = Span(name, perf_counter(), self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = perf_counter()
            span.busy = span.end - span.start

    def generator(self, name: str, gen: Iterator) -> Iterator:
        """Re-yield ``gen``, timing only the intervals spent inside it."""
        span: Optional[Span] = None
        index = -1
        rows = 0
        try:
            while True:
                start = perf_counter()
                if span is None:
                    index = len(self.spans)
                    span = Span(name, start, self._stack[-1] if self._stack else -1)
                    self.spans.append(span)
                self._stack.append(index)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._stack.pop()
                    span.end = perf_counter()
                    span.busy += span.end - start
                rows += 1
                yield item
        finally:
            gen.close()
            self.counts[f"{name}.rows"] += rows

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, busy."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(
                    [span.name, span.start, span.end, span.parent, span.busy]
                ) + "\n")

    # -- patching --------------------------------------------------------------
    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer entry point for the duration of the block."""
        install_layer_patches(self)
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)


def install_layer_patches(tracer: Tracer) -> None:
    """Rebind each layer's entry points to span-recording wrappers."""
    import repro.hdfs.columnar as columnar
    import repro.vertica.copyload as copyload
    import repro.vertica.plan as plan_pkg
    import repro.vertica.plan.pipeline as pipeline
    from repro.cache.plan import PlanCache
    from repro.cache.result import ResultCache
    from repro.connector import s2v, v2s
    from repro.connector.jdbc import SimVerticaConnection
    from repro.sim.kernel import Environment
    from repro.sim.network import Network
    from repro.spark.scheduler import TaskScheduler
    from repro.vertica.engine import Engine
    from repro.vertica.tuplemover import TupleMover
    from repro.vertica.txn import Transaction

    counts = tracer.counts

    def spanned(name: str) -> Callable:
        def wrap(original: Callable) -> Callable:
            def traced(*args: Any, **kwargs: Any) -> Any:
                return tracer.call(name, original, *args, **kwargs)
            return traced
        return wrap

    for owner, attr, name in (
        (pipeline, "optimized_plan", "vertica.plan.optimize"),
        (Engine, "insert_rows", "vertica.dml.insert"),
        (Engine, "update", "vertica.dml.update"),
        (Engine, "delete", "vertica.dml.delete"),
        (Transaction, "commit", "vertica.txn.commit"),
        (TupleMover, "mergeout", "vertica.tuplemover.mergeout"),
        (copyload, "run_copy", "vertica.copyload"),
        (copyload, "decode_rows", "avrolite.decode"),
        (s2v, "write_columnar", "hdfs.columnar.encode"),
        (v2s, "write_columnar", "hdfs.columnar.encode"),
        (v2s, "read_columnar", "hdfs.columnar.decode"),
        (columnar, "read_columnar_concat", "hdfs.columnar.decode"),
        (Environment, "run", "sim.kernel"),
    ):
        tracer.patch(owner, attr, spanned(name))

    def parse(original: Callable) -> Callable:
        def traced(cache: Any, sql: str, parser: Callable) -> Any:
            parsed = []

            def counting_parser(text: str) -> Any:
                parsed.append(1)
                return parser(text)

            result = tracer.call("vertica.sql.parse", original, cache, sql,
                                 counting_parser)
            counts["parse.misses" if parsed else "parse.hits"] += 1
            return result
        return traced

    def lookup_plan(original: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            plan = original(*args, **kwargs)
            counts["plan.misses" if plan is None else "plan.hits"] += 1
            return plan
        return traced

    def execute_select(original: Callable) -> Callable:
        def traced(engine: Any, statement: Any, txn: Any, initiator: str,
                   snapshot: int, cost: Any) -> Any:
            scanned = cost.rows_scanned
            result = tracer.call("vertica.plan.execute", original, engine,
                                 statement, txn, initiator, snapshot, cost)
            counts["execute.rows_scanned"] += cost.rows_scanned - scanned
            counts["execute.rows_returned"] += len(result[0].rows)
            return result
        return traced

    def scan(original: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Iterator:
            return tracer.generator("vertica.scan", original(*args, **kwargs))
        return traced

    def result_lookup(original: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            entry = tracer.call("cache.result.lookup", original, *args, **kwargs)
            counts["result.misses" if entry is None else "result.hits"] += 1
            return entry
        return traced

    def result_store(original: Callable) -> Callable:
        def traced(cache: Any, digest: str, epoch: int, version: int,
                   *args: Any, **kwargs: Any) -> bool:
            before = len(cache)
            replaced = (digest, epoch, version) in cache
            stored = tracer.call("cache.result.store", original, cache, digest,
                                 epoch, version, *args, **kwargs)
            added = 1 if stored and not replaced else 0
            counts["result.evictions"] += before + added - len(cache)
            return stored
        return traced

    def encode_rows(original: Callable) -> Callable:
        def traced(schema: Any, rows: Any, *args: Any, **kwargs: Any) -> bytes:
            payload = tracer.call("avrolite.encode", original, schema, rows,
                                  *args, **kwargs)
            counts["avro.rows"] += len(rows)
            counts["avro.bytes"] += len(payload)
            return payload
        return traced

    def jdbc_execute(original: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            counts["jdbc.statements"] += 1
            result = yield from original(*args, **kwargs)
            counts["jdbc.result_bytes"] += result.cost.bytes_output
            return result
        return traced

    def counted(key: str) -> Callable:
        def wrap(original: Callable) -> Callable:
            def traced(*args: Any, **kwargs: Any) -> Any:
                counts[key] += 1
                return original(*args, **kwargs)
            return traced
        return wrap

    def save_process(original: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            counts["s2v.jobs"] += 1
            return (yield from original(*args, **kwargs))
        return traced

    def submit(original: Callable) -> Callable:
        def traced(scheduler: Any, thunks: Any, *args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            job = original(scheduler, thunks, *args, **kwargs)

            def finished(_event: Any) -> None:
                counts["scheduler.run_s"] += perf_counter() - start
                counts["scheduler.tasks"] += len(job.tasks)
                counts["scheduler.attempts"] += sum(
                    task.attempts_started for task in job.tasks)

            job.done.callbacks.append(finished)
            return job
        return traced

    tracer.patch(PlanCache, "parse", parse)
    tracer.patch(PlanCache, "lookup_plan", lookup_plan)
    tracer.patch(plan_pkg, "execute_select", execute_select)
    tracer.patch(Engine, "scan", scan)
    tracer.patch(ResultCache, "lookup", result_lookup)
    tracer.patch(ResultCache, "store", result_store)
    tracer.patch(s2v, "encode_rows", encode_rows)
    tracer.patch(SimVerticaConnection, "execute", jdbc_execute)
    tracer.patch(v2s.VerticaRelation, "task_sql", counted("v2s.range_queries"))
    tracer.patch(v2s.VerticaRelation, "aggregate_task_sql",
                 counted("v2s.range_queries"))
    tracer.patch(s2v.S2VWriter, "save_process", save_process)
    tracer.patch(TaskScheduler, "submit", submit)
    tracer.patch(Network, "transfer", counted("network.transfers"))


def layer_metrics(tracer: Tracer, wall_s: float, units: int, events: int,
                  ros_containers: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced phase, as name -> (value, unit).

    Times and counts are per workload unit (the same mix of operations
    in every run), so a faster program that completes more units in the
    traced time still reports comparable figures.
    """
    selfs = self_times(tracer.spans)
    counts = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_unit(value: float) -> float:
        return value / units

    metrics: Dict[str, Tuple[float, str]] = {}
    attributed = 0.0
    for span_name, metric in SELF_METRICS.items():
        seconds = selfs.get(span_name, 0.0)
        attributed += seconds
        metrics[metric] = (per_unit(seconds * 1e3), "ms/unit")
    metrics["unattributed_ms"] = (per_unit((wall_s - attributed) * 1e3),
                                  "ms/unit")
    metrics["trace.wall_ms"] = (per_unit(wall_s * 1e3), "ms/unit")
    scan_busy = sum(s.busy for s in tracer.spans if s.name == "vertica.scan")
    metrics.update({
        "cache.plan.parse_hit_ratio": (ratio(
            counts["parse.hits"], counts["parse.hits"] + counts["parse.misses"]),
            "ratio"),
        "cache.plan.plan_hit_ratio": (ratio(
            counts["plan.hits"], counts["plan.hits"] + counts["plan.misses"]),
            "ratio"),
        "cache.result.hit_ratio": (ratio(
            counts["result.hits"],
            counts["result.hits"] + counts["result.misses"]), "ratio"),
        "cache.result.evictions": (per_unit(counts["result.evictions"]),
                                   "count/unit"),
        "vertica.plan.rows_examined_per_row_returned": (ratio(
            counts["execute.rows_scanned"], counts["execute.rows_returned"]),
            "ratio"),
        "vertica.scan.rows_per_s": (ratio(counts["vertica.scan.rows"],
                                          scan_busy), "rows/s"),
        "vertica.storage.ros_containers": (ros_containers, "count"),
        "avrolite.bytes_per_row": (ratio(counts["avro.bytes"],
                                         counts["avro.rows"]), "B/row"),
        "connector.jdbc.statements": (per_unit(counts["jdbc.statements"]),
                                      "count/unit"),
        "connector.jdbc.result_bytes": (per_unit(counts["jdbc.result_bytes"]),
                                        "B/unit"),
        "connector.v2s.range_queries": (per_unit(counts["v2s.range_queries"]),
                                        "count/unit"),
        "connector.s2v.jobs": (per_unit(counts["s2v.jobs"]), "count/unit"),
        "spark.scheduler.task_attempts": (per_unit(counts["scheduler.attempts"]),
                                          "count/unit"),
        "spark.scheduler.retries": (per_unit(
            counts["scheduler.attempts"] - counts["scheduler.tasks"]),
            "count/unit"),
        "spark.scheduler.run_ms": (per_unit(counts["scheduler.run_s"] * 1e3),
                                   "ms/unit"),
        "sim.kernel.events": (per_unit(events), "count/unit"),
        "sim.kernel.us_per_event": (ratio(selfs.get("sim.kernel", 0.0) * 1e6,
                                          events), "us/event"),
        "sim.network.transfers": (per_unit(counts["network.transfers"]),
                                  "count/unit"),
    })
    return metrics

"""``etl_roundtrip``: S2V saves and V2S loads on the default fabric.

Each round saves a seeded mixed-type DataFrame into Vertica with S2V
(``overwrite``), then loads it back with V2S: a full load and a load with
filter and projection pushdown, all at 16 partitions.  Even rounds use the
direct JDBC transport and odd rounds the staged (HDFS) one, so both the
Avro and the columnar codec run.  Direct rounds also run a
``group_by().agg()`` with aggregate pushdown; the aggregate scan ignores
the transport, so a staged round would repeat the direct one.  A unit is
one round of each: seven jobs, whose median is a staged filtered load.

Simulated seconds are a checked output here, not the measured clock, and
``sim_refs.json`` holds every job's simulated seconds by round index.
They depend on the exact compressed payload sizes (deflate for Avro, zlib
for the columnar files): a few bytes more can let a status-table commit
lose a lock race and retry.  Retries are also real work, so the wall cost
of a round swings with them: four seeded data sets ran at 4.0 to 6.8
operations per second on the same machine.  So every seed uses the same
data set (``DATA_SEED``); the seed changes nothing in this workload, and
its run-to-run spread is the machine's alone.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

from repro.bench.fabric import Fabric
from repro.bench.grid import cost_model_fingerprint
from repro.spark import LessThan, StructField, StructType

from perfbench.harness import Op, Phase, multiset_digest, rows_per_s

NAME = "etl_roundtrip"
ROWS = 4000
PARTITIONS = 16
DOUBLES = 6
REGIONS = ("EMEA", "AMER", "APAC", "LATM")
TRANSPORTS = ("direct", "staging")
#: ops per unit: one direct round (four jobs) and one staged round (three)
UNIT = 7
#: peak memory is read after this many units (see harness.measure)
RSS_UNITS = 6
#: references cover this many rounds; the stream ends after them
MAX_ROUNDS = 96
#: the one data set of this workload, whatever the run's seed
DATA_SEED = 0
#: relative tolerance of the simulated-seconds check (last-digit noise only)
SIM_REL_TOL = 1e-9
SIM_REFS = Path(__file__).resolve().parent / "sim_refs.json"

SCHEMA = StructType(
    [StructField("id", "long"), StructField("qty", "long")]
    + [StructField(f"x{i}", "double") for i in range(DOUBLES)]
    + [StructField("region", "string"), StructField("tag", "string")]
)


@dataclass
class Inputs:
    rows: List[Tuple]
    full_digest: str
    filter_cutoff: int
    filter_digest: str
    aggregate: Dict[str, Tuple[float, int, int]]


def prepare(seed: int) -> Inputs:
    """The rows plus every answer, computed in plain Python.

    ``seed`` is accepted like every workload's, but the rows come from
    ``DATA_SEED`` (see the module docstring).
    """
    rng = random.Random(DATA_SEED)
    rows = []
    for i in range(ROWS):
        rows.append(
            (i, rng.randrange(1 << 20, 1 << 27))
            + tuple(rng.random() for __ in range(DOUBLES))
            + (rng.choice(REGIONS),
               "".join(rng.choice("abcdefghjkmnpqrs") for __ in range(8)))
        )
    cutoff = ROWS // 3
    aggregate: Dict[str, List] = {}
    for row in rows:
        entry = aggregate.setdefault(row[8], [0.0, 0, 0])
        entry[0] += row[3]
        entry[1] += row[1]
        entry[2] += 1
    return Inputs(
        rows=rows,
        full_digest=multiset_digest(rows),
        filter_cutoff=cutoff,
        filter_digest=multiset_digest(
            (r[0], r[2], r[8]) for r in rows if r[0] < cutoff),
        aggregate={k: tuple(v) for k, v in aggregate.items()},
    )


@dataclass
class State:
    fabric: Fabric
    dataframe: Any


def _save(state: State, options: Dict[str, Any]) -> None:
    state.dataframe.write.format("vertica").options(options).mode(
        "overwrite").save()


def _options(state: State, transport: str) -> Dict[str, Any]:
    options: Dict[str, Any] = {
        "db": state.fabric.vertica, "table": "etl", "numpartitions": PARTITIONS,
    }
    if transport == "staging":
        options.update(transport="staging", staging_fs=state.fabric.hdfs,
                       staging_root="/staging")
    return options


def setup(inputs: Inputs) -> State:
    """Build the fabric and the DataFrame, and land the table once."""
    fabric = Fabric(with_hdfs=True)
    dataframe = fabric.spark.create_dataframe(
        inputs.rows, SCHEMA, num_partitions=PARTITIONS)
    state = State(fabric, dataframe)
    _save(state, _options(state, "direct"))
    return state


def load_references() -> List[Dict[str, float]]:
    """Per-round simulated seconds stored for the current cost model."""
    refs = json.loads(SIM_REFS.read_text(encoding="utf-8"))
    return refs.get(cost_model_fingerprint(), {}).get("rounds", [])


def sim_matches(measured: float, reference: float) -> bool:
    return math.isclose(measured, reference, rel_tol=SIM_REL_TOL)


def _aggregate_ok(got: List[Tuple], expected: Dict[str, Tuple]) -> bool:
    if len(got) != len(expected):
        return False
    for region, x1_sum, qty_sum, count in got:
        want = expected.get(region)
        if want is None or (qty_sum, count) != want[1:]:
            return False
        if not math.isclose(x1_sum, want[0], rel_tol=1e-9):
            return False
    return True


def round_jobs(state: State, inputs: Inputs, round_index: int
               ) -> List[Tuple[str, str, Any, Any, int]]:
    """The jobs of one round: (job, group, run, answer check, rows)."""
    transport = TRANSPORTS[round_index % 2]
    options = _options(state, transport)
    spark = state.fabric.spark

    def reader():
        return spark.read.format("vertica").options(options).load()

    def full():
        return reader().collect()

    def filtered():
        return reader().filter(LessThan("ID", inputs.filter_cutoff)).select(
            "ID", "X0", "REGION").collect()

    def aggregate():
        return reader().group_by("REGION").agg(
            ("X1", "sum"), ("QTY", "sum"), ("*", "count")).collect()

    jobs = [
        ("save", "write", lambda: _save(state, options), lambda got: True,
         ROWS),
        ("load", "read", full,
         lambda got: multiset_digest(got) == inputs.full_digest, ROWS),
        ("filter", "read", filtered,
         lambda got: multiset_digest(got) == inputs.filter_digest,
         inputs.filter_cutoff),
    ]
    if transport == "direct":
        jobs.append((
            "aggregate", "read", aggregate,
            lambda got: _aggregate_ok([tuple(r) for r in got], inputs.aggregate),
            len(REGIONS)))
    return jobs


def operations(state: State, inputs: Inputs) -> Iterator[Op]:
    """Rounds in order; each job's answer and simulated seconds are checked.

    Simulated seconds are compared with the reference of the same round
    index, counted from the start of a fresh process (see NOTES.md: the
    JDBC retry salt is process-global, so the same save costs different
    simulated seconds in later rounds).
    """
    references = load_references()
    env = state.fabric.env
    for round_index in range(min(MAX_ROUNDS, len(references)) or 1):
        reference = references[round_index] if references else {}
        for job, group, work, answer_ok, rows in round_jobs(
                state, inputs, round_index):
            def run(work=work):
                start = env.now
                answer = work()
                return answer, env.now - start

            def check(result, job=job, answer_ok=answer_ok,
                      reference=reference):
                answer, sim_seconds = result
                ref = reference.get(job)
                return (answer_ok(answer) and ref is not None
                        and sim_matches(sim_seconds, ref))

            yield Op(job, group, run, check, rows=rows,
                     text=f"round {round_index} {job} "
                          f"{TRANSPORTS[round_index % 2]}")


def sim_seconds_of_rounds(state: State, inputs: Inputs, rounds: int
                          ) -> List[Dict[str, float]]:
    """Run ``rounds`` rounds and return each job's simulated seconds."""
    env = state.fabric.env
    out = []
    for round_index in range(rounds):
        measured = {}
        for job, __, work, answer_ok, __ in round_jobs(state, inputs, round_index):
            start = env.now
            answer = work()
            measured[job] = env.now - start
            if not answer_ok(answer):
                raise AssertionError(f"round {round_index} {job}: wrong answer")
        out.append(measured)
    return out


def extra_metrics(phase: Phase) -> Dict[str, float]:
    return {
        "save_rows_per_s": rows_per_s(phase, ["save"]),
        "load_rows_per_s": rows_per_s(phase, ["load", "filter"]),
    }


def kernel_events(state: State) -> int:
    return state.fabric.env.stats.events_processed


def database(state: State):
    return state.fabric.vertica.db

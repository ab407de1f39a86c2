"""Record the simulated seconds of every ``etl_roundtrip`` job.

Usage (from the repository root)::

    python3 perfbench/sim_refs.py

Runs the workload's set-up exactly as ``run.py`` does, then
``etl.MAX_ROUNDS`` rounds, in this fresh process, and stores each job's
simulated seconds by round index under the current
``cost_model_fingerprint()`` in ``perfbench/sim_refs.json``.  Run it
only when the cost model, or the workload's set-up or rounds, change on
purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"),
                str(Path(__file__).resolve().parents[1])]

from repro.bench.grid import cost_model_fingerprint  # noqa: E402

from perfbench import etl  # noqa: E402
from perfbench.run import repeated_setup  # noqa: E402


def main() -> int:
    inputs = etl.prepare(etl.DATA_SEED)
    state, __ = repeated_setup(etl, inputs)
    rounds = etl.sim_seconds_of_rounds(state, inputs, etl.MAX_ROUNDS)
    refs = json.loads(etl.SIM_REFS.read_text(encoding="utf-8"))
    refs[cost_model_fingerprint()] = {
        "rows": etl.ROWS, "partitions": etl.PARTITIONS, "rounds": rounds,
    }
    etl.SIM_REFS.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rounds)} rounds to {etl.SIM_REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

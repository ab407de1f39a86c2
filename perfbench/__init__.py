"""Wall-clock benchmark of the fabric: workloads, harness and tracer."""

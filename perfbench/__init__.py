"""Host-time benchmark of the simulator: entry point, workloads, tracer."""

"""qadic benchmark harness: seeded workloads, oracles and out-of-program tracing."""

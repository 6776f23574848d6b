//! Host-side benchmark of the nfsperf simulator.
//!
//! Three deterministic worlds ([`worlds::Workload`]) are built from the
//! crates' public constructors, run on one thread, and measured in
//! simulated RPCs per host second, setup time and peak resident memory.
//! A separate traced invocation adds per-layer replay rows
//! ([`replay`]), phase spans, allocation counts and the model counters.
//! See `README.md` in this directory for the metrics and how to run it.

pub mod cli;
pub mod replay;
pub mod worlds;

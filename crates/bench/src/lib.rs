//! # dynbatch-bench
//! Benchmark harness; see `src/bin`.

pub mod alloc_meter;

//! The MSSP repository's one benchmark.
//!
//! It measures the machine this repository builds from outside, by
//! timing calls into its public functions: wall-clock throughput of the
//! sequential interpreter, the threaded executor, the discrete engine
//! and the timing model; the modeled (simulated-time) speedup; set-up
//! time and memory; and, with `--trace 1`, a per-layer ledger taken from
//! a hand-driven MSSP loop with a span around every call into a layer.
//! `README.md` beside this crate defines every metric and workload.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod host;
pub mod input;
pub mod json;
pub mod measure;
pub mod ring;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

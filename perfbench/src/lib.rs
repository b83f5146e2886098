//! # msc-perfbench — the repository benchmark
//!
//! One command, one closed-loop caller, four workloads that stress
//! different layers of the reproduction (see `README.md` for why each
//! was chosen and which layer metric moves which end-to-end metric):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite|link|ident|fleet> --seed 42 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: it records spans around the
//! benchmark's calls into each layer's public functions and reports the
//! per-layer metrics. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

#![warn(missing_docs)]

pub mod fleet;
pub mod harness;
pub mod host;
pub mod ident;
pub mod link;
pub mod measure;
pub mod spans;
pub mod suite;
pub mod workload;

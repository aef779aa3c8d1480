//! `flbench` — the repository benchmark.
//!
//! One command runs one of three federated-learning workloads end to end,
//! checks that its outputs are correct, and prints every end-to-end metric
//! by name and unit (`--trace 0`). A separate traced run (`--trace 1`)
//! replays the workload's rounds through the crates' public calls with a
//! span around each, and prints the per-layer ledger. See `README.md` in
//! this directory for the workloads and the metric → layer → workload map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalogue;
pub mod host;
pub mod ledger;
pub mod output;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workload;

//! End-to-end benchmark for HarpGBDT-rs. It writes each workload's inputs
//! from a seed, then drives the program through its public calls exactly
//! as the CLI `train`, `predict` and `serve` paths do, and reports
//! end-to-end metrics (untraced runs) or a per-layer breakdown (traced
//! runs). See `README.md` in this directory.

pub mod gen;
pub mod openloop;
pub mod pipeline;
pub mod report;
pub mod serve;
pub mod spans;
pub mod workloads;

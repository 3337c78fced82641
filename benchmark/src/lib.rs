//! Out-of-process benchmark of the served FRAPP pipeline.
//!
//! `benchmark/run.sh` builds the shipped `frapp-serve` and this driver,
//! then runs [`cli::main`]. See `benchmark/README.md` for the workloads,
//! the metrics and how to read the output.

pub mod cli;
pub mod envblock;
pub mod inputs;
pub mod ladder;
pub mod lifecycle;
pub mod manifest;
pub mod procfs;
pub mod run;
pub mod serverproc;
pub mod stats;
pub mod trace;
pub mod workloads;

//! The repository's benchmark: five fixed-work workloads over the serving
//! stack and the paper's anchors, measured from outside through public
//! functions, with a wall-clock lane, an exact lane, and a per-layer
//! decode replay. `README.md` has the metric map and the method;
//! `src/main.rs` is the command.

pub mod anchors;
pub mod drive;
pub mod env;
pub mod host;
pub mod measure;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;

/// Any error of a layer under test, or a failed check, as a message.
pub type BenchError = Box<dyn std::error::Error>;

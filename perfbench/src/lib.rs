//! The repository benchmark: `tcpanaly` timed end to end on generated
//! on-disk workloads, plus an in-process traced pass that times each
//! layer from the outside. See `README.md` for the metrics.

pub mod bench;
pub mod child;
pub mod clock;
pub mod probe;
pub mod reference;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workload;

//! The repo benchmark: five pinned cells, host and simulated end-to-end
//! metrics, per-layer probes and a traced run. See `README.md`.

pub mod cells;
pub mod probes;
pub mod report;
pub mod runner;
pub mod spans;
pub mod sut;

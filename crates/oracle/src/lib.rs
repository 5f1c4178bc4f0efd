//! Linearizability oracle for the simulated KV systems.
//!
//! The chaos suite (ledgers, throughput bounds) proves requests are not lost
//! or duplicated, but never that response *values* are correct — the bug
//! class FlexKV-style index-offloading races produce. This crate closes that
//! gap:
//!
//! * [`History`] — a per-run record of every operation's invoke and response
//!   as the *clients* observed them: key, op class, value digest, sequence
//!   number, and the simulated-time window `[invoke, response]`. Recording is
//!   pure host-side bookkeeping: it charges no simulated time and draws no
//!   randomness, so an instrumented run is byte-identical to a bare one.
//! * [`fn@check`] — a linearizability checker validating a history against a
//!   sequential `BTreeMap` model using Wing–Gong search. Point operations
//!   are checked per key (linearizability is compositional, so partitioning
//!   by key is sound and keeps the search tractable); range scans are
//!   checked against presence bounds derived from the mutation history at
//!   the scan's linearization window (no phantom keys, no dropped keys).
//!
//! Values are compared by 64-bit FNV-1a digest. Clients write deterministic
//! per-client fill bytes, so digests discriminate between writers without
//! carrying payloads in the history.

pub mod check;
pub mod history;

pub use check::{check, InitialState, Report, Violation};
pub use history::{fill_digest, value_digest, History, OpClass, OpRecord};

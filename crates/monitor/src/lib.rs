//! hb-monitor: a streaming online-detection service.
//!
//! This crate turns the library's on-line detectors
//! ([`hb_detect::online`]) into a long-running **monitoring service**:
//! processes of a distributed computation stream vector-clock-stamped
//! events to the monitor as they execute, and the monitor answers with
//! temporal-logic verdicts — `EF φ` detected at its least satisfying
//! cut, or impossible — while the computation is still running.
//!
//! The layers, bottom up:
//!
//! - [`buffer`] — per-session **causal delivery**: events may arrive in
//!   any order consistent with transport reordering; a bounded hold
//!   buffer releases them in a causally-consistent order (an event is
//!   delivered only when its vector clock says every causal
//!   predecessor already was). Capacity overflow is an explicit policy:
//!   reject with backpressure, or drop newest.
//! - [`session`] — one monitored computation: variable namespace,
//!   per-process local states, registered predicates, and one on-line
//!   detector per predicate fed by the causal buffer.
//! - [`worker`], [`aggregator`] — the same session cut in two for
//!   distributed detection: workers run the session's slicing filter
//!   over their share of the processes and ship membership bits, the
//!   aggregator runs the session's buffer-and-detectors pipeline over
//!   those bits. One private pipeline serves session and aggregator.
//! - [`service`] — the shared runtime: sessions sharded across worker
//!   threads, an in-process client handle, a TCP wire-protocol
//!   transport (see [`hb_tracefmt::wire`]), atomic [`metrics`], and
//!   graceful shutdown that flushes every session to a final verdict.
//! - [`persist`] — durable state: with a data directory configured, the
//!   service write-ahead-logs every client message (via [`hb_store`])
//!   before acknowledging it and snapshots all sessions periodically,
//!   so a crashed monitor restarts exactly where it stopped.

#![warn(missing_docs)]

pub mod aggregator;
/// Per-session causal delivery buffering. The implementation lives in
/// [`hb_dist`], which the gateway and every session share; this alias
/// keeps the monitor-side paths working.
pub use hb_dist::buffer;
mod member;
pub mod metrics;
pub mod persist;
mod pipeline;
pub mod service;
pub mod session;
pub mod worker;

pub use aggregator::{AggStep, AggregatorSnapshot, DistAggregator};
pub use buffer::{CausalBuffer, Delivered, IngestError, OverflowPolicy};
pub use metrics::{Metrics, MetricsSnapshot};
pub use persist::{
    AggregatorSlotSnapshot, PersistConfig, ServiceSnapshot, SessionSnapshot, WorkerSlotSnapshot,
};
pub use service::{serve, MonitorConfig, MonitorHandle, MonitorService};
pub use session::{Session, SessionError, SessionLimits, VerdictEvent};
pub use worker::{DistWorker, WorkerSnapshot};

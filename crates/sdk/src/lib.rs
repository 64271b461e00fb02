//! # hb-sdk
//!
//! An embeddable instrumentation SDK: the library a real Rust program
//! links against to become monitorable by `hb-monitor`.
//!
//! The paper's premise is detecting temporal predicates on traces of
//! *running* distributed programs, which presumes every process stamps
//! its events with a vector clock and ships them somewhere. This crate
//! does that bookkeeping so application code never touches a clock:
//!
//! - [`Tracer`] — one per logical process. `record` ticks the local
//!   component and reports state-variable updates; `send` returns a
//!   [`CausalContext`] to attach to an outgoing message; `receive`
//!   merges the sender's context back in — exactly the discipline of
//!   Fidge/Mattern clocks, packaged in the style of OpenTelemetry
//!   context propagation (inject on send, extract on receive).
//! - [`channel::traced_channel`] — `std::sync::mpsc` wrappers that tag
//!   payloads with the sender's context transparently, for programs
//!   whose processes are threads.
//! - [`SessionBuilder`] / [`SdkSession`] — opens a monitoring session
//!   (processes, variables, predicates) over the `hb_tracefmt::wire`
//!   protocol and spawns a background flusher. Events go into a bounded queue with
//!   an explicit [`OverflowPolicy`] and drop accounting; the flusher
//!   batches them out, reconnects through the shared jittered-backoff
//!   dialer when the server dies, re-attaches to the recovered session,
//!   and resends the unacknowledged tail. `close()` drains everything
//!   and returns a [`CloseReport`] with one verdict per predicate.
//! - [`SdkMetrics`] — queued/sent/resent/dropped/reconnect counters,
//!   renderable through the shared Prometheus text exposition.
//!
//! Transports are pluggable via the [`Transport`] trait:
//! [`transport::TcpTransport`] for a live monitor or gateway, and
//! [`transport::ChannelTransport`] to run against an in-process
//! monitor in unit tests without opening a socket.
//!
//! # Example
//!
//! ```no_run
//! use hb_sdk::SessionBuilder;
//!
//! let (session, mut tracers) = SessionBuilder::new("demo", 2)
//!     .var("x")
//!     .conjunctive("both-ones", &[(0, "x", "=", 1), (1, "x", "=", 1)])
//!     .connect("127.0.0.1:7600")
//!     .unwrap();
//! let mut t1 = tracers.pop().unwrap();
//! let mut t0 = tracers.pop().unwrap();
//!
//! t0.record(&[("x", 1)]);              // local event on process 0
//! let ctx = t0.send(&[]);              // message send: returns a context…
//! t1.receive(&ctx, &[("x", 1)]);       // …merged at the receiver
//!
//! let report = session.close().unwrap();
//! println!("{:?}", report.verdicts["both-ones"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
mod context;
mod flusher;
mod metrics;
mod queue;
mod session;
mod tracer;
pub mod transport;

pub use context::CausalContext;
pub use metrics::{SdkMetrics, SdkSnapshot};
pub use queue::OverflowPolicy;
pub use session::{CloseReport, SdkSession, SessionBuilder, SessionConfig};
pub use tracer::{Span, Tracer};
pub use transport::Transport;

// Re-exported so callers can build predicates and read verdicts
// without importing `hb_tracefmt` themselves.
pub use hb_tracefmt::dial::RetryPolicy;
pub use hb_tracefmt::wire::{
    WireAtom, WireClause, WireMode, WirePattern, WirePredicate, WireVerdict,
};

use std::fmt;

/// Why an SDK operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdkError {
    /// The transport could not be established or gave up reconnecting.
    Transport(String),
    /// The server rejected a request (bad open, undeclared variable…).
    Session(String),
    /// The peer cannot honor a requested distribution role (a
    /// [`SessionBuilder::distributed`] open against a plain monitor).
    /// Classified from the error's machine-readable `kind`; callers
    /// should retry without distribution rather than verbatim.
    UnsupportedDistribution(String),
    /// The session was already closed (or its flusher is gone).
    Closed,
}

impl fmt::Display for SdkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdkError::Transport(m) => write!(f, "transport: {m}"),
            SdkError::Session(m) => write!(f, "session: {m}"),
            SdkError::UnsupportedDistribution(m) => write!(f, "unsupported distribution: {m}"),
            SdkError::Closed => write!(f, "session already closed"),
        }
    }
}

impl std::error::Error for SdkError {}

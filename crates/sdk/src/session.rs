//! Session lifecycle: open, stream, close.
//!
//! [`SessionBuilder`] declares the monitored computation (processes,
//! variables, predicates) and opens it over a [`Transport`]; the
//! returned [`SdkSession`] owns the background flusher, and the
//! returned [`Tracer`]s are moved into the application's threads.
//! `close()` drains the queue, finishes every process, and blocks for
//! the server's settled verdicts.

use crate::flusher::{self, Ctrl};
use crate::metrics::{SdkMetrics, SdkSnapshot};
use crate::queue::{EventQueue, EventRec, OverflowPolicy};
use crate::tracer::Tracer;
use crate::transport::{TcpTransport, Transport};
use crate::SdkError;
use hb_tracefmt::dial::RetryPolicy;
use hb_tracefmt::wire::{
    self, ClientMsg, ServerMsg, WireClause, WireDistRole, WireMode, WirePredicate, WireVerdict,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for the queue and flusher. The defaults suit a program
/// streaming to a local monitor; see the field docs for when to turn
/// each knob.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Bounded event-queue capacity between tracers and the flusher.
    pub queue_capacity: usize,
    /// What tracers do when the queue is full.
    pub overflow: OverflowPolicy,
    /// Maximum events written per flush batch, and per batched
    /// `events` frame.
    pub batch_max: usize,
    /// Approximate byte budget per batched `events` frame (estimated
    /// before serialization). A flush batch whose events exceed it is
    /// chunked into several frames.
    pub batch_bytes: usize,
    /// Events between acknowledgement barriers. Smaller = less resent
    /// on reconnect; larger = fewer round trips.
    pub ack_every: usize,
    /// Dial/reconnect retry policy (shared jittered backoff).
    pub retry: RetryPolicy,
    /// How long `open` waits for the server to accept the session.
    pub open_timeout: Duration,
    /// How long `close` waits for settled verdicts (spanning any
    /// reconnects).
    pub close_timeout: Duration,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            queue_capacity: 4096,
            overflow: OverflowPolicy::Block,
            batch_max: 128,
            batch_bytes: 256 * 1024,
            ack_every: 256,
            retry: RetryPolicy {
                attempts: 20,
                ..RetryPolicy::default()
            },
            open_timeout: Duration::from_secs(10),
            close_timeout: Duration::from_secs(30),
        }
    }
}

/// Declares a monitored computation and opens it.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    name: String,
    processes: usize,
    vars: Vec<String>,
    initial: Vec<BTreeMap<String, i64>>,
    predicates: Vec<WirePredicate>,
    distribute: Option<usize>,
    config: SessionConfig,
}

impl SessionBuilder {
    /// A session named `name` over `processes` logical processes.
    pub fn new(name: &str, processes: usize) -> Self {
        SessionBuilder {
            name: name.to_string(),
            processes,
            vars: Vec::new(),
            initial: vec![BTreeMap::new(); processes],
            predicates: Vec::new(),
            distribute: None,
            config: SessionConfig::default(),
        }
    }

    /// Declares a state variable (every process gets its own copy,
    /// initially 0 unless [`init`](Self::init) says otherwise).
    pub fn var(mut self, name: &str) -> Self {
        self.vars.push(name.to_string());
        self
    }

    /// Sets process `p`'s initial value for `var`.
    pub fn init(mut self, p: usize, var: &str, value: i64) -> Self {
        if let Some(map) = self.initial.get_mut(p) {
            map.insert(var.to_string(), value);
        }
        self
    }

    /// Registers a pre-built predicate.
    pub fn predicate(mut self, predicate: WirePredicate) -> Self {
        self.predicates.push(predicate);
        self
    }

    /// Registers a conjunctive predicate from `(process, var, op,
    /// value)` clauses, e.g. `&[(0, "x", "=", 2), (1, "x", ">", 0)]`.
    pub fn conjunctive(self, id: &str, clauses: &[(usize, &str, &str, i64)]) -> Self {
        self.clause_predicate(id, WireMode::Conjunctive, clauses)
    }

    /// Registers a disjunctive predicate from `(process, var, op,
    /// value)` clauses.
    pub fn disjunctive(self, id: &str, clauses: &[(usize, &str, &str, i64)]) -> Self {
        self.clause_predicate(id, WireMode::Disjunctive, clauses)
    }

    fn clause_predicate(
        mut self,
        id: &str,
        mode: WireMode,
        clauses: &[(usize, &str, &str, i64)],
    ) -> Self {
        self.predicates.push(WirePredicate {
            id: id.to_string(),
            mode,
            clauses: clauses
                .iter()
                .map(|&(process, var, op, value)| WireClause {
                    process,
                    var: var.to_string(),
                    op: op.to_string(),
                    value,
                })
                .collect(),
            pattern: None,
        });
        self
    }

    /// Registers a pattern predicate from the textual grammar, e.g.
    /// `"1:unlock=1 -> 0:lock=1"` (see `hb_pattern::parse_pattern`).
    pub fn pattern(mut self, id: &str, spec: &str) -> Result<Self, SdkError> {
        let pattern = hb_pattern::parse_pattern(spec)
            .map_err(|e| SdkError::Session(format!("pattern '{id}': {e}")))?;
        self.predicates.push(WirePredicate {
            id: id.to_string(),
            mode: WireMode::Pattern,
            clauses: Vec::new(),
            pattern: Some(pattern),
        });
        Ok(self)
    }

    /// Opts the session into distributed detection: a gateway fans the
    /// event stream out over `k` worker backends (partitioned by
    /// process id) and aggregates their slice observations into the
    /// same verdicts a single backend would emit.
    ///
    /// Needs a *gateway*: a plain monitor refuses the open with
    /// [`SdkError::UnsupportedDistribution`]. Only conjunctive
    /// predicates can be detected distributed. `k = 0` turns
    /// distribution back off.
    pub fn distributed(mut self, k: usize) -> Self {
        self.distribute = (k > 0).then_some(k);
        self
    }

    /// Replaces the whole config.
    pub fn config(mut self, config: SessionConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the bounded queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the overflow policy.
    pub fn overflow(mut self, policy: OverflowPolicy) -> Self {
        self.config.overflow = policy;
        self
    }

    /// Sets the dial/reconnect retry policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.config.retry = policy;
        self
    }

    /// Sets the acknowledgement-barrier interval.
    pub fn ack_every(mut self, events: usize) -> Self {
        self.config.ack_every = events.max(1);
        self
    }

    /// Sets the flush-batch event cap. `1` disables wire batching
    /// entirely: every event goes as its own `event` frame.
    pub fn batch_max(mut self, events: usize) -> Self {
        self.config.batch_max = events.max(1);
        self
    }

    /// Dials `addr` (monitor or gateway) over TCP and opens the
    /// session there.
    pub fn connect(self, addr: &str) -> Result<(SdkSession, Vec<Tracer>), SdkError> {
        let transport = TcpTransport::dial(addr, self.config.retry).map_err(SdkError::Transport)?;
        self.open(Box::new(transport))
    }

    /// Opens the session over an already-built transport (e.g. a
    /// [`crate::transport::ChannelTransport`] for in-process tests, or
    /// a TCP transport reclaimed from a previous session via
    /// [`SdkSession::close_reclaim`]).
    pub fn open(
        self,
        mut transport: Box<dyn Transport>,
    ) -> Result<(SdkSession, Vec<Tracer>), SdkError> {
        let open_msg = ClientMsg::Open {
            session: self.name.clone(),
            processes: self.processes,
            vars: self.vars.clone(),
            initial: self.initial.clone(),
            predicates: self.predicates.clone(),
            dist: self.distribute.map(|k| WireDistRole::Distribute { k }),
        };
        transport.send(&open_msg).map_err(SdkError::Transport)?;
        wait_for_opened(transport.as_mut(), &self.name, self.config.open_timeout)?;

        let metrics = Arc::new(SdkMetrics::default());
        let (event_tx, event_rx) = crossbeam::channel::bounded(self.config.queue_capacity);
        let (ctrl_tx, ctrl_rx) = crossbeam::channel::unbounded();
        let queue = EventQueue::new(event_tx, self.config.overflow, Arc::clone(&metrics));
        let tracers = (0..self.processes)
            .map(|p| Tracer::new(p, self.processes, queue.clone()))
            .collect();
        let handle = flusher::spawn(
            transport,
            open_msg,
            self.name.clone(),
            self.processes,
            self.config.clone(),
            Arc::clone(&metrics),
            event_rx,
            ctrl_rx,
        );
        let session = SdkSession {
            name: self.name,
            close_timeout: self.config.close_timeout,
            queue,
            ctrl: ctrl_tx,
            flusher: Some(handle),
            metrics,
            closed: false,
        };
        Ok((session, tracers))
    }
}

fn wait_for_opened(
    transport: &mut dyn Transport,
    session: &str,
    timeout: Duration,
) -> Result<(), SdkError> {
    let deadline = Instant::now() + timeout;
    loop {
        match transport.poll() {
            Some(ServerMsg::Opened { .. }) => return Ok(()),
            Some(ServerMsg::Error { kind, message, .. }) => {
                // Classify on the machine-readable kind only — message
                // text is for humans and free to change.
                return match kind.as_deref() {
                    Some(wire::error_kind::UNSUPPORTED_DISTRIBUTION) => {
                        Err(SdkError::UnsupportedDistribution(message))
                    }
                    _ => Err(SdkError::Session(message)),
                };
            }
            Some(_) => continue, // stray Welcome/Stats from a reclaimed transport
            None => {
                if !transport.healthy() {
                    return Err(SdkError::Transport(format!(
                        "{}: connection lost while opening '{session}'",
                        transport.describe()
                    )));
                }
                if Instant::now() >= deadline {
                    return Err(SdkError::Transport(format!(
                        "{}: no reply to open '{session}' within {timeout:?}",
                        transport.describe()
                    )));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
}

/// What `close()` settles to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CloseReport {
    /// One verdict per registered predicate.
    pub verdicts: BTreeMap<String, WireVerdict>,
    /// Events the server still held undeliverable at close.
    pub discarded: u64,
    /// `true` if a reconnect found the server had *no* trace of the
    /// session (it was recreated from the unacknowledged tail rather
    /// than re-attached — expect this when the server runs without
    /// `--data-dir` durability).
    pub recreated: bool,
    /// Server errors that were not benign re-attach/replay artifacts.
    pub errors: Vec<String>,
    /// Final client-side counters, taken after the last frame settled.
    pub metrics: SdkSnapshot,
}

/// The flusher's close reply (report or server-side reason) plus the
/// reclaimed transport.
type ShutdownOutcome = (Result<CloseReport, String>, Box<dyn Transport>);

/// An open monitoring session: owns the queue and the background
/// flusher. Dropping it closes best-effort — the drop waits at most
/// two seconds before detaching, leaving the flusher to finish (or
/// time out) in the background rather than blocking the dropping
/// thread behind reconnect backoff. Call [`close`](Self::close) to
/// wait the full `close_timeout` and observe the verdicts.
pub struct SdkSession {
    name: String,
    close_timeout: Duration,
    queue: EventQueue,
    ctrl: crossbeam::channel::Sender<Ctrl>,
    flusher: Option<JoinHandle<Box<dyn Transport>>>,
    metrics: Arc<SdkMetrics>,
    closed: bool,
}

impl SdkSession {
    /// The session name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A point-in-time snapshot of the client-side counters.
    pub fn metrics(&self) -> SdkSnapshot {
        self.metrics.snapshot()
    }

    /// Raw replay API: enqueues an already-stamped event, bypassing
    /// the tracers. This is how `hbtl loadgen` streams pre-recorded
    /// computations. Returns `false` if the event was dropped (queue
    /// overflow under `DropNewest`, or flusher gone).
    pub fn emit(&self, p: usize, clock: Vec<u32>, set: BTreeMap<String, i64>) -> bool {
        self.queue.push(EventRec { p, clock, set })
    }

    /// Drains the queue, declares every process finished, closes the
    /// session on the server, and returns its settled verdicts.
    pub fn close(self) -> Result<CloseReport, SdkError> {
        self.close_reclaim().map(|(report, _)| report)
    }

    /// Like [`close`](Self::close), but also hands back the transport
    /// so the caller can open the next session on the same connection
    /// (the loadgen pattern).
    pub fn close_reclaim(mut self) -> Result<(CloseReport, Box<dyn Transport>), SdkError> {
        let (result, transport) = self.shutdown()?;
        result
            .map(|report| (report, transport))
            .map_err(SdkError::Session)
    }

    fn shutdown(&mut self) -> Result<ShutdownOutcome, SdkError> {
        if self.closed {
            return Err(SdkError::Closed);
        }
        self.closed = true;
        let handle = self.flusher.take().ok_or(SdkError::Closed)?;
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        self.ctrl
            .send(Ctrl::Close { reply: reply_tx })
            .map_err(|_| SdkError::Closed)?;
        self.queue.wake();
        // The flusher's close path is internally deadline-bounded by
        // close_timeout; the slack covers reconnect backoff.
        let wait = self.close_timeout + Duration::from_secs(30);
        let result = reply_rx
            .recv_timeout(wait)
            .map_err(|_| SdkError::Transport("flusher did not settle the close".into()))?;
        let transport = handle
            .join()
            .map_err(|_| SdkError::Transport("flusher panicked".into()))?;
        Ok((result, transport))
    }
}

/// Bound on how long an implicit `Drop` waits for the flusher to
/// settle the close. Plenty for the happy path (a reachable server
/// settles in milliseconds); an unreachable one would otherwise hold
/// the dropping thread for `close_timeout` plus reconnect backoff.
const DROP_CLOSE_WAIT: Duration = Duration::from_secs(2);

impl Drop for SdkSession {
    fn drop(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let Some(handle) = self.flusher.take() else {
            return;
        };
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        if self.ctrl.send(Ctrl::Close { reply: reply_tx }).is_err() {
            return;
        }
        self.queue.wake();
        // Best-effort: join only if the flusher settles quickly;
        // otherwise detach and let it drain/time out on its own.
        if reply_rx.recv_timeout(DROP_CLOSE_WAIT).is_ok() {
            let _ = handle.join();
        }
    }
}

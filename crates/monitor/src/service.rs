//! The long-running monitoring service.
//!
//! # Architecture
//!
//! ```text
//!  TCP conns ──┐                       ┌── shard worker 0 ── members…
//!  in-process ─┴─ MonitorHandle ──────►├── shard worker 1 ── members…
//!   clients        gate → WAL → route  └── shard worker k ── members…
//!                      │   ▲                  │ apply → commit → forward
//!                      ▼   └── Arc<Metrics> ◄─┘        └─► client sink
//!                  hb-store WAL
//!                  (when --data-dir is set)
//! ```
//!
//! Every client message takes one path. [`MonitorHandle::submit`] is
//! three stages: the **gate** answers what needs no session (`stats`,
//! `hello`, a client's `distribute` open), the **WAL** stage
//! logs the message, and **route** hands it to the shard that owns the
//! session name. The shard — one thread, one map of `Member`s —
//! looks the member up, **applies** the message, **commits** what that
//! did to the gauges, and **forwards** the reply frames to the member's
//! sink. A plain session, a distributed session's worker partition and
//! its aggregator are all members; only `Member` knows which is which.
//!
//! Sessions are sharded by a hash of the session name, so one session's
//! events are always handled by one thread (per-session order
//! preserved, no locks on the hot path) while independent sessions
//! proceed in parallel. A shard's queue is bounded
//! (`SHARD_QUEUE_FRAMES`): a client that sends faster than its shard
//! detects waits in `submit` — and so, over TCP, in its socket — instead
//! of growing a heap of decoded frames. Each client supplies a **sink**
//! channel at open time; verdicts, errors, and close notifications flow
//! back through it asynchronously.
//!
//! # Durability
//!
//! With a [`PersistConfig`], every session-mutating client message is
//! appended to an [`hb_store`] write-ahead log *before* it is routed to
//! a shard — the WAL is the input tape, and replaying it reproduces the
//! service state. Periodic snapshots (every `snapshot_every` records)
//! freeze all members at a known WAL position so recovery replays only
//! the tail; covered segments are compacted away. Opening a service on
//! an existing data directory *is* crash recovery: the newest valid
//! snapshot is restored and the tail is fed through the very function
//! the live shard loop runs, with a dead sink — so a recovered member
//! is what the live one was, by construction. Members rebuilt this way
//! keep running detectors; the first client message that touches one
//! re-attaches its reply sink and re-reports any verdict that settled
//! before the crash.
//!
//! Transports are thin: the in-process [`MonitorHandle`] is the service
//! API, and [`serve`] adapts it to TCP through the connection driver
//! the gateway shares ([`dial::accept_loop`]): one reader thread per
//! connection handing wire frames to the handle, one writer thread
//! encoding sink messages back. A member's replies go to the connection
//! that last spoke for it. [`MonitorService::shutdown`] flushes every
//! session — stranded held events are discarded, final verdicts are
//! emitted — before the workers exit.

use crate::member::{error_frame, Member, Out, GATEWAY_ONLY};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::persist::{PersistConfig, ServiceSnapshot};
use crate::session::SessionLimits;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use hb_store::{Store, StoreError, StoreOptions};
use hb_tracefmt::dial;
use hb_tracefmt::wire::{self, ClientMsg, ServerMsg, WireDistRole};
use hb_tracefmt::TraceError;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::TcpListener;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Worker threads; sessions are sharded across them. Zero means one.
    pub shards: usize,
    /// Per-session causal-buffer limits.
    pub limits: SessionLimits,
    /// Period of the stats log line on stderr; `None` disables it.
    pub stats_interval: Option<Duration>,
    /// Write-ahead logging and crash recovery; `None` keeps the service
    /// purely in-memory.
    pub persist: Option<PersistConfig>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            shards: 4,
            limits: SessionLimits::default(),
            stats_interval: None,
            persist: None,
        }
    }
}

/// A command routed to a shard worker.
enum Cmd {
    /// A client message for one of the shard's members, and the sink
    /// its replies go to.
    Msg {
        msg: ClientMsg,
        sink: Sender<ServerMsg>,
    },
    /// Freeze every member on this shard and reply with the batch.
    /// The sender holds the WAL lock while waiting, so everything the
    /// shard saw before this command is — by construction — at a lower
    /// WAL position than the snapshot will claim.
    Snapshot { reply: Sender<ServiceSnapshot> },
    /// Close every remaining member and stop the worker (graceful
    /// shutdown). Handles may outlive the service, so workers cannot
    /// rely on channel disconnection to learn about shutdown.
    Flush,
}

/// The write-ahead log plus its snapshot cadence, behind one lock: an
/// append and its routing to a shard happen under the lock, so the WAL
/// order and the shard queue order never disagree.
struct WalInner {
    store: Store,
    since_snapshot: u64,
    snapshot_every: u64,
}

type SharedWal = Arc<Mutex<WalInner>>;

/// The writers of the connections [`serve`] has stopped serving, for
/// [`MonitorService::shutdown`] to join after its flush.
type StoppedWriters = Arc<Mutex<Vec<dial::Writers>>>;

/// The running service: shard workers plus shared metrics.
pub struct MonitorService {
    shards: Vec<Sender<Cmd>>,
    workers: Vec<JoinHandle<()>>,
    metrics: Arc<Metrics>,
    wal: Option<SharedWal>,
    writers: StoppedWriters,
    stats_stop: Option<Sender<()>>,
    stats_thread: Option<JoinHandle<()>>,
}

/// A cheap, cloneable client of a running service.
#[derive(Clone)]
pub struct MonitorHandle {
    shards: Vec<Sender<Cmd>>,
    metrics: Arc<Metrics>,
    wal: Option<SharedWal>,
    writers: StoppedWriters,
}

fn shard_index_of(session: &str, shards: usize) -> usize {
    let mut h = DefaultHasher::new();
    session.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

fn unix_now_secs() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Messages a shard's queue holds before [`MonitorHandle::submit`]
/// blocks. Decoding an `events` frame costs less than detecting over
/// it, so a reader thread left to itself runs ahead of the shard by as
/// much as the client cares to send (a third more resident memory on
/// the benchmark's `wire-stream`, growing with the round). A shard
/// waits for nothing a submitter holds — replies go to unbounded sinks,
/// the WAL lock is the submitter's alone — so blocking here cannot
/// deadlock, snapshot barrier included.
const SHARD_QUEUE_FRAMES: usize = 16;

/// A sink whose receiver is already gone: sends are silently dropped.
/// WAL replay answers into one, and recovered members stay bound to it
/// until a client speaks for them.
fn dead_sink() -> Sender<ServerMsg> {
    unbounded().0
}

/// One member plus the sink of the client connection that last spoke
/// for it.
struct Slot {
    member: Member,
    sink: Sender<ServerMsg>,
}

impl Slot {
    /// Binds the member's replies to the connection that speaks for it.
    /// A connection other than the bound one adopts the member and is
    /// told again what settled so far, since the bound one may be gone:
    /// a client that dropped its connection, or, after a crash, the
    /// dead sink every recovered member starts on. Dropping the old
    /// sink releases the old connection's writer.
    fn bind(&mut self, name: &str, sink: &Sender<ServerMsg>, metrics: &Metrics) {
        if self.sink.same_channel(sink) {
            return;
        }
        self.sink = sink.clone();
        metrics.sessions_reattached.fetch_add(1, Relaxed);
        for frame in self.member.settled(name) {
            let _ = self.sink.send(frame);
        }
    }
}

/// The commit stage: what one message did to a member's causal buffer,
/// as deltas on the service gauges.
fn commit(metrics: &Metrics, before: (u64, u64), after: (u64, u64)) {
    let ((held, delivered), (held_now, delivered_now)) = (before, after);
    metrics
        .events_delivered
        .fetch_add(delivered_now - delivered, Relaxed);
    if held_now > held {
        metrics.held_add(held_now - held);
    } else {
        metrics.held_sub(held - held_now);
    }
}

fn forward(frames: &mut Vec<ServerMsg>, sink: &Sender<ServerMsg>) {
    for frame in frames.drain(..) {
        let _ = sink.send(frame);
    }
}

/// Everything one shard worker owns: its members by session name. The
/// live loop and WAL replay drive it through the same
/// [`Shard::handle`], which is what makes a recovered member equal the
/// live one.
struct Shard {
    members: HashMap<String, Slot>,
    limits: SessionLimits,
    /// Reply frames of the message in flight; kept so the hot path
    /// allocates nothing for them.
    outbox: Vec<ServerMsg>,
}

impl Shard {
    fn new(limits: SessionLimits) -> Shard {
        Shard {
            members: HashMap::new(),
            limits,
            outbox: Vec::new(),
        }
    }

    /// Takes one client message through the shard: look the member up,
    /// bind it to the caller's sink, apply,
    /// commit the gauges, forward the replies. Replies to a message that
    /// reaches no member (unknown session, wrong kind of frame, refused
    /// open) go to the caller's `sink`.
    fn handle(&mut self, msg: ClientMsg, sink: &Sender<ServerMsg>, metrics: &Metrics) {
        let mut out = Out {
            metrics,
            frames: &mut self.outbox,
        };
        let msg = match msg {
            ClientMsg::Open {
                session,
                processes,
                vars,
                initial,
                predicates,
                dist,
            } => {
                if self.members.contains_key(&session) {
                    out.error(
                        Some(&session),
                        Some(wire::error_kind::ALREADY_OPEN),
                        format!("session '{session}' already open"),
                    );
                    return forward(out.frames, sink);
                }
                match Member::open(
                    &session,
                    dist,
                    processes,
                    &vars,
                    &initial,
                    &predicates,
                    self.limits,
                ) {
                    Ok(mut member) => {
                        member.census(metrics, true);
                        out.frames.push(ServerMsg::Opened {
                            session: session.clone(),
                        });
                        out.settle(&session, member.take_initial_verdicts());
                        let slot = Slot {
                            member,
                            sink: sink.clone(),
                        };
                        self.members.insert(session, slot);
                    }
                    Err(e) => out.failed(&session, &e),
                }
                return forward(out.frames, sink);
            }
            other => other,
        };
        // `submit` and replay route only messages that name a session.
        let Some(name) = msg.session() else { return };
        let Some(slot) = self.members.get_mut(name) else {
            out.error(Some(name), None, format!("no such session '{name}'"));
            return forward(out.frames, sink);
        };
        if let Some(why) = slot.member.refuses(&msg) {
            out.error(Some(name), None, format!("session '{name}' {why}"));
            return forward(out.frames, sink);
        }
        slot.bind(name, sink, metrics);
        let before = slot.member.load();
        let closed = slot.member.apply(msg, &mut out);
        commit(metrics, before, slot.member.load());
        if closed.is_some() {
            slot.member.census(metrics, false);
        }
        forward(out.frames, &slot.sink);
        if let Some(name) = closed {
            self.members.remove(&name);
        }
    }

    /// Freezes every member for a snapshot.
    fn freeze(&mut self, metrics: &Metrics) -> ServiceSnapshot {
        let mut snap = ServiceSnapshot::default();
        for (name, slot) in &mut self.members {
            slot.member.freeze(name, metrics, &mut snap);
        }
        snap
    }

    /// Hands a recovered shard to the running service: every member is
    /// counted into the new process's metrics. Returns how many.
    fn adopt(&mut self, metrics: &Metrics) -> u64 {
        for slot in self.members.values_mut() {
            slot.member.rewind_slice_stats();
            slot.member.census(metrics, true);
            metrics.held_add(slot.member.load().0);
        }
        self.members.len() as u64
    }

    /// Closes every remaining member, so detectors still settle and
    /// sinks learn the outcome.
    fn close_all(&mut self, metrics: &Metrics) {
        for (name, mut slot) in self.members.drain() {
            let mut out = Out {
                metrics,
                frames: &mut self.outbox,
            };
            let before = slot.member.load();
            slot.member.close(&name, &mut out);
            commit(metrics, before, slot.member.load());
            slot.member.census(metrics, false);
            forward(out.frames, &slot.sink);
        }
    }
}

/// Opens the store and rebuilds the shards' members from it: the newest
/// snapshot restored, then the WAL tail fed through [`Shard::handle`] —
/// the live path — answering into a dead sink. Errors replay produces
/// were reported to the original client when the record was first
/// acknowledged. The traffic counters replay moves describe the
/// previous process's life, so they go to a scratch block; what the new
/// process reports about recovery goes to `metrics`.
fn recover(
    p: &PersistConfig,
    limits: SessionLimits,
    shards: &mut [Shard],
    metrics: &Metrics,
) -> Result<SharedWal, StoreError> {
    let started = Instant::now();
    let store = Store::open(
        &p.dir,
        StoreOptions {
            segment_bytes: p.segment_bytes,
            sync: p.sync,
        },
    )?;
    // Restored members and the replayed tail share one dead sink, so
    // replay binds no member anew.
    let (scratch, nowhere) = (Metrics::new(), dead_sink());
    let mut from_seq = 0;
    if let Some((seq, payload)) = store.load_snapshot()? {
        let snap = ServiceSnapshot::from_json(&payload).map_err(StoreError::Corrupt)?;
        for (name, member) in Member::restore(&snap, limits).map_err(StoreError::Corrupt)? {
            let slot = Slot {
                member,
                sink: nowhere.clone(),
            };
            shards[shard_index_of(&name, shards.len())]
                .members
                .insert(name, slot);
        }
        from_seq = seq;
    }
    // The old process's gauges counted the snapshot's members; replay
    // will count them out again as they close.
    for shard in shards.iter_mut() {
        shard.adopt(&scratch);
    }
    let mut replayed = 0u64;
    for rec in store.replay(from_seq) {
        let (seq, payload) = rec?;
        let msg: ClientMsg = wire::decode_body(&payload).map_err(|e| {
            let cause = match e {
                TraceError::Json(e) => e.to_string(),
                TraceError::Invalid(cause) => cause,
            };
            StoreError::Corrupt(format!("wal record {seq}: {cause}"))
        })?;
        if let Some(name) = msg.session() {
            let shard = shard_index_of(name, shards.len());
            shards[shard].handle(msg, &nowhere, &scratch);
        }
        replayed += 1;
    }
    let recovered = shards.iter_mut().map(|s| s.adopt(metrics)).sum();
    metrics.sessions_recovered.store(recovered, Relaxed);
    metrics.recovery_replayed.store(replayed, Relaxed);
    metrics
        .recovery_truncated_bytes
        .store(store.recovery_report().truncated_bytes, Relaxed);
    metrics
        .recovery_millis
        .store(started.elapsed().as_millis() as u64, Relaxed);
    if let Some(secs) = store.stats().snapshot_unix_secs {
        metrics.snapshot_unix_secs.store(secs, Relaxed);
    }
    Ok(Arc::new(Mutex::new(WalInner {
        store,
        since_snapshot: 0,
        snapshot_every: p.snapshot_every.max(1),
    })))
}

/// Runs the snapshot barrier: asks every shard for its frozen members,
/// writes the combined snapshot at the current WAL position, and
/// compacts covered segments. Called with the WAL lock held, so no new
/// record can slip between the position claimed and the state captured.
fn snapshot_barrier(
    shards: &[Sender<Cmd>],
    metrics: &Metrics,
    inner: &mut WalInner,
) -> Result<(), StoreError> {
    let (reply_tx, reply_rx) = unbounded();
    let mut expected = 0;
    for tx in shards {
        if tx
            .send(Cmd::Snapshot {
                reply: reply_tx.clone(),
            })
            .is_ok()
        {
            expected += 1;
        }
    }
    drop(reply_tx);
    let mut snap = ServiceSnapshot::default();
    for _ in 0..expected {
        match reply_rx.recv() {
            Ok(mut part) => {
                snap.sessions.append(&mut part.sessions);
                snap.workers.append(&mut part.workers);
                snap.aggregators.append(&mut part.aggregators);
            }
            Err(_) => {
                return Err(StoreError::Corrupt(
                    "shard worker exited during snapshot".into(),
                ))
            }
        }
    }
    snap.sessions.sort_by(|a, b| a.name.cmp(&b.name));
    snap.workers.sort_by(|a, b| a.name.cmp(&b.name));
    snap.aggregators.sort_by(|a, b| a.name.cmp(&b.name));
    let text = snap.to_json();
    inner.store.write_snapshot(text.as_bytes())?;
    inner.store.compact()?;
    inner.since_snapshot = 0;
    metrics.snapshots_written.fetch_add(1, Relaxed);
    metrics.snapshot_unix_secs.store(unix_now_secs(), Relaxed);
    metrics.snapshot_bytes.store(text.len() as u64, Relaxed);
    Ok(())
}

impl MonitorService {
    /// Starts a service that cannot fail to start (no persistence, or
    /// the caller accepts a panic on storage errors). Prefer
    /// [`MonitorService::open`] when a data directory is configured.
    pub fn start(config: MonitorConfig) -> MonitorService {
        MonitorService::open(config).expect("start monitor service")
    }

    /// Opens the service: recovers durable state (when configured),
    /// then starts the shard workers — each owning its share of the
    /// recovered members — and the stats reporter.
    ///
    /// Fails only on storage problems: a data directory locked by a
    /// running process ([`StoreError::Locked`]), I/O errors, or a
    /// snapshot too damaged to parse ([`StoreError::Corrupt`] — a
    /// damaged WAL *tail* is repaired silently, but a snapshot that
    /// exists and lies is refused rather than guessed at).
    pub fn open(config: MonitorConfig) -> Result<MonitorService, StoreError> {
        let metrics = Arc::new(Metrics::new());
        // Recovery happens before the first worker spawns, so no new
        // input can interleave with the replay.
        let mut shards: Vec<Shard> = (0..config.shards.max(1))
            .map(|_| Shard::new(config.limits))
            .collect();
        let wal = match &config.persist {
            None => None,
            Some(p) => Some(recover(p, config.limits, &mut shards, &metrics)?),
        };

        let mut senders = Vec::with_capacity(shards.len());
        let mut workers = Vec::with_capacity(shards.len());
        for (index, shard) in shards.into_iter().enumerate() {
            let (tx, rx) = bounded(SHARD_QUEUE_FRAMES);
            let metrics = Arc::clone(&metrics);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("hb-monitor-shard-{index}"))
                    .spawn(move || shard_worker(rx, shard, metrics))
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
        }
        let (stats_stop, stats_thread) = match config.stats_interval {
            Some(period) => {
                let (stop_tx, stop_rx) = unbounded::<()>();
                let metrics = Arc::clone(&metrics);
                let handle = std::thread::Builder::new()
                    .name("hb-monitor-stats".into())
                    .spawn(move || loop {
                        match stop_rx.recv_timeout(period) {
                            Ok(()) | Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                                return
                            }
                            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                                eprintln!("hb-monitor: {}", metrics.snapshot());
                            }
                        }
                    })
                    .expect("spawn stats thread");
                (Some(stop_tx), Some(handle))
            }
            None => (None, None),
        };
        Ok(MonitorService {
            shards: senders,
            workers,
            metrics,
            wal,
            writers: StoppedWriters::default(),
            stats_stop,
            stats_thread,
        })
    }

    /// A client handle for submitting messages in-process.
    pub fn handle(&self) -> MonitorHandle {
        MonitorHandle {
            shards: self.shards.clone(),
            metrics: Arc::clone(&self.metrics),
            wal: self.wal.clone(),
            writers: Arc::clone(&self.writers),
        }
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Gracefully shuts down: every open session is closed (emitting
    /// final verdicts into its sink), then the workers exit and join.
    /// With persistence, an **empty** snapshot is written next — a
    /// graceful shutdown resolves every session, so a later restart has
    /// nothing to recover and must not resurrect them. Last, the
    /// writers of the connections [`serve`] stopped serving are joined:
    /// a client still connected reads its sessions' final verdicts and
    /// `closed` before EOF.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        for tx in &self.shards {
            let _ = tx.send(Cmd::Flush);
        }
        self.shards.clear(); // disconnect: workers exit after the flush
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(wal) = self.wal.take() {
            let mut inner = wal.lock();
            let done = ServiceSnapshot::default();
            if let Err(e) = inner
                .store
                .write_snapshot(done.to_json().as_bytes())
                .and_then(|()| inner.store.compact().map(|_| ()))
            {
                eprintln!("hb-monitor: final snapshot failed: {e}");
            }
        }
        let writers = std::mem::take(&mut *self.writers.lock());
        for w in writers {
            w.join();
        }
        if let Some(stop) = self.stats_stop.take() {
            let _ = stop.send(());
        }
        if let Some(t) = self.stats_thread.take() {
            let _ = t.join();
        }
        self.metrics.snapshot()
    }
}

impl MonitorHandle {
    /// Submits one client message; responses arrive on `sink`.
    ///
    /// Three stages. The **gate** answers what never reaches a session:
    /// `Stats` synchronously from the shared metrics (no shard
    /// round-trip); `Shutdown` with `Bye` — a transport-level concern,
    /// shutting the service down is the owner's call via
    /// [`MonitorService::shutdown`]; the `hello` handshake; and what a
    /// backend's role refuses. With persistence, the
    /// **WAL** stage appends the message **before** it is routed — by
    /// the time any effect of the message is observable, its record is
    /// in the log — and an append failure refuses the message with
    /// `ServerMsg::Error` instead of processing input that would be
    /// lost by a crash. **Route** hands it to the shard owning the
    /// session name.
    pub fn submit(&self, msg: ClientMsg, sink: &Sender<ServerMsg>) {
        self.submit_body(msg, None, sink)
    }

    /// [`MonitorHandle::submit`] for a message that arrived as `body`,
    /// when that body is canonical ([`wire::decode_client_body`]): the
    /// WAL stage logs it as it came instead of encoding `msg` again.
    fn submit_body(&self, msg: ClientMsg, body: Option<Vec<u8>>, sink: &Sender<ServerMsg>) {
        if let Some(answer) = self.gate(&msg) {
            return self.answer(sink, answer);
        }
        // The gate answered every message that names no session.
        let Some(session) = msg.session() else { return };
        let shard = &self.shards[shard_index_of(session, self.shards.len())];
        // One record per message — a batch is appended atomically.
        // The canonical encoding of the decoded message: the client's
        // own bytes when they are exactly that, else encoded here. What
        // is on disk does not depend on how a client spaces or orders
        // its JSON.
        let logged = self.wal.as_ref().map(|wal| {
            let payload = body.unwrap_or_else(|| wire::encode_body(&msg).into_bytes());
            debug_assert_eq!(payload, wire::encode_body(&msg).into_bytes());
            (wal, payload)
        });
        let cmd = Cmd::Msg {
            msg,
            sink: sink.clone(),
        };
        let Some((wal, payload)) = logged else {
            let _ = shard.send(cmd);
            return;
        };
        let mut inner = wal.lock();
        if let Err(e) = inner.store.append(&payload) {
            let message = format!("write-ahead log append failed: {e}");
            return self.answer(sink, error_frame(None, None, message));
        }
        // Route while still holding the lock: a concurrent snapshot
        // barrier must not run between this record's append and its
        // arrival in the shard queue.
        let _ = shard.send(cmd);
        let stats = inner.store.stats();
        self.metrics
            .wal_records
            .store(stats.appended_records, Relaxed);
        self.metrics.wal_bytes.store(stats.appended_bytes, Relaxed);
        self.metrics.wal_fsyncs.store(stats.fsyncs, Relaxed);
        self.metrics
            .wal_fsync_max_micros
            .store(stats.fsync_max_micros, Relaxed);
        inner.since_snapshot += 1;
        if inner.since_snapshot >= inner.snapshot_every {
            if let Err(e) = snapshot_barrier(&self.shards, &self.metrics, &mut inner) {
                eprintln!("hb-monitor: snapshot failed: {e}");
            }
        }
    }

    /// The gate: the answer to a message that is settled without a
    /// session, or `None` for one that goes on to the WAL and a shard.
    fn gate(&self, msg: &ClientMsg) -> Option<ServerMsg> {
        Some(match msg {
            ClientMsg::Stats => ServerMsg::Stats {
                counters: self.metrics.snapshot().to_map(),
            },
            ClientMsg::Shutdown => ServerMsg::Bye,
            // Version handshake: also the gateway's health probe, so it
            // must stay cheap and side-effect free.
            ClientMsg::Hello { version } => match wire::check_version(*version) {
                Ok(()) => ServerMsg::Welcome {
                    version: wire::WIRE_VERSION,
                },
                Err(message) => error_frame(None, None, message),
            },
            ClientMsg::Drain { backend } => error_frame(
                None,
                None,
                format!(
                    "cannot drain '{backend}': this is a monitor backend, \
                     not a gateway — point `hbtl gateway drain` at the gateway"
                ),
            ),
            // A backend accepts the derived worker/aggregator opens,
            // never the client-facing `distribute` request.
            ClientMsg::Open {
                session,
                dist: Some(WireDistRole::Distribute { .. }),
                ..
            } => error_frame(
                Some(session),
                Some(wire::error_kind::UNSUPPORTED_DISTRIBUTION),
                GATEWAY_ONLY.into(),
            ),
            _ => return None,
        })
    }

    fn answer(&self, sink: &Sender<ServerMsg>, answer: ServerMsg) {
        if matches!(answer, ServerMsg::Error { .. }) {
            self.metrics.protocol_errors.fetch_add(1, Relaxed);
        }
        let _ = sink.send(answer);
    }

    /// The shared metrics.
    pub fn stats(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

/// The shard worker loop: applies commands in arrival order to the
/// members it owns. `shard` arrives holding whatever crash recovery
/// rebuilt.
fn shard_worker(rx: Receiver<Cmd>, mut shard: Shard, metrics: Arc<Metrics>) {
    for cmd in rx.iter() {
        match cmd {
            Cmd::Msg { msg, sink } => shard.handle(msg, &sink, &metrics),
            Cmd::Snapshot { reply } => {
                let _ = reply.send(shard.freeze(&metrics));
            }
            Cmd::Flush => break,
        }
    }
    // Reached on Flush or channel disconnect.
    shard.close_all(&metrics);
}

// ---- TCP transport --------------------------------------------------------

/// Serves the wire protocol on `listener`, on the connection driver the
/// gateway also runs, until a client sends `shutdown`.
///
/// Returns with the connections' writers still running: the caller's
/// [`MonitorService::shutdown`] flushes into them, then joins them.
pub fn serve(listener: TcpListener, handle: MonitorHandle) -> std::io::Result<()> {
    let writers = dial::accept_loop(listener, handle.clone())?;
    handle.writers.lock().push(writers);
    Ok(())
}

impl dial::Service for MonitorHandle {
    /// Decodes and submits one frame. Only a logged service asks
    /// whether a body is canonical, for the WAL stage to log it as it
    /// came.
    fn frame(&self, body: Vec<u8>, sink: &Sender<ServerMsg>) -> Result<bool, TraceError> {
        let (msg, body): (ClientMsg, _) = match self.wal {
            None => (wire::decode_body(&body)?, None),
            Some(_) => {
                let (msg, canonical) = wire::decode_client_body(&body)?;
                (msg, canonical.then_some(body))
            }
        };
        let shutdown = matches!(msg, ClientMsg::Shutdown);
        self.submit_body(msg, body, sink);
        Ok(shutdown)
    }

    fn refused(&self) {
        self.metrics.protocol_errors.fetch_add(1, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_store::SyncPolicy;
    use hb_tracefmt::wire::{SliceUpdateBody, WireClause, WireMode, WirePredicate, WireVerdict};
    use std::collections::BTreeMap;
    use std::io::{BufReader, BufWriter};
    use std::net::TcpStream;
    use std::path::PathBuf;

    fn fig2_open(session: &str) -> ClientMsg {
        ClientMsg::Open {
            session: session.into(),
            processes: 2,
            vars: vec!["x0".into(), "x1".into()],
            initial: vec![],
            predicates: vec![WirePredicate {
                id: "ef".into(),
                mode: WireMode::Conjunctive,
                clauses: vec![
                    WireClause {
                        process: 0,
                        var: "x0".into(),
                        op: "=".into(),
                        value: 2,
                    },
                    WireClause {
                        process: 1,
                        var: "x1".into(),
                        op: "=".into(),
                        value: 1,
                    },
                ],
                pattern: None,
            }],
            dist: None,
        }
    }

    fn event(session: &str, p: usize, clock: &[u32], set: &[(&str, i64)]) -> ClientMsg {
        ClientMsg::Event {
            session: session.into(),
            p,
            clock: clock.to_vec(),
            set: set.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    /// Drains the sink until a verdict for `predicate` arrives.
    fn wait_verdict(rx: &Receiver<ServerMsg>, predicate: &str) -> WireVerdict {
        for msg in rx.iter() {
            if let ServerMsg::Verdict {
                predicate: p,
                verdict,
                ..
            } = msg
            {
                if p == predicate {
                    return verdict;
                }
            }
        }
        panic!("sink closed without a verdict for '{predicate}'");
    }

    fn pattern_open(session: &str) -> ClientMsg {
        use hb_tracefmt::wire::{WireAtom, WirePattern};
        ClientMsg::Open {
            session: session.into(),
            processes: 2,
            vars: vec!["unlock".into(), "lock".into()],
            initial: vec![],
            predicates: vec![WirePredicate {
                id: "inv".into(),
                mode: WireMode::Pattern,
                clauses: vec![],
                pattern: Some(WirePattern {
                    atoms: vec![
                        WireAtom {
                            process: Some(1),
                            var: "unlock".into(),
                            op: "=".into(),
                            value: 1,
                            causal: false,
                        },
                        WireAtom {
                            process: Some(0),
                            var: "lock".into(),
                            op: "=".into(),
                            value: 1,
                            causal: false,
                        },
                    ],
                }),
            }],
            dist: None,
        }
    }

    #[test]
    fn pattern_sessions_detect_and_count_in_stats() {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(pattern_open("s"), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));

        // The delivered order shows lock before unlock, but the two are
        // concurrent — the predictive matcher flags the inversion.
        handle.submit(event("s", 0, &[1, 0], &[("lock", 1)]), &tx);
        handle.submit(event("s", 1, &[0, 1], &[("unlock", 1)]), &tx);
        assert!(matches!(wait_verdict(&rx, "inv"), WireVerdict::Detected(_)));

        let stats = service.shutdown();
        assert_eq!(stats.verdicts_settled, 1);
        assert_eq!(stats.verdicts["verdicts.pattern.inv.detected"], 1);
    }

    #[test]
    fn in_process_session_detects_and_flushes() {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(fig2_open("s"), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));

        // Shuffled Fig. 2(a): the receive arrives before anything else.
        handle.submit(event("s", 1, &[2, 2], &[("x1", 2)]), &tx);
        handle.submit(event("s", 0, &[1, 0], &[("x0", 1)]), &tx);
        handle.submit(event("s", 1, &[0, 1], &[("x1", 1)]), &tx);
        handle.submit(event("s", 0, &[2, 0], &[("x0", 2)]), &tx);
        assert_eq!(wait_verdict(&rx, "ef"), WireVerdict::Detected(vec![2, 1]));

        handle.submit(
            ClientMsg::Close {
                session: "s".into(),
            },
            &tx,
        );
        loop {
            if let ServerMsg::Closed { discarded, .. } = rx.recv().unwrap() {
                assert_eq!(discarded, 0);
                break;
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.events_ingested, 4);
        assert_eq!(stats.events_delivered, 4);
        assert_eq!(stats.events_held, 0);
        assert!(stats.events_held_high_water >= 1);
        assert_eq!(stats.verdicts_settled, 1);
        assert_eq!(stats.sessions_active, 0);
    }

    /// A distributed worker's membership filter is the one thing that
    /// reports `slice.*`: its counters reach the service stats when the
    /// partition closes. A plain session feeds every delivery to its
    /// detectors and reports none.
    #[test]
    fn worker_slice_counters_flow_into_service_stats() {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(fig2_open("plain"), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));
        handle.submit(event("plain", 0, &[1, 0], &[("x0", 1)]), &tx);
        let mut d = DistDriver::open(&handle, "s", 1);
        // First event leaves the clause false — the worker ships it
        // without a bit; the next two satisfy their clauses.
        d.event(&handle, 0, &[1, 0], &[("x0", 1)]);
        d.event(&handle, 0, &[2, 0], &[("x0", 2)]);
        d.event(&handle, 1, &[0, 1], &[("x1", 1)]);
        d.relay(&handle, 3);
        let frames = d.close(&handle);
        assert!(frames.contains(&ServerMsg::Verdict {
            session: "s".into(),
            predicate: "ef".into(),
            verdict: WireVerdict::Detected(vec![2, 1]),
        }));
        let stats = service.shutdown();
        assert_eq!(stats.slices["slice.ef.events_in"], 3);
        assert_eq!(stats.slices["slice.ef.events_filtered"], 1);
        assert_eq!(stats.to_map()["slice.ef.events_filtered"], 1);
        assert_eq!(stats.slices.len(), 2, "only the worker reports");
    }

    #[test]
    fn shutdown_flushes_open_sessions_with_final_verdicts() {
        let service = MonitorService::start(MonitorConfig {
            shards: 2,
            ..MonitorConfig::default()
        });
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(fig2_open("flushy"), &tx);
        handle.submit(event("flushy", 1, &[1, 1], &[("x1", 1)]), &tx); // held forever
        let stats = service.shutdown();
        assert_eq!(stats.events_held, 0, "flush returns the held gauge to zero");
        assert_eq!(stats.events_discarded, 1);
        drop(tx); // our clone would keep the iterator below alive forever
        let msgs: Vec<ServerMsg> = rx.iter().collect();
        assert!(msgs.iter().any(|m| matches!(
            m,
            ServerMsg::Verdict {
                verdict: WireVerdict::Impossible,
                ..
            }
        )));
        assert!(msgs.iter().any(|m| matches!(m, ServerMsg::Closed { .. })));
    }

    #[test]
    fn sessions_shard_independently() {
        let service = MonitorService::start(MonitorConfig {
            shards: 3,
            ..MonitorConfig::default()
        });
        let handle = service.handle();
        let mut sinks = Vec::new();
        for i in 0..6 {
            let (tx, rx) = unbounded();
            let name = format!("s{i}");
            handle.submit(fig2_open(&name), &tx);
            handle.submit(event(&name, 0, &[1, 0], &[("x0", 2)]), &tx);
            handle.submit(event(&name, 1, &[0, 1], &[("x1", 1)]), &tx);
            sinks.push((name, tx, rx));
        }
        for (_, _, rx) in &sinks {
            assert_eq!(wait_verdict(rx, "ef"), WireVerdict::Detected(vec![1, 1]));
        }
        let stats = service.shutdown();
        assert_eq!(stats.sessions_opened, 6);
        assert_eq!(stats.events_ingested, 12);
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        // Event for a session that does not exist.
        handle.submit(event("ghost", 0, &[1, 0], &[]), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Error { .. }));
        // Open, then duplicate open.
        handle.submit(fig2_open("dup"), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));
        handle.submit(fig2_open("dup"), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Error { .. }));
        // Duplicate event.
        handle.submit(event("dup", 0, &[1, 0], &[]), &tx);
        handle.submit(event("dup", 0, &[1, 0], &[]), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Error { .. }));
        let stats = service.shutdown();
        assert_eq!(stats.protocol_errors, 3);
        assert_eq!(stats.events_duplicate, 1);
    }

    /// The SDK's flusher classifies replay artifacts by the `kind`
    /// field, so the exact constants the service emits are contract,
    /// not cosmetics (the message texts are free to change).
    #[test]
    fn replay_artifact_errors_carry_machine_readable_kinds() {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(fig2_open("kinds"), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));
        // A replayed open, a replayed event, and an event after finish —
        // the three benign at-least-once artifacts.
        handle.submit(fig2_open("kinds"), &tx);
        handle.submit(event("kinds", 0, &[1, 0], &[]), &tx);
        handle.submit(event("kinds", 0, &[1, 0], &[]), &tx);
        handle.submit(
            ClientMsg::FinishProcess {
                session: "kinds".into(),
                p: 0,
            },
            &tx,
        );
        handle.submit(event("kinds", 0, &[2, 0], &[]), &tx);
        // An unknown session is a real error: no kind.
        handle.submit(event("ghost", 0, &[1, 0], &[]), &tx);
        service.shutdown();
        let mut session_kinds = Vec::new();
        let mut ghost_kinds = Vec::new();
        while let Ok(msg) = rx.try_recv() {
            if let ServerMsg::Error { session, kind, .. } = msg {
                match session.as_deref() {
                    Some("kinds") => session_kinds.push(kind),
                    Some("ghost") => ghost_kinds.push(kind),
                    other => panic!("error for unexpected session {other:?}"),
                }
            }
        }
        assert_eq!(
            session_kinds,
            [
                Some(wire::error_kind::ALREADY_OPEN.to_string()),
                Some(wire::error_kind::DUPLICATE_EVENT.to_string()),
                Some(wire::error_kind::ALREADY_FINISHED.to_string()),
            ]
        );
        assert_eq!(ghost_kinds, [None]);
    }

    #[test]
    fn hello_handshake_negotiates_version() {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        let hello = |version| ClientMsg::Hello { version };
        handle.submit(hello(5), &tx);
        assert_eq!(rx.recv().unwrap(), ServerMsg::Welcome { version: 5 });
        // Any other version is refused with the canonical message.
        for version in [4, 6] {
            handle.submit(hello(version), &tx);
            assert_eq!(
                rx.recv().unwrap(),
                ServerMsg::Error {
                    session: None,
                    kind: None,
                    message: format!("unsupported protocol version {version} (this peer speaks 5)"),
                }
            );
        }
        // A monitor is not a gateway: it has no backends to drain.
        handle.submit(
            ClientMsg::Drain {
                backend: "127.0.0.1:1".into(),
            },
            &tx,
        );
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Error { .. }));
        assert_eq!(service.shutdown().protocol_errors, 3);
    }

    #[test]
    fn stats_request_answers_inline() {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(ClientMsg::Stats, &tx);
        match rx.recv().unwrap() {
            ServerMsg::Stats { counters } => {
                assert_eq!(counters["events_ingested"], 0);
            }
            other => panic!("{other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn tcp_round_trip() {
        let service = MonitorService::start(MonitorConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = service.handle();
        let server = std::thread::spawn(move || serve(listener, handle).unwrap());

        let stream = TcpStream::connect(addr).unwrap();
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        let mut r = BufReader::new(stream);
        wire::write_frame(&mut w, &fig2_open("tcp")).unwrap();
        let opened: ServerMsg = wire::read_frame(&mut r).unwrap().unwrap();
        assert!(matches!(opened, ServerMsg::Opened { .. }));
        wire::write_frame(&mut w, &event("tcp", 0, &[1, 0], &[("x0", 2)])).unwrap();
        wire::write_frame(&mut w, &event("tcp", 1, &[0, 1], &[("x1", 1)])).unwrap();
        let verdict: ServerMsg = wire::read_frame(&mut r).unwrap().unwrap();
        match verdict {
            ServerMsg::Verdict { verdict, .. } => {
                assert_eq!(verdict, WireVerdict::Detected(vec![1, 1]));
            }
            other => panic!("{other:?}"),
        }
        wire::write_frame(&mut w, &ClientMsg::Shutdown).unwrap();
        let bye: ServerMsg = wire::read_frame(&mut r).unwrap().unwrap();
        assert!(matches!(bye, ServerMsg::Bye));
        server.join().unwrap();
        let stats = service.shutdown();
        assert_eq!(stats.events_ingested, 2);
    }

    /// A session's replies follow the connection that speaks for it.
    /// Client A opens a session, sends one event and drops its
    /// connection; client B, whose re-open is refused as
    /// `already_open`, sends the rest and `close` — and reads the
    /// verdict and `closed`, not A's dead socket.
    #[test]
    fn replies_follow_the_connection_that_speaks_for_a_session() {
        let service = MonitorService::start(MonitorConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = service.handle();
        let server = std::thread::spawn(move || serve(listener, handle).unwrap());
        let connect = || {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            (
                BufWriter::new(stream.try_clone().unwrap()),
                BufReader::new(stream),
            )
        };
        let read = |r: &mut BufReader<TcpStream>| -> ServerMsg {
            wire::read_frame(r).expect("a reply in time").expect("open")
        };

        let (mut a_w, mut a_r) = connect();
        wire::write_frame(&mut a_w, &fig2_open("bind")).unwrap();
        assert!(matches!(read(&mut a_r), ServerMsg::Opened { .. }));
        wire::write_frame(&mut a_w, &event("bind", 0, &[1, 0], &[("x0", 2)])).unwrap();
        // Answered once the event is queued ahead of anything B sends.
        wire::write_frame(&mut a_w, &ClientMsg::Stats).unwrap();
        assert!(matches!(read(&mut a_r), ServerMsg::Stats { .. }));
        drop((a_w, a_r));

        let (mut b_w, mut b_r) = connect();
        wire::write_frame(&mut b_w, &fig2_open("bind")).unwrap();
        match read(&mut b_r) {
            ServerMsg::Error { kind, .. } => {
                assert_eq!(kind.as_deref(), Some(wire::error_kind::ALREADY_OPEN));
            }
            other => panic!("expected already_open, got {other:?}"),
        }
        wire::write_frame(&mut b_w, &event("bind", 1, &[0, 1], &[("x1", 1)])).unwrap();
        wire::write_frame(&mut b_w, &event("bind", 0, &[2, 1], &[("x0", 3)])).unwrap();
        let close = ClientMsg::Close {
            session: "bind".into(),
        };
        wire::write_frame(&mut b_w, &close).unwrap();
        assert_eq!(
            read(&mut b_r),
            ServerMsg::Verdict {
                session: "bind".into(),
                predicate: "ef".into(),
                verdict: WireVerdict::Detected(vec![1, 1]),
            }
        );
        assert!(matches!(read(&mut b_r), ServerMsg::Closed { .. }));

        wire::write_frame(&mut b_w, &ClientMsg::Shutdown).unwrap();
        assert_eq!(read(&mut b_r), ServerMsg::Bye);
        server.join().unwrap();
        let stats = service.shutdown();
        assert_eq!(stats.verdicts_settled, 1);
        assert_eq!(stats.sessions_active, 0);
        assert_eq!(stats.sessions_reattached, 1);
    }

    // ---- persistence ------------------------------------------------------

    fn persist_config(name: &str) -> PersistConfig {
        let dir: PathBuf = std::env::temp_dir()
            .join("hb-monitor-service-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        PersistConfig {
            sync: SyncPolicy::Os,
            ..PersistConfig::new(dir)
        }
    }

    #[test]
    fn wal_replay_rebuilds_sessions_after_a_crash() {
        let config = MonitorConfig {
            persist: Some(persist_config("replay")),
            ..MonitorConfig::default()
        };
        {
            let service = MonitorService::open(config.clone()).unwrap();
            let handle = service.handle();
            let (tx, rx) = unbounded();
            handle.submit(fig2_open("s"), &tx);
            assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));
            handle.submit(event("s", 1, &[0, 1], &[("x1", 1)]), &tx);
            handle.submit(event("s", 0, &[1, 0], &[("x0", 1)]), &tx);
            // "Crash": drop everything without shutdown. The appends
            // already happened in submit, so the WAL has all three
            // records; no graceful state is written.
            drop(handle);
            drop(service);
        }
        let service = MonitorService::open(config).unwrap();
        let m = service.metrics();
        assert_eq!(m.sessions_recovered, 1);
        assert_eq!(m.recovery_replayed, 3, "open + two events");
        let handle = service.handle();
        let (tx, rx) = unbounded();
        // Resume the stream exactly where it stopped: the recovered
        // session still has x1=1 delivered, so e2 completes detection.
        handle.submit(event("s", 0, &[2, 0], &[("x0", 2)]), &tx);
        assert_eq!(wait_verdict(&rx, "ef"), WireVerdict::Detected(vec![2, 1]));
        service.shutdown();
    }

    #[test]
    fn snapshots_bound_replay_and_settled_verdicts_are_reemitted() {
        let mut persist = persist_config("snapshot");
        persist.snapshot_every = 3;
        let config = MonitorConfig {
            shards: 2,
            persist: Some(persist),
            ..MonitorConfig::default()
        };
        {
            let service = MonitorService::open(config.clone()).unwrap();
            let handle = service.handle();
            let (tx, rx) = unbounded();
            handle.submit(fig2_open("s"), &tx);
            handle.submit(event("s", 1, &[0, 1], &[("x1", 1)]), &tx);
            handle.submit(event("s", 0, &[1, 0], &[("x0", 1)]), &tx);
            handle.submit(event("s", 0, &[2, 0], &[("x0", 2)]), &tx);
            assert_eq!(wait_verdict(&rx, "ef"), WireVerdict::Detected(vec![2, 1]));
            let m = service.metrics();
            assert!(m.snapshots_written >= 1);
            // The gauge holds the newest snapshot's payload size.
            let dir = &config.persist.as_ref().unwrap().dir;
            let (_, newest) = hb_store::snapshot::list_snapshots(dir)
                .unwrap()
                .into_iter()
                .max_by_key(|&(seq, _)| seq)
                .unwrap();
            let (_, payload) = hb_store::snapshot::read_snapshot(&newest).unwrap();
            assert_eq!(m.snapshot_bytes, payload.len() as u64);
            drop(handle);
            drop(service); // crash
        }
        let service = MonitorService::open(config).unwrap();
        let m = service.metrics();
        assert_eq!(m.sessions_recovered, 1);
        assert!(
            m.recovery_replayed < 4,
            "snapshot should bound the replay, got {}",
            m.recovery_replayed
        );
        // First contact with the recovered session re-reports the
        // verdict that settled before the crash.
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(
            ClientMsg::Close {
                session: "s".into(),
            },
            &tx,
        );
        assert_eq!(wait_verdict(&rx, "ef"), WireVerdict::Detected(vec![2, 1]));
        service.shutdown();
    }

    #[test]
    fn graceful_shutdown_leaves_nothing_to_recover() {
        let config = MonitorConfig {
            persist: Some(persist_config("graceful")),
            ..MonitorConfig::default()
        };
        let service = MonitorService::open(config.clone()).unwrap();
        let handle = service.handle();
        let (tx, _rx) = unbounded();
        handle.submit(fig2_open("s"), &tx);
        handle.submit(event("s", 0, &[1, 0], &[("x0", 1)]), &tx);
        drop(handle); // release the WAL before reopening below
        service.shutdown();

        let service = MonitorService::open(config).unwrap();
        let m = service.metrics();
        assert_eq!(m.sessions_recovered, 0, "shutdown resolved every session");
        assert_eq!(m.recovery_replayed, 0, "the final snapshot covers the log");
        service.shutdown();
    }

    #[test]
    fn second_service_on_the_same_data_dir_is_refused() {
        let config = MonitorConfig {
            persist: Some(persist_config("locked")),
            ..MonitorConfig::default()
        };
        let service = MonitorService::open(config.clone()).unwrap();
        match MonitorService::open(config) {
            Err(StoreError::Locked { .. }) => {}
            Err(other) => panic!("expected Locked, got {other:?}"),
            Ok(_) => panic!("second open must be refused"),
        }
        service.shutdown();
    }

    // ---- distributed sessions ---------------------------------------------

    /// [`fig2_open`] under a distribution role — same processes, vars
    /// and predicate, so a distributed trio and the single-backend
    /// reference monitor the identical session.
    fn fig2_dist_open(session: &str, role: WireDistRole) -> ClientMsg {
        match fig2_open(session) {
            ClientMsg::Open {
                session,
                processes,
                vars,
                initial,
                predicates,
                ..
            } => ClientMsg::Open {
                session,
                processes,
                vars,
                initial,
                predicates,
                dist: Some(role),
            },
            _ => unreachable!(),
        }
    }

    /// The shuffled Fig. 2(a) stream the in-process tests use.
    #[allow(clippy::type_complexity)]
    fn fig2_events() -> Vec<(usize, Vec<u32>, Vec<(&'static str, i64)>)> {
        vec![
            (1, vec![2, 2], vec![("x1", 2)]),
            (0, vec![1, 0], vec![("x0", 1)]),
            (1, vec![0, 1], vec![("x1", 1)]),
            (0, vec![2, 0], vec![("x0", 2)]),
        ]
    }

    /// Runs `events` through a plain single-backend session and returns
    /// every frame the session emitted, through `closed`.
    #[allow(clippy::type_complexity)]
    fn reference_frames(events: &[(usize, Vec<u32>, Vec<(&'static str, i64)>)]) -> Vec<ServerMsg> {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(fig2_open("s"), &tx);
        for (p, clock, set) in events {
            handle.submit(event("s", *p, clock, set), &tx);
        }
        handle.submit(
            ClientMsg::Close {
                session: "s".into(),
            },
            &tx,
        );
        let mut frames = Vec::new();
        for msg in rx.iter() {
            let done = matches!(msg, ServerMsg::Closed { .. });
            frames.push(msg);
            if done {
                break;
            }
        }
        service.shutdown();
        frames
    }

    /// Plays the gateway against one in-process service: opens the
    /// worker partitions (decorated names) and the aggregator (origin
    /// name), stamps seqs, routes events to their owner workers as
    /// `dist-event` frames, and relays worker `slice-update` frames to
    /// the aggregator. Channels outlive the service, so a test can
    /// crash and reopen the service mid-stream and keep driving.
    struct DistDriver {
        origin: String,
        k: usize,
        next_seq: u64,
        wtx: Sender<ServerMsg>,
        wrx: Receiver<ServerMsg>,
        atx: Sender<ServerMsg>,
        arx: Receiver<ServerMsg>,
    }

    impl DistDriver {
        fn open(handle: &MonitorHandle, origin: &str, k: usize) -> DistDriver {
            let (wtx, wrx) = unbounded();
            let (atx, arx) = unbounded();
            for worker in 0..k {
                handle.submit(
                    fig2_dist_open(
                        &hb_dist::worker_session(origin, worker),
                        WireDistRole::Worker {
                            origin: origin.into(),
                            worker,
                            k,
                        },
                    ),
                    &wtx,
                );
                assert!(matches!(wrx.recv().unwrap(), ServerMsg::Opened { .. }));
            }
            // The aggregator's Opened stays in `arx`: it is the first
            // frame of the origin stream the tests byte-compare.
            handle.submit(fig2_dist_open(origin, WireDistRole::Aggregator { k }), &atx);
            DistDriver {
                origin: origin.into(),
                k,
                next_seq: 0,
                wtx,
                wrx,
                atx,
                arx,
            }
        }

        fn event(&mut self, handle: &MonitorHandle, p: usize, clock: &[u32], set: &[(&str, i64)]) {
            let seq = self.next_seq;
            self.next_seq += 1;
            handle.submit(
                ClientMsg::DistEvent {
                    session: hb_dist::worker_session(&self.origin, hb_dist::owner(p, self.k)),
                    seq,
                    event: wire::EventFrame {
                        p,
                        clock: clock.to_vec(),
                        set: set.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
                    },
                },
                &self.wtx,
            );
        }

        /// Replaces both sinks with fresh channels — what a gateway
        /// reconnecting after a monitor restart does. The recovered
        /// slots adopt the new sinks on first contact (re-attach).
        fn rewire(&mut self) {
            let (wtx, wrx) = unbounded();
            let (atx, arx) = unbounded();
            self.wtx = wtx;
            self.wrx = wrx;
            self.atx = atx;
            self.arx = arx;
        }

        /// Relays the next `n` worker observations to the aggregator.
        fn relay(&mut self, handle: &MonitorHandle, n: usize) {
            let mut relayed = 0;
            while relayed < n {
                match self.wrx.recv().unwrap() {
                    ServerMsg::SliceUpdate {
                        session,
                        seq,
                        update,
                    } => {
                        assert_eq!(session, self.origin, "updates address the origin");
                        handle.submit(
                            ClientMsg::SliceUpdate {
                                session,
                                seq,
                                update,
                            },
                            &self.atx,
                        );
                        relayed += 1;
                    }
                    other => panic!("expected a slice-update, got {other:?}"),
                }
            }
        }

        /// The gateway close protocol: close the workers first (their
        /// stranded holds flush as updates that must still reach the
        /// aggregator), then hand the aggregator its final close
        /// update. Returns the origin session's full frame stream.
        fn close(self, handle: &MonitorHandle) -> Vec<ServerMsg> {
            for worker in 0..self.k {
                handle.submit(
                    ClientMsg::Close {
                        session: format!("{}#w{}", self.origin, worker),
                    },
                    &self.wtx,
                );
            }
            let mut closed = 0;
            while closed < self.k {
                match self.wrx.recv().unwrap() {
                    ServerMsg::SliceUpdate {
                        session,
                        seq,
                        update,
                    } => handle.submit(
                        ClientMsg::SliceUpdate {
                            session,
                            seq,
                            update,
                        },
                        &self.atx,
                    ),
                    ServerMsg::Closed { .. } => closed += 1,
                    other => panic!("unexpected worker frame {other:?}"),
                }
            }
            handle.submit(
                ClientMsg::SliceUpdate {
                    session: self.origin.clone(),
                    seq: self.next_seq,
                    update: SliceUpdateBody::Close,
                },
                &self.atx,
            );
            let mut frames = Vec::new();
            for msg in self.arx.iter() {
                let done = matches!(msg, ServerMsg::Closed { .. });
                frames.push(msg);
                if done {
                    break;
                }
            }
            frames
        }
    }

    #[test]
    fn distributed_sessions_match_the_single_backend_frame_for_frame() {
        let events = fig2_events();
        let expected = reference_frames(&events);
        assert!(
            expected.contains(&ServerMsg::Verdict {
                session: "s".into(),
                predicate: "ef".into(),
                verdict: WireVerdict::Detected(vec![2, 1]),
            }),
            "the reference stream must actually detect"
        );

        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let mut driver = DistDriver::open(&handle, "s", 2);
        for (p, clock, set) in &events {
            driver.event(&handle, *p, clock, set);
        }
        driver.relay(&handle, events.len());
        let frames = driver.close(&handle);
        assert_eq!(frames, expected, "origin frame streams must be identical");

        let m = service.shutdown();
        assert_eq!(m.events_ingested, 4);
        assert_eq!(m.dist_updates_relayed, 4, "one observation per event");
        assert_eq!(m.dist_updates_applied, 5, "four observations + close");
        assert_eq!(m.dist_workers_active, 0);
        assert_eq!(m.dist_aggregators_active, 0);
        assert_eq!(m.verdicts_settled, 1);
        assert_eq!(m.sessions_active, 0);
    }

    #[test]
    fn distributed_slots_recover_from_a_crash_mid_stream() {
        let config = MonitorConfig {
            persist: Some(persist_config("dist-crash")),
            ..MonitorConfig::default()
        };
        let events = fig2_events();
        let expected = reference_frames(&events);

        let service = MonitorService::open(config.clone()).unwrap();
        let handle = service.handle();
        let mut driver = DistDriver::open(&handle, "s", 2);
        for (p, clock, set) in &events[..3] {
            driver.event(&handle, *p, clock, set);
        }
        driver.relay(&handle, 3);
        assert!(matches!(
            driver.arx.recv().unwrap(),
            ServerMsg::Opened { .. }
        ));
        // "Crash": drop without shutdown. The WAL holds the three
        // opens, three dist-events, and three relayed updates; the
        // flush-on-drop frames die with the old sinks below.
        drop(handle);
        drop(service);

        let service = MonitorService::open(config).unwrap();
        let m = service.metrics();
        assert_eq!(m.sessions_recovered, 3, "two workers + one aggregator");
        assert_eq!(m.recovery_replayed, 9);
        let handle = service.handle();
        driver.rewire();
        let (p, clock, set) = &events[3];
        driver.event(&handle, *p, clock, set);
        driver.relay(&handle, 1);
        let frames = driver.close(&handle);
        // The reconnected stream is the reference stream minus the
        // Opened frame consumed before the crash.
        assert_eq!(frames, expected[1..], "recovery must not change the stream");
        assert!(service.metrics().sessions_reattached >= 1);
        service.shutdown();
    }

    #[test]
    fn monitors_refuse_gateway_only_roles_and_direct_frames() {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        // `distribute` is the client-facing role; only a gateway fans
        // it out into worker/aggregator opens.
        handle.submit(fig2_dist_open("s", WireDistRole::Distribute { k: 2 }), &tx);
        match rx.recv().unwrap() {
            ServerMsg::Error { kind, message, .. } => {
                assert_eq!(
                    kind.as_deref(),
                    Some(wire::error_kind::UNSUPPORTED_DISTRIBUTION)
                );
                assert!(message.contains("gateway"), "{message}");
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
        // Worker partitions take dist-event frames, not plain events…
        handle.submit(
            fig2_dist_open(
                "s#w0",
                WireDistRole::Worker {
                    origin: "s".into(),
                    worker: 0,
                    k: 1,
                },
            ),
            &tx,
        );
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));
        handle.submit(event("s#w0", 0, &[1, 0], &[("x0", 1)]), &tx);
        match rx.recv().unwrap() {
            ServerMsg::Error { message, .. } => {
                assert!(message.contains("routed by the gateway"), "{message}");
            }
            other => panic!("expected an error, got {other:?}"),
        }
        // …and slice-updates only land on aggregator slots.
        handle.submit(
            ClientMsg::SliceUpdate {
                session: "s#w0".into(),
                seq: 0,
                update: SliceUpdateBody::Close,
            },
            &tx,
        );
        match rx.recv().unwrap() {
            ServerMsg::Error { message, .. } => {
                assert!(message.contains("not a distributed session"), "{message}");
            }
            other => panic!("expected an error, got {other:?}"),
        }
        service.shutdown();
    }

    /// Live and replay must agree on who holds a name. A worker- or
    /// aggregator-role open of a name a plain session holds is refused
    /// live; its WAL record must be refused again by replay, not come
    /// back as a second member under the same name.
    #[test]
    fn a_refused_cross_kind_open_stays_refused_after_a_crash() {
        let roles = [
            (
                "worker",
                WireDistRole::Worker {
                    origin: "o".into(),
                    worker: 0,
                    k: 1,
                },
            ),
            ("aggregator", WireDistRole::Aggregator { k: 1 }),
        ];
        let dist_event = || ClientMsg::DistEvent {
            session: "s".into(),
            seq: 0,
            event: wire::EventFrame {
                p: 0,
                clock: vec![1, 0],
                set: BTreeMap::new(),
            },
        };
        for (case, role) in roles {
            let config = MonitorConfig {
                persist: Some(persist_config(&format!("cross-kind-{case}"))),
                ..MonitorConfig::default()
            };
            let service = MonitorService::open(config.clone()).unwrap();
            let handle = service.handle();
            let (tx, rx) = unbounded();
            handle.submit(fig2_open("s"), &tx);
            assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));
            handle.submit(fig2_dist_open("s", role), &tx);
            match rx.recv().unwrap() {
                ServerMsg::Error { kind, .. } => {
                    assert_eq!(kind.as_deref(), Some(wire::error_kind::ALREADY_OPEN));
                }
                other => panic!("{case}: expected already_open, got {other:?}"),
            }
            assert_eq!(service.metrics().sessions_active, 1, "{case}");
            handle.submit(dist_event(), &tx);
            let refused = rx.recv().unwrap();
            assert!(matches!(refused, ServerMsg::Error { .. }), "{refused:?}");
            // "Crash": drop without shutdown.
            drop(handle);
            drop(service);

            let service = MonitorService::open(config).unwrap();
            assert_eq!(service.metrics().sessions_recovered, 1, "{case}");
            let (tx, rx) = unbounded();
            service.handle().submit(dist_event(), &tx);
            assert_eq!(rx.recv().unwrap(), refused, "{case}");
            service.shutdown();
        }
    }
}

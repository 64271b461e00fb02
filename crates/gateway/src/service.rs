//! The gateway runtime.
//!
//! # Architecture
//!
//! ```text
//!                       ┌────────────────────────────┐  pool (K conns,
//!  client conns ──────► │  route by rendezvous hash  │  bounded pipelines)
//!   (wire frames)       │  over the session name     ├──────► backend 0
//!                       │                            ├──────► backend 1
//!    journals ◄──────── │  per-session frame journal │   …
//!    (bounded)          └─────────────┬──────────────┘──────► backend N−1
//!                                     │         ▲
//!                              keeper thread: health probes,
//!                              failover replay, drain progress
//! ```
//!
//! Every client frame that names a session is (1) appended to that
//! session's bounded journal and (2) forwarded to the backend the
//! session is placed on, over a pooled connection whose pipeline is a
//! *bounded* channel — when a backend stops draining its pipeline, the
//! forwarding client thread blocks, which stops reading that client's
//! socket: backpressure propagates to the source instead of buffering
//! without limit.
//!
//! # Failover
//!
//! A lost backend connection marks the whole backend down (exactly
//! once), kills its pool, and wakes the keeper. Every session placed
//! there is re-placed by rendezvous over the surviving healthy
//! backends and its journal replayed — the new backend sees the same
//! `open`/`event` stream the old one did, re-runs detection, and
//! re-settles the same verdicts. The gateway suppresses verdicts the
//! client has already seen (`SessionEntry::settled`), so a client
//! never observes a duplicate. A session whose journal overflowed its
//! bound is *dropped with an explicit error* instead of being replayed
//! from a truncated prefix (which would silently corrupt detector
//! state). Down backends are probed with capped exponential backoff
//! and rejoin the eligible set when the `Hello`/`Welcome` handshake
//! succeeds again.
//!
//! # Draining
//!
//! `drain` moves a backend through `Healthy → Draining → Removed`:
//! draining backends accept no new placements (fresh sessions and
//! failovers both skip them) but keep serving their live sessions;
//! when the last one closes, the backend is removed and its pool torn
//! down. The reply ([`ServerMsg::Drained`]) is sent only after removal,
//! so scripts can chain `drain` and process shutdown safely.

use crate::dial::{self, RetryPolicy};
use crate::journal::SessionJournal;
use crate::metrics::{GatewayMetrics, GatewaySnapshot};
use crate::rendezvous;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use hb_dist::{owner, worker_session};
use hb_tracefmt::wire::{self, ClientMsg, EventFrame, ServerMsg, SliceUpdateBody, WireDistRole};
use hb_tracefmt::TraceError;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Gateway-wide configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Backend addresses (at least one); order is cosmetic — placement
    /// is by rendezvous hash, not position.
    pub backends: Vec<String>,
    /// Connections kept per backend; sessions spread across them.
    pub pool_size: usize,
    /// Frames in flight per pooled connection before the forwarding
    /// thread blocks (the backpressure bound).
    pub pipeline_depth: usize,
    /// Frames journaled per session before it becomes non-replayable.
    pub journal_limit: usize,
    /// First health-probe delay after a backend is lost; doubles per
    /// failed probe up to `probe_cap`.
    pub probe_initial: Duration,
    /// Ceiling on the probe backoff.
    pub probe_cap: Duration,
    /// Retry policy for backend dials on the forwarding path.
    pub dial_retry: RetryPolicy,
    /// Period of the stats log line on stderr; `None` disables it.
    pub stats_interval: Option<Duration>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            backends: Vec::new(),
            pool_size: 2,
            pipeline_depth: 256,
            journal_limit: 8192,
            probe_initial: Duration::from_millis(50),
            probe_cap: Duration::from_secs(2),
            dial_retry: RetryPolicy {
                attempts: 2,
                base: Duration::from_millis(25),
                cap: Duration::from_millis(200),
            },
            stats_interval: None,
        }
    }
}

/// Where a backend stands in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    /// Eligible for new placements and failover targets.
    Healthy,
    /// Lost; probed with backoff until it answers the handshake again.
    Down { failures: u32, next_probe_ms: u64 },
    /// No new placements; live sessions run to completion.
    Draining,
    /// Gone (drained to empty, or died while draining).
    Removed,
}

/// One pooled connection to a backend.
struct Conn {
    tx: Sender<ClientMsg>,
    stream: TcpStream,
    generation: u64,
}

/// One backend and its connection pool.
struct Backend {
    addr: String,
    health: Mutex<Health>,
    slots: Vec<Mutex<Option<Conn>>>,
    generation: AtomicU64,
}

/// Routing state of a distributed session: where its worker
/// partitions live and the deterministic seq counter. The aggregator's
/// placement is the owning [`SessionEntry`]'s `backend`/`slot`.
struct DistState {
    /// Number of worker partitions; process `p` belongs to
    /// [`owner`]`(p, k)`.
    k: usize,
    /// Per-partition placement, `(backend, slot)`.
    workers: Vec<(usize, usize)>,
    /// Next seq to stamp. Every event (batched or not), finish, and
    /// the final close consume exactly one, in client-frame order —
    /// so a failover replay over the journal recomputes the identical
    /// assignment.
    next_seq: u64,
}

/// One routed session.
struct SessionEntry {
    name: String,
    backend: usize,
    slot: usize,
    sink: Sender<ServerMsg>,
    journal: SessionJournal,
    /// Predicates whose verdict was already forwarded to the client —
    /// the failover dedup set.
    settled: BTreeSet<String>,
    opened_sent: bool,
    closed_sent: bool,
    /// `Some` when the session is distributed across backends.
    dist: Option<DistState>,
}

enum KeeperMsg {
    BackendLost(usize),
    Stop,
}

struct Inner {
    config: GatewayConfig,
    backends: Vec<Backend>,
    sessions: Mutex<HashMap<String, Arc<Mutex<SessionEntry>>>>,
    metrics: Arc<GatewayMetrics>,
    keeper_tx: Sender<KeeperMsg>,
    stop: AtomicBool,
    /// Monotonic clock base for `Health::Down::next_probe_ms`.
    epoch: Instant,
    /// The writers of the client connections `serve` stopped serving.
    writers: Mutex<Vec<dial::Writers>>,
}

/// The running gateway: routing state plus the keeper thread.
pub struct GatewayService {
    inner: Arc<Inner>,
    keeper: Option<JoinHandle<()>>,
}

// Lock-order discipline (deadlock freedom): the sessions map lock is
// never held while acquiring an entry lock or sending to a backend;
// an entry lock MAY be held while taking the map lock (drop path) or
// while blocking on a bounded pipeline (the backpressure stall), whose
// drain never needs any gateway lock.

fn slot_of(session: &str, pool: usize) -> usize {
    (rendezvous::weight("slot", session) % pool.max(1) as u64) as usize
}

impl GatewayService {
    /// Validates the configuration and starts the keeper. Backends are
    /// assumed healthy until a dial fails — pools are filled lazily.
    pub fn start(mut config: GatewayConfig) -> Result<GatewayService, String> {
        if config.backends.is_empty() {
            return Err("gateway needs at least one --backend address".into());
        }
        config.backends.dedup();
        let mut seen = BTreeSet::new();
        for addr in &config.backends {
            if !seen.insert(addr.clone()) {
                return Err(format!("duplicate backend address '{addr}'"));
            }
        }
        config.pool_size = config.pool_size.max(1);
        config.pipeline_depth = config.pipeline_depth.max(1);
        let metrics = Arc::new(GatewayMetrics::new());
        metrics
            .backends_healthy
            .store(config.backends.len() as u64, Relaxed);
        let backends = config
            .backends
            .iter()
            .map(|addr| Backend {
                addr: addr.clone(),
                health: Mutex::new(Health::Healthy),
                slots: (0..config.pool_size).map(|_| Mutex::new(None)).collect(),
                generation: AtomicU64::new(0),
            })
            .collect();
        let (keeper_tx, keeper_rx) = unbounded();
        let inner = Arc::new(Inner {
            config,
            backends,
            sessions: Mutex::new(HashMap::new()),
            metrics,
            keeper_tx,
            stop: AtomicBool::new(false),
            epoch: Instant::now(),
            writers: Mutex::new(Vec::new()),
        });
        let keeper = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("hb-gateway-keeper".into())
                .spawn(move || keeper_loop(&inner, &keeper_rx))
                .expect("spawn keeper thread")
        };
        Ok(GatewayService {
            inner,
            keeper: Some(keeper),
        })
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> GatewaySnapshot {
        self.inner.metrics.snapshot()
    }

    /// The aggregated stats map: gateway counters plus every healthy
    /// backend's counters summed key-wise (what the wire `stats`
    /// request answers with).
    pub fn aggregated_stats(&self) -> BTreeMap<String, u64> {
        aggregate_stats(&self.inner)
    }

    /// Serves the wire protocol until a client sends `shutdown`, on
    /// the connection driver `hb_monitor::service::serve` also runs.
    /// Returns with the connections' writers still running, for
    /// [`GatewayService::shutdown`] to join.
    pub fn serve(&self, listener: TcpListener) -> std::io::Result<()> {
        let writers = dial::accept_loop(listener, Clients(Arc::clone(&self.inner)))?;
        self.inner.writers.lock().push(writers);
        Ok(())
    }

    /// Stops the keeper, tears down every backend connection, and
    /// forgets the routed sessions, whose sinks held their clients'
    /// writers; then joins those writers. The sessions live on at the
    /// backends — stopping those is the operator's call, not the
    /// gateway's.
    pub fn shutdown(mut self) -> GatewaySnapshot {
        self.inner.stop.store(true, Relaxed);
        let _ = self.inner.keeper_tx.send(KeeperMsg::Stop);
        if let Some(k) = self.keeper.take() {
            let _ = k.join();
        }
        for b in 0..self.inner.backends.len() {
            kill_conns(&self.inner, b);
        }
        self.inner.sessions.lock().clear();
        let writers = std::mem::take(&mut *self.inner.writers.lock());
        for w in writers {
            w.join();
        }
        self.inner.metrics.snapshot()
    }
}

// ---- placement and forwarding ---------------------------------------------

fn pick_backend(inner: &Inner, session: &str) -> Option<usize> {
    rendezvous::pick(
        inner
            .backends
            .iter()
            .enumerate()
            .filter(|(_, b)| *b.health.lock() == Health::Healthy)
            .map(|(i, b)| (i, b.addr.as_str())),
        session,
    )
}

/// Every healthy backend ranked by rendezvous weight for `session`,
/// best first. A distributed open places the aggregator on rank 0 and
/// wraps the worker partitions over the rest, so partitions spread as
/// widely as the fleet allows while staying deterministic (every
/// gateway replica computes the same layout).
fn rank_backends(inner: &Inner, session: &str) -> Vec<usize> {
    let mut ranked: Vec<(u64, usize)> = inner
        .backends
        .iter()
        .enumerate()
        .filter(|(_, b)| *b.health.lock() == Health::Healthy)
        .map(|(i, b)| (rendezvous::weight(&b.addr, session), i))
        .collect();
    ranked.sort_by_key(|&(w, i)| (std::cmp::Reverse(w), i));
    ranked.into_iter().map(|(_, i)| i).collect()
}

/// Returns a sender for backend `b`'s pool slot, dialing on demand.
fn ensure_conn(inner: &Arc<Inner>, b: usize, slot: usize) -> Result<Sender<ClientMsg>, String> {
    let backend = &inner.backends[b];
    let mut guard = backend.slots[slot].lock();
    if let Some(conn) = guard.as_ref() {
        return Ok(conn.tx.clone());
    }
    inner.metrics.backend_dials.fetch_add(1, Relaxed);
    let dialed = match dial::dial(&backend.addr, &inner.config.dial_retry) {
        Ok(d) => d,
        Err(e) => {
            inner.metrics.backend_dial_failures.fetch_add(1, Relaxed);
            return Err(e);
        }
    };
    let generation = backend.generation.fetch_add(1, Relaxed) + 1;
    let (tx, rx) = bounded::<ClientMsg>(inner.config.pipeline_depth);
    {
        let mut writer = dialed.writer;
        std::thread::Builder::new()
            .name(format!("hb-gateway-b{b}s{slot}-w"))
            .spawn(move || {
                for msg in rx.iter() {
                    if wire::write_frame(&mut writer, &msg).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn pool writer");
    }
    {
        let inner = Arc::clone(inner);
        let mut reader = dialed.reader;
        std::thread::Builder::new()
            .name(format!("hb-gateway-b{b}s{slot}-r"))
            .spawn(move || {
                while let Ok(Some(msg)) = wire::read_frame::<_, ServerMsg>(&mut reader) {
                    dispatch(&inner, msg);
                }
                on_conn_down(&inner, b, slot, generation);
            })
            .expect("spawn pool reader");
    }
    *guard = Some(Conn {
        tx: tx.clone(),
        stream: dialed.stream,
        generation,
    });
    Ok(tx)
}

/// Clears a pool slot and shuts its socket down (idempotent).
fn clear_slot(inner: &Inner, b: usize, slot: usize) {
    let mut guard = inner.backends[b].slots[slot].lock();
    if let Some(conn) = guard.take() {
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}

fn kill_conns(inner: &Inner, b: usize) {
    for slot in 0..inner.backends[b].slots.len() {
        clear_slot(inner, b, slot);
    }
}

/// Sends one frame down a pool pipeline; `try_send` first so a full
/// pipeline is *counted* as a backpressure stall before blocking.
fn send_to_backend(
    inner: &Arc<Inner>,
    b: usize,
    slot: usize,
    frame: ClientMsg,
) -> Result<(), String> {
    let tx = ensure_conn(inner, b, slot)?;
    match tx.try_send(frame) {
        Ok(()) => Ok(()),
        Err(TrySendError::Full(frame)) => {
            inner.metrics.backpressure_stalls.fetch_add(1, Relaxed);
            tx.send(frame)
                .map_err(|_| "backend connection closed".to_string())
        }
        Err(TrySendError::Disconnected(_)) => {
            clear_slot(inner, b, slot);
            Err("backend connection closed".to_string())
        }
    }
}

/// Marks backend `b` failed exactly once; returns whether this call won
/// the race (and therefore owns pool teardown + keeper notification).
fn report_backend_down(inner: &Arc<Inner>, b: usize) {
    let newly_down = {
        let mut h = inner.backends[b].health.lock();
        match *h {
            Health::Healthy => {
                *h = Health::Down {
                    failures: 0,
                    next_probe_ms: now_ms(inner) + inner.config.probe_initial.as_millis() as u64,
                };
                inner.metrics.backends_healthy.fetch_sub(1, Relaxed);
                true
            }
            // A draining backend that dies is simply gone: its sessions
            // fail over and the drain completes trivially.
            Health::Draining => {
                *h = Health::Removed;
                true
            }
            Health::Down { .. } | Health::Removed => false,
        }
    };
    if newly_down {
        inner.metrics.backend_failures.fetch_add(1, Relaxed);
        kill_conns(inner, b);
        let _ = inner.keeper_tx.send(KeeperMsg::BackendLost(b));
    }
}

fn now_ms(inner: &Inner) -> u64 {
    inner.epoch.elapsed().as_millis() as u64
}

fn on_conn_down(inner: &Arc<Inner>, b: usize, slot: usize, generation: u64) {
    {
        let mut guard = inner.backends[b].slots[slot].lock();
        if let Some(conn) = guard.as_ref() {
            if conn.generation == generation {
                let _ = conn.stream.shutdown(Shutdown::Both);
                *guard = None;
            }
        }
    }
    if inner.stop.load(Relaxed) {
        return; // gateway teardown closes conns on purpose
    }
    report_backend_down(inner, b);
}

/// Journals one frame with gauge accounting.
fn journal_frame(inner: &Inner, e: &mut SessionEntry, frame: ClientMsg) {
    let before = e.journal.len() as u64;
    let was_overflowed = e.journal.overflowed();
    if e.journal.push(frame) {
        inner.metrics.journal_frames.fetch_add(1, Relaxed);
    } else if !was_overflowed {
        inner.metrics.journal_overflows.fetch_add(1, Relaxed);
        inner.metrics.journal_frames.fetch_sub(before, Relaxed);
    }
}

/// Journals and forwards one client frame; a dead backend triggers
/// failover with journal replay. Caller holds the entry lock.
fn forward_frame(inner: &Arc<Inner>, e: &mut SessionEntry, frame: ClientMsg) {
    journal_frame(inner, e, frame.clone());
    match send_to_backend(inner, e.backend, e.slot, frame) {
        Ok(()) => {
            inner.metrics.frames_forwarded.fetch_add(1, Relaxed);
        }
        Err(_) => {
            report_backend_down(inner, e.backend);
            reroute_session(inner, e);
        }
    }
}

/// Which member of a distributed session's partition a frame is for.
#[derive(Clone, Copy, PartialEq)]
enum Target {
    Aggregator,
    Worker(usize),
}

/// The frames one client frame of the `k`-way distributed session
/// `name` becomes, in sending order — the one statement of the
/// partition rule, read by the live fan-out and by failover replay.
/// The open becomes the role-decorated opens; an event becomes a
/// seq-stamped `dist-event` for its owner worker; a finish and the
/// close become sequenced updates for the aggregator, the close
/// reaching the workers first so their stranded holds flush before it
/// lands (the aggregator's seq reorder absorbs any transport race).
/// Every event (batched or not), finish, and the close consume exactly
/// one seq from `next_seq`, in client-frame order.
fn partition_frames(
    frame: &ClientMsg,
    next_seq: &mut u64,
    k: usize,
    name: &str,
) -> Vec<(Target, ClientMsg)> {
    let mut stamp = || {
        *next_seq += 1;
        *next_seq - 1
    };
    let to_owner = |seq: u64, event: EventFrame| {
        let w = owner(event.p, k);
        let session = worker_session(name, w);
        let frame = ClientMsg::DistEvent {
            session,
            seq,
            event,
        };
        (Target::Worker(w), frame)
    };
    let to_aggregator = |seq: u64, update: SliceUpdateBody| {
        let session = name.to_string();
        let frame = ClientMsg::SliceUpdate {
            session,
            seq,
            update,
        };
        (Target::Aggregator, frame)
    };
    match frame {
        ClientMsg::Open {
            processes,
            vars,
            initial,
            predicates,
            ..
        } => {
            let open = |session: String, role: WireDistRole| ClientMsg::Open {
                session,
                processes: *processes,
                vars: vars.clone(),
                initial: initial.clone(),
                predicates: predicates.clone(),
                dist: Some(role),
            };
            let mut out = vec![(
                Target::Aggregator,
                open(name.to_string(), WireDistRole::Aggregator { k }),
            )];
            out.extend((0..k).map(|worker| {
                let role = WireDistRole::Worker {
                    origin: name.to_string(),
                    worker,
                    k,
                };
                (
                    Target::Worker(worker),
                    open(worker_session(name, worker), role),
                )
            }));
            out
        }
        ClientMsg::Event { p, clock, set, .. } => {
            let event = EventFrame {
                p: *p,
                clock: clock.clone(),
                set: set.clone(),
            };
            vec![to_owner(stamp(), event)]
        }
        ClientMsg::Events { events, .. } => events
            .iter()
            .map(|ev| to_owner(stamp(), ev.clone()))
            .collect(),
        ClientMsg::FinishProcess { p, .. } => {
            vec![to_aggregator(stamp(), SliceUpdateBody::Finish { p: *p })]
        }
        ClientMsg::Close { .. } => {
            let mut out: Vec<_> = (0..k)
                .map(|w| {
                    let session = worker_session(name, w);
                    (Target::Worker(w), ClientMsg::Close { session })
                })
                .collect();
            out.push(to_aggregator(stamp(), SliceUpdateBody::Close));
            out
        }
        _ => Vec::new(),
    }
}

/// Journals one client frame of a *distributed* session — its open
/// included — and sends what [`partition_frames`] makes of it. The
/// journal records the client's own frame; the derived ones are
/// recomputed at replay time. Caller holds the entry lock.
fn forward_dist_frame(inner: &Arc<Inner>, e: &mut SessionEntry, frame: ClientMsg) {
    let dist = e.dist.as_mut().expect("caller checked dist");
    let frames = partition_frames(&frame, &mut dist.next_seq, dist.k, &e.name);
    journal_frame(inner, e, frame);
    if send_partition_frames(inner, e, frames) {
        inner.metrics.frames_forwarded.fetch_add(1, Relaxed);
    }
}

/// Sends partition frames in order until the session is gone; says
/// whether it survived. A dead worker backend triggers partition
/// failover — the replay re-derives the frame from the journal (it was
/// journaled before the fan-out), so nothing is lost; a dead aggregator
/// backend drops the session. Caller holds the entry lock.
fn send_partition_frames(
    inner: &Arc<Inner>,
    e: &mut SessionEntry,
    frames: Vec<(Target, ClientMsg)>,
) -> bool {
    for (target, frame) in frames {
        if e.closed_sent {
            return false;
        }
        match target {
            Target::Worker(w) => {
                let (b, slot) = e.dist.as_ref().expect("caller checked dist").workers[w];
                if send_to_backend(inner, b, slot, frame).is_err() {
                    report_backend_down(inner, b);
                    reroute_partition(inner, e, w);
                }
            }
            Target::Aggregator => {
                if send_to_backend(inner, e.backend, e.slot, frame).is_err() {
                    report_backend_down(inner, e.backend);
                    reroute_session(inner, e); // dist → aggregator death → drop
                }
            }
        }
    }
    !e.closed_sent
}

/// Rebuilds the frame stream worker partition `w` must see — its
/// worker open plus its share of the events — from the journaled
/// *client* frames, with the original seqs recomputed: seq assignment
/// is deterministic in journal order, so the stream matches what the
/// lost backend saw; the aggregator's seq watermark silently absorbs
/// the re-emitted observations it has already applied. (Finishes and
/// the close consume a seq but travel to the aggregator, which never
/// died, or we would not be here.)
fn re_derive_partition(e: &SessionEntry, w: usize) -> Vec<ClientMsg> {
    let k = e.dist.as_ref().expect("caller checked dist").k;
    let mut seq = 0u64;
    e.journal
        .frames()
        .iter()
        .flat_map(|frame| partition_frames(frame, &mut seq, k, &e.name))
        .filter(|(target, _)| *target == Target::Worker(w))
        .map(|(_, frame)| frame)
        .collect()
}

/// Re-places one worker partition on a healthy backend and replays
/// its re-derived stream. Caller holds the entry lock.
fn reroute_partition(inner: &Arc<Inner>, e: &mut SessionEntry, w: usize) {
    if e.closed_sent {
        return;
    }
    if e.journal.overflowed() {
        drop_session(
            inner,
            e,
            format!(
                "backend lost and the journal for distributed session '{}' \
                 overflowed its {}-frame bound; worker partition {w} cannot \
                 be re-derived",
                e.name, inner.config.journal_limit
            ),
        );
        return;
    }
    let (dname, frames) = (worker_session(&e.name, w), re_derive_partition(e, w));
    let what = format!("worker partition {w} of session '{}'", e.name);
    replay_elsewhere(inner, e, &dname, frames, &what, |e, placed| {
        e.dist.as_mut().expect("caller checked dist").workers[w] = placed;
        inner.metrics.partitions_failed_over.fetch_add(1, Relaxed);
    });
}

/// The failover loop both reroutes share: places the replay target
/// `name` (a session, or a worker partition's decorated name) on the
/// best healthy backend by rendezvous and sends it `frames` in order. A
/// backend that fails mid-replay is reported down and the next one
/// tried; on success `placed` records the new `(backend, slot)`. When
/// no backend takes the replay, the session is dropped naming `what`.
/// Caller holds the entry lock.
fn replay_elsewhere(
    inner: &Arc<Inner>,
    e: &mut SessionEntry,
    name: &str,
    frames: Vec<ClientMsg>,
    what: &str,
    placed: impl FnOnce(&mut SessionEntry, (usize, usize)),
) {
    for _ in 0..inner.backends.len() {
        let Some(b) = pick_backend(inner, name) else {
            break;
        };
        let slot = slot_of(name, inner.config.pool_size);
        if frames
            .iter()
            .all(|frame| send_to_backend(inner, b, slot, frame.clone()).is_ok())
        {
            let count = frames.len() as u64;
            inner.metrics.frames_replayed.fetch_add(count, Relaxed);
            placed(e, (b, slot));
            return;
        }
        report_backend_down(inner, b);
    }
    let message = format!("no healthy backend available to fail {what} over to");
    drop_session(inner, e, message);
}

/// Removes a session with a client-visible explanation and a synthetic
/// `Closed` so waiting clients unblock. Caller holds the entry lock.
fn drop_session(inner: &Arc<Inner>, e: &mut SessionEntry, message: String) {
    if e.closed_sent {
        return;
    }
    e.closed_sent = true;
    // Best-effort closes for a distributed session's surviving slots:
    // without them the worker and aggregator sessions would linger in
    // their backends' memory until those drain.
    if let Some(dist) = e.dist.take() {
        for (w, &(b, slot)) in dist.workers.iter().enumerate() {
            let _ = send_to_backend(
                inner,
                b,
                slot,
                ClientMsg::Close {
                    session: worker_session(&e.name, w),
                },
            );
        }
        let _ = send_to_backend(
            inner,
            e.backend,
            e.slot,
            ClientMsg::SliceUpdate {
                session: e.name.clone(),
                seq: dist.next_seq,
                update: SliceUpdateBody::Close,
            },
        );
    }
    inner.metrics.sessions_dropped.fetch_add(1, Relaxed);
    inner.metrics.sessions_active.fetch_sub(1, Relaxed);
    inner
        .metrics
        .journal_frames
        .fetch_sub(e.journal.len() as u64, Relaxed);
    let _ = e.sink.send(ServerMsg::Error {
        session: Some(e.name.clone()),
        kind: None,
        message,
    });
    let _ = e.sink.send(ServerMsg::Closed {
        session: e.name.clone(),
        discarded: 0,
    });
    inner.sessions.lock().remove(&e.name);
}

/// Re-places one session on a healthy backend and replays its journal.
/// Caller holds the entry lock.
fn reroute_session(inner: &Arc<Inner>, e: &mut SessionEntry) {
    if e.closed_sent {
        return;
    }
    if e.dist.is_some() {
        // The aggregator holds the only copy of the merged slice
        // frontier; re-deriving it would mean replaying every
        // partition from scratch on fresh backends. Chauhan–Garg
        // restart the whole run in this case too — drop loudly.
        drop_session(
            inner,
            e,
            format!(
                "backend holding the aggregator for distributed session \
                 '{}' was lost; aggregators do not fail over",
                e.name
            ),
        );
        return;
    }
    if e.journal.overflowed() {
        drop_session(
            inner,
            e,
            format!(
                "backend lost and the journal for session '{}' overflowed \
                 its {}-frame bound; the session cannot be replayed",
                e.name, inner.config.journal_limit
            ),
        );
        return;
    }
    let (name, frames) = (e.name.clone(), e.journal.frames().to_vec());
    let what = format!("session '{name}'");
    replay_elsewhere(inner, e, &name, frames, &what, |e, placed| {
        (e.backend, e.slot) = placed;
        inner.metrics.sessions_failed_over.fetch_add(1, Relaxed);
    });
}

// ---- backend → client dispatch --------------------------------------------

fn entry_of(inner: &Inner, session: &str) -> Option<Arc<Mutex<SessionEntry>>> {
    inner.sessions.lock().get(session).cloned()
}

/// Routes one backend message to the owning client, deduplicating what
/// a failover replay would otherwise repeat (`Opened`, settled
/// verdicts, `Closed`).
fn dispatch(inner: &Arc<Inner>, msg: ServerMsg) {
    match msg {
        ServerMsg::Opened { session } => {
            if let Some(arc) = entry_of(inner, &session) {
                let mut e = arc.lock();
                if !e.opened_sent {
                    e.opened_sent = true;
                    let _ = e.sink.send(ServerMsg::Opened { session });
                }
            }
        }
        ServerMsg::Verdict {
            session,
            predicate,
            verdict,
        } => {
            if let Some(arc) = entry_of(inner, &session) {
                let mut e = arc.lock();
                if e.settled.contains(&predicate) {
                    inner.metrics.verdicts_deduped.fetch_add(1, Relaxed);
                } else {
                    e.settled.insert(predicate.clone());
                    inner.metrics.verdicts_forwarded.fetch_add(1, Relaxed);
                    let _ = e.sink.send(ServerMsg::Verdict {
                        session,
                        predicate,
                        verdict,
                    });
                }
            }
        }
        ServerMsg::Closed { session, discarded } => {
            let removed = inner.sessions.lock().remove(&session);
            if let Some(arc) = removed {
                let mut e = arc.lock();
                if !e.closed_sent {
                    e.closed_sent = true;
                    inner.metrics.sessions_active.fetch_sub(1, Relaxed);
                    inner
                        .metrics
                        .journal_frames
                        .fetch_sub(e.journal.len() as u64, Relaxed);
                    let _ = e.sink.send(ServerMsg::Closed { session, discarded });
                }
            }
        }
        ServerMsg::Error {
            session: Some(session),
            kind,
            message,
        } => {
            // Errors are forwarded, not deduplicated: a replay that
            // re-triggers one (e.g. a duplicate event the client really
            // sent) repeats it, which is honest. The backend's kind
            // classification rides along untouched.
            if let Some(arc) = entry_of(inner, &session) {
                let e = arc.lock();
                let _ = e.sink.send(ServerMsg::Error {
                    session: Some(session),
                    kind,
                    message,
                });
            }
        }
        // A worker's slice observation, addressed to the origin
        // session: relay to the aggregator with the same seq and body.
        // Updates are *not* journaled — a partition failover re-derives
        // them from the journaled client frames instead.
        ServerMsg::SliceUpdate {
            session,
            seq,
            update,
        } => {
            if let Some(arc) = entry_of(inner, &session) {
                let mut e = arc.lock();
                if e.closed_sent || e.dist.is_none() {
                    return;
                }
                inner.metrics.dist_updates_relayed.fetch_add(1, Relaxed);
                let frame = ClientMsg::SliceUpdate {
                    session,
                    seq,
                    update,
                };
                send_partition_frames(inner, &mut e, vec![(Target::Aggregator, frame)]);
            }
        }
        // Not session-routable: handshake echoes, stats replies on a
        // pooled connection, goodbye frames.
        ServerMsg::Error { session: None, .. }
        | ServerMsg::Welcome { .. }
        | ServerMsg::Drained { .. }
        | ServerMsg::Stats { .. }
        | ServerMsg::Bye => {}
    }
}

// ---- the keeper -----------------------------------------------------------

/// Background maintenance: failover of idle sessions on lost backends,
/// health probes with backoff, and the optional periodic stats line.
fn keeper_loop(inner: &Arc<Inner>, rx: &Receiver<KeeperMsg>) {
    let mut last_stats = Instant::now();
    loop {
        match rx.recv_timeout(Duration::from_millis(10)) {
            Ok(KeeperMsg::BackendLost(b)) => failover_backend_sessions(inner, b),
            Ok(KeeperMsg::Stop) => return,
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
        }
        if inner.stop.load(Relaxed) {
            return;
        }
        probe_down_backends(inner);
        if let Some(period) = inner.config.stats_interval {
            if last_stats.elapsed() >= period {
                last_stats = Instant::now();
                eprintln!("hb-gateway: {}", inner.metrics.snapshot());
            }
        }
    }
}

/// Moves every session still placed on a lost backend — plain sessions
/// and distributed aggregators by their entry placement, worker
/// partitions by their own. Sessions whose client threads already
/// rerouted them are skipped (their backend index moved on).
fn failover_backend_sessions(inner: &Arc<Inner>, b: usize) {
    let entries: Vec<Arc<Mutex<SessionEntry>>> = {
        let map = inner.sessions.lock();
        map.values().cloned().collect()
    };
    for arc in entries {
        let mut e = arc.lock();
        if e.closed_sent {
            continue;
        }
        if e.backend == b {
            reroute_session(inner, &mut e);
            continue;
        }
        let partitions: Vec<usize> = e
            .dist
            .as_ref()
            .map(|d| {
                d.workers
                    .iter()
                    .enumerate()
                    .filter(|&(_, &(wb, _))| wb == b)
                    .map(|(w, _)| w)
                    .collect()
            })
            .unwrap_or_default();
        for w in partitions {
            reroute_partition(inner, &mut e, w);
        }
    }
}

/// Probes every down backend whose backoff has elapsed; a completed
/// handshake restores eligibility.
fn probe_down_backends(inner: &Arc<Inner>) {
    let probe_policy = RetryPolicy {
        attempts: 1,
        ..RetryPolicy::default()
    };
    for backend in &inner.backends {
        let due = {
            let h = backend.health.lock();
            match *h {
                Health::Down { next_probe_ms, .. } => next_probe_ms <= now_ms(inner),
                _ => false,
            }
        };
        if !due {
            continue;
        }
        inner.metrics.probes_sent.fetch_add(1, Relaxed);
        let alive = dial::dial(&backend.addr, &probe_policy).is_ok();
        let mut h = backend.health.lock();
        if let Health::Down { failures, .. } = *h {
            if alive {
                *h = Health::Healthy;
                inner.metrics.backends_healthy.fetch_add(1, Relaxed);
                eprintln!("hb-gateway: backend {} is healthy again", backend.addr);
            } else {
                let failures = failures.saturating_add(1);
                let backoff = inner
                    .config
                    .probe_initial
                    .saturating_mul(1u32 << failures.min(16))
                    .min(inner.config.probe_cap);
                *h = Health::Down {
                    failures,
                    next_probe_ms: now_ms(inner) + backoff.as_millis() as u64,
                };
            }
        }
    }
}

// ---- stats aggregation and drain ------------------------------------------

/// One short-lived stats exchange with a backend.
fn fetch_backend_stats(addr: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut dialed = dial::dial(
        addr,
        &RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        },
    )?;
    dialed
        .stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| e.to_string())?;
    wire::write_frame(&mut dialed.writer, &ClientMsg::Stats).map_err(|e| e.to_string())?;
    match wire::read_frame::<_, ServerMsg>(&mut dialed.reader) {
        Ok(Some(ServerMsg::Stats { counters })) => Ok(counters),
        other => Err(format!("unexpected stats reply from {addr}: {other:?}")),
    }
}

/// Gateway counters plus every reachable backend's counters, summed.
fn aggregate_stats(inner: &Arc<Inner>) -> BTreeMap<String, u64> {
    inner.metrics.stats_fanouts.fetch_add(1, Relaxed);
    let mut merged = inner.metrics.snapshot().to_map();
    let mut total = 0u64;
    let mut reporting = 0u64;
    for backend in &inner.backends {
        let health = *backend.health.lock();
        if health == Health::Removed {
            continue;
        }
        total += 1;
        if matches!(health, Health::Down { .. }) {
            continue;
        }
        if let Ok(counters) = fetch_backend_stats(&backend.addr) {
            reporting += 1;
            for (k, v) in counters {
                *merged.entry(k).or_insert(0) += v;
            }
        }
    }
    merged.insert("gateway_backends_total".into(), total);
    merged.insert("gateway_backends_reporting".into(), reporting);
    // Distributed-session topology: which backend (by index) holds the
    // aggregator and each worker partition. Operators correlate the
    // indices with `gateway_backends_total` order; the dist e2e uses
    // them to find which process to SIGKILL.
    let entries: Vec<Arc<Mutex<SessionEntry>>> = inner.sessions.lock().values().cloned().collect();
    for arc in entries {
        let e = arc.lock();
        let Some(dist) = e.dist.as_ref() else {
            continue;
        };
        if e.closed_sent {
            continue;
        }
        merged.insert(format!("dist.{}.k", e.name), dist.k as u64);
        merged.insert(format!("dist.{}.aggregator", e.name), e.backend as u64);
        for (w, &(b, _)) in dist.workers.iter().enumerate() {
            merged.insert(format!("dist.{}.w{w}", e.name), b as u64);
        }
    }
    merged
}

fn count_sessions_on(inner: &Inner, b: usize) -> u64 {
    let entries: Vec<Arc<Mutex<SessionEntry>>> = inner.sessions.lock().values().cloned().collect();
    entries
        .into_iter()
        .filter(|arc| {
            let e = arc.lock();
            let holds_partition = e
                .dist
                .as_ref()
                .is_some_and(|d| d.workers.iter().any(|&(wb, _)| wb == b));
            (e.backend == b || holds_partition) && !e.closed_sent
        })
        .count() as u64
}

/// The drain state machine: `Healthy → Draining`, wait for the live
/// session count to reach zero, then `→ Removed`. Blocks the calling
/// (client connection) thread; progress is visible in the stats.
fn drain_backend(inner: &Arc<Inner>, addr: &str) -> Result<u64, String> {
    let b = inner
        .backends
        .iter()
        .position(|x| x.addr == addr && *x.health.lock() != Health::Removed)
        .ok_or_else(|| format!("unknown or already removed backend '{addr}'"))?;
    inner.metrics.drains_started.fetch_add(1, Relaxed);
    {
        let mut h = inner.backends[b].health.lock();
        match *h {
            Health::Healthy => {
                *h = Health::Draining;
                inner.metrics.backends_healthy.fetch_sub(1, Relaxed);
            }
            // A down backend holds no reachable sessions; the keeper is
            // already failing them over. Draining just waits that out.
            Health::Down { .. } => *h = Health::Draining,
            Health::Draining => {}
            Health::Removed => unreachable!("filtered above"),
        }
    }
    let live = count_sessions_on(inner, b);
    loop {
        if count_sessions_on(inner, b) == 0 {
            break;
        }
        if inner.stop.load(Relaxed) {
            return Err("gateway is shutting down".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    {
        let mut h = inner.backends[b].health.lock();
        *h = Health::Removed;
    }
    kill_conns(inner, b);
    inner.metrics.drains_completed.fetch_add(1, Relaxed);
    Ok(live)
}

// ---- the client-facing transport ------------------------------------------

/// The gateway's side of the connection driver: what a client's frame
/// does, and the `clients_*` gauges.
struct Clients(Arc<Inner>);

impl dial::Service for Clients {
    fn frame(&self, body: Vec<u8>, sink: &Sender<ServerMsg>) -> Result<bool, TraceError> {
        let msg: ClientMsg = wire::decode_body(&body)?;
        let shutdown = matches!(msg, ClientMsg::Shutdown);
        handle_client_msg(&self.0, msg, sink);
        if shutdown {
            self.0.stop.store(true, Relaxed);
        }
        Ok(shutdown)
    }

    fn refused(&self) {
        self.0.metrics.protocol_errors.fetch_add(1, Relaxed);
    }

    /// A disconnect leaves the client's routed sessions in place.
    fn connected(&self, open: bool) {
        let m = &self.0.metrics;
        if open {
            m.clients_total.fetch_add(1, Relaxed);
            m.clients_connected.fetch_add(1, Relaxed);
        } else {
            m.clients_connected.fetch_sub(1, Relaxed);
        }
    }
}

fn client_error(
    inner: &Inner,
    sink: &Sender<ServerMsg>,
    session: Option<String>,
    kind: Option<&str>,
    message: String,
) {
    inner.metrics.protocol_errors.fetch_add(1, Relaxed);
    let _ = sink.send(ServerMsg::Error {
        session,
        kind: kind.map(str::to_string),
        message,
    });
}

/// Claims `name` in the session map; answers `already-open` and
/// returns `false` when another session holds it.
fn register_session(
    inner: &Arc<Inner>,
    sink: &Sender<ServerMsg>,
    name: &str,
    entry: &Arc<Mutex<SessionEntry>>,
) -> bool {
    let mut map = inner.sessions.lock();
    if map.contains_key(name) {
        drop(map);
        client_error(
            inner,
            sink,
            Some(name.to_string()),
            Some(wire::error_kind::ALREADY_OPEN),
            format!("session '{name}' already open at the gateway"),
        );
        return false;
    }
    map.insert(name.to_string(), Arc::clone(entry));
    true
}

/// Opens one distributed session: places the aggregator and the K
/// worker partitions over the healthy backends by rendezvous rank,
/// dials every involved backend, and fans the client's open out like
/// any other frame of the session.
fn open_distributed(inner: &Arc<Inner>, sink: &Sender<ServerMsg>, msg: ClientMsg, k: usize) {
    let ClientMsg::Open { session: name, .. } = &msg else {
        unreachable!("caller matched an open");
    };
    let name = name.clone();
    if k == 0 {
        client_error(
            inner,
            sink,
            Some(name),
            None,
            "bad open: a distributed session needs at least one worker partition".into(),
        );
        return;
    }
    let ranked = rank_backends(inner, &name);
    if ranked.is_empty() {
        client_error(
            inner,
            sink,
            Some(name),
            None,
            "no healthy backend to place the session on".into(),
        );
        return;
    }
    let agg_placement = (ranked[0], slot_of(&name, inner.config.pool_size));
    let workers: Vec<(usize, usize)> = (0..k)
        .map(|w| {
            let dname = worker_session(&name, w);
            (
                ranked[(w + 1) % ranked.len()],
                slot_of(&dname, inner.config.pool_size),
            )
        })
        .collect();
    // Fail fast on an unreachable backend, before any state is created.
    for &(b, slot) in std::iter::once(&agg_placement).chain(workers.iter()) {
        if let Err(e) = ensure_conn(inner, b, slot) {
            report_backend_down(inner, b);
            client_error(
                inner,
                sink,
                Some(name.clone()),
                None,
                format!(
                    "could not reach backend {} to open the distributed \
                     session: {e}",
                    inner.backends[b].addr
                ),
            );
            return;
        }
    }
    let entry = Arc::new(Mutex::new(SessionEntry {
        name: name.clone(),
        backend: agg_placement.0,
        slot: agg_placement.1,
        sink: sink.clone(),
        journal: SessionJournal::new(inner.config.journal_limit),
        settled: BTreeSet::new(),
        opened_sent: false,
        closed_sent: false,
        dist: Some(DistState {
            k,
            workers,
            next_seq: 0,
        }),
    }));
    if !register_session(inner, sink, &name, &entry) {
        return;
    }
    inner.metrics.sessions_routed.fetch_add(1, Relaxed);
    inner.metrics.sessions_active.fetch_add(1, Relaxed);
    inner.metrics.dist_sessions_routed.fetch_add(1, Relaxed);
    forward_dist_frame(inner, &mut entry.lock(), msg);
}

/// The gateway's frame handler — the routing counterpart of
/// `MonitorHandle::submit`.
fn handle_client_msg(inner: &Arc<Inner>, msg: ClientMsg, sink: &Sender<ServerMsg>) {
    match msg {
        ClientMsg::Hello { version } => match wire::check_version(version) {
            Ok(()) => {
                let _ = sink.send(ServerMsg::Welcome {
                    version: wire::WIRE_VERSION,
                });
            }
            Err(message) => client_error(inner, sink, None, None, message),
        },
        ClientMsg::Stats => {
            let _ = sink.send(ServerMsg::Stats {
                counters: aggregate_stats(inner),
            });
        }
        ClientMsg::Drain { backend } => match drain_backend(inner, &backend) {
            Ok(sessions) => {
                let _ = sink.send(ServerMsg::Drained { backend, sessions });
            }
            Err(message) => client_error(inner, sink, None, None, message),
        },
        ClientMsg::Shutdown => {
            let _ = sink.send(ServerMsg::Bye);
        }
        ClientMsg::Open {
            ref session,
            ref dist,
            ..
        } => {
            let name = session.clone();
            match dist.clone() {
                // Worker and aggregator roles are what the gateway
                // *assigns*; accepting one from a client would let it
                // impersonate part of another session's topology.
                Some(WireDistRole::Worker { .. }) | Some(WireDistRole::Aggregator { .. }) => {
                    client_error(
                        inner,
                        sink,
                        Some(name),
                        Some(wire::error_kind::UNSUPPORTED_DISTRIBUTION),
                        "worker and aggregator roles are gateway-assigned; \
                         open with the 'distribute' role"
                            .into(),
                    );
                }
                Some(WireDistRole::Distribute { k }) => {
                    open_distributed(inner, sink, msg, k);
                }
                None => {
                    let Some(b) = pick_backend(inner, &name) else {
                        client_error(
                            inner,
                            sink,
                            Some(name),
                            None,
                            "no healthy backend to place the session on".into(),
                        );
                        return;
                    };
                    let entry = Arc::new(Mutex::new(SessionEntry {
                        name: name.clone(),
                        backend: b,
                        slot: slot_of(&name, inner.config.pool_size),
                        sink: sink.clone(),
                        journal: SessionJournal::new(inner.config.journal_limit),
                        settled: BTreeSet::new(),
                        opened_sent: false,
                        closed_sent: false,
                        dist: None,
                    }));
                    if !register_session(inner, sink, &name, &entry) {
                        return;
                    }
                    inner.metrics.sessions_routed.fetch_add(1, Relaxed);
                    inner.metrics.sessions_active.fetch_add(1, Relaxed);
                    let mut e = entry.lock();
                    forward_frame(inner, &mut e, msg);
                }
            }
        }
        // Inter-monitor frames are spoken by the gateway *to* backends,
        // never accepted *from* clients: the gateway owns seq
        // assignment, and a client-supplied seq would corrupt it.
        ClientMsg::DistEvent { ref session, .. } | ClientMsg::SliceUpdate { ref session, .. } => {
            client_error(
                inner,
                sink,
                Some(session.clone()),
                None,
                "dist-event/slice-update frames are inter-monitor; \
                 open a distributed session instead"
                    .into(),
            );
        }
        // A batch journals and relays as ONE frame — it re-chunks
        // nowhere between the SDK and the backend's WAL.
        ClientMsg::Event { ref session, .. }
        | ClientMsg::Events { ref session, .. }
        | ClientMsg::FinishProcess { ref session, .. }
        | ClientMsg::Close { ref session } => {
            let Some(arc) = entry_of(inner, session) else {
                client_error(
                    inner,
                    sink,
                    Some(session.clone()),
                    None,
                    format!("no such session '{session}' at the gateway"),
                );
                return;
            };
            let mut e = arc.lock();
            // Adopt the caller's sink: a client that reconnects after a
            // drop takes over the reply stream, monitor-attach style.
            e.sink = sink.clone();
            if e.dist.is_some() {
                forward_dist_frame(inner, &mut e, msg);
            } else {
                forward_frame(inner, &mut e, msg);
            }
        }
    }
}

//! The background flusher: drains the event queue in batches, tracks
//! acknowledgement barriers, and survives server restarts.
//!
//! ## Delivery model
//!
//! The flusher provides **at-least-once** delivery. Every event
//! written to the transport stays in an `unacked` log until a barrier
//! confirms it: after `ack_every` events the flusher sends a `Stats`
//! request, and because the server processes a connection's frames in
//! order, the `Stats` reply proves everything sent before it was
//! ingested (and, under `--data-dir`, WAL-ed). Barriers are FIFO and
//! each records the *delta* it covers — the events sent between the
//! previous barrier and itself — so each reply retires exactly that
//! prefix of the log, never events sent after its `Stats` frame.
//!
//! ## Reconnect and re-attach
//!
//! When a send fails or the reader thread reports the peer gone, the
//! flusher re-dials through the shared jittered-backoff dialer and
//! replays: the original `Open` (a durable server answers "already
//! open" — benign, it proves the session survived; a fresh server
//! recreates it), then the whole unacked tail, then a new barrier.
//! Events the server already ingested are rejected as duplicates,
//! which the monitor treats idempotently — also benign. Anything the
//! crash destroyed is thereby restored from the client side.
//!
//! ## Wire batching
//!
//! With `batch_max` ≥ 2, a multi-event flush goes out as batched
//! `events` frames, chunked under `batch_max` events and roughly
//! `batch_bytes` bytes each. The unacked log still records members one
//! event at a time: barrier deltas count events regardless of how
//! frames grouped them, and a reconnect replay regroups the tail into
//! fresh chunks.

use crate::metrics::SdkMetrics;
use crate::queue::{EventRec, Item};
use crate::session::{CloseReport, SessionConfig};
use crate::transport::Transport;
use hb_tracefmt::wire::{self, error_kind, ClientMsg, ServerMsg, WireVerdict};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Control-plane messages from the session to its flusher.
pub(crate) enum Ctrl {
    /// Drain everything, close on the server, reply with the report.
    Close {
        reply: crossbeam::channel::Sender<Result<CloseReport, String>>,
    },
}

/// How long the close-path drain keeps waiting once the channel reads
/// empty but the `queued` gauge says a producer's send is still in
/// flight (it is incremented before the send becomes visible).
const CLOSE_DRAIN_STALL: Duration = Duration::from_millis(250);

/// Full reconnect cycles (dial + replay) before the session is
/// declared failed. Each cycle already spends the transport's own
/// retry budget dialing.
const MAX_RECOVERY_ROUNDS: u32 = 5;

#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn(
    transport: Box<dyn Transport>,
    open_msg: ClientMsg,
    session: String,
    processes: usize,
    cfg: SessionConfig,
    metrics: Arc<SdkMetrics>,
    events: crossbeam::channel::Receiver<Item>,
    ctrl: crossbeam::channel::Receiver<Ctrl>,
) -> JoinHandle<Box<dyn Transport>> {
    let flusher = Flusher {
        transport,
        open_msg,
        session: session.clone(),
        processes,
        cfg,
        metrics,
        events,
        ctrl,
        unacked: VecDeque::new(),
        barriers: VecDeque::new(),
        since_ack: 0,
        verdicts: BTreeMap::new(),
        errors: Vec::new(),
        closed_discarded: None,
        recreated: false,
        failed: None,
    };
    std::thread::Builder::new()
        .name(format!("hb-sdk-flush-{session}"))
        .spawn(move || flusher.run())
        .expect("spawn flusher thread")
}

struct Flusher {
    transport: Box<dyn Transport>,
    open_msg: ClientMsg,
    session: String,
    processes: usize,
    cfg: SessionConfig,
    metrics: Arc<SdkMetrics>,
    events: crossbeam::channel::Receiver<Item>,
    ctrl: crossbeam::channel::Receiver<Ctrl>,
    /// Events written but not yet covered by a confirmed barrier.
    unacked: VecDeque<ClientMsg>,
    /// Outstanding barriers: how many unacked-log entries each covers.
    barriers: VecDeque<usize>,
    /// Events since the last barrier was sent.
    since_ack: usize,
    verdicts: BTreeMap<String, WireVerdict>,
    errors: Vec<String>,
    closed_discarded: Option<u64>,
    recreated: bool,
    /// Set once recovery is exhausted; further events are counted as
    /// dropped so blocked producers drain instead of deadlocking.
    failed: Option<String>,
}

impl Flusher {
    fn run(mut self) -> Box<dyn Transport> {
        loop {
            match self.events.recv_timeout(Duration::from_millis(10)) {
                Ok(item) => self.collect_and_send(item),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    // Session and tracers gone; only a Close can follow.
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            self.drain_replies();
            if self.failed.is_none() && !self.transport.healthy() {
                self.reconnect_and_replay();
            }
            if let Ok(Ctrl::Close { reply }) = self.ctrl.try_recv() {
                let result = self.do_close();
                let _ = reply.send(result);
                return self.transport;
            }
        }
    }

    /// Pulls up to a batch out of the queue and forwards it.
    fn collect_and_send(&mut self, first: Item) {
        let mut batch = Vec::new();
        if let Item::Event(rec) = first {
            batch.push(rec);
        }
        while batch.len() < self.cfg.batch_max {
            match self.events.try_recv() {
                Ok(Item::Event(rec)) => batch.push(rec),
                Ok(Item::Wake) | Err(_) => break,
            }
        }
        if batch.is_empty() {
            return;
        }
        self.dispatch(batch);
    }

    /// Whether multi-event flushes go out as batched `events` frames.
    fn batching(&self) -> bool {
        self.cfg.batch_max >= 2
    }

    /// Sends one flush batch — grouped into `events` frames when
    /// batching, one `event` frame each otherwise.
    fn dispatch(&mut self, batch: Vec<EventRec>) {
        self.metrics.batches.fetch_add(1, Ordering::Relaxed);
        if self.batching() && batch.len() > 1 {
            self.forward_batch(batch);
        } else {
            for rec in batch {
                self.forward(rec);
            }
        }
    }

    /// Forwards a multi-event flush as `events` frames chunked under
    /// the count and byte caps. The unacked log records the members
    /// individually, so acknowledgement and replay stay in units of
    /// events no matter how frames grouped them on the way out.
    fn forward_batch(&mut self, recs: Vec<EventRec>) {
        let total = recs.len() as u64;
        self.metrics.queued.fetch_sub(total, Ordering::Relaxed);
        if self.failed.is_some() {
            self.metrics.dropped.fetch_add(total, Ordering::Relaxed);
            return;
        }
        let mut chunks = Vec::new();
        let mut chunk: Vec<wire::EventFrame> = Vec::new();
        let mut bytes = 0usize;
        for rec in recs {
            let frame = wire::EventFrame {
                p: rec.p,
                clock: rec.clock,
                set: rec.set,
            };
            let size = approx_frame_bytes(&frame);
            if !chunk.is_empty()
                && (chunk.len() >= self.cfg.batch_max || bytes + size > self.cfg.batch_bytes)
            {
                chunks.push(std::mem::take(&mut chunk));
                bytes = 0;
            }
            bytes += size;
            chunk.push(frame);
        }
        if !chunk.is_empty() {
            chunks.push(chunk);
        }
        for chunk in chunks {
            self.send_chunk(chunk);
        }
    }

    /// Sends one chunk — a plain `event` frame for a lone member, an
    /// `events` frame otherwise — then moves the members into the
    /// unacked log one event at a time.
    fn send_chunk(&mut self, chunk: Vec<wire::EventFrame>) {
        let n = chunk.len();
        let msg = if n == 1 {
            chunk
                .into_iter()
                .next()
                .expect("chunk of one")
                .into_event(&self.session)
        } else {
            ClientMsg::Events {
                session: self.session.clone(),
                events: chunk,
            }
        };
        if !self.send_or_recover(&msg) {
            self.metrics.dropped.fetch_add(n as u64, Ordering::Relaxed);
            return;
        }
        match msg {
            ClientMsg::Events { session, events } => {
                self.metrics.wire_batches.fetch_add(1, Ordering::Relaxed);
                for e in events {
                    self.unacked.push_back(e.into_event(&session));
                }
            }
            single => self.unacked.push_back(single),
        }
        self.metrics.sent.fetch_add(n as u64, Ordering::Relaxed);
        self.since_ack += n;
        if self.since_ack >= self.cfg.ack_every {
            self.barrier();
        }
    }

    fn forward(&mut self, rec: EventRec) {
        self.metrics.queued.fetch_sub(1, Ordering::Relaxed);
        if self.failed.is_some() {
            self.metrics.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let msg = ClientMsg::Event {
            session: self.session.clone(),
            p: rec.p,
            clock: rec.clock,
            set: rec.set,
        };
        if self.send_or_recover(&msg) {
            self.unacked.push_back(msg);
            self.metrics.sent.fetch_add(1, Ordering::Relaxed);
            self.since_ack += 1;
            if self.since_ack >= self.cfg.ack_every {
                self.barrier();
            }
        } else {
            self.metrics.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sends an acknowledgement barrier covering the events sent since
    /// the previous barrier. Recording the delta (not the cumulative
    /// log length) keeps multiple outstanding barriers correct: each
    /// reply retires only events sent *before* its `Stats` frame, so an
    /// older barrier's reply can never retire events a newer frame has
    /// yet to prove ingested.
    fn barrier(&mut self) {
        if self.send_or_recover(&ClientMsg::Stats) {
            let outstanding: usize = self.barriers.iter().sum();
            self.barriers.push_back(self.unacked.len() - outstanding);
            self.since_ack = 0;
        }
    }

    /// Writes one frame; on failure runs a full reconnect-and-replay
    /// cycle and retries once. Returns `false` only when the session
    /// has failed for good.
    fn send_or_recover(&mut self, msg: &ClientMsg) -> bool {
        if self.failed.is_some() {
            return false;
        }
        if self.transport.send(msg).is_ok() {
            return true;
        }
        if self.reconnect_and_replay() {
            match self.transport.send(msg) {
                Ok(()) => return true,
                Err(e) => self.fail(e),
            }
        }
        false
    }

    /// Re-dials and replays `Open` + the unacked tail + a fresh
    /// barrier. Returns `true` once the connection is usable again.
    fn reconnect_and_replay(&mut self) -> bool {
        let mut last = String::new();
        for _ in 0..MAX_RECOVERY_ROUNDS {
            self.metrics.reconnects.fetch_add(1, Ordering::Relaxed);
            if let Err(e) = self.transport.reconnect() {
                last = e;
                continue; // the transport's own policy already backed off
            }
            // Replies to pre-crash barriers will never arrive; the
            // replay below re-covers the whole log with a new one.
            self.barriers.clear();
            self.since_ack = 0;
            match self.replay() {
                Ok(()) => return true,
                Err(e) => last = e,
            }
        }
        self.fail(format!(
            "gave up on {} after {MAX_RECOVERY_ROUNDS} recovery rounds: {last}",
            self.transport.describe()
        ));
        false
    }

    fn replay(&mut self) -> Result<(), String> {
        self.transport.send(&self.open_msg)?;
        // The frames that originally carried the tail are gone; the log
        // stores events, not frames, precisely so the replay is free to
        // regroup them.
        for msg in self.rechunk_unacked() {
            self.transport.send(&msg)?;
            if let ClientMsg::Events { ref events, .. } = msg {
                self.metrics.wire_batches.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .resent
                    .fetch_add(events.len() as u64, Ordering::Relaxed);
            } else {
                self.metrics.resent.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.transport.send(&ClientMsg::Stats)?;
        self.barriers.push_back(self.unacked.len());
        Ok(())
    }

    /// The unacked tail regrouped for the replay: consecutive event
    /// frames coalesce into `events` chunks under the count and byte
    /// caps when batching, and pass through one-for-one when not.
    fn rechunk_unacked(&self) -> Vec<ClientMsg> {
        if !self.batching() || self.unacked.len() < 2 {
            return self.unacked.iter().cloned().collect();
        }
        fn flush(out: &mut Vec<ClientMsg>, chunk: &mut Vec<wire::EventFrame>, session: &str) {
            match chunk.len() {
                0 => {}
                1 => out.push(chunk.pop().expect("chunk of one").into_event(session)),
                _ => out.push(ClientMsg::Events {
                    session: session.to_string(),
                    events: std::mem::take(chunk),
                }),
            }
        }
        let mut out = Vec::new();
        let mut chunk: Vec<wire::EventFrame> = Vec::new();
        let mut bytes = 0usize;
        for msg in &self.unacked {
            match msg {
                ClientMsg::Event { p, clock, set, .. } => {
                    let frame = wire::EventFrame {
                        p: *p,
                        clock: clock.clone(),
                        set: set.clone(),
                    };
                    let size = approx_frame_bytes(&frame);
                    if !chunk.is_empty()
                        && (chunk.len() >= self.cfg.batch_max
                            || bytes + size > self.cfg.batch_bytes)
                    {
                        flush(&mut out, &mut chunk, &self.session);
                        bytes = 0;
                    }
                    bytes += size;
                    chunk.push(frame);
                }
                other => {
                    flush(&mut out, &mut chunk, &self.session);
                    bytes = 0;
                    out.push(other.clone());
                }
            }
        }
        flush(&mut out, &mut chunk, &self.session);
        out
    }

    fn drain_replies(&mut self) {
        while let Some(msg) = self.transport.poll() {
            match msg {
                ServerMsg::Opened { .. } => {
                    // Only reachable via replay: the server had no
                    // trace of the session, so it was rebuilt from the
                    // unacked tail.
                    self.recreated = true;
                }
                ServerMsg::Verdict {
                    predicate, verdict, ..
                } => {
                    self.metrics.verdicts.fetch_add(1, Ordering::Relaxed);
                    let settled = matches!(
                        self.verdicts.get(&predicate),
                        Some(v) if *v != WireVerdict::Pending
                    );
                    // A settled verdict is final; a recreated session
                    // replaying a partial trace must not unsettle it.
                    if !settled {
                        self.verdicts.insert(predicate, verdict);
                    }
                }
                ServerMsg::Closed { discarded, .. } => {
                    self.closed_discarded = Some(discarded);
                }
                ServerMsg::Stats { .. } => {
                    self.metrics.acks.fetch_add(1, Ordering::Relaxed);
                    // Barriers record deltas, so the outstanding sum
                    // never exceeds the log and each reply retires
                    // exactly the prefix its barrier proved.
                    if let Some(covered) = self.barriers.pop_front() {
                        debug_assert!(
                            covered <= self.unacked.len(),
                            "barrier covers {covered} of {} unacked events",
                            self.unacked.len()
                        );
                        self.unacked.drain(..covered.min(self.unacked.len()));
                    }
                }
                ServerMsg::Error { kind, message, .. } => {
                    if kind.as_deref().is_some_and(error_kind::is_benign_replay) {
                        continue;
                    }
                    self.metrics.server_errors.fetch_add(1, Ordering::Relaxed);
                    if self.errors.len() < 32 {
                        self.errors.push(message);
                    }
                }
                // Inter-monitor traffic; never addressed to an SDK client.
                ServerMsg::SliceUpdate { .. } => {}
                ServerMsg::Welcome { .. } | ServerMsg::Drained { .. } | ServerMsg::Bye => {}
            }
        }
    }

    fn do_close(&mut self) -> Result<CloseReport, String> {
        // Everything still queued goes out first. An empty channel
        // alone is not "drained": a Block-policy producer parked on a
        // full queue completes its send only after this loop frees a
        // slot, and the `queued` gauge (incremented before the send
        // becomes visible) is what counts that in-flight event. Keep
        // draining until the gauge reaches zero, with a stall bound in
        // case a producer died between the increment and the send —
        // once this thread returns, the channel disconnects and such a
        // send fails cleanly, counted as dropped by the queue.
        let mut last_progress = Instant::now();
        let mut buffer: Vec<EventRec> = Vec::new();
        loop {
            match self.events.try_recv() {
                Ok(Item::Event(rec)) => {
                    buffer.push(rec);
                    if buffer.len() >= self.cfg.batch_max {
                        self.dispatch(std::mem::take(&mut buffer));
                    }
                    last_progress = Instant::now();
                }
                Ok(Item::Wake) => continue,
                Err(_) => {
                    // Buffered events still count in the `queued` gauge
                    // (dispatch is what decrements it), so flush them
                    // before consulting the gauge.
                    if !buffer.is_empty() {
                        self.dispatch(std::mem::take(&mut buffer));
                        continue;
                    }
                    if self.metrics.queued.load(Ordering::Relaxed) == 0
                        || last_progress.elapsed() >= CLOSE_DRAIN_STALL
                    {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
        if let Some(reason) = &self.failed {
            return Err(reason.clone());
        }
        // Barrier the tail so a crash inside the close window can't
        // lose events, then finish every process and close.
        self.barrier();
        self.send_finish_and_close();
        let deadline = Instant::now() + self.cfg.close_timeout;
        while self.closed_discarded.is_none() {
            self.drain_replies();
            if let Some(reason) = &self.failed {
                return Err(reason.clone());
            }
            if self.closed_discarded.is_some() {
                break;
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "no close acknowledgement from {} within {:?}",
                    self.transport.describe(),
                    self.cfg.close_timeout
                ));
            }
            if !self.transport.healthy() {
                if self.reconnect_and_replay() {
                    // The replay restored the event tail; repeat the
                    // finish/close sequence on the new connection.
                    self.send_finish_and_close();
                }
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(CloseReport {
            verdicts: std::mem::take(&mut self.verdicts),
            discarded: self.closed_discarded.unwrap_or(0),
            recreated: self.recreated,
            errors: std::mem::take(&mut self.errors),
            metrics: self.metrics.snapshot(),
        })
    }

    fn send_finish_and_close(&mut self) {
        for p in 0..self.processes {
            self.send_or_recover(&ClientMsg::FinishProcess {
                session: self.session.clone(),
                p,
            });
        }
        self.send_or_recover(&ClientMsg::Close {
            session: self.session.clone(),
        });
    }

    fn fail(&mut self, reason: String) {
        if self.failed.is_none() {
            self.failed = Some(reason);
        }
    }
}

/// Rough pre-serialization size of one batch member, used to hold an
/// `events` frame near the configured byte budget without serializing
/// twice: JSON scaffolding, a decimal-plus-comma width per clock
/// component, and each set entry's key plus a decimal value.
fn approx_frame_bytes(frame: &wire::EventFrame) -> usize {
    32 + 12 * frame.clock.len() + frame.set.keys().map(|k| k.len() + 24).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A transport whose replies the test scripts by hand: sends always
    /// succeed and are recorded, polls pop the scripted reply queue.
    struct ScriptedTransport {
        sent: Arc<Mutex<Vec<ClientMsg>>>,
        replies: Arc<Mutex<VecDeque<ServerMsg>>>,
    }

    impl Transport for ScriptedTransport {
        fn send(&mut self, msg: &ClientMsg) -> Result<(), String> {
            self.sent.lock().unwrap().push(msg.clone());
            Ok(())
        }
        fn poll(&mut self) -> Option<ServerMsg> {
            self.replies.lock().unwrap().pop_front()
        }
        fn reconnect(&mut self) -> Result<(), String> {
            Ok(())
        }
        fn describe(&self) -> String {
            "scripted".into()
        }
    }

    struct Script {
        sent: Arc<Mutex<Vec<ClientMsg>>>,
        replies: Arc<Mutex<VecDeque<ServerMsg>>>,
    }

    /// A flusher driven directly (no thread in play) so tests control
    /// exactly when replies arrive. The returned sender feeds the event
    /// channel for tests that exercise `collect_and_send`.
    fn test_flusher_with(
        cfg: SessionConfig,
        queue_cap: usize,
    ) -> (Flusher, Script, crossbeam::channel::Sender<Item>) {
        let sent = Arc::new(Mutex::new(Vec::new()));
        let replies = Arc::new(Mutex::new(VecDeque::new()));
        let transport = ScriptedTransport {
            sent: Arc::clone(&sent),
            replies: Arc::clone(&replies),
        };
        let (tx, events) = crossbeam::channel::bounded::<Item>(queue_cap);
        let (_ctx, ctrl) = crossbeam::channel::unbounded::<Ctrl>();
        let flusher = Flusher {
            transport: Box::new(transport),
            open_msg: ClientMsg::Open {
                session: "t".into(),
                processes: 1,
                vars: vec!["x".into()],
                initial: vec![BTreeMap::new()],
                predicates: vec![],
                dist: None,
            },
            session: "t".into(),
            processes: 1,
            cfg,
            metrics: Arc::new(SdkMetrics::default()),
            events,
            ctrl,
            unacked: VecDeque::new(),
            barriers: VecDeque::new(),
            since_ack: 0,
            verdicts: BTreeMap::new(),
            errors: Vec::new(),
            closed_discarded: None,
            recreated: false,
            failed: None,
        };
        (flusher, Script { sent, replies }, tx)
    }

    fn test_flusher(ack_every: usize) -> (Flusher, Script) {
        let cfg = SessionConfig {
            ack_every,
            ..SessionConfig::default()
        };
        // The sender is dropped: these tests drive the flusher's
        // methods directly and never enter `run`/`do_close`.
        let (flusher, script, _tx) = test_flusher_with(cfg, 1);
        (flusher, script)
    }

    fn push_event(f: &mut Flusher, i: u32) {
        f.metrics.queued.fetch_add(1, Ordering::Relaxed);
        f.forward(EventRec {
            p: 0,
            clock: vec![i + 1],
            set: BTreeMap::new(),
        });
    }

    fn stats_reply() -> ServerMsg {
        ServerMsg::Stats {
            counters: BTreeMap::new(),
        }
    }

    /// The review scenario: two outstanding barriers plus events sent
    /// after the second one. Each reply must retire only the prefix its
    /// own barrier proved — the tail sent after the last `Stats` frame
    /// stays unacked (cumulative accounting drained it, losing those
    /// events on a post-reply crash).
    #[test]
    fn overlapping_barriers_retire_only_proven_prefixes() {
        let (mut f, script) = test_flusher(2);
        for i in 0..4 {
            push_event(&mut f, i);
        }
        assert_eq!(f.barriers, [2, 2]);
        push_event(&mut f, 4);
        assert_eq!(f.unacked.len(), 5);

        script.replies.lock().unwrap().push_back(stats_reply());
        f.drain_replies();
        assert_eq!(f.unacked.len(), 3, "first reply retires its two events");

        script.replies.lock().unwrap().push_back(stats_reply());
        f.drain_replies();
        assert_eq!(
            f.unacked.len(),
            1,
            "the event sent after the second barrier is not yet proven"
        );
        assert!(f.barriers.is_empty());
    }

    /// Replay collapses the outstanding barriers into one that covers
    /// the whole log; barriers sent afterwards go back to deltas.
    #[test]
    fn replay_rebuilds_full_coverage_then_deltas() {
        let (mut f, script) = test_flusher(2);
        for i in 0..5 {
            push_event(&mut f, i);
        }
        assert_eq!(f.barriers, [2, 2]);

        assert!(f.reconnect_and_replay());
        assert_eq!(f.barriers, [5], "one barrier re-covers the whole log");
        let resent = script
            .sent
            .lock()
            .unwrap()
            .iter()
            .filter(|m| matches!(m, ClientMsg::Open { .. }))
            .count();
        assert_eq!(resent, 1, "replay re-sends the open");

        for i in 5..7 {
            push_event(&mut f, i);
        }
        assert_eq!(f.barriers, [5, 2]);

        for _ in 0..2 {
            script.replies.lock().unwrap().push_back(stats_reply());
        }
        f.drain_replies();
        assert!(f.unacked.is_empty());
        assert!(f.barriers.is_empty());
    }

    fn recs(range: std::ops::Range<u32>) -> Vec<EventRec> {
        range
            .map(|i| EventRec {
                p: 0,
                clock: vec![i + 1],
                set: BTreeMap::new(),
            })
            .collect()
    }

    /// Feeds a batch through `dispatch` the way `collect_and_send`
    /// would, keeping the queued gauge consistent.
    fn push_batch(f: &mut Flusher, range: std::ops::Range<u32>) {
        let batch = recs(range);
        f.metrics
            .queued
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        f.dispatch(batch);
    }

    /// Barriers straddling batch boundaries: each `Stats` reply must
    /// retire exactly the whole-batch delta its own barrier covered,
    /// even when a batch's events split across two barriers' coverage.
    #[test]
    fn overlapping_barriers_retire_whole_batch_deltas() {
        let cfg = SessionConfig {
            ack_every: 4,
            batch_max: 4,
            ..SessionConfig::default()
        };
        let (mut f, script, _tx) = test_flusher_with(cfg, 1);
        // Six events arrive in one flush: chunks of 4 and 2. The first
        // chunk trips the barrier; the second leaves since_ack at 2.
        push_batch(&mut f, 0..6);
        assert_eq!(f.barriers, [4]);
        assert_eq!(f.unacked.len(), 6);
        // Two more events: since_ack reaches 4 again, second barrier
        // covers the delta (2 + 2), not the cumulative log.
        push_batch(&mut f, 6..8);
        assert_eq!(f.barriers, [4, 4]);

        let events_frames = script
            .sent
            .lock()
            .unwrap()
            .iter()
            .filter(|m| matches!(m, ClientMsg::Events { .. }))
            .count();
        assert_eq!(events_frames, 3, "chunks of 4, 2, and 2");
        assert_eq!(f.metrics.snapshot().wire_batches_sent, 3);
        assert_eq!(f.metrics.snapshot().events_sent, 8);

        script.replies.lock().unwrap().push_back(stats_reply());
        f.drain_replies();
        assert_eq!(f.unacked.len(), 4, "first reply retires the first chunk");
        script.replies.lock().unwrap().push_back(stats_reply());
        f.drain_replies();
        assert!(f.unacked.is_empty());
    }

    /// Reconnect replay regroups the per-event unacked log into fresh
    /// `events` frames under the caps — the original frame boundaries
    /// are gone and irrelevant.
    #[test]
    fn replay_rechunks_the_unacked_tail() {
        let cfg = SessionConfig {
            ack_every: 100,
            batch_max: 2,
            ..SessionConfig::default()
        };
        let (mut f, script, _tx) = test_flusher_with(cfg, 1);
        // Five singles in the log (sent below the batching threshold).
        for i in 0..5 {
            push_event(&mut f, i);
        }
        assert_eq!(f.unacked.len(), 5);
        script.sent.lock().unwrap().clear();

        assert!(f.reconnect_and_replay());
        let sent = script.sent.lock().unwrap().clone();
        let shapes: Vec<&str> = sent
            .iter()
            .map(|m| match m {
                ClientMsg::Open { .. } => "open",
                ClientMsg::Events { events, .. } if events.len() == 2 => "events2",
                ClientMsg::Event { .. } => "event",
                ClientMsg::Stats => "stats",
                other => panic!("unexpected replay frame {other:?}"),
            })
            .collect();
        assert_eq!(
            shapes,
            ["open", "events2", "events2", "event", "stats"],
            "the tail regroups as 2+2+1 under batch_max=2"
        );
        assert_eq!(f.barriers, [5], "one barrier re-covers the whole log");
        assert_eq!(f.metrics.snapshot().events_resent, 5);
        assert_eq!(f.unacked.len(), 5, "the log itself stays per-event");
    }

    /// `DropNewest` accounting when only part of an intended batch fit
    /// in the queue: the overflow is counted dropped at enqueue, the
    /// queued remainder still flushes as one batch, and no event is
    /// double-counted.
    #[test]
    fn drop_newest_accounts_for_a_partially_queued_batch() {
        use crate::queue::{EventQueue, OverflowPolicy};
        let cfg = SessionConfig {
            ack_every: 100,
            batch_max: 8,
            ..SessionConfig::default()
        };
        let (mut f, script, tx) = test_flusher_with(cfg, 2);
        let queue = EventQueue::new(tx, OverflowPolicy::DropNewest, Arc::clone(&f.metrics));
        let mut accepted = 0;
        for rec in recs(0..5) {
            if queue.push(rec) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 2, "the queue holds two; three overflow");
        let snap = f.metrics.snapshot();
        assert_eq!(snap.events_enqueued, 5);
        assert_eq!(snap.events_dropped, 3);

        let first = f.events.try_recv().expect("queued event");
        f.collect_and_send(first);
        let snap = f.metrics.snapshot();
        assert_eq!(snap.events_sent, 2, "only what was queued is sent");
        assert_eq!(snap.events_dropped, 3, "flushing drops nothing more");
        assert_eq!(snap.events_queued, 0);
        let sent = script.sent.lock().unwrap();
        assert!(
            matches!(&sent[..], [ClientMsg::Events { events, .. }] if events.len() == 2),
            "the queued remainder flushes as one batch: {sent:?}"
        );
    }
}

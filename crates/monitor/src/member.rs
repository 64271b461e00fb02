//! The one kind of thing a shard holds.
//!
//! A plain session runs the whole detection pipeline on one backend. A
//! distributed session is that same pipeline cut in two — worker
//! partitions evaluate local clauses and ship slice observations, an
//! aggregator feeds them to the session's own causal buffer and
//! detectors (`crate::pipeline`) — so all three are members of one
//! map, driven by the same wire messages through [`Member::open`] and
//! [`Member::apply`]. Nothing outside this `impl` asks which kind a
//! member is; live ingest and WAL replay are the same calls.

use crate::aggregator::{AggStep, DistAggregator};
use crate::buffer::IngestError;
use crate::metrics::Metrics;
use crate::persist::{AggregatorSlotSnapshot, ServiceSnapshot, WorkerSlotSnapshot};
use crate::session::{Session, SessionError, SessionLimits, VerdictEvent};
use crate::worker::DistWorker;
use hb_detect::online::OnlineVerdict;
use hb_tracefmt::wire::{
    error_kind, ClientMsg, ServerMsg, SliceUpdateBody, WireDistRole, WirePredicate, WireVerdict,
};
use hb_vclock::VectorClock;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;

/// The refusal for a client-facing `distribute` open: partitioning is
/// the gateway's job, a backend hosts only the derived roles.
pub(crate) const GATEWAY_ONLY: &str =
    "distributed sessions are opened through a gateway; this is a monitor backend";

/// Where one message's consequences go: counters straight into
/// `metrics`, reply frames into `frames`, which the shard forwards once
/// the message's gauges are committed (a client that reads `closed` and
/// then asks for `stats` must find the session gone).
pub(crate) struct Out<'a> {
    pub metrics: &'a Metrics,
    pub frames: &'a mut Vec<ServerMsg>,
}

fn verdict_frame(session: &str, predicate: String, verdict: &OnlineVerdict) -> ServerMsg {
    ServerMsg::Verdict {
        session: session.to_string(),
        predicate,
        verdict: match verdict {
            OnlineVerdict::Detected(cut) => WireVerdict::Detected(cut.counters().to_vec()),
            OnlineVerdict::Impossible => WireVerdict::Impossible,
            OnlineVerdict::Pending => WireVerdict::Pending,
        },
    }
}

pub(crate) fn error_frame(session: Option<&str>, kind: Option<&str>, message: String) -> ServerMsg {
    ServerMsg::Error {
        session: session.map(str::to_string),
        kind: kind.map(str::to_string),
        message,
    }
}

impl Out<'_> {
    /// Queues an error frame and counts it.
    pub fn error(&mut self, session: Option<&str>, kind: Option<&str>, message: String) {
        self.metrics.protocol_errors.fetch_add(1, Relaxed);
        self.frames.push(error_frame(session, kind, message));
    }

    /// Reports an engine's refusal. Replay artifacts of at-least-once
    /// clients get a machine-readable [`error_kind`] so those clients
    /// can classify them without parsing message text.
    pub fn failed(&mut self, session: &str, e: &SessionError) {
        let kind = match e {
            SessionError::AlreadyFinished(_) => Some(error_kind::ALREADY_FINISHED),
            SessionError::Ingest(IngestError::Duplicate { .. }) => {
                self.metrics.events_duplicate.fetch_add(1, Relaxed);
                Some(error_kind::DUPLICATE_EVENT)
            }
            SessionError::Ingest(IngestError::Overflow { .. }) => {
                self.metrics.events_rejected.fetch_add(1, Relaxed);
                None
            }
            SessionError::Ingest(IngestError::Dropped) => {
                self.metrics.events_dropped.fetch_add(1, Relaxed);
                None
            }
            _ => None,
        };
        self.error(Some(session), kind, e.to_string());
    }

    /// Reports newly settled verdicts, counting each once.
    pub fn settle(&mut self, session: &str, verdicts: Vec<VerdictEvent>) {
        for v in verdicts {
            self.metrics.verdicts_settled.fetch_add(1, Relaxed);
            self.metrics.record_verdict(
                &v.predicate,
                v.pattern,
                matches!(v.verdict, OnlineVerdict::Detected(_)),
            );
            self.frames
                .push(verdict_frame(session, v.predicate, &v.verdict));
        }
    }

    /// Reports a close: what force-settled, then `closed`.
    fn closed(&mut self, session: &str, verdicts: Vec<VerdictEvent>, discarded: u64) {
        self.metrics.events_discarded.fetch_add(discarded, Relaxed);
        self.settle(session, verdicts);
        self.frames.push(ServerMsg::Closed {
            session: session.to_string(),
            discarded,
        });
    }
}

/// One member of a shard's session map.
pub(crate) enum Member {
    /// A whole session on this backend.
    Plain(Session),
    /// One worker partition of a distributed session, registered under
    /// its decorated name (`origin#w<i>`); its slice updates carry the
    /// origin name so the gateway can relay by session.
    Worker { origin: String, engine: DistWorker },
    /// A distributed session's aggregator, registered under the origin
    /// name — the member of the partition the client hears.
    Aggregator(DistAggregator),
}

/// Drains slicing-filter counter deltas into the shared metrics. Called
/// at verdict, finish, snapshot and close boundaries — never per event,
/// so sliced ingestion stays mutex-free on the hot path (the counters
/// lag by at most one such boundary). Only the member that filters
/// reports: an aggregator repeating its workers' counts would double
/// them.
fn flush_slice_stats(stats: Vec<(String, u64, u64)>, metrics: &Metrics) {
    for (id, events_in, events_filtered) in stats {
        metrics.record_slice(&id, events_in, events_filtered);
    }
}

/// Feeds one event into a session's causal buffer and reports the
/// outcome — the per-event path of `event` and of every member of an
/// `events` batch.
fn ingest(
    s: &mut Session,
    name: &str,
    p: usize,
    clock: Vec<u32>,
    set: &BTreeMap<String, i64>,
    out: &mut Out,
) {
    out.metrics.events_ingested.fetch_add(1, Relaxed);
    match s.event(p, VectorClock::from_components(clock), set) {
        Ok(verdicts) => {
            if !verdicts.is_empty() {
                flush_slice_stats(s.take_slice_stats(), out.metrics);
            }
            out.settle(name, verdicts);
        }
        Err(e) => out.failed(name, &e),
    }
}

/// Ships a worker's slice updates toward the aggregator, one frame per
/// update.
fn relay(origin: &str, updates: Vec<(u64, SliceUpdateBody)>, out: &mut Out) {
    out.metrics
        .dist_updates_relayed
        .fetch_add(updates.len() as u64, Relaxed);
    for (seq, update) in updates {
        out.frames.push(ServerMsg::SliceUpdate {
            session: origin.to_string(),
            seq,
            update,
        });
    }
}

/// Turns an aggregator's observable steps into the exact frames a
/// single-backend session would emit. Returns whether a close was
/// among them.
fn emit(name: &str, steps: Vec<AggStep>, out: &mut Out) -> bool {
    let mut closed = false;
    for step in steps {
        match step {
            AggStep::Verdict(v) => out.settle(name, vec![v]),
            AggStep::Error(e) => out.failed(name, &e),
            AggStep::Closed { discarded } => {
                out.closed(name, Vec::new(), discarded);
                closed = true;
            }
        }
    }
    closed
}

impl Member {
    /// Builds the member an `open` frame declares. The caller announces
    /// it (see [`Member::take_initial_verdicts`]) or reports the error.
    pub fn open(
        name: &str,
        dist: Option<WireDistRole>,
        processes: usize,
        vars: &[String],
        initial: &[BTreeMap<String, i64>],
        predicates: &[WirePredicate],
        limits: SessionLimits,
    ) -> Result<Member, SessionError> {
        match dist {
            None => {
                Session::open(name, processes, vars, initial, predicates, limits).map(Member::Plain)
            }
            Some(WireDistRole::Worker { origin, worker, k }) => {
                DistWorker::open(worker, k, processes, vars, initial, predicates)
                    .map(|engine| Member::Worker { origin, engine })
            }
            Some(WireDistRole::Aggregator { k }) => DistAggregator::open(
                k,
                processes,
                vars,
                initial,
                predicates,
                limits.buffer_capacity,
                limits.policy,
            )
            .map(Member::Aggregator),
            // The handle refuses this role before the WAL; only a log
            // it did not write can bring one here.
            Some(WireDistRole::Distribute { .. }) => {
                Err(SessionError::BadOpen(GATEWAY_ONLY.into()))
            }
        }
    }

    /// Verdicts that settled already at open (initial-cut detections).
    pub fn take_initial_verdicts(&mut self) -> Vec<VerdictEvent> {
        match self {
            Member::Plain(s) => s.take_initial_verdicts(),
            Member::Worker { .. } => Vec::new(),
            Member::Aggregator(a) => a.take_initial_verdicts(),
        }
    }

    /// Counts the member into (`opened`) or out of the service gauges.
    /// A worker partition is not a session of its own: the client's
    /// session is the aggregator.
    pub fn census(&self, metrics: &Metrics, opened: bool) {
        let (session, gauge) = match self {
            Member::Plain(_) => (true, None),
            Member::Worker { .. } => (false, Some(&metrics.dist_workers_active)),
            Member::Aggregator(_) => (true, Some(&metrics.dist_aggregators_active)),
        };
        let active = session.then_some(&metrics.sessions_active);
        for gauge in active.into_iter().chain(gauge) {
            if opened {
                gauge.fetch_add(1, Relaxed);
            } else {
                gauge.fetch_sub(1, Relaxed);
            }
        }
        if session && opened {
            metrics.sessions_opened.fetch_add(1, Relaxed);
        }
    }

    /// `(events held in the causal buffer, events delivered so far)` —
    /// what the shard's commit stage turns into gauge deltas.
    pub fn load(&self) -> (u64, u64) {
        match self {
            Member::Plain(s) => (s.held() as u64, s.delivered()),
            Member::Worker { .. } => (0, 0),
            Member::Aggregator(a) => (a.held() as u64, a.delivered()),
        }
    }

    /// Why this member cannot take `msg`: each kind speaks only its own
    /// frames (and `close`). Checked before the member is attached, so
    /// a stray frame neither adopts its sender's sink nor reaches the
    /// member's owner.
    pub fn refuses(&self, msg: &ClientMsg) -> Option<&'static str> {
        match (self, msg) {
            (_, ClientMsg::Close { .. })
            | (
                Member::Plain(_),
                ClientMsg::Event { .. }
                | ClientMsg::Events { .. }
                | ClientMsg::FinishProcess { .. },
            )
            | (Member::Worker { .. }, ClientMsg::DistEvent { .. })
            | (Member::Aggregator(_), ClientMsg::SliceUpdate { .. }) => None,
            (_, ClientMsg::DistEvent { .. }) => Some("is not a distributed worker partition"),
            (_, ClientMsg::SliceUpdate { .. }) => Some("is not a distributed session"),
            _ => Some("is distributed; its frames are routed by the gateway"),
        }
    }

    /// Applies one message the member does not [refuse](Member::refuses).
    /// Returns the member's name when the message closed it — the shard
    /// then drops it from its map.
    pub fn apply(&mut self, msg: ClientMsg, out: &mut Out) -> Option<String> {
        match (self, msg) {
            (
                Member::Plain(s),
                ClientMsg::Event {
                    session,
                    p,
                    clock,
                    set,
                },
            ) => ingest(s, &session, p, clock, &set, out),
            // One WAL record, one shard command, but delivery is per
            // event: verdicts are identical to the unbatched stream by
            // construction.
            (Member::Plain(s), ClientMsg::Events { session, events }) => {
                out.metrics.batches_ingested.fetch_add(1, Relaxed);
                for e in events {
                    ingest(s, &session, e.p, e.clock, &e.set, out);
                }
            }
            (Member::Plain(s), ClientMsg::FinishProcess { session, p }) => {
                match s.finish_process(p) {
                    Ok(verdicts) => {
                        flush_slice_stats(s.take_slice_stats(), out.metrics);
                        out.settle(&session, verdicts);
                    }
                    Err(e) => out.failed(&session, &e),
                }
            }
            (Member::Worker { origin, engine }, ClientMsg::DistEvent { seq, event, .. }) => {
                out.metrics.events_ingested.fetch_add(1, Relaxed);
                let clock = VectorClock::from_components(event.clock);
                relay(origin, engine.observe(seq, event.p, clock, &event.set), out);
            }
            (
                Member::Aggregator(a),
                ClientMsg::SliceUpdate {
                    session,
                    seq,
                    update,
                },
            ) => {
                out.metrics.dist_updates_applied.fetch_add(1, Relaxed);
                return emit(&session, a.update(seq, update), out).then_some(session);
            }
            (member, ClientMsg::Close { session }) => {
                member.close(&session, out);
                return Some(session);
            }
            _ => unreachable!("Member::refuses admits only the member's own frames"),
        }
        None
    }

    /// Closes the member: stranded held events are discarded, whatever
    /// is still pending is force-settled, and `closed` is reported.
    pub fn close(&mut self, name: &str, out: &mut Out) {
        match self {
            Member::Plain(s) => {
                let (verdicts, discarded) = s.close();
                flush_slice_stats(s.take_slice_stats(), out.metrics);
                out.closed(name, verdicts, discarded);
            }
            // The gateway closes the partitions before sending the
            // aggregator its close update, so stranded holds flush into
            // the update stream first.
            Member::Worker { origin, engine } => {
                let flushed = engine.close();
                let discarded = flushed.len() as u64;
                relay(origin, flushed, out);
                flush_slice_stats(engine.take_slice_stats(), out.metrics);
                out.frames.push(ServerMsg::Closed {
                    session: name.to_string(),
                    discarded,
                });
            }
            // A plain close reaching the aggregator directly, not the
            // gateway's sequenced close update: close out of band.
            Member::Aggregator(a) => {
                let (verdicts, discarded) = a.close();
                out.closed(name, verdicts, discarded);
            }
        }
    }

    /// One frame per verdict that has settled so far — what a client
    /// re-attaching after a crash is told again.
    pub fn settled(&self, name: &str) -> Vec<ServerMsg> {
        let all = match self {
            Member::Plain(s) => s.all_verdicts(),
            Member::Worker { .. } => Vec::new(),
            Member::Aggregator(a) => a.all_verdicts(),
        };
        all.into_iter()
            .filter(|v| !matches!(v.verdict, OnlineVerdict::Pending))
            .map(|v| verdict_frame(name, v.predicate, &v.verdict))
            .collect()
    }

    /// Forgets which slicing counters were already reported, so the
    /// next flush reports the member's lifetime totals: WAL replay
    /// reports into a scratch metrics block, and the real one must not
    /// miss what replay flushed.
    pub fn rewind_slice_stats(&mut self) {
        match self {
            Member::Plain(s) => s.rewind_slice_stats(),
            Member::Worker { engine, .. } => engine.rewind_slice_stats(),
            Member::Aggregator(_) => {}
        }
    }

    /// Freezes the member into its list of the service snapshot.
    pub fn freeze(&mut self, name: &str, metrics: &Metrics, snap: &mut ServiceSnapshot) {
        match self {
            Member::Plain(s) => {
                flush_slice_stats(s.take_slice_stats(), metrics);
                snap.sessions.push(s.snapshot());
            }
            Member::Worker { origin, engine } => {
                flush_slice_stats(engine.take_slice_stats(), metrics);
                snap.workers.push(WorkerSlotSnapshot {
                    name: name.to_string(),
                    origin: origin.clone(),
                    snap: engine.snapshot(),
                });
            }
            Member::Aggregator(a) => snap.aggregators.push(AggregatorSlotSnapshot {
                name: name.to_string(),
                processes: a.processes(),
                snap: a.snapshot(),
            }),
        }
    }

    /// Rebuilds every member a service snapshot froze, by name.
    pub fn restore(
        snap: &ServiceSnapshot,
        limits: SessionLimits,
    ) -> Result<Vec<(String, Member)>, String> {
        let mut members = Vec::new();
        for s in &snap.sessions {
            let session = Session::restore(s, limits)
                .map_err(|e| format!("restore session '{}': {e}", s.name))?;
            members.push((s.name.clone(), Member::Plain(session)));
        }
        for w in &snap.workers {
            let engine = DistWorker::restore(&w.snap, w.snap.states.len())
                .map_err(|e| format!("restore worker '{}': {e}", w.name))?;
            let origin = w.origin.clone();
            members.push((w.name.clone(), Member::Worker { origin, engine }));
        }
        for a in &snap.aggregators {
            let engine = DistAggregator::restore(
                &a.snap,
                a.processes,
                limits.buffer_capacity,
                limits.policy,
            )
            .map_err(|e| format!("restore aggregator '{}': {e}", a.name))?;
            members.push((a.name.clone(), Member::Aggregator(engine)));
        }
        Ok(members)
    }
}

//! Causal delivery buffering.
//!
//! A monitor receives vector-clock-stamped events over the network, so
//! they can arrive in any order — including orders that violate
//! causality (a receive before the matching send, a process's third
//! event before its second). The on-line detectors, however, require
//! per-process order and benefit from causal order (the conjunctive
//! queue algorithm assumes the observed prefix is a consistent cut).
//!
//! [`CausalBuffer`] restores causal order, the classic vector-clock
//! delivery condition specialized to one sink observing everything: an
//! event `e` of process `p` with clock `V` is **deliverable** when
//!
//! * `V[p] == delivered[p] + 1` — it is `p`'s next event, and
//! * `V[j] <= delivered[j]` for all `j ≠ p` — every event in its causal
//!   past has been delivered.
//!
//! Undeliverable events are **held**; each delivery re-examines held
//! events until a fixpoint, so one arrival can release a cascade. The
//! hold space is bounded: at capacity, ingest either rejects the event
//! (explicit backpressure — the transport should slow the producer) or
//! drops it, per [`OverflowPolicy`]. An event whose clock shows it was
//! already delivered (`V[p] <= delivered[p]`), or whose `(p, V[p])` is
//! already held, is a **duplicate** and is rejected outright, making
//! ingestion idempotent under at-least-once transports.

use hb_vclock::VectorClock;
use std::collections::VecDeque;
use std::fmt;

/// What to do with a new undeliverable event when the hold space is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Refuse the event with [`IngestError::Overflow`]; the caller
    /// should retry after draining deliveries (backpressure). Lossless.
    #[default]
    Reject,
    /// Drop the newest event with [`IngestError::Dropped`]. Lossy: a
    /// dropped event's causal successors can never be delivered, so only
    /// use this when monitoring best-effort over an unreliable feed.
    DropNewest,
}

/// Why an event was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The event's clock says it was already delivered, or a copy of it
    /// is already held.
    Duplicate {
        /// The sending process.
        process: usize,
        /// The event's own component `V[p]`.
        seq: u32,
    },
    /// The hold space is full and the policy is [`OverflowPolicy::Reject`].
    Overflow {
        /// The configured capacity.
        capacity: usize,
    },
    /// The hold space was full and the event was dropped
    /// ([`OverflowPolicy::DropNewest`]).
    Dropped,
    /// `process` is out of range for this buffer.
    BadProcess {
        /// The offending index.
        process: usize,
        /// The buffer's width.
        width: usize,
    },
    /// The clock's width does not match the buffer's.
    BadClockWidth {
        /// The clock's width.
        got: usize,
        /// The buffer's width.
        want: usize,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Duplicate { process, seq } => {
                write!(f, "duplicate event {seq} of process {process}")
            }
            IngestError::Overflow { capacity } => {
                write!(
                    f,
                    "hold buffer full ({capacity} events); retry after draining"
                )
            }
            IngestError::Dropped => write!(f, "hold buffer full; event dropped"),
            IngestError::BadProcess { process, width } => {
                write!(f, "process {process} out of range (width {width})")
            }
            IngestError::BadClockWidth { got, want } => {
                write!(
                    f,
                    "clock width {got} does not match computation width {want}"
                )
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// An event released by the buffer, in causal order.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivered<T> {
    /// The producing process.
    pub process: usize,
    /// The event's vector clock.
    pub clock: VectorClock,
    /// The caller's payload.
    pub payload: T,
}

/// A held (not yet deliverable) event.
#[derive(Debug)]
struct Held<T> {
    process: usize,
    clock: VectorClock,
    payload: T,
}

/// A bounded causal-order delivery buffer for one monitored computation.
#[derive(Debug)]
pub struct CausalBuffer<T> {
    /// Per-process count of delivered events.
    delivered: Vec<u32>,
    /// Held events, oldest first (arrival order).
    held: VecDeque<Held<T>>,
    /// Held events per source process (drives finish-process deferral).
    held_by_source: Vec<u32>,
    capacity: usize,
    policy: OverflowPolicy,
    /// Most events ever held at once.
    high_water: usize,
}

impl<T> CausalBuffer<T> {
    /// A buffer for `n` processes holding at most `capacity` events.
    pub fn new(n: usize, capacity: usize, policy: OverflowPolicy) -> Self {
        CausalBuffer {
            delivered: vec![0; n],
            held: VecDeque::new(),
            held_by_source: vec![0; n],
            capacity,
            policy,
            high_water: 0,
        }
    }

    /// Rebuilds a buffer from persisted state: a delivered frontier and
    /// the held events (arrival order). Used by crash recovery; the
    /// high-water mark restarts at the restored backlog.
    ///
    /// A snapshot written before [`CausalBuffer::ingest`] refused
    /// duplicates of held events can carry a second copy of one, or a
    /// copy whose twin was delivered since. Neither can ever become
    /// deliverable, so they are dropped here rather than resurrected.
    pub fn restore(
        delivered: Vec<u32>,
        held: Vec<(usize, VectorClock, T)>,
        capacity: usize,
        policy: OverflowPolicy,
    ) -> Self {
        let mut b = CausalBuffer {
            held: VecDeque::with_capacity(held.len()),
            held_by_source: vec![0; delivered.len()],
            delivered,
            capacity,
            policy,
            high_water: 0,
        };
        for (process, clock, payload) in held {
            let seq = clock.get(process);
            if seq <= b.delivered[process] || b.holds(process, seq) {
                continue;
            }
            b.held_by_source[process] += 1;
            b.held.push_back(Held {
                process,
                clock,
                payload,
            });
        }
        b.high_water = b.held.len();
        b
    }

    /// The held events in arrival order, for persistence.
    pub fn held_events(&self) -> impl Iterator<Item = (usize, &VectorClock, &T)> {
        self.held.iter().map(|h| (h.process, &h.clock, &h.payload))
    }

    /// The number of processes.
    pub fn width(&self) -> usize {
        self.delivered.len()
    }

    /// Events currently held back.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// Events of process `p` currently held back.
    pub fn held_from(&self, p: usize) -> usize {
        self.held_by_source[p] as usize
    }

    /// The most events ever held at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Per-process delivered counts (the buffer's consistent frontier).
    pub fn frontier(&self) -> &[u32] {
        &self.delivered
    }

    /// Whether event `seq` of `process` is in the hold space.
    fn holds(&self, process: usize, seq: u32) -> bool {
        self.held
            .iter()
            .any(|h| h.process == process && h.clock.get(process) == seq)
    }

    fn deliverable(&self, process: usize, clock: &VectorClock) -> bool {
        clock.get(process) == self.delivered[process] + 1
            && (0..self.width()).all(|j| j == process || clock.get(j) <= self.delivered[j])
    }

    /// Accepts one event; returns everything that became deliverable, in
    /// causal order (the new event itself may or may not be included —
    /// it is held if its past is incomplete).
    pub fn ingest(
        &mut self,
        process: usize,
        clock: VectorClock,
        payload: T,
    ) -> Result<Vec<Delivered<T>>, IngestError> {
        let n = self.width();
        if process >= n {
            return Err(IngestError::BadProcess { process, width: n });
        }
        if clock.width() != n {
            return Err(IngestError::BadClockWidth {
                got: clock.width(),
                want: n,
            });
        }
        let seq = clock.get(process);
        if seq <= self.delivered[process] {
            return Err(IngestError::Duplicate { process, seq });
        }

        if self.deliverable(process, &clock) {
            let mut out = vec![self.deliver(process, clock, payload)];
            self.drain_held(&mut out);
            return Ok(out);
        }

        // Not deliverable yet. A second copy of a held event must not be
        // held too: once its twin is delivered it could never be, and
        // would pin `held_from(process)` above zero for good.
        if self.holds(process, seq) {
            return Err(IngestError::Duplicate { process, seq });
        }
        // Hold, within bounds.
        if self.held.len() >= self.capacity {
            match self.policy {
                OverflowPolicy::Reject => {
                    return Err(IngestError::Overflow {
                        capacity: self.capacity,
                    })
                }
                OverflowPolicy::DropNewest => return Err(IngestError::Dropped),
            }
        }
        self.held.push_back(Held {
            process,
            clock,
            payload,
        });
        self.held_by_source[process] += 1;
        self.high_water = self.high_water.max(self.held.len());
        Ok(Vec::new())
    }

    fn deliver(&mut self, process: usize, clock: VectorClock, payload: T) -> Delivered<T> {
        self.delivered[process] += 1;
        debug_assert_eq!(self.delivered[process], clock.get(process));
        Delivered {
            process,
            clock,
            payload,
        }
    }

    /// Releases held events until no more are deliverable.
    fn drain_held(&mut self, out: &mut Vec<Delivered<T>>) {
        loop {
            let pos = self
                .held
                .iter()
                .position(|h| self.deliverable(h.process, &h.clock));
            match pos {
                Some(i) => {
                    let h = self.held.remove(i).expect("position is in range");
                    self.held_by_source[h.process] -= 1;
                    out.push(self.deliver(h.process, h.clock, h.payload));
                }
                None => return,
            }
        }
    }

    /// Empties the hold space, returning the stranded events (arrival
    /// order). Used at session close: whatever is still held can never
    /// be delivered (its causal past is incomplete for good).
    pub fn discard_held(&mut self) -> Vec<(usize, VectorClock, T)> {
        self.held_by_source.iter_mut().for_each(|c| *c = 0);
        self.held
            .drain(..)
            .map(|h| (h.process, h.clock, h.payload))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clock helper.
    fn vc(components: &[u32]) -> VectorClock {
        VectorClock::from_components(components.to_vec())
    }

    #[test]
    fn in_order_stream_passes_through() {
        let mut b: CausalBuffer<u32> = CausalBuffer::new(2, 8, OverflowPolicy::Reject);
        let d = b.ingest(0, vc(&[1, 0]), 10).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].process, d[0].payload), (0, 10));
        let d = b.ingest(1, vc(&[0, 1]), 20).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(b.held(), 0);
    }

    #[test]
    fn out_of_order_delivery_is_held_and_cascades() {
        let mut b: CausalBuffer<&str> = CausalBuffer::new(2, 8, OverflowPolicy::Reject);
        // P1's receive of P0's message (clock [1,1]) arrives first.
        assert!(b.ingest(1, vc(&[1, 1]), "recv").unwrap().is_empty());
        assert_eq!(b.held(), 1);
        assert_eq!(b.held_from(1), 1);
        // P0's send arrives: both deliver, send first.
        let d = b.ingest(0, vc(&[1, 0]), "send").unwrap();
        assert_eq!(
            d.iter().map(|d| d.payload).collect::<Vec<_>>(),
            vec!["send", "recv"]
        );
        assert_eq!(b.held(), 0);
        assert_eq!(b.high_water(), 1);
    }

    #[test]
    fn per_process_gaps_are_held() {
        let mut b: CausalBuffer<u32> = CausalBuffer::new(1, 8, OverflowPolicy::Reject);
        assert!(b.ingest(0, vc(&[2]), 2).unwrap().is_empty()); // second first
        let d = b.ingest(0, vc(&[1]), 1).unwrap();
        assert_eq!(d.iter().map(|d| d.payload).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn duplicates_are_rejected_idempotently() {
        let mut b: CausalBuffer<u32> = CausalBuffer::new(2, 8, OverflowPolicy::Reject);
        b.ingest(0, vc(&[1, 0]), 1).unwrap();
        assert_eq!(
            b.ingest(0, vc(&[1, 0]), 1).unwrap_err(),
            IngestError::Duplicate { process: 0, seq: 1 }
        );
        // Replays of older events are duplicates too, whatever the rest
        // of the clock says.
        b.ingest(0, vc(&[2, 0]), 2).unwrap();
        assert!(matches!(
            b.ingest(0, vc(&[1, 0]), 1),
            Err(IngestError::Duplicate { .. })
        ));
    }

    #[test]
    fn a_second_copy_of_a_held_event_is_a_duplicate() {
        let mut b: CausalBuffer<u32> = CausalBuffer::new(2, 8, OverflowPolicy::Reject);
        // P1's receive is held waiting for P0's send; an at-least-once
        // client re-sends it.
        assert!(b.ingest(1, vc(&[1, 1]), 7).unwrap().is_empty());
        assert_eq!(
            b.ingest(1, vc(&[1, 1]), 7).unwrap_err(),
            IngestError::Duplicate { process: 1, seq: 1 }
        );
        assert_eq!(b.held(), 1);
        // The send releases the one held copy and leaves nothing behind.
        assert_eq!(b.ingest(0, vc(&[1, 0]), 3).unwrap().len(), 2);
        assert_eq!((b.held(), b.held_from(1)), (0, 0));
    }

    #[test]
    fn restore_drops_stale_and_duplicated_held_entries() {
        // What a build without the check above could have persisted:
        // P1's event 2 held twice, and a copy of its delivered event 1.
        let held = vec![
            (1, vc(&[1, 2]), 20),
            (1, vc(&[1, 2]), 21),
            (1, vc(&[0, 1]), 10),
        ];
        let mut r = CausalBuffer::restore(vec![0, 1], held, 8, OverflowPolicy::Reject);
        assert_eq!((r.held(), r.held_from(1), r.high_water()), (1, 1, 1));
        let d = r.ingest(0, vc(&[1, 0]), 1).unwrap();
        assert_eq!(d.iter().map(|d| d.payload).collect::<Vec<_>>(), vec![1, 20]);
        assert_eq!(r.held(), 0);
    }

    #[test]
    fn reject_policy_applies_backpressure_then_recovers() {
        let mut b: CausalBuffer<u32> = CausalBuffer::new(2, 2, OverflowPolicy::Reject);
        // Three undeliverable events against capacity 2.
        assert!(b.ingest(1, vc(&[1, 1]), 0).unwrap().is_empty());
        assert!(b.ingest(1, vc(&[1, 2]), 0).unwrap().is_empty());
        assert_eq!(
            b.ingest(1, vc(&[1, 3]), 0).unwrap_err(),
            IngestError::Overflow { capacity: 2 }
        );
        // Delivering the missing predecessor drains the hold space…
        let d = b.ingest(0, vc(&[1, 0]), 9).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(b.held(), 0);
        // …and the rejected event can be retried.
        let d = b.ingest(1, vc(&[1, 3]), 0).unwrap();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn drop_newest_policy_refuses_without_holding() {
        let mut b: CausalBuffer<u32> = CausalBuffer::new(2, 1, OverflowPolicy::DropNewest);
        assert!(b.ingest(1, vc(&[1, 1]), 0).unwrap().is_empty());
        assert_eq!(
            b.ingest(1, vc(&[1, 2]), 0).unwrap_err(),
            IngestError::Dropped
        );
        assert_eq!(b.held(), 1);
    }

    #[test]
    fn rejects_bad_process_and_clock_width() {
        let mut b: CausalBuffer<u32> = CausalBuffer::new(2, 8, OverflowPolicy::Reject);
        assert!(matches!(
            b.ingest(5, vc(&[1, 0]), 0),
            Err(IngestError::BadProcess {
                process: 5,
                width: 2
            })
        ));
        assert!(matches!(
            b.ingest(0, vc(&[1, 0, 0]), 0),
            Err(IngestError::BadClockWidth { got: 3, want: 2 })
        ));
    }

    #[test]
    fn restore_resumes_exactly_where_the_old_buffer_stopped() {
        let mut b: CausalBuffer<u32> = CausalBuffer::new(2, 8, OverflowPolicy::Reject);
        b.ingest(0, vc(&[1, 0]), 1).unwrap();
        b.ingest(1, vc(&[1, 2]), 9).unwrap(); // held: needs [*,1]
        let frontier = b.frontier().to_vec();
        let held: Vec<_> = b
            .held_events()
            .map(|(p, c, payload)| (p, c.clone(), *payload))
            .collect();
        let mut r = CausalBuffer::restore(frontier, held, 8, OverflowPolicy::Reject);
        assert_eq!(r.held(), 1);
        assert_eq!(r.held_from(1), 1);
        // The missing event releases the restored held one, in order.
        let d = r.ingest(1, vc(&[1, 1]), 8).unwrap();
        assert_eq!(d.iter().map(|d| d.payload).collect::<Vec<_>>(), vec![8, 9]);
        // And duplicates of already-delivered events stay duplicates.
        assert!(matches!(
            r.ingest(0, vc(&[1, 0]), 1),
            Err(IngestError::Duplicate { .. })
        ));
    }

    #[test]
    fn discard_returns_stranded_events() {
        let mut b: CausalBuffer<u32> = CausalBuffer::new(2, 8, OverflowPolicy::Reject);
        b.ingest(1, vc(&[1, 1]), 7).unwrap();
        b.ingest(1, vc(&[1, 2]), 8).unwrap();
        let stranded = b.discard_held();
        assert_eq!(stranded.len(), 2);
        assert_eq!(b.held(), 0);
        assert_eq!(b.held_from(1), 0);
    }
}

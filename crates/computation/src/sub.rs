//! Restriction and reversal of computations.
//!
//! * [`Computation::restricted_to`] — the sub-computation induced by a
//!   consistent cut: the object the paper's Algorithm A3 checks `EG(p)`
//!   on, `I_q − {e}` for each maximal event `e` of `I_q`. It keeps every
//!   clock and state below the cut, so A3 walks the original computation
//!   from that cut instead, and tests use this copy as the reference.
//! * [`Computation::reversed`] — the order-dual computation, used to test
//!   the join-/meet-irreducible duality and to derive post-linear
//!   algorithms from linear ones.

use crate::computation::Computation;
use crate::cut::Cut;
use crate::event::{Event, EventId, EventKind, Message};
use hb_vclock::VectorClock;

impl Computation {
    /// The sub-computation containing exactly the events of consistent cut
    /// `g` (per-process prefixes). Local states, labels, messages, and
    /// clocks carry over unchanged; messages whose receive lies outside
    /// `g` are demoted to internal events (their send no longer pairs).
    ///
    /// # Panics
    /// Panics if `g` is not a consistent cut of `self`.
    pub fn restricted_to(&self, g: &Cut) -> Computation {
        assert!(
            self.is_consistent(g),
            "restriction requires a consistent cut"
        );
        let n = self.num_processes();
        let mut events: Vec<Vec<Event>> = Vec::with_capacity(n);
        let mut clocks: Vec<Vec<VectorClock>> = Vec::with_capacity(n);
        for i in 0..n {
            let take = g.get(i) as usize;
            events.push(self.events[i][..take].to_vec());
            clocks.push(self.clocks[i][..take].to_vec());
        }

        // Keep messages fully inside the cut; renumber them. Since g is
        // consistent, a receive inside the cut implies its send is inside.
        let mut messages = Vec::new();
        let mut remap = vec![usize::MAX; self.messages.len()];
        for (old_idx, m) in self.messages.iter().enumerate() {
            let recv_in = g.get(m.receive.process) as usize > m.receive.index;
            if recv_in {
                remap[old_idx] = messages.len();
                messages.push(*m);
            }
        }
        for row in &mut events {
            for ev in row.iter_mut() {
                match ev.kind {
                    EventKind::Send { msg } => {
                        ev.kind = if remap[msg] != usize::MAX {
                            EventKind::Send { msg: remap[msg] }
                        } else {
                            // Send whose receive fell outside the cut.
                            EventKind::Internal
                        };
                    }
                    EventKind::Receive { msg } => {
                        debug_assert_ne!(remap[msg], usize::MAX);
                        ev.kind = EventKind::Receive { msg: remap[msg] };
                    }
                    EventKind::Internal => {}
                }
            }
        }

        Computation {
            vars: self.vars.clone(),
            initial_states: self.initial_states.clone(),
            events,
            messages,
            clocks,
        }
    }

    /// The order-dual computation: every process's event sequence is
    /// reversed and every message flipped (receive becomes send). The
    /// consistent cuts of the result are exactly the complements of the
    /// consistent cuts of `self`, so join-irreducibles map to
    /// meet-irreducibles and vice versa.
    ///
    /// Local states do **not** survive reversal meaningfully (a state
    /// describes the world *after* an event); the reversed computation
    /// carries each event's *pre*-state so that structural algorithms that
    /// also consult states remain usable in tests. Labels gain a `~`
    /// prefix to flag the reversal.
    pub fn reversed(&self) -> Computation {
        let n = self.num_processes();
        let mut b_events: Vec<Vec<Event>> = vec![Vec::new(); n];

        // Flip messages: old (send → receive) becomes (receive → send).
        let mut messages = Vec::with_capacity(self.messages.len());
        let flip = |id: EventId, this: &Computation| -> EventId {
            EventId::new(id.process, this.events[id.process].len() - 1 - id.index)
        };
        for m in &self.messages {
            messages.push(Message {
                send: flip(m.receive, self),
                receive: flip(m.send, self),
            });
        }

        for (i, row) in b_events.iter_mut().enumerate() {
            let m_i = self.events[i].len();
            for k in (0..m_i).rev() {
                let old = &self.events[i][k];
                let kind = match old.kind {
                    EventKind::Internal => EventKind::Internal,
                    EventKind::Send { msg } => EventKind::Receive { msg },
                    EventKind::Receive { msg } => EventKind::Send { msg },
                };
                // Pre-state of old event k = state after event k-1.
                let state = self.local_state(i, k as u32).clone();
                let label = old.label.as_ref().map(|l| format!("~{l}"));
                row.push(Event { kind, label, state });
            }
        }

        // Recompute clocks by a forward pass over the reversed structure.
        let clocks = compute_clocks(&b_events, &messages, n);

        // Initial states of the reversal are the final states of self.
        let initial_states = (0..n)
            .map(|i| self.local_state(i, self.events[i].len() as u32).clone())
            .collect();

        Computation {
            vars: self.vars.clone(),
            initial_states,
            events: b_events,
            messages,
            clocks,
        }
    }
}

/// Standard vector-clock sweep for an event structure given as per-process
/// sequences plus a message relation. Receives may depend on sends later in
/// the scan order, so we iterate to a fixpoint over a worklist in
/// topological order (Kahn's algorithm over process-order + message edges).
pub(crate) fn compute_clocks(
    events: &[Vec<Event>],
    messages: &[Message],
    n: usize,
) -> Vec<Vec<VectorClock>> {
    let mut clocks: Vec<Vec<Option<VectorClock>>> =
        events.iter().map(|es| vec![None; es.len()]).collect();
    let mut send_of: Vec<Option<EventId>> = vec![None; messages.len()];
    for (mi, m) in messages.iter().enumerate() {
        send_of[mi] = Some(m.send);
    }

    let total: usize = events.iter().map(Vec::len).sum();
    let mut done = 0usize;
    // Quadratic fixpoint is fine here: reversal is a test/analysis utility,
    // not a hot path.
    while done < total {
        let mut progressed = false;
        for i in 0..n {
            for k in 0..events[i].len() {
                if clocks[i][k].is_some() {
                    continue;
                }
                if k > 0 && clocks[i][k - 1].is_none() {
                    continue;
                }
                let dep = match events[i][k].kind {
                    EventKind::Receive { msg } => {
                        let s = send_of[msg].expect("message has a send");
                        match &clocks[s.process][s.index] {
                            Some(c) => Some(c.clone()),
                            None => continue,
                        }
                    }
                    _ => None,
                };
                let mut clock = if k == 0 {
                    VectorClock::new(n)
                } else {
                    clocks[i][k - 1].clone().unwrap()
                };
                if let Some(d) = dep {
                    clock.merge(&d);
                }
                clock.tick(i);
                clocks[i][k] = Some(clock);
                done += 1;
                progressed = true;
            }
        }
        assert!(progressed, "cycle in reversed computation (impossible)");
    }
    clocks
        .into_iter()
        .map(|row| row.into_iter().map(Option::unwrap).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComputationBuilder;

    fn diamond() -> Computation {
        // P0: a(send m) b ; P1: c d(recv m)
        let mut b = ComputationBuilder::new(2);
        let m = b.send(0).label("a").done_send();
        b.internal(0).label("b").done();
        b.internal(1).label("c").done();
        b.receive(1, m).label("d").done();
        b.finish().unwrap()
    }

    #[test]
    fn restriction_keeps_prefixes_and_messages() {
        let c = diamond();
        let g = Cut::from_counters(vec![1, 2]); // {a, c, d}
        assert!(c.is_consistent(&g));
        let sub = c.restricted_to(&g);
        assert_eq!(sub.num_events(), 3);
        assert_eq!(sub.messages().len(), 1);
        assert!(sub.is_consistent(&sub.final_cut()));
        assert_eq!(sub.final_cut(), g);
        // Clocks carry over unchanged.
        assert_eq!(sub.clock(EventId::new(1, 1)), c.clock(EventId::new(1, 1)));
    }

    #[test]
    fn restriction_demotes_unreceived_sends() {
        let c = diamond();
        let g = Cut::from_counters(vec![2, 1]); // {a, b, c}: send without recv
        assert!(c.is_consistent(&g));
        let sub = c.restricted_to(&g);
        assert_eq!(sub.messages().len(), 0);
        assert_eq!(sub.event(EventId::new(0, 0)).kind, EventKind::Internal);
    }

    #[test]
    #[should_panic(expected = "consistent cut")]
    fn restriction_rejects_inconsistent_cut() {
        let c = diamond();
        c.restricted_to(&Cut::from_counters(vec![0, 2])); // recv without send
    }

    #[test]
    fn reversal_flips_happened_before() {
        let c = diamond();
        let r = c.reversed();
        assert_eq!(r.num_events(), c.num_events());
        // Original a → d becomes ~d → ~a.
        let ra = r.event_by_label("~a").unwrap();
        let rd = r.event_by_label("~d").unwrap();
        assert!(r.happened_before(rd, ra));
        assert!(!r.happened_before(ra, rd));
    }

    #[test]
    fn reversal_is_involutive_on_structure() {
        let c = diamond();
        let rr = c.reversed().reversed();
        for (e, f) in [(0usize, 1usize), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            let ids: Vec<EventId> = c.event_ids().collect();
            assert_eq!(
                c.happened_before(ids[e], ids[f]),
                rr.happened_before(ids[e], ids[f]),
                "pair {e},{f}"
            );
        }
    }

    #[test]
    fn reversed_cuts_are_complements() {
        let c = diamond();
        let r = c.reversed();
        // g consistent in c  iff  complement consistent in r.
        let final_cut = c.final_cut();
        for a in 0..=final_cut.get(0) {
            for b in 0..=final_cut.get(1) {
                let g = Cut::from_counters(vec![a, b]);
                let comp = Cut::from_counters(vec![final_cut.get(0) - a, final_cut.get(1) - b]);
                assert_eq!(c.is_consistent(&g), r.is_consistent(&comp), "cut {g}");
            }
        }
    }
}

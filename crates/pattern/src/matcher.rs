//! The online predictive pattern detector.
//!
//! # Algorithm
//!
//! A *k-chain* is a tuple of distinct events matching atoms `a₁ … a_k`
//! that some linearization orders as written. By the pairwise lemma
//! (crate docs), whether a k-chain can grow depends only on
//!
//! * `join` — the componentwise maximum of its events' vector clocks
//!   (event `e` on process `p` extends the chain iff `join[p] <
//!   C_e[p]`), and
//! * `last` — the clock of its slot-`k` event, consulted only when the
//!   next atom is linked by a causal `~>` edge (which demands
//!   `last ≤ C_e`, i.e. real happened-before, not mere linearizability).
//!
//! Componentwise-smaller `(join, last)` pairs extend strictly more
//! often, so per slot the matcher keeps only the Pareto frontier of
//! minimal pairs — `frontiers[k]` is an antichain summarizing *every*
//! valid k-chain. A detected verdict is `frontiers[d]` turning
//! non-empty; `Impossible` only once every process has finished.
//!
//! Two index structures keep the work near-constant per event:
//!
//! * `candidates[k][p]` — clocks of the process-`p` events that matched
//!   atom `a_{k+1}`, in per-process (= clock-monotone) order. When a new
//!   chain enters `frontiers[k]`, its eligible extensions on `p` form a
//!   *suffix* of this list (both eligibility tests are monotone along a
//!   process line), and the suffix's **first** element yields the
//!   pointwise-minimal extension — every later candidate produces a
//!   dominated chain. One binary search per process replaces a scan.
//! * On event arrival the reverse direction runs: the event is tested
//!   against the current frontier entries of each atom it matches.
//!
//! Per event the work is `O(Σ_k matches · (F + n log m))` where `F` is
//! the frontier width and `m` the candidate-list length; `F` is bounded
//! by the width of the happened-before order (an antichain of clock
//! joins), in practice a small constant, giving the amortized-O(1)
//! per-event behavior the bench (`BENCH_pattern.json`) tracks.

use hb_computation::Cut;
use hb_detect::online::{
    DetectorState, OnlineMonitor, OnlineVerdict, PatternChainState, PatternState, VerdictState,
};
use hb_tracefmt::wire::WirePattern;
use hb_vclock::VectorClock;

/// One Pareto-frontier entry: the live form of [`PatternChainState`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Chain {
    join: Vec<u32>,
    last: Vec<u32>,
}

fn le(a: &[u32], b: &[u32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

fn join(a: &[u32], b: &[u32]) -> Vec<u32> {
    a.iter().zip(b).map(|(x, y)| *x.max(y)).collect()
}

/// Can an event on process `p` with clock `c` take the next slot after
/// `chain`? `causal` is the edge kind linking the two atoms.
fn eligible(chain: &Chain, p: usize, c: &[u32], causal: bool) -> bool {
    chain.join[p] < c[p] && (!causal || le(&chain.last, c))
}

/// The online predictive detector for one pattern. Implements
/// [`OnlineMonitor`], so a monitoring service can hold it next to the
/// state-predicate detectors and persist it through the same
/// export/restore path.
///
/// The matcher never sees variable values: the caller labels each event
/// with a bitmask (`bit k` = the event matches atom `k`) and calls
/// [`OnlineMonitor::observe_atoms`]. Events must arrive in per-process
/// order; cross-process order is free (causal delivery is sufficient
/// but not necessary).
#[derive(Debug)]
pub struct PredictiveMatcher {
    n: usize,
    /// `causal[k]` = atom `k` is linked to atom `k-1` by `~>`;
    /// `causal[0]` is always `false`. `causal.len()` is the pattern
    /// length `d`.
    causal: Vec<bool>,
    /// `frontiers[k]`: minimal `(join, last)` pairs over valid
    /// k-chains, `0 ≤ k ≤ d`. `frontiers[0]` is the empty chain.
    frontiers: Vec<Vec<Chain>>,
    /// `candidates[k][p]`: clocks of process-`p` events matching atom
    /// `k`, in arrival order.
    candidates: Vec<Vec<Vec<Vec<u32>>>>,
    finished: Vec<bool>,
    seen: Vec<u32>,
    verdict: OnlineVerdict,
}

impl PredictiveMatcher {
    /// A matcher over `n` processes for a `causal.len()`-atom pattern;
    /// `causal[k]` marks atoms reached through a `~>` edge.
    ///
    /// # Panics
    ///
    /// If the pattern is empty, longer than 64 atoms (the label-mask
    /// width), or marks its first atom causal (there is no previous
    /// atom to be causally after).
    pub fn new(n: usize, causal: Vec<bool>) -> Self {
        let d = causal.len();
        assert!(d >= 1, "empty pattern");
        assert!(d <= 64, "pattern longer than the 64-bit label mask");
        assert!(!causal[0], "first atom cannot be causal");
        let mut frontiers = vec![Vec::new(); d + 1];
        frontiers[0].push(Chain {
            join: vec![0; n],
            last: vec![0; n],
        });
        PredictiveMatcher {
            n,
            causal,
            frontiers,
            candidates: vec![vec![Vec::new(); n]; d],
            finished: vec![false; n],
            seen: vec![0; n],
            verdict: OnlineVerdict::Pending,
        }
    }

    /// A matcher shaped by a wire pattern (the atoms' `causal` flags;
    /// label evaluation stays with the caller).
    pub fn from_wire(n: usize, pattern: &WirePattern) -> Self {
        PredictiveMatcher::new(n, pattern.atoms.iter().map(|a| a.causal).collect())
    }

    /// Rebuilds a matcher from exported state.
    pub fn from_state(s: &PatternState) -> Self {
        PredictiveMatcher {
            n: s.n,
            causal: s.causal.clone(),
            frontiers: s
                .frontiers
                .iter()
                .map(|f| {
                    f.iter()
                        .map(|c| Chain {
                            join: c.join.clone(),
                            last: c.last.clone(),
                        })
                        .collect()
                })
                .collect(),
            candidates: s.candidates.clone(),
            finished: s.finished.clone(),
            seen: s.seen.clone(),
            verdict: s.verdict.to_verdict(),
        }
    }

    /// The pattern length `d`.
    pub fn atoms(&self) -> usize {
        self.causal.len()
    }

    /// The mask selecting every atom — what a caller without per-atom
    /// labels feeds through the boolean [`OnlineMonitor::observe`].
    fn full_mask(&self) -> u64 {
        u64::MAX >> (64 - self.causal.len())
    }

    /// Inserts a chain into `frontiers[slot]` (dominance-filtered) and,
    /// when it survives, extends it with the first eligible existing
    /// candidate per process — cascading through later slots via an
    /// explicit worklist. Sets the verdict when slot `d` fills.
    fn insert(&mut self, slot: usize, chain: Chain) {
        let d = self.causal.len();
        let mut work = vec![(slot, chain)];
        while let Some((s, ch)) = work.pop() {
            if matches!(self.verdict, OnlineVerdict::Detected(_)) {
                return;
            }
            let frontier = &mut self.frontiers[s];
            if frontier
                .iter()
                .any(|e| le(&e.join, &ch.join) && le(&e.last, &ch.last))
            {
                continue; // dominated: an at-least-as-extendable chain exists
            }
            frontier.retain(|e| !(le(&ch.join, &e.join) && le(&ch.last, &e.last)));
            frontier.push(ch.clone());
            if s == d {
                // The chain's join is the counters of the least
                // consistent cut containing the whole witness.
                self.verdict = OnlineVerdict::Detected(Cut::from_counters(ch.join));
                return;
            }
            for p in 0..self.n {
                let list = &self.candidates[s][p];
                // Eligibility is monotone along a process line (own
                // components strictly increase, clocks grow pointwise),
                // so the eligible candidates are a suffix; the first
                // one dominates the rest.
                let first = list.partition_point(|c| !eligible(&ch, p, c, self.causal[s]));
                if let Some(c) = list.get(first) {
                    work.push((
                        s + 1,
                        Chain {
                            join: join(&ch.join, c),
                            last: c.clone(),
                        },
                    ));
                }
            }
        }
    }
}

/// Restores the one detector kind [`hb_detect::online::restore_monitor`]
/// cannot build (the matcher lives here, above `hb-detect`), delegating
/// the state-predicate kinds back to it.
pub fn restore_any(state: &DetectorState) -> Box<dyn OnlineMonitor + Send> {
    match state {
        DetectorState::Pattern(s) => Box::new(restore_pattern(s)),
        other => hb_detect::online::restore_monitor(other),
    }
}

/// Rebuilds a matcher from exported pattern state.
pub fn restore_pattern(state: &PatternState) -> PredictiveMatcher {
    PredictiveMatcher::from_state(state)
}

impl OnlineMonitor for PredictiveMatcher {
    /// Boolean fallback: `holds` marks the event as matching **every**
    /// atom. Real callers label per atom via
    /// [`OnlineMonitor::observe_atoms`].
    fn observe(&mut self, i: usize, holds: bool, clock: &VectorClock) -> OnlineVerdict {
        let mask = if holds { self.full_mask() } else { 0 };
        self.observe_atoms(i, mask, clock)
    }

    fn observe_atoms(&mut self, i: usize, mask: u64, clock: &VectorClock) -> OnlineVerdict {
        assert!(!self.finished[i], "process {i} already finished");
        self.seen[i] += 1;
        // An event that matches no atom (most of a stream) joins no
        // candidate list and extends no chain.
        if mask == 0 || matches!(self.verdict, OnlineVerdict::Detected(_)) {
            return self.verdict.clone(); // nothing to do, or already answered
        }
        let c = clock.components().to_vec();
        let d = self.causal.len();
        for k in 0..d {
            if mask >> k & 1 == 0 {
                continue;
            }
            self.candidates[k][i].push(c.clone());
            // Try the new event as slot k+1 of every minimal k-chain.
            // (Chains the event itself just completed at earlier bits
            // reject it — appending an event already in the chain fails
            // the `join[p] < C_e[p]` test.)
            let chains = self.frontiers[k].clone();
            for ch in chains {
                if eligible(&ch, i, &c, self.causal[k]) {
                    self.insert(
                        k + 1,
                        Chain {
                            join: join(&ch.join, &c),
                            last: c.clone(),
                        },
                    );
                    if matches!(self.verdict, OnlineVerdict::Detected(_)) {
                        return self.verdict.clone();
                    }
                }
            }
        }
        self.verdict.clone()
    }

    fn finish_process(&mut self, i: usize) -> OnlineVerdict {
        self.finished[i] = true;
        if self.finished.iter().all(|&f| f) && matches!(self.verdict, OnlineVerdict::Pending) {
            // More events can only add chains, so a pattern still
            // unmatched when the trace ends can never match.
            self.verdict = OnlineVerdict::Impossible;
        }
        self.verdict.clone()
    }

    fn verdict(&self) -> &OnlineVerdict {
        &self.verdict
    }

    fn export_state(&self) -> DetectorState {
        DetectorState::Pattern(PatternState {
            n: self.n,
            causal: self.causal.clone(),
            frontiers: self
                .frontiers
                .iter()
                .map(|f| {
                    f.iter()
                        .map(|c| PatternChainState {
                            join: c.join.clone(),
                            last: c.last.clone(),
                        })
                        .collect()
                })
                .collect(),
            candidates: self.candidates.clone(),
            finished: self.finished.clone(),
            seen: self.seen.clone(),
            verdict: VerdictState::from_verdict(&self.verdict),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(components: &[u32]) -> VectorClock {
        VectorClock::from_components(components.to_vec())
    }

    /// The canonical inversion: P0 locks (observed first), P1 unlocks,
    /// concurrently. Delivered order never shows unlock-then-lock, but
    /// a linearization exists that does — predictive detection fires.
    #[test]
    fn detects_a_reordered_match_the_delivered_order_never_shows() {
        let mut m = PredictiveMatcher::new(2, vec![false, false]);
        // atom 0 = unlock, atom 1 = lock. Lock arrives first.
        let v = m.observe_atoms(0, 0b10, &vc(&[1, 0]));
        assert_eq!(v, OnlineVerdict::Pending);
        let v = m.observe_atoms(1, 0b01, &vc(&[0, 1]));
        assert_eq!(
            v,
            OnlineVerdict::Detected(Cut::from_counters(vec![1, 1])),
            "concurrent events linearize either way"
        );
    }

    /// The same two events, but causally ordered lock → unlock: no
    /// linearization reorders them, so the pattern cannot match.
    #[test]
    fn respects_happened_before() {
        let mut m = PredictiveMatcher::new(2, vec![false, false]);
        m.observe_atoms(0, 0b10, &vc(&[1, 0])); // lock at P0
        m.observe_atoms(1, 0b01, &vc(&[1, 1])); // unlock at P1, after the lock
        for i in 0..2 {
            m.finish_process(i);
        }
        assert_eq!(*OnlineMonitor::verdict(&m), OnlineVerdict::Impossible);
    }

    /// `~>` demands real causality between consecutive matches, not
    /// mere linearizability.
    #[test]
    fn causal_edges_reject_concurrent_pairs() {
        // Concurrent a then b: `a -> b` matches, `a ~> b` must not.
        let mut plain = PredictiveMatcher::new(2, vec![false, false]);
        plain.observe_atoms(0, 0b01, &vc(&[1, 0]));
        let v = plain.observe_atoms(1, 0b10, &vc(&[0, 1]));
        assert!(matches!(v, OnlineVerdict::Detected(_)));

        let mut causal = PredictiveMatcher::new(2, vec![false, true]);
        causal.observe_atoms(0, 0b01, &vc(&[1, 0]));
        causal.observe_atoms(1, 0b10, &vc(&[0, 1]));
        for i in 0..2 {
            causal.finish_process(i);
        }
        assert_eq!(*OnlineMonitor::verdict(&causal), OnlineVerdict::Impossible);

        // Causally ordered a ~> b does match.
        let mut ordered = PredictiveMatcher::new(2, vec![false, true]);
        ordered.observe_atoms(0, 0b01, &vc(&[1, 0]));
        let v = ordered.observe_atoms(1, 0b10, &vc(&[1, 1]));
        assert_eq!(v, OnlineVerdict::Detected(Cut::from_counters(vec![1, 1])));
    }

    /// One event cannot fill two slots of the same chain, even when it
    /// matches both atoms.
    #[test]
    fn one_event_cannot_match_twice_in_a_chain() {
        let mut m = PredictiveMatcher::new(1, vec![false, false]);
        let v = m.observe_atoms(0, 0b11, &vc(&[1]));
        assert_eq!(v, OnlineVerdict::Pending);
        // A second both-atom event completes it (either order works on
        // one process? no — same process is totally ordered, so only
        // delivered order): first event as a₁, second as a₂.
        let v = m.observe_atoms(0, 0b11, &vc(&[2]));
        assert_eq!(v, OnlineVerdict::Detected(Cut::from_counters(vec![2])));
    }

    /// An event arriving *before* the chain it extends is still found —
    /// the candidate lists carry the past.
    #[test]
    fn late_chains_pick_up_early_candidates() {
        let mut m = PredictiveMatcher::new(2, vec![false, false]);
        // The a₂-event arrives first (concurrent with everything so far).
        m.observe_atoms(1, 0b10, &vc(&[0, 1]));
        // Then the a₁-event: the frontier insertion must look back.
        let v = m.observe_atoms(0, 0b01, &vc(&[1, 0]));
        assert_eq!(v, OnlineVerdict::Detected(Cut::from_counters(vec![1, 1])));
    }

    #[test]
    fn export_restore_round_trip_mid_run() {
        let mut m = PredictiveMatcher::new(3, vec![false, true, false]);
        m.observe_atoms(0, 0b001, &vc(&[1, 0, 0]));
        m.observe_atoms(1, 0b010, &vc(&[1, 1, 0]));
        m.observe_atoms(2, 0b000, &vc(&[0, 0, 1]));
        let exported = m.export_state();
        let mut resumed = restore_any(&exported);
        assert_eq!(resumed.export_state(), exported, "export is stable");
        // Finish the pattern on both copies identically.
        let v1 = m.observe_atoms(2, 0b100, &vc(&[1, 1, 2]));
        let v2 = resumed.observe_atoms(2, 0b100, &vc(&[1, 1, 2]));
        assert_eq!(v1, v2);
        assert!(matches!(v1, OnlineVerdict::Detected(_)));
    }

    /// `restore_any` is the one restore entry point a service needs:
    /// it dispatches pattern state here and delegates the
    /// state-predicate variants to `hb_detect` — all three round-trip.
    #[test]
    fn restore_any_round_trips_every_variant() {
        use hb_detect::online::{OnlineEfConjunctive, OnlineEfDisjunctive};
        let mut conj = OnlineEfConjunctive::new(2, vec![true, true], vec![false, false]);
        OnlineMonitor::observe(&mut conj, 0, true, &vc(&[1, 0]));
        let mut disj = OnlineEfDisjunctive::new(2, vec![false, false]);
        OnlineMonitor::observe(&mut disj, 1, false, &vc(&[0, 1]));
        let mut pat = PredictiveMatcher::new(2, vec![false, false]);
        pat.observe_atoms(0, 0b01, &vc(&[1, 0]));
        let exports = [
            OnlineMonitor::export_state(&conj),
            OnlineMonitor::export_state(&disj),
            pat.export_state(),
        ];
        for exported in &exports {
            let restored = restore_any(exported);
            assert_eq!(&restored.export_state(), exported);
        }
    }

    #[test]
    fn frontier_stays_an_antichain() {
        let mut m = PredictiveMatcher::new(2, vec![false, false]);
        // Two a₁-matches on one process: the later one is dominated and
        // must not widen the frontier.
        m.observe_atoms(0, 0b01, &vc(&[1, 0]));
        m.observe_atoms(0, 0b01, &vc(&[2, 0]));
        assert_eq!(m.frontiers[1].len(), 1);
        assert_eq!(m.frontiers[1][0].join, vec![1, 0]);
        // A concurrent a₁ on the other process is incomparable: kept.
        m.observe_atoms(1, 0b01, &vc(&[0, 1]));
        assert_eq!(m.frontiers[1].len(), 2);
    }

    #[test]
    #[should_panic(expected = "first atom cannot be causal")]
    fn rejects_leading_causal_edge() {
        PredictiveMatcher::new(2, vec![true]);
    }
}

//! The O(1)-per-event membership filter of a distributed session's
//! worker.

use crate::{clause_vars, SkipReason, SliceDelta};
use hb_computation::{LocalState, VarId};
use hb_predicates::LocalExpr;

/// Decides, per delivered event, whether the event is a slice member:
/// the membership bit the detector observes as the event's clause
/// truth (see the crate docs).
///
/// The filter holds no clocks and computes no cuts: membership of an
/// event for a conjunctive predicate depends only on whether its
/// process participates and whether the clause holds on the
/// post-state, which the filter tracks with a cached truth value per
/// process and the clause's variable footprint (events that assign
/// none of the clause's variables cannot change it).
#[derive(Debug, Clone)]
pub struct SliceFilter {
    /// Per-process clause variable footprint; `None` = non-participating.
    deps: Vec<Option<Vec<VarId>>>,
    /// Cached clause truth of each process's current state.
    holds: Vec<bool>,
    events_in: u64,
    events_filtered: u64,
    /// `(events_in, events_filtered)` as of the last
    /// [`SliceFilter::take_stats`].
    reported: (u64, u64),
}

/// Exportable dynamic state of a [`SliceFilter`], persisted through
/// WAL snapshots of the worker that owns it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SliceState {
    /// Cached clause truth per process.
    pub holds: Vec<bool>,
    /// Total events offered to the filter.
    pub events_in: u64,
    /// Events the filter proved irrelevant.
    pub events_filtered: u64,
}

impl SliceFilter {
    /// Builds a filter for a per-process clause table (the open's
    /// folded conjunctive clauses) and the processes' initial states.
    pub fn from_clauses(clauses: &[Option<LocalExpr>], initial: &[LocalState]) -> SliceFilter {
        assert_eq!(clauses.len(), initial.len());
        let deps: Vec<Option<Vec<VarId>>> = clauses
            .iter()
            .map(|c| c.as_ref().map(clause_vars))
            .collect();
        let holds = clauses
            .iter()
            .zip(initial)
            .map(|(c, s)| c.as_ref().is_none_or(|e| e.eval(s)))
            .collect();
        SliceFilter {
            deps,
            holds,
            events_in: 0,
            events_filtered: 0,
            reported: (0, 0),
        }
    }

    /// Classifies the next delivered event of process `p`.
    ///
    /// `touched` iterates the variables the event assigns; `eval` is
    /// called at most once, only when the clause truth can have
    /// changed, and must evaluate the clause on the **post**-state
    /// (the worker applies the payload before filtering).
    pub fn advance(
        &mut self,
        p: usize,
        touched: impl IntoIterator<Item = VarId>,
        eval: impl FnOnce() -> bool,
    ) -> SliceDelta {
        self.events_in += 1;
        let Some(dep) = &self.deps[p] else {
            return self.skip(SkipReason::NonParticipating);
        };
        let relevant = touched.into_iter().any(|v| dep.contains(&v));
        if relevant {
            self.holds[p] = eval();
        } else if !self.holds[p] {
            return self.skip(SkipReason::Untouched);
        }
        if self.holds[p] {
            SliceDelta::Enter
        } else {
            self.skip(SkipReason::ClauseFalse)
        }
    }

    fn skip(&mut self, reason: SkipReason) -> SliceDelta {
        self.events_filtered += 1;
        SliceDelta::Skip { reason }
    }

    /// Total events offered to the filter.
    pub fn events_in(&self) -> u64 {
        self.events_in
    }

    /// Events the filter proved irrelevant.
    pub fn events_filtered(&self) -> u64 {
        self.events_filtered
    }

    /// `(Δevents_in, Δevents_filtered)` since the previous call, or
    /// `None` when nothing moved. Advances the watermark, so each
    /// observation is reported exactly once. A restored filter starts
    /// with the watermark at zero: its first report resyncs fresh
    /// metrics with the recovered totals.
    pub fn take_stats(&mut self) -> Option<(u64, u64)> {
        let total = (self.events_in, self.events_filtered);
        let delta = (total.0 - self.reported.0, total.1 - self.reported.1);
        self.reported = total;
        (delta != (0, 0)).then_some(delta)
    }

    /// Restarts the [`SliceFilter::take_stats`] watermark at zero, as
    /// after a restore: the next call reports lifetime totals. For a
    /// filter whose earlier reports went to a metrics block that was
    /// thrown away (WAL replay).
    pub fn rewind_stats(&mut self) {
        self.reported = (0, 0);
    }

    /// Exports the dynamic state for a snapshot.
    pub fn export(&self) -> SliceState {
        SliceState {
            holds: self.holds.clone(),
            events_in: self.events_in,
            events_filtered: self.events_filtered,
        }
    }

    /// Restores dynamic state exported by [`SliceFilter::export`] from
    /// a filter built over the same predicate.
    pub fn restore(&mut self, state: &SliceState) -> Result<(), &'static str> {
        if state.holds.len() != self.holds.len() {
            return Err("slice state shape does not match predicate");
        }
        self.holds.clone_from(&state.holds);
        self.events_in = state.events_in;
        self.events_filtered = state.events_filtered;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_computation::VarTable;

    fn setup() -> (SliceFilter, VarId, VarId) {
        let mut vars = VarTable::new();
        let x = vars.declare("x");
        let y = vars.declare("y");
        // Process 0: x >= 1; process 1: non-participating.
        let clauses = vec![Some(LocalExpr::ge(x, 1)), None];
        let initial = vec![LocalState::zeroed(2), LocalState::zeroed(2)];
        (SliceFilter::from_clauses(&clauses, &initial), x, y)
    }

    #[test]
    fn participating_true_states_are_members() {
        let (mut f, x, _) = setup();
        let d = f.advance(0, [x], || true);
        assert_eq!(d, SliceDelta::Enter);
        assert_eq!((f.events_in(), f.events_filtered()), (1, 0));
    }

    #[test]
    fn false_states_are_filtered_and_reported_once() {
        let (mut f, x, _) = setup();
        assert_eq!(f.take_stats(), None, "nothing observed yet");
        assert!(!f.advance(0, [x], || false).is_member());
        assert!(!f.advance(0, [x], || false).is_member());
        assert!(f.advance(0, [x], || true).is_member());
        assert_eq!((f.events_in(), f.events_filtered()), (3, 2));
        assert_eq!(f.take_stats(), Some((3, 2)));
        assert_eq!(f.take_stats(), None, "watermark advanced");
        assert!(!f.advance(0, [x], || false).is_member());
        assert_eq!(f.take_stats(), Some((1, 1)));
        f.rewind_stats();
        assert_eq!(f.take_stats(), Some((4, 3)), "lifetime totals");
    }

    #[test]
    fn untouched_events_reuse_the_cached_truth() {
        let (mut f, x, y) = setup();
        // Cached truth is false (zeroed initial state): an event that
        // only assigns `y` cannot flip it, so `eval` must not run.
        let d = f.advance(0, [y], || panic!("eval on untouched clause"));
        assert_eq!(
            d,
            SliceDelta::Skip {
                reason: SkipReason::Untouched
            }
        );
        // Flip the cache to true; untouched events are now members —
        // the detector pushes candidates for them.
        assert!(f.advance(0, [x], || true).is_member());
        assert!(f
            .advance(0, [y], || panic!("eval on untouched clause"))
            .is_member());
    }

    #[test]
    fn non_participating_processes_are_filtered() {
        let (mut f, x, _) = setup();
        let d = f.advance(1, [x], || panic!("eval on vacuous clause"));
        assert_eq!(
            d,
            SliceDelta::Skip {
                reason: SkipReason::NonParticipating
            }
        );
        assert_eq!(f.events_filtered(), 1);
    }

    #[test]
    fn export_restore_round_trips() {
        let (mut f, x, _) = setup();
        f.advance(0, [x], || false);
        f.advance(1, std::iter::empty::<VarId>(), || true);
        f.advance(0, [x], || true);
        let state = f.export();

        let (mut fresh, _, _) = setup();
        fresh.restore(&state).unwrap();
        assert_eq!(fresh.export(), state);
        // The restored filter continues exactly where the original
        // left off: an untouched event reuses the restored cache.
        assert!(fresh
            .advance(0, std::iter::empty::<VarId>(), || panic!(
                "eval on untouched clause"
            ))
            .is_member());

        let bad = SliceState {
            holds: vec![true],
            ..SliceState::default()
        };
        assert!(fresh.restore(&bad).is_err());
    }
}

//! Slice membership for regular predicates: the per-event bits a
//! distributed session's workers ship to its aggregator.
//!
//! The *slice* of a computation with respect to a predicate `p`
//! (Mittal–Garg, *Techniques and Applications of Computation Slicing*)
//! is the smallest sublattice of the cut lattice containing every
//! consistent cut that satisfies `p`. For **regular** predicates —
//! closed under both meet and join, e.g. conjunctions of local clauses
//! — the slice is itself a distributive lattice, described by one
//! join-irreducible cut `J_p(e)` per event: the least satisfying cut
//! containing `e`. `crates/slicer` computes those cuts offline from a
//! complete [`hb_computation::Computation`].
//!
//! Online, a conjunctive detector needs less than the cuts: only
//! *membership*, whether an event's post-state satisfies its process's
//! clause. A clause-false event collapses forward onto the process's
//! next clause-true event (`J_p(e) = J_p(succ)`), so it is never a
//! slice node of its own. [`SliceFilter`] decides membership in O(1)
//! per event, reusing a cached clause value when the event assigns
//! none of the clause's variables. It is the whole of a distributed
//! session's worker (Chauhan–Garg's distributed abstraction): the
//! worker ships each event's bits to the aggregator.
//!
//! # Why the bits are the detector's whole input
//!
//! The conjunctive detector (Garg–Waldecker queues) does two things
//! per observation: it advances the per-process state counter, and —
//! only for participating, clause-true states — pushes a candidate
//! `(state, clock)` and rechecks the queue heads. A membership bit is
//! therefore exactly the `holds` argument of
//! `OnlineMonitor::observe`: the aggregator feeds every delivered
//! update to its detector as `observe(p, bit, clock)` and ends in the
//! state a plain session, which evaluates the clause itself, reaches
//! on the same events.
//!
//! Membership here is deliberately *detector-level*: events of
//! non-participating processes are genuine slice nodes in the Birkhoff
//! sense (their vacuous clause holds everywhere) but carry no
//! information for the detector, so the filter skips them too, tagged
//! [`SkipReason::NonParticipating`] to keep the two notions separate.

mod filter;

pub use filter::{SliceFilter, SliceState};

use hb_computation::VarId;
use hb_predicates::LocalExpr;
use hb_tracefmt::wire::WireMode;

/// What one delivered event does to the slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SliceDelta {
    /// The event enters the slice as a join-irreducible node.
    Enter,
    /// The event is provably irrelevant to detection: it is never a
    /// slice node of its own (`J_p(e)` equals the `J_p` of the
    /// process's next admitted event), or it belongs to a process the
    /// predicate ignores.
    Skip {
        /// Why the event was skipped.
        reason: SkipReason,
    },
}

impl SliceDelta {
    /// True iff the event is a slice member: the detector observes
    /// it with its clause holding.
    pub fn is_member(&self) -> bool {
        matches!(self, SliceDelta::Enter)
    }
}

/// Why a [`SliceDelta::Skip`] skipped its event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The predicate has no clause on the event's process.
    NonParticipating,
    /// The event assigns none of the clause's variables and the cached
    /// clause value is false, so the post-state clause is false too.
    Untouched,
    /// The clause was evaluated on the post-state and is false.
    ClauseFalse,
}

/// True iff membership bits decide this predicate mode.
///
/// This is the structural counterpart of the semantic test
/// `hb_predicates::classify::is_regular_on`: conjunctions of local
/// clauses are regular by construction (Mittal–Garg), which the
/// proptests in this crate audit against the lattice oracle on random
/// computations. Disjunctive and pattern predicates are not meet- and
/// join-closed in general, so they are never distributed.
pub fn sliceable(mode: WireMode) -> bool {
    matches!(mode, WireMode::Conjunctive)
}

/// Collects the variables a clause depends on, sorted and deduplicated.
pub fn clause_vars(expr: &LocalExpr) -> Vec<VarId> {
    fn walk(e: &LocalExpr, out: &mut Vec<VarId>) {
        match e {
            LocalExpr::Const(_) => {}
            LocalExpr::Cmp(var, _, _) => out.push(*var),
            LocalExpr::Not(a) => walk(a, out),
            LocalExpr::And(a, b) | LocalExpr::Or(a, b) => {
                walk(a, out);
                walk(b, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out.sort_unstable_by_key(|v| v.index());
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_computation::VarId;

    #[test]
    fn clause_vars_sorted_and_deduped() {
        let x = VarId::from_index(1);
        let y = VarId::from_index(0);
        let e = LocalExpr::ge(x, 1)
            .and(LocalExpr::le(y, 3))
            .and(LocalExpr::eq(x, 2).or(LocalExpr::Const(true)));
        assert_eq!(clause_vars(&e), vec![y, x]);
    }

    #[test]
    fn only_conjunctive_is_sliceable() {
        assert!(sliceable(WireMode::Conjunctive));
        assert!(!sliceable(WireMode::Disjunctive));
        assert!(!sliceable(WireMode::Pattern));
    }
}

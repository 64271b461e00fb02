//! **Algorithm A2**: `AG(p)` — *invariant: p* — for linear predicates
//! (Fig. 1 of the paper).
//!
//! By Birkhoff's theorem every consistent cut other than the final cut is
//! the meet of the meet-irreducible cuts above it (Corollary 4), and for
//! the cut lattice the meet-irreducibles are exactly the cuts
//! `E − ↑e`, one per event `e`. Since a linear predicate is closed under
//! meets, `p` holds on *every* consistent cut iff it holds on
//! `{E − ↑e : e ∈ E} ∪ {E}` — an `O(|E|)`-point check instead of an
//! exponential sweep.
//!
//! The paper reaches the meet-irreducible set through the `O(n²|E|)`
//! slicing algorithm of \[9\]; with vector clocks in hand it is a sweep.
//! Component `j` of `E − ↑e_i^k` counts the events of `P_j` whose clock
//! knows at most `k` events of `P_i`. That count never decreases as `k`
//! grows, so visiting each process's events in order moves `n` pointers
//! forward only: `O(n + |E|)` per process and `O(n|E|)` in all, plus
//! `|E| + 1` evaluations of `p`. Both facts are property-tested against
//! the lattice definition in `hb-lattice`.

use hb_computation::{Computation, Cut, EventId};
use hb_predicates::LinearPredicate;

/// Outcome of an `AG` detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgReport {
    /// Whether every consistent cut satisfies `p`.
    pub holds: bool,
    /// A consistent cut violating `p` when `!holds` (always one of the
    /// meet-irreducible cuts or the final cut).
    pub counterexample: Option<Cut>,
    /// Number of cuts evaluated.
    pub checked: usize,
}

/// Algorithm A2: detects `AG(p)` for a linear predicate `p`.
pub fn ag_linear<P: LinearPredicate + ?Sized>(comp: &Computation, p: &P) -> AgReport {
    let mut checked = 0usize;

    let final_cut = comp.final_cut();
    checked += 1;
    if !p.eval(comp, &final_cut) {
        return AgReport {
            holds: false,
            counterexample: Some(final_cut),
            checked,
        };
    }

    let n = comp.num_processes();
    // `next[j]`: component `i` of the clock of `P_j`'s first event outside
    // the current cut, or `u32::MAX` once every event of `P_j` is in.
    let mut next = vec![0u32; n];
    // Events in `event_ids()` order: process by process, index by index.
    for i in 0..n {
        let mut v = Cut::initial(n);
        for (j, t) in next.iter_mut().enumerate() {
            *t = clock_entry(comp, j, 0, i);
        }
        for k in 0..comp.num_events_of(i) as u32 {
            // v = E − ↑e_i^k: admit every event that knows ≤ k events of P_i.
            for (j, t) in next.iter_mut().enumerate() {
                if *t <= k {
                    let mut c = v.get(j);
                    while *t <= k {
                        c += 1;
                        *t = clock_entry(comp, j, c, i);
                    }
                    v.set(j, c);
                }
            }
            checked += 1;
            if !p.eval(comp, &v) {
                return AgReport {
                    holds: false,
                    counterexample: Some(v),
                    checked,
                };
            }
        }
    }
    AgReport {
        holds: true,
        counterexample: None,
        checked,
    }
}

/// Component `i` of the clock of event `c` of `P_j`, or `u32::MAX` past
/// `P_j`'s last event.
fn clock_entry(comp: &Computation, j: usize, c: u32, i: usize) -> u32 {
    if (c as usize) < comp.num_events_of(j) {
        comp.clock(EventId::new(j, c as usize)).get(i)
    } else {
        u32::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_computation::ComputationBuilder;
    use hb_predicates::{ChannelsEmpty, Conjunctive, LocalExpr, Predicate, TrueP};

    fn sample() -> (Computation, hb_computation::VarId) {
        let mut b = ComputationBuilder::new(2);
        let x = b.var("x");
        b.init(0, x, 1);
        b.init(1, x, 1);
        b.internal(0).set(x, 2).done();
        let m = b.send(0).done_send();
        b.internal(1).set(x, 3).done();
        b.receive(1, m).set(x, 4).done();
        (b.finish().unwrap(), x)
    }

    #[test]
    fn invariant_holds() {
        let (comp, x) = sample();
        let p = Conjunctive::new(vec![(0, LocalExpr::ge(x, 1)), (1, LocalExpr::ge(x, 1))]);
        let r = ag_linear(&comp, &p);
        assert!(r.holds);
        assert_eq!(r.checked, comp.num_events() + 1);
    }

    #[test]
    fn violation_found_with_counterexample() {
        let (comp, x) = sample();
        let p = Conjunctive::new(vec![(0, LocalExpr::le(x, 1))]);
        let r = ag_linear(&comp, &p);
        assert!(!r.holds);
        let cex = r.counterexample.unwrap();
        assert!(comp.is_consistent(&cex));
        assert!(!p.eval(&comp, &cex));
    }

    #[test]
    fn agrees_with_exhaustive_check() {
        let (comp, x) = sample();
        let preds = [
            Conjunctive::new(vec![(0, LocalExpr::ge(x, 1))]),
            Conjunctive::new(vec![(0, LocalExpr::le(x, 2))]),
            Conjunctive::new(vec![(1, LocalExpr::ne(x, 3))]),
            Conjunctive::top(),
        ];
        for p in &preds {
            let expected = {
                // Exhaustive ground truth over all consistent cuts.
                let mut all = true;
                for a in 0..=2u32 {
                    for b in 0..=2u32 {
                        let g = Cut::from_counters(vec![a, b]);
                        if comp.is_consistent(&g) && !p.eval(&comp, &g) {
                            all = false;
                        }
                    }
                }
                all
            };
            assert_eq!(ag_linear(&comp, p).holds, expected, "{}", p.describe());
        }
    }

    #[test]
    fn channels_empty_invariant_fails_when_messages_exist() {
        let (comp, _) = sample();
        let r = ag_linear(&comp, &ChannelsEmpty);
        assert!(!r.holds);
        // The counterexample has the message in transit.
        assert!(comp.in_transit_count(&r.counterexample.unwrap()) > 0);
    }

    #[test]
    fn trivial_predicates() {
        let (comp, _) = sample();
        assert!(ag_linear(&comp, &TrueP).holds);
        let r = ag_linear(&comp, &hb_predicates::FalseP);
        assert!(!r.holds);
        assert_eq!(r.counterexample.unwrap(), comp.final_cut());
    }

    #[test]
    fn empty_computation_checks_only_final() {
        let comp = ComputationBuilder::new(3).finish().unwrap();
        let r = ag_linear(&comp, &TrueP);
        assert!(r.holds);
        assert_eq!(r.checked, 1);
    }
}

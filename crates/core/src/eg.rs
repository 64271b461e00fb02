//! **Algorithm A1**: `EG(p)` — *controllable: p* — for linear predicates
//! (Fig. 1 of the paper).
//!
//! Walk backwards from the final cut; at each step collect the predecessor
//! cuts (`G ▷ W`) that satisfy `p` and pick **any** of them — Lemma 1 and
//! Theorem 2 prove the arbitrary choice is safe for linear `p`. If the
//! walk reaches the initial cut the satisfying cuts found form the
//! witness path; if some cut has no satisfying predecessor, `EG(p)` is
//! false.
//!
//! Both entry points share one backward walker. The predecessors of `W`
//! are `W − e_j` for the maximal last events `e_j`, and the walker keeps
//! `blockers[j]`: how many frontier events of other processes know `e_j`.
//! So `e_j` is maximal iff `blockers[j] == 0`. Retreating `j` changes
//! one frontier clock, which costs two row updates (old and new clock)
//! plus a recount of column `j`. That is the `O(n)`-per-step predecessor
//! enumeration the paper's `O(n|E|)` bound assumes. Candidates are tried
//! lowest process first.
//!
//! * [`eg_linear`] — over any [`LinearPredicate`]: each candidate
//!   predecessor is evaluated in full (`O(n + n·eval)` per step);
//! * [`eg_conjunctive`] — retreating `j` only changes `j`'s clause, so the
//!   check per candidate is `O(1)` and a step is `O(n)`: `O(n|E|)` in
//!   all, after an `O(n²)` count at the start.
//!
//! The duals for post-linear predicates walk forward from the initial cut
//! ([`eg_post_linear`]).

use hb_computation::{Computation, Cut, EventId};
use hb_predicates::{Conjunctive, LinearPredicate, PostLinearPredicate, Predicate};

/// Outcome of an `EG` detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EgReport {
    /// Whether some maximal path satisfies `p` on every cut.
    pub holds: bool,
    /// The witness path `∅ → E` (every cut satisfies `p`) when `holds`.
    pub witness: Option<Vec<Cut>>,
    /// Cuts visited (for complexity experiments).
    pub steps: usize,
}

/// Algorithm A1: detects `EG(p)` for a linear predicate `p`.
pub fn eg_linear<P: LinearPredicate + ?Sized>(comp: &Computation, p: &P) -> EgReport {
    let start = comp.final_cut();
    if !p.eval(comp, &start) {
        return EgReport::fails(1);
    }
    Walker::new(comp, start).run(|w, j| {
        // Evaluate `w − e_j` in place; the walker restores `w`.
        let c = w.get(j);
        w.set(j, c - 1);
        let sat = p.eval(comp, w);
        w.set(j, c);
        sat
    })
}

/// Algorithm A1 with the incremental conjunctive check: when `W` satisfies
/// the conjunction, the predecessor `W − e_j` satisfies it iff `j`'s
/// clause holds in `j`'s previous state.
pub fn eg_conjunctive(comp: &Computation, p: &Conjunctive) -> EgReport {
    eg_conjunctive_below(comp, p, comp.final_cut())
}

/// [`eg_conjunctive`] on the sub-computation of the consistent cut `top`,
/// walked in place: below `top` the sub-computation has the same clocks
/// and states as `comp`. Algorithm A3 runs it from each `I_q − e`.
pub(crate) fn eg_conjunctive_below(comp: &Computation, p: &Conjunctive, top: Cut) -> EgReport {
    if !p.eval(comp, &top) {
        return EgReport::fails(1);
    }
    Walker::new(comp, top).run(|w, j| p.clause_holds_at(comp, j, w.get(j) - 1))
}

impl EgReport {
    fn fails(steps: usize) -> EgReport {
        EgReport {
            holds: false,
            witness: None,
            steps,
        }
    }
}

/// The backward walk of A1 over a consistent cut `w`, with
/// `blockers[i]` = the number of processes `k ≠ i` whose frontier event
/// knows at least `w[i]` events of `P_i`. For `w[i] > 0` that is "`e_i` is not
/// maximal"; the count is kept for every `i` so the updates stay uniform.
struct Walker<'a> {
    comp: &'a Computation,
    w: Cut,
    rank: u32,
    /// The clock of each process's last included event.
    front: Vec<Option<&'a [u32]>>,
    blockers: Vec<u32>,
}

impl<'a> Walker<'a> {
    fn new(comp: &'a Computation, w: Cut) -> Self {
        let n = w.width();
        let front: Vec<Option<&'a [u32]>> =
            (0..n).map(|k| frontier_clock(comp, k, w.get(k))).collect();
        let mut walker = Walker {
            comp,
            rank: w.rank(),
            w,
            front,
            blockers: vec![0; n],
        };
        for i in 0..n {
            walker.blockers[i] = walker.count_blockers(i);
        }
        walker
    }

    /// Blockers of column `i`, counted from scratch: `O(n)`.
    fn count_blockers(&self, i: usize) -> u32 {
        let c = self.w.get(i);
        self.front
            .iter()
            .enumerate()
            .filter(|&(k, v)| k != i && v.is_some_and(|v| v[i] >= c))
            .count() as u32
    }

    /// Removes the last included event of `j`, which must be maximal.
    fn retreat(&mut self, j: usize) {
        let old = self.front[j].expect("retreating process has events");
        let c = self.w.get(j) - 1;
        self.w.set(j, c);
        self.rank -= 1;
        let new = frontier_clock(self.comp, j, c);
        self.front[j] = new;
        // Row j: `j`'s frontier event changed; other columns keep their w.
        for (i, b) in self.blockers.iter_mut().enumerate() {
            if i != j {
                let ci = self.w.get(i);
                *b -= u32::from(old[i] >= ci);
                *b += u32::from(new.is_some_and(|v| v[i] >= ci));
            }
        }
        // Column j: w[j] changed.
        self.blockers[j] = self.count_blockers(j);
    }

    /// Walks to the initial cut, taking at each step the lowest maximal
    /// `e_j` for which `step_ok(w, j)` says `w − e_j` satisfies `p`. The
    /// starting cut must satisfy `p`; `step_ok` must leave `w` unchanged.
    fn run(mut self, mut step_ok: impl FnMut(&mut Cut, usize) -> bool) -> EgReport {
        let mut path = vec![self.w.clone()];
        let mut steps = 1usize;
        while self.rank > 0 {
            steps += 1;
            let chosen = (0..self.w.width())
                .find(|&j| self.w.get(j) > 0 && self.blockers[j] == 0 && step_ok(&mut self.w, j));
            match chosen {
                Some(j) => {
                    self.retreat(j);
                    path.push(self.w.clone());
                }
                None => return EgReport::fails(steps),
            }
        }
        path.reverse();
        EgReport {
            holds: true,
            witness: Some(path),
            steps,
        }
    }
}

/// The clock of the last of the first `c` events of process `k`.
fn frontier_clock(comp: &Computation, k: usize, c: u32) -> Option<&[u32]> {
    (c > 0).then(|| comp.clock(EventId::new(k, c as usize - 1)).components())
}

/// The dual of A1 for post-linear predicates: walk forward from the
/// initial cut, choosing any successor that satisfies `p`.
pub fn eg_post_linear<P: PostLinearPredicate + ?Sized>(comp: &Computation, p: &P) -> EgReport {
    let final_cut = comp.final_cut();
    if !p.eval(comp, &comp.initial_cut()) {
        return EgReport {
            holds: false,
            witness: None,
            steps: 1,
        };
    }
    let mut w = comp.initial_cut();
    let mut path = vec![w.clone()];
    let mut steps = 1usize;
    while w != final_cut {
        steps += 1;
        let mut next = None;
        for j in 0..w.width() {
            if comp.can_advance(&w, j) {
                let g = w.advanced(j);
                if p.eval(comp, &g) {
                    next = Some(g);
                    break;
                }
            }
        }
        match next {
            Some(g) => {
                w = g;
                path.push(w.clone());
            }
            None => {
                return EgReport {
                    holds: false,
                    witness: None,
                    steps,
                }
            }
        }
    }
    EgReport {
        holds: true,
        witness: Some(path),
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witness::verify_eg_witness;
    use hb_computation::ComputationBuilder;
    use hb_predicates::{ChannelsEmpty, LocalExpr, TrueP};

    fn xy_comp() -> (Computation, hb_computation::VarId) {
        // P0: x:1 → 2 → 1 ; P1: x:1 → 0 → 1
        let mut b = ComputationBuilder::new(2);
        let x = b.var("x");
        b.init(0, x, 1);
        b.init(1, x, 1);
        b.internal(0).set(x, 2).done();
        b.internal(0).set(x, 1).done();
        b.internal(1).set(x, 0).done();
        b.internal(1).set(x, 1).done();
        (b.finish().unwrap(), x)
    }

    #[test]
    fn eg_holds_with_witness_path() {
        let (comp, x) = xy_comp();
        // x ≥ 1 on P0 always; on P1 fails in the middle, but a path can
        // cross P1's bad state… no: every path must pass a cut with
        // P1-counter = 1 where x=0. So use x ≥ 0 on P1.
        let p = Conjunctive::new(vec![(0, LocalExpr::ge(x, 1)), (1, LocalExpr::ge(x, 0))]);
        let r = eg_linear(&comp, &p);
        assert!(r.holds);
        verify_eg_witness(&comp, &p, r.witness.as_deref().unwrap()).unwrap();
    }

    #[test]
    fn eg_fails_when_every_path_hits_bad_cut() {
        let (comp, x) = xy_comp();
        // P1 must pass through x=0 on every path.
        let p = Conjunctive::new(vec![(1, LocalExpr::ge(x, 1))]);
        assert!(!eg_linear(&comp, &p).holds);
        assert!(!eg_conjunctive(&comp, &p).holds);
    }

    #[test]
    fn eg_fails_at_final_cut() {
        let (comp, x) = xy_comp();
        let p = Conjunctive::new(vec![(0, LocalExpr::eq(x, 2))]);
        let r = eg_linear(&comp, &p);
        assert!(!r.holds);
        assert_eq!(r.steps, 1);
    }

    #[test]
    fn incremental_agrees_with_naive() {
        let (comp, x) = xy_comp();
        for p in [
            Conjunctive::new(vec![(0, LocalExpr::ge(x, 1)), (1, LocalExpr::ge(x, 0))]),
            Conjunctive::new(vec![(1, LocalExpr::ge(x, 1))]),
            Conjunctive::new(vec![(0, LocalExpr::eq(x, 1))]),
            Conjunctive::top(),
        ] {
            let a = eg_linear(&comp, &p);
            let b = eg_conjunctive(&comp, &p);
            assert_eq!(a.holds, b.holds, "{}", p.describe());
            if let Some(w) = b.witness.as_deref() {
                verify_eg_witness(&comp, &p, w).unwrap();
            }
        }
    }

    #[test]
    fn eg_true_predicate_always_holds() {
        let (comp, _) = xy_comp();
        let r = eg_linear(&comp, &TrueP);
        assert!(r.holds);
        assert_eq!(r.witness.unwrap().len(), comp.num_events() + 1);
    }

    #[test]
    fn eg_on_empty_computation_is_initial_eval() {
        let comp = ComputationBuilder::new(2).finish().unwrap();
        assert!(eg_linear(&comp, &TrueP).holds);
        assert!(!eg_linear(&comp, &hb_predicates::FalseP).holds);
    }

    #[test]
    fn eg_post_linear_mirrors_forward() {
        // Channels-empty controllable: deliver each message immediately.
        let mut b = ComputationBuilder::new(2);
        let m1 = b.send(0).done_send();
        b.receive(1, m1).done();
        let m2 = b.send(1).done_send();
        b.receive(0, m2).done();
        let comp = b.finish().unwrap();
        let fwd = eg_post_linear(&comp, &ChannelsEmpty);
        // Not controllable: right after a send the channel is nonempty.
        assert!(!fwd.holds);
    }

    #[test]
    fn eg_post_linear_holds_without_messages() {
        let mut b = ComputationBuilder::new(2);
        b.internal(0).done();
        b.internal(1).done();
        let comp = b.finish().unwrap();
        let r = eg_post_linear(&comp, &ChannelsEmpty);
        assert!(r.holds);
        verify_eg_witness(&comp, &ChannelsEmpty, r.witness.as_deref().unwrap()).unwrap();
    }
}
